//! Checkpoints: durable snapshots that bound journal replay.
//!
//! Recovery by full journal replay is linear in the *history*, not the
//! directory: every committed transaction re-runs through the checked
//! apply path, and at the paper's target scale (§6, directories with
//! millions of entries) that is minutes of downtime after every crash.
//! A checkpoint caps the replay window: a canonical, slot-exact
//! snapshot of the instance is written atomically next to the journal,
//! the journal is truncated, and recovery becomes *decode checkpoint +
//! replay short tail*.
//!
//! ## File format
//!
//! A checkpoint file is one header line followed by a length-prefixed,
//! checksummed LDIF body:
//!
//! ```text
//! bschema-ckpt v1 len=<body-bytes> sum=<fnv64-hex>
//! dn: cn=checkpoint
//! ckpbound: 6
//! ckpentries: 5
//! ckpfree: 3
//! ckpschema: 9ae1c6022754a3b5
//! ckpseq: 42
//! ckptx: 17
//! ckpversion: 1
//!
//! dn: slot=0,cn=checkpoint
//! objectClass: organization
//! objectClass: top
//! ckpparent: -
//! ckprdn: o=att
//! o: att
//! ...
//! ```
//!
//! The body is the same LDIF dialect as directory content and the
//! journal, so standard tooling can inspect it. The first record
//! carries the snapshot header under reserved `ckp*` attributes: the
//! arena `slot_bound`, the free-slot stack (bottom first, as repeated
//! `ckpfree` values), the journal sequence number the snapshot covers
//! (`ckpseq`), the transaction-id cursor (`ckptx`), an FNV-1a hash of
//! the governing schema (`ckpschema`), and for sharded directories the
//! shard index (`ckpshard`). Every following record is one live slot in
//! preorder — `ckpparent` (`-` for roots) and `ckprdn` alongside the
//! entry's own attributes — which is exactly the input
//! [`DirectoryInstance::from_slots`] needs to rebuild an instance with
//! byte-identical [`canonical_bytes`] *and* identical future slot
//! assignment, so a journal tail addressing entries as
//! `existing:<slot>` replays correctly on top.
//!
//! ## Crash consistency
//!
//! [`write_checkpoint`] writes a temp file, syncs it, renames it into
//! place and syncs the directory; [`truncate_journal`] then (and only
//! then) replaces the journal with an empty file the same way. The
//! fault sites `checkpoint.write` and `checkpoint.truncate` sit between
//! the vulnerable steps. A crash or power cut therefore leaves one of
//! exactly three states, and [`RecoveryPlan`] handles each rung of the
//! ladder:
//!
//! 1. old checkpoint (or none) + full journal — the new snapshot never
//!    landed; recover from what was there before.
//! 2. new checkpoint + full journal — truncation never ran; the replay
//!    rule (committed transactions with `first_seq >= ckpt.seq` only)
//!    skips everything the snapshot already contains.
//! 3. new checkpoint + empty journal — the steady state.
//!
//! A *torn* checkpoint (bad header, short body, checksum mismatch)
//! cannot result from this write ordering — rename is atomic — but can
//! result from outside interference; it is ignored when the journal is
//! still complete (`start_seq == 0`) and fatal when the journal has
//! been truncated, because then no consistent state can be rebuilt.
//!
//! [`canonical_bytes`]: DirectoryInstance::canonical_bytes

use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use bschema_directory::ldif::{parse_ldif, write_record, LdifRecord};
use bschema_directory::{fnv1a, AttributeRegistry, DirectoryInstance, Dn, Entry, SlotRow};
use bschema_obs::Probe;

use crate::journal::{Journal, JournalTx, JournalWriter, Payload, RecoveryReport};
use crate::managed::{ManagedDirectory, ManagedError};
use crate::schema::DirectorySchema;

/// First token of a checkpoint file's header line.
pub const CHECKPOINT_MAGIC: &str = "bschema-ckpt";

/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u64 = 1;

/// DN of the snapshot-header record; slot records are `slot=<n>,` + this.
pub const CHECKPOINT_DN: &str = "cn=checkpoint";

/// Fault/probe site visited between writing the checkpoint temp file
/// and renaming it into place — a crash here loses the new checkpoint.
pub const SITE_CHECKPOINT_WRITE: &str = "checkpoint.write";

/// Fault/probe site visited between the checkpoint landing and the
/// journal truncation rename — a crash here leaves checkpoint + full
/// journal.
pub const SITE_CHECKPOINT_TRUNCATE: &str = "checkpoint.truncate";

/// FNV-1a hash over the schema's
/// [`canonical_text`](DirectorySchema::canonical_text). Textually
/// different but semantically equivalent schemas still hash apart —
/// the safe direction: a mismatch only forces a full replay, never
/// accepts a snapshot certified under different rules.
pub fn schema_hash(schema: &DirectorySchema) -> u64 {
    fnv1a(schema.canonical_text().as_bytes())
}

/// The sibling path where the checkpoint for `journal` lives:
/// `<journal>.ckpt` (so a shard journal `wal.shard2` checkpoints to
/// `wal.shard2.ckpt`).
pub fn checkpoint_path(journal: &Path) -> PathBuf {
    let name = journal
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "journal".to_owned());
    journal.with_file_name(format!("{name}.ckpt"))
}

/// Why a checkpoint file could not be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Structural damage: bad header line, short body, checksum or
    /// length mismatch, malformed LDIF, inconsistent snapshot rows.
    Torn(String),
    /// The checkpoint was taken under a different schema.
    SchemaMismatch {
        /// Hash of the schema recovery is running under.
        expected: u64,
        /// Hash recorded in the checkpoint header.
        found: u64,
    },
    /// The rows decoded but do not assemble into a valid instance.
    Restore(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Torn(reason) => write!(f, "torn checkpoint: {reason}"),
            CheckpointError::SchemaMismatch { expected, found } => write!(
                f,
                "checkpoint schema hash {found:016x} does not match current schema {expected:016x}"
            ),
            CheckpointError::Restore(reason) => {
                write!(f, "checkpoint does not restore: {reason}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

fn torn(reason: impl Into<String>) -> CheckpointError {
    CheckpointError::Torn(reason.into())
}

/// A decoded (or captured) checkpoint: the slot-exact snapshot plus the
/// journal cursor it covers.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// The journal sequence number this snapshot covers: every record
    /// with `seq < self.seq` is folded into the snapshot, and recovery
    /// replays only committed transactions with `first_seq >= seq`.
    pub seq: u64,
    /// One past the highest transaction id folded in — where a resumed
    /// [`JournalWriter`] continues numbering.
    pub next_tx: u64,
    /// [`schema_hash`] of the schema the snapshot was certified under.
    pub schema_hash: u64,
    /// The certifying schema itself, as schema-DSL text (`ckpdsl`).
    /// Lets recovery *adopt* the checkpoint's schema after a journalled
    /// evolution instead of fataling on the hash mismatch — the on-disk
    /// boot schema is then merely the epoch-0 ancestor. `None` for
    /// checkpoints written before this field existed. For a shard
    /// checkpoint the hash covers the localised schema but the embedded
    /// DSL is the *full* schema, so sharded recovery can re-derive the
    /// global ◇c ledger.
    pub schema_dsl: Option<String>,
    /// Shard index for per-shard checkpoints of a sharded directory.
    pub shard: Option<u64>,
    /// The arena slot bound ([`Forest::slot_bound`]).
    ///
    /// [`Forest::slot_bound`]: bschema_directory::Forest::slot_bound
    pub slot_bound: usize,
    /// The dead-slot free stack, bottom first.
    pub free: Vec<u32>,
    /// Live slots in preorder.
    pub rows: Vec<SlotRow>,
}

impl Checkpoint {
    /// Snapshots `instance` as a checkpoint covering journal sequence
    /// `seq` with transaction cursor `next_tx`. The caller must ensure
    /// every journal record below `seq` is reflected in `instance` —
    /// for a live directory that means capturing under the write lock.
    pub fn capture(
        instance: &DirectoryInstance,
        schema: &DirectorySchema,
        seq: u64,
        next_tx: u64,
        shard: Option<u64>,
    ) -> Checkpoint {
        Checkpoint {
            seq,
            next_tx,
            schema_hash: schema_hash(schema),
            schema_dsl: Some(crate::schema::dsl::print_schema(schema, None)),
            shard,
            slot_bound: instance.forest().slot_bound(),
            free: instance.forest().free_slots().to_vec(),
            rows: instance.slot_rows(),
        }
    }

    /// Serialises to the checkpoint file format (header line + LDIF
    /// body). The `ckp*` attribute prefix is reserved: payload
    /// attributes starting with `ckp` would not round-trip.
    pub fn encode(&self) -> String {
        let mut body = String::new();
        let mut header = Entry::default();
        header.add_value("ckpversion", CHECKPOINT_VERSION.to_string());
        header.add_value("ckpseq", self.seq.to_string());
        header.add_value("ckptx", self.next_tx.to_string());
        header.add_value("ckpschema", format!("{:016x}", self.schema_hash));
        if let Some(dsl) = &self.schema_dsl {
            header.add_value("ckpdsl", crate::journal::escape_text(dsl));
        }
        header.add_value("ckpbound", self.slot_bound.to_string());
        header.add_value("ckpentries", self.rows.len().to_string());
        if let Some(shard) = self.shard {
            header.add_value("ckpshard", shard.to_string());
        }
        for slot in &self.free {
            header.add_value("ckpfree", slot.to_string());
        }
        write_record(&mut body, CHECKPOINT_DN, &header);
        for row in &self.rows {
            let mut entry = row.entry.clone();
            entry.add_value(
                "ckpparent",
                row.parent.map_or_else(|| "-".to_owned(), |p| p.to_string()),
            );
            if let Some(rdn) = &row.rdn {
                entry.add_value("ckprdn", rdn.to_string());
            }
            write_record(&mut body, &format!("slot={},{CHECKPOINT_DN}", row.slot), &entry);
        }
        format!(
            "{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION} len={} sum={:016x}\n{body}",
            body.len(),
            fnv1a(body.as_bytes()),
        )
    }

    /// Parses a checkpoint file. Any structural defect — a crash can
    /// only leave a missing file, never a torn one, but disks and
    /// operators can — comes back as [`CheckpointError::Torn`] so the
    /// caller can decide whether full replay is still possible.
    pub fn decode(text: &str) -> Result<Checkpoint, CheckpointError> {
        let (line, rest) = text.split_once('\n').ok_or_else(|| torn("missing header line"))?;
        let mut tokens = line.split_ascii_whitespace();
        if tokens.next() != Some(CHECKPOINT_MAGIC) {
            return Err(torn("bad magic"));
        }
        if tokens.next() != Some(&format!("v{CHECKPOINT_VERSION}")[..]) {
            return Err(torn("unsupported version"));
        }
        let len: usize = tokens
            .next()
            .and_then(|t| t.strip_prefix("len="))
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| torn("bad length prefix"))?;
        let sum: u64 = tokens
            .next()
            .and_then(|t| t.strip_prefix("sum="))
            .and_then(|t| u64::from_str_radix(t, 16).ok())
            .ok_or_else(|| torn("bad checksum field"))?;
        if rest.len() < len || !rest.is_char_boundary(len) {
            return Err(torn("short body"));
        }
        let body = &rest[..len];
        if fnv1a(body.as_bytes()) != sum {
            return Err(torn("checksum mismatch"));
        }
        let records = parse_ldif(body).map_err(|e| torn(format!("body is not LDIF: {e}")))?;
        let mut records = records.into_iter();
        let header = records.next().ok_or_else(|| torn("empty body"))?;
        if header.dn.to_string() != CHECKPOINT_DN {
            return Err(torn("first record is not the snapshot header"));
        }
        let field = |attr: &str| -> Result<u64, CheckpointError> {
            header
                .entry
                .first_value(attr)
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| torn(format!("missing or malformed {attr}")))
        };
        if field("ckpversion")? != CHECKPOINT_VERSION {
            return Err(torn("unsupported snapshot version"));
        }
        let seq = field("ckpseq")?;
        let next_tx = field("ckptx")?;
        let schema_hash = header
            .entry
            .first_value("ckpschema")
            .and_then(|v| u64::from_str_radix(v.trim(), 16).ok())
            .ok_or_else(|| torn("missing or malformed ckpschema"))?;
        let schema_dsl = header.entry.first_value("ckpdsl").map(crate::journal::unescape_text);
        let slot_bound = field("ckpbound")? as usize;
        let entries = field("ckpentries")? as usize;
        let shard = match header.entry.first_value("ckpshard") {
            Some(v) => Some(v.trim().parse().map_err(|_| torn("malformed ckpshard"))?),
            None => None,
        };
        let mut free = Vec::new();
        for value in header.entry.values("ckpfree") {
            free.push(value.trim().parse().map_err(|_| torn("malformed ckpfree"))?);
        }
        let mut rows = Vec::with_capacity(entries);
        for record in records {
            rows.push(decode_slot_record(&record)?);
        }
        if rows.len() != entries {
            return Err(torn(format!(
                "snapshot header promises {entries} entries, body has {}",
                rows.len()
            )));
        }
        Ok(Checkpoint { seq, next_tx, schema_hash, schema_dsl, shard, slot_bound, free, rows })
    }

    /// The full embedded schema (`ckpdsl`), hash-verified: it must
    /// reproduce the header hash either directly or through its
    /// localised form (a shard checkpoint hashes the engine's
    /// `without_required_classes` schema but embeds the full one).
    /// `None` for pre-`ckpdsl` checkpoints or a DSL that fails
    /// verification — the safe direction, falling back to the old
    /// mismatch behaviour.
    pub fn embedded_full_schema(&self) -> Option<DirectorySchema> {
        let dsl = self.schema_dsl.as_deref()?;
        let full = crate::schema::dsl::parse_schema(dsl).ok()?.schema;
        let ok = schema_hash(&full) == self.schema_hash
            || schema_hash(&full.without_required_classes()) == self.schema_hash;
        ok.then_some(full)
    }

    /// The *engine* schema this checkpoint was certified under — the
    /// hash-matching form of [`embedded_full_schema`]: the full schema,
    /// or its localised form for a shard checkpoint.
    ///
    /// [`embedded_full_schema`]: Checkpoint::embedded_full_schema
    pub fn embedded_engine_schema(&self) -> Option<DirectorySchema> {
        let full = self.embedded_full_schema()?;
        if schema_hash(&full) == self.schema_hash {
            return Some(full);
        }
        Some(full.without_required_classes())
    }

    /// Rebuilds the instance this checkpoint snapshots, over the given
    /// attribute namespace. The result is slot-exact: byte-identical
    /// [`canonical_bytes`](DirectoryInstance::canonical_bytes) and the
    /// same future slot assignment as the snapshot source.
    pub fn restore(
        &self,
        registry: AttributeRegistry,
    ) -> Result<DirectoryInstance, CheckpointError> {
        DirectoryInstance::from_slots(registry, self.slot_bound, self.rows.clone(), &self.free)
            .map_err(|e| CheckpointError::Restore(e.to_string()))
    }
}

/// Decodes one `slot=<n>,cn=checkpoint` body record into a [`SlotRow`].
fn decode_slot_record(record: &LdifRecord) -> Result<SlotRow, CheckpointError> {
    let dn = record.dn.to_string();
    let slot = dn
        .strip_prefix("slot=")
        .and_then(|rest| rest.strip_suffix(&format!(",{CHECKPOINT_DN}")[..]))
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| torn(format!("unexpected record DN {dn:?} in snapshot body")))?;
    let parent = match record.entry.first_value("ckpparent") {
        Some("-") => None,
        Some(v) => Some(v.trim().parse().map_err(|_| torn("malformed ckpparent"))?),
        None => return Err(torn(format!("slot {slot} record is missing ckpparent"))),
    };
    let rdn = match record.entry.first_value("ckprdn") {
        Some(s) => Some(
            Dn::parse(s)
                .ok()
                .and_then(|dn| dn.rdn().cloned())
                .ok_or_else(|| torn(format!("slot {slot} has malformed ckprdn")))?,
        ),
        None => None,
    };
    let mut entry = record.entry.clone();
    for attr in ["ckpparent", "ckprdn"] {
        entry.remove_attribute(attr);
    }
    Ok(SlotRow { slot, parent, rdn, entry })
}

/// Atomically and durably installs checkpoint `text` at `path`: the
/// bytes go to a `.tmp` sibling, the temp file is synced, renamed into
/// place, and the parent directory synced — so a reader (or a crash, or
/// a power cut) sees either the old checkpoint or the complete new one,
/// never a name without its bytes. The [`SITE_CHECKPOINT_WRITE`] fault
/// site sits between the synced write and the rename.
pub fn write_checkpoint(path: &Path, text: &str, probe: &dyn Probe) -> io::Result<()> {
    replace_durably(path, text.as_bytes(), SITE_CHECKPOINT_WRITE, probe)
}

/// Truncates `journal` to empty after a checkpoint covering its whole
/// intact prefix has landed — the same synced temp file + rename +
/// directory sync, with the [`SITE_CHECKPOINT_TRUNCATE`] fault site
/// before the rename. Must only be called *after* [`write_checkpoint`]
/// returned: the replay rule tolerates checkpoint-without-truncation,
/// not the reverse, and because `write_checkpoint` synced the directory
/// the empty journal can never reach the disk ahead of the checkpoint.
pub fn truncate_journal(journal: &Path, probe: &dyn Probe) -> io::Result<()> {
    replace_durably(journal, b"", SITE_CHECKPOINT_TRUNCATE, probe)
}

fn replace_durably(path: &Path, bytes: &[u8], site: &str, probe: &dyn Probe) -> io::Result<()> {
    let name = path
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "checkpoint".to_owned());
    let tmp = path.with_file_name(format!("{name}.tmp"));
    let mut file = fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    probe.add(site, 1);
    fs::rename(&tmp, path)?;
    // The rename is durable once the directory entry is.
    sync_parent(path)
}

/// Syncs the directory holding `path` — what makes a created or renamed
/// file's name durable (a bare file name lives in the current directory).
pub(crate) fn sync_parent(path: &Path) -> io::Result<()> {
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    fs::File::open(parent)?.sync_all()
}

/// Outcome of [`recover_with_checkpoint`].
#[derive(Debug)]
pub struct CheckpointRecovery {
    /// The recovered directory. Its journal writer is positioned to
    /// append the next record: sequence and transaction ids continue
    /// across the checkpoint.
    pub managed: ManagedDirectory,
    /// Replay statistics over the journal tail.
    pub report: RecoveryReport,
    /// The sequence the used checkpoint covered, or `None` when
    /// recovery fell back to (or started as) full replay.
    pub checkpoint_seq: Option<u64>,
}

/// What recovery will do with a journal and its optional checkpoint —
/// the ladder's decision, taken without touching any state, so a dry
/// run (`recover --verify`) reports exactly what
/// [`execute`](RecoveryPlan::execute) then does. The rung table is
/// DESIGN.md §16.
#[derive(Debug)]
pub enum RecoveryPlan {
    /// Restore the checkpoint and replay the committed transactions
    /// with `first_seq >= ckpt.seq`.
    Restore {
        /// The decoded checkpoint.
        ckpt: Checkpoint,
        /// The schema the restored engine runs under: the boot schema,
        /// or the checkpoint's embedded one when `adopted`.
        schema: DirectorySchema,
        /// The checkpoint post-dates a journalled schema evolution: the
        /// boot schema is merely its epoch-0 ancestor, and the
        /// hash-verified embedded schema is adopted instead.
        adopted: bool,
        /// Committed tail transactions that will replay.
        tail: usize,
    },
    /// Replay the whole journal from the seed base.
    FullReplay {
        /// The boot schema.
        schema: DirectorySchema,
        /// Why a present checkpoint is being ignored (`None`: there is
        /// no checkpoint). The full history survives, so the damage is
        /// harmless — the caller should re-checkpoint.
        ignored: Option<CheckpointError>,
        /// Committed transactions that will replay.
        txs: usize,
    },
    /// No consistent state can be rebuilt.
    Fatal(String),
}

/// The journal transactions a recovery starting at `from` looks at.
fn tail_from(journal: &Journal, from: u64) -> impl Iterator<Item = &JournalTx> {
    journal.txs.iter().filter(move |jtx| jtx.first_seq >= from)
}

impl RecoveryPlan {
    /// Decides the ladder rung for `journal` + `ckpt_text` under the
    /// boot `schema`. Pure.
    pub fn new(schema: DirectorySchema, ckpt_text: Option<&str>, journal: &Journal) -> Self {
        let ignored = match ckpt_text.map(Checkpoint::decode) {
            None => None,
            Some(Err(torn)) => Some(torn),
            Some(Ok(ckpt)) => {
                let expected = schema_hash(&schema);
                let adopted = ckpt.schema_hash != expected;
                let restore_under =
                    if adopted { ckpt.embedded_engine_schema() } else { Some(schema.clone()) };
                let gap = journal.next_seq() > journal.start_seq && journal.start_seq > ckpt.seq;
                match restore_under {
                    None => {
                        Some(CheckpointError::SchemaMismatch { expected, found: ckpt.schema_hash })
                    }
                    Some(_) if gap => {
                        return RecoveryPlan::Fatal(format!(
                            "journal tail starts at seq {} but the checkpoint only covers {}: \
                             records in between are missing",
                            journal.start_seq, ckpt.seq
                        ))
                    }
                    Some(schema) => {
                        let tail = tail_from(journal, ckpt.seq).filter(|t| t.committed).count();
                        return RecoveryPlan::Restore { ckpt, schema, adopted, tail };
                    }
                }
            }
        };
        match ignored {
            ignored if journal.start_seq == 0 => {
                RecoveryPlan::FullReplay { schema, ignored, txs: journal.committed().count() }
            }
            None => RecoveryPlan::Fatal(format!(
                "journal is truncated (starts at seq {}) but its checkpoint is missing",
                journal.start_seq
            )),
            Some(reason) => RecoveryPlan::Fatal(format!(
                "journal is truncated (starts at seq {}) and its checkpoint is unusable: {reason}",
                journal.start_seq
            )),
        }
    }

    /// Carries the plan out over the `journal` it was made for: restore
    /// the checkpoint (or start from `base`), then the one replay loop —
    /// committed transactions past the covered sequence go back through
    /// the checked apply path, unprobed, uncommitted ones are discarded.
    /// The recovered directory's writer resumes at the higher of the
    /// journal's and the checkpoint's cursors, so numbering never rewinds
    /// across a truncation.
    pub fn execute(
        self,
        base: DirectoryInstance,
        journal: &Journal,
    ) -> Result<CheckpointRecovery, ManagedError> {
        let (mut managed, ckpt) = match self {
            RecoveryPlan::Fatal(reason) => return Err(ManagedError::Recovery(reason)),
            RecoveryPlan::FullReplay { schema, .. } => {
                (ManagedDirectory::for_recovery(schema, base)?, None)
            }
            RecoveryPlan::Restore { ckpt, schema, .. } => {
                let restored = ckpt
                    .restore(base.registry().clone())
                    .map_err(|e| ManagedError::Recovery(e.to_string()))?;
                (ManagedDirectory::for_recovery(schema, restored)?, Some(ckpt))
            }
        };
        let covered = ckpt.as_ref().map_or(0, |c| c.seq);
        let mut report = RecoveryReport {
            replayed: 0,
            schema_cutovers: 0,
            discarded: 0,
            dropped_records: journal.dropped_records,
            truncated: journal.truncated,
        };
        for jtx in tail_from(journal, covered) {
            if !jtx.committed {
                report.discarded += 1;
                continue;
            }
            managed.replay(jtx, bschema_obs::noop()).map_err(|e| {
                ManagedError::Recovery(format!("replaying committed tx {}: {e}", jtx.id))
            })?;
            report.replayed += 1;
            report.schema_cutovers += usize::from(matches!(jtx.payload, Payload::Schema(_)));
        }
        let mut writer = JournalWriter::resume_at(
            journal.next_seq().max(covered),
            journal.next_tx().max(ckpt.as_ref().map_or(0, |c| c.next_tx)),
        );
        if let Some(shard) = journal.shard.or(ckpt.as_ref().and_then(|c| c.shard)) {
            writer = writer.with_shard(shard as usize);
        }
        Ok(CheckpointRecovery {
            managed: managed.with_writer(writer),
            report,
            checkpoint_seq: ckpt.map(|c| c.seq),
        })
    }
}

/// Checkpoint-aware recovery: [`RecoveryPlan::new`] then
/// [`RecoveryPlan::execute`] — the one recovery ladder.
pub fn recover_with_checkpoint(
    schema: DirectorySchema,
    base: DirectoryInstance,
    ckpt_text: Option<&str>,
    journal: &Journal,
) -> Result<CheckpointRecovery, ManagedError> {
    RecoveryPlan::new(schema, ckpt_text, journal).execute(base, journal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MemoryJournal;
    use crate::paper::{white_pages_instance, white_pages_schema, Figure1};
    use crate::updates::Transaction;
    use bschema_obs::NoopProbe;

    fn researcher(uid: &str) -> Entry {
        Entry::builder()
            .classes(["researcher", "person", "top"])
            .attr("uid", uid)
            .attr("name", uid)
            .build()
    }

    /// A managed white-pages directory with some journalled history:
    /// two committed transactions (one delete, one insert) and one
    /// aborted tail.
    fn journalled_fixture() -> (ManagedDirectory, MemoryJournal, String, Figure1) {
        let schema = white_pages_schema();
        let (dir, ids) = white_pages_instance();
        let mut live = ManagedDirectory::with_instance(schema, dir).expect("fixture is legal");
        let mem = MemoryJournal::default();
        live.set_sink(mem.sink());

        let mut tx = Transaction::new();
        tx.delete(ids.suciu);
        live.apply(&tx).expect("delete applies");

        let mut tx = Transaction::new();
        tx.insert_under(ids.att_labs, researcher("zoe"));
        live.apply(&tx).expect("insert applies");

        // An aborted transaction: the entry carries an attribute its
        // classes do not allow, so legality rolls it back and the
        // journal keeps begin + op records without a commit.
        let mut tx = Transaction::new();
        tx.insert_under(
            ids.att_labs,
            Entry::builder()
                .classes(["researcher", "person", "top"])
                .attr("uid", "bad")
                .attr("mail", "bad@example.net")
                .build(),
        );
        live.apply(&tx).expect_err("an illegal insert rolls back");

        let text = mem.take();
        (live, mem, text, ids)
    }

    #[test]
    fn checkpoint_roundtrips_byte_identically() {
        let (live, _mem, _text, _ids) = journalled_fixture();
        let schema = white_pages_schema();
        let ckpt = live.capture(None);
        let encoded = ckpt.encode();
        let decoded = Checkpoint::decode(&encoded).expect("decodes");
        assert_eq!(decoded.seq, ckpt.seq);
        assert_eq!(decoded.next_tx, ckpt.next_tx);
        assert_eq!(decoded.schema_hash, schema_hash(&schema));
        assert_eq!(decoded.free, ckpt.free);
        let restored = decoded.restore(live.instance().registry().clone()).expect("restores");
        assert_eq!(restored.canonical_bytes(), live.instance().canonical_bytes());
        assert_eq!(restored.forest().free_slots(), live.instance().forest().free_slots());
    }

    #[test]
    fn decode_rejects_damage() {
        let (live, _mem, _text, _ids) = journalled_fixture();
        let ckpt = live.capture(None);
        let encoded = ckpt.encode();

        // Cut anywhere: header damage or short body, never a panic and
        // never an accepted parse.
        for cut in 0..encoded.len() {
            if !encoded.is_char_boundary(cut) {
                continue;
            }
            let err = Checkpoint::decode(&encoded[..cut]).expect_err("cut text must not decode");
            assert!(matches!(err, CheckpointError::Torn(_)), "{err}");
        }
        // Flip a payload byte: checksum catches it.
        let mut corrupt = encoded.clone().into_bytes();
        let flip = encoded.len() - 2;
        corrupt[flip] ^= 0x01;
        let corrupt = String::from_utf8(corrupt).expect("still utf-8");
        assert!(Checkpoint::decode(&corrupt).is_err());
    }

    #[test]
    fn recovery_ladder_checkpoint_plus_tail() {
        let (mut live, mem, history, ids) = journalled_fixture();

        // Checkpoint at the current cursor, then keep writing: the tail
        // is everything after the checkpoint.
        let ckpt = live.capture(None);
        let parent = ids.att_labs;
        let mut tx = Transaction::new();
        tx.insert_under(parent, researcher("post-ckpt"));
        live.apply(&tx).expect("tail tx applies");
        let tail = mem.take();

        // Rung 3 (steady state): checkpoint + tail only.
        let journal = Journal::parse(&tail);
        assert_eq!(journal.start_seq, ckpt.seq);
        let rec = recover_with_checkpoint(
            white_pages_schema(),
            DirectoryInstance::white_pages(),
            Some(&ckpt.encode()),
            &journal,
        )
        .expect("checkpoint + tail recovers");
        assert_eq!(rec.checkpoint_seq, Some(ckpt.seq));
        assert_eq!(rec.report.replayed, 1);
        assert_eq!(rec.managed.instance().canonical_bytes(), live.instance().canonical_bytes());
        let (cursor, resumed) = (live.capture(None), rec.managed.capture(None));
        assert_eq!((resumed.seq, resumed.next_tx), (cursor.seq, cursor.next_tx));

        // Rung 2 (crash before truncation): checkpoint + full journal.
        // The replay rule skips what the snapshot already contains.
        let full = format!("{history}{tail}");
        let journal = Journal::parse(&full);
        assert_eq!(journal.start_seq, 0);
        let rec = recover_with_checkpoint(
            white_pages_schema(),
            DirectoryInstance::white_pages(),
            Some(&ckpt.encode()),
            &journal,
        )
        .expect("checkpoint + full journal recovers");
        assert_eq!(rec.report.replayed, 1, "pre-checkpoint txs must not replay twice");
        assert_eq!(rec.managed.instance().canonical_bytes(), live.instance().canonical_bytes());

        // Rung 1 (no checkpoint): full replay from the paper base.
        let (base, _ids) = white_pages_instance();
        let rec = recover_with_checkpoint(white_pages_schema(), base, None, &journal)
            .expect("full replay recovers");
        assert_eq!(rec.checkpoint_seq, None);
        assert_eq!(rec.report.replayed, 3);
        assert_eq!(rec.managed.instance().canonical_bytes(), live.instance().canonical_bytes());
    }

    #[test]
    fn recovery_ladder_fatal_rungs() {
        let (mut live, mem, _history, ids) = journalled_fixture();
        let ckpt = live.capture(None);
        let parent = ids.att_labs;
        let mut tx = Transaction::new();
        tx.insert_under(parent, researcher("tail-only"));
        live.apply(&tx).expect("tail tx applies");
        let tail = mem.take();
        let journal = Journal::parse(&tail);

        // Truncated journal + missing checkpoint: fatal.
        let (base, _ids) = white_pages_instance();
        let err = recover_with_checkpoint(white_pages_schema(), base, None, &journal)
            .expect_err("tail without checkpoint must not recover");
        assert_eq!(err.code(), "recovery");

        // Truncated journal + torn checkpoint: fatal.
        let encoded = ckpt.encode();
        let torn = &encoded[..encoded.len() / 2];
        let (base, _ids) = white_pages_instance();
        let err = recover_with_checkpoint(white_pages_schema(), base, Some(torn), &journal)
            .expect_err("tail with torn checkpoint must not recover");
        assert_eq!(err.code(), "recovery");
    }

    #[test]
    fn torn_checkpoint_with_full_journal_falls_back_to_replay() {
        let (live, _mem, history, _ids) = journalled_fixture();
        let ckpt = live.capture(None);
        let encoded = ckpt.encode();
        let torn = &encoded[..encoded.len() / 2];
        let journal = Journal::parse(&history);
        assert_eq!(journal.start_seq, 0);
        let (base, _ids) = white_pages_instance();
        let rec = recover_with_checkpoint(white_pages_schema(), base, Some(torn), &journal)
            .expect("full journal survives a torn checkpoint");
        assert_eq!(rec.checkpoint_seq, None);
        assert_eq!(rec.managed.instance().canonical_bytes(), live.instance().canonical_bytes());
    }

    #[test]
    fn schema_mismatch_is_fatal_only_with_truncated_journal() {
        let (mut live, mem, history, ids) = journalled_fixture();
        let mut wrong = live.capture(None);
        wrong.schema_hash ^= 0xdead_beef;
        let encoded = wrong.encode();

        // Full journal: mismatch degrades to full replay.
        let journal = Journal::parse(&history);
        let (base, _ids) = white_pages_instance();
        let rec = recover_with_checkpoint(white_pages_schema(), base, Some(&encoded), &journal)
            .expect("full journal survives schema mismatch");
        assert_eq!(rec.checkpoint_seq, None);

        // Truncated journal: mismatch is fatal.
        let parent = ids.att_labs;
        let mut tx = Transaction::new();
        tx.insert_under(parent, researcher("after"));
        live.apply(&tx).expect("tail tx applies");
        let tail = mem.take();
        let journal = Journal::parse(&tail);
        let (base, _ids) = white_pages_instance();
        let err = recover_with_checkpoint(white_pages_schema(), base, Some(&encoded), &journal)
            .expect_err("truncated journal + schema mismatch must not recover");
        assert_eq!(err.code(), "recovery");
    }

    #[test]
    fn atomic_write_and_truncate_leave_consistent_files() {
        let dir = std::env::temp_dir().join(format!("bschema-ckpt-test-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        let journal_path = dir.join("wal");
        let ckpt_file = checkpoint_path(&journal_path);
        assert_eq!(ckpt_file.file_name().and_then(|s| s.to_str()), Some("wal.ckpt"));

        let (live, _mem, history, _ids) = journalled_fixture();
        fs::write(&journal_path, &history).expect("journal written");
        let ckpt = live.capture(None);
        write_checkpoint(&ckpt_file, &ckpt.encode(), &NoopProbe).expect("checkpoint lands");
        truncate_journal(&journal_path, &NoopProbe).expect("journal truncates");

        let on_disk = fs::read_to_string(&ckpt_file).expect("checkpoint readable");
        let decoded = Checkpoint::decode(&on_disk).expect("decodes");
        assert_eq!(decoded.seq, ckpt.seq);
        assert_eq!(fs::read_to_string(&journal_path).expect("journal readable"), "");

        let journal = Journal::parse("");
        let rec = recover_with_checkpoint(
            white_pages_schema(),
            DirectoryInstance::white_pages(),
            Some(&on_disk),
            &journal,
        )
        .expect("steady state recovers");
        assert_eq!(rec.managed.instance().canonical_bytes(), live.instance().canonical_bytes());
        fs::remove_dir_all(&dir).ok();
    }

    /// A journal path nobody has written to yet: opening it creates the
    /// file, empty, before any append (its directory entry synced), and
    /// what that empty journal recovers to is the base.
    #[test]
    fn opening_a_fresh_path_creates_an_empty_journal_that_recovers_to_the_base() {
        let dir = std::env::temp_dir().join(format!("bschema-fresh-test-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("fresh.wal");
        let _ = fs::remove_file(&path);
        let base = || {
            let (dir, _ids) = white_pages_instance();
            ManagedDirectory::with_instance(white_pages_schema(), dir).expect("legal")
        };
        let (opened, report) = ManagedDirectory::open(base(), &path).expect("opens");
        assert_eq!(fs::read_to_string(&path).expect("created by open"), "");
        assert_eq!((report.replayed, report.discarded, report.truncated), (0, 0, false));
        assert_eq!(opened.instance().canonical_bytes(), base().instance().canonical_bytes());
        drop(opened);

        let (reopened, _) = ManagedDirectory::open(base(), &path).expect("reopens");
        assert_eq!(reopened.instance().canonical_bytes(), base().instance().canonical_bytes());
        assert_eq!(fs::read_to_string(&path).expect("still there"), "", "nothing appended");
        fs::remove_dir_all(&dir).ok();
    }
}
