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
//! journal, so standard tooling can inspect it, and [`Checkpoint::decode`]
//! reads it with the one LDIF reader, in one walk of its lines
//! ([`walk_ldif`]): no record list is built, the slot number is read off
//! the `dn:` text (`slot=<n>,cn=checkpoint`, no DN parsed), `ckpparent`
//! and `ckprdn` are read straight into the row and never enter the
//! entry, and each entry moves into its [`SlotRow`] when its record
//! ends. No allocation is sized from the header. The first record
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

use std::fmt::{self, Write as _};
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bschema_directory::ldif::{
    walk_ldif, write_record, write_record_with, LdifError, LdifEvent, LdifLimits,
};
use bschema_directory::{fnv1a, AttributeRegistry, DirectoryInstance, Entry, Rdn, SlotRow};
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

/// A body the LDIF reader refuses is a torn checkpoint.
impl From<LdifError> for CheckpointError {
    fn from(e: LdifError) -> Self {
        torn(format!("body is not LDIF: {e}"))
    }
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
        // Each row is written from its shared entry, `ckpparent` and
        // `ckprdn` merged into its attribute order: the bytes adding them
        // to a copy of the entry would write.
        let (mut dn, mut parent, mut rdn) = (String::new(), String::new(), String::new());
        for row in &self.rows {
            dn.clear();
            let _ = write!(dn, "slot={},{CHECKPOINT_DN}", row.slot);
            parent.clear();
            let _ = match row.parent {
                Some(p) => write!(parent, "{p}"),
                None => parent.write_char('-'),
            };
            rdn.clear();
            if let Some(name) = &row.rdn {
                let _ = name.write_to(&mut rdn);
            }
            let extra = [("ckpparent", parent.as_str()), ("ckprdn", rdn.as_str())];
            let named = if row.rdn.is_some() { 2 } else { 1 };
            write_record_with(&mut body, &dn, &row.entry, &extra[..named]);
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
        let mut reader = BodyReader::default();
        walk_ldif(body, &LdifLimits::default(), |event| reader.read(event))?;
        reader.finish()
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
    /// same future slot assignment as the snapshot source. The rows move
    /// into the instance; no entry is copied.
    pub fn restore(
        self,
        registry: AttributeRegistry,
    ) -> Result<DirectoryInstance, CheckpointError> {
        DirectoryInstance::from_slots(registry, self.slot_bound, self.rows, &self.free)
            .map_err(|e| CheckpointError::Restore(e.to_string()))
    }
}

/// The record a body walk is in.
#[derive(Default)]
enum Open {
    /// Between records.
    #[default]
    None,
    /// The first record, the snapshot header, collected whole.
    Header(Entry),
    /// A slot record: its `ckpparent` (`Some(None)` for a root) and
    /// `ckprdn` once read, and the entry its other values build.
    Slot { slot: u32, parent: Option<Option<u32>>, rdn: Option<Rdn>, entry: Entry },
}

/// Decodes a checkpoint body in one walk of its lines: the header record
/// into a [`Checkpoint`] with no rows, then each slot record into a
/// [`SlotRow`] as it ends. `ckpparent` and `ckprdn` are read straight
/// into the row, the first value of each under any case of its name,
/// and never enter the entry.
#[derive(Default)]
struct BodyReader {
    /// The header, once its record ended, and the entries it promises.
    ckpt: Option<(Checkpoint, u64)>,
    open: Open,
}

impl BodyReader {
    fn read(&mut self, event: LdifEvent<'_>) -> Result<(), CheckpointError> {
        match event {
            LdifEvent::Start { dn, .. } if self.ckpt.is_none() => {
                if !names_checkpoint(dn) {
                    return Err(torn("first record is not the snapshot header"));
                }
                self.open = Open::Header(Entry::new());
            }
            LdifEvent::Start { dn, .. } => {
                let slot = slot_of(dn)
                    .ok_or_else(|| torn(format!("unexpected record DN {dn:?} in snapshot body")))?;
                self.open = Open::Slot { slot, parent: None, rdn: None, entry: Entry::new() };
            }
            LdifEvent::Value { attr, value } => match &mut self.open {
                Open::Header(entry) => {
                    entry.add_value(attr, value);
                }
                Open::Slot { slot, parent, .. } if attr.eq_ignore_ascii_case("ckpparent") => {
                    if parent.is_none() {
                        *parent = Some(match &*value {
                            "-" => None,
                            v => Some(v.trim().parse().map_err(|_| {
                                torn(format!("slot {slot} has malformed ckpparent"))
                            })?),
                        });
                    }
                }
                Open::Slot { slot, rdn, .. } if attr.eq_ignore_ascii_case("ckprdn") => {
                    if rdn.is_none() {
                        *rdn = Some(
                            Rdn::parse(&value)
                                .map_err(|_| torn(format!("slot {slot} has malformed ckprdn")))?,
                        );
                    }
                }
                Open::Slot { entry, .. } => {
                    entry.add_value(attr, value);
                }
                Open::None => {}
            },
            LdifEvent::End => match std::mem::take(&mut self.open) {
                Open::Header(entry) => self.ckpt = Some(header(&entry)?),
                Open::Slot { slot, parent, rdn, entry } => {
                    let parent = parent
                        .ok_or_else(|| torn(format!("slot {slot} record is missing ckpparent")))?;
                    if let Some((ckpt, _)) = &mut self.ckpt {
                        ckpt.rows.push(SlotRow { slot, parent, rdn, entry: Arc::new(entry) });
                    }
                }
                Open::None => {}
            },
        }
        Ok(())
    }

    /// The decoded checkpoint, once its body holds the rows its header
    /// promises. No allocation is sized from the header: the rows grow
    /// as the body yields them.
    fn finish(self) -> Result<Checkpoint, CheckpointError> {
        let (ckpt, entries) = self.ckpt.ok_or_else(|| torn("empty body"))?;
        if ckpt.rows.len() as u64 != entries {
            return Err(torn(format!(
                "snapshot header promises {entries} entries, body has {}",
                ckpt.rows.len()
            )));
        }
        Ok(ckpt)
    }
}

/// The snapshot header record's fields: a checkpoint with no rows yet,
/// and the number of rows (`ckpentries`) it promises.
fn header(entry: &Entry) -> Result<(Checkpoint, u64), CheckpointError> {
    let field = |attr: &str| -> Result<u64, CheckpointError> {
        entry
            .first_value(attr)
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| torn(format!("missing or malformed {attr}")))
    };
    if field("ckpversion")? != CHECKPOINT_VERSION {
        return Err(torn("unsupported snapshot version"));
    }
    let seq = field("ckpseq")?;
    let next_tx = field("ckptx")?;
    let schema_hash = entry
        .first_value("ckpschema")
        .and_then(|v| u64::from_str_radix(v.trim(), 16).ok())
        .ok_or_else(|| torn("missing or malformed ckpschema"))?;
    let schema_dsl = entry.first_value("ckpdsl").map(crate::journal::unescape_text);
    let slot_bound = field("ckpbound")? as usize;
    let entries = field("ckpentries")?;
    let shard = match entry.first_value("ckpshard") {
        Some(v) => Some(v.trim().parse().map_err(|_| torn("malformed ckpshard"))?),
        None => None,
    };
    let mut free = Vec::new();
    for value in entry.values("ckpfree") {
        free.push(value.trim().parse().map_err(|_| torn("malformed ckpfree"))?);
    }
    let rows = Vec::new();
    Ok((
        Checkpoint { seq, next_tx, schema_hash, schema_dsl, shard, slot_bound, free, rows },
        entries,
    ))
}

/// Whether `rdn` spells the header's `cn=checkpoint`: the attribute name
/// in any case, whitespace around it and before the value, spaces after
/// it. A second RDN or AVA, an escape or another case of `checkpoint` is
/// not that spelling.
fn names_checkpoint(rdn: &str) -> bool {
    rdn.split_once('=').is_some_and(|(attr, value)| {
        attr.trim().eq_ignore_ascii_case("cn")
            && value.trim_start().trim_end_matches(' ') == "checkpoint"
    })
}

/// The slot a body record's DN names, read off its text: the DN must
/// spell `slot=<n>,cn=checkpoint`, `<n>` decimal digits with whitespace
/// around them, the `slot` name in any case and the second RDN as
/// [`names_checkpoint`] reads it.
fn slot_of(dn: &str) -> Option<u32> {
    let (leaf, top) = dn.split_once(',')?;
    let (attr, n) = leaf.split_once('=')?;
    let n = n.trim();
    let spelled = attr.trim().eq_ignore_ascii_case("slot")
        && n.bytes().all(|b| b.is_ascii_digit())
        && names_checkpoint(top);
    spelled.then(|| n.parse().ok()).flatten()
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

/// What a recovery starts from when it restores no checkpoint: the state
/// the journal's history begins at. A restore reads only its attribute
/// registry.
#[derive(Debug)]
pub enum Seed {
    /// An instance nothing has checked: a full replay certifies it.
    Raw(Box<DirectoryInstance>),
    /// A directory its constructor already certified — legal but possibly
    /// for `◇c` under its schema, as every [`ManagedDirectory`] is. A full
    /// replay under a schema of the same [`schema_hash`] takes it as it
    /// is, without checking it again; under any other schema it is
    /// certified like a raw one.
    Managed(Box<ManagedDirectory>),
}

impl From<DirectoryInstance> for Seed {
    fn from(dir: DirectoryInstance) -> Self {
        Seed::Raw(Box::new(dir))
    }
}

impl From<ManagedDirectory> for Seed {
    fn from(managed: ManagedDirectory) -> Self {
        Seed::Managed(Box::new(managed))
    }
}

impl Seed {
    /// The attribute namespace a restored checkpoint is rebuilt over.
    fn registry(&self) -> &AttributeRegistry {
        match self {
            Seed::Raw(dir) => dir.registry(),
            Seed::Managed(managed) => managed.instance().registry(),
        }
    }

    /// The seed as a directory under `schema`, with no journal attached:
    /// certified once, here or by whoever built it.
    fn into_managed(self, schema: DirectorySchema) -> Result<ManagedDirectory, ManagedError> {
        match self {
            Seed::Managed(managed) if schema_hash(managed.schema()) == schema_hash(&schema) => {
                Ok((*managed).detached())
            }
            Seed::Managed(managed) => {
                ManagedDirectory::for_recovery(schema, managed.into_parts().1)
            }
            Seed::Raw(dir) => ManagedDirectory::for_recovery(schema, *dir),
        }
    }
}

/// The journal cursor of a restored checkpoint: what recovery still needs
/// once the rows have moved into the instance.
struct Cursor {
    seq: u64,
    next_tx: u64,
    shard: Option<u64>,
}

/// The journal transactions a recovery starting at `from` looks at.
fn tail_from(journal: &Journal, from: u64) -> impl Iterator<Item = &JournalTx> {
    journal.txs.iter().filter(move |jtx| jtx.first_seq >= from)
}

impl RecoveryPlan {
    /// Decides the ladder rung for `journal` + its decoded checkpoint
    /// (`None`: there is no checkpoint file) under the boot `schema`.
    /// Pure.
    pub fn new(
        schema: DirectorySchema,
        ckpt: Option<Result<Checkpoint, CheckpointError>>,
        journal: &Journal,
    ) -> Self {
        let ignored = match ckpt {
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

    /// [`new`](RecoveryPlan::new) over a checkpoint's text, decoded here
    /// once.
    pub fn decode(schema: DirectorySchema, ckpt_text: Option<&str>, journal: &Journal) -> Self {
        RecoveryPlan::new(schema, ckpt_text.map(Checkpoint::decode), journal)
    }

    /// The checkpoint this plan restores, if it restores one.
    pub fn checkpoint(&self) -> Option<&Checkpoint> {
        match self {
            RecoveryPlan::Restore { ckpt, .. } => Some(ckpt),
            _ => None,
        }
    }

    /// Carries the plan out over the `journal` it was made for: restore
    /// the checkpoint (or start from the `seed`), then the one replay loop
    /// — committed transactions past the covered sequence go back through
    /// the checked apply path, unprobed, uncommitted ones are discarded.
    /// A full replay certifies a [`Seed::Raw`] and reuses a
    /// [`Seed::Managed`] one certified under the same schema; a restore
    /// reads only the seed's registry, and certifies what it restored.
    /// The recovered directory's writer resumes at the higher of the
    /// journal's and the checkpoint's cursors, so numbering never rewinds
    /// across a truncation.
    pub fn execute(
        self,
        seed: impl Into<Seed>,
        journal: &Journal,
    ) -> Result<CheckpointRecovery, ManagedError> {
        let seed = seed.into();
        let (mut managed, ckpt) = match self {
            RecoveryPlan::Fatal(reason) => return Err(ManagedError::Recovery(reason)),
            RecoveryPlan::FullReplay { schema, .. } => (seed.into_managed(schema)?, None),
            RecoveryPlan::Restore { ckpt, schema, .. } => {
                let cursor = Cursor { seq: ckpt.seq, next_tx: ckpt.next_tx, shard: ckpt.shard };
                let restored = ckpt
                    .restore(seed.registry().clone())
                    .map_err(|e| ManagedError::Recovery(e.to_string()))?;
                (ManagedDirectory::for_recovery(schema, restored)?, Some(cursor))
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

/// Checkpoint-aware recovery: [`RecoveryPlan::decode`] then
/// [`RecoveryPlan::execute`] — the one recovery ladder.
pub fn recover_with_checkpoint(
    schema: DirectorySchema,
    base: DirectoryInstance,
    ckpt_text: Option<&str>,
    journal: &Journal,
) -> Result<CheckpointRecovery, ManagedError> {
    RecoveryPlan::decode(schema, ckpt_text, journal).execute(base, journal)
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

    /// `encode` as it was before it wrote rows from their shared
    /// entries: copy each entry, add `ckpparent` and `ckprdn` to the
    /// copy, write the copy.
    fn encode_by_copy(ckpt: &Checkpoint) -> String {
        let mut body = String::new();
        let mut header = Entry::default();
        header.add_value("ckpversion", CHECKPOINT_VERSION.to_string());
        header.add_value("ckpseq", ckpt.seq.to_string());
        header.add_value("ckptx", ckpt.next_tx.to_string());
        header.add_value("ckpschema", format!("{:016x}", ckpt.schema_hash));
        if let Some(dsl) = &ckpt.schema_dsl {
            header.add_value("ckpdsl", crate::journal::escape_text(dsl));
        }
        header.add_value("ckpbound", ckpt.slot_bound.to_string());
        header.add_value("ckpentries", ckpt.rows.len().to_string());
        if let Some(shard) = ckpt.shard {
            header.add_value("ckpshard", shard.to_string());
        }
        for slot in &ckpt.free {
            header.add_value("ckpfree", slot.to_string());
        }
        write_record(&mut body, CHECKPOINT_DN, &header);
        for row in &ckpt.rows {
            let mut entry = Entry::clone(&row.entry);
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

    /// A checkpoint of `instance` with every header field set.
    fn snapshot_of(instance: &DirectoryInstance) -> Checkpoint {
        Checkpoint {
            seq: 41,
            next_tx: 17,
            schema_hash: 0x9ae1_c602_2754_a3b5,
            schema_dsl: Some(crate::schema::dsl::print_schema(&white_pages_schema(), None)),
            shard: Some(2),
            slot_bound: instance.forest().slot_bound(),
            free: instance.forest().free_slots().to_vec(),
            rows: instance.slot_rows(),
        }
    }

    /// Encodes `instance` both ways, requires the same bytes, and
    /// requires the decoded rows to restore the instance.
    fn encodes_as_the_copy_did(instance: &DirectoryInstance) -> String {
        let ckpt = snapshot_of(instance);
        let encoded = ckpt.encode();
        assert_eq!(encoded, encode_by_copy(&ckpt));
        let restored = Checkpoint::decode(&encoded)
            .expect("decodes")
            .restore(instance.registry().clone())
            .expect("restores");
        assert_eq!(restored.canonical_bytes(), instance.canonical_bytes());
        assert_eq!(restored.forest().free_slots(), instance.forest().free_slots());
        encoded
    }

    #[test]
    fn encode_writes_the_bytes_the_copying_encode_wrote_on_generated_instances() {
        for (orgs, per_org, seed) in [(1, 50, 1), (3, 200, 2), (8, 250, 3)] {
            let mut instance = bschema_workload::multi_org_base(orgs, per_org, seed);
            // Delete every eleventh leaf, so the free stack is not empty.
            let leaves: Vec<_> = instance
                .iter()
                .map(|(id, _)| id)
                .filter(|&id| instance.forest().is_leaf(id))
                .collect();
            for id in leaves.into_iter().step_by(11) {
                instance.remove_leaf(id).expect("a leaf");
            }
            assert!(!instance.forest().free_slots().is_empty());
            encodes_as_the_copy_did(&instance);
        }
    }

    #[test]
    fn encode_writes_the_bytes_the_copying_encode_wrote_on_edge_cases() {
        use bschema_directory::dn::Ava;
        use bschema_directory::Rdn;
        let mut d = DirectoryInstance::white_pages();
        // Attribute names on every side of `ckpparent` and `ckprdn`.
        let around = [
            "b",
            "c",
            "ck",
            "ckp",
            "ckpa",
            "ckpparen",
            "ckpparent0",
            "ckpq",
            "ckprd",
            "ckprdn0",
            "ckps",
            "cl",
            "cn",
            "d",
            "objectclasz",
            "z",
        ];
        let mut entry = Entry::builder().class("top").class("person").build();
        for (i, attr) in around.iter().enumerate() {
            entry.add_value(attr, format!("v{i}"));
            entry.add_value(attr, format!("w{i}"));
        }
        let root = d.add_named_root(Rdn::single("o", "att"), entry.clone()).unwrap();
        // A multi-valued RDN, escaped values, a long RDN that folds.
        let multi =
            Rdn::new(vec![Ava::new("uid", "x, y"), Ava::new("cn", "#lead+trail ")]).unwrap();
        let child = d.add_named_child(root, multi, entry.clone()).unwrap();
        d.add_named_child(child, Rdn::single("cn", "r".repeat(120)), entry.clone()).unwrap();
        // Folded and base64 values.
        let values = Entry::builder()
            .class("top")
            .attr("description", "x".repeat(300))
            .attr("description", " leading space")
            .attr("description", "ünïcode")
            .attr("description", "two\nlines")
            .attr("cn", "é".repeat(90))
            .build();
        d.add_named_child(child, Rdn::single("cn", "values"), values).unwrap();
        // Unnamed entries: a root and a child, neither with `ckprdn`.
        let unnamed = d.add_root_entry(Entry::builder().class("top").attr("c", "x").build());
        d.add_child_entry(unnamed, Entry::builder().class("top").attr("cl", "y").build()).unwrap();
        // A second named root after a dead slot.
        let dead = d.add_named_root(Rdn::single("o", "gone"), entry.clone()).unwrap();
        d.add_named_root(Rdn::single("o", "ibm"), entry).unwrap();
        d.remove_leaf(dead).unwrap();

        let encoded = encodes_as_the_copy_did(&d);
        assert!(encoded.contains("\nckpparent: -\n"), "roots");
        assert!(encoded.contains("\nckprdn: cn=\\#lead\\+trail\\ +uid=x\\, y\n"), "{encoded}");
        assert!(encoded.contains("\nckprdn: cn=rrrr"), "long RDN");
        assert!(encoded.contains("\n rr"), "folded");
        assert!(encoded.contains("description:: "), "base64");
        let unnamed_rows =
            encoded.split("\n\n").filter(|r| r.contains("ckpparent") && !r.contains("ckprdn"));
        assert_eq!(unnamed_rows.count(), 2);

        // A payload already holding the reserved names: the merge still
        // writes what adding to a copy wrote.
        let mut odd = DirectoryInstance::white_pages();
        let reserved = Entry::builder()
            .class("top")
            .attr("ckpparent", "-")
            .attr("ckpparent", "7")
            .attr("ckprdn", "o=odd")
            .build();
        odd.add_named_root(Rdn::single("o", "odd"), reserved).unwrap();
        let ckpt = snapshot_of(&odd);
        assert_eq!(ckpt.encode(), encode_by_copy(&ckpt));
    }

    // ----- the one-walk decoder against the record decoder it replaced -----

    /// `decode` as it was before it walked the body: every record parsed
    /// into a `Dn` and an entry, the slot read off the rendered DN, the
    /// `ckp*` fields read from the entry and then removed from it. The
    /// header record is read by the same `header` the walk uses.
    fn decode_by_records(text: &str) -> Result<Checkpoint, CheckpointError> {
        use bschema_directory::ldif::parse_ldif;
        use bschema_directory::Dn;
        let (line, rest) = text.split_once('\n').ok_or_else(|| torn("missing header line"))?;
        let mut tokens = line.split_ascii_whitespace();
        if tokens.next() != Some(CHECKPOINT_MAGIC) || tokens.next() != Some("v1") {
            return Err(torn("bad magic or version"));
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
        if rest.len() < len || !rest.is_char_boundary(len) || fnv1a(&rest.as_bytes()[..len]) != sum
        {
            return Err(torn("short body or checksum mismatch"));
        }
        let body = &rest[..len];
        let records = parse_ldif(body).map_err(|e| torn(format!("body is not LDIF: {e}")))?;
        let mut records = records.into_iter();
        let header_record = records.next().ok_or_else(|| torn("empty body"))?;
        if header_record.dn.to_string() != CHECKPOINT_DN {
            return Err(torn("first record is not the snapshot header"));
        }
        let (mut ckpt, entries) = header(&header_record.entry)?;
        for record in records {
            let [leaf, top] = record.dn.rdns() else { return Err(torn("slot DN")) };
            let slot: u32 = (top.to_string() == CHECKPOINT_DN)
                .then(|| leaf.to_string().strip_prefix("slot=")?.trim().parse().ok())
                .flatten()
                .ok_or_else(|| torn("slot DN"))?;
            let parent = match record.entry.first_value("ckpparent") {
                Some("-") => None,
                Some(v) => Some(v.trim().parse().map_err(|_| torn("malformed ckpparent"))?),
                None => return Err(torn("missing ckpparent")),
            };
            let rdn = match record.entry.first_value("ckprdn") {
                Some(s) => Some(
                    Dn::parse(s)
                        .ok()
                        .and_then(|dn| dn.rdn().cloned())
                        .ok_or_else(|| torn("malformed ckprdn"))?,
                ),
                None => None,
            };
            let mut entry = record.entry;
            for attr in ["ckpparent", "ckprdn"] {
                entry.remove_attribute(attr);
            }
            ckpt.rows.push(SlotRow { slot, parent, rdn, entry: Arc::new(entry) });
        }
        if ckpt.rows.len() as u64 != entries {
            return Err(torn("count"));
        }
        Ok(ckpt)
    }

    /// A checkpoint file around `body`, its header line sealing it.
    fn reseal(body: &str) -> String {
        format!(
            "{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION} len={} sum={:016x}\n{body}",
            body.len(),
            fnv1a(body.as_bytes())
        )
    }

    /// The body of an encoded checkpoint.
    fn body_of(encoded: &str) -> &str {
        encoded.split_once('\n').expect("a header line").1
    }

    /// What a decode came to, comparable: the re-encoded checkpoint, or
    /// the error's variant.
    fn outcome(decoded: &Result<Checkpoint, CheckpointError>) -> Result<String, &'static str> {
        match decoded {
            Ok(ckpt) => Ok(ckpt.encode()),
            Err(CheckpointError::Torn(_)) => Err("torn"),
            Err(CheckpointError::SchemaMismatch { .. }) => Err("schema mismatch"),
            Err(CheckpointError::Restore(_)) => Err("restore"),
        }
    }

    /// The white-pages checkpoint the robustness tests damage: a deleted
    /// slot on the free stack, the schema DSL embedded.
    fn white_pages_checkpoint() -> (Checkpoint, AttributeRegistry) {
        let (mut live, _mem, _text, _ids) = journalled_fixture();
        let leaves: Vec<_> = live
            .instance()
            .iter()
            .map(|(id, _)| id)
            .filter(|&id| live.instance().forest().is_leaf(id))
            .collect();
        let deleted = leaves.into_iter().any(|leaf| {
            let mut tx = Transaction::new();
            tx.delete(leaf);
            live.apply(&tx).is_ok()
        });
        assert!(deleted && !live.instance().forest().free_slots().is_empty());
        (live.capture(None), live.instance().registry().clone())
    }

    #[test]
    fn a_header_promising_more_entries_than_memory_holds_is_torn() {
        let (ckpt, registry) = white_pages_checkpoint();
        let encoded = ckpt.encode();
        let promised = format!("\nckpentries: {}\n", ckpt.rows.len());
        assert!(encoded.contains(&promised));
        for entries in ["1000000000000", "18446744073709551615"] {
            let hostile = reseal(
                &body_of(&encoded).replace(&promised, &format!("\nckpentries: {entries}\n")),
            );
            let err = Checkpoint::decode(&hostile).expect_err("a false promise is torn");
            assert!(
                matches!(&err, CheckpointError::Torn(why) if why.contains("promises")),
                "{err}"
            );
        }
        // A slot bound past what the rows and the free stack fill decodes
        // (it is a number) and is refused before anything is sized from it.
        let bound = format!("\nckpbound: {}\n", ckpt.slot_bound);
        let hostile = reseal(&body_of(&encoded).replace(&bound, "\nckpbound: 1000000000000\n"));
        let decoded = Checkpoint::decode(&hostile).expect("the bound is a number");
        assert!(matches!(decoded.restore(registry), Err(CheckpointError::Restore(_))));
    }

    #[test]
    fn every_cut_and_byte_replacement_of_a_body_decodes_or_is_torn_as_the_records_read() {
        let (ckpt, registry) = white_pages_checkpoint();
        let encoded = ckpt.encode();
        let body = body_of(&encoded);
        // Whether `text` decodes, and then whether it restores.
        let judge = |text: &str| {
            let new = Checkpoint::decode(text);
            assert!(matches!(new, Ok(_) | Err(CheckpointError::Torn(_))), "{text:?}");
            assert_eq!(outcome(&new), outcome(&decode_by_records(text)), "{text:?}");
            new.ok().map(|ckpt| match ckpt.restore(registry.clone()) {
                Ok(_) => true,
                Err(e) => {
                    assert!(matches!(e, CheckpointError::Restore(_)), "{e}");
                    false
                }
            })
        };
        let cuts = (0..=body.len()).filter(|&cut| body.is_char_boundary(cut));
        // A cut resealed inside the last record's values is a checkpoint
        // of a smaller last entry; the whole body restores.
        let restores: Vec<bool> = cuts.filter_map(|cut| judge(&reseal(&body[..cut]))).collect();
        assert_eq!(restores.last(), Some(&true));
        // Every byte replaced by each byte the syntax turns on: a line
        // break, a space (continuations, trimming), `:` (separator, base64
        // marker), `=` and `,` and `+` (DNs), `-` (a root's parent), a
        // digit, a backslash (escapes). The embedded DSL, one opaque
        // value, is left out of this sweep; the cuts above run through it.
        let bare = Checkpoint { schema_dsl: None, ..ckpt.clone() }.encode();
        let (mut decoded, mut restored) = (0, 0);
        let mut bytes = body_of(&bare).as_bytes().to_vec();
        for at in 0..bytes.len() {
            let was = bytes[at];
            if !was.is_ascii() {
                continue;
            }
            for &with in b"\n :=,+-0\\".iter().filter(|&&with| with != was) {
                bytes[at] = with;
                if let Some(ok) = judge(&reseal(std::str::from_utf8(&bytes).expect("ASCII"))) {
                    decoded += 1;
                    restored += usize::from(ok);
                }
            }
            bytes[at] = was;
        }
        assert!(decoded > 100 && restored > 0, "{decoded} replacements decode, {restored} restore");
    }

    #[test]
    fn slot_record_spellings_decode_as_pinned() {
        let (ckpt, _registry) = white_pages_checkpoint();
        let encoded = ckpt.encode();
        let first = &ckpt.rows[0];
        let n = first.slot;
        let dn_line = format!("\ndn: slot={n},{CHECKPOINT_DN}\n");
        assert!(encoded.contains(&dn_line));
        let with_dn =
            |dn: &str| reseal(&body_of(&encoded).replacen(&dn_line, &format!("\ndn: {dn}\n"), 1));
        // (DN, the one-walk decoder reads it, the record decoder read it).
        let table: [(String, bool, bool); 12] = [
            (format!("slot={n},cn=checkpoint"), true, true),
            (format!("SLOT={n},CN=checkpoint"), true, true),
            (format!("Slot={n},Cn=checkpoint"), true, true),
            (format!("slot={n}, cn=checkpoint"), true, true),
            (format!(" slot = {n} , cn = checkpoint "), true, true),
            (format!("slot=0{n},cn=checkpoint"), true, true),
            (format!("slot={n},cn=Checkpoint"), false, false),
            ("slot=x,cn=checkpoint".to_owned(), false, false),
            (format!("slot={n},cn=checkpoint,o=att"), false, false),
            (format!("slot={n}+cn=x,cn=checkpoint"), false, false),
            // Escaped spellings `encode` never wrote: narrowed.
            (format!("slot=\\3{n},cn=checkpoint"), false, true),
            (format!("slot={n},cn=check\\70oint"), false, true),
        ];
        assert!(n < 10, "slot {n} spells as one hex-escaped digit");
        for (dn, new, old) in &table {
            let text = with_dn(dn);
            let decoded = Checkpoint::decode(&text);
            assert_eq!(decoded.is_ok(), *new, "{dn:?}: {decoded:?}");
            assert_eq!(decode_by_records(&text).is_ok(), *old, "{dn:?} under the record decoder");
            if let Ok(decoded) = decoded {
                assert_eq!(decoded.encode(), encoded, "{dn:?} reads as slot {n}");
            }
        }

        // `ckpparent` and `ckprdn` are read under any case of their names
        // and never enter the entry; a second value is ignored.
        let record = |text: &str| {
            let at = text.find(&dn_line).expect("the first slot record") + 1;
            let end = text[at..].find("\n\n").map_or(text.len(), |e| at + e + 1);
            (at, end)
        };
        let body = body_of(&encoded);
        let (at, end) = record(body);
        let folded =
            body[at..end].replace("\nckpparent:", "\nCKPPARENT:").replace("\nckprdn:", "\nCkpRdn:");
        let doubled = body[at..end].replace("\nckpparent: -\n", "\nckpparent: -\nckpparent: 7\n");
        for changed in [&folded, &doubled] {
            assert_ne!(changed, &body[at..end]);
            let text = reseal(&format!("{}{changed}{}", &body[..at], &body[end..]));
            let decoded = Checkpoint::decode(&text).expect("decodes");
            assert_eq!(decoded.encode(), encoded, "{changed}");
            assert!(decoded.rows[0].entry.attributes().all(|(name, _)| !name.starts_with("ckp")));
        }
        // A `ckprdn` holding a whole DN: the record decoder took its leaf
        // RDN; the one-walk decoder reads one RDN and refuses it.
        let rdn = first.rdn.as_ref().expect("the first row is named").to_string();
        let whole =
            body[at..end].replace(&format!("\nckprdn: {rdn}\n"), &format!("\nckprdn: {rdn},o=x\n"));
        assert_ne!(whole, &body[at..end]);
        let text = reseal(&format!("{}{whole}{}", &body[..at], &body[end..]));
        assert!(matches!(Checkpoint::decode(&text), Err(CheckpointError::Torn(_))));
        assert_eq!(outcome(&decode_by_records(&text)), Ok(encoded.clone()));
    }
}
