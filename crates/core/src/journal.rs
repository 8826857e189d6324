//! Write-ahead transaction journal with LDIF-compatible serialization.
//!
//! Theorem 4.1's atomicity contract only survives a *process* crash if
//! the transaction boundary is durable: a directory that dies between
//! mutation and verdict must come back on the committed prefix of its
//! history, not on a half-applied state no checker ever certified. The
//! journal records every transaction write-ahead — a `begin` record,
//! one record per operation, then a `commit` record once (and only
//! once) the incremental check accepted the result — and recovery
//! ([`recover_with_checkpoint`](crate::checkpoint::recover_with_checkpoint))
//! replays exactly the committed transactions, re-validating each
//! through the normal apply path and discarding uncommitted tails.
//! [`ManagedDirectory`](crate::managed::ManagedDirectory)'s one write
//! driver is the one place that sequence is driven from.
//!
//! ## Format
//!
//! The journal is a valid LDIF document (RFC 2849 subset, same parser
//! as directory content), so standard tooling can inspect it. Each
//! record carries a synthetic DN `op=<seq>,cn=journal` (`<seq>` is a
//! global record sequence number) and describes itself with reserved
//! `jrn*` attributes:
//!
//! ```ldif
//! dn: op=0,cn=journal
//! jrntype: begin
//! jrntx: 0
//! jrndone: 0
//!
//! dn: op=1,cn=journal
//! objectClass: person
//! objectClass: top
//! jrnparent: existing:4
//! jrntx: 0
//! jrntype: insert
//! uid: zoe
//! jrndone: 1
//!
//! dn: op=2,cn=journal
//! jrntx: 0
//! jrntype: commit
//! jrndone: 2
//! ```
//!
//! `jrnparent` is `root`, `existing:<slot>` (an [`EntryId`] index), or
//! `new:<op>` (the entry created by an earlier op of the same
//! transaction); `jrntarget` names the deleted slot. A record's op index
//! is its position among its transaction's payload records — the
//! sequence numbers already pin that order — so it is not written;
//! journals of older builds spell it out as `jrnop: <i>`, which still
//! parses and must agree with the position. `jrndone: <seq>`
//! is always the record's **last** line, so a record cut anywhere by a
//! crash is detectably incomplete. The `jrn` attribute prefix is
//! reserved: payload attributes starting with `jrn` are not journalled
//! faithfully.
//!
//! ## Recovery semantics
//!
//! [`Journal::parse`] never fails: it reads records up to the first
//! malformed, incomplete, or out-of-sequence one and treats everything
//! from there as the torn tail of a crash (`truncated`, with the
//! dropped record count). A transaction is replayed iff its `commit`
//! record survived intact; `begin`/op records without a commit are
//! discarded — exactly the "committed prefix" the chaos suite asserts.

use std::fmt::Write as _;
use std::slice;

use bschema_directory::ldif::{parse_ldif, write_record, LdifRecord};
use bschema_directory::{Dn, Entry, EntryId};

use crate::engine::Op;
use crate::schema::DirectorySchema;
use crate::updates::{Mod, NodeRef, Transaction, TxOp};

/// DN suffix shared by every journal record.
pub const JOURNAL_DN_SUFFIX: &str = "cn=journal";

/// The journal file for shard `shard` of a sharded directory whose
/// unsharded journal would live at `base`: `<base>.shard<k>`. Keeping
/// the per-shard files siblings of the unsharded path means `serve
/// --shards N` and plain `serve` can point at the same `--journal`
/// argument.
pub fn shard_journal_path(base: &std::path::Path, shard: usize) -> std::path::PathBuf {
    let name = base
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "journal".to_owned());
    base.with_file_name(format!("{name}.shard{shard}"))
}

/// An LDAP Modify journalled as its own transaction: `begin`, one
/// `modify` record per [`Mod`] (all addressing the same slot), then
/// `commit`. Recovery applies the whole mod list as one operation, so
/// intermediate states are never checked — only the certified end state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalModify {
    /// The modified entry's slot.
    pub target: EntryId,
    /// The modifications, in record order.
    pub mods: Vec<Mod>,
}

/// A schema evolution journalled as its own transaction: `begin`, one
/// `schema` record carrying the complete evolved schema as escaped DSL
/// text, then `commit`. Recovery swaps the engine's schema (after the
/// usual Figures 6–7 consistency closure) instead of mutating entries —
/// the paper's §6.2 "no modifications to existing directory entries"
/// claim, made durable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalSchema {
    /// The complete evolved schema, as schema-DSL text. Always the
    /// *full* schema (required classes included), even in a shard
    /// journal — see [`JournalSchema::local`].
    pub dsl: String,
    /// Whether the engine that journalled this record runs under the
    /// localised schema (required classes stripped — a Theorem 4.1
    /// shard engine). Replay must apply `without_required_classes()`
    /// before swapping; the full DSL is still recorded so sharded
    /// recovery can re-derive the global schema and its ◇c ledger.
    pub local: bool,
}

impl JournalSchema {
    /// Parses the recorded DSL into the full evolved schema (required
    /// classes included).
    pub fn full_schema(&self) -> Result<DirectorySchema, String> {
        crate::schema::dsl::parse_schema(&self.dsl)
            .map(|parsed| parsed.schema)
            .map_err(|e| format!("journalled schema does not parse: {e}"))
    }

    /// The schema the journalling *engine* must swap to on replay: the
    /// full schema, or its localised form (`without_required_classes`)
    /// when the record came from a shard engine.
    pub fn engine_schema(&self) -> Result<DirectorySchema, String> {
        let full = self.full_schema()?;
        Ok(if self.local { full.without_required_classes() } else { full })
    }
}

/// What one journalled transaction carries: the decoded mirror of the
/// [`Op`] that wrote it, and what replay applies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// Inserts and deletes, as the transaction that replays them. Op
    /// indices are record positions, so `new:<op>` parents resolve as in
    /// the original. A `begin` + `commit` with no payload record is an
    /// empty one.
    Tx(Transaction),
    /// An LDAP Modify of one entry.
    Modify(JournalModify),
    /// A schema evolution cutover.
    Schema(JournalSchema),
}

/// One transaction as read back from a journal.
#[derive(Debug, Clone)]
pub struct JournalTx {
    /// The transaction id from its `begin` record.
    pub id: u64,
    /// The journal sequence number of this transaction's `begin` record.
    /// Checkpoint recovery replays exactly the committed transactions
    /// with `first_seq >= checkpoint.seq`.
    pub first_seq: u64,
    /// Global transaction id stamped by a sharded 2-phase apply
    /// (`jrngid`), shared by every participating shard's journal.
    /// `None` for ordinary single-engine transactions.
    pub gid: Option<u64>,
    /// Number of shards participating in the global transaction
    /// (`jrnpeers`). A cross-shard transaction only counts as committed
    /// if a commit record for its `gid` is intact in all `peers`
    /// journals — the reconciliation
    /// `ShardedDirectory::recover_with_checkpoints` runs.
    pub peers: Option<u64>,
    /// The recorded operation.
    pub payload: Payload,
    /// Whether an intact `commit` record was found.
    pub committed: bool,
}

/// One decoded payload record: what it adds to its transaction.
enum Part {
    /// An `insert` or `delete` record.
    Op(TxOp),
    /// A `modify` record: the slot and one modification.
    Mod(EntryId, Mod),
    /// A `schema` record.
    Schema(JournalSchema),
}

impl Payload {
    /// Adds the next payload record to the payload so far — the one rule
    /// that keeps the kinds apart. Insert/delete records extend a
    /// transaction; a modify record starts on an empty transaction or
    /// extends a modify of the same slot; a schema record only fills an
    /// empty transaction. `op`, the index an older build wrote out, must
    /// be the record's position. `false` means the record does not belong
    /// here: crash damage.
    fn absorb(&mut self, part: Part, op: Option<usize>) -> bool {
        let at = |position: usize| op.is_none_or(|op| op == position);
        match (&mut *self, part) {
            (Payload::Tx(tx), Part::Op(txop)) if at(tx.len()) => tx.push(txop),
            (Payload::Modify(m), Part::Mod(target, one))
                if m.target == target && at(m.mods.len()) =>
            {
                m.mods.push(one);
            }
            (Payload::Tx(tx), Part::Mod(target, one)) if tx.is_empty() && at(0) => {
                *self = Payload::Modify(JournalModify { target, mods: vec![one] });
            }
            (Payload::Tx(tx), Part::Schema(schema)) if tx.is_empty() => {
                *self = Payload::Schema(schema);
            }
            _ => return false,
        }
        true
    }
}

/// A parsed journal: the recoverable transaction history plus crash
/// diagnostics.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// Transactions in journal order (committed and uncommitted).
    pub txs: Vec<JournalTx>,
    /// Records discarded as a torn/corrupt tail.
    pub dropped_records: usize,
    /// Byte length of the intact prefix of the parsed text: everything
    /// beyond this offset is crash damage. A writer resuming on the same
    /// file should truncate it to this length first.
    pub intact_len: usize,
    /// Whether reading stopped at a malformed, incomplete, or
    /// out-of-sequence record (structural crash damage). An uncommitted
    /// final transaction alone does not set this — aborted transactions
    /// are normal journal content.
    pub truncated: bool,
    /// The shard index qualifying every record DN
    /// (`op=<seq>,shard=<k>,cn=journal`), when this is a shard journal.
    /// Mixed-shard files are treated as crash damage.
    pub shard: Option<u64>,
    /// The sequence number of the first record. `0` for a full journal;
    /// a truncated journal (the tail left behind by a checkpoint) starts
    /// at the checkpointed sequence.
    pub start_seq: u64,
    /// One past the highest intact record sequence number (where a
    /// resumed writer continues).
    next_seq: u64,
    /// One past the highest transaction id seen.
    next_tx: u64,
    /// Where each intact record starts in the parsed text, in sequence
    /// order from `start_seq`.
    starts: Vec<usize>,
}

/// A fully decoded journal record, before transaction grouping.
struct ParsedRecord {
    seq: u64,
    tx: u64,
    gid: Option<u64>,
    peers: Option<u64>,
    shard: Option<u64>,
    /// The op index an older build wrote out (`jrnop`); derived from the
    /// record's position when absent.
    op: Option<usize>,
    body: Body,
}

/// What a record says.
enum Body {
    Begin,
    Commit,
    /// A payload record; `None` when its kind is unknown or a field it
    /// needs does not decode — damage, once the record's place in the
    /// file is known.
    Payload(Option<Part>),
}

/// Flattens multi-line schema-DSL text into a single LDIF value
/// (`\` → `\\`, newline → `\n`). Blank DSL lines are significant to the
/// schema grammar, so a per-line encoding would not round-trip.
pub(crate) fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape_text`].
pub(crate) fn unescape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

fn parse_u64(s: &str) -> Option<u64> {
    s.trim().parse().ok()
}

/// Decodes a record DN `op=<seq>[,shard=<k>],cn=journal` into the
/// sequence number and optional shard qualifier. `None` means the DN is
/// not a journal record DN.
fn decode_record_dn(dn: &str) -> Option<(u64, Option<u64>)> {
    let rest = dn.strip_prefix("op=")?;
    let (seq, rest) = rest.split_once(',')?;
    let seq = parse_u64(seq)?;
    if rest == JOURNAL_DN_SUFFIX {
        return Some((seq, None));
    }
    let shard = rest.strip_suffix(&format!(",{JOURNAL_DN_SUFFIX}"))?.strip_prefix("shard=")?;
    Some((seq, Some(parse_u64(shard)?)))
}

/// Decodes one LDIF record into a journal record; `None` means the
/// record is not an intact journal record (torn tail, foreign content).
/// With `expected_seq` the record must carry exactly that sequence
/// number; without (the journal's first record) any sequence is
/// accepted — that is what lets a truncated journal start mid-history.
fn decode_record(rec: LdifRecord, expected_seq: Option<u64>) -> Option<ParsedRecord> {
    let (seq, shard) = decode_record_dn(&rec.dn.to_string())?;
    if expected_seq.is_some_and(|expected| expected != seq) {
        return None;
    }
    let entry = rec.entry;
    // jrndone is written last; its absence (or a mismatched sequence)
    // marks a record cut short by a crash.
    if parse_u64(entry.first_value("jrndone")?)? != seq {
        return None;
    }
    let kind = entry.first_value("jrntype")?.to_owned();
    let tx = parse_u64(entry.first_value("jrntx")?)?;
    let gid = entry.first_value("jrngid").and_then(parse_u64);
    let peers = entry.first_value("jrnpeers").and_then(parse_u64);
    let op = match entry.first_value("jrnop") {
        Some(v) => Some(parse_u64(v)? as usize),
        None => None,
    };
    let target = match entry.first_value("jrntarget") {
        Some(v) => Some(EntryId::from_index(parse_u64(v)? as usize)),
        None => None,
    };
    let body = match kind.as_str() {
        "begin" => Body::Begin,
        "commit" => Body::Commit,
        kind => Body::Payload(decode_part(kind, target, entry)),
    };
    Some(ParsedRecord { seq, tx, gid, peers, shard, op, body })
}

/// Decodes a payload record of `kind` (its `jrntarget` already read);
/// `None` for an unknown kind or a missing or malformed field.
fn decode_part(kind: &str, target: Option<EntryId>, mut entry: Entry) -> Option<Part> {
    match kind {
        "insert" => {
            let parent = decode_parent(entry.first_value("jrnparent")?)?;
            // An RDN is serialised as a one-component DN.
            let rdn = match entry.first_value("jrnrdn") {
                Some(s) => Some(Dn::parse(s).ok()?.rdn()?.clone()),
                None => None,
            };
            for attr in [
                "jrntype",
                "jrntx",
                "jrngid",
                "jrnpeers",
                "jrnop",
                "jrnparent",
                "jrnrdn",
                "jrntarget",
                "jrnmod",
                "jrnattr",
                "jrnval",
                "jrnschema",
                "jrnlocal",
                "jrndone",
            ] {
                entry.remove_attribute(attr);
            }
            Some(Part::Op(TxOp::Insert { parent, rdn, entry }))
        }
        "delete" => Some(Part::Op(TxOp::Delete { target: target? })),
        "modify" => {
            let mod_kind = entry.first_value("jrnmod")?;
            let one = decode_mod(mod_kind, entry.first_value("jrnattr"), entry.values("jrnval"))?;
            Some(Part::Mod(target?, one))
        }
        "schema" => Some(Part::Schema(JournalSchema {
            dsl: unescape_text(entry.first_value("jrnschema")?),
            local: entry.first_value("jrnlocal").is_some(),
        })),
        _ => None,
    }
}

/// Reconstructs a [`Mod`] from a `modify` record's fields.
fn decode_mod(kind: &str, attr: Option<&str>, values: &[String]) -> Option<Mod> {
    let attribute = attr?.to_owned();
    let single = || (values.len() == 1).then(|| values[0].clone());
    match kind {
        "add" => Some(Mod::Add { attribute, value: single()? }),
        "delete-value" => Some(Mod::DeleteValue { attribute, value: single()? }),
        "delete-attribute" if values.is_empty() => Some(Mod::DeleteAttribute { attribute }),
        "replace" => Some(Mod::Replace { attribute, values: values.to_vec() }),
        _ => None,
    }
}

fn decode_parent(spec: &str) -> Option<Option<NodeRef>> {
    if spec == "root" {
        return Some(None);
    }
    if let Some(idx) = spec.strip_prefix("existing:") {
        return Some(Some(NodeRef::Existing(EntryId::from_index(parse_u64(idx)? as usize))));
    }
    if let Some(op) = spec.strip_prefix("new:") {
        return Some(Some(NodeRef::New(parse_u64(op)? as usize)));
    }
    None
}

impl Journal {
    /// An empty journal (no history).
    pub fn empty() -> Self {
        Journal::default()
    }

    /// Parses journal text, tolerating any crash truncation: reading
    /// stops at the first record that is malformed, incomplete, or out
    /// of sequence, and everything from there on counts as dropped.
    /// Never fails — a hopelessly corrupt file is simply an empty
    /// journal with `truncated` set.
    pub fn parse(text: &str) -> Self {
        // Split into paragraphs ourselves so one torn record does not
        // poison the parse of everything before it. Each paragraph keeps
        // the byte offsets of its first line and just past it (separator
        // included), so `text_from` can slice at a record and intact_len
        // can report how much of the file survived.
        let mut paragraphs: Vec<(String, usize, usize)> = Vec::new();
        let mut current = String::new();
        let (mut start, mut offset) = (0usize, 0usize);
        for line in text.split_inclusive('\n') {
            let body = line.strip_suffix('\n').unwrap_or(line);
            let body = body.strip_suffix('\r').unwrap_or(body);
            if body.trim().is_empty() {
                if !current.is_empty() {
                    paragraphs.push((std::mem::take(&mut current), start, offset + line.len()));
                }
            } else {
                if current.is_empty() {
                    start = offset;
                }
                current.push_str(body);
                current.push('\n');
            }
            offset += line.len();
        }
        if !current.is_empty() {
            paragraphs.push((current, start, offset));
        }

        let mut journal = Journal::empty();
        let mut open: Option<JournalTx> = None;
        let mut intact = 0usize;
        let mut first = true;
        'records: for (paragraph, start, end) in &paragraphs {
            let expected = if first { None } else { Some(journal.next_seq) };
            let decoded = match parse_ldif(paragraph) {
                Ok(mut records) if records.len() == 1 => {
                    records.pop().and_then(|record| decode_record(record, expected))
                }
                _ => None,
            };
            let Some(record) = decoded else {
                journal.truncated = true;
                break 'records;
            };
            // A shard journal carries one shard qualifier throughout; a
            // record from another shard (or the unsharded form) is
            // foreign content, i.e. damage. The first record also fixes
            // the starting sequence — non-zero for the tail a checkpoint
            // truncation leaves behind.
            if first {
                journal.shard = record.shard;
                journal.start_seq = record.seq;
                journal.next_seq = record.seq;
                first = false;
            } else if journal.shard != record.shard {
                journal.truncated = true;
                break 'records;
            }
            match record.body {
                Body::Begin => {
                    if let Some(tx) = open.take() {
                        // begin without commit: the previous transaction
                        // aborted (rolled back, or crashed before its
                        // verdict) — keep it, uncommitted. Not structural
                        // damage; aborted txs are normal journal content.
                        journal.txs.push(tx);
                    }
                    open = Some(JournalTx {
                        id: record.tx,
                        first_seq: record.seq,
                        gid: record.gid,
                        peers: record.peers,
                        payload: Payload::Tx(Transaction::new()),
                        committed: false,
                    });
                }
                Body::Payload(part) => {
                    let absorbed = match (open.as_mut(), part) {
                        (Some(tx), Some(part)) if tx.id == record.tx => {
                            tx.payload.absorb(part, record.op)
                        }
                        _ => false,
                    };
                    if !absorbed {
                        journal.truncated = true;
                        break 'records;
                    }
                }
                Body::Commit => match open.take() {
                    Some(mut tx) if tx.id == record.tx => {
                        tx.committed = true;
                        journal.txs.push(tx);
                    }
                    _ => {
                        journal.truncated = true;
                        break 'records;
                    }
                },
            }
            journal.next_tx = journal.next_tx.max(record.tx + 1);
            journal.next_seq += 1;
            journal.starts.push(*start);
            journal.intact_len = *end;
            intact += 1;
        }
        if let Some(tx) = open.take() {
            // Journal ends without a commit: an aborted final transaction
            // or a crash before the verdict — either way, uncommitted.
            journal.txs.push(tx);
        }
        journal.dropped_records = paragraphs.len() - intact;
        journal
    }

    /// Transactions with an intact commit record, in order.
    pub fn committed(&self) -> impl Iterator<Item = &JournalTx> {
        self.txs.iter().filter(|tx| tx.committed)
    }

    /// One past the highest intact record sequence number — where a
    /// resumed writer (or a replication cursor) continues.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// One past the highest transaction id seen — where a resumed
    /// writer continues numbering transactions.
    pub fn next_tx(&self) -> u64 {
        self.next_tx
    }

    /// The intact records of `text` — the text this journal was parsed
    /// from — starting at the one with sequence `seq`: what a follower
    /// that applied everything below `seq` still needs. Empty at the
    /// cursor ([`next_seq`](Journal::next_seq)); `None` for a `seq`
    /// outside `start_seq..=next_seq`.
    pub fn text_from<'t>(&self, text: &'t str, seq: u64) -> Option<&'t str> {
        let at = match seq == self.next_seq {
            true => self.intact_len,
            false => *self.starts.get(usize::try_from(seq.checked_sub(self.start_seq)?).ok()?)?,
        };
        text.get(at..self.intact_len)
    }
}

/// Serialises transactions into write-ahead journal records.
///
/// The writer only builds text; durability is the caller's job. The
/// WAL discipline is: call [`begin`](JournalWriter::begin), persist
/// [`take_pending`](JournalWriter::take_pending) (append to the journal
/// file), apply the transaction, and on success call
/// [`commit`](JournalWriter::commit) and persist again. A crash at any
/// point then leaves either no trace, an uncommitted (discarded) tail,
/// or a fully committed transaction — never a half-truth. Production
/// code does not drive this by hand:
/// [`ManagedDirectory`](crate::managed::ManagedDirectory) owns the
/// sequence (`ci/one_wal.sh` enforces it).
#[derive(Debug, Clone, Default)]
pub struct JournalWriter {
    seq: u64,
    next_tx: u64,
    pending: String,
    /// Shard qualifier written into every record DN
    /// (`op=<seq>,shard=<k>,cn=journal`).
    shard: Option<usize>,
    /// Record text bytes built since this writer was constructed —
    /// excludes any replayed history a resumed writer appends after.
    bytes: u64,
}

impl JournalWriter {
    /// A writer for a fresh journal.
    pub fn new() -> Self {
        JournalWriter::default()
    }

    /// A writer that continues at an explicit sequence and transaction
    /// id: recovery resumes at the higher of the parsed journal's and
    /// the checkpoint's cursors (a checkpoint may have truncated the
    /// journal to nothing, leaving no record to parse a cursor out of).
    pub fn resume_at(seq: u64, next_tx: u64) -> Self {
        JournalWriter { seq, next_tx, ..JournalWriter::default() }
    }

    /// Qualifies every subsequent record DN with `shard=<k>` — the
    /// per-shard journal form of a [`ShardedDirectory`].
    ///
    /// [`ShardedDirectory`]: crate::sharded::ShardedDirectory
    pub fn with_shard(mut self, shard: usize) -> Self {
        self.shard = Some(shard);
        self
    }

    fn emit(&mut self, kind: &str, tx: u64, extra: &[(&str, String)], payload: Option<&Entry>) {
        let seq = self.seq;
        self.seq += 1;
        let mut entry = payload.cloned().unwrap_or_default();
        entry.add_value("jrntype", kind);
        entry.add_value("jrntx", tx.to_string());
        for (attr, value) in extra {
            entry.add_value(attr, value.clone());
        }
        let dn = match self.shard {
            Some(k) => format!("op={seq},shard={k},{JOURNAL_DN_SUFFIX}"),
            None => format!("op={seq},{JOURNAL_DN_SUFFIX}"),
        };
        let mut record = String::new();
        write_record(&mut record, &dn, &entry);
        // write_record ends with the blank separator; jrndone must be the
        // record's final attribute line so truncation is detectable.
        record.pop();
        let _ = writeln!(record, "jrndone: {seq}");
        record.push('\n');
        self.bytes = self.bytes.saturating_add(record.len() as u64);
        self.pending.push_str(&record);
    }

    /// Records `begin` plus one record per op of `tx` (the write-ahead
    /// half) and returns the transaction id for
    /// [`commit`](JournalWriter::commit).
    pub fn begin(&mut self, tx: &Transaction) -> u64 {
        self.begin_op(&Op::Tx { tx, global: None })
    }

    /// Records `begin` plus one `modify` record per [`Mod`] on `target`
    /// and returns the transaction id for [`commit`](JournalWriter::commit).
    pub fn begin_modify(&mut self, target: EntryId, mods: &[Mod]) -> u64 {
        self.begin_op(&Op::Modify { target, mods })
    }

    /// The one begin encoder: records `begin` plus `op`'s payload records
    /// (the write-ahead half) and returns the transaction id for
    /// [`commit`](JournalWriter::commit). A `(gid, peers)` stamp goes on
    /// the begin record: every participant of a cross-shard apply or
    /// cutover writes the same `gid`, and recovery counts the operation
    /// committed only when all `peers` journals committed it. An insert or
    /// delete is one record each, a modify one `modify` record per
    /// [`Mod`], a cutover one `schema` record carrying the complete evolved
    /// schema as DSL text (`jrnlocal` when a shard engine's replay must
    /// strip the required classes).
    pub(crate) fn begin_op(&mut self, op: &Op<'_>) -> u64 {
        let id = self.next_tx;
        self.next_tx += 1;
        let stamp = match op.global() {
            Some((gid, peers)) => {
                vec![("jrngid", gid.to_string()), ("jrnpeers", peers.to_string())]
            }
            None => Vec::new(),
        };
        self.emit("begin", id, &stamp, None);
        match *op {
            Op::Tx { tx, .. } => {
                for txop in tx.ops() {
                    match txop {
                        TxOp::Insert { parent, rdn, entry } => {
                            let spec = match parent {
                                None => "root".to_owned(),
                                Some(NodeRef::Existing(p)) => format!("existing:{}", p.index()),
                                Some(NodeRef::New(j)) => format!("new:{j}"),
                            };
                            let mut extra = vec![("jrnparent", spec)];
                            if let Some(rdn) = rdn {
                                extra.push(("jrnrdn", rdn.to_string()));
                            }
                            self.emit("insert", id, &extra, Some(entry));
                        }
                        TxOp::Delete { target } => {
                            let extra = [("jrntarget", target.index().to_string())];
                            self.emit("delete", id, &extra, None);
                        }
                    }
                }
            }
            Op::Modify { target, mods } => {
                for m in mods {
                    let (kind, attribute, values): (&str, &str, &[String]) = match m {
                        Mod::Add { attribute, value } => ("add", attribute, slice::from_ref(value)),
                        Mod::DeleteValue { attribute, value } => {
                            ("delete-value", attribute, slice::from_ref(value))
                        }
                        Mod::DeleteAttribute { attribute } => ("delete-attribute", attribute, &[]),
                        Mod::Replace { attribute, values } => ("replace", attribute, values),
                    };
                    let mut payload = Entry::new();
                    for value in values {
                        payload.add_value("jrnval", value.clone());
                    }
                    let extra = [
                        ("jrntarget", target.index().to_string()),
                        ("jrnmod", kind.to_owned()),
                        ("jrnattr", attribute.to_owned()),
                    ];
                    self.emit("modify", id, &extra, Some(&payload));
                }
            }
            Op::Schema { dsl, local, .. } => {
                let mut extra = vec![("jrnschema", escape_text(dsl))];
                if local {
                    extra.push(("jrnlocal", "1".to_owned()));
                }
                self.emit("schema", id, &extra, None);
            }
        }
        id
    }

    /// Records the commit of `tx_id`. Only call after the transaction
    /// was applied and certified legal.
    pub fn commit(&mut self, tx_id: u64) {
        self.emit("commit", tx_id, &[], None);
    }

    /// Drains the text accumulated since the last call — append it to
    /// the journal file to persist.
    pub fn take_pending(&mut self) -> String {
        std::mem::take(&mut self.pending)
    }

    /// Total journal records ever numbered through this writer's
    /// sequence — for a resumed writer this includes the replayed
    /// history it continues after, so it measures the *journal's*
    /// length, not this process's contribution.
    pub fn records_emitted(&self) -> u64 {
        self.seq
    }

    /// One past the highest transaction id this writer has numbered —
    /// paired with [`records_emitted`](Self::records_emitted) it is the
    /// cursor a checkpoint header must record.
    pub fn next_tx(&self) -> u64 {
        self.next_tx
    }

    /// The shard qualifier written into every record DN, if any.
    pub fn shard(&self) -> Option<usize> {
        self.shard
    }

    /// Record text bytes built by *this* writer (since construction /
    /// resume) — the growth a health check should compare against a
    /// repair threshold.
    pub fn bytes_emitted(&self) -> u64 {
        self.bytes
    }
}

/// Outcome statistics of a recovery
/// ([`recover_with_checkpoint`](crate::checkpoint::recover_with_checkpoint)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Committed transactions replayed successfully.
    pub replayed: usize,
    /// Of those, schema evolution cutovers — the epochs the recovered
    /// state has absorbed beyond its checkpoint (or seed) baseline.
    pub schema_cutovers: usize,
    /// Uncommitted transactions discarded (the crash tail).
    pub discarded: usize,
    /// Torn/corrupt records dropped during parsing.
    pub dropped_records: usize,
    /// Whether the journal showed any sign of truncation.
    pub truncated: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::recover_with_checkpoint;
    use crate::engine::{MemoryJournal, Op};
    use crate::managed::{ManagedDirectory, ManagedError};
    use crate::paper::{white_pages_instance, white_pages_schema};
    use bschema_directory::DirectoryInstance;
    use bschema_obs::noop;

    /// A directory journalling into memory.
    fn journaled(mut managed: ManagedDirectory) -> (ManagedDirectory, MemoryJournal) {
        let mem = MemoryJournal::default();
        managed.set_sink(mem.sink());
        (managed, mem)
    }

    /// Full replay from `base`: the ladder's no-checkpoint rung.
    fn recover(
        schema: DirectorySchema,
        base: DirectoryInstance,
        journal: &Journal,
    ) -> Result<(ManagedDirectory, RecoveryReport), ManagedError> {
        recover_with_checkpoint(schema, base, None, journal).map(|rec| (rec.managed, rec.report))
    }

    fn researcher(uid: &str) -> Entry {
        Entry::builder()
            .classes(["researcher", "person", "top"])
            .attr("uid", uid)
            .attr("name", uid)
            .build()
    }

    #[test]
    fn journal_roundtrips_a_mixed_transaction() {
        let (dir, ids) = white_pages_instance();
        let mut tx = Transaction::new();
        let unit = tx.insert_under(
            ids.att_labs,
            Entry::builder().classes(["orgUnit", "orgGroup", "top"]).attr("ou", "voice").build(),
        );
        tx.insert_under_new(unit, researcher("alice"));
        tx.delete(ids.suciu);
        let _ = dir;

        let mut writer = JournalWriter::new();
        let id = writer.begin(&tx);
        writer.commit(id);
        let text = writer.take_pending();

        let journal = Journal::parse(&text);
        assert!(!journal.truncated, "{journal:?}");
        assert_eq!(journal.dropped_records, 0);
        assert_eq!(journal.txs.len(), 1);
        assert!(journal.txs[0].committed);
        assert_eq!(journal.txs[0].payload, Payload::Tx(tx));
        // The journal text is plain LDIF — the stock parser reads it.
        assert_eq!(parse_ldif(&text).unwrap().len(), 5);
    }

    #[test]
    fn a_written_out_op_index_is_optional_but_must_agree_with_the_position() {
        let (_, ids) = white_pages_instance();
        let mut tx = Transaction::new();
        tx.insert_under(ids.databases, researcher("zoe"));
        tx.delete(ids.suciu);
        let mut writer = JournalWriter::new();
        let id = writer.begin(&tx);
        writer.commit(id);
        let id = writer.begin_modify(
            ids.laks,
            &[
                Mod::Add { attribute: "title".into(), value: "dr".into() },
                Mod::DeleteAttribute { attribute: "mail".into() },
            ],
        );
        writer.commit(id);
        let text = writer.take_pending();
        assert!(!text.contains("jrnop"), "the writer derives the op index, it does not store it");

        // What an older build wrote: `jrnop: <i>` ahead of the field that
        // follows it in every payload record.
        let spelled_out = |indices: [usize; 4]| {
            let mut indices = indices.iter();
            let mut out = String::new();
            for line in text.lines() {
                if line.starts_with("jrnparent:") || line.starts_with("jrntarget:") {
                    out.push_str(&format!("jrnop: {}\n", indices.next().expect("four payloads")));
                }
                out.push_str(line);
                out.push('\n');
            }
            out
        };
        for (indices, intact) in [
            ([0, 1, 0, 1], true),
            ([0, 0, 0, 1], false),
            ([1, 0, 0, 1], false),
            ([0, 1, 1, 0], false),
        ] {
            let old = Journal::parse(&spelled_out(indices));
            assert_eq!(!old.truncated, intact, "{indices:?}");
            assert_eq!(old.committed().count() == 2, intact, "{indices:?}");
        }
        let (new, old) = (Journal::parse(&text), Journal::parse(&spelled_out([0, 1, 0, 1])));
        assert_eq!(new.committed().count(), 2);
        assert_eq!(format!("{:?}", new.txs), format!("{:?}", old.txs), "same history either way");
    }

    #[test]
    fn recovery_applies_only_committed_transactions() {
        let schema = white_pages_schema();
        let (dir, ids) = white_pages_instance();
        let base = dir.clone();

        let (mut live, mem) =
            journaled(ManagedDirectory::with_instance(schema.clone(), dir).unwrap());

        let mut tx1 = Transaction::new();
        tx1.insert_under(ids.databases, researcher("zoe"));
        live.apply_op(Op::Tx { tx: &tx1, global: None }, noop()).unwrap().expect("flushes");

        let mut text = mem.take();

        // An illegal transaction: refused on its copy, never journalled.
        let mut tx2 = Transaction::new();
        tx2.insert_under(
            ids.suciu,
            Entry::builder().classes(["orgUnit", "orgGroup", "top"]).attr("ou", "x").build(),
        );
        live.apply_op(Op::Tx { tx: &tx2, global: None }, noop()).unwrap_err();
        assert_eq!(mem.take(), "");

        // A transaction abandoned between begin and commit (the process
        // died there, or a peer shard refused its part): journalled
        // write-ahead, never committed, never installed.
        bschema_faults::silence_injected_panics();
        let mut abandoned = Transaction::new();
        abandoned.insert_under(ids.databases, researcher("kim"));
        let dies =
            std::sync::Arc::new(bschema_faults::FaultPlan::fail_at_site("span:journal.commit", 0));
        live.apply_op(Op::Tx { tx: &abandoned, global: None }, &*dies).unwrap_err();

        let mut tx3 = Transaction::new();
        tx3.insert_under(ids.att_labs, researcher("pat"));
        live.apply_op(Op::Tx { tx: &tx3, global: None }, noop()).unwrap().expect("flushes");

        text.push_str(&mem.take());
        let journal = Journal::parse(&text);
        assert_eq!(journal.txs.len(), 3);
        assert_eq!(journal.committed().count(), 2);

        let (recovered, report) = recover(schema, base, &journal).expect("recovery succeeds");
        assert_eq!(report.replayed, 2);
        assert_eq!(report.discarded, 1);
        assert!(recovered.is_legal());
        assert_eq!(
            recovered.instance().canonical_bytes(),
            live.instance().canonical_bytes(),
            "recovered state must equal the live state that applied the committed txs"
        );
    }

    #[test]
    fn truncated_tails_are_discarded_at_every_cut_point() {
        let schema = white_pages_schema();
        let (dir, ids) = white_pages_instance();
        let base = dir.clone();

        let (mut live, mem) =
            journaled(ManagedDirectory::with_instance(schema.clone(), dir).unwrap());
        let mut committed_states = vec![live.instance().canonical_bytes()];
        for uid in ["zoe", "pat", "kim"] {
            let mut tx = Transaction::new();
            tx.insert_under(ids.databases, researcher(uid));
            live.apply_op(Op::Tx { tx: &tx, global: None }, noop()).unwrap().expect("flushes");
            committed_states.push(live.instance().canonical_bytes());
        }
        let text = mem.take();

        // Cut the journal after every byte prefix boundary that ends a
        // line, plus a few mid-line cuts.
        let mut cut_points: Vec<usize> =
            text.char_indices().filter(|&(_, c)| c == '\n').map(|(i, _)| i + 1).collect();
        cut_points.extend([3, 17, text.len().saturating_sub(4)]);
        cut_points.push(text.len());
        for cut in cut_points {
            let truncated = &text[..cut];
            let journal = Journal::parse(truncated);
            let committed = journal.committed().count();
            // Repairing to the intact prefix yields a clean journal with
            // the same committed history.
            let repaired = Journal::parse(&truncated[..journal.intact_len]);
            assert!(!repaired.truncated, "cut at byte {cut}: repaired journal still torn");
            assert_eq!(repaired.committed().count(), committed);
            let (recovered, report) = recover(schema.clone(), base.clone(), &journal)
                .expect("recovery succeeds on every prefix");
            assert_eq!(report.replayed, committed);
            assert_eq!(
                recovered.instance().canonical_bytes(),
                committed_states[committed],
                "cut at byte {cut}: recovered state must be the committed prefix"
            );
        }
    }

    #[test]
    fn resumed_writer_continues_the_sequence() {
        let (_, ids) = white_pages_instance();
        let mut writer = JournalWriter::new();
        let mut tx = Transaction::new();
        tx.insert_under(ids.databases, researcher("zoe"));
        let id0 = writer.begin(&tx);
        writer.commit(id0);
        let first = writer.take_pending();

        let journal = Journal::parse(&first);
        let mut resumed = JournalWriter::resume_at(journal.next_seq(), journal.next_tx());
        let id1 = resumed.begin(&tx);
        assert_eq!(id1, id0 + 1);
        resumed.commit(id1);
        let mut full = first;
        full.push_str(&resumed.take_pending());
        let reparsed = Journal::parse(&full);
        assert!(!reparsed.truncated);
        assert_eq!(reparsed.committed().count(), 2);
    }

    #[test]
    fn shard_qualified_records_roundtrip_with_gid_and_peers() {
        let (_, ids) = white_pages_instance();
        let mut tx = Transaction::new();
        tx.insert_under(ids.databases, researcher("zoe"));

        let mut writer = JournalWriter::new().with_shard(3);
        let id = writer.begin_op(&Op::Tx { tx: &tx, global: Some((41, 2)) });
        writer.commit(id);
        let text = writer.take_pending();
        assert!(text.contains("op=0,shard=3,cn=journal"));

        let journal = Journal::parse(&text);
        assert!(!journal.truncated, "{journal:?}");
        assert_eq!(journal.shard, Some(3));
        assert_eq!(journal.txs.len(), 1);
        assert_eq!(journal.txs[0].gid, Some(41));
        assert_eq!(journal.txs[0].peers, Some(2));
        assert!(journal.txs[0].committed);
        // The payload entry is untouched by the gid/peers stamps.
        assert_eq!(journal.txs[0].payload, Payload::Tx(tx.clone()));

        // A plain writer leaves both stamps off.
        let mut plain = JournalWriter::new();
        let id = plain.begin(&tx);
        plain.commit(id);
        let plain_journal = Journal::parse(&plain.take_pending());
        assert_eq!(plain_journal.shard, None);
        assert_eq!(plain_journal.txs[0].gid, None);
        assert_eq!(plain_journal.txs[0].peers, None);

        // A resumed shard writer keeps numbering and qualifier.
        let mut resumed =
            JournalWriter::resume_at(journal.next_seq(), journal.next_tx()).with_shard(3);
        let id = resumed.begin(&tx);
        resumed.commit(id);
        let more = resumed.take_pending();
        assert!(more.contains("op=3,shard=3,cn=journal"));
        let mut full = text;
        full.push_str(&more);
        assert_eq!(Journal::parse(&full).committed().count(), 2);
    }

    #[test]
    fn mixed_shard_records_are_crash_damage() {
        let (_, ids) = white_pages_instance();
        let mut tx = Transaction::new();
        tx.insert_under(ids.databases, researcher("zoe"));
        let mut a = JournalWriter::new().with_shard(0);
        let id = a.begin(&tx);
        a.commit(id);
        let mut text = a.take_pending();
        // A record from another shard's writer, with the right sequence
        // number, is still rejected.
        let mut b =
            JournalWriter { seq: 3, next_tx: 1, pending: String::new(), shard: Some(1), bytes: 0 };
        let id = b.begin(&tx);
        b.commit(id);
        text.push_str(&b.take_pending());
        let journal = Journal::parse(&text);
        assert!(journal.truncated);
        assert_eq!(journal.committed().count(), 1, "the intact shard-0 prefix survives");
    }

    #[test]
    fn shard_journal_paths_are_siblings_of_the_base() {
        let base = std::path::Path::new("/var/data/dir.wal");
        assert_eq!(shard_journal_path(base, 0), std::path::Path::new("/var/data/dir.wal.shard0"));
        assert_eq!(shard_journal_path(base, 7), std::path::Path::new("/var/data/dir.wal.shard7"));
    }

    #[test]
    fn modify_records_roundtrip_and_recover() {
        let schema = white_pages_schema();
        let (dir, ids) = white_pages_instance();
        let base = dir.clone();

        let (mut live, mem) =
            journaled(ManagedDirectory::with_instance(schema.clone(), dir).unwrap());

        // One tx with several mods, exercising every kind. The delete +
        // re-add of a required attribute is only legal as one atomic
        // batch — recovery must not check intermediate states.
        let mods = [
            Mod::DeleteAttribute { attribute: "name".into() },
            Mod::Add { attribute: "name".into(), value: "suciu, dan".into() },
            Mod::Replace {
                attribute: "title".into(),
                values: vec!["researcher".into(), "member of staff".into()],
            },
            Mod::DeleteValue { attribute: "title".into(), value: "member of staff".into() },
        ];
        live.apply_op(Op::Modify { target: ids.suciu, mods: &mods }, noop())
            .unwrap()
            .expect("flushes");

        let text = mem.take();
        let journal = Journal::parse(&text);
        assert!(!journal.truncated, "{journal:?}");
        assert_eq!(journal.txs.len(), 1);
        let jtx = &journal.txs[0];
        assert!(jtx.committed);
        assert_eq!(jtx.first_seq, 0);
        let modify = JournalModify { target: ids.suciu, mods: mods.to_vec() };
        assert_eq!(jtx.payload, Payload::Modify(modify));

        let (recovered, report) = recover(schema, base, &journal).expect("recovery succeeds");
        assert_eq!(report.replayed, 1);
        assert_eq!(
            recovered.instance().canonical_bytes(),
            live.instance().canonical_bytes(),
            "modify recovery must reproduce the live state"
        );
    }

    #[test]
    fn torn_modify_tails_are_discarded() {
        let (_, ids) = white_pages_instance();
        let mut writer = JournalWriter::new();
        let mods = [Mod::Add { attribute: "title".into(), value: "x".into() }];
        let id = writer.begin_modify(ids.suciu, &mods);
        writer.commit(id);
        let text = writer.take_pending();
        for cut in (0..text.len()).step_by(7) {
            // No prefix short of the full text has a committed tx.
            assert_eq!(Journal::parse(&text[..cut]).committed().count(), 0, "cut at {cut}");
        }
        assert_eq!(Journal::parse(&text).committed().count(), 1);
    }

    #[test]
    fn journal_tail_may_start_mid_history() {
        let (_, ids) = white_pages_instance();
        let mut tx = Transaction::new();
        tx.insert_under(ids.databases, researcher("zoe"));
        // A writer resumed at seq 40 (as after a checkpoint truncation).
        let mut writer = JournalWriter::resume_at(40, 7);
        let id = writer.begin(&tx);
        assert_eq!(id, 7);
        writer.commit(id);
        let text = writer.take_pending();
        assert!(text.contains("op=40,cn=journal"));

        let journal = Journal::parse(&text);
        assert!(!journal.truncated, "{journal:?}");
        assert_eq!(journal.start_seq, 40);
        assert_eq!(journal.next_seq(), 43);
        assert_eq!(journal.txs[0].first_seq, 40);
        assert!(journal.txs[0].committed);
        // A gap *inside* the file is still damage.
        let mut gapped = text.clone();
        let mut more = JournalWriter::resume_at(99, 8);
        let id = more.begin(&tx);
        more.commit(id);
        gapped.push_str(&more.take_pending());
        assert!(Journal::parse(&gapped).truncated);
    }

    /// `SHIP`'s slice: the text from a record on, cut where the parse
    /// found that record — at the first record, a middle one and the
    /// cursor — never past the intact prefix, `None` outside the file.
    #[test]
    fn text_from_slices_at_a_record_start() {
        let (_, ids) = white_pages_instance();
        let mut writer = JournalWriter::resume_at(40, 7);
        for name in ["zoe", "yan"] {
            let mut tx = Transaction::new();
            tx.insert_under(ids.databases, researcher(name));
            let id = writer.begin(&tx);
            writer.commit(id);
        }
        let intact = writer.take_pending();
        let text = format!("{intact}dn: op=46,cn=journal\njrntype: beg");
        let journal = Journal::parse(&text);
        assert_eq!(
            (journal.start_seq, journal.next_seq(), journal.intact_len),
            (40, 46, intact.len())
        );

        assert_eq!(journal.text_from(&text, 40), Some(intact.as_str()));
        let middle = journal.text_from(&text, 43).expect("seq 43 is intact");
        assert!(middle.starts_with("dn: op=43,cn=journal\n"), "{middle}");
        assert!(intact.ends_with(middle) && middle.len() < intact.len());
        assert_eq!(Journal::parse(middle).start_seq, 43);
        assert_eq!(journal.text_from(&text, 46), Some(""), "the cursor: nothing left to ship");
        for outside in [39, 47] {
            assert_eq!(journal.text_from(&text, outside), None, "seq {outside}");
        }
        assert_eq!(Journal::parse("").text_from("", 0), Some(""));
    }

    #[test]
    fn cursors_of_empty_torn_and_truncated_journals() {
        let records = |j: &Journal| j.next_seq() - j.start_seq;
        let empty = Journal::parse("");
        assert_eq!((records(&empty), empty.start_seq, empty.truncated), (0, 0, false));

        // Torn-tail-only journal: nothing intact, everything dropped.
        let torn = Journal::parse("dn: op=0,cn=journal\njrntype: begin\n");
        assert_eq!((records(&torn), torn.dropped_records, torn.intact_len), (0, 1, 0));
        assert!(torn.truncated);

        // Freshly truncated journal: a tail starting mid-history.
        let (_, ids) = white_pages_instance();
        let mut tx = Transaction::new();
        tx.insert_under(ids.databases, researcher("zoe"));
        let mut writer = JournalWriter::resume_at(10, 3);
        let id = writer.begin(&tx);
        writer.commit(id);
        let tail = Journal::parse(&writer.take_pending());
        assert_eq!((records(&tail), tail.start_seq, tail.next_seq()), (3, 10, 13));
        assert_eq!((tail.committed().count(), tail.truncated), (1, false));
    }

    #[test]
    fn schema_records_roundtrip_and_recover() {
        use crate::checkpoint::schema_hash;
        use crate::evolution::plan::parse_proposal;

        let schema = white_pages_schema();
        let (dir, ids) = white_pages_instance();
        let base = dir.clone();
        let (mut live, mem) =
            journaled(ManagedDirectory::with_instance(schema.clone(), dir).unwrap());

        // A normal tx, then a journalled evolution, then a tx that is
        // only legal under the evolved schema.
        let mut tx = Transaction::new();
        tx.insert_under(ids.databases, researcher("zoe"));
        live.apply_op(Op::Tx { tx: &tx, global: None }, noop()).unwrap().expect("flushes");

        let plan = parse_proposal(&schema, "allow-attr researcher homePage").unwrap();
        assert!(plan.recheck(live.instance()).is_legal());
        let (evolved, dsl) = (plan.target, plan.dsl);
        live.apply_op(
            Op::Schema { schema: &evolved, dsl: &dsl, local: false, global: None },
            noop(),
        )
        .unwrap()
        .expect("flushes");

        let mut tx = Transaction::new();
        tx.insert_under(
            ids.databases,
            Entry::builder()
                .classes(["researcher", "person", "top"])
                .attr("uid", "pat")
                .attr("name", "pat")
                .attr("homePage", "https://example.net/~pat")
                .build(),
        );
        live.apply_op(Op::Tx { tx: &tx, global: None }, noop()).unwrap().expect("flushes");

        let text = mem.take();
        let journal = Journal::parse(&text);
        assert!(!journal.truncated, "{journal:?}");
        assert_eq!(journal.committed().count(), 3);
        let Payload::Schema(jschema) = &journal.txs[1].payload else { panic!("schema payload") };
        assert_eq!(jschema.dsl, dsl, "multi-line DSL must round-trip through the escape");
        assert!(!jschema.local);
        assert_eq!(schema_hash(&jschema.engine_schema().unwrap()), schema_hash(&evolved));

        // Recovery starting from the *old* schema replays the evolution
        // and converges byte-identically.
        let (recovered, report) =
            recover(schema, base.clone(), &journal).expect("recovery succeeds");
        assert_eq!(report.replayed, 3);
        assert_eq!(report.schema_cutovers, 1);
        assert_eq!(schema_hash(recovered.schema()), schema_hash(&evolved));
        assert_eq!(recovered.instance().canonical_bytes(), live.instance().canonical_bytes());

        // A `local` record strips required classes on replay.
        let mut w = JournalWriter::new();
        let local = evolved.without_required_classes();
        let id = w.begin_op(&Op::Schema { schema: &local, dsl: &dsl, local: true, global: None });
        w.commit(id);
        let j = Journal::parse(&w.take_pending());
        let Payload::Schema(s) = &j.txs[0].payload else { panic!("schema payload") };
        assert!(s.local);
        assert_eq!(
            schema_hash(&s.engine_schema().unwrap()),
            schema_hash(&evolved.without_required_classes())
        );
        assert_eq!(schema_hash(&s.full_schema().unwrap()), schema_hash(&evolved));
    }

    #[test]
    fn torn_schema_records_are_discarded() {
        let schema = white_pages_schema();
        let dsl = "class person extends top\n  require uid\n";
        let mut writer = JournalWriter::new();
        let id = writer.begin_op(&Op::Schema { schema: &schema, dsl, local: false, global: None });
        writer.commit(id);
        let text = writer.take_pending();
        // Any cut that damages the final `jrndone` loses the commit
        // (the last two bytes are the closing newlines — trimming those
        // leaves the record intact, as for any journal).
        for cut in (0..text.len().saturating_sub(2)).step_by(5) {
            if !text.is_char_boundary(cut) {
                continue;
            }
            assert_eq!(Journal::parse(&text[..cut]).committed().count(), 0, "cut at {cut}");
        }
        let journal = Journal::parse(&text);
        assert_eq!(journal.committed().count(), 1);
    }

    /// The payload rule as a table. Every `Op` shape decodes to the
    /// payload it was encoded from; a payload record that does not
    /// belong to its transaction is damage at that record, and the
    /// intact prefix before it survives.
    #[test]
    fn every_op_shape_roundtrips_and_mixed_payloads_are_damage() {
        use bschema_directory::Rdn;

        let (_, ids) = white_pages_instance();
        let schema = white_pages_schema();
        let dsl = crate::schema::dsl::print_schema(&schema, None);
        let mut inserts = Transaction::new();
        inserts.insert_root(researcher("root"));
        inserts.insert_root_named(Rdn::single("o", "named"), researcher("named-root"));
        let under = inserts.insert_under(ids.databases, researcher("under"));
        inserts.insert_under_named(ids.databases, Rdn::single("uid", "un"), researcher("un"));
        inserts.insert_under_new(under, researcher("new"));
        inserts.insert_under_new_named(under, Rdn::single("uid", "nn"), researcher("nn"));
        let mut deletes = Transaction::new();
        deletes.delete(ids.suciu);
        deletes.delete(ids.laks);
        let mods = [
            Mod::Add { attribute: "title".into(), value: "dr".into() },
            Mod::DeleteValue { attribute: "mail".into(), value: "a@b.c".into() },
            Mod::DeleteAttribute { attribute: "description".into() },
            Mod::Replace { attribute: "name".into(), values: vec!["a".into(), "b".into()] },
        ];
        let empty = Transaction::new();
        let shapes = [
            Op::Tx { tx: &inserts, global: None },
            Op::Tx { tx: &deletes, global: None },
            Op::Tx { tx: &inserts, global: Some((7, 3)) },
            Op::Tx { tx: &empty, global: None },
            Op::Modify { target: ids.suciu, mods: &mods },
            Op::Schema { schema: &schema, dsl: &dsl, local: false, global: None },
            Op::Schema { schema: &schema, dsl: &dsl, local: true, global: Some((8, 2)) },
        ];
        for op in &shapes {
            let mut writer = JournalWriter::new();
            let id = writer.begin_op(op);
            writer.commit(id);
            let journal = Journal::parse(&writer.take_pending());
            assert!(!journal.truncated, "{op:?}");
            let jtx = &journal.txs[0];
            let encoded = match *op {
                Op::Tx { tx, .. } => Payload::Tx(tx.clone()),
                Op::Modify { target, mods } => {
                    Payload::Modify(JournalModify { target, mods: mods.to_vec() })
                }
                Op::Schema { dsl, local, .. } => {
                    Payload::Schema(JournalSchema { dsl: dsl.to_owned(), local })
                }
            };
            assert_eq!(jtx.payload, encoded, "{op:?}");
            let stamp = jtx.gid.zip(jtx.peers);
            assert_eq!((stamp, jtx.committed), (op.global(), true), "{op:?}");
        }

        // A committed transaction, then `first`'s begin and payload
        // records, then `then`'s payload records in the same transaction
        // (the record the parse must stop at), then its commit.
        let mut one = Transaction::new();
        one.insert_under(ids.databases, researcher("one"));
        let insert = Op::Tx { tx: &one, global: None };
        let modify = Op::Modify { target: ids.suciu, mods: &mods[..1] };
        let elsewhere = Op::Modify { target: ids.laks, mods: &mods[..1] };
        let cutover = Op::Schema { schema: &schema, dsl: &dsl, local: false, global: None };
        for (first, then, shape) in [
            (insert, cutover, "a schema record after an insert"),
            (insert, modify, "a modify after an insert"),
            (modify, insert, "an insert after a modify"),
            (cutover, cutover, "a second schema record"),
            (modify, elsewhere, "a modify on a second slot"),
        ] {
            let mut writer = JournalWriter::new();
            let id = writer.begin(&one);
            writer.commit(id);
            let id = writer.begin_op(&first);
            let offending = writer.records_emitted();
            let mut text = writer.take_pending();
            // `then`'s records numbered on from here, its begin dropped.
            let mut more = JournalWriter::resume_at(offending - 1, id);
            more.begin_op(&then);
            let records = more.take_pending();
            text.push_str(records.split_once("\n\n").expect("a begin record").1);
            let mut last = JournalWriter::resume_at(more.records_emitted(), id + 1);
            last.commit(id);
            text.push_str(&last.take_pending());

            let journal = Journal::parse(&text);
            assert!(journal.truncated, "{shape}");
            assert_eq!(journal.next_seq(), offending, "{shape}: stops at the offending record");
            let at = text.find(&format!("dn: op={offending},")).expect("offending record");
            assert_eq!(journal.intact_len, at, "{shape}");
            assert_eq!(journal.committed().count(), 1, "{shape}: the intact prefix survives");
            assert_eq!(journal.txs.len(), 2, "{shape}: `first` stays, uncommitted");
        }
    }

    #[test]
    fn escape_text_roundtrips() {
        for s in [
            "",
            "plain",
            "two\nlines",
            "trailing\n",
            "back\\slash",
            "\\n literal",
            "mix\\\nof\\nall\n\n",
        ] {
            assert_eq!(unescape_text(&escape_text(s)), s, "{s:?}");
        }
        assert!(!escape_text("a\nb").contains('\n'));
    }

    #[test]
    fn garbage_input_is_an_empty_truncated_journal() {
        let journal = Journal::parse("this is not even LDIF\nat all");
        assert!(journal.truncated);
        assert_eq!(journal.txs.len(), 0);
        assert_eq!(journal.dropped_records, 1);
        let journal = Journal::parse("");
        assert!(!journal.truncated);
        assert!(journal.txs.is_empty());
    }
}
