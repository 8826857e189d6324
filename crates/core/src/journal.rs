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
//! [`JournaledDirectory`](crate::engine::JournaledDirectory) is the one
//! place that sequence is driven from.
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

use bschema_directory::ldif::{parse_ldif, write_record, LdifRecord};
use bschema_directory::{Dn, Entry, EntryId};

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
/// `commit`. Recovery applies the whole mod list in one
/// [`ManagedDirectory::modify_entry`](crate::ManagedDirectory::modify_entry)
/// call so intermediate states are never checked — only the certified
/// end state.
#[derive(Debug, Clone)]
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

/// One transaction as read back from a journal.
#[derive(Debug, Clone)]
pub struct JournalTx {
    /// The transaction id from its `begin` record.
    pub id: u64,
    /// The journal sequence number of this transaction's `begin` record.
    /// Checkpoint recovery replays exactly the committed transactions
    /// with `first_seq >= checkpoint.seq`.
    pub first_seq: u64,
    /// The modify payload when this transaction journalled an LDAP
    /// Modify instead of insert/delete ops (the two never mix).
    pub modify: Option<JournalModify>,
    /// The schema payload when this transaction journalled a schema
    /// evolution cutover (never mixes with ops or modify).
    pub schema: Option<JournalSchema>,
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
    /// The recorded operations, in op order.
    pub ops: Vec<TxOp>,
    /// Whether an intact `commit` record was found.
    pub committed: bool,
}

impl JournalTx {
    /// Rebuilds the replayable [`Transaction`]. Op indices are positions
    /// in `ops`, so `new:<op>` parent references resolve as in the
    /// original.
    pub fn to_transaction(&self) -> Transaction {
        let mut tx = Transaction::new();
        for op in &self.ops {
            match op {
                TxOp::Insert { parent: None, rdn: None, entry } => {
                    tx.insert_root(entry.clone());
                }
                TxOp::Insert { parent: None, rdn: Some(rdn), entry } => {
                    tx.insert_root_named(rdn.clone(), entry.clone());
                }
                TxOp::Insert { parent: Some(NodeRef::Existing(id)), rdn: None, entry } => {
                    tx.insert_under(*id, entry.clone());
                }
                TxOp::Insert { parent: Some(NodeRef::Existing(id)), rdn: Some(rdn), entry } => {
                    tx.insert_under_named(*id, rdn.clone(), entry.clone());
                }
                TxOp::Insert { parent: Some(NodeRef::New(j)), rdn: None, entry } => {
                    tx.insert_under_new(*j, entry.clone());
                }
                TxOp::Insert { parent: Some(NodeRef::New(j)), rdn: Some(rdn), entry } => {
                    tx.insert_under_new_named(*j, rdn.clone(), entry.clone());
                }
                TxOp::Delete { target } => tx.delete(*target),
            }
        }
        tx
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
}

/// A fully decoded journal record, before transaction grouping.
struct ParsedRecord {
    seq: u64,
    kind: String,
    tx: u64,
    gid: Option<u64>,
    peers: Option<u64>,
    shard: Option<u64>,
    /// The op index an older build wrote out (`jrnop`); derived from the
    /// record's position when absent.
    op: Option<usize>,
    parent: Option<String>,
    rdn: Option<String>,
    target: Option<usize>,
    mod_kind: Option<String>,
    mod_attr: Option<String>,
    mod_values: Vec<String>,
    schema_dsl: Option<String>,
    schema_local: bool,
    payload: Entry,
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
fn decode_record(rec: &LdifRecord, expected_seq: Option<u64>) -> Option<ParsedRecord> {
    let (seq, shard) = decode_record_dn(&rec.dn.to_string())?;
    if expected_seq.is_some_and(|expected| expected != seq) {
        return None;
    }
    // jrndone is written last; its absence (or a mismatched sequence)
    // marks a record cut short by a crash.
    if parse_u64(rec.entry.first_value("jrndone")?)? != seq {
        return None;
    }
    let kind = rec.entry.first_value("jrntype")?.to_owned();
    let tx = parse_u64(rec.entry.first_value("jrntx")?)?;
    let gid = rec.entry.first_value("jrngid").and_then(parse_u64);
    let peers = rec.entry.first_value("jrnpeers").and_then(parse_u64);
    let op = match rec.entry.first_value("jrnop") {
        Some(v) => Some(parse_u64(v)? as usize),
        None => None,
    };
    let parent = rec.entry.first_value("jrnparent").map(str::to_owned);
    let rdn = rec.entry.first_value("jrnrdn").map(str::to_owned);
    let target = match rec.entry.first_value("jrntarget") {
        Some(v) => Some(parse_u64(v)? as usize),
        None => None,
    };
    let mod_kind = rec.entry.first_value("jrnmod").map(str::to_owned);
    let mod_attr = rec.entry.first_value("jrnattr").map(str::to_owned);
    let mod_values = rec.entry.values("jrnval").to_vec();
    let schema_dsl = rec.entry.first_value("jrnschema").map(unescape_text);
    let schema_local = rec.entry.first_value("jrnlocal").is_some();
    let mut payload = rec.entry.clone();
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
        payload.remove_attribute(attr);
    }
    Some(ParsedRecord {
        seq,
        kind,
        tx,
        gid,
        peers,
        shard,
        op,
        parent,
        rdn,
        target,
        mod_kind,
        mod_attr,
        mod_values,
        schema_dsl,
        schema_local,
        payload,
    })
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
        // the byte offset just past it (separator included) so intact_len
        // can report how much of the file survived.
        let mut paragraphs: Vec<(String, usize)> = Vec::new();
        let mut current = String::new();
        let mut offset = 0usize;
        for line in text.split_inclusive('\n') {
            offset += line.len();
            let body = line.strip_suffix('\n').unwrap_or(line);
            let body = body.strip_suffix('\r').unwrap_or(body);
            if body.trim().is_empty() {
                if !current.is_empty() {
                    paragraphs.push((std::mem::take(&mut current), offset));
                }
            } else {
                current.push_str(body);
                current.push('\n');
            }
        }
        if !current.is_empty() {
            paragraphs.push((current, offset));
        }

        let mut journal = Journal::empty();
        let mut open: Option<JournalTx> = None;
        let mut intact = 0usize;
        let mut first = true;
        'records: for (paragraph, end) in &paragraphs {
            let expected = if first { None } else { Some(journal.next_seq) };
            let decoded = match parse_ldif(paragraph) {
                Ok(records) if records.len() == 1 => decode_record(&records[0], expected),
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
            match record.kind.as_str() {
                "begin" => {
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
                        modify: None,
                        schema: None,
                        gid: record.gid,
                        peers: record.peers,
                        ops: Vec::new(),
                        committed: false,
                    });
                }
                "schema" => {
                    // A schema cutover is a one-record transaction; it
                    // never mixes with ops, modify, or another schema
                    // record.
                    let valid = matches!(&open, Some(tx) if tx.id == record.tx
                        && tx.ops.is_empty()
                        && tx.modify.is_none()
                        && tx.schema.is_none());
                    let (Some(dsl), true) = (record.schema_dsl, valid) else {
                        journal.truncated = true;
                        break 'records;
                    };
                    let tx = open.as_mut().expect("valid implies an open tx");
                    tx.schema = Some(JournalSchema { dsl, local: record.schema_local });
                }
                "modify" => {
                    // Modify records never mix with insert/delete ops,
                    // share one target per transaction, and are
                    // op-indexed by position like any other record.
                    let valid = matches!(&open, Some(tx) if tx.id == record.tx
                    && tx.ops.is_empty()
                    && tx.schema.is_none()
                    && record.op.is_none_or(|op| {
                        op == tx.modify.as_ref().map_or(0, |m| m.mods.len())
                    }));
                    let decoded_mod = record.mod_kind.as_deref().and_then(|k| {
                        decode_mod(k, record.mod_attr.as_deref(), &record.mod_values)
                    });
                    let (Some(target), Some(m), true) = (record.target, decoded_mod, valid) else {
                        journal.truncated = true;
                        break 'records;
                    };
                    let target = EntryId::from_index(target);
                    let tx = open.as_mut().expect("valid implies an open tx");
                    match tx.modify.as_mut() {
                        None => tx.modify = Some(JournalModify { target, mods: vec![m] }),
                        Some(existing) if existing.target == target => existing.mods.push(m),
                        Some(_) => {
                            journal.truncated = true;
                            break 'records;
                        }
                    }
                }
                "insert" | "delete" => {
                    let valid = matches!(&open, Some(tx) if tx.id == record.tx
                        && tx.modify.is_none()
                        && tx.schema.is_none()
                        && record.op.is_none_or(|op| op == tx.ops.len()));
                    if !valid {
                        journal.truncated = true;
                        break 'records;
                    }
                    let op = if record.kind == "insert" {
                        let Some(parent) = record.parent.as_deref().and_then(decode_parent) else {
                            journal.truncated = true;
                            break 'records;
                        };
                        let rdn = match record.rdn.as_deref() {
                            None => None,
                            // An RDN is serialised as a one-component DN.
                            Some(s) => match Dn::parse(s).ok().and_then(|dn| dn.rdn().cloned()) {
                                Some(rdn) => Some(rdn),
                                None => {
                                    journal.truncated = true;
                                    break 'records;
                                }
                            },
                        };
                        TxOp::Insert { parent, rdn, entry: record.payload }
                    } else {
                        let Some(target) = record.target else {
                            journal.truncated = true;
                            break 'records;
                        };
                        TxOp::Delete { target: EntryId::from_index(target) }
                    };
                    if let Some(tx) = open.as_mut() {
                        tx.ops.push(op);
                    }
                }
                "commit" => match open.take() {
                    Some(mut tx) if tx.id == record.tx => {
                        tx.committed = true;
                        journal.txs.push(tx);
                    }
                    _ => {
                        journal.truncated = true;
                        break 'records;
                    }
                },
                _ => {
                    journal.truncated = true;
                    break 'records;
                }
            }
            journal.next_tx = journal.next_tx.max(record.tx + 1);
            journal.next_seq += 1;
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
/// [`JournaledDirectory`](crate::engine::JournaledDirectory) owns the
/// sequence (`ci/one_wal.sh` enforces it).
#[derive(Debug, Default)]
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

    /// Records `begin` plus one record per op (the write-ahead half) and
    /// returns the transaction id for [`commit`](JournalWriter::commit).
    pub fn begin(&mut self, tx: &Transaction) -> u64 {
        self.begin_with(tx, &[])
    }

    /// Like [`begin`](JournalWriter::begin), but stamps the begin record
    /// with a global transaction id and participant count. A sharded
    /// 2-phase apply writes the same `gid` into every participating
    /// shard's journal; recovery then treats the transaction as
    /// committed only when all `peers` journals committed it.
    pub fn begin_global(&mut self, tx: &Transaction, gid: u64, peers: u64) -> u64 {
        self.begin_with(tx, &[("jrngid", gid.to_string()), ("jrnpeers", peers.to_string())])
    }

    fn begin_with(&mut self, tx: &Transaction, begin_extra: &[(&str, String)]) -> u64 {
        let id = self.next_tx;
        self.next_tx += 1;
        self.emit("begin", id, begin_extra, None);
        for op in tx.ops() {
            match op {
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
                    self.emit("delete", id, &[("jrntarget", target.index().to_string())], None);
                }
            }
        }
        id
    }

    /// Records `begin` plus one `modify` record per [`Mod`] on `target`
    /// (the write-ahead half of an LDAP Modify) and returns the
    /// transaction id for [`commit`](JournalWriter::commit).
    pub fn begin_modify(&mut self, target: EntryId, mods: &[Mod]) -> u64 {
        let id = self.next_tx;
        self.next_tx += 1;
        self.emit("begin", id, &[], None);
        for m in mods {
            let (kind, attribute, values): (&str, &str, Vec<String>) = match m {
                Mod::Add { attribute, value } => ("add", attribute, vec![value.clone()]),
                Mod::DeleteValue { attribute, value } => {
                    ("delete-value", attribute, vec![value.clone()])
                }
                Mod::DeleteAttribute { attribute } => ("delete-attribute", attribute, Vec::new()),
                Mod::Replace { attribute, values } => ("replace", attribute, values.clone()),
            };
            let mut payload = Entry::new();
            for value in values {
                payload.add_value("jrnval", value);
            }
            self.emit(
                "modify",
                id,
                &[
                    ("jrntarget", target.index().to_string()),
                    ("jrnmod", kind.to_owned()),
                    ("jrnattr", attribute.to_owned()),
                ],
                Some(&payload),
            );
        }
        id
    }

    /// Records `begin` plus one `schema` record carrying the complete
    /// evolved schema as DSL text (the write-ahead half of a schema
    /// evolution cutover) and returns the transaction id for
    /// [`commit`](JournalWriter::commit). `local` marks the record as
    /// written by a shard engine running under the localised schema
    /// (required classes stripped on replay); `global` stamps
    /// `(gid, peers)` so a sharded cutover commits all-or-nothing under
    /// the same reconciliation as cross-shard transactions.
    pub fn begin_schema(&mut self, dsl: &str, local: bool, global: Option<(u64, u64)>) -> u64 {
        let id = self.next_tx;
        self.next_tx += 1;
        let mut begin_extra: Vec<(&str, String)> = Vec::new();
        if let Some((gid, peers)) = global {
            begin_extra.push(("jrngid", gid.to_string()));
            begin_extra.push(("jrnpeers", peers.to_string()));
        }
        self.emit("begin", id, &begin_extra, None);
        let mut extra = vec![("jrnschema", escape_text(dsl))];
        if local {
            extra.push(("jrnlocal", "1".to_owned()));
        }
        self.emit("schema", id, &extra, None);
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
    use crate::engine::{JournaledDirectory, MemoryJournal, Op};
    use crate::managed::{ManagedDirectory, ManagedError};
    use crate::paper::{white_pages_instance, white_pages_schema};
    use bschema_directory::DirectoryInstance;

    /// An engine journalling into memory.
    fn journaled(managed: ManagedDirectory) -> (JournaledDirectory, MemoryJournal) {
        let mem = MemoryJournal::default();
        let mut engine = JournaledDirectory::new(managed);
        engine.set_sink(mem.sink());
        (engine, mem)
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
        let replayed = journal.txs[0].to_transaction();
        assert_eq!(replayed.len(), tx.len());
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
        live.apply(Op::Tx { tx: &tx1, global: None }).unwrap();

        let mut text = mem.take();

        // An illegal transaction: refused on its copy, never journalled.
        let mut tx2 = Transaction::new();
        tx2.insert_under(
            ids.suciu,
            Entry::builder().classes(["orgUnit", "orgGroup", "top"]).attr("ou", "x").build(),
        );
        live.apply(Op::Tx { tx: &tx2, global: None }).unwrap_err();
        assert_eq!(mem.take(), "");

        // A transaction abandoned between begin and commit (the process
        // died there, or a peer shard refused its part): journalled
        // write-ahead, never committed, never installed.
        let mut abandoned = Transaction::new();
        abandoned.insert_under(ids.databases, researcher("kim"));
        let certified = live.certify(Op::Tx { tx: &abandoned, global: None }).unwrap();
        let _never_committed = live.begin(certified).unwrap();

        let mut tx3 = Transaction::new();
        tx3.insert_under(ids.att_labs, researcher("pat"));
        live.apply(Op::Tx { tx: &tx3, global: None }).unwrap();

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
            live.apply(Op::Tx { tx: &tx, global: None }).unwrap();
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
        let id = writer.begin_global(&tx, 41, 2);
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
        let replayed = journal.txs[0].to_transaction();
        assert_eq!(replayed.len(), 1);

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
        live.apply(Op::Modify { target: ids.suciu, mods: &mods }).unwrap();

        let text = mem.take();
        let journal = Journal::parse(&text);
        assert!(!journal.truncated, "{journal:?}");
        assert_eq!(journal.txs.len(), 1);
        let jtx = &journal.txs[0];
        assert!(jtx.committed);
        assert_eq!(jtx.first_seq, 0);
        let modify = jtx.modify.as_ref().expect("modify payload");
        assert_eq!(modify.target, ids.suciu);
        assert_eq!(modify.mods, mods);

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
        use crate::evolution::{self, Evolution};
        use crate::schema::dsl::print_schema;

        let schema = white_pages_schema();
        let (dir, ids) = white_pages_instance();
        let base = dir.clone();
        let (mut live, mem) =
            journaled(ManagedDirectory::with_instance(schema.clone(), dir).unwrap());

        // A normal tx, then a journalled evolution, then a tx that is
        // only legal under the evolved schema.
        let mut tx = Transaction::new();
        tx.insert_under(ids.databases, researcher("zoe"));
        live.apply(Op::Tx { tx: &tx, global: None }).unwrap();

        let step =
            Evolution::AllowAttribute { class: "researcher".into(), attribute: "homePage".into() };
        let evolved = evolution::evolve(&schema, &step, live.instance()).unwrap();
        let dsl = print_schema(&evolved, None);
        live.apply(Op::Schema { schema: &evolved, dsl: &dsl, local: false, global: None }).unwrap();

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
        live.apply(Op::Tx { tx: &tx, global: None }).unwrap();

        let text = mem.take();
        let journal = Journal::parse(&text);
        assert!(!journal.truncated, "{journal:?}");
        assert_eq!(journal.committed().count(), 3);
        let jschema = journal.txs[1].schema.as_ref().expect("schema payload");
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
        let id = w.begin_schema(&dsl, true, Some((9, 4)));
        w.commit(id);
        let j = Journal::parse(&w.take_pending());
        let jtx = &j.txs[0];
        assert_eq!(jtx.gid, Some(9));
        assert_eq!(jtx.peers, Some(4));
        let s = jtx.schema.as_ref().unwrap();
        assert!(s.local);
        assert_eq!(
            schema_hash(&s.engine_schema().unwrap()),
            schema_hash(&evolved.without_required_classes())
        );
        assert_eq!(schema_hash(&s.full_schema().unwrap()), schema_hash(&evolved));
    }

    #[test]
    fn torn_schema_records_are_discarded() {
        let mut writer = JournalWriter::new();
        let id = writer.begin_schema("class person extends top\n  require uid\n", false, None);
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
        // A schema record never mixes into an op transaction.
        let (_, ids) = white_pages_instance();
        let mut tx = Transaction::new();
        tx.insert_under(ids.databases, researcher("zoe"));
        let mut mixed = JournalWriter::new();
        let tx_id = mixed.begin(&tx);
        let mut schema_rec = String::new();
        // Hand-build a schema record inside the open op transaction.
        schema_rec.push_str("dn: op=2,cn=journal\n");
        schema_rec.push_str(&format!("jrntype: schema\njrntx: {tx_id}\njrnop: 0\n"));
        schema_rec.push_str("jrnschema: class x extends top\njrndone: 2\n\n");
        let mut text = mixed.take_pending();
        text.push_str(&schema_rec);
        assert!(Journal::parse(&text).truncated, "schema record after ops is damage");
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
