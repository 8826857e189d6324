//! [`ManagedDirectory`]: a directory that *enforces* its bounding-schema,
//! and the one write path every update runs through.
//!
//! This is the downstream-user API the paper's machinery adds up to: a
//! schema-checked directory server core. Construction verifies the schema
//! is consistent (§5 — a schema nothing can satisfy is rejected up front);
//! every update is checked with the incremental §4 machinery — a
//! transaction on the instance and its ∆D alone, before anything is
//! copied — and only a legal one is applied, atomically, to a
//! structurally shared copy of the instance that is then swapped in.
//!
//! The directory also owns its journal: a [`JournalWriter`] encodes the
//! records and an optional [`JournalSink`] makes them durable, so the
//! write-ahead discipline is a property of the type, not a convention per
//! call site. [`ManagedDirectory::apply_all`] is the one driver of a
//! write, to one directory or many: on every directory it runs the
//! operation to a legal verdict and builds the successor on a
//! structurally shared copy (`certify`) and flushes the begin records
//! (`begin`); then it flushes
//! every commit record (`commit`), and only then swaps every copy in
//! (`install`). Each step consumes the previous step's token and all four
//! are private to this module, so the live state never changes before its
//! begin record is durable and a refused operation writes nothing at all.
//! [`apply_op`](ManagedDirectory::apply_op) is the one-directory case, and
//! every mutator ([`apply`](ManagedDirectory::apply),
//! [`insert_under`](ManagedDirectory::insert_under),
//! [`modify_entry`](ManagedDirectory::modify_entry), …) runs it. A
//! cross-shard 2-phase apply and an all-shard schema cutover are the
//! many-directory case — Theorem 4.1 makes either the one-directory
//! update run on each shard — and since nothing is installed anywhere
//! before every commit flushed, neither keeps a pre-image. Without a sink
//! nothing is journalled at all.
//!
//! The probe is an argument, never state: every write entry takes the
//! `&dyn Probe` its checks, spans and fault sites report to, the way
//! every checker does. DESIGN.md §16.

use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bschema_directory::{AttributeRegistry, DirectoryInstance, Dn, Entry, EntryId};
use bschema_obs::{names, scoped, Probe, NO_SPAN};
use bschema_query::{evaluate, EvalContext, Query};

use crate::consistency::ConsistencyChecker;
use crate::engine::{append_sync, JournalSink, Op, SITE_COMMIT_IO_ERROR, SITE_SCHEMA_CUTOVER};
use crate::journal::{JournalTx, JournalWriter, Payload};
use crate::legality::{LegalityReport, Violation};
use crate::schema::DirectorySchema;
use crate::updates::{
    apply_mods, check_modification, prepare_probed, verdict, Mod, Transaction, TxError,
};

/// Errors from managed-directory operations.
#[derive(Debug)]
pub enum ManagedError {
    /// The schema admits no legal instance; the payload is the ◇∅
    /// derivation trace.
    InconsistentSchema(String),
    /// A supplied initial instance was not legal.
    IllegalInstance(LegalityReport),
    /// The transaction was structurally invalid (bad refs, orphaning
    /// deletes, ...).
    Transaction(TxError),
    /// Applying the transaction would leave the directory illegal; it was
    /// rolled back.
    RolledBack(LegalityReport),
    /// The engine panicked mid-transaction (e.g. an injected fault); the
    /// copy it was running on was dropped, so the directory is unchanged
    /// and still legal.
    Panicked {
        /// The panic payload, when it carried a message.
        reason: String,
    },
    /// An internal invariant failed in a way the engine could report
    /// without panicking; the transaction was rolled back.
    Internal(String),
    /// Journal recovery could not replay a committed transaction — the
    /// journal disagrees with the base instance it is replayed onto.
    Recovery(String),
    /// The write-ahead records could not be made durable, so the
    /// operation was refused before anything changed.
    Io(String),
    /// The journal or its checkpoint sibling could not be read or its
    /// torn tail cut off, so nothing was opened.
    Open(String),
    /// A MODIFY named an entry that does not exist.
    NoSuchEntry {
        /// The target DN as given.
        dn: String,
    },
}

impl fmt::Display for ManagedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManagedError::InconsistentSchema(proof) => {
                write!(f, "schema is inconsistent (admits no legal instance):\n{proof}")
            }
            ManagedError::IllegalInstance(report) => {
                write!(f, "initial instance is illegal:\n{report}")
            }
            ManagedError::Transaction(e) => write!(f, "invalid transaction: {e}"),
            ManagedError::RolledBack(report) => {
                write!(f, "transaction rolled back; it would violate the schema:\n{report}")
            }
            ManagedError::Panicked { reason } => {
                write!(f, "transaction rolled back after a mid-apply panic: {reason}")
            }
            ManagedError::Internal(detail) => {
                write!(f, "transaction rolled back after an internal error: {detail}")
            }
            ManagedError::Recovery(detail) => write!(f, "journal recovery failed: {detail}"),
            ManagedError::Io(detail) => write!(f, "transaction refused, nothing changed: {detail}"),
            ManagedError::Open(detail) => f.write_str(detail),
            ManagedError::NoSuchEntry { dn } => write!(f, "no entry named {dn}"),
        }
    }
}

impl ManagedError {
    /// A stable machine-readable code naming the error variant — the one
    /// place an engine code is spelled. The wire server sends it as the
    /// first token of an `ERR` response so clients can dispatch without
    /// parsing prose, whichever backend refused.
    pub fn code(&self) -> &'static str {
        match self {
            ManagedError::InconsistentSchema(_) => "inconsistent-schema",
            ManagedError::IllegalInstance(_) => "illegal-instance",
            ManagedError::Transaction(_) => "invalid-tx",
            ManagedError::RolledBack(_) => "rolled-back",
            ManagedError::Panicked { .. } => "panicked",
            ManagedError::Internal(_) => "internal",
            ManagedError::Recovery(_) => "recovery",
            ManagedError::Io(_) | ManagedError::Open(_) => "io",
            ManagedError::NoSuchEntry { .. } => "no-such-entry",
        }
    }
}

impl std::error::Error for ManagedError {}

impl From<TxError> for ManagedError {
    fn from(e: TxError) -> Self {
        ManagedError::Transaction(e)
    }
}

/// Records the diagnostics of a rolled-back transaction, so a failed
/// transaction still surfaces the violation set that caused the rollback
/// instead of silently dropping it with the rejected state.
fn record_rollback(probe: &dyn Probe, report: &LegalityReport) {
    if !probe.enabled() {
        return;
    }
    probe.add("managed.tx_rolled_back", 1);
    probe.observe("managed.rollback_violations", report.violations().len() as u64);
    for v in report.violations() {
        probe.add_labeled("managed.rollback_violation", v.kind_name(), 1);
    }
}

/// Extracts a human-readable reason from a caught panic payload.
fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs probe-recording code that must never decide an outcome: a fault
/// injected *inside the probe itself* (or any buggy probe impl) is caught
/// and surfaced as the panic reason instead of unwinding out of the
/// apply.
fn guard_probe(f: impl FnOnce()) -> Option<String> {
    catch_unwind(AssertUnwindSafe(f)).err().map(|payload| panic_reason(payload.as_ref()))
}

/// Runs `f`, a panic in it — a fault injected at an instrumented site —
/// coming back as the refusal [`ManagedError::Panicked`], as a panic
/// inside [`ManagedDirectory::apply_op`] does.
pub(crate) fn refusing_panics<T>(
    f: impl FnOnce() -> Result<T, ManagedError>,
) -> Result<T, ManagedError> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(ManagedError::Panicked { reason: panic_reason(payload.as_ref()) })
    })
}

/// The verdict on an operation that could not be carried out on `entry`.
fn inapplicable(entry: EntryId, message: String) -> LegalityReport {
    LegalityReport::from_violations(vec![crate::legality::Violation::ValueViolation {
        entry,
        message,
    }])
}

/// Maps an inconsistent consistency-check result to a structured error:
/// a present ◇∅ derivation is the proof, a missing one is an engine bug
/// and says so instead of degrading to an empty string.
pub(crate) fn inconsistency_error(result: &crate::consistency::ConsistencyResult) -> ManagedError {
    match result.explain_inconsistency() {
        Some(proof) => ManagedError::InconsistentSchema(proof),
        None => ManagedError::Internal(
            "consistency checker flagged the schema inconsistent but produced no ◇∅ derivation"
                .to_owned(),
        ),
    }
}

/// A certified successor state, not installed yet: the instance an
/// operation left on its structurally shared copy (already in the `Arc`
/// it is published in), or the consistent schema a cutover swaps to.
/// Exists only after a legal verdict.
#[derive(Debug)]
enum Successor {
    Instance(Arc<DirectoryInstance>),
    Schema(Box<DirectorySchema>),
}

/// An operation certified legal, its successor built; neither the
/// journal nor the live state has seen it.
#[derive(Debug)]
#[must_use = "begin it, or drop it: nothing was written and nothing changed"]
struct Certified<'a> {
    op: Op<'a>,
    next: Successor,
}

/// A certified operation whose write-ahead records are durable.
#[derive(Debug)]
#[must_use = "commit it, or drop it as an aborted journal tail"]
struct Begun {
    next: Successor,
    tx_id: Option<u64>,
}

/// A begun operation whose commit record went to the journal.
#[derive(Debug)]
#[must_use = "a committed operation must be installed"]
struct Committed(Successor);

/// A bounding-schema-enforcing directory, its journal writer and
/// (optionally) the sink that makes the journal durable. See the module
/// docs.
pub struct ManagedDirectory {
    schema: DirectorySchema,
    /// The live version. Shared, not owned: whoever publishes it to
    /// readers clones the `Arc`, and an operation forks its copy from it.
    /// Legal but possibly for `◇c` — the one §3 element an empty or
    /// recovering base can miss, and the one a write's verdict counts.
    dir: Arc<DirectoryInstance>,
    /// Encodes every operation's journal records; a recovered directory's
    /// writer continues the recovered journal's numbering.
    writer: JournalWriter,
    /// Makes the records durable. Without one nothing is journalled.
    sink: Option<JournalSink>,
    /// The journal file behind `sink`, when there is one — where
    /// [`checkpoint`](ManagedDirectory::checkpoint) finds its files.
    path: Option<PathBuf>,
}

impl Clone for ManagedDirectory {
    /// The state and the journal cursor, without the journal attachment:
    /// a clone journals nothing until it is given a sink of its own.
    fn clone(&self) -> Self {
        ManagedDirectory {
            schema: self.schema.clone(),
            dir: Arc::clone(&self.dir),
            writer: self.writer.clone(),
            sink: None,
            path: None,
        }
    }
}

impl fmt::Debug for ManagedDirectory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ManagedDirectory")
            .field("entries", &self.dir.len())
            .field("writer", &self.writer)
            .field("journaled", &self.sink.is_some())
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl ManagedDirectory {
    /// Creates an empty managed directory after verifying schema
    /// consistency. Note an empty instance is itself illegal when the
    /// schema has required classes (`◇c`); only a transaction that
    /// populates them is accepted, decided like any other by the counts.
    pub fn new(schema: DirectorySchema, registry: AttributeRegistry) -> Result<Self, ManagedError> {
        Self::for_recovery(schema, DirectoryInstance::new(registry))
    }

    /// Wraps an existing instance, verifying schema consistency and
    /// instance legality.
    pub fn with_instance(
        schema: DirectorySchema,
        dir: DirectoryInstance,
    ) -> Result<Self, ManagedError> {
        match Self::checked(schema, dir)? {
            (managed, report) if report.is_legal() => Ok(managed),
            (_, report) => Err(ManagedError::IllegalInstance(report)),
        }
    }

    /// Wraps an existing instance for journal recovery: schema consistency
    /// is still mandatory, and the base may miss a required class (e.g.
    /// an empty directory whose journal bootstraps the required classes)
    /// like [`new`](ManagedDirectory::new)'s, but nothing else.
    pub(crate) fn for_recovery(
        schema: DirectorySchema,
        dir: DirectoryInstance,
    ) -> Result<Self, ManagedError> {
        Self::checked(schema, dir).map(|(managed, _)| managed)
    }

    /// The one constructor: consistency closure, `prepare()`, and the one
    /// full §3 check this type runs. An instance is accepted if it is
    /// legal but possibly for `◇c`, which every write then decides by
    /// counts; any other violation refuses it.
    fn checked(
        schema: DirectorySchema,
        mut dir: DirectoryInstance,
    ) -> Result<(Self, LegalityReport), ManagedError> {
        let result = ConsistencyChecker::new(&schema).check();
        if !result.is_consistent() {
            return Err(inconsistency_error(&result));
        }
        dir.prepare();
        let report = crate::legality::LegalityChecker::new(&schema).check(&dir);
        let only_counts = |v: &Violation| matches!(v, Violation::MissingRequiredClass { .. });
        if !report.violations().iter().all(only_counts) {
            return Err(ManagedError::IllegalInstance(report));
        }
        let managed = ManagedDirectory {
            schema,
            dir: Arc::new(dir),
            writer: JournalWriter::new(),
            sink: None,
            path: None,
        };
        Ok((managed, report))
    }

    /// Continues the journal `writer` is positioned in — what a recovery
    /// hands its directory.
    pub(crate) fn with_writer(mut self, writer: JournalWriter) -> Self {
        self.writer = writer;
        self
    }

    /// Qualifies every record DN with `shard=<k>`.
    pub(crate) fn with_shard(mut self, shard: usize) -> Self {
        self.writer = self.writer.with_shard(shard);
        self
    }

    /// Installs the durability sink; from here on every operation is
    /// journalled write-ahead.
    pub fn set_sink(&mut self, sink: JournalSink) {
        self.sink = Some(sink);
    }

    /// Journals to the file at `path`, one [`append_sync`] per flush.
    pub fn attach_file(&mut self, path: PathBuf) {
        let target = path.clone();
        self.set_sink(Box::new(move |text: &str| append_sync(&target, text)));
        self.path = Some(path);
    }

    /// The journal file, when this directory appends to one.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// The journal writer: its cursor is what a checkpoint covers.
    pub(crate) fn writer(&self) -> &JournalWriter {
        &self.writer
    }

    /// Journal growth `(records, bytes)`: the journal's length in
    /// records (replayed history included) and the bytes this process
    /// appended. `(0, 0)` for a directory that never journalled.
    pub fn journal_stats(&self) -> (u64, u64) {
        (self.writer.records_emitted(), self.writer.bytes_emitted())
    }

    /// Unwraps into the enforced schema and the instance, dropping the
    /// journal attachment.
    pub fn into_parts(self) -> (DirectorySchema, DirectoryInstance) {
        (self.schema, Arc::unwrap_or_clone(self.dir))
    }

    /// The schema being enforced.
    pub fn schema(&self) -> &DirectorySchema {
        &self.schema
    }

    /// Read access to the underlying instance.
    pub fn instance(&self) -> &DirectoryInstance {
        &self.dir
    }

    /// The live version itself, for a holder that outlives the next
    /// install — a reader's snapshot is this `Arc`, not a copy of it.
    pub fn shared_instance(&self) -> Arc<DirectoryInstance> {
        Arc::clone(&self.dir)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.dir.len()
    }

    /// True when the directory has no entries.
    pub fn is_empty(&self) -> bool {
        self.dir.is_empty()
    }

    /// Whether the current contents satisfy the schema: whether every
    /// required class has a member, the index says. `false` until a
    /// transaction populates the `◇c` requirements an empty or
    /// recovering base left unmet.
    pub fn is_legal(&self) -> bool {
        let (classes, index) = (self.schema.classes(), self.dir.index());
        self.schema.structure().required_classes().all(|c| index.class_count(classes.name(c)) > 0)
    }

    /// Evaluates a hierarchical selection query against the directory.
    pub fn query(&self, query: &Query) -> Vec<EntryId> {
        evaluate(&EvalContext::new(&self.dir), query)
    }

    /// Applies `tx` atomically: if the resulting directory would be
    /// illegal, no change is made and the violations are returned. Runs
    /// [`apply_op`](Self::apply_op) unprobed; a commit flush that fails
    /// after the verdict is only reported there.
    pub fn apply(&mut self, tx: &Transaction) -> Result<(), ManagedError> {
        self.apply_op(Op::Tx { tx, global: None }, bschema_obs::noop()).map(|_counted| ())
    }

    /// Single-insert convenience (one-op transaction).
    pub fn insert_under(&mut self, parent: EntryId, entry: Entry) -> Result<EntryId, ManagedError> {
        self.insert_one(Some(parent), entry)
    }

    /// Single root-insert convenience.
    pub fn insert_root(&mut self, entry: Entry) -> Result<EntryId, ManagedError> {
        self.insert_one(None, entry)
    }

    /// Inserts `entry` under `parent` (a root when `None`) and returns
    /// its slot: the one sibling live now that was not live before.
    fn insert_one(
        &mut self,
        parent: Option<EntryId>,
        entry: Entry,
    ) -> Result<EntryId, ManagedError> {
        let mut tx = Transaction::new();
        match parent {
            Some(parent) => tx.insert_under(parent, entry),
            None => tx.insert_root(entry),
        };
        let before = self.shared_instance();
        self.apply(&tx)?;
        let forest = self.dir.forest();
        let mut siblings = match parent {
            Some(parent) => forest.children(parent),
            None => forest.roots(),
        };
        siblings.find(|&id| !before.contains(id)).ok_or_else(|| {
            ManagedError::Internal("single-insert transaction produced no root".to_owned())
        })
    }

    /// Single subtree-delete convenience: deletes `target` and its whole
    /// subtree in one transaction.
    pub fn delete_subtree(&mut self, target: EntryId) -> Result<(), ManagedError> {
        let mut tx = Transaction::new();
        // Delete bottom-up so the transaction is a valid leaf-delete
        // sequence.
        for id in self.dir.forest().postorder_of(target) {
            tx.delete(id);
        }
        self.apply(&tx)
    }

    /// The entry named `dn`, or [`ManagedError::NoSuchEntry`]: how a
    /// MODIFY finds its target on either backend.
    pub fn lookup(&self, dn: &Dn) -> Result<EntryId, ManagedError> {
        self.dir.lookup_dn(dn).ok_or_else(|| ManagedError::NoSuchEntry { dn: dn.to_string() })
    }

    /// Modifies one entry's attributes (LDAP Modify), atomically: no
    /// change is made if the result would be illegal. Unprobed, like
    /// [`apply`](Self::apply).
    pub fn modify_entry(&mut self, target: EntryId, mods: &[Mod]) -> Result<(), ManagedError> {
        self.apply_op(Op::Modify { target, mods }, bschema_obs::noop()).map(|_counted| ())
    }

    /// The write-ahead sequence on this one directory, every site going
    /// to `probe` — the one-directory case of the crate's one write
    /// driver, [`apply_all`](Self::apply_all). A panic anywhere in it
    /// comes back as [`ManagedError::Panicked`] with nothing installed.
    /// `Ok` carries the commit flush's own result: the verdict stands
    /// either way.
    pub fn apply_op(
        &mut self,
        op: Op<'_>,
        probe: &dyn Probe,
    ) -> Result<io::Result<()>, ManagedError> {
        Self::apply_all(&mut [(self, op)], probe)
    }

    /// The one driver of a write: the write-ahead sequence over `parts`,
    /// each a directory and its share of the write, with every site —
    /// the sequence's own and each part's checks and flushes — going to
    /// `probe` (a router's, for a 2-phase apply).
    ///
    /// Every part is certified and begun; once all are, every part
    /// commits; then every part is installed. An op stamped `(gid, peers)`
    /// visits `sharded.prepare.shard<k>` before each certify,
    /// `sharded.prepared` after the last begin and
    /// `sharded.commit.shard<k>` before each commit, `k` being the part's
    /// journal shard; an `Op::Schema` visits [`SITE_SCHEMA_CUTOVER`]
    /// between the begins and the commits. An `Err` or a panic before the
    /// installs drops every token, so no directory's live state moved,
    /// and comes back as an `Err` (a panic as [`ManagedError::Panicked`]);
    /// a stamped op then visits `sharded.rollback`, itself panic-guarded.
    /// `Ok` carries the first failed commit flush, counted at
    /// [`SITE_COMMIT_IO_ERROR`]: the verdict stands either way.
    pub(crate) fn apply_all(
        parts: &mut [(&mut ManagedDirectory, Op<'_>)],
        probe: &dyn Probe,
    ) -> Result<io::Result<()>, ManagedError> {
        let global = parts.first().is_some_and(|(_, op)| op.global().is_some());
        let shard = |engine: &ManagedDirectory| names::shard(engine.writer.shard().unwrap_or(0));
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let mut begun = Vec::with_capacity(parts.len());
            for (engine, op) in parts.iter_mut() {
                if global {
                    probe.add_labeled(names::SHARD_PREPARE, &shard(engine), 1);
                }
                let certified = engine.certify(*op, probe)?;
                begun.push(engine.begin(certified, probe)?);
            }
            if global {
                probe.add(names::PREPARED, 1);
            }
            if let Some((_, Op::Schema { .. })) = parts.first() {
                probe.add(SITE_SCHEMA_CUTOVER, 1);
            }
            let mut committed = Vec::with_capacity(parts.len());
            let mut flushed = Ok(());
            for ((engine, _), begun) in parts.iter_mut().zip(begun) {
                if global {
                    probe.add_labeled(names::SHARD_COMMIT, &shard(engine), 1);
                }
                let (token, result) = engine.commit(begun, probe);
                committed.push(token);
                flushed = flushed.and(result);
            }
            Ok((committed, flushed))
        }));
        let refusal = match attempt {
            Ok(Ok((committed, flushed))) => {
                for ((engine, _), Committed(next)) in parts.iter_mut().zip(committed) {
                    engine.install(next);
                }
                return Ok(flushed);
            }
            Ok(Err(e)) => e,
            Err(payload) => ManagedError::Panicked { reason: panic_reason(payload.as_ref()) },
        };
        if global {
            // The rollback site is itself a chaos target: an injected
            // panic there must not escape the apply.
            let _ = catch_unwind(AssertUnwindSafe(|| probe.add(names::ROLLBACK, 1)));
        }
        Err(refusal)
    }

    /// Re-applies one journal transaction without journalling it again —
    /// steps 1 and 4 on the decoded op: recovery's replay step and a
    /// follower's apply of a shipped record.
    pub fn replay(&mut self, jtx: &JournalTx, probe: &dyn Probe) -> Result<(), ManagedError> {
        let evolved;
        let op = match &jtx.payload {
            Payload::Tx(tx) => Op::Tx { tx, global: None },
            Payload::Modify(m) => Op::Modify { target: m.target, mods: &m.mods },
            Payload::Schema(s) => {
                evolved = s.engine_schema().map_err(ManagedError::Recovery)?;
                Op::Schema { schema: &evolved, dsl: &s.dsl, local: s.local, global: None }
            }
        };
        let certified = self.certify(op, probe)?;
        self.install(certified.next);
        Ok(())
    }

    /// Step 1: runs `op` to a legal verdict and builds its successor on a
    /// structurally shared copy of the instance. On `Err` — an illegal
    /// verdict, a typed error, a panic — there is no record, no mutation.
    fn certify<'a>(&self, op: Op<'a>, probe: &dyn Probe) -> Result<Certified<'a>, ManagedError> {
        let next = match op {
            Op::Tx { tx, .. } => self.certify_tx(tx, probe)?,
            Op::Modify { target, mods } => self.certify_modify(target, mods, probe)?,
            Op::Schema { schema, .. } => certify_schema(schema.clone())?,
        };
        Ok(Certified { op, next })
    }

    /// Step 2, in a `journal.begin` span: encodes the begin + payload
    /// records of the certified operation and flushes them through the
    /// sink. On `Err` nothing was mutated. Without a sink this journals
    /// nothing.
    fn begin(
        &mut self,
        certified: Certified<'_>,
        probe: &dyn Probe,
    ) -> Result<Begun, ManagedError> {
        let Certified { op, next } = certified;
        let (writer, sink) = (&mut self.writer, &mut self.sink);
        let tx_id = scoped(probe, "journal.begin", || {
            let Some(sink) = sink else { return Ok(None) };
            let id = writer.begin_op(&op);
            sink(&writer.take_pending()).map(|()| Some(id))
        })
        .map_err(|e| {
            let shard = self.writer.shard().map_or_else(String::new, |k| format!("shard {k} "));
            ManagedError::Io(format!("{shard}journal begin flush: {e}"))
        })?;
        Ok(Begun { next, tx_id })
    }

    /// Step 3, in a `journal.commit` span: encodes and flushes the commit
    /// record. A flush failure does not revoke the verdict, so the token
    /// comes back either way: the error is counted at
    /// [`SITE_COMMIT_IO_ERROR`] on `probe` and returned for callers that
    /// report it too.
    fn commit(&mut self, begun: Begun, probe: &dyn Probe) -> (Committed, io::Result<()>) {
        let (writer, sink) = (&mut self.writer, &mut self.sink);
        let flushed = scoped(probe, "journal.commit", || match (begun.tx_id, sink) {
            (Some(id), Some(sink)) => {
                writer.commit(id);
                sink(&writer.take_pending())
            }
            _ => Ok(()),
        });
        if flushed.is_err() {
            probe.add(SITE_COMMIT_IO_ERROR, 1);
        }
        (Committed(begun.next), flushed)
    }

    /// Step 4: makes a certified successor the live state. Infallible: a
    /// swap.
    fn install(&mut self, next: Successor) {
        match next {
            Successor::Instance(dir) => self.dir = dir,
            Successor::Schema(schema) => self.schema = *schema,
        }
    }

    /// The crash-consistency core of step 1.
    ///
    /// `body` runs the operation to a verdict under `catch_unwind` and
    /// returns the certified successor, built by [`fork`](Self::fork) on
    /// a structurally shared copy of the instance — a clone shares every
    /// chunk the operation does not write. A structurally invalid
    /// transaction, an illegal verdict ([`ManagedError::RolledBack`]), a
    /// typed internal error or a panic at any instrumented site comes
    /// back as the refusal, and whatever copy there was is dropped. The
    /// live instance is not touched either way, so nothing can be
    /// half-applied and there is nothing to restore. Rollback diagnostics
    /// are recorded through `probe` before the `managed.apply` span
    /// closes, and recording itself is panic-guarded: instrumentation
    /// never decides an outcome.
    fn guarded(
        &self,
        probe: &dyn Probe,
        body: impl FnOnce() -> Result<DirectoryInstance, ManagedError>,
    ) -> Result<Successor, ManagedError> {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let span = probe.span_start(NO_SPAN, "managed.apply", 0);
            (span, body())
        }));
        let (span, refusal) = match outcome {
            Ok((span, Ok(next))) => {
                let _ = guard_probe(|| {
                    if probe.enabled() {
                        probe.add("managed.tx_applied", 1);
                    }
                    probe.span_end(span);
                });
                return Ok(Successor::Instance(Arc::new(next)));
            }
            Ok((span, Err(e))) => (Some(span), e),
            // The span stays open — the tracer renders unclosed spans
            // explicitly, mirroring how the trace of a real crash ends.
            Err(payload) => {
                (None, ManagedError::Panicked { reason: panic_reason(payload.as_ref()) })
            }
        };
        let probe_fault = guard_probe(|| match &refusal {
            ManagedError::RolledBack(report) => record_rollback(probe, report),
            ManagedError::Transaction(_) if probe.enabled() => probe.add("managed.tx_invalid", 1),
            ManagedError::Panicked { .. } if probe.enabled() => {
                probe.add("managed.tx_panicked", 1);
                probe.add_labeled("managed.rollback_reason", "panic", 1);
            }
            _ => {}
        });
        if let Some(span) = span {
            let _ = guard_probe(|| probe.span_end(span));
        }
        Err(match probe_fault {
            Some(reason) => ManagedError::Panicked { reason },
            None => refusal,
        })
    }

    /// The successor state: a structurally shared copy of the live
    /// instance, edited by `edit` and prepared — the one place an
    /// operation copies the instance, counted as
    /// [`names::INSTANCE_CLONED`].
    fn fork(
        &self,
        probe: &dyn Probe,
        edit: impl FnOnce(&mut DirectoryInstance) -> Result<(), ManagedError>,
    ) -> Result<DirectoryInstance, ManagedError> {
        let mut next = DirectoryInstance::clone(&self.dir);
        if probe.enabled() {
            probe.add(names::INSTANCE_CLONED, 1);
        }
        edit(&mut next)?;
        prepare_probed(&mut next, probe);
        Ok(next)
    }

    /// Runs `tx` to a verdict without touching the live state. D is
    /// legal but possibly for `◇c`: the verdict is Theorem 4.1 + Figure
    /// 5′ on (D, ∆D) with `◇c` counted, and only a legal one copies the
    /// instance and applies `tx` to the copy — with the ids the verdict
    /// named, or it is an engine bug.
    fn certify_tx(&self, tx: &Transaction, probe: &dyn Probe) -> Result<Successor, ManagedError> {
        self.guarded(probe, || {
            let normalized = tx.normalize(&self.dir)?;
            legal(verdict(&self.schema, &self.dir, &normalized, probe)?)?;
            let named: Vec<EntryId> = self.dir.next_ids(normalized.inserted()).collect();
            self.fork(probe, |dir| {
                let internal = |detail: String| {
                    ManagedError::Internal(format!("applying a certified transaction: {detail}"))
                };
                let ids = normalized.apply(dir).map_err(|e| internal(e.to_string()))?;
                if ids != named {
                    return Err(internal(format!("it took ids {ids:?}, certified as {named:?}")));
                }
                Ok(())
            })
        })
    }

    /// Runs an LDAP Modify of `target` to a verdict without touching the
    /// live state: applied to a copy, then checked there.
    fn certify_modify(
        &self,
        target: EntryId,
        mods: &[Mod],
        probe: &dyn Probe,
    ) -> Result<Successor, ManagedError> {
        self.guarded(probe, || {
            let mut changed = std::collections::BTreeSet::new();
            let next = self.fork(probe, |dir| {
                changed = apply_mods(dir, target, mods).ok_or_else(|| {
                    ManagedError::RolledBack(inapplicable(target, "no such entry".to_owned()))
                })?;
                Ok(())
            })?;
            legal(check_modification(&self.schema, &next, target, &changed, probe))?;
            Ok(next)
        })
    }
}

/// An illegal verdict as the refusal it is.
fn legal(report: LegalityReport) -> Result<(), ManagedError> {
    if report.is_legal() {
        Ok(())
    } else {
        Err(ManagedError::RolledBack(report))
    }
}

/// The certify step of a schema cutover: only the Figures 6–7
/// consistency closure runs here; the caller attests the instance was
/// already verified legal under `schema` (the evolution plane's targeted
/// recheck, or a journalled cutover record that was only committed after
/// one), on the same trust basis as journal replay trusting committed
/// transactions.
fn certify_schema(schema: DirectorySchema) -> Result<Successor, ManagedError> {
    let result = ConsistencyChecker::new(&schema).check();
    if !result.is_consistent() {
        return Err(inconsistency_error(&result));
    }
    Ok(Successor::Schema(Box::new(schema)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::recover_with_checkpoint;
    use crate::engine::MemoryJournal;
    use crate::journal::Journal;
    use crate::paper::{white_pages_instance, white_pages_schema};
    use crate::schema::RelKind;
    use bschema_obs::noop;

    fn researcher(uid: &str) -> Entry {
        Entry::builder()
            .classes(["researcher", "person", "top"])
            .attr("uid", uid)
            .attr("name", uid)
            .build()
    }

    #[test]
    fn wraps_legal_instance() {
        let (dir, ids) = white_pages_instance();
        let mut managed = ManagedDirectory::with_instance(white_pages_schema(), dir).unwrap();
        assert!(managed.is_legal());
        assert_eq!(managed.len(), 6);
        // Legal insert goes through.
        let new = managed.insert_under(ids.databases, researcher("milo")).unwrap();
        assert_eq!(managed.len(), 7);
        assert!(managed.instance().contains(new));
    }

    #[test]
    fn rejects_inconsistent_schema() {
        let schema = DirectorySchema::builder()
            .core_class("a", "top")
            .and_then(|b| b.core_class("b", "top"))
            .and_then(|b| b.require_class("a"))
            .and_then(|b| b.require_rel("a", RelKind::Child, "b"))
            .and_then(|b| b.require_rel("b", RelKind::Descendant, "a"))
            .map(|b| b.build())
            .unwrap();
        let err = ManagedDirectory::new(schema, AttributeRegistry::new()).unwrap_err();
        assert!(matches!(err, ManagedError::InconsistentSchema(_)));
        assert!(err.to_string().contains("◇∅"));
    }

    #[test]
    fn rejects_illegal_instance() {
        let (mut dir, ids) = white_pages_instance();
        dir.entry_mut(ids.suciu).unwrap().remove_attribute("name");
        dir.prepare();
        let err = ManagedDirectory::with_instance(white_pages_schema(), dir).unwrap_err();
        assert!(matches!(err, ManagedError::IllegalInstance(_)));
    }

    #[test]
    fn illegal_transaction_rolls_back() {
        let (dir, ids) = white_pages_instance();
        let mut managed = ManagedDirectory::with_instance(white_pages_schema(), dir).unwrap();
        let err = managed
            .insert_under(
                ids.suciu,
                Entry::builder().classes(["orgUnit", "orgGroup", "top"]).attr("ou", "x").build(),
            )
            .unwrap_err();
        assert!(matches!(err, ManagedError::RolledBack(_)));
        assert_eq!(managed.len(), 6, "rollback must restore the instance");
        assert!(managed.is_legal());
    }

    #[test]
    fn delete_subtree_checks_legality() {
        let (dir, ids) = white_pages_instance();
        let mut managed = ManagedDirectory::with_instance(white_pages_schema(), dir).unwrap();
        // Deleting the whole databases unit removes laks & suciu but keeps
        // armstrong: attLabs still has a person descendant. Legal.
        managed.delete_subtree(ids.databases).unwrap();
        assert_eq!(managed.len(), 3);
        // Deleting armstrong now would leave attLabs with no person
        // descendant (and ◇person unmet): rolled back.
        let err = managed.delete_subtree(ids.armstrong).unwrap_err();
        assert!(matches!(err, ManagedError::RolledBack(_)));
        assert_eq!(managed.len(), 3);
    }

    #[test]
    fn bootstrap_from_empty() {
        // Schema with ◇a: the empty directory is illegal, but a transaction
        // creating an `a` entry fixes it.
        let schema = DirectorySchema::builder()
            .core_class("a", "top")
            .and_then(|b| b.require_class("a"))
            .map(|b| b.build())
            .unwrap();
        let mut managed = ManagedDirectory::new(schema, AttributeRegistry::new()).unwrap();
        assert!(!managed.is_legal());
        // An unrelated insert that leaves ◇a unmet is rejected.
        let err = managed.insert_root(Entry::builder().class("top").build()).unwrap_err();
        assert!(matches!(err, ManagedError::RolledBack(_)));
        // Adding the required entry succeeds.
        managed.insert_root(Entry::builder().classes(["a", "top"]).build()).unwrap();
        assert!(managed.is_legal());
    }

    #[test]
    fn modify_entry_enforces_schema() {
        use crate::updates::Mod;
        let (dir, ids) = white_pages_instance();
        let mut managed = ManagedDirectory::with_instance(white_pages_schema(), dir).unwrap();
        // Legal modification.
        managed
            .modify_entry(
                ids.suciu,
                &[Mod::Add { attribute: "title".into(), value: "researcher".into() }],
            )
            .unwrap();
        // Illegal: dropping a required attribute rolls back.
        let err = managed
            .modify_entry(ids.suciu, &[Mod::DeleteAttribute { attribute: "name".into() }])
            .unwrap_err();
        assert!(matches!(err, ManagedError::RolledBack(_)));
        assert!(managed.instance().entry(ids.suciu).unwrap().has_attribute("name"));
        assert!(managed.is_legal());
    }

    #[test]
    fn query_through_managed_api() {
        let (dir, _) = white_pages_instance();
        let managed = ManagedDirectory::with_instance(white_pages_schema(), dir).unwrap();
        let persons = managed.query(&Query::object_class("person"));
        assert_eq!(persons.len(), 3);
    }

    fn insert(parent: EntryId, classes: [&str; 3], attr: &str) -> Transaction {
        let mut tx = Transaction::new();
        tx.insert_under(
            parent,
            Entry::builder().classes(classes).attr(attr, "zoe").attr("name", "zoe").build(),
        );
        tx
    }

    #[test]
    fn begin_is_flushed_before_the_mutation_and_commit_only_after_the_verdict() {
        let (dir, ids) = white_pages_instance();
        let mut engine = ManagedDirectory::with_instance(white_pages_schema(), dir).expect("legal");
        let legal = insert(ids.databases, ["researcher", "person", "top"], "uid");

        // No sink: applies, journals nothing.
        let flushed = engine.apply_op(Op::Tx { tx: &legal, global: None }, noop()).expect("legal");
        flushed.expect("nothing to flush");
        assert_eq!((engine.len(), engine.journal_stats()), (7, (0, 0)));

        let mem = MemoryJournal::default();
        engine.set_sink(mem.sink());
        let legal = insert(ids.att_labs, ["researcher", "person", "top"], "uid");
        let certified = engine.certify(Op::Tx { tx: &legal, global: None }, noop()).expect("legal");
        assert_eq!(mem.take(), "", "the verdict writes no records");
        let begun = engine.begin(certified, noop()).expect("flushes");
        let text = mem.take();
        assert!(text.contains("jrntype: insert") && !text.contains("jrntype: commit"));
        let (Committed(next), flushed) = engine.commit(begun, noop());
        flushed.expect("flushes");
        assert!(mem.take().contains("jrntype: commit"));
        assert_eq!(engine.len(), 7, "the live state changes last");
        engine.install(next);
        assert_eq!(engine.len(), 8);

        // A rejected operation yields no token and reaches neither the
        // instance nor the journal.
        let illegal = insert(ids.suciu, ["orgUnit", "orgGroup", "top"], "ou");
        let before = (engine.instance().canonical_bytes(), engine.journal_stats());
        let err =
            engine.apply_op(Op::Tx { tx: &illegal, global: None }, noop()).expect_err("illegal");
        assert!(matches!(err, ManagedError::RolledBack(_)), "{err}");
        assert_eq!(mem.take(), "", "a refusal journals nothing");
        assert_eq!((engine.instance().canonical_bytes(), engine.journal_stats()), before);

        // A failed begin flush aborts before any mutation.
        engine.set_sink(Box::new(|_: &str| Err(io::Error::other("disk full"))));
        let before = engine.instance().canonical_bytes();
        let err =
            engine.apply_op(Op::Tx { tx: &legal, global: None }, noop()).expect_err("flush fails");
        assert_eq!(err.code(), "io", "{err}");
        assert!(err.to_string().contains("journal begin flush: disk full"), "{err}");
        assert_eq!(engine.instance().canonical_bytes(), before);
    }

    #[test]
    fn a_panic_at_either_flush_span_installs_nothing_and_the_next_probe_sees_the_apply() {
        use bschema_faults::{silence_injected_panics, FaultPlan};

        silence_injected_panics();
        let (dir, ids) = white_pages_instance();
        let own = bschema_obs::Recorder::new();
        let mut engine = ManagedDirectory::with_instance(white_pages_schema(), dir).expect("legal");
        let mem = MemoryJournal::default();
        engine.set_sink(mem.sink());
        let legal = insert(ids.databases, ["researcher", "person", "top"], "uid");
        let mut journal = String::new();
        for site in ["span:journal.begin", "span:journal.commit"] {
            let before = engine.instance().canonical_bytes();
            let trace = FaultPlan::fail_at_site(site, 0);
            let err = engine
                .apply_op(Op::Tx { tx: &legal, global: None }, &trace)
                .expect_err("injected panic");
            assert!(matches!(err, ManagedError::Panicked { .. }), "{site}: {err}");
            assert_eq!(trace.injected(), 1, "{site}");
            assert_eq!(engine.instance().canonical_bytes(), before, "{site}: installed");
            journal.push_str(&mem.take());
        }
        // The begin panic struck before any record was encoded; the
        // commit panic left one uncommitted transaction behind.
        assert_eq!(Journal::parse(&journal).txs.len(), 1);
        assert_eq!(Journal::parse(&journal).committed().count(), 0);

        // The faulting probes reached nothing else: the next apply reports
        // to the probe it is given, and only to it.
        let applied = || own.metrics().counter("managed.tx_applied");
        assert_eq!(applied(), 0);
        let flushed = engine.apply_op(Op::Tx { tx: &legal, global: None }, &own).expect("legal");
        flushed.expect("flushes");
        assert_eq!(applied(), 1);
        journal.push_str(&mem.take());
        assert_eq!(Journal::parse(&journal).committed().count(), 1);
    }

    /// Every mutator runs the one driver, so every one journals: the
    /// journal recovers onto the base as the live state, a refused call
    /// leaves the journal text as it was, and a clone journals nothing.
    #[test]
    fn every_mutator_journals_through_the_one_driver() {
        use crate::updates::Mod;
        let (dir, ids) = white_pages_instance();
        let base = dir.clone();
        let mut managed = ManagedDirectory::with_instance(white_pages_schema(), dir).unwrap();
        let mem = MemoryJournal::default();
        managed.set_sink(mem.sink());

        managed.apply(&insert(ids.databases, ["researcher", "person", "top"], "uid")).unwrap();
        let milo = managed.insert_under(ids.att_labs, researcher("milo")).unwrap();
        let root = managed.insert_root(Entry::builder().class("top").build()).unwrap();
        let title = [Mod::Add { attribute: "title".into(), value: "dr".into() }];
        managed.modify_entry(milo, &title).unwrap();
        managed.delete_subtree(root).unwrap();
        let journal = mem.take();
        assert_eq!(Journal::parse(&journal).committed().count(), 5, "{journal}");

        let organization =
            Entry::builder().classes(["organization", "orgGroup", "top"]).attr("o", "acme").build();
        let refusals = [
            managed.apply(&insert(ids.suciu, ["orgUnit", "orgGroup", "top"], "ou")),
            managed.insert_under(ids.suciu, researcher("kid")).map(drop),
            managed.insert_root(organization).map(drop),
            managed.modify_entry(milo, &[Mod::DeleteAttribute { attribute: "name".into() }]),
            managed.delete_subtree(ids.att),
        ];
        for refusal in refusals {
            assert!(matches!(refusal, Err(ManagedError::RolledBack(_))), "{refusal:?}");
        }
        assert_eq!(mem.take(), "", "a refused call leaves the journal text as it was");

        let mut clone = managed.clone();
        clone.insert_under(ids.att_labs, researcher("solo")).unwrap();
        assert_eq!(clone.len(), managed.len() + 1);
        assert_eq!(mem.take(), "", "a clone journals nothing");
        assert_eq!(clone.journal_stats(), managed.journal_stats());

        let recovered =
            recover_with_checkpoint(white_pages_schema(), base, None, &Journal::parse(&journal))
                .expect("the journal recovers");
        assert_eq!(recovered.report.replayed, 5);
        assert_eq!(
            recovered.managed.instance().canonical_bytes(),
            managed.instance().canonical_bytes()
        );
    }

    /// A recovery base may miss a required class, and nothing else: a
    /// base with a content violation is refused at open, and an empty one
    /// under `◇organization`, `◇orgUnit`, `◇person` replays the journal
    /// that populated it.
    #[test]
    fn recovery_accepts_a_base_missing_only_a_required_class() {
        let (mut dir, ids) = white_pages_instance();
        dir.entry_mut(ids.suciu).unwrap().remove_attribute("name");
        let refused = recover_with_checkpoint(white_pages_schema(), dir, None, &Journal::parse(""));
        assert!(matches!(refused, Err(ManagedError::IllegalInstance(_))), "{refused:?}");

        let registry = AttributeRegistry::white_pages();
        let mut managed = ManagedDirectory::new(white_pages_schema(), registry.clone()).unwrap();
        let mem = MemoryJournal::default();
        managed.set_sink(mem.sink());
        let organization =
            Entry::builder().classes(["organization", "orgGroup", "top"]).attr("o", "acme").build();
        let unit =
            Entry::builder().classes(["orgUnit", "orgGroup", "top"]).attr("ou", "labs").build();
        let mut tx = Transaction::new();
        let org = tx.insert_root(organization);
        let labs = tx.insert_under_new(org, unit);
        let refusal = managed.apply(&tx);
        assert!(matches!(refusal, Err(ManagedError::RolledBack(_))), "{refusal:?}");
        tx.insert_under_new(labs, researcher("first"));
        managed.apply(&tx).unwrap();
        assert!(managed.is_legal());

        let base = DirectoryInstance::new(registry);
        let recovered =
            recover_with_checkpoint(white_pages_schema(), base, None, &Journal::parse(&mem.take()))
                .expect("the journal recovers");
        assert_eq!(recovered.report.replayed, 1);
        assert!(recovered.managed.is_legal());
        assert_eq!(
            recovered.managed.instance().canonical_bytes(),
            managed.instance().canonical_bytes()
        );
    }
}
