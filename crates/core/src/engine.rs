//! [`JournaledDirectory`]: the one journaled engine.
//!
//! A [`ManagedDirectory`] certifies updates, a [`JournalWriter`] encodes
//! records, a [`JournalSink`] makes them durable. This type owns all
//! three and never hands out `&mut ManagedDirectory`, so the write-ahead
//! discipline is a property of the type, not a convention per call site.
//! `JournaledDirectory::apply_all` is the one driver of a write, to one
//! engine or many: on every engine it runs the operation to a legal
//! verdict on a structurally shared copy (`certify`) and flushes
//! the begin records (`begin`); then it flushes every commit record
//! (`commit`), and only then swaps every copy in (`install`). Each step
//! consumes the previous step's token and all four are private to this
//! module, so the live state never changes before its begin record is
//! durable and a refused operation writes nothing at all.
//! [`apply`](JournaledDirectory::apply) is the one-engine case. A
//! cross-shard 2-phase apply and an all-shard schema cutover are the
//! many-engine case — Theorem 4.1 makes either the one-engine update run
//! on each shard — and since nothing is installed anywhere before every
//! commit flushed, neither keeps a pre-image. Without a sink nothing is
//! journalled at all.
//!
//! The other halves of durability live here too, once each:
//! [`replay`](JournaledDirectory::replay), [`open`](JournaledDirectory::open)
//! (read → repair torn tail → recovery ladder → resume → file sink) and
//! [`checkpoint`](JournaledDirectory::checkpoint). DESIGN.md §16.

use std::fmt;
use std::fs::{self, OpenOptions};
use std::io::{self, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use bschema_directory::{DirectoryInstance, EntryId};
use bschema_obs::{names, scoped, Probe};

use crate::checkpoint::{
    checkpoint_path, recover_with_checkpoint, truncate_journal, write_checkpoint, Checkpoint,
    CheckpointRecovery,
};
use crate::journal::{Journal, JournalTx, JournalWriter, Payload, RecoveryReport};
use crate::managed::{panic_reason, ManagedDirectory, ManagedError, Successor};
use crate::schema::DirectorySchema;
use crate::updates::{Mod, Transaction};

/// Durability callback for one journal, invoked with each record batch
/// at the two write-ahead points. The callee appends and syncs.
pub type JournalSink = Box<dyn FnMut(&str) -> io::Result<()> + Send>;

/// Counter bumped when a *commit* flush fails: the transaction is
/// applied and legal, so the verdict stands and the failure shows here.
pub const SITE_COMMIT_IO_ERROR: &str = "server.journal_commit_io_error";

/// Fault/probe site between a schema cutover's begin and commit flushes;
/// a panic there leaves an uncommitted record and the old epoch live.
pub const SITE_SCHEMA_CUTOVER: &str = "schema.cutover";

/// Appends `text` to the file at `path` (created if absent) and syncs
/// its data — one `open` + `write` + `sync_data`.
pub fn append_sync(path: &Path, text: &str) -> io::Result<()> {
    if text.is_empty() {
        return Ok(());
    }
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(text.as_bytes())?;
    file.sync_data()
}

/// Reads a file that may legitimately not exist.
pub fn read_optional(path: &Path) -> io::Result<Option<String>> {
    match fs::read_to_string(path) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

fn io_context(what: &'static str) -> impl Fn(io::Error) -> io::Error {
    move |e| io::Error::new(e.kind(), format!("{what}: {e}"))
}

/// An in-memory journal "file" for tests and simulations.
#[derive(Debug, Clone, Default)]
pub struct MemoryJournal(Arc<Mutex<String>>);

impl MemoryJournal {
    /// A sink appending to this buffer.
    pub fn sink(&self) -> JournalSink {
        let buffer = self.0.clone();
        Box::new(move |text: &str| {
            buffer.lock().unwrap_or_else(|e| e.into_inner()).push_str(text);
            Ok(())
        })
    }

    /// Drains the text accumulated since the last call.
    pub fn take(&self) -> String {
        std::mem::take(&mut *self.0.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// What a journal file and its checkpoint sibling hold.
#[derive(Debug, Clone)]
pub struct JournalFiles {
    /// The journal file's raw text (empty when the file is missing).
    pub text: String,
    /// The parse of `text`.
    pub journal: Journal,
    /// The text of `<journal>.ckpt`, when present.
    pub ckpt_text: Option<String>,
}

impl JournalFiles {
    /// The pure loader: reads `path` and its checkpoint sibling and
    /// writes nothing — what `recover --verify` relies on.
    pub fn read(path: &Path) -> io::Result<JournalFiles> {
        let text = read_optional(path).map_err(io_context("reading journal"))?.unwrap_or_default();
        let ckpt_text =
            read_optional(&checkpoint_path(path)).map_err(io_context("reading checkpoint"))?;
        Ok(JournalFiles { journal: Journal::parse(&text), text, ckpt_text })
    }

    /// [`read`](JournalFiles::read), then the one in-place repair: a
    /// torn tail (crash mid-write) is cut off the file so a resumed
    /// writer extends an intact prefix.
    pub fn read_repaired(path: &Path) -> io::Result<JournalFiles> {
        let files = JournalFiles::read(path)?;
        if files.journal.truncated {
            fs::write(path, &files.text[..files.journal.intact_len])
                .map_err(io_context("repairing journal"))?;
        }
        Ok(files)
    }
}

/// Why a journal could not be opened.
#[derive(Debug)]
pub enum OpenError {
    /// Reading or repairing a file failed.
    Io(io::Error),
    /// The files were read but no consistent state can be rebuilt.
    Recovery(ManagedError),
}

impl From<io::Error> for OpenError {
    fn from(e: io::Error) -> Self {
        OpenError::Io(e)
    }
}

impl From<ManagedError> for OpenError {
    fn from(e: ManagedError) -> Self {
        OpenError::Recovery(e)
    }
}

/// One journaled operation.
#[derive(Debug, Clone, Copy)]
pub enum Op<'a> {
    /// An insert/delete transaction; `global` stamps `(gid, peers)` on
    /// the begin record of a cross-shard 2-phase apply.
    Tx {
        /// The transaction.
        tx: &'a Transaction,
        /// `(gid, peers)` of a cross-shard apply.
        global: Option<(u64, u64)>,
    },
    /// An LDAP Modify of one entry, applied as one atomic batch.
    Modify {
        /// The modified entry's slot.
        target: EntryId,
        /// The modifications.
        mods: &'a [Mod],
    },
    /// A schema cutover: the engine swaps to `schema`, the journal
    /// records the *full* schema document `dsl`.
    Schema {
        /// The schema this engine swaps to.
        schema: &'a DirectorySchema,
        /// The complete evolved schema as DSL text.
        dsl: &'a str,
        /// Whether `schema` is the `Cr`-stripped form of `dsl` (a shard
        /// engine) — recorded so replay strips it again.
        local: bool,
        /// `(gid, peers)` of an all-shard cutover.
        global: Option<(u64, u64)>,
    },
}

impl Op<'_> {
    /// The `(gid, peers)` stamp of a cross-shard apply or cutover.
    pub(crate) fn global(&self) -> Option<(u64, u64)> {
        match *self {
            Op::Tx { global, .. } | Op::Schema { global, .. } => global,
            Op::Modify { .. } => None,
        }
    }
}

/// An operation certified legal on a structurally shared copy; neither
/// the journal nor the live state has seen it.
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

/// A managed directory, its journal writer and (optionally) the sink
/// that makes the journal durable. See the module docs.
pub struct JournaledDirectory {
    managed: ManagedDirectory,
    writer: JournalWriter,
    sink: Option<JournalSink>,
    /// The journal file behind `sink`, when there is one — where
    /// [`checkpoint`](JournaledDirectory::checkpoint) finds its files.
    path: Option<PathBuf>,
}

impl fmt::Debug for JournaledDirectory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JournaledDirectory")
            .field("managed", &self.managed)
            .field("writer", &self.writer)
            .field("journaled", &self.sink.is_some())
            .field("path", &self.path)
            .finish()
    }
}

impl JournaledDirectory {
    /// An engine without a journal: operations apply, nothing is staged.
    pub fn new(managed: ManagedDirectory) -> Self {
        JournaledDirectory { managed, writer: JournalWriter::new(), sink: None, path: None }
    }

    /// The engine a recovery produced; its writer continues the
    /// recovered journal's numbering.
    pub fn from_recovery(recovery: CheckpointRecovery) -> Self {
        JournaledDirectory { writer: recovery.writer, ..Self::new(recovery.managed) }
    }

    /// Opens the journal at `path` onto `base` (the seed state the
    /// journal's history starts from): read the file and its checkpoint
    /// sibling, repair a torn tail in place, recover through the ladder
    /// ([`recover_with_checkpoint`]), and resume appending to the file.
    /// `base`'s probe carries over to the recovered engine (recovery
    /// itself runs unprobed).
    pub fn open(
        mut base: ManagedDirectory,
        path: impl Into<PathBuf>,
    ) -> Result<(Self, RecoveryReport), OpenError> {
        let path = path.into();
        let files = JournalFiles::read_repaired(&path)?;
        let probe = base.swap_probe(None);
        let (schema, seed) = base.into_parts();
        let mut recovery =
            recover_with_checkpoint(schema, seed, files.ckpt_text.as_deref(), &files.journal)?;
        recovery.managed.swap_probe(probe);
        let report = recovery.report.clone();
        let mut engine = JournaledDirectory::from_recovery(recovery);
        engine.attach_file(path);
        Ok((engine, report))
    }

    /// Qualifies every record DN with `shard=<k>`.
    pub fn with_shard(mut self, shard: usize) -> Self {
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

    /// The journal file, when this engine appends to one.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Read access to the enforcing directory.
    pub fn managed(&self) -> &ManagedDirectory {
        &self.managed
    }

    /// Read access to the instance.
    pub fn instance(&self) -> &DirectoryInstance {
        self.managed.instance()
    }

    /// The live version itself — what a publish hands to readers.
    pub fn shared_instance(&self) -> Arc<DirectoryInstance> {
        self.managed.shared_instance()
    }

    /// Unwraps the directory, dropping the journal attachment.
    pub fn into_managed(self) -> ManagedDirectory {
        self.managed
    }

    /// Swaps the instrumentation probe of the inner directory.
    pub fn swap_probe(
        &mut self,
        probe: Option<Arc<dyn Probe + Send + Sync>>,
    ) -> Option<Arc<dyn Probe + Send + Sync>> {
        self.managed.swap_probe(probe)
    }

    /// Journal growth `(records, bytes)`: the journal's length in
    /// records (replayed history included) and the bytes this process
    /// appended. `(0, 0)` for an engine that never journalled.
    pub fn journal_stats(&self) -> (u64, u64) {
        (self.writer.records_emitted(), self.writer.bytes_emitted())
    }

    /// Replaces the state wholesale, keeping the current probe: a
    /// follower installing a freshly bootstrapped state. Not journalled.
    pub fn restore(&mut self, mut state: ManagedDirectory) {
        state.swap_probe(self.managed.swap_probe(None));
        self.managed = state;
    }

    /// Step 1: runs `op` through the guarded, checked apply on a
    /// structurally shared copy of the instance. On `Err` — an illegal
    /// verdict, a typed error, a panic — there is no record, no mutation.
    fn certify<'a>(&self, op: Op<'a>) -> Result<Certified<'a>, ManagedError> {
        let next = match op {
            Op::Tx { tx, .. } => self.managed.certify_tx(tx)?.1,
            Op::Modify { target, mods } => self.managed.certify_modify(target, mods)?.1,
            Op::Schema { schema, .. } => ManagedDirectory::certify_schema(schema.clone())?,
        };
        Ok(Certified { op, next })
    }

    /// Step 2, in a `journal.begin` span: encodes the begin + payload
    /// records of the certified operation and flushes them through the
    /// sink. On `Err` nothing was mutated. Without a sink this journals
    /// nothing.
    fn begin(&mut self, certified: Certified<'_>) -> Result<Begun, ManagedError> {
        let Certified { op, next } = certified;
        let (writer, sink) = (&mut self.writer, &mut self.sink);
        let tx_id = scoped(self.managed.probe(), "journal.begin", || {
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
    /// [`SITE_COMMIT_IO_ERROR`] on the directory's probe and returned for
    /// callers that report it too.
    fn commit(&mut self, begun: Begun) -> (Committed, io::Result<()>) {
        let (writer, sink, probe) = (&mut self.writer, &mut self.sink, self.managed.probe());
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

    /// Step 4: swaps the certified copy in as the live state.
    fn install(&mut self, committed: Committed) {
        self.managed.install(committed.0);
    }

    /// The write-ahead sequence on this one engine, with `trace`, when
    /// given, as the directory's probe for the whole call — the
    /// one-engine case of the crate's one write driver, `apply_all`,
    /// whose own sites go to that same probe. A panic anywhere in it
    /// comes back as [`ManagedError::Panicked`] with nothing installed.
    /// `Ok` carries the commit flush's own result: the verdict stands
    /// either way.
    pub fn apply(
        &mut self,
        op: Op<'_>,
        trace: Option<Arc<dyn Probe + Send + Sync>>,
    ) -> Result<io::Result<()>, ManagedError> {
        let previous = trace.map(|trace| self.managed.swap_probe(Some(trace)));
        let shared = self.managed.shared_probe();
        let probe: &dyn Probe = match &shared {
            Some(probe) => probe.as_ref(),
            None => bschema_obs::noop(),
        };
        let applied = Self::apply_all(&mut [(&mut *self, op)], probe);
        if let Some(previous) = previous {
            self.managed.swap_probe(previous);
        }
        applied
    }

    /// The one driver of a write: the write-ahead sequence over `parts`,
    /// each an engine and its share of the write, with `probe` taking
    /// the sequence's own sites (a router's, for a 2-phase apply).
    ///
    /// Every part is certified and begun; once all are, every part
    /// commits; then every part is installed. An op stamped `(gid, peers)`
    /// visits `sharded.prepare.shard<k>` before each certify,
    /// `sharded.prepared` after the last begin and
    /// `sharded.commit.shard<k>` before each commit, `k` being the part's
    /// journal shard; an `Op::Schema` visits [`SITE_SCHEMA_CUTOVER`]
    /// between the begins and the commits. An `Err` or a panic before the
    /// installs drops every token, so no engine's live state moved, and
    /// comes back as an `Err` (a panic as [`ManagedError::Panicked`]); a
    /// stamped op then visits `sharded.rollback`, itself panic-guarded.
    /// `Ok` carries the first failed commit flush, counted by its engine:
    /// the verdict stands either way.
    pub(crate) fn apply_all(
        parts: &mut [(&mut JournaledDirectory, Op<'_>)],
        probe: &dyn Probe,
    ) -> Result<io::Result<()>, ManagedError> {
        let global = parts.first().is_some_and(|(_, op)| op.global().is_some());
        let shard = |engine: &JournaledDirectory| names::shard(engine.writer.shard().unwrap_or(0));
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            let mut begun = Vec::with_capacity(parts.len());
            for (engine, op) in parts.iter_mut() {
                if global {
                    probe.add_labeled(names::SHARD_PREPARE, &shard(engine), 1);
                }
                let certified = engine.certify(*op)?;
                begun.push(engine.begin(certified)?);
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
                let (token, result) = engine.commit(begun);
                committed.push(token);
                flushed = flushed.and(result);
            }
            Ok((committed, flushed))
        }));
        let refusal = match attempt {
            Ok(Ok((committed, flushed))) => {
                for ((engine, _), committed) in parts.iter_mut().zip(committed) {
                    engine.install(committed);
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
    pub fn replay(&mut self, jtx: &JournalTx) -> Result<(), ManagedError> {
        let evolved;
        let op = match &jtx.payload {
            Payload::Tx(tx) => Op::Tx { tx, global: None },
            Payload::Modify(m) => Op::Modify { target: m.target, mods: &m.mods },
            Payload::Schema(s) => {
                evolved = s.engine_schema().map_err(ManagedError::Recovery)?;
                Op::Schema { schema: &evolved, dsl: &s.dsl, local: s.local, global: None }
            }
        };
        let certified = self.certify(op)?;
        self.managed.install(certified.next);
        Ok(())
    }

    /// Snapshots the current state as a checkpoint covering the whole
    /// journal so far. `embed_dsl` overrides the embedded schema
    /// document — a shard engine embeds the *full* schema while hashing
    /// its own `Cr`-stripped one.
    pub fn capture(&self, embed_dsl: Option<&str>) -> Checkpoint {
        let mut ckpt = Checkpoint::capture(
            self.managed.instance(),
            self.managed.schema(),
            self.writer.records_emitted(),
            self.writer.next_tx(),
            self.writer.shard().map(|k| k as u64),
        );
        if let Some(dsl) = embed_dsl {
            ckpt.schema_dsl = Some(dsl.to_owned());
        }
        ckpt
    }

    fn journal_file(&self) -> io::Result<&Path> {
        self.path().ok_or_else(|| io::Error::new(io::ErrorKind::Unsupported, "no journal file"))
    }

    /// First half of [`checkpoint`](Self::checkpoint): captures and
    /// durably writes `<journal>.ckpt`. Returns the covered sequence.
    pub fn write_checkpoint(&self, embed_dsl: Option<&str>, probe: &dyn Probe) -> io::Result<u64> {
        let ckpt = self.capture(embed_dsl);
        write_checkpoint(&checkpoint_path(self.journal_file()?), &ckpt.encode(), probe)
            .map_err(io_context("writing checkpoint"))?;
        Ok(ckpt.seq)
    }

    /// Second half: truncates the journal file. Only after the
    /// checkpoint (of *every* shard, in a campaign) has landed.
    pub fn truncate_journal(&self, probe: &dyn Probe) -> io::Result<()> {
        truncate_journal(self.journal_file()?, probe).map_err(io_context("truncating journal"))
    }

    /// The checkpoint routine: capture → write → truncate, in the order
    /// that keeps every crash point recoverable. The caller holds
    /// whatever lock serialises writes to this engine, so no commit
    /// slips between capture and truncation.
    pub fn checkpoint(&self, probe: &dyn Probe) -> io::Result<u64> {
        let seq = self.write_checkpoint(None, probe)?;
        self.truncate_journal(probe)?;
        Ok(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{white_pages_instance, white_pages_schema};
    use bschema_directory::Entry;

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
        let managed = ManagedDirectory::with_instance(white_pages_schema(), dir).expect("legal");
        let mut engine = JournaledDirectory::new(managed);
        let legal = insert(ids.databases, ["researcher", "person", "top"], "uid");

        // No sink: applies, journals nothing.
        let flushed = engine.apply(Op::Tx { tx: &legal, global: None }, None).expect("legal");
        flushed.expect("nothing to flush");
        assert_eq!((engine.managed().len(), engine.journal_stats()), (7, (0, 0)));

        let mem = MemoryJournal::default();
        engine.set_sink(mem.sink());
        let legal = insert(ids.att_labs, ["researcher", "person", "top"], "uid");
        let certified = engine.certify(Op::Tx { tx: &legal, global: None }).expect("legal");
        assert_eq!(mem.take(), "", "the verdict writes no records");
        let begun = engine.begin(certified).expect("flushes");
        let text = mem.take();
        assert!(text.contains("jrntype: insert") && !text.contains("jrntype: commit"));
        let (committed, flushed) = engine.commit(begun);
        flushed.expect("flushes");
        assert!(mem.take().contains("jrntype: commit"));
        assert_eq!(engine.managed().len(), 7, "the live state changes last");
        engine.install(committed);
        assert_eq!(engine.managed().len(), 8);

        // A rejected operation yields no token and reaches neither the
        // instance nor the journal.
        let illegal = insert(ids.suciu, ["orgUnit", "orgGroup", "top"], "ou");
        let before = (engine.instance().canonical_bytes(), engine.journal_stats());
        let err = engine.apply(Op::Tx { tx: &illegal, global: None }, None).expect_err("illegal");
        assert!(matches!(err, ManagedError::RolledBack(_)), "{err}");
        assert_eq!(mem.take(), "", "a refusal journals nothing");
        assert_eq!((engine.instance().canonical_bytes(), engine.journal_stats()), before);

        // A failed begin flush aborts before any mutation.
        engine.set_sink(Box::new(|_: &str| Err(io::Error::other("disk full"))));
        let before = engine.instance().canonical_bytes();
        let err = engine.apply(Op::Tx { tx: &legal, global: None }, None).expect_err("flush fails");
        assert_eq!(err.code(), "io", "{err}");
        assert!(err.to_string().contains("journal begin flush: disk full"), "{err}");
        assert_eq!(engine.instance().canonical_bytes(), before);
    }

    #[test]
    fn a_panic_at_either_flush_span_installs_nothing_and_restores_the_probe() {
        use bschema_faults::{silence_injected_panics, FaultPlan};

        silence_injected_panics();
        let (dir, ids) = white_pages_instance();
        let own = Arc::new(bschema_obs::Recorder::new());
        let managed = ManagedDirectory::with_instance(white_pages_schema(), dir)
            .expect("legal")
            .with_probe(own.clone());
        let mut engine = JournaledDirectory::new(managed);
        let mem = MemoryJournal::default();
        engine.set_sink(mem.sink());
        let legal = insert(ids.databases, ["researcher", "person", "top"], "uid");
        let mut journal = String::new();
        for site in ["span:journal.begin", "span:journal.commit"] {
            let before = engine.instance().canonical_bytes();
            let trace = Arc::new(FaultPlan::fail_at_site(site, 0));
            let err = engine
                .apply(Op::Tx { tx: &legal, global: None }, Some(trace.clone()))
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

        // The engine's own probe is back: an untraced apply reports to it.
        let applied = || own.metrics().counter("managed.tx_applied");
        assert_eq!(applied(), 0);
        let flushed = engine.apply(Op::Tx { tx: &legal, global: None }, None).expect("legal");
        flushed.expect("flushes");
        assert_eq!(applied(), 1);
        journal.push_str(&mem.take());
        assert_eq!(Journal::parse(&journal).committed().count(), 1);
    }
}
