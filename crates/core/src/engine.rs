//! [`JournaledDirectory`]: the one journaled engine.
//!
//! A [`ManagedDirectory`] certifies updates, a [`JournalWriter`] encodes
//! records, a [`JournalSink`] makes them durable. This type owns all
//! three and never hands out `&mut ManagedDirectory`, so the write-ahead
//! discipline is a property of the type, not a convention per call site:
//! [`certify`](JournaledDirectory::certify) runs the operation to a legal
//! verdict on a structurally shared copy, [`begin`](JournaledDirectory::begin)
//! flushes the begin records, [`commit`](JournaledDirectory::commit) the
//! commit record, and only [`install`](JournaledDirectory::install) swaps
//! the copy in. Each step consumes the previous step's token, so the
//! live state never changes before its begin record is durable and a
//! refused operation writes nothing at all. The steps are separate so a
//! caller can span each, and so a cross-shard 2-phase apply can begin
//! everywhere before committing anywhere and commit everywhere before
//! installing anywhere — which is why it keeps no pre-image;
//! [`apply`](JournaledDirectory::apply) bundles them. Without a sink
//! nothing is journalled at all.
//!
//! The other halves of durability live here too, once each:
//! [`replay`](JournaledDirectory::replay), [`open`](JournaledDirectory::open)
//! (read → repair torn tail → recovery ladder → resume → file sink) and
//! [`checkpoint`](JournaledDirectory::checkpoint). DESIGN.md §16.

use std::fmt;
use std::fs::{self, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use bschema_directory::{DirectoryInstance, EntryId};
use bschema_obs::Probe;

use crate::checkpoint::{
    checkpoint_path, recover_with_checkpoint, truncate_journal, write_checkpoint, Checkpoint,
    CheckpointRecovery,
};
use crate::journal::{Journal, JournalTx, JournalWriter, RecoveryReport};
use crate::managed::{ManagedDirectory, ManagedError, Successor};
use crate::schema::DirectorySchema;
use crate::updates::{Mod, Transaction};

/// Durability callback for one journal, invoked with each record batch
/// at the two write-ahead points. The callee appends and syncs.
pub type JournalSink = Box<dyn FnMut(&str) -> io::Result<()> + Send>;

/// Counter bumped when a *commit* flush fails: the transaction is
/// applied and legal, so the verdict stands and the failure shows here.
pub const SITE_COMMIT_IO_ERROR: &str = "server.journal_commit_io_error";

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

/// An operation certified legal on a structurally shared copy; neither
/// the journal nor the live state has seen it.
#[derive(Debug)]
#[must_use = "begin it, or drop it: nothing was written and nothing changed"]
pub struct Certified<'a> {
    op: Op<'a>,
    next: Successor,
}

/// A certified operation whose write-ahead records are durable.
#[derive(Debug)]
#[must_use = "commit it, or drop it as an aborted journal tail"]
pub struct Begun {
    next: Successor,
    tx_id: Option<u64>,
}

/// A begun operation whose commit record went to the journal.
#[derive(Debug)]
#[must_use = "a committed operation must be installed"]
pub struct Committed(Successor);

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
    pub fn certify<'a>(&self, op: Op<'a>) -> Result<Certified<'a>, ManagedError> {
        let next = match op {
            Op::Tx { tx, .. } => self.managed.certify_tx(tx)?.1,
            Op::Modify { target, mods } => self.managed.certify_modify(target, mods)?.1,
            Op::Schema { schema, .. } => ManagedDirectory::certify_schema(schema.clone())?,
        };
        Ok(Certified { op, next })
    }

    /// Step 2: encodes the begin + payload records of the certified
    /// operation and flushes them through the sink. On `Err` nothing
    /// was mutated. Without a sink this journals nothing.
    pub fn begin(&mut self, certified: Certified<'_>) -> io::Result<Begun> {
        let Certified { op, next } = certified;
        let Some(sink) = &mut self.sink else { return Ok(Begun { next, tx_id: None }) };
        let id = match op {
            Op::Tx { tx, global: None } => self.writer.begin(tx),
            Op::Tx { tx, global: Some((gid, peers)) } => self.writer.begin_global(tx, gid, peers),
            Op::Modify { target, mods } => self.writer.begin_modify(target, mods),
            Op::Schema { dsl, local, global, .. } => self.writer.begin_schema(dsl, local, global),
        };
        sink(&self.writer.take_pending())?;
        Ok(Begun { next, tx_id: Some(id) })
    }

    /// Step 3: encodes and flushes the commit record. A flush failure
    /// does not revoke the verdict, so the token comes back either way:
    /// the error is counted at [`SITE_COMMIT_IO_ERROR`] on the
    /// directory's probe and returned for callers that report it too.
    pub fn commit(&mut self, begun: Begun) -> (Committed, io::Result<()>) {
        let committed = Committed(begun.next);
        let (Some(id), Some(sink)) = (begun.tx_id, &mut self.sink) else {
            return (committed, Ok(()));
        };
        self.writer.commit(id);
        let flushed = sink(&self.writer.take_pending());
        if flushed.is_err() {
            self.managed.probe().add(SITE_COMMIT_IO_ERROR, 1);
        }
        (committed, flushed)
    }

    /// Step 4: swaps the certified copy in as the live state.
    pub fn install(&mut self, committed: Committed) {
        self.managed.install(committed.0);
    }

    /// A failed begin flush as the refusal it is: nothing was mutated.
    pub fn begin_flush_error(&self, e: io::Error) -> ManagedError {
        let shard = self.writer.shard().map_or_else(String::new, |k| format!("shard {k} "));
        ManagedError::Internal(format!("{shard}journal begin flush: {e}"))
    }

    /// The whole write-ahead sequence. A commit flush failure is
    /// counted, not returned (see [`commit`](Self::commit)).
    pub fn apply(&mut self, op: Op<'_>) -> Result<(), ManagedError> {
        let certified = self.certify(op)?;
        let begun = self.begin(certified).map_err(|e| self.begin_flush_error(e))?;
        let (committed, _counted) = self.commit(begun);
        self.install(committed);
        Ok(())
    }

    /// Re-applies one journal transaction through the checked path
    /// without journalling it again — recovery's replay step and a
    /// follower's apply of a shipped record.
    pub fn replay(&mut self, jtx: &JournalTx) -> Result<(), ManagedError> {
        match (&jtx.schema, &jtx.modify) {
            (Some(s), _) => s
                .engine_schema()
                .map_err(ManagedError::Recovery)
                .and_then(|schema| self.managed.set_schema(schema)),
            (None, Some(m)) => self.managed.modify_entry(m.target, &m.mods),
            (None, None) => self.managed.apply(&jtx.to_transaction()),
        }
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
    pub fn checkpoint(&mut self, probe: &dyn Probe) -> io::Result<u64> {
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
        engine.apply(Op::Tx { tx: &legal, global: None }).expect("legal insert");
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
        let err = engine.apply(Op::Tx { tx: &illegal, global: None }).expect_err("illegal");
        assert!(matches!(err, ManagedError::RolledBack(_)), "{err}");
        assert_eq!(mem.take(), "", "a refusal journals nothing");
        assert_eq!((engine.instance().canonical_bytes(), engine.journal_stats()), before);

        // A failed begin flush aborts before any mutation.
        engine.set_sink(Box::new(|_: &str| Err(io::Error::other("disk full"))));
        let before = engine.instance().canonical_bytes();
        let err = engine.apply(Op::Tx { tx: &legal, global: None }).expect_err("flush fails");
        assert!(err.to_string().contains("journal begin flush: disk full"), "{err}");
        assert_eq!(engine.instance().canonical_bytes(), before);
    }
}
