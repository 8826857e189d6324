//! The durability half of [`ManagedDirectory`]: the journal sink, the
//! operation record, the journal files and checkpoints.
//!
//! A [`ManagedDirectory`] certifies, journals and installs every write
//! through its one driver (`crate::managed`); this module holds what that
//! driver and recovery need around it, once each: the [`JournalSink`] a
//! flush goes through, the [`Op`] a journal transaction records,
//! [`open`](ManagedDirectory::open) (read → repair torn tail → recovery
//! ladder → resume → file sink) and
//! [`checkpoint`](ManagedDirectory::checkpoint). DESIGN.md §16.

use std::fs::{self, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use bschema_directory::EntryId;
use bschema_obs::Probe;

use crate::checkpoint::{
    checkpoint_path, recover_with_checkpoint, truncate_journal, write_checkpoint, Checkpoint,
};
use crate::journal::{Journal, RecoveryReport};
use crate::managed::{ManagedDirectory, ManagedError};
use crate::schema::DirectorySchema;
use crate::updates::{Mod, Transaction};

/// Durability callback for one journal, invoked with each record batch
/// at the two write-ahead points. The callee appends and syncs. `Sync`
/// because the [`ManagedDirectory`] holding it is shared by reference.
pub type JournalSink = Box<dyn FnMut(&str) -> io::Result<()> + Send + Sync>;

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
    /// torn tail (crash mid-write) is cut off the file at `intact_len`
    /// and the cut synced, so a resumed writer extends an intact prefix.
    /// The prefix itself is never rewritten: a crash during the repair
    /// leaves it whole, with or without the tail. Either failure is
    /// [`ManagedError::Open`], what opening a journal refuses with.
    pub fn read_repaired(path: &Path) -> Result<JournalFiles, ManagedError> {
        let opened = |e: io::Error| ManagedError::Open(e.to_string());
        let files = JournalFiles::read(path).map_err(opened)?;
        if files.journal.truncated {
            let cut = || {
                let file = OpenOptions::new().write(true).open(path)?;
                file.set_len(files.journal.intact_len as u64)?;
                file.sync_all()
            };
            cut().map_err(io_context("repairing journal")).map_err(opened)?;
        }
        Ok(files)
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
    /// A schema cutover: the directory swaps to `schema`, the journal
    /// records the *full* schema document `dsl`.
    Schema {
        /// The schema this directory swaps to.
        schema: &'a DirectorySchema,
        /// The complete evolved schema as DSL text.
        dsl: &'a str,
        /// Whether `schema` is the `Cr`-stripped form of `dsl` (a shard
        /// directory) — recorded so replay strips it again.
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

impl ManagedDirectory {
    /// Opens the journal at `path` onto `base` (the seed state the
    /// journal's history starts from): read the file and its checkpoint
    /// sibling, repair a torn tail in place, recover through the ladder
    /// ([`recover_with_checkpoint`], unprobed), and resume appending to
    /// the file. A file that cannot be read or repaired is
    /// [`ManagedError::Open`]; a state that cannot be rebuilt, whatever
    /// recovery reports.
    pub fn open(
        base: ManagedDirectory,
        path: impl Into<PathBuf>,
    ) -> Result<(Self, RecoveryReport), ManagedError> {
        let path = path.into();
        let files = JournalFiles::read_repaired(&path)?;
        let (schema, seed) = base.into_parts();
        let recovery =
            recover_with_checkpoint(schema, seed, files.ckpt_text.as_deref(), &files.journal)?;
        let mut managed = recovery.managed;
        managed.attach_file(path);
        Ok((managed, recovery.report))
    }

    /// Snapshots the current state as a checkpoint covering the whole
    /// journal so far. `embed_dsl` overrides the embedded schema
    /// document — a shard embeds the *full* schema while hashing
    /// its own `Cr`-stripped one.
    pub fn capture(&self, embed_dsl: Option<&str>) -> Checkpoint {
        let writer = self.writer();
        let mut ckpt = Checkpoint::capture(
            self.instance(),
            self.schema(),
            writer.records_emitted(),
            writer.next_tx(),
            writer.shard().map(|k| k as u64),
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
    /// whatever lock serialises writes to this directory, so no commit
    /// slips between capture and truncation.
    pub fn checkpoint(&self, probe: &dyn Probe) -> io::Result<u64> {
        let seq = self.write_checkpoint(None, probe)?;
        self.truncate_journal(probe)?;
        Ok(seq)
    }
}
