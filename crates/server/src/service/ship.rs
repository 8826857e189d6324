//! The durability and replication plane (DESIGN.md §14): `CHECKPOINT`,
//! the primary's side of `SHIP`, and the follower's apply path.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::MutexGuard;

use bschema_core::engine::read_optional;
use bschema_core::journal::{Journal, JournalTx, Payload};
use bschema_core::ManagedDirectory;

use super::{lock_unpoisoned, Backend, DirectoryService, ServiceError};

/// Fault/probe site visited while serving a `SHIP` tail to a follower,
/// before any journal bytes are read. Injecting a panic here makes the
/// follower see `ERR panicked` and retry — the primary's state is
/// untouched (nothing has been mutated).
pub const SITE_SHIP_SERVE: &str = "ship.serve";

/// Fault/probe site visited by a follower just before applying a
/// shipped transaction. Injecting a panic here kills the sync pass with
/// the replica's instance intact (the guarded apply has not started),
/// so the next pass re-ships and converges.
pub const SITE_SHIP_APPLY: &str = "ship.apply";

/// Replication-lag gauges shared between a follower's ship loop (which
/// stamps them after every sync) and the `HEALTH` plane (which judges
/// them). All values are monotone or last-write-wins, so plain relaxed
/// atomics suffice.
#[derive(Debug, Default)]
pub struct ReplicationState {
    /// Highest journal seq the follower has applied through.
    applied_seq: AtomicU64,
    /// The primary's journal cursor observed at the last successful ship.
    source_seq: AtomicU64,
    /// µs-since-service-origin of the last successful ship exchange.
    last_ship_us: AtomicU64,
    /// Checkpoint bootstraps: 1 after the initial attach, +1 for every
    /// `ship-gap` re-bootstrap.
    bootstraps: AtomicU64,
    /// Failed ship exchanges (connection drops, injected faults, …).
    errors: AtomicU64,
}

impl ReplicationState {
    /// Stamps a successful ship: the follower applied through `applied`
    /// while the primary's cursor stood at `source`, observed at `at_us`.
    pub fn record_ship(&self, applied: u64, source: u64, at_us: u64) {
        self.applied_seq.store(applied, Ordering::Relaxed);
        self.source_seq.store(source, Ordering::Relaxed);
        self.last_ship_us.store(at_us, Ordering::Relaxed);
    }

    /// Counts a checkpoint bootstrap (initial attach or `ship-gap`).
    pub fn record_bootstrap(&self) {
        self.bootstraps.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a failed ship exchange.
    pub fn record_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Journal records the replica is behind the primary.
    pub fn lag(&self) -> u64 {
        let source = self.source_seq.load(Ordering::Relaxed);
        source.saturating_sub(self.applied_seq.load(Ordering::Relaxed))
    }

    /// Highest journal seq applied on the replica.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq.load(Ordering::Relaxed)
    }

    /// The primary's cursor at the last successful ship.
    pub fn source_seq(&self) -> u64 {
        self.source_seq.load(Ordering::Relaxed)
    }

    /// µs-since-origin of the last successful ship (0 = never).
    pub fn last_ship_us(&self) -> u64 {
        self.last_ship_us.load(Ordering::Relaxed)
    }

    /// Total checkpoint bootstraps.
    pub fn bootstraps(&self) -> u64 {
        self.bootstraps.load(Ordering::Relaxed)
    }

    /// Total failed ship exchanges.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }
}

impl DirectoryService {
    /// Checkpoints now (`CHECKPOINT`, `--checkpoint-every`): captures
    /// the forest into `<journal>.ckpt` (synced temp file + rename), then
    /// truncates the journal, under the write mutex or every shard lock,
    /// so no commit slips in between. Returns the covered seq per shard.
    /// Refused with `unsupported` when no journal is attached — without
    /// one there is nothing to compact and recovery has no file to find.
    pub fn checkpoint_now(&self) -> Result<Vec<u64>, ServiceError> {
        let probe = &*self.probe;
        let seqs = match self.sharded() {
            Some(sharded) => sharded.checkpoint(probe),
            None => self.with_engine(0, |engine| engine.checkpoint(probe)).map(|seq| vec![seq]),
        }
        .map_err(|e| match e.kind() {
            std::io::ErrorKind::Unsupported => ServiceError::new(
                "unsupported",
                "checkpointing needs a journal; start the server with --journal",
            ),
            _ => ServiceError::new("io", e.to_string()),
        })?;
        self.since_checkpoint.store(0, Ordering::Relaxed);
        probe.add("server.checkpoint", 1);
        Ok(seqs)
    }

    /// The single engine under its write mutex, for the verbs that only
    /// exist there (`SHIP` and its follower side).
    fn single_engine(
        &self,
        refusal: &'static str,
    ) -> Result<MutexGuard<'_, ManagedDirectory>, ServiceError> {
        match &self.backend {
            Backend::Single(engine) => Ok(lock_unpoisoned(engine)),
            Backend::Sharded(_) => Err(ServiceError::new("unsupported", refusal)),
        }
    }

    /// [`single_engine`](Self::single_engine) of a journaled primary,
    /// with its journal file.
    fn shipping_engine(&self) -> Result<(MutexGuard<'_, ManagedDirectory>, PathBuf), ServiceError> {
        let engine = self.single_engine("SHIP serves single-engine primaries only")?;
        let Some(path) = engine.path().map(PathBuf::from) else {
            return Err(ServiceError::new(
                "unsupported",
                "SHIP needs a journaled primary; start it with --journal",
            ));
        };
        Ok((engine, path))
    }

    /// Serves a follower's bootstrap: captures a fresh checkpoint of the
    /// current committed state under the write lock and returns
    /// `(seq, next_tx, encoded checkpoint)`. The capture is trivially
    /// consistent with the shipped stream — no journal record past
    /// `seq` exists at capture time, so the follower's cursor starts
    /// exactly where shipping resumes.
    pub fn ship_bootstrap(&self) -> Result<(u64, u64, String), ServiceError> {
        let (engine, _) = self.shipping_engine()?;
        let ckpt = engine.capture(None);
        self.probe.add("server.ship_bootstrap", 1);
        Ok((ckpt.seq, ckpt.next_tx, ckpt.encode()))
    }

    /// Serves a follower's tail request: returns `(next_seq, records)` —
    /// the raw journal record text from `from_seq` up to the primary's
    /// cursor. Reading happens under the write mutex (the same lock
    /// appends hold), so the file is always a consistent prefix.
    /// `ship-gap` means the requested records were already truncated
    /// into a checkpoint (or lost to a degraded-durability append): the
    /// follower must re-bootstrap.
    pub fn ship_tail(&self, from_seq: u64) -> Result<(u64, String), ServiceError> {
        let (engine, path) = self.shipping_engine()?;
        let (cursor, _) = engine.journal_stats();
        // Fault site: dying here serves nothing — the follower sees the
        // `panicked` code and retries the same cursor.
        self.probe.add(SITE_SHIP_SERVE, 1);
        if from_seq > cursor {
            return Err(ServiceError::new(
                "ship-gap",
                format!("follower asks for seq {from_seq} but the journal ends at {cursor}"),
            ));
        }
        if from_seq == cursor {
            return Ok((cursor, String::new()));
        }
        let text = read_optional(&path)
            .map_err(|e| ServiceError::new("io", format!("reading journal: {e}")))?
            .unwrap_or_default();
        let parsed = Journal::parse(&text);
        if parsed.next_seq() != cursor || parsed.start_seq > from_seq {
            return Err(ServiceError::new(
                "ship-gap",
                format!(
                    "records below seq {cursor} are no longer in the journal; re-bootstrap from \
                     a fresh checkpoint"
                ),
            ));
        }
        let tail = parsed.text_from(&text, from_seq).ok_or_else(|| {
            ServiceError::new("ship-gap", format!("seq {from_seq} not found in the journal"))
        })?;
        Ok((cursor, tail.to_owned()))
    }

    /// Applies one committed transaction shipped from a primary, through
    /// the same legality engine client writes go through. This is the
    /// follower's only mutation path — it bypasses the `read-only` gate
    /// by construction, not by flag.
    pub fn replicate_tx(&self, jtx: &JournalTx) -> Result<(), ServiceError> {
        let mut engine =
            self.single_engine("replication applies to the single-engine backend only")?;
        // Fault site: dying here leaves the replica's instance intact;
        // the next sync pass re-ships the same records and converges.
        self.probe.add(SITE_SHIP_APPLY, 1);
        engine.replay(jtx, &*self.probe).map_err(|e| {
            ServiceError::new("replication", format!("applying shipped tx {}: {e}", jtx.id))
        })?;
        if let Payload::Schema(_) = jtx.payload {
            // A shipped schema cutover: the primary already certified
            // the instance legal under the new schema, so the follower
            // adopted it directly and bumps its own epoch.
            self.schema_epoch.fetch_add(1, Ordering::SeqCst);
            self.probe.add("server.schema_replicated", 1);
        }
        self.publish(0, engine.shared_instance(), &*self.probe);
        Ok(())
    }

    /// Swaps in a freshly bootstrapped state — the follower's `ship-gap`
    /// re-bootstrap path — and republishes the snapshot immediately. A
    /// follower keeps no journal, so there is no attachment to carry over.
    pub fn install_follower_state(&self, managed: ManagedDirectory) -> Result<(), ServiceError> {
        let mut engine =
            self.single_engine("replication applies to the single-engine backend only")?;
        *engine = managed;
        self.publish(0, engine.shared_instance(), &*self.probe);
        Ok(())
    }
}
