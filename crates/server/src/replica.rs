//! Read replicas: crash-consistent followers fed over the `SHIP` verb.
//!
//! A [`Follower`] tracks one journaled single-engine primary:
//!
//! 1. **Bootstrap** — `SHIP` (no argument) makes the primary capture a
//!    fresh checkpoint of its committed state under the write lock and
//!    return it. The follower verifies the schema hash (adopting the
//!    checkpoint's embedded schema when the primary has evolved past
//!    the follower's boot schema), restores the
//!    slot-exact forest (the restore rung of
//!    [`RecoveryPlan`]), and starts its cursor at the
//!    checkpoint's covered seq. Slot-exactness matters: every later
//!    shipped record names entries by slot, so primary and replica must
//!    agree on the arena layout, not just the logical forest.
//! 2. **Tail sync** — `SHIP <cursor>` returns the committed journal
//!    records from the cursor to the primary's current cursor. The
//!    chunk parses standalone ([`Journal::parse`] accepts any starting
//!    seq) and every committed transaction applies through
//!    [`DirectoryService::replicate_tx`] — the same legality engine
//!    client writes go through, so an ill-shipped record can never
//!    corrupt the replica. The primary serves `SHIP` under its write
//!    mutex, so a shipped chunk never straddles an in-flight commit:
//!    any uncommitted transaction in a chunk is permanently aborted and
//!    safely skipped.
//! 3. **Re-bootstrap** — `ERR ship-gap` means the cursor predates the
//!    retained journal (a checkpoint truncated it, or a
//!    degraded-durability append lost a record). The follower fetches a
//!    fresh checkpoint and swaps it in via
//!    [`DirectoryService::install_follower_state`].
//!
//! The follower keeps **no on-disk state**: its durability story is
//! "re-bootstrap from the primary", which is exactly the crash model
//! the chaos suite drives. Replication lag is published through the
//! shared [`ReplicationState`] gauges, so the replica's own `HEALTH`
//! verb reports `replication_lag_records` and `ship_age_s`.

use std::sync::Arc;
use std::time::Duration;

use bschema_core::checkpoint::{Checkpoint, RecoveryPlan};
use bschema_core::journal::{Journal, Payload};
use bschema_core::schema::DirectorySchema;
use bschema_core::ManagedDirectory;
use bschema_directory::attribute::AttributeRegistry;
use bschema_directory::DirectoryInstance;

use crate::client::{Client, ClientError};
use crate::server::Shutdown;
use crate::service::{DirectoryService, ReplicationState};

/// A replication failure on the follower side.
#[derive(Debug)]
pub enum FollowerError {
    /// The exchange with the primary failed (socket, wire, or an
    /// `ERR` refusal other than `ship-gap`).
    Client(ClientError),
    /// The shipped checkpoint does not restore under this schema.
    Bootstrap(String),
    /// A shipped transaction did not apply on the replica.
    Apply(String),
}

impl std::fmt::Display for FollowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FollowerError::Client(e) => write!(f, "ship exchange failed: {e}"),
            FollowerError::Bootstrap(why) => write!(f, "bootstrap failed: {why}"),
            FollowerError::Apply(why) => write!(f, "replication apply failed: {why}"),
        }
    }
}

impl std::error::Error for FollowerError {}

impl From<ClientError> for FollowerError {
    fn from(e: ClientError) -> Self {
        FollowerError::Client(e)
    }
}

/// What one [`Follower::sync_once`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncReport {
    /// Committed transactions applied this pass.
    pub applied: u64,
    /// Whether this pass re-bootstrapped from a fresh checkpoint.
    pub bootstrapped: bool,
    /// The follower's cursor after the pass — the next seq it will ask
    /// the primary for.
    pub cursor: u64,
}

/// The ship loop tracking one primary. See the module docs for the
/// protocol.
pub struct Follower {
    addr: String,
    schema: DirectorySchema,
    service: Arc<DirectoryService>,
    replication: Arc<ReplicationState>,
    client: Option<Client>,
    cursor: u64,
}

impl Follower {
    /// Fetches the primary's bootstrap checkpoint and restores it into
    /// a managed directory. Returns `(managed, cursor)` — build a
    /// read-only [`DirectoryService`] around the directory, then
    /// [`attach`](Follower::attach) it.
    ///
    /// Split from `attach` so the caller can finish the service builder
    /// chain (probe, registry, SLO, limits) before the service is
    /// shared.
    pub fn bootstrap_state(
        addr: &str,
        schema: &DirectorySchema,
    ) -> Result<(ManagedDirectory, u64), FollowerError> {
        let mut client = Client::connect(addr)?;
        let (seq, _next_tx, text) = client.ship_bootstrap()?;
        let (managed, _adopted) = decode_state(schema, &text)?;
        Ok((managed, seq))
    }

    /// Wires a follower around a service built from
    /// [`bootstrap_state`](Follower::bootstrap_state). The service must
    /// carry the same `replication` gauges
    /// ([`DirectoryService::with_replication`]); this records the
    /// initial bootstrap on them.
    pub fn attach(
        addr: impl Into<String>,
        schema: DirectorySchema,
        service: Arc<DirectoryService>,
        replication: Arc<ReplicationState>,
        cursor: u64,
    ) -> Follower {
        replication.record_bootstrap();
        replication.record_ship(cursor, cursor, service.uptime_us());
        Follower { addr: addr.into(), schema, service, replication, client: None, cursor }
    }

    /// The replica service this follower feeds.
    pub fn service(&self) -> &Arc<DirectoryService> {
        &self.service
    }

    /// The next seq this follower will request.
    pub fn cursor(&self) -> u64 {
        self.cursor
    }

    /// One sync pass: ship the tail from the cursor and apply it;
    /// on `ship-gap`, re-bootstrap from a fresh checkpoint. Transport
    /// errors drop the cached connection so the next pass reconnects.
    pub fn sync_once(&mut self) -> Result<SyncReport, FollowerError> {
        let outcome = self.try_ship();
        match outcome {
            Ok(report) => Ok(report),
            Err(e) => {
                self.client = None;
                self.replication.record_error();
                Err(e)
            }
        }
    }

    fn try_ship(&mut self) -> Result<SyncReport, FollowerError> {
        if self.client.is_none() {
            self.client = Some(Client::connect(&self.addr)?);
        }
        let Some(client) = self.client.as_mut() else {
            return Err(FollowerError::Bootstrap("no connection".to_owned()));
        };
        let cursor = self.cursor;
        match client.ship_tail(cursor) {
            Ok((source_cursor, text)) => self.apply_chunk(source_cursor, &text),
            Err(ClientError::Server { ref code, .. }) if code == "ship-gap" => self.rebootstrap(),
            // An injected `ship.serve` fault panics the primary's
            // request, not the primary: retrying the same cursor on a
            // fresh exchange converges.
            Err(e) => Err(e.into()),
        }
    }

    /// Applies a shipped chunk. `source_cursor` is the primary's journal
    /// cursor at ship time; after every committed transaction in the
    /// chunk has applied, the follower's cursor jumps there (uncommitted
    /// transactions in a chunk are permanently aborted — the primary
    /// ships under the same mutex commits hold).
    fn apply_chunk(&mut self, source_cursor: u64, text: &str) -> Result<SyncReport, FollowerError> {
        let parsed = Journal::parse(text);
        let mut applied = 0u64;
        for jtx in parsed.committed() {
            if jtx.first_seq < self.cursor {
                continue;
            }
            self.service.replicate_tx(jtx).map_err(|e| FollowerError::Apply(e.to_string()))?;
            // A shipped schema record moves the replica to the new
            // epoch; track it so a later re-bootstrap expects the
            // evolved schema's hash rather than the boot schema's.
            if let Payload::Schema(schema) = &jtx.payload {
                self.schema =
                    schema.engine_schema().map_err(|e| FollowerError::Apply(e.to_string()))?;
            }
            applied += 1;
        }
        self.cursor = self.cursor.max(source_cursor);
        self.replication.record_ship(self.cursor, source_cursor, self.service.uptime_us());
        Ok(SyncReport { applied, bootstrapped: false, cursor: self.cursor })
    }

    /// The `ship-gap` path: fetch a fresh checkpoint and swap it in.
    fn rebootstrap(&mut self) -> Result<SyncReport, FollowerError> {
        let Some(client) = self.client.as_mut() else {
            return Err(FollowerError::Bootstrap("no connection".to_owned()));
        };
        let (seq, _next_tx, text) = client.ship_bootstrap()?;
        let (managed, schema) = decode_state(&self.schema, &text)?;
        self.service
            .install_follower_state(managed)
            .map_err(|e| FollowerError::Bootstrap(e.to_string()))?;
        self.schema = schema;
        self.cursor = seq;
        self.replication.record_bootstrap();
        self.replication.record_ship(seq, seq, self.service.uptime_us());
        Ok(SyncReport { applied: 0, bootstrapped: true, cursor: seq })
    }

    /// The follower loop: sync every `interval` until `stop` fires —
    /// typically the replica server's own signal
    /// ([`ServerHandle::signal`](crate::ServerHandle::signal)), which
    /// ends the wait between passes at once. Failures are recorded on
    /// the gauges (and the connection is re-established next pass) — a
    /// follower outlives primary restarts.
    pub fn run(&mut self, interval: Duration, stop: &Shutdown) {
        while !stop.is_fired() {
            let _ = self.sync_once();
            stop.wait(interval);
        }
    }
}

/// Decodes + restores a shipped checkpoint under `schema`, returning
/// the managed replica state and the schema it was restored under —
/// the recovery ladder run over a checkpoint with no journal. A hash
/// mismatch (the primary's schema evolved since this follower booted)
/// takes the ladder's adoption rung: the checkpoint's hash-verified
/// embedded schema replaces the follower's. Unlike recovery on the
/// primary, a follower has no journal to fall back on, so any plan
/// other than a restore is fatal.
fn decode_state(
    schema: &DirectorySchema,
    text: &str,
) -> Result<(ManagedDirectory, DirectorySchema), FollowerError> {
    let none = Journal::empty();
    let plan = RecoveryPlan::new(schema.clone(), Some(Checkpoint::decode(text)), &none);
    let restore_schema = match &plan {
        RecoveryPlan::Restore { schema, .. } => schema.clone(),
        RecoveryPlan::FullReplay { ignored, .. } => {
            let why = ignored.as_ref().map_or_else(String::new, ToString::to_string);
            return Err(FollowerError::Bootstrap(format!("primary checkpoint is unusable: {why}")));
        }
        RecoveryPlan::Fatal(why) => return Err(FollowerError::Bootstrap(why.clone())),
    };
    let base = DirectoryInstance::new(AttributeRegistry::default());
    let recovery =
        plan.execute(base, &none).map_err(|e| FollowerError::Bootstrap(e.to_string()))?;
    Ok((recovery.managed, restore_schema))
}
