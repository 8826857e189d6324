//! The shared directory service behind every connection.
//!
//! [`DirectoryService`] is the concurrency layer of the server: it wraps
//! one [`JournaledDirectory`] so that
//!
//! * **reads** (`SEARCH`) are served from an immutable snapshot — an
//!   `Arc<DirectoryInstance>` cloned out of an `RwLock` in O(1), after
//!   which the search runs with **no lock held**; the snapshot is the
//!   very version the engine holds live, published without a copy, and
//! * **writes** (`TXN`, `MODIFY`) are serialized through a single mutex
//!   around the engine's write-ahead sequence (prepare → guarded apply →
//!   commit), with the snapshot swapped only after the transaction has
//!   been certified legal and committed.
//!
//! Readers therefore observe a sequence of complete, legal instances —
//! either the pre-transaction or the post-transaction state, never a
//! partially applied one. That holds even when a write worker panics
//! mid-transaction: `ManagedDirectory`'s guarded apply restores its own
//! state, the snapshot is only swapped after success, and both locks are
//! recovered from poisoning (`into_inner`), so the next writer proceeds
//! against an intact instance. This is the paper's §4 atomicity contract
//! lifted to a shared, concurrent frontend.
//!
//! ## The sharded backend
//!
//! [`DirectoryService::new_sharded`] swaps the single engine for a
//! [`ShardedDirectory`]: the forest is partitioned by **top-level
//! subtree** — the unit Theorem 4.1 proves transactions decompose into —
//! and every `TXN` is routed by the root RDNs of its DNs. A transaction
//! whose records all live in one shard takes only that shard's lock, so
//! writes to distinct shards commit concurrently; a cross-shard
//! transaction goes through the router's 2-phase apply (prepare on every
//! involved shard, then commit everywhere or roll back everywhere).
//! Each shard publishes its **own** snapshot: readers still only ever
//! observe complete, §3-legal states, and an unscoped search simply
//! fans out over the per-shard snapshots in shard order. The read side
//! is the same code on both backends — a `Vec` of snapshots, of length
//! one on the single engine — and the private `Backend` enum survives
//! only to route the write verbs and `SHIP`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

use bschema_core::checkpoint::schema_hash;
use bschema_core::engine::{append_sync, read_optional, JournaledDirectory, Op, OpenError};
use bschema_core::evolution::plan::{parse_proposal, EvolutionPlan, PlanError};
use bschema_core::journal::{Journal, JournalTx};
use bschema_core::legality::LegalityReport;
use bschema_core::managed::ManagedError;
use bschema_core::schema::DirectorySchema;
use bschema_core::sharded::{canonical_merge, ShardedDirectory};
use bschema_core::updates::{transaction_from_ldif, Mod};
use bschema_core::ManagedDirectory;
use bschema_directory::ldif::{parse_ldif_limited, write_record, LdifLimits, LdifRecord};
use bschema_directory::{DirectoryInstance, Dn};
use bschema_obs::{
    AlertEdge, FlightRecorder, HealthReport, MetricsSnapshot, Probe, RequestTrace, ShardHealth,
    Signal, SpanNode, NO_SPAN,
};
use bschema_query::{
    explain, parse_filter_limited, search, EvalContext, Query, SearchRequest, SearchScope,
    DEFAULT_FILTER_DEPTH,
};

use crate::codec::WireLimits;
use crate::monitor::Monitor;

/// Resource bounds for everything that arrives over the socket.
#[derive(Debug, Clone)]
pub struct ServiceLimits {
    /// Bounds on LDIF payloads (`TXN` bodies). Defaults to
    /// [`LdifLimits::strict`] — the untrusted-input profile.
    pub ldif: LdifLimits,
    /// Maximum filter nesting depth accepted from `SEARCH`.
    pub filter_depth: usize,
    /// Frame-level bounds (header and payload size).
    pub wire: WireLimits,
}

impl Default for ServiceLimits {
    fn default() -> Self {
        ServiceLimits {
            ldif: LdifLimits::strict(),
            filter_depth: DEFAULT_FILTER_DEPTH,
            wire: WireLimits::default(),
        }
    }
}

/// A request the service refused. `code` is the stable wire code echoed
/// in `ERR <code>` responses; `detail` is the human-readable payload.
///
/// For every code except `io`, a rejected write leaves the directory
/// byte-identical to its pre-request state (see
/// `DirectoryInstance::canonical_bytes`) — the loopback suite asserts
/// exactly this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// Stable machine-readable code (`bad-ldif`, `illegal-instance`, …).
    pub code: &'static str,
    /// Human-readable explanation.
    pub detail: String,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.detail)
    }
}

impl std::error::Error for ServiceError {}

impl ServiceError {
    fn new(code: &'static str, detail: impl Into<String>) -> Self {
        ServiceError { code, detail: detail.into() }
    }

    fn from_managed(e: &ManagedError) -> Self {
        ServiceError { code: e.code(), detail: e.to_string() }
    }
}

/// What a committed write changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxOutcome {
    /// Operations in the transaction (insertions + deletions; 1 for a
    /// `MODIFY`).
    pub ops: usize,
    /// Directory size after the commit.
    pub len: usize,
    /// Shards the transaction touched (always 1 on the single-engine
    /// backend; > 1 means the 2-phase cross-shard path committed it).
    pub shards: usize,
}

/// The write side. The single backend is one engine behind one write
/// mutex; the sharded backend is a [`ShardedDirectory`], which routes
/// each write to the shards owning its top-level subtrees (Theorem 4.1
/// boundaries) and locks only those. Everything a reader touches lives
/// in [`DirectoryService::snapshots`], not here.
// One per service, never moved around: boxing a variant buys nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum Backend {
    Single(Mutex<JournaledDirectory>),
    Sharded(ShardedDirectory),
}

/// A write verb, parsed but not yet routed.
enum Write<'a> {
    Txn(Vec<LdifRecord>),
    Modify { dn: &'a Dn, dn_src: &'a str, mods: &'a [Mod] },
}

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

/// A staged schema evolution: the parsed [`EvolutionPlan`] plus the
/// freshness token of its last successful off-write-path recheck.
#[derive(Debug)]
struct StagedEvolution {
    plan: EvolutionPlan,
    /// `commit_counter` observed when `SCHEMA CHECK` passed; `None`
    /// until a check passes (and again after a failed one). When it
    /// still equals the live counter at `SCHEMA COMMIT` time on the
    /// single backend, nothing committed since the checked snapshot, so
    /// the commit can skip the under-lock recheck entirely.
    checked_at: Option<u64>,
}

/// The shared, thread-safe directory service. See the module docs for
/// the snapshot/write-lock protocol.
#[derive(Debug)]
pub struct DirectoryService {
    backend: Backend,
    /// One published read snapshot per shard (exactly one on the single
    /// backend): what every read verb sees.
    snapshots: Vec<RwLock<Arc<DirectoryInstance>>>,
    /// Whether a journal is attached — without one there is nothing to
    /// checkpoint or ship.
    journaled: bool,
    /// Commits since the last checkpoint, the `--checkpoint-every`
    /// trigger. Advisory on the sharded backend (single-shard commits
    /// race on it); the worst race is one extra campaign, which is
    /// idempotent.
    since_checkpoint: AtomicU64,
    probe: Arc<dyn Probe + Send + Sync>,
    recorder: Option<Arc<bschema_obs::Recorder>>,
    flight: Option<Arc<FlightRecorder>>,
    monitor: Option<Arc<Monitor>>,
    /// The service's monotonic epoch: tick timestamps and snapshot-swap
    /// stamps are microseconds since this instant.
    origin: Instant,
    /// Per-shard µs-since-`origin` of the last snapshot publish (index 0
    /// on the single backend). 0 = never swapped, so age reads as
    /// time-since-start.
    last_swap_us: Vec<AtomicU64>,
    stats_baseline: Mutex<MetricsSnapshot>,
    limits: ServiceLimits,
    /// Checkpoint + truncate the journal every N commits (`None` =
    /// never; explicit `CHECKPOINT`/`checkpoint_now` still works).
    checkpoint_every: Option<u64>,
    /// A read replica: every write verb is refused with the stable
    /// `read-only` code; mutations arrive only through
    /// [`replicate_tx`](DirectoryService::replicate_tx).
    read_only: bool,
    /// Replication-lag gauges, present when this service is a follower.
    replication: Option<Arc<ReplicationState>>,
    /// The evolution plane: at most one staged schema proposal at a
    /// time (`SCHEMA PROPOSE` → `CHECK` → `COMMIT`/`ABORT`).
    evolution: Mutex<Option<StagedEvolution>>,
    /// Completed schema cutovers since this service started — the
    /// `HEALTH` plane's `schema_epoch` signal. A restart resets it; the
    /// schema *hash* identifies a schema across restarts.
    schema_epoch: AtomicU64,
    /// Committed writes (TXN + MODIFY). On the single backend this is
    /// bumped under the write mutex, making it a sound freshness token
    /// for `SCHEMA CHECK`/`COMMIT`; on the sharded backend bumps race
    /// past the shard locks, so the cutover path always rechecks under
    /// its own locks instead of trusting the counter.
    commit_counter: AtomicU64,
}

/// Locks here never stay poisoned: a panicking writer's state was
/// already restored by the guarded apply, so the lock contents are
/// intact and the next holder may proceed.
fn lock_unpoisoned<T>(lock: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

impl DirectoryService {
    /// Wraps a managed directory. The initial snapshot is the current
    /// instance.
    pub fn new(managed: ManagedDirectory) -> Self {
        Self::from_backend(Backend::Single(Mutex::new(JournaledDirectory::new(managed))), 1)
    }

    /// Wraps a sharded directory: `dir` is validated and partitioned
    /// into `shards` top-level-subtree shards (see
    /// [`ShardedDirectory::with_instance`]); transactions are routed by
    /// DN prefix so writes to distinct shards commit concurrently.
    pub fn new_sharded(
        schema: DirectorySchema,
        dir: DirectoryInstance,
        shards: usize,
    ) -> Result<Self, ServiceError> {
        let sharded = ShardedDirectory::with_instance(schema, dir, shards)
            .map_err(|e| ServiceError::from_managed(&e))?;
        let shards = sharded.shards();
        Ok(Self::from_backend(Backend::Sharded(sharded), shards))
    }

    fn from_backend(backend: Backend, shards: usize) -> Self {
        let empty = Arc::new(DirectoryInstance::new(Default::default()));
        let mut service = DirectoryService {
            backend,
            snapshots: (0..shards).map(|_| RwLock::new(empty.clone())).collect(),
            journaled: false,
            since_checkpoint: AtomicU64::new(0),
            probe: Arc::new(bschema_obs::NoopProbe),
            recorder: None,
            flight: None,
            monitor: None,
            origin: Instant::now(),
            last_swap_us: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            stats_baseline: Mutex::new(MetricsSnapshot::default()),
            limits: ServiceLimits::default(),
            checkpoint_every: None,
            read_only: false,
            replication: None,
            evolution: Mutex::new(None),
            schema_epoch: AtomicU64::new(0),
            commit_counter: AtomicU64::new(0),
        };
        service.refresh_snapshots();
        service
    }

    /// Number of write shards behind this service (1 for the classic
    /// single-engine backend).
    pub fn shards(&self) -> usize {
        self.snapshots.len()
    }

    /// The sharded router, when there is one.
    fn sharded(&self) -> Option<&ShardedDirectory> {
        match &self.backend {
            Backend::Single(_) => None,
            Backend::Sharded(sharded) => Some(sharded),
        }
    }

    /// Runs `f` on shard `k`'s engine under its write lock (`k = 0` on
    /// the single backend).
    fn with_engine<R>(&self, k: usize, f: impl FnOnce(&JournaledDirectory) -> R) -> R {
        match &self.backend {
            Backend::Single(engine) => f(&lock_unpoisoned(engine)),
            Backend::Sharded(sharded) => sharded.with_shard(k, f),
        }
    }

    /// The version shard `k`'s engine holds live (`k = 0` on the single
    /// backend), taken under its write lock. What the last publish gave
    /// the readers is this very allocation, not a copy of it.
    #[doc(hidden)]
    pub fn live_instance(&self, k: usize) -> Arc<DirectoryInstance> {
        self.with_engine(k, JournaledDirectory::shared_instance)
    }

    /// Re-derives every read snapshot from the engines — at boot and
    /// after recovery replaced them. Not a commit: nothing is counted.
    fn refresh_snapshots(&mut self) {
        for k in 0..self.shards() {
            let next = self.live_instance(k);
            *self.snapshots[k].get_mut().unwrap_or_else(|e| e.into_inner()) = next;
        }
    }

    /// Replaces the resource limits.
    pub fn with_limits(mut self, limits: ServiceLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Attaches `probe` to the request path **and** to the inner
    /// engine(s), so one probe sees both the `server.*` sites and the
    /// legality engine's counters/spans (plus, on a sharded backend,
    /// the router's `sharded.*` 2-phase sites).
    pub fn with_probe(mut self, probe: Arc<dyn Probe + Send + Sync>) -> Self {
        self.backend = match self.backend {
            Backend::Single(engine) => {
                let mut engine = engine.into_inner().unwrap_or_else(|e| e.into_inner());
                engine.swap_probe(Some(probe.clone()));
                Backend::Single(Mutex::new(engine))
            }
            Backend::Sharded(sharded) => Backend::Sharded(sharded.with_probe(probe.clone())),
        };
        self.probe = probe;
        self
    }

    /// Checkpoints + truncates the journal after every `every` commits
    /// (clamped to at least 1). Needs a journal attached to take effect;
    /// on the sharded backend this runs the all-shard campaign.
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = Some(every.max(1));
        self
    }

    /// Turns this service into a read replica: `TXN` and `MODIFY` are
    /// refused with the stable `read-only` code, and mutations arrive
    /// only through [`replicate_tx`](DirectoryService::replicate_tx).
    pub fn with_read_only(mut self) -> Self {
        self.read_only = true;
        self
    }

    /// Whether this service refuses client writes.
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// Attaches the replication-lag gauges a follower's ship loop
    /// updates; `HEALTH` then reports `replication_lag_records` and
    /// `ship_age_s` signals plus a `replication` section.
    pub fn with_replication(mut self, replication: Arc<ReplicationState>) -> Self {
        self.replication = Some(replication);
        self
    }

    /// The attached replication gauges, if this service is a follower.
    pub fn replication(&self) -> Option<&Arc<ReplicationState>> {
        self.replication.as_ref()
    }

    /// Attaches the recorder the `METRICS` verb reads from. This only
    /// wires up the export side — to actually collect, pass the same
    /// recorder (or a fault plan forwarding to it) to
    /// [`with_probe`](DirectoryService::with_probe).
    pub fn with_recorder(mut self, recorder: Arc<bschema_obs::Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The recorder's combined trace + metrics state as one JSON line,
    /// or `None` when no recorder is attached.
    pub fn metrics_json(&self) -> Option<String> {
        self.recorder.as_ref().map(|r| r.to_json())
    }

    /// Attaches the flight recorder the `TRACE` verb reads from. This
    /// also switches request handling into traced mode: every frame gets
    /// a [`RequestTrace`] whose completed span tree is admitted here.
    pub fn with_flight_recorder(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.flight = Some(flight);
        self
    }

    /// The attached flight recorder, if any.
    pub fn flight(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref()
    }

    /// Attaches the monitor plane the `HEALTH`/`WATCH` verbs and the
    /// sampler thread share. The sampler itself is spawned by
    /// [`Server::spawn`](crate::server::Server::spawn) when a monitor
    /// is present.
    pub fn with_monitor(mut self, monitor: Arc<Monitor>) -> Self {
        self.monitor = Some(monitor);
        self
    }

    /// The attached monitor plane, if any.
    pub fn monitor(&self) -> Option<&Arc<Monitor>> {
        self.monitor.as_ref()
    }

    /// Microseconds since this service was constructed — the clock tick
    /// timestamps and snapshot-swap stamps are taken on.
    pub fn uptime_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// The flight recorder's buffer as one JSON line, or `None` when the
    /// server runs without `--trace`.
    pub fn trace_json(&self) -> Option<String> {
        self.flight.as_ref().map(|f| f.to_json())
    }

    /// One scrape of the `STATS` verb: the counter/histogram **deltas**
    /// since the previous call (the first call deltas against zero), as
    /// stable-ordered JSON. Series idle over the interval are omitted.
    /// `None` when no recorder is attached.
    pub fn stats_json(&self) -> Option<String> {
        let recorder = self.recorder.as_ref()?;
        let current = recorder.metrics().snapshot();
        let mut baseline = lock_unpoisoned(&self.stats_baseline);
        let delta = current.delta_since(&baseline);
        *baseline = current;
        Some(delta.to_json())
    }

    /// Opens a per-request trace rooted at `root_name`, or `None` when
    /// the service runs untraced (no flight recorder attached). The
    /// trace forwards counters to the service probe while collecting the
    /// request's span tree privately.
    pub fn begin_trace(&self, root_name: &'static str) -> Option<Arc<RequestTrace>> {
        self.flight.as_ref()?;
        Some(Arc::new(RequestTrace::new(self.probe.clone(), root_name)))
    }

    /// Attaches a write-ahead journal at `path`, recovering any existing
    /// state first through the checkpoint-aware ladder
    /// ([`JournaledDirectory::open`]): when a sibling checkpoint file
    /// (`<path>.ckpt`) is present and usable, the forest is restored
    /// from it and only the journal **tail** replays through the checked
    /// apply path; otherwise the whole journal replays from the seed
    /// instance. A torn journal tail (crash during a write) is repaired
    /// in place, and the writer resumes after the highest recorded seq
    /// on either source. On the sharded backend `path` names a family of
    /// per-shard files (`<path>.shard<k>`, each with its own checkpoint
    /// sibling) and 2-phase commits torn between peers are reconciled
    /// first ([`ShardedDirectory::open`]). Returns the number of
    /// transactions replayed (tails only, after a checkpoint restore).
    pub fn with_journal(mut self, path: impl Into<PathBuf>) -> Result<(Self, usize), ServiceError> {
        let path = path.into();
        let refused = |e: OpenError| match e {
            OpenError::Io(e) => ServiceError::new("io", e.to_string()),
            OpenError::Recovery(e) => ServiceError::from_managed(&e),
        };
        let (backend, reports) = match self.backend {
            Backend::Single(engine) => {
                let base = engine.into_inner().unwrap_or_else(|e| e.into_inner()).into_managed();
                let (engine, report) = JournaledDirectory::open(base, path).map_err(refused)?;
                (Backend::Single(Mutex::new(engine)), vec![report])
            }
            Backend::Sharded(sharded) => {
                let (sharded, reports) = sharded.open(&path).map_err(refused)?;
                (Backend::Sharded(sharded), reports)
            }
        };
        self.backend = backend;
        self.journaled = true;
        // `STATUS`'s epoch counter survives the restart: every schema
        // record the replay applied is a cutover this state has absorbed
        // (evolutions folded into a used checkpoint are its epoch-0
        // baseline). Every shard journals its own copy of each schema
        // record, so shard 0 stands in for the family.
        self.schema_epoch.store(reports[0].schema_cutovers as u64, Ordering::SeqCst);
        self.refresh_snapshots();
        Ok((self, reports.iter().map(|r| r.replayed).sum()))
    }

    /// The configured limits.
    pub fn limits(&self) -> &ServiceLimits {
        &self.limits
    }

    /// The current read snapshot — a complete, legal instance. On the
    /// single backend this is cheap (one `Arc` clone under a read
    /// lock). On a sharded backend it is the **canonical merge** of the
    /// per-shard snapshots — an O(n) rebuild, meant for assertions and
    /// diagnostics, not the request path (searches fan out over
    /// [`shard_snapshot`](DirectoryService::shard_snapshot)s instead).
    pub fn snapshot(&self) -> Arc<DirectoryInstance> {
        if self.sharded().is_none() {
            return self.shard_snapshot(0);
        }
        let parts: Vec<Arc<DirectoryInstance>> =
            (0..self.shards()).map(|k| self.shard_snapshot(k)).collect();
        let merged = canonical_merge(parts.iter().map(Arc::as_ref))
            .expect("published shard snapshots merge");
        Arc::new(merged)
    }

    /// Shard `k`'s current read snapshot (`k = 0` on the single
    /// backend). Always cheap: one `Arc` clone under that shard's read
    /// lock.
    pub fn shard_snapshot(&self, k: usize) -> Arc<DirectoryInstance> {
        self.snapshots[k].read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Directory size, from the read snapshot(s).
    pub fn len(&self) -> usize {
        (0..self.shards()).map(|k| self.shard_snapshot(k).len()).sum()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serves a search: parses `filter_src` (depth-capped), resolves the
    /// optional base DN against the snapshot, and returns the matching
    /// entries as LDIF text. Runs entirely on the snapshot — no lock
    /// held during evaluation.
    pub fn search(
        &self,
        base: Option<&str>,
        scope: SearchScope,
        filter_src: &str,
        limit: Option<usize>,
    ) -> Result<(usize, String), ServiceError> {
        self.search_traced(base, scope, filter_src, limit, None)
    }

    /// [`search`](DirectoryService::search) with an optional per-request
    /// trace: the whole evaluation runs inside one `service.search` span
    /// hung under the request root.
    pub fn search_traced(
        &self,
        base: Option<&str>,
        scope: SearchScope,
        filter_src: &str,
        limit: Option<usize>,
        trace: Option<&Arc<RequestTrace>>,
    ) -> Result<(usize, String), ServiceError> {
        let probe = self.request_probe(trace);
        let span = probe.span_start(NO_SPAN, "service.search", 0);
        let result = self.search_inner(base, scope, filter_src, limit, probe);
        probe.span_end(span);
        result
    }

    fn search_inner(
        &self,
        base: Option<&str>,
        scope: SearchScope,
        filter_src: &str,
        limit: Option<usize>,
        probe: &dyn Probe,
    ) -> Result<(usize, String), ServiceError> {
        let plan = self.build_search(base, scope, filter_src)?;
        let mut out = String::new();
        let mut total = 0usize;
        let mut remaining = limit;
        for (i, (_, snapshot, mut request)) in plan.into_iter().enumerate() {
            if let Some(r) = remaining {
                if r == 0 && i > 0 {
                    break;
                }
                request = request.with_size_limit(r);
            }
            let ids = search(&snapshot, &request);
            for &id in &ids {
                let dn =
                    snapshot.dn(id).map_err(|e| ServiceError::new("internal", e.to_string()))?;
                let entry = snapshot
                    .entry(id)
                    .ok_or_else(|| ServiceError::new("internal", format!("dangling id {id}")))?;
                write_record(&mut out, &dn.to_string(), entry);
            }
            total += ids.len();
            if let Some(r) = &mut remaining {
                *r -= ids.len().min(*r);
            }
        }
        probe.add("server.search_entries", total as u64);
        Ok((total, out))
    }

    /// EXPLAIN for a search: runs the filter through the plan-recording
    /// evaluator and returns `(returned, json)` where `json` describes
    /// the evaluation plan — access path per step (index reused, seeded
    /// scan, or full scan), candidate-set sizes, entries scanned vs.
    /// matched — plus the scope restriction and final result count.
    /// The snapshot is not mutated and no counters are emitted.
    pub fn search_explain(
        &self,
        base: Option<&str>,
        scope: SearchScope,
        filter_src: &str,
        limit: Option<usize>,
    ) -> Result<(usize, String), ServiceError> {
        let plan = self.build_search(base, scope, filter_src)?;
        let mut total = 0usize;
        let mut remaining = limit;
        let mut reports: Vec<(usize, String)> = Vec::new();
        for (i, (k, snapshot, mut request)) in plan.into_iter().enumerate() {
            if let Some(r) = remaining {
                if r == 0 && i > 0 {
                    break;
                }
                request = request.with_size_limit(r);
            }
            let report =
                explain(&EvalContext::new(&snapshot), &Query::select(request.filter.clone()));
            let found = search(&snapshot, &request).len();
            total += found;
            if let Some(r) = &mut remaining {
                *r -= found.min(*r);
            }
            reports.push((k, report.to_json()));
        }
        let scope_name = match scope {
            SearchScope::Base => "base",
            SearchScope::OneLevel => "one",
            SearchScope::Subtree => "sub",
        };
        let head = format!(
            "{{\"scope\":{},\"base\":{},\"returned\":{total}",
            bschema_obs::json::escape(scope_name),
            base.map_or_else(|| "null".to_owned(), bschema_obs::json::escape),
        );
        let json = match self.sharded() {
            None => {
                let report = reports.pop().map_or_else(|| "null".to_owned(), |(_, json)| json);
                format!("{head},\"explain\":{report}}}")
            }
            // Sharded: one plan per shard the search fanned out to, in
            // shard order, each labeled with its shard index.
            Some(_) => {
                let body: Vec<String> = reports
                    .into_iter()
                    .map(|(k, json)| format!("{{\"shard\":{k},\"explain\":{json}}}"))
                    .collect();
                format!("{head},\"shards\":[{}]}}", body.join(","))
            }
        };
        Ok((total, json))
    }

    /// Shared front half of the search paths: parse the filter
    /// (depth-capped) and assemble one `(shard, snapshot, request)`
    /// target per shard the search must visit — exactly one for a
    /// base-scoped search (a base DN's whole subtree lives on the shard
    /// owning its top-level RDN, the Theorem 4.1 boundary) or on the
    /// single backend; every shard in index order for an unscoped
    /// search on the sharded backend. Size limits are applied by the
    /// callers, which thread the remaining budget across targets.
    fn build_search(
        &self,
        base: Option<&str>,
        scope: SearchScope,
        filter_src: &str,
    ) -> Result<Vec<(usize, Arc<DirectoryInstance>, SearchRequest)>, ServiceError> {
        let filter = parse_filter_limited(filter_src, self.limits.filter_depth)
            .map_err(|e| ServiceError::new("bad-filter", e.to_string()))?;
        match base {
            Some(dn_src) => {
                let dn =
                    Dn::parse(dn_src).map_err(|e| ServiceError::new("bad-dn", e.to_string()))?;
                let k = self.sharded().map_or(0, |sharded| sharded.shard_of_dn(&dn));
                let snapshot = self.shard_snapshot(k);
                let id = snapshot.lookup_dn(&dn).ok_or_else(|| {
                    ServiceError::new("no-such-base", format!("no entry named {dn_src}"))
                })?;
                Ok(vec![(k, snapshot, SearchRequest::under(id, scope, filter))])
            }
            None => Ok((0..self.shards())
                .map(|k| {
                    let mut r = SearchRequest::whole_directory(filter.clone());
                    r.scope = scope;
                    (k, self.shard_snapshot(k), r)
                })
                .collect()),
        }
    }

    /// The probe a request's service-level spans and counters go
    /// through: the per-request trace when one is open, otherwise the
    /// shared service probe.
    fn request_probe<'a>(&'a self, trace: Option<&'a Arc<RequestTrace>>) -> &'a dyn Probe {
        match trace {
            Some(t) => t.as_ref(),
            None => &*self.probe,
        }
    }

    /// Applies an LDIF transaction body atomically: parse (bounded),
    /// build the transaction against the current instance, write-ahead
    /// `begin`, checked apply, `commit`, snapshot swap. On any rejection
    /// the instance — and the snapshot — are exactly what they were.
    pub fn apply_ldif_tx(&self, ldif: &str) -> Result<TxOutcome, ServiceError> {
        self.apply_ldif_tx_traced(ldif, None)
    }

    /// [`apply_ldif_tx`](DirectoryService::apply_ldif_tx) with an
    /// optional per-request trace. Each stage of the write path opens a
    /// `service.*` span, and the managed directory's probe is swapped to
    /// the trace for the duration of the apply, so the legality engine's
    /// span tree (down to each Figure 5 Δ-query) lands under this
    /// request's root instead of the shared tracer.
    pub fn apply_ldif_tx_traced(
        &self,
        ldif: &str,
        trace: Option<&Arc<RequestTrace>>,
    ) -> Result<TxOutcome, ServiceError> {
        let probe = self.request_probe(trace);
        if self.read_only {
            probe.add_labeled("server.tx_rejected", "read-only", 1);
            return Err(Self::read_only_refusal());
        }
        let records = scoped(probe, "service.parse_ldif", || {
            parse_ldif_limited(ldif, &self.limits.ldif)
                .map_err(|e| ServiceError::new("bad-ldif", e.to_string()))
        })?;
        self.write(Write::Txn(records), probe, trace)
    }

    /// Applies an attribute-level modification to the entry named `dn`,
    /// atomically through the same write path as `TXN`. On a journaled
    /// server the modification is write-ahead logged as a `modify`
    /// record, so recovery replays it; on the sharded backend it routes
    /// to the single shard owning the DN's top-level subtree — MODIFY
    /// never crosses a Theorem 4.1 boundary, so the 2-phase path is
    /// never needed.
    pub fn modify(&self, dn_src: &str, mods: &[Mod]) -> Result<TxOutcome, ServiceError> {
        if self.read_only {
            self.probe.add_labeled("server.tx_rejected", "read-only", 1);
            return Err(Self::read_only_refusal());
        }
        let dn = Dn::parse(dn_src).map_err(|e| ServiceError::new("bad-dn", e.to_string()))?;
        self.write(Write::Modify { dn: &dn, dn_src, mods }, &*self.probe, None)
    }

    /// Routes a write verb to its backend — the one place the write
    /// side dispatches.
    fn write(
        &self,
        write: Write<'_>,
        probe: &dyn Probe,
        trace: Option<&Arc<RequestTrace>>,
    ) -> Result<TxOutcome, ServiceError> {
        match &self.backend {
            Backend::Single(engine) => {
                self.write_single(&mut lock_unpoisoned(engine), write, probe, trace)
            }
            Backend::Sharded(sharded) => self.write_sharded(sharded, write, probe),
        }
    }

    /// The single-engine write path, under the held write mutex: build
    /// the operation against the current instance, then the engine's
    /// write-ahead sequence — the guarded apply on a structurally shared
    /// copy, `begin` durable only after the legal verdict, `commit`,
    /// and the copy installed last — each journal step in its own
    /// `service.*` span, then publish. On any rejection the instance,
    /// the snapshot and the journal are exactly what they were.
    fn write_single(
        &self,
        engine: &mut JournaledDirectory,
        write: Write<'_>,
        probe: &dyn Probe,
        trace: Option<&Arc<RequestTrace>>,
    ) -> Result<TxOutcome, ServiceError> {
        // Fault site: a worker dying here has changed nothing.
        probe.add("server.tx_admitted", 1);
        let tx;
        let (op, ops) = match write {
            Write::Txn(records) => {
                tx = scoped(probe, "service.tx_build", || {
                    transaction_from_ldif(engine.instance(), records)
                        .map_err(|e| ServiceError::new("invalid-tx", e.to_string()))
                })?;
                (Op::Tx { tx: &tx, global: None }, tx.len())
            }
            Write::Modify { dn, dn_src, mods } => {
                let target = engine.instance().lookup_dn(dn).ok_or_else(|| {
                    ServiceError::new("no-such-entry", format!("no entry named {dn_src}"))
                })?;
                (Op::Modify { target, mods }, mods.len())
            }
        };

        let certified = match trace {
            Some(t) => {
                // Route the legality engine's spans into this request's
                // tree. The swap is panic-safe: an injected fault inside
                // the guarded apply must not leave a dead trace wired
                // into the shared managed directory.
                let prev = engine.swap_probe(Some(t.clone() as Arc<dyn Probe + Send + Sync>));
                let caught =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.certify(op)));
                engine.swap_probe(prev);
                match caught {
                    Ok(result) => result,
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            None => engine.certify(op),
        };

        match certified {
            Ok(certified) => {
                // Write-ahead: the begin + op records must be durable
                // before the live state changes, so a crash from here on
                // leaves an uncommitted tail that recovery discards.
                let begun = scoped(probe, "service.journal_begin", || engine.begin(certified))
                    .map_err(|e| ServiceError::new("io", format!("journal begin: {e}")))?;
                // A failed commit flush does not revoke the verdict;
                // only durability degraded. The engine counts it
                // (`server.journal_commit_io_error`) instead of failing
                // the certified request.
                let (committed, _counted) =
                    scoped(probe, "service.journal_commit", || engine.commit(begun));
                engine.install(committed);
                let outcome = TxOutcome { ops, len: engine.managed().len(), shards: 1 };
                scoped(probe, "service.publish", || {
                    self.publish(0, engine.shared_instance(), probe)
                });
                // Fault site: a worker dying here has already committed;
                // the client sees "panicked" (outcome unknown), readers
                // see the new legal instance.
                probe.add("server.tx_committed", 1);
                self.commit_counter.fetch_add(1, Ordering::SeqCst);
                self.after_commit(Some(engine));
                Ok(outcome)
            }
            Err(e) => {
                // The copy the guarded apply ran on is gone; neither
                // the instance nor the journal ever saw the operation.
                probe.add_labeled("server.tx_rejected", e.code(), 1);
                Err(ServiceError::from_managed(&e))
            }
        }
    }

    /// The sharded write path: the router decodes, vets (◇c ledger),
    /// journals and applies the write on exactly the shards its DN
    /// prefixes route to — one locked shard on the fast path (always,
    /// for a MODIFY), the 2-phase apply across all involved shards
    /// otherwise — then each touched shard republishes its own
    /// snapshot. Untouched shards keep serving reads and committing
    /// concurrently throughout.
    fn write_sharded(
        &self,
        sharded: &ShardedDirectory,
        write: Write<'_>,
        probe: &dyn Probe,
    ) -> Result<TxOutcome, ServiceError> {
        probe.add("server.tx_admitted", 1);
        let applied = scoped(probe, "service.apply_sharded", || match write {
            Write::Txn(records) => sharded.apply_ldif(records),
            Write::Modify { dn, mods, .. } => sharded.modify_dn(dn, mods),
        });
        match applied {
            Ok(outcome) => {
                scoped(probe, "service.publish", || {
                    for &k in &outcome.shards {
                        sharded.with_shard(k, |engine| {
                            self.publish(k, engine.shared_instance(), probe)
                        });
                    }
                });
                probe.add_labeled(
                    "server.tx_route",
                    if outcome.shards.len() > 1 { "cross" } else { "single" },
                    1,
                );
                probe.add("server.tx_committed", 1);
                self.commit_counter.fetch_add(1, Ordering::SeqCst);
                let shards = outcome.shards.len().max(1);
                self.after_commit(None);
                Ok(TxOutcome { ops: outcome.ops, len: self.len(), shards })
            }
            Err(e) => {
                let code = e.code();
                probe.add_labeled("server.tx_rejected", code, 1);
                Err(ServiceError { code, detail: e.to_string() })
            }
        }
    }

    /// The stable refusal every write verb gets on a read replica.
    fn read_only_refusal() -> ServiceError {
        ServiceError::new("read-only", "this server is a read replica; send writes to the primary")
    }

    /// Publishes `live` — the version shard `k`'s engine just installed
    /// — as its read snapshot: the one place a committed state becomes
    /// visible to readers, called with the lock that serialises shard
    /// `k`'s writes still held, so snapshots appear in commit order.
    /// Nothing is copied. The superseded version is released last and
    /// outside the slot's lock, so no reader waits on its drop.
    fn publish(&self, k: usize, live: Arc<DirectoryInstance>, probe: &dyn Probe) {
        let _superseded = std::mem::replace(
            &mut *self.snapshots[k].write().unwrap_or_else(|e| e.into_inner()),
            live,
        );
        self.stamp_swap(k);
        match self.sharded() {
            None => probe.add("server.snapshot_swap", 1),
            Some(_) => probe.add_labeled("server.shard_snapshot_swap", &format!("shard{k}"), 1),
        }
    }

    /// The probe attached to this service.
    pub fn probe(&self) -> &(dyn Probe + Send + Sync) {
        &*self.probe
    }

    /// Checkpoints now: captures the forest into `<journal>.ckpt`
    /// (synced temp file + rename), then truncates the journal to
    /// empty. Returns the covered seq per shard. Refused with
    /// `unsupported` when no journal is attached — without one there is
    /// nothing to compact and recovery has no file to find.
    pub fn checkpoint_now(&self) -> Result<Vec<u64>, ServiceError> {
        self.checkpoint(None)
    }

    /// The checkpoint routine behind `CHECKPOINT` and the
    /// `--checkpoint-every` trigger. Capture → write → truncate admits
    /// no interleaved commit: on the single backend it runs under the
    /// write mutex (`held` is the caller's guard when it already has
    /// one), on the sharded backend the campaign holds every shard lock
    /// ([`ShardedDirectory::checkpoint`]).
    fn checkpoint(&self, held: Option<&mut JournaledDirectory>) -> Result<Vec<u64>, ServiceError> {
        let probe = &*self.probe;
        let seqs = match &self.backend {
            Backend::Sharded(sharded) => sharded.checkpoint(probe),
            Backend::Single(engine) => match held {
                Some(engine) => engine.checkpoint(probe),
                None => lock_unpoisoned(engine).checkpoint(probe),
            }
            .map(|seq| vec![seq]),
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

    /// The `--checkpoint-every` trigger, called after every commit
    /// (with the write mutex still held on the single backend). A
    /// failed checkpoint surfaces through the probe, never by failing
    /// the already-committed request; the counter stays saturated so
    /// the next commit retries.
    fn after_commit(&self, held: Option<&mut JournaledDirectory>) {
        let Some(every) = self.checkpoint_every else { return };
        if !self.journaled {
            return;
        }
        if self.since_checkpoint.fetch_add(1, Ordering::Relaxed) + 1 >= every {
            if let Err(e) = self.checkpoint(held) {
                self.probe.add_labeled("server.checkpoint_error", e.code, 1);
            }
        }
    }

    /// The single engine under its write mutex, for the verbs that only
    /// exist there (`SHIP` and its follower side).
    fn single_engine(
        &self,
        refusal: &'static str,
    ) -> Result<MutexGuard<'_, JournaledDirectory>, ServiceError> {
        match &self.backend {
            Backend::Single(engine) => Ok(lock_unpoisoned(engine)),
            Backend::Sharded(_) => Err(ServiceError::new("unsupported", refusal)),
        }
    }

    /// [`single_engine`](Self::single_engine) of a journaled primary,
    /// with its journal file.
    fn shipping_engine(
        &self,
    ) -> Result<(MutexGuard<'_, JournaledDirectory>, PathBuf), ServiceError> {
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
        let tail = journal_text_from(&text[..parsed.intact_len], from_seq).ok_or_else(|| {
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
        engine.replay(jtx).map_err(|e| {
            ServiceError::new("replication", format!("applying shipped tx {}: {e}", jtx.id))
        })?;
        if jtx.schema.is_some() {
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
    /// re-bootstrap path. The previous engine's probe moves over to the
    /// new one, and the snapshot republishes immediately.
    pub fn install_follower_state(&self, managed: ManagedDirectory) -> Result<(), ServiceError> {
        let mut engine =
            self.single_engine("replication applies to the single-engine backend only")?;
        engine.restore(managed);
        self.publish(0, engine.shared_instance(), &*self.probe);
        Ok(())
    }

    /// The current full bounding-schema (with `Cr`), whatever the
    /// backend.
    pub fn current_schema(&self) -> DirectorySchema {
        match &self.backend {
            Backend::Single(engine) => lock_unpoisoned(engine).managed().schema().clone(),
            Backend::Sharded(sharded) => sharded.schema(),
        }
    }

    /// Completed schema cutovers since this service started.
    pub fn schema_epoch(&self) -> u64 {
        self.schema_epoch.load(Ordering::Relaxed)
    }

    /// `SCHEMA PROPOSE`: parses `payload` (a list of evolution steps or
    /// a full schema-DSL document) against the current schema and
    /// stages the resulting plan. At most one proposal is staged at a
    /// time; a second is refused with `schema-pending` until the first
    /// commits or aborts.
    pub fn schema_propose(&self, payload: &str) -> Result<String, ServiceError> {
        if self.read_only {
            return Err(Self::read_only_refusal());
        }
        let mut slot = lock_unpoisoned(&self.evolution);
        if slot.is_some() {
            return Err(ServiceError::new(
                "schema-pending",
                "a schema proposal is already staged; SCHEMA COMMIT or SCHEMA ABORT it first",
            ));
        }
        let current = self.current_schema();
        let plan = parse_proposal(&current, payload).map_err(|e| match &e {
            PlanError::Inconsistent(_) => ServiceError::new("schema-inconsistent", e.to_string()),
            _ => ServiceError::new("schema-invalid", e.to_string()),
        })?;
        self.probe.add("server.schema_propose", 1);
        let body = format!(
            "{{\"staged\":true,\"description\":{},\"relaxing\":{},\"restricting\":{},\"requires_recheck\":{}}}",
            bschema_obs::json::escape(&plan.describe()),
            plan.relaxing,
            plan.restricting,
            !plan.is_relaxing_only(),
        );
        *slot = Some(StagedEvolution { plan, checked_at: None });
        Ok(body)
    }

    /// `SCHEMA CHECK`: runs the staged plan's targeted recheck (§6.2 —
    /// only the restricting steps' new elements; Definition 2.7 exempts
    /// relaxing ones) against a read snapshot, entirely off the write
    /// path. A pass records the commit counter so `SCHEMA COMMIT` can
    /// skip its under-lock recheck when nothing committed in between; a
    /// failure reports the offending entries and leaves the proposal
    /// staged for inspection or abort.
    pub fn schema_check(&self) -> Result<String, ServiceError> {
        let mut slot = lock_unpoisoned(&self.evolution);
        let Some(staged) = slot.as_mut() else {
            return Err(ServiceError::new("schema-none", "no schema proposal is staged"));
        };
        // Load the freshness token *before* the snapshot: any commit
        // after this load bumps the counter, so an unchanged counter at
        // COMMIT time proves the checked snapshot is still the live
        // instance.
        let counter = self.commit_counter.load(Ordering::SeqCst);
        self.probe.add("server.schema_check", 1);
        let snapshot = self.snapshot();
        let report = staged.plan.recheck(&snapshot);
        if report.is_legal() {
            staged.checked_at = Some(counter);
            Ok(format!(
                "{{\"ok\":true,\"mode\":{},\"checked_at\":{counter}}}",
                bschema_obs::json::escape(&staged.plan.describe()),
            ))
        } else {
            staged.checked_at = None;
            Err(ServiceError::new("schema-violates", render_violations(&report, &snapshot)))
        }
    }

    /// `SCHEMA STATUS`: the current epoch, schema hash, and the staged
    /// proposal (if any) as one JSON object.
    pub fn schema_status(&self) -> String {
        let slot = lock_unpoisoned(&self.evolution);
        let pending = match slot.as_ref() {
            Some(staged) => format!(
                "{{\"description\":{},\"relaxing\":{},\"restricting\":{},\"checked\":{}}}",
                bschema_obs::json::escape(&staged.plan.describe()),
                staged.plan.relaxing,
                staged.plan.restricting,
                staged.checked_at.is_some(),
            ),
            None => "null".to_owned(),
        };
        drop(slot);
        format!(
            "{{\"epoch\":{},\"hash\":\"{:016x}\",\"shards\":{},\"pending\":{pending}}}",
            self.schema_epoch(),
            schema_hash(&self.current_schema()),
            self.shards(),
        )
    }

    /// `SCHEMA ABORT`: drops the staged proposal.
    pub fn schema_abort(&self) -> Result<String, ServiceError> {
        if self.read_only {
            return Err(Self::read_only_refusal());
        }
        let mut slot = lock_unpoisoned(&self.evolution);
        if slot.take().is_none() {
            return Err(ServiceError::new("schema-none", "no schema proposal is staged"));
        }
        self.probe.add("server.schema_abort", 1);
        Ok("{\"aborted\":true}".to_owned())
    }

    /// `SCHEMA COMMIT`: the live cutover. Under the write lock (single)
    /// or every shard lock (sharded), the staged plan is revalidated —
    /// skipped entirely for relaxing-only plans (Definition 2.7), and
    /// on the single backend also when nothing committed since a passed
    /// `SCHEMA CHECK` — then the full-schema record is write-ahead
    /// journalled, the commit record lands, and the engine swaps
    /// schemas. The `schema.cutover` fault site sits between the prepare
    /// (journalled schema record) and the swap: a panic there leaves an
    /// uncommitted record that recovery discards, the old epoch intact,
    /// and the proposal still staged — a retry simply succeeds.
    pub fn schema_commit(&self) -> Result<String, ServiceError> {
        if self.read_only {
            return Err(Self::read_only_refusal());
        }
        let mut slot = lock_unpoisoned(&self.evolution);
        let Some(staged) = slot.as_ref() else {
            return Err(ServiceError::new("schema-none", "no schema proposal is staged"));
        };
        let target = staged.plan.target.clone();
        let dsl = staged.plan.dsl.clone();
        match &self.backend {
            Backend::Single(engine) => {
                let mut engine = lock_unpoisoned(engine);
                let unchanged =
                    staged.checked_at == Some(self.commit_counter.load(Ordering::SeqCst));
                if !staged.plan.is_relaxing_only() && !unchanged {
                    let report = staged.plan.recheck(engine.instance());
                    if !report.is_legal() {
                        let detail = render_violations(&report, engine.instance());
                        self.probe.add_labeled("server.tx_rejected", "schema-violates", 1);
                        return Err(ServiceError::new("schema-violates", detail));
                    }
                }
                // Write-ahead: the schema record must be durable before
                // the swap, mirroring the TXN begin/commit discipline.
                let cutover = Op::Schema { schema: &target, dsl: &dsl, local: false, global: None };
                let certified =
                    engine.certify(cutover).map_err(|e| ServiceError::from_managed(&e))?;
                let begun = engine
                    .begin(certified)
                    .map_err(|e| ServiceError::new("io", format!("journal begin: {e}")))?;
                // Fault site between prepare and swap (see method docs).
                self.probe.add("schema.cutover", 1);
                let (committed, _counted) = engine.commit(begun);
                engine.install(committed);
                self.publish(0, engine.shared_instance(), &*self.probe);
            }
            Backend::Sharded(sharded) => {
                let plan = staged.plan.clone();
                let violation = std::cell::RefCell::new(None);
                let result = sharded.swap_schema_validated(target, &dsl, |merged| {
                    // The counter is not trusted here (sharded commits
                    // bump it outside the shard locks); restricting
                    // plans always revalidate under the locks.
                    if !plan.is_relaxing_only() {
                        let report = plan.recheck(merged);
                        if !report.is_legal() {
                            *violation.borrow_mut() = Some(render_violations(&report, merged));
                            return Err(ManagedError::IllegalInstance(report).into());
                        }
                    }
                    Ok(())
                });
                if let Some(detail) = violation.into_inner() {
                    self.probe.add_labeled("server.tx_rejected", "schema-violates", 1);
                    return Err(ServiceError::new("schema-violates", detail));
                }
                result.map_err(|e| ServiceError { code: e.code(), detail: e.to_string() })?;
            }
        }
        let epoch = self.schema_epoch.fetch_add(1, Ordering::SeqCst) + 1;
        *slot = None;
        self.probe.add("server.schema_commit", 1);
        Ok(format!(
            "{{\"committed\":true,\"epoch\":{epoch},\"hash\":\"{:016x}\"}}",
            schema_hash(&self.current_schema()),
        ))
    }

    /// The cumulative registry in Prometheus-style text exposition
    /// (`# TYPE` lines, `bschema_`-prefixed sanitised names, summary
    /// quantiles). `None` when no recorder is attached.
    pub fn metrics_prom(&self) -> Option<String> {
        self.recorder.as_ref().map(|r| r.metrics().render_prom())
    }

    /// Stamps shard `k`'s snapshot-swap clock (µs since `origin`).
    fn stamp_swap(&self, k: usize) {
        if let Some(slot) = self.last_swap_us.get(k) {
            slot.store(self.uptime_us(), Ordering::Relaxed);
        }
    }

    /// The merged activity of the monitor window:
    /// `(window, span_us, requests, p99_us, err_rate)`.
    fn window_stats(&self, monitor: &Monitor) -> (MetricsSnapshot, u64, u64, u64, f64) {
        let (window, span_us) = monitor.ring().window(monitor.config().window);
        let all = window.histograms.get("server.request_micros").copied().unwrap_or_default();
        let requests = all.count();
        let p99_us = all.quantile(0.99);
        let errors: u64 = window
            .histograms
            .iter()
            .filter(|(key, _)| key.starts_with("server.rejected_us."))
            .map(|(_, h)| h.count())
            .sum();
        let err_rate = if requests == 0 { 0.0 } else { (errors as f64 / requests as f64).min(1.0) };
        (window, span_us, requests, p99_us, err_rate)
    }

    /// One sampler tick: snapshot the registry into the retention ring,
    /// evaluate the SLO burn rate over the window (raising/clearing the
    /// edge-triggered alert), and publish the tick frame to `WATCH`
    /// sessions. Returns the published frame; `None` without a monitor.
    pub fn monitor_tick(&self) -> Option<String> {
        let monitor = self.monitor.as_ref()?;
        let cumulative = self.recorder.as_ref().map(|r| r.metrics().snapshot()).unwrap_or_default();
        let at_us = self.uptime_us();
        let point = monitor.ring().record(cumulative, at_us);
        let mut burn = 0.0;
        if let Some(slo) = monitor.config().slo {
            let (_, _, requests, p99_us, err_rate) = self.window_stats(monitor);
            burn = slo.burn(p99_us, err_rate, requests);
            if let Some(edge) = monitor.observe_burn(burn) {
                self.record_slo_edge(monitor, edge, burn, p99_us, err_rate, at_us);
            }
        }
        // Splice the SLO state into the tick frame ahead of the point's
        // own fields (`{"tick":...}` → `{"burn":...,"tick":...}`).
        let body = point.to_json();
        let json = format!(
            "{{\"burn\":{},\"alerts\":{},{}",
            fmt_rate(burn),
            monitor.alerts_fired(),
            &body[1..]
        );
        monitor.publish_tick(point.seq, json.clone());
        Some(json)
    }

    /// Raises or clears the SLO burn alert: a counter edge on the probe,
    /// a synthetic `monitor.slo_burn` record in the flight recorder (so
    /// `TRACE` shows the alert next to the requests that caused it), and
    /// a structured `AUDIT` line appended to the audit trail.
    fn record_slo_edge(
        &self,
        monitor: &Monitor,
        edge: AlertEdge,
        burn: f64,
        p99_us: u64,
        err_rate: f64,
        at_us: u64,
    ) {
        let event = match edge {
            AlertEdge::Fired => "slo-burn",
            AlertEdge::Cleared => "slo-clear",
        };
        match edge {
            AlertEdge::Fired => self.probe.add("server.slo_burn_alert", 1),
            AlertEdge::Cleared => self.probe.add("server.slo_burn_cleared", 1),
        }
        if matches!(edge, AlertEdge::Fired) {
            if let Some(flight) = &self.flight {
                let root = SpanNode {
                    name: "monitor.slo_burn",
                    ord: 0,
                    start_us: at_us,
                    dur_us: Some(0),
                    children: Vec::new(),
                };
                flight.record("monitor", "ALERT", event, 0, root);
            }
        }
        if let Some(path) = &monitor.config().audit_path {
            let slo = monitor.config().slo.map_or("null".to_owned(), |s| s.to_json());
            let detail = format!(
                "{{\"event\":{},\"burn\":{},\"p99_us\":{p99_us},\"err_rate\":{},\"slo\":{slo}}}",
                bschema_obs::json::escape(event),
                fmt_rate(burn),
                fmt_rate(err_rate),
            );
            let _ = append_sync(path, &format!("AUDIT {at_us} {event} {detail}\n"));
        }
    }

    /// The `HEALTH` verdict: global and per-shard signals judged against
    /// thresholds, plus the fitness gauge, window stats, SLO state and
    /// `◇c` ledger — one JSON object. `None` without a monitor.
    pub fn health_json(&self) -> Option<String> {
        let monitor = self.monitor.as_ref()?;
        let cfg = monitor.config();
        let (window, span_us, requests, p99_us, err_rate) = self.window_stats(monitor);
        let now_us = self.uptime_us();
        let req_per_s = if span_us == 0 { 0.0 } else { requests as f64 / (span_us as f64 / 1e6) };

        let mut report = HealthReport::default();

        // Global signals. Latency/error thresholds derive from the SLO
        // when one is set (warn at the target, crit well past it).
        let (p99_warn, p99_crit) = match cfg.slo.and_then(|s| s.p99_us) {
            Some(target) => (target as f64, 2.0 * target as f64),
            None => (100_000.0, 1_000_000.0),
        };
        report.global.push(Signal::high_bad("request_p99_us", p99_us as f64, p99_warn, p99_crit));
        let (err_warn, err_crit) = match cfg.slo.and_then(|s| s.err_rate) {
            Some(budget) => (budget, (budget * 10.0).min(1.0)),
            None => (0.01, 0.1),
        };
        report.global.push(Signal::high_bad("err_rate", err_rate, err_warn, err_crit));
        let qmax = window.histograms.get("server.queue_depth").map_or(0, |h| h.max());
        report.global.push(Signal::high_bad("queue_depth_max", qmax as f64, 32.0, 64.0));
        let rollbacks = window.counters.get("sharded.rollback").copied().unwrap_or(0);
        let prepared = window.counters.get("sharded.prepared").copied().unwrap_or(0);
        let rollback_rate = if prepared + rollbacks == 0 {
            0.0
        } else {
            rollbacks as f64 / (prepared + rollbacks) as f64
        };
        report.global.push(Signal::high_bad("rollback_rate", rollback_rate, 0.05, 0.25));
        let mut burn = 0.0;
        if let Some(slo) = cfg.slo {
            burn = slo.burn(p99_us, err_rate, requests);
            report.global.push(Signal::high_bad("slo_burn", burn, 0.5, 1.0));
        }
        // Informational: cutovers this run. The thresholds are set far
        // beyond reach — the signal exists so dashboards see the epoch
        // move, not to alert on it.
        report.global.push(Signal::high_bad(
            "schema_epoch",
            self.schema_epoch() as f64,
            1e12,
            1e14,
        ));
        let ledger = self.sharded().map(ShardedDirectory::ledger);
        if let Some(counts) = &ledger {
            if !counts.is_empty() {
                let min = counts.values().copied().min().unwrap_or(0);
                report.global.push(Signal::low_bad("ledger_min", min as f64, 1.0, 0.0));
            }
        }
        if let Some(rep) = &self.replication {
            report.global.push(Signal::high_bad(
                "replication_lag_records",
                rep.lag() as f64,
                1_000.0,
                100_000.0,
            ));
            let ship_age_s = now_us.saturating_sub(rep.last_ship_us()) as f64 / 1e6;
            report.global.push(Signal::high_bad("ship_age_s", ship_age_s, 10.0, 120.0));
        }

        // Per-shard signal groups — the same pinned signal set whatever
        // the backend, so `HEALTH` consumers need no shape switch.
        for k in 0..self.shards() {
            let (records, bytes) = self.with_engine(k, JournaledDirectory::journal_stats);
            let entries = self.shard_snapshot(k).len();
            let swap = self.last_swap_us[k].load(Ordering::Relaxed);
            let age_s = now_us.saturating_sub(swap) as f64 / 1e6;
            let prepares =
                window.counters.get(&format!("sharded.prepare.shard{k}")).copied().unwrap_or(0);
            let commits =
                window.counters.get(&format!("sharded.commit.shard{k}")).copied().unwrap_or(0);
            report.shards.push(ShardHealth {
                shard: k,
                signals: vec![
                    Signal::high_bad("entries", entries as f64, 1e6, 1e7),
                    Signal::high_bad("journal_records", records as f64, 1e5, 1e6),
                    Signal::high_bad("journal_bytes", bytes as f64, 64e6, 512e6),
                    Signal::high_bad("snapshot_age_s", age_s, 3600.0, 86400.0),
                    Signal::high_bad("prepares", prepares as f64, 1e12, 1e14),
                    Signal::high_bad("commits", commits as f64, 1e12, 1e14),
                ],
            });
        }

        report.sections.push(("shards_total".to_owned(), self.shards().to_string()));
        report.sections.push(("ticks".to_owned(), monitor.ring().ticks().to_string()));
        report.sections.push((
            "window".to_owned(),
            format!(
                "{{\"requests\":{requests},\"req_per_s\":{},\"p99_us\":{p99_us},\"err_rate\":{},\"span_us\":{span_us}}}",
                fmt_rate(req_per_s),
                fmt_rate(err_rate),
            ),
        ));
        let slo_json = match cfg.slo {
            Some(slo) => format!(
                "{{\"policy\":{},\"burn\":{},\"burning\":{},\"alerts\":{}}}",
                slo.to_json(),
                fmt_rate(burn),
                monitor.is_burning(),
                monitor.alerts_fired(),
            ),
            None => "null".to_owned(),
        };
        report.sections.push(("slo".to_owned(), slo_json));
        report.sections.push(("fitness".to_owned(), fitness_json(&window)));
        let ledger_json = match &ledger {
            Some(counts) => {
                let min = counts.values().copied().min().unwrap_or(0);
                let body: Vec<String> = counts
                    .iter()
                    .map(|(class, n)| format!("{}:{n}", bschema_obs::json::escape(class)))
                    .collect();
                format!("{{\"min\":{min},\"classes\":{{{}}}}}", body.join(","))
            }
            None => "null".to_owned(),
        };
        report.sections.push(("ledger".to_owned(), ledger_json));
        let pending = lock_unpoisoned(&self.evolution).is_some();
        report.sections.push((
            "schema".to_owned(),
            format!(
                "{{\"epoch\":{},\"hash\":\"{:016x}\",\"pending\":{pending}}}",
                self.schema_epoch(),
                schema_hash(&self.current_schema()),
            ),
        ));
        let replication_json = match &self.replication {
            Some(rep) => format!(
                "{{\"applied_seq\":{},\"source_seq\":{},\"lag\":{},\"bootstraps\":{},\"errors\":{}}}",
                rep.applied_seq(),
                rep.source_seq(),
                rep.lag(),
                rep.bootstraps(),
                rep.errors(),
            ),
            None => "null".to_owned(),
        };
        report.sections.push(("replication".to_owned(), replication_json));
        Some(report.to_json())
    }
}

/// Renders a recheck failure as an EXPLAIN-style report naming the
/// offending entries by DN (first few, with a count of the rest).
fn render_violations(report: &LegalityReport, dir: &DirectoryInstance) -> String {
    let total = report.len();
    let mut parts: Vec<String> = Vec::new();
    for v in report.violations().iter().take(5) {
        match v.entry().and_then(|id| dir.dn(id).ok()) {
            Some(dn) => parts.push(format!("{v} (dn: {dn})")),
            None => parts.push(v.to_string()),
        }
    }
    let more = if total > parts.len() {
        format!("; +{} more", total - parts.len())
    } else {
        String::new()
    };
    format!("{total} violation(s) under the proposed schema: {}{more}", parts.join("; "))
}

/// The schema-fitness gauge over the window: commits vs rejections
/// attributed per stable rejection code (the §3 legality verdicts the
/// Figure 4 structure rules produce) and the Figure 5 Δ-query volume
/// per rule.
fn fitness_json(window: &MetricsSnapshot) -> String {
    let committed = window.counters.get("server.tx_committed").copied().unwrap_or(0);
    let mut rejected = Vec::new();
    let mut rejected_total = 0u64;
    let mut delta = Vec::new();
    for (key, &n) in &window.counters {
        if let Some(code) = key.strip_prefix("server.tx_rejected.") {
            rejected.push(format!("{}:{n}", bschema_obs::json::escape(code)));
            rejected_total += n;
        } else if let Some(rule) = key.strip_prefix("incremental.delta_query.") {
            delta.push(format!("{}:{n}", bschema_obs::json::escape(rule)));
        }
    }
    let legal_rate = if committed + rejected_total == 0 {
        1.0
    } else {
        committed as f64 / (committed + rejected_total) as f64
    };
    format!(
        "{{\"committed\":{committed},\"rejected\":{{{}}},\"legal_rate\":{},\"delta_queries\":{{{}}}}}",
        rejected.join(","),
        fmt_rate(legal_rate),
        delta.join(","),
    )
}

/// Renders a rate/burn as finite JSON (a zero error budget burns to ∞,
/// which JSON cannot carry).
fn fmt_rate(v: f64) -> String {
    if !v.is_finite() {
        return "1e308".to_owned();
    }
    format!("{v:.6}")
}

/// Runs `f` inside a span named `name`, opened at the probe's root
/// level (a [`RequestTrace`] re-parents it under the request root; the
/// shared recorder keeps it as a top-level span). Service stages report
/// failure through return values, not panics, so the span always closes.
fn scoped<T>(probe: &dyn Probe, name: &'static str, f: impl FnOnce() -> T) -> T {
    let span = probe.span_start(NO_SPAN, name, 0);
    let out = f();
    probe.span_end(span);
    out
}

/// The suffix of `intact` (repaired journal record text) starting at
/// the record with sequence `from_seq`, or `None` when that record is
/// not present. Record DNs are the first line of each LDIF paragraph,
/// so the needle is anchored to a line start.
fn journal_text_from(intact: &str, from_seq: u64) -> Option<&str> {
    let needle = format!("dn: op={from_seq},");
    if intact.starts_with(&needle) {
        return Some(intact);
    }
    let mut search = 0;
    while let Some(pos) = intact[search..].find(&needle) {
        let at = search + pos;
        if intact.as_bytes()[at - 1] == b'\n' {
            return Some(&intact[at..]);
        }
        search = at + needle.len();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use bschema_core::journal::shard_journal_path;
    use bschema_core::paper::{white_pages_instance, white_pages_schema};

    fn service() -> DirectoryService {
        let (dir, _) = white_pages_instance();
        let managed = ManagedDirectory::with_instance(white_pages_schema(), dir).unwrap();
        DirectoryService::new(managed)
    }

    #[test]
    fn search_runs_on_snapshot() {
        let svc = service();
        let (n, ldif) =
            svc.search(None, SearchScope::Subtree, "(objectClass=person)", None).unwrap();
        assert_eq!(n, 3);
        assert_eq!(ldif.matches("dn: ").count(), 3);
        // Base-scoped search.
        let (n, _) = svc
            .search(Some("ou=attLabs,o=att"), SearchScope::OneLevel, "(objectClass=*)", None)
            .unwrap();
        assert_eq!(n, 2, "armstrong + databases");
    }

    #[test]
    fn legal_tx_commits_and_swaps_snapshot() {
        let svc = service();
        let before = svc.snapshot();
        let outcome = svc
            .apply_ldif_tx(
                "dn: uid=pat,ou=attLabs,o=att\nobjectClass: staffMember\nobjectClass: person\nobjectClass: top\nuid: pat\nname: pat\n",
            )
            .unwrap();
        assert_eq!(outcome.len, 7);
        assert_eq!(before.len(), 6, "old snapshot still intact for holders");
        assert_eq!(svc.snapshot().len(), 7);
    }

    #[test]
    fn illegal_tx_is_rejected_byte_identically() {
        let svc = service();
        let before = svc.snapshot().canonical_bytes();
        // A person under a person violates the white-pages schema.
        let err = svc
            .apply_ldif_tx(
                "dn: uid=x,uid=suciu,ou=databases,ou=attLabs,o=att\nobjectClass: staffMember\nobjectClass: person\nobjectClass: top\nuid: x\nname: x\n",
            )
            .unwrap_err();
        assert_eq!(err.code, "rolled-back");
        assert_eq!(svc.snapshot().canonical_bytes(), before);
    }

    #[test]
    fn limits_gate_untrusted_bytes() {
        let svc = service().with_limits(ServiceLimits {
            ldif: LdifLimits { max_records: 1, ..LdifLimits::strict() },
            filter_depth: 2,
            wire: WireLimits::default(),
        });
        let two = "dn: o=a\nobjectClass: top\n\ndn: o=b\nobjectClass: top\n";
        assert_eq!(svc.apply_ldif_tx(two).unwrap_err().code, "bad-ldif");
        let deep = "(&(a=1)(|(b=2)(c=3)))";
        assert_eq!(
            svc.search(None, SearchScope::Subtree, deep, None).unwrap_err().code,
            "bad-filter"
        );
    }

    fn person_ldif(uid: &str, org: &str) -> String {
        format!(
            "dn: uid={uid},o={org}\nobjectClass: person\nobjectClass: top\nuid: {uid}\nname: {uid}\n"
        )
    }

    /// Two org names from the generated `org0..org3` roots that the
    /// router places on distinct shards.
    fn orgs_on_distinct_shards(shards: usize) -> (String, String) {
        let shard_of = |name: &str| {
            bschema_core::sharded::shard_of_root_rdn(
                &bschema_directory::Rdn::single("o", name),
                shards,
            )
        };
        let a = "org0".to_owned();
        let b = (1..4)
            .map(|i| format!("org{i}"))
            .find(|name| shard_of(name) != shard_of(&a))
            .expect("four roots cannot all collide");
        (a, b)
    }

    #[test]
    fn sharded_service_routes_commits_and_fans_out_searches() {
        let base = bschema_workload::multi_org_base(4, 12, 7);
        let svc = DirectoryService::new_sharded(white_pages_schema(), base, 4).unwrap();
        assert_eq!(svc.shards(), 4);
        let persons_before =
            svc.search(None, SearchScope::Subtree, "(objectClass=person)", None).unwrap().0;
        let (a, b) = orgs_on_distinct_shards(4);

        let single = svc.apply_ldif_tx(&person_ldif("svc1", &a)).unwrap();
        assert_eq!(single.shards, 1, "one root RDN must route to one shard");

        let cross = svc
            .apply_ldif_tx(&format!("{}\n{}", person_ldif("svc2", &a), person_ldif("svc3", &b)))
            .unwrap();
        assert_eq!(cross.shards, 2, "two roots on distinct shards must take the 2-phase path");

        // Fan-out search sees every shard's published snapshot.
        let (n, ldif) =
            svc.search(None, SearchScope::Subtree, "(objectClass=person)", None).unwrap();
        assert_eq!(n, persons_before + 3);
        for uid in ["svc1", "svc2", "svc3"] {
            assert!(ldif.contains(&format!("uid: {uid}")), "{uid} missing from fan-out");
        }
        // Base-scoped search stays on the owning shard.
        let (n, _) = svc
            .search(Some(&format!("o={a}")), SearchScope::Subtree, "(objectClass=person)", None)
            .unwrap();
        assert!(n >= 2, "org {a} holds at least svc1 + svc2");
        // A rejected transaction leaves every snapshot untouched.
        let before = svc.snapshot().canonical_bytes();
        let err = svc
            .apply_ldif_tx(&format!(
                "dn: uid=bad,o={b}\nobjectClass: person\nobjectClass: top\nuid: bad\n"
            ))
            .unwrap_err();
        assert_eq!(err.code, "rolled-back");
        assert_eq!(svc.snapshot().canonical_bytes(), before);
    }

    #[test]
    fn sharded_journal_replays_across_restart() {
        let journal_base = std::env::temp_dir()
            .join(format!("bschema-svc-sharded-journal-{}", std::process::id()));
        for k in 0..3 {
            let _ = std::fs::remove_file(shard_journal_path(&journal_base, k));
        }
        let base = bschema_workload::multi_org_base(4, 8, 11);
        let (a, b) = orgs_on_distinct_shards(3);

        let (svc, replayed) = DirectoryService::new_sharded(white_pages_schema(), base.clone(), 3)
            .unwrap()
            .with_journal(&journal_base)
            .unwrap();
        assert_eq!(replayed, 0);
        svc.apply_ldif_tx(&person_ldif("dur1", &a)).unwrap();
        let cross = svc
            .apply_ldif_tx(&format!("{}\n{}", person_ldif("dur2", &a), person_ldif("dur3", &b)))
            .unwrap();
        assert_eq!(cross.shards, 2);
        let final_bytes = svc.snapshot().canonical_bytes();
        drop(svc);

        // "Restart": same base, same journal family.
        let (svc, replayed) = DirectoryService::new_sharded(white_pages_schema(), base, 3)
            .unwrap()
            .with_journal(&journal_base)
            .unwrap();
        // The single-shard tx replays once; the cross-shard tx replays
        // on each of its two shards.
        assert_eq!(replayed, 3);
        assert_eq!(svc.snapshot().canonical_bytes(), final_bytes);
        for k in 0..3 {
            let _ = std::fs::remove_file(shard_journal_path(&journal_base, k));
        }
    }

    #[test]
    fn modify_roundtrip_without_journal() {
        let svc = service();
        let dn = "uid=suciu,ou=databases,ou=attLabs,o=att";
        svc.modify(dn, &[Mod::Add { attribute: "telephoneNumber".into(), value: "+1 973".into() }])
            .unwrap();
        let (n, ldif) =
            svc.search(Some(dn), SearchScope::Base, "(telephoneNumber=*)", None).unwrap();
        assert_eq!(n, 1);
        // Attribute names are stored lowercased.
        assert!(ldif.contains("telephonenumber: +1 973"), "{ldif}");
    }

    #[test]
    fn modify_is_journaled_and_replays_across_restart() {
        let path =
            std::env::temp_dir().join(format!("bschema-svc-modify-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(bschema_core::checkpoint::checkpoint_path(&path));

        let (svc, _) = service().with_journal(&path).unwrap();
        svc.apply_ldif_tx(
            "dn: uid=pat,ou=attLabs,o=att\nobjectClass: staffMember\nobjectClass: person\nobjectClass: top\nuid: pat\nname: pat\n",
        )
        .unwrap();
        let dn = "uid=pat,ou=attLabs,o=att";
        svc.modify(dn, &[Mod::Add { attribute: "telephoneNumber".into(), value: "+1 201".into() }])
            .unwrap();
        // A rejected modify must not replay: the begin records stay in
        // the journal as an uncommitted (discarded) tail.
        let err = svc.modify(dn, &[Mod::DeleteAttribute { attribute: "name".into() }]).unwrap_err();
        assert_eq!(err.code, "rolled-back", "dropping a required attribute must reject");
        let final_bytes = svc.snapshot().canonical_bytes();
        drop(svc);

        let (svc, replayed) = service().with_journal(&path).unwrap();
        assert_eq!(replayed, 2, "one TXN + one committed MODIFY replay");
        assert_eq!(svc.snapshot().canonical_bytes(), final_bytes);
        let (n, _) = svc.search(Some(dn), SearchScope::Base, "(telephoneNumber=*)", None).unwrap();
        assert_eq!(n, 1, "replayed modify must be visible");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sharded_modify_routes_to_owning_shard() {
        let base = bschema_workload::multi_org_base(4, 10, 3);
        let svc = DirectoryService::new_sharded(white_pages_schema(), base, 3).unwrap();
        let (org, _) = orgs_on_distinct_shards(3);
        svc.apply_ldif_tx(&person_ldif("modme", &org)).unwrap();
        let dn = format!("uid=modme,o={org}");
        let outcome = svc
            .modify(
                &dn,
                &[Mod::Add { attribute: "telephoneNumber".into(), value: "+1 973".into() }],
            )
            .unwrap();
        assert_eq!(outcome.shards, 1, "MODIFY never crosses a subtree boundary");
        let (n, ldif) =
            svc.search(Some(&dn), SearchScope::Base, "(telephoneNumber=*)", None).unwrap();
        assert_eq!(n, 1, "republished shard snapshot must show the modification");
        assert!(ldif.contains("telephonenumber: +1 973"), "{ldif}");
        let err =
            svc.modify("uid=ghost,o=org0", &[Mod::DeleteAttribute { attribute: "name".into() }]);
        assert_eq!(err.unwrap_err().code, "no-such-entry");
    }

    #[test]
    fn checkpoint_every_compacts_the_journal() {
        let path = std::env::temp_dir()
            .join(format!("bschema-svc-ckpt-every-{}.journal", std::process::id()));
        let ckpt = bschema_core::checkpoint::checkpoint_path(&path);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&ckpt);

        let (svc, _) = service().with_journal(&path).unwrap();
        let svc = svc.with_checkpoint_every(2);
        let person = |uid: &str| {
            format!(
                "dn: uid={uid},ou=attLabs,o=att\nobjectClass: staffMember\nobjectClass: person\nobjectClass: top\nuid: {uid}\nname: {uid}\n"
            )
        };
        svc.apply_ldif_tx(&person("a1")).unwrap();
        assert!(!ckpt.exists(), "one commit must not checkpoint yet");
        svc.apply_ldif_tx(&person("a2")).unwrap();
        assert!(ckpt.exists(), "second commit trips --checkpoint-every 2");
        assert_eq!(std::fs::read_to_string(&path).unwrap_or_default(), "", "journal truncated");
        svc.apply_ldif_tx(&person("a3")).unwrap();
        let final_bytes = svc.snapshot().canonical_bytes();
        drop(svc);

        let (svc, replayed) = service().with_journal(&path).unwrap();
        assert_eq!(replayed, 1, "only the post-checkpoint tail replays");
        assert_eq!(svc.snapshot().canonical_bytes(), final_bytes);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn an_unjournaled_sharded_service_stages_no_journal_records() {
        let base = bschema_workload::multi_org_base(4, 12, 7);
        let svc = DirectoryService::new_sharded(white_pages_schema(), base, 4).unwrap();
        let (a, b) = orgs_on_distinct_shards(4);
        // 1 000 commits — cross-shard insert, modify, two deletes — with
        // |D| back at its start after every round.
        for i in 0..250 {
            let pair = format!(
                "{}\n{}",
                person_ldif(&format!("x{i}"), &a),
                person_ldif(&format!("y{i}"), &b)
            );
            assert_eq!(svc.apply_ldif_tx(&pair).unwrap().shards, 2);
            let phone = Mod::Add { attribute: "telephoneNumber".into(), value: "+1".into() };
            svc.modify(&format!("uid=x{i},o={a}"), &[phone]).unwrap();
            for (uid, org) in [("x", &a), ("y", &b)] {
                svc.apply_ldif_tx(&format!("dn: uid={uid}{i},o={org}\nchangetype: delete\n"))
                    .unwrap();
            }
        }
        for k in 0..4 {
            assert_eq!(
                svc.with_engine(k, JournaledDirectory::journal_stats),
                (0, 0),
                "shard {k} encoded journal records nothing will ever drain"
            );
        }
    }
}
