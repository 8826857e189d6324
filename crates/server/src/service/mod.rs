//! The shared directory service behind every connection.
//!
//! [`DirectoryService`] is the concurrency layer of the server: it wraps
//! one journaled [`ManagedDirectory`] so that
//!
//! * **reads** (`SEARCH`) are served from an immutable snapshot — an
//!   `Arc<DirectoryInstance>` cloned out of an `RwLock` in O(1), after
//!   which the search runs with **no lock held**; the snapshot is the
//!   very version the engine holds live, published without a copy, and
//! * **writes** (`TXN`, `MODIFY`, `SCHEMA COMMIT`) are serialized
//!   through a single mutex around the directory's one write-ahead driver
//!   ([`ManagedDirectory::apply_op`]: guarded apply on a copy → begin →
//!   commit → install, reporting to the request's probe), with the snapshot swapped only after the
//!   transaction has been certified legal and committed.
//!
//! Readers therefore observe a sequence of complete, legal instances —
//! either the pre-transaction or the post-transaction state, never a
//! partially applied one. That holds even when a write worker panics
//! mid-transaction: the engine's `apply_op` drops the copy it ran on, the
//! snapshot is only swapped after success, and both locks are
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
//!
//! This file holds the type, its construction and the helpers every
//! plane shares; each plane (read, write, schema, ship, health) is one
//! `impl DirectoryService` block in its own file (DESIGN.md §7).

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use bschema_core::managed::ManagedError;
use bschema_core::schema::DirectorySchema;
use bschema_core::sharded::ShardedDirectory;
use bschema_core::ManagedDirectory;
use bschema_directory::ldif::LdifLimits;
use bschema_directory::DirectoryInstance;
use bschema_obs::{FlightRecorder, MetricsRegistry, Probe, RequestTrace, SloPolicy, SpanId};
use bschema_query::DEFAULT_FILTER_DEPTH;

use crate::codec::WireLimits;
use crate::monitor::Monitor;

mod health;
mod read;
mod schema;
mod ship;
mod write;

use schema::StagedEvolution;
pub use ship::{ReplicationState, SITE_SHIP_APPLY, SITE_SHIP_SERVE};
pub use write::TxOutcome;

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
}

/// The one conversion of an engine refusal, from either backend: its
/// code and its words, unchanged.
impl From<ManagedError> for ServiceError {
    fn from(e: ManagedError) -> Self {
        ServiceError { code: e.code(), detail: e.to_string() }
    }
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
    Single(Mutex<ManagedDirectory>),
    Sharded(ShardedDirectory),
}

/// A caller's probe in front of a metered service's registry: each event
/// reaches the probe first — a fault plan fires before the event is
/// counted, as a crash would — then the registry, which keeps no spans.
#[derive(Debug)]
struct InFront {
    front: Arc<dyn Probe + Send + Sync>,
    registry: Arc<MetricsRegistry>,
}

impl Probe for InFront {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, key: &str, by: u64) {
        self.front.add(key, by);
        self.registry.add(key, by);
    }

    fn add_labeled(&self, key: &str, label: &str, by: u64) {
        self.front.add_labeled(key, label, by);
        self.registry.add_labeled(key, label, by);
    }

    fn observe(&self, key: &str, value: u64) {
        self.front.observe(key, value);
        self.registry.observe(key, value);
    }

    fn span_start(&self, parent: SpanId, name: &'static str, ord: u64) -> SpanId {
        self.front.span_start(parent, name, ord)
    }

    fn span_end(&self, span: SpanId) {
        self.front.span_end(span);
    }
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
    /// trigger. Advisory: it is read after a commit's locks are
    /// released, so concurrent commits race on it; the worst race is one
    /// extra checkpoint, which is idempotent.
    since_checkpoint: AtomicU64,
    /// What the request path and the engines report to: the attached
    /// probe and/or the registry (see [`DirectoryService::with_metrics`]).
    probe: Arc<dyn Probe + Send + Sync>,
    /// The probe a caller attached with [`DirectoryService::with_probe`].
    attached: Option<Arc<dyn Probe + Send + Sync>>,
    /// The telemetry switch: the registry and the sampler state, on a
    /// metered service only.
    metered: Option<Monitor>,
    /// The objective the sampler burns against, and the file its alert
    /// edges are appended to.
    slo: Option<SloPolicy>,
    audit: Option<PathBuf>,
    flight: Option<Arc<FlightRecorder>>,
    /// The service's monotonic epoch: tick timestamps and snapshot-swap
    /// stamps are microseconds since this instant.
    origin: Instant,
    /// Per-shard µs-since-`origin` of the last snapshot publish (index 0
    /// on the single backend). 0 = never swapped, so age reads as
    /// time-since-start.
    last_swap_us: Vec<AtomicU64>,
    limits: ServiceLimits,
    /// Checkpoint + truncate the journal every N commits (`None` =
    /// never; explicit `CHECKPOINT`/`checkpoint_now` still works).
    checkpoint_every: Option<u64>,
    /// Replication-lag gauges, present exactly when this service is a
    /// read replica: every write verb is then refused with the stable
    /// `read-only` code, and mutations arrive only through
    /// [`replicate_tx`](DirectoryService::replicate_tx).
    replication: Option<Arc<ReplicationState>>,
    /// The evolution plane: at most one staged schema proposal at a
    /// time (`SCHEMA PROPOSE` → `CHECK` → `COMMIT`/`ABORT`).
    evolution: Mutex<Option<StagedEvolution>>,
    /// Completed schema cutovers since this service started — the
    /// `HEALTH` plane's `schema_epoch` signal. A restart resets it; the
    /// schema *hash* identifies a schema across restarts.
    schema_epoch: AtomicU64,
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
        Self::from_backend(Backend::Single(Mutex::new(managed)), 1)
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
        let sharded = ShardedDirectory::with_instance(schema, dir, shards)?;
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
            attached: None,
            metered: None,
            slo: None,
            audit: None,
            flight: None,
            origin: Instant::now(),
            last_swap_us: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            limits: ServiceLimits::default(),
            checkpoint_every: None,
            replication: None,
            evolution: Mutex::new(None),
            schema_epoch: AtomicU64::new(0),
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
    fn with_engine<R>(&self, k: usize, f: impl FnOnce(&ManagedDirectory) -> R) -> R {
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
        self.with_engine(k, ManagedDirectory::shared_instance)
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

    /// Attaches `probe` — a fault plan, a test recorder — to the request
    /// path, which hands it to every write it runs, so one probe sees both
    /// the `server.*` sites and the legality engine's counters/spans
    /// (plus, on a sharded backend, the router's `sharded.*` 2-phase
    /// sites). On a metered service it sits in front of the registry,
    /// which goes on counting every event.
    pub fn with_probe(mut self, probe: Arc<dyn Probe + Send + Sync>) -> Self {
        self.attached = Some(probe);
        self.rewire()
    }

    /// The telemetry switch. A service built with it counts every
    /// request into `registry`, answers `METRICS` from it, and — once
    /// served — runs the sampler over it that `HEALTH`, `WATCH` and
    /// `bschema top` read. A service built without it keeps no registry
    /// and starts no sampler. The registry keeps no spans, so nothing the
    /// service holds grows per request.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metered = Some(Monitor::new(registry));
        self.rewire()
    }

    /// The service-level objective a metered service's sampler burns
    /// its error budget against, and the file each alert edge is
    /// appended to as a structured `AUDIT` line.
    pub fn with_slo(mut self, slo: SloPolicy, audit: Option<PathBuf>) -> Self {
        self.slo = Some(slo);
        self.audit = audit;
        self
    }

    /// The registry of a metered service.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metered.as_ref().map(|m| &*m.registry)
    }

    /// The sampler state of a metered service.
    pub(crate) fn monitor(&self) -> Option<&Monitor> {
        self.metered.as_ref()
    }

    /// Derives the one probe from the attached one and the registry, and
    /// hands it to the sharded router, which drives its own writes.
    fn rewire(mut self) -> Self {
        let registry = self.metered.as_ref().map(|m| m.registry.clone());
        let probe: Arc<dyn Probe + Send + Sync> = match (self.attached.clone(), registry) {
            (Some(front), Some(registry)) => Arc::new(InFront { front, registry }),
            (Some(front), None) => front,
            (None, Some(registry)) => registry,
            (None, None) => Arc::new(bschema_obs::NoopProbe),
        };
        if let Backend::Sharded(sharded) = self.backend {
            self.backend = Backend::Sharded(sharded.with_probe(probe.clone()));
        }
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

    /// Turns this service into a read replica whose ship loop updates
    /// `replication`: every write verb is refused with the stable
    /// `read-only` code, mutations arrive only through
    /// [`replicate_tx`](DirectoryService::replicate_tx), and `HEALTH`
    /// reports `replication_lag_records` and `ship_age_s` signals plus a
    /// `replication` section.
    pub fn with_replication(mut self, replication: Arc<ReplicationState>) -> Self {
        self.replication = Some(replication);
        self
    }

    /// The attached replication gauges, if this service is a follower.
    pub fn replication(&self) -> Option<&Arc<ReplicationState>> {
        self.replication.as_ref()
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

    /// Microseconds since this service was constructed — the clock tick
    /// timestamps and snapshot-swap stamps are taken on.
    pub fn uptime_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
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
    /// ([`ManagedDirectory::open`]): when a sibling checkpoint file
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
        let (backend, reports) = match self.backend {
            Backend::Single(engine) => {
                let base = engine.into_inner().unwrap_or_else(|e| e.into_inner());
                let (engine, report) = ManagedDirectory::open(base, path)?;
                (Backend::Single(Mutex::new(engine)), vec![report])
            }
            Backend::Sharded(sharded) => {
                let (sharded, reports) = sharded.open(&path)?;
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

    /// The probe attached to this service.
    pub fn probe(&self) -> &(dyn Probe + Send + Sync) {
        &*self.probe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bschema_core::journal::shard_journal_path;
    use bschema_core::paper::{white_pages_instance, white_pages_schema};
    use bschema_core::updates::Mod;
    use bschema_query::SearchScope;

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
                svc.with_engine(k, ManagedDirectory::journal_stats),
                (0, 0),
                "shard {k} encoded journal records nothing will ever drain"
            );
        }
    }
}
