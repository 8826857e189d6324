//! Chaos differential suite (the robustness capstone): every probe site
//! that fires during a scripted `ManagedDirectory` workload gets exactly
//! one injected panic, and every run must uphold the Theorem 4.1
//! atomicity contract — a failed or panicked transaction leaves the
//! instance byte-identical to its pre-transaction snapshot with
//! `is_legal()` intact, and write-ahead journal recovery reproduces
//! exactly the committed prefix.
//!
//! Seed control: set `CHAOS_SEED=<u64>` to run the campaign under a
//! different seed (CI runs a fixed matrix plus one fresh logged seed).

use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};

use bschema_core::consistency::ConsistencyChecker;
use bschema_core::managed::{ManagedDirectory, ManagedError};
use bschema_core::paper::{white_pages_instance, white_pages_schema};
use bschema_core::updates::Transaction;
use bschema_directory::Entry;
use bschema_faults::FaultPlan;
use bschema_obs::{Probe, SpanId, NO_SPAN};
use bschema_parallel::{available_threads, workers_for, GRAIN};
use bschema_workload::chaos::{run_chaos, run_once, ChaosConfig, ChaosWorkload};
use bschema_workload::{OrgGenerator, OrgParams, TxGenerator, TxParams};

fn chaos_seed() -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(v) => v.parse().unwrap_or_else(|_| panic!("CHAOS_SEED must be a u64, got {v:?}")),
        Err(_) => 0xC4A05,
    }
}

/// The full campaign on served-size transactions (every ∆D runs inline on
/// the caller's thread): one fail-nth run per injectable event.
/// Every fault either aborts a transaction (verified atomic by the
/// driver) or is absorbed; injection count proves full event coverage.
#[test]
fn chaos_campaign_sequential_covers_every_event() {
    let cfg = ChaosConfig { seed: chaos_seed(), ..ChaosConfig::default() };
    let report = run_chaos(&cfg);
    eprintln!("chaos(seed={:#x}, inline): {report:?}", cfg.seed);

    // fail_nth(n) leaves events 0..n untouched, so event n always fires:
    // exactly one injection per run.
    assert_eq!(report.injected, report.events, "every event index must inject exactly once");
    assert!(report.aborted_txs > 0, "some faults must abort transactions");
    assert!(report.survived > 0, "post-verdict probe faults must be absorbed");
    assert_eq!(report.crash_cuts, cfg.crash_cuts);

    // The campaign must reach every layer named by the instrumentation:
    // the managed transaction boundary, the Figure 4/5 checkers, and the
    // Δ-query evaluator.
    for site in [
        "span:managed.apply",
        "managed.tx_applied",
        "managed.tx_rolled_back",
        "legality.entries_content_checked",
        "query.evaluated",
    ] {
        assert!(report.sites.contains_key(site), "census must include {site}: {:?}", report.sites);
    }
}

/// The bulk workload: one TXN inserting a unit of 2 × `GRAIN` entries —
/// the smallest ∆D whose two check waves fan out over a second worker,
/// on a host that has one — and one TXN deleting those entries again.
fn bulk_workload(seed: u64) -> ChaosWorkload {
    let schema = white_pages_schema();
    let org = OrgGenerator::new(OrgParams { seed, ..OrgParams::sized(40) }).generate();
    let insert = TxGenerator::new(TxParams { subtree_size: 2 * GRAIN, seed }).legal_insertion(&org);
    let mut reference = ManagedDirectory::with_instance(schema.clone(), org.dir.clone())
        .expect("generated org is legal");
    reference.apply(&insert).expect("bulk insertion is legal");
    let mut delete = Transaction::new();
    for (id, _) in reference.instance().iter().filter(|&(id, _)| !org.dir.contains(id)) {
        delete.delete(id);
    }
    assert_eq!(delete.len(), 2 * GRAIN);
    ChaosWorkload { schema, base: org.dir, txs: vec![insert, delete] }
}

/// The campaign on the bulk insertion, where the engine fans out: one
/// fail-nth run per injectable event, worker-thread events included.
/// A fault either aborts the TXN — instance byte-identical to the base —
/// or is absorbed and the TXN commits the fault-free state; one that
/// lands inside a worker is always absorbed (the sequential retry).
/// Journal recovery under faults is the inline campaign's and
/// `worker_fault_degrades_to_sequential_retry`'s business: a full driver
/// run costs a second on 8k entries, this loop makes one per event.
#[test]
fn chaos_campaign_parallel_engine() {
    bschema_faults::silence_injected_panics();
    let w = bulk_workload(chaos_seed() ^ 0xA11E1);
    let base_bytes = w.base.canonical_bytes();
    let run = |plan: &Arc<FaultPlan>| {
        let mut managed = ManagedDirectory::with_instance(w.schema.clone(), w.base.clone())
            .expect("bulk base is legal")
            .with_probe(plan.clone());
        let outcome = managed.apply(&w.txs[0]);
        assert!(managed.is_legal());
        (outcome, managed.instance().canonical_bytes())
    };

    let observer = Arc::new(FaultPlan::observer());
    let (outcome, committed_bytes) = run(&observer);
    outcome.expect("the bulk insertion is legal");
    // Two fan-out sites (content wave, Δ-query wave), `workers` chunks at
    // each; everything recorded at these three sites happens in a chunk.
    let workers = workers_for(2 * GRAIN) as u64;
    let sites = observer.sites();
    assert_eq!(sites.get("parallel.chunks"), Some(&(2 * workers)), "{sites:?}");
    let in_chunks = sites["span:chunk"] + sites["parallel.chunks"] + sites["parallel.chunk_us"];

    let (mut injected, mut survived, mut aborted) = (0, 0, 0);
    for event in 0..observer.events() {
        let plan = Arc::new(FaultPlan::fail_nth(event));
        match run(&plan) {
            (Ok(()), bytes) => {
                assert_eq!(bytes, committed_bytes, "event {event}: absorbed fault changed state");
                survived += 1;
            }
            (Err(ManagedError::Panicked { .. }), bytes) => {
                assert_eq!(bytes, base_bytes, "event {event}: aborted TXN was not atomic");
                aborted += 1;
            }
            (Err(e), _) => panic!("event {event}: unexpected refusal {e}"),
        }
        injected += plan.injected();
    }
    eprintln!("chaos(bulk, {workers} worker(s)): {injected} injected, {survived} survived");
    assert_eq!(injected, observer.events(), "every event index must inject exactly once");
    assert!(aborted > 0, "faults on the caller's thread must abort the TXN");
    assert!(survived > 0, "post-verdict probe faults must be absorbed");
    if workers > 1 {
        assert!(survived >= in_chunks, "worker faults must be absorbed: {survived} < {in_chunks}");
    }
}

/// A fault pinned at `parallel.chunks` while the bulk insertion is being
/// checked: inside a worker it is absorbed — the chunk is retried on the
/// caller's thread and the TXN commits; where the host has one core the
/// chunk *is* the caller's thread, and the TXN aborts atomically instead.
#[test]
fn worker_fault_degrades_to_sequential_retry() {
    bschema_faults::silence_injected_panics();
    let w = bulk_workload(chaos_seed());
    let plan = Arc::new(FaultPlan::fail_at_site("parallel.chunks", 0));
    let stats = run_once(&w, &plan);
    assert_eq!(plan.injected(), 1, "the chunk fault must fire");
    if available_threads() > 1 {
        assert_eq!(stats.panicked, 0, "a worker fault must be absorbed, not abort the TXN");
        assert_eq!(stats.applied, 2);
    } else {
        assert_eq!((stats.panicked, stats.applied), (1, 1), "inline fault aborts one TXN");
    }
}

/// Fault-injection sweep over the ◇∅ consistency engine: every injected
/// panic is contained by `catch_unwind` at the call site and the
/// fault-free verdict is unchanged (the engine holds no shared state to
/// poison).
#[test]
fn consistency_engine_faults_are_contained() {
    bschema_faults::silence_injected_panics();
    let schema = white_pages_schema();
    let observer = FaultPlan::observer();
    let baseline = ConsistencyChecker::new(&schema).with_probe(&observer).check().is_consistent();
    assert!(baseline, "the paper schema is consistent");
    let events = observer.events();
    assert!(events > 0, "consistency check must hit probe sites");
    assert!(
        observer.sites().keys().any(|s| s.starts_with("consistency.")),
        "census must include consistency sites: {:?}",
        observer.sites()
    );

    for event in 0..events {
        let plan = FaultPlan::fail_nth(event);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            ConsistencyChecker::new(&schema).with_probe(&plan).check().is_consistent()
        }));
        match outcome {
            Ok(verdict) => assert!(verdict, "event {event}: fault changed the verdict"),
            Err(payload) => {
                assert!(
                    bschema_faults::is_injected_panic(&*payload),
                    "event {event}: unexpected panic kind"
                );
            }
        }
    }
}

/// Probe that records the order of every instrumentation call.
#[derive(Debug, Default)]
struct OrderProbe {
    calls: Mutex<Vec<String>>,
}

impl OrderProbe {
    fn push(&self, call: String) {
        self.calls.lock().expect("order probe lock").push(call);
    }

    fn calls(&self) -> Vec<String> {
        self.calls.lock().expect("order probe lock").clone()
    }
}

impl Probe for OrderProbe {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, key: &str, by: u64) {
        self.push(format!("add:{key}={by}"));
    }

    fn add_labeled(&self, key: &str, label: &str, _by: u64) {
        self.push(format!("label:{key}.{label}"));
    }

    fn observe(&self, key: &str, value: u64) {
        self.push(format!("observe:{key}={value}"));
    }

    fn span_start(&self, _parent: SpanId, name: &'static str, _ord: u64) -> SpanId {
        self.push(format!("span_start:{name}"));
        NO_SPAN
    }

    fn span_end(&self, _span: SpanId) {
        self.push("span_end".to_owned());
    }
}

fn violating_tx(suciu: bschema_directory::EntryId) -> Transaction {
    let mut tx = Transaction::new();
    // An orgUnit under a person violates the Figure 2/3 schema.
    tx.insert_under(
        suciu,
        Entry::builder().classes(["orgUnit", "orgGroup", "top"]).attr("ou", "oops").build(),
    );
    tx
}

/// Satellite: the rollback reason is recorded through the probe before
/// the `managed.apply` span closes — diagnostics narrate the rollback as
/// it happens, not after the fact.
#[test]
fn rollback_reason_is_recorded_before_span_close() {
    let schema = white_pages_schema();
    let (dir, ids) = white_pages_instance();
    let probe = Arc::new(OrderProbe::default());
    let mut managed = ManagedDirectory::with_instance(schema, dir)
        .expect("paper instance is legal")
        .with_probe(probe.clone());

    let err = managed.apply(&violating_tx(ids.suciu)).unwrap_err();
    assert!(matches!(err, ManagedError::RolledBack(_)), "expected rollback, got {err}");

    let calls = probe.calls();
    let rolled_back = calls
        .iter()
        .position(|c| c == "add:managed.tx_rolled_back=1")
        .unwrap_or_else(|| panic!("rollback counter missing from {calls:?}"));
    let last_span_end = calls
        .iter()
        .rposition(|c| c == "span_end")
        .unwrap_or_else(|| panic!("managed.apply span never closed in {calls:?}"));
    assert!(
        rolled_back < last_span_end,
        "rollback must be recorded before the apply span closes: {calls:?}"
    );
    assert!(
        calls.iter().any(|c| c.starts_with("label:managed.rollback_violation.")),
        "rollback reason labels missing from {calls:?}"
    );
}

/// Satellite: a fault injected *at the rollback-recording site itself*
/// still cannot skip the snapshot restore — recording happens before the
/// restore, and the restore is unconditional.
#[test]
fn rollback_is_restored_even_when_recording_panics() {
    bschema_faults::silence_injected_panics();
    let schema = white_pages_schema();
    let (dir, ids) = white_pages_instance();
    let plan = Arc::new(FaultPlan::fail_at_site("managed.tx_rolled_back", 0));
    let mut managed = ManagedDirectory::with_instance(schema, dir)
        .expect("paper instance is legal")
        .with_probe(plan.clone());
    let before = managed.instance().canonical_bytes();

    let err = managed.apply(&violating_tx(ids.suciu)).unwrap_err();
    assert_eq!(plan.injected(), 1, "the rollback-site fault must fire");
    assert!(
        matches!(&err, ManagedError::Panicked { reason } if reason.contains(bschema_faults::INJECTED_FAULT_MARKER)),
        "expected injected panic, got {err}"
    );
    assert_eq!(
        managed.instance().canonical_bytes(),
        before,
        "snapshot restore must survive a fault in the rollback recording"
    );
    assert!(managed.is_legal());
}
