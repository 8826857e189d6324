//! Chaos differential driver: deterministic fault injection over a
//! scripted [`ManagedDirectory`] workload.
//!
//! The driver runs one fixed, seeded workload (generated org + a mix of
//! legal and violating transactions) many times: once with a
//! [`FaultPlan::observer`] to census every injectable probe event, then
//! once per event index with [`FaultPlan::fail_nth`] so every site that
//! fired in the fault-free run gets exactly one injected panic. Every
//! run asserts the atomicity contract of Theorem 4.1 as hardened by the
//! crash-consistency layer:
//!
//! * a transaction that fails or panics leaves the instance
//!   **byte-identical** (by [`canonical_bytes`]) to its pre-transaction
//!   snapshot, and `is_legal()` still holds;
//! * replaying the write-ahead journal from the base instance reproduces
//!   exactly the committed transactions — the recovered directory equals
//!   the live one byte for byte;
//! * recovery from a journal cut at an arbitrary byte (a simulated
//!   crash) yields the committed prefix.
//!
//! Panics on the first violated invariant, so it doubles as a test body
//! and a CLI-driveable chaos harness.
//!
//! [`canonical_bytes`]: bschema_directory::DirectoryInstance::canonical_bytes

use std::collections::BTreeMap;
use std::sync::Arc;

use bschema_core::checkpoint::recover_with_checkpoint;
use bschema_core::engine::{MemoryJournal, Op};
use bschema_core::journal::Journal;
use bschema_core::managed::{ManagedDirectory, ManagedError};
use bschema_core::paper::white_pages_schema;
use bschema_core::schema::DirectorySchema;
use bschema_core::updates::Transaction;
use bschema_directory::DirectoryInstance;
use bschema_faults::FaultPlan;

use crate::oracle::scoped_deletion_matches_figure5;
use crate::org::{OrgGenerator, OrgParams};
use crate::tx_gen::{TxGenerator, TxParams};

/// Parameters for [`run_chaos`].
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Seed for the generated org, the transaction mix, and crash cuts.
    pub seed: u64,
    /// Approximate entry count of the base directory.
    pub org_size: usize,
    /// Number of transactions in the scripted workload.
    pub rounds: usize,
    /// Number of simulated journal crash cuts.
    pub crash_cuts: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig { seed: 0xC4A05, org_size: 48, rounds: 6, crash_cuts: 16 }
    }
}

/// A fixed workload: schema, base instance, and a pre-generated
/// transaction script (so every chaos run replays the same inputs).
#[derive(Debug, Clone)]
pub struct ChaosWorkload {
    /// The schema every run validates against.
    pub schema: DirectorySchema,
    /// The base instance every run starts from.
    pub base: DirectoryInstance,
    /// The transactions, in application order. A mix of legal
    /// insertions, legal deletions, and schema-violating insertions.
    pub txs: Vec<Transaction>,
}

/// Builds the deterministic workload for `cfg`. Transactions are
/// generated against a fault-free reference evolution so deletions name
/// live targets; chaos runs then replay them verbatim.
pub fn scripted_workload(cfg: &ChaosConfig) -> ChaosWorkload {
    let schema = white_pages_schema();
    let org =
        OrgGenerator::new(OrgParams { seed: cfg.seed ^ 0x5eed, ..OrgParams::sized(cfg.org_size) })
            .generate();
    let base = org.dir.clone();
    let mut reference = ManagedDirectory::with_instance(schema.clone(), base.clone())
        .expect("generated org must be consistent and legal");
    let mut tx_gen = TxGenerator::new(TxParams { seed: cfg.seed, ..TxParams::default() });
    let mut txs = Vec::new();
    for round in 0..cfg.rounds {
        let tx = match round % 3 {
            1 => tx_gen
                .legal_deletion(&org, reference.instance())
                .unwrap_or_else(|| tx_gen.legal_insertion(&org)),
            2 => tx_gen
                .violating_insertion(&org, reference.instance())
                .unwrap_or_else(|| tx_gen.legal_insertion(&org)),
            _ => tx_gen.legal_insertion(&org),
        };
        let _ = reference.apply(&tx);
        txs.push(tx);
    }
    ChaosWorkload { schema, base, txs }
}

/// Outcome of one workload run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Transactions committed.
    pub applied: usize,
    /// Transactions rejected (illegal / invalid) and rolled back.
    pub rejected: usize,
    /// Transactions aborted by an injected panic and rolled back.
    pub panicked: usize,
    /// Canonical bytes of the final instance.
    pub final_state: Vec<u8>,
    /// The accumulated journal text ("disk" contents).
    pub journal_text: String,
}

/// Runs the workload once with `plan` attached as the probe, asserting
/// the atomicity and recovery invariants at every step. Panics with a
/// diagnostic on the first violation.
pub fn run_once(w: &ChaosWorkload, plan: &Arc<FaultPlan>) -> RunStats {
    let mut live = ManagedDirectory::with_instance(w.schema.clone(), w.base.clone())
        .expect("chaos base instance is legal");
    let disk = MemoryJournal::default();
    live.set_sink(disk.sink());
    let legal = |live: &ManagedDirectory| live.is_legal();
    let mut journal_text = String::new();
    let mut stats = RunStats {
        applied: 0,
        rejected: 0,
        panicked: 0,
        final_state: Vec::new(),
        journal_text: String::new(),
    };

    for (i, tx) in w.txs.iter().enumerate() {
        let before = live.instance().canonical_bytes();
        let forked_from = live.shared_instance();
        let result = live.apply_op(Op::Tx { tx, global: None }, &**plan);
        journal_text.push_str(&disk.take());
        match result {
            Ok(flushed) => {
                flushed.expect("an in-memory journal always flushes");
                assert!(legal(&live), "tx {i}: committed transaction left illegal state");
                // What the scoped deletion check let through, the
                // whole-instance recheck of Figure 5 lets through too.
                if let Err(diff) =
                    scoped_deletion_matches_figure5(&w.schema, &forked_from, live.instance())
                {
                    panic!("tx {i}: {diff}");
                }
                stats.applied += 1;
            }
            Err(ManagedError::Panicked { reason }) => {
                assert_eq!(
                    live.instance().canonical_bytes(),
                    before,
                    "tx {i}: panicked transaction ({reason}) was not atomic"
                );
                assert!(legal(&live), "tx {i}: panicked transaction poisoned the state");
                stats.panicked += 1;
            }
            Err(e) => {
                assert_eq!(
                    live.instance().canonical_bytes(),
                    before,
                    "tx {i}: failed transaction ({e}) was not atomic"
                );
                assert!(legal(&live), "tx {i}: failed transaction poisoned the state");
                stats.rejected += 1;
            }
        }
        // Committed, refused or cut short by a fault: the numbering and
        // the index the next transaction runs on are the from-scratch ones.
        if let Err(drift) = live.instance().check_prepared() {
            panic!("tx {i}: {drift}");
        }
    }

    // Recovery differential: replaying the journal (probe-free, so no
    // faults) from the base must land on the live state, committed
    // transactions only.
    let journal = Journal::parse(&journal_text);
    assert!(!journal.truncated, "journal written by an uncrashed run must parse intact");
    let rec = recover_with_checkpoint(w.schema.clone(), w.base.clone(), None, &journal)
        .expect("recovery from an intact journal succeeds");
    assert_eq!(
        rec.report.replayed, stats.applied,
        "recovery must replay exactly the committed txs"
    );
    assert_eq!(
        rec.managed.instance().canonical_bytes(),
        live.instance().canonical_bytes(),
        "journal recovery must reproduce the live directory byte for byte"
    );

    stats.final_state = live.instance().canonical_bytes();
    stats.journal_text = journal_text;
    stats
}

/// Aggregate result of a chaos campaign.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Probe-site census from the fault-free observer run: site name →
    /// times hit. Every one of these sites was subsequently targeted.
    pub sites: BTreeMap<String, u64>,
    /// Total injectable events in the fault-free run.
    pub events: u64,
    /// Workload runs executed (1 observer + one per event).
    pub runs: usize,
    /// Faults actually injected across all runs.
    pub injected: u64,
    /// Runs where the fault was absorbed (graceful degradation or
    /// post-verdict probe fault): no transaction aborted and the final
    /// state equals the fault-free baseline.
    pub survived: u64,
    /// Transactions aborted by an injected panic (all verified atomic).
    pub aborted_txs: usize,
    /// Simulated journal crash cuts recovered from.
    pub crash_cuts: usize,
}

/// Runs the full chaos campaign for `cfg`: observer census, one
/// fail-nth run per event, and simulated journal crashes. Panics on the
/// first violated invariant; returns aggregate statistics otherwise.
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosReport {
    bschema_faults::silence_injected_panics();
    let w = scripted_workload(cfg);

    let observer = Arc::new(FaultPlan::observer());
    let baseline = run_once(&w, &observer);
    let events = observer.events();
    assert!(events > 0, "observer run must hit probe sites");

    let mut report = ChaosReport {
        sites: observer.sites(),
        events,
        runs: 1,
        injected: 0,
        survived: 0,
        aborted_txs: 0,
        crash_cuts: 0,
    };

    for event in 0..events {
        let plan = Arc::new(FaultPlan::fail_nth(event));
        let stats = run_once(&w, &plan);
        report.runs += 1;
        report.injected += plan.injected();
        report.aborted_txs += stats.panicked;
        if stats.panicked == 0 && stats.final_state == baseline.final_state {
            report.survived += 1;
        }
    }

    // Simulated crashes: cut the baseline journal at seeded byte offsets
    // and recover; the result must be a legal directory holding exactly
    // the committed prefix.
    for i in 0..cfg.crash_cuts {
        let len = baseline.journal_text.len();
        let mut cut =
            bschema_faults::nth_from_seed(cfg.seed ^ ((i as u64) << 8), len as u64 + 1) as usize;
        while cut > 0 && !baseline.journal_text.is_char_boundary(cut) {
            cut -= 1;
        }
        let journal = Journal::parse(&baseline.journal_text[..cut]);
        let committed = journal.committed().count();
        let rec = recover_with_checkpoint(w.schema.clone(), w.base.clone(), None, &journal)
            .expect("recovery from a truncated journal succeeds");
        assert_eq!(rec.report.replayed, committed, "cut at byte {cut}: replay count mismatch");
        assert!(rec.managed.is_legal(), "cut at byte {cut}: recovered directory is illegal");
        report.crash_cuts += 1;
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_workload_is_deterministic() {
        let cfg = ChaosConfig { org_size: 30, rounds: 4, ..ChaosConfig::default() };
        let a = scripted_workload(&cfg);
        let b = scripted_workload(&cfg);
        assert_eq!(a.txs.len(), b.txs.len());
        assert_eq!(a.base.canonical_bytes(), b.base.canonical_bytes());
        for (ta, tb) in a.txs.iter().zip(&b.txs) {
            assert_eq!(format!("{ta:?}"), format!("{tb:?}"));
        }
    }

    #[test]
    fn fault_free_run_commits_and_recovers() {
        let cfg = ChaosConfig { org_size: 30, rounds: 4, ..ChaosConfig::default() };
        let w = scripted_workload(&cfg);
        let plan = Arc::new(FaultPlan::observer());
        let stats = run_once(&w, &plan);
        assert!(stats.applied >= 2, "workload must commit transactions: {stats:?}");
        assert!(stats.rejected >= 1, "workload must include a rejected transaction: {stats:?}");
        assert_eq!(stats.panicked, 0);
        assert!(plan.events() > 0);
    }
}
