//! Differential test oracle for the legality engine.
//!
//! Independent routes to a report must agree on every randomized input:
//!
//! * [`LegalityChecker::check`] — the one engine, its fan-out derived
//!   from |D|,
//! * the same engine held at 1, 2 and 5 workers through the module-level
//!   [`legality::check_instance`] — required to be *byte-identical* (same
//!   violations, same order), with and without a recording probe, and
//! * the **naive** traversal baseline (`legality/naive.rs`, Definition
//!   2.7's content check entry by entry, no cache) — required to agree up
//!   to ordering ([`LegalityReport::normalized`]).
//!
//! Inputs come from the `bschema-workload` generators with fixed RNG
//! seeds, so every case is reproducible: organisation-shaped directories
//! (legal and with injected violations), randomly generated schemas
//! (checked both against their consistency witnesses and against
//! mismatched org directories), and random update transactions whose
//! batched Δ-checks are compared with the paper-literal per-step check
//! and against full rechecks. Together the suite runs well over 256
//! cases.

use bschema_core::consistency::build_witness;
use bschema_core::legality::{self, LegalityChecker};
use bschema_core::paper::white_pages_schema;
use bschema_core::schema::DirectorySchema;
use bschema_core::updates::{apply_and_check, apply_and_check_probed, Transaction};
use bschema_directory::DirectoryInstance;
use bschema_workload::{
    OrgGenerator, OrgParams, SchemaGenerator, SchemaParams, TxGenerator, TxParams,
};

/// Worker counts the engine is held at: inline, a couple, an odd count
/// larger than most inputs' chunk counts.
const WORKER_COUNTS: [usize; 3] = [1, 2, 5];

/// Asserts every route produces the same report for (schema, dir) — with
/// and without an instrumentation probe attached. Returns the agreed
/// verdict.
fn engines_agree(schema: &DirectorySchema, dir: &DirectoryInstance, label: &str) -> bool {
    let derived = LegalityChecker::new(schema).check(dir);
    // Attaching a recording probe must not perturb the report.
    let recorder = bschema_obs::Recorder::new();
    let probed = LegalityChecker::new(schema).with_probe(&recorder).check(dir);
    assert_eq!(derived, probed, "{label}: instrumented report differs from no-op-probe report");
    for workers in WORKER_COUNTS {
        let held = legality::check_instance(schema, dir, false, workers, bschema_obs::noop());
        assert_eq!(
            derived, held,
            "{label}: report at {workers} worker(s) differs from the derived fan-out's.\n\
             derived: {derived}\nheld: {held}"
        );
        let held_probed = legality::check_instance(schema, dir, false, workers, &recorder);
        assert_eq!(
            derived, held_probed,
            "{label}: instrumented report at {workers} worker(s) differs"
        );
    }
    let naive = LegalityChecker::new(schema).check_naive(dir).normalized();
    let normalized = derived.clone().normalized();
    assert_eq!(
        normalized, naive,
        "{label}: naive baseline disagrees.\nfast: {normalized}\nnaive: {naive}"
    );
    derived.is_legal()
}

/// 168 cases: org directories across sizes, seeds, and injected-violation
/// counts. Covers the legal fast path and mixed content + structure
/// violation reports.
#[test]
fn org_directories_all_engines_agree() {
    let schema = white_pages_schema();
    let mut legal_cases = 0;
    let mut illegal_cases = 0;
    for case in 0..168u64 {
        let size = 40 + (case as usize % 7) * 60;
        let violations = match case % 4 {
            0 => 0,
            1 => 1,
            2 => 4,
            _ => 9,
        };
        let params = OrgParams {
            target_entries: size,
            violations,
            seed: 1000 + case,
            ..OrgParams::default()
        };
        let org = OrgGenerator::new(params).generate();
        let legal = engines_agree(&schema, &org.dir, &format!("org case {case}"));
        if legal {
            legal_cases += 1;
        } else {
            illegal_cases += 1;
        }
        // Injected violations must actually be detected (oracle sanity:
        // agreeing on "everything is legal" would be vacuous).
        if violations > 0 {
            assert!(!legal, "case {case}: {violations} injected violations went undetected");
        }
    }
    assert!(legal_cases >= 40, "suite must exercise the legal path (got {legal_cases})");
    assert!(illegal_cases >= 40, "suite must exercise violation reporting (got {illegal_cases})");
}

/// 60 cases: randomly generated schemas checked against their own
/// consistency witnesses (legal) and against a mismatched org directory
/// (dense unknown-class / structure violations).
#[test]
fn generated_schemas_all_engines_agree() {
    let org =
        OrgGenerator::new(OrgParams { target_entries: 120, seed: 77, ..OrgParams::default() })
            .generate();
    let mut cases = 0;
    for seed in 0..30u64 {
        let mut generator = SchemaGenerator::new(SchemaParams { seed, ..SchemaParams::default() });
        let schema = if seed % 2 == 0 { generator.consistent() } else { generator.unconstrained() };

        // Against the schema's own witness, when one exists.
        if let Ok(witness) = build_witness(&schema) {
            engines_agree(&schema, &witness, &format!("schema {seed} vs witness"));
            cases += 1;
        }

        // Against the (mismatched) org directory: every entry violates the
        // generated content schema somehow; all engines must report the
        // same flood of violations.
        engines_agree(&schema, &org.dir, &format!("schema {seed} vs org"));
        cases += 1;
    }
    assert!(cases >= 45, "expected ≥45 generated-schema cases, ran {cases}");
}

/// Builds one transaction inserting `k` independent orgUnit subtrees under
/// distinct existing units — the multi-subtree shape the batched Δ-check
/// fans out over.
fn multi_subtree_insertion(
    gen: &mut TxGenerator,
    org: &bschema_workload::org::GeneratedOrg,
    k: usize,
) -> Transaction {
    let mut tx = Transaction::new();
    for _ in 0..k {
        // Merge each generated single-subtree tx into ours by replaying its
        // ops with shifted op indices. (TxGenerator only produces
        // insert_under + insert_under_new chains.)
        let single = gen.legal_insertion(org);
        merge_insertion(&mut tx, &single);
    }
    tx
}

/// Replays the insertion ops of `src` into `dst` (op indices shift).
fn merge_insertion(dst: &mut Transaction, src: &Transaction) {
    use bschema_core::updates::{NodeRef, TxOp};
    let offset = dst.len();
    for op in src.ops() {
        match op {
            TxOp::Insert { parent: Some(NodeRef::Existing(id)), rdn, entry } => {
                match rdn {
                    Some(r) => dst.insert_under_named(*id, r.clone(), entry.clone()),
                    None => dst.insert_under(*id, entry.clone()),
                };
            }
            TxOp::Insert { parent: Some(NodeRef::New(op_idx)), rdn, entry } => {
                match rdn {
                    Some(r) => {
                        dst.insert_under_new_named(op_idx + offset, r.clone(), entry.clone())
                    }
                    None => dst.insert_under_new(op_idx + offset, entry.clone()),
                };
            }
            TxOp::Insert { parent: None, rdn, entry } => {
                match rdn {
                    Some(r) => dst.insert_root_named(r.clone(), entry.clone()),
                    None => dst.insert_root(entry.clone()),
                };
            }
            TxOp::Delete { target } => dst.delete(*target),
        }
    }
}

/// 64 cases: random transactions (single- and multi-subtree insertions,
/// deletions, violating insertions) applied with the paper-literal
/// per-step checker and with the batched checker the write path runs —
/// bare and under a recording probe. The probe must not perturb the
/// batched report, all verdicts must agree with a full recheck of the
/// resulting instance, and legal workloads must keep the running
/// directory legal.
#[test]
fn transactions_all_engines_agree() {
    let schema = white_pages_schema();
    let full = LegalityChecker::new(&schema);
    let mut org =
        OrgGenerator::new(OrgParams { target_entries: 260, seed: 5, ..OrgParams::default() })
            .generate();
    let mut gen = TxGenerator::new(TxParams { seed: 31, ..TxParams::default() });

    let mut cases = 0;
    for round in 0..64u32 {
        let (tx, violating) = match round % 4 {
            0 => (gen.legal_insertion(&org), false),
            1 => (multi_subtree_insertion(&mut gen, &org, 2 + (round as usize % 3)), false),
            2 => match gen.legal_deletion(&org, &org.dir) {
                Some(tx) => (tx, false),
                None => continue,
            },
            _ => match gen.violating_insertion(&org, &org.dir) {
                Some(tx) => (tx, true),
                None => continue,
            },
        };

        // Apply to three clones, one per route.
        let mut d_steps = org.dir.clone();
        let mut d_batch = org.dir.clone();
        let mut d_probed = org.dir.clone();
        let a_steps = apply_and_check(&schema, &mut d_steps, &tx).expect("valid tx");
        let a_batch = apply_and_check_probed(&schema, &mut d_batch, &tx, bschema_obs::noop())
            .expect("valid tx");
        let recorder = bschema_obs::Recorder::new();
        let a_probed =
            apply_and_check_probed(&schema, &mut d_probed, &tx, &recorder).expect("valid tx");

        // The probe changes nothing, and a served-size Δ runs inline.
        assert_eq!(a_batch.report, a_probed.report, "round {round}: probe perturbed the report");
        assert_eq!(a_batch.inserted_roots, a_probed.inserted_roots, "round {round}");
        assert_eq!(a_batch.removed.len(), a_probed.removed.len(), "round {round}");
        assert_eq!(a_steps.inserted_roots, a_batch.inserted_roots, "round {round}");
        let sites = u64::from(!a_batch.inserted_roots.is_empty()) * 2;
        assert_eq!(
            recorder.metrics().counter("parallel.chunks"),
            sites,
            "round {round}: inline chunks"
        );

        // Every route's verdict equals a from-scratch recheck.
        let ground_truth = full.check(&d_batch).is_legal();
        assert_eq!(a_batch.report.is_legal(), ground_truth, "round {round}: batched verdict");
        assert_eq!(
            a_steps.report.is_legal(),
            ground_truth,
            "round {round}: per-step verdict (single-root txs match the final instance)"
        );
        assert_eq!(violating, !ground_truth, "round {round}: generator contract");

        // All three clones hold the same final instance.
        assert_eq!(d_steps.len(), d_probed.len(), "round {round}");
        engines_agree(&schema, &d_probed, &format!("tx round {round} post-state"));

        // Keep the running directory legal by committing only legal txs.
        if !violating {
            org.dir = d_batch;
        }
        cases += 1;
    }
    assert!(cases >= 56, "expected ≥56 transaction cases, ran {cases}");
}
