//! Instrumentation-layer tests: the probe counters must match
//! hand-computed operation counts on the paper's Figure 1–3 fixtures, and
//! span trees must follow the order the checks report in.
//!
//! Counter ↔ paper mapping (see DESIGN.md):
//! * `legality.structure_queries` / `query.evaluated` — the Figure 4
//!   queries behind Theorem 3.1's O(|Q|·|D|) bound.
//! * `incremental.delta_query.<row>` — the Figure 5 Δ-queries per row.
//! * `consistency.rule.<name>` — Figure 6/7 inference-rule firings.

use std::sync::Arc;

use bschema_core::consistency::ConsistencyChecker;
use bschema_core::engine::Op;
use bschema_core::legality::{translate, LegalityChecker};
use bschema_core::managed::{ManagedDirectory, ManagedError};
use bschema_core::paper::{white_pages_instance, white_pages_schema};
use bschema_core::updates::{IncrementalChecker, Transaction};
use bschema_directory::Entry;
use bschema_obs::Recorder;

fn researcher(uid: &str) -> Entry {
    Entry::builder()
        .classes(["researcher", "person", "top"])
        .attr("uid", uid)
        .attr("name", uid)
        .build()
}

#[test]
fn full_check_counters_match_hand_computed_values() {
    let schema = white_pages_schema();
    let (dir, _) = white_pages_instance();
    let recorder = Recorder::new();
    let report = LegalityChecker::new(&schema).with_probe(&recorder).check(&dir);
    assert!(report.is_legal(), "{report}");

    let m = recorder.metrics();
    // Figure 1 has exactly six entries, each content-checked once.
    assert_eq!(m.counter("legality.entries_content_checked"), 6);
    // Figure 3 structure schema: 3 required classes + 4 required
    // relationships + 2 forbidden relationships = 9 legality queries
    // (the Figure 4 translation), each evaluated exactly once.
    assert_eq!(m.counter("legality.structure_queries"), 9);
    assert_eq!(m.counter("query.evaluated"), 9);
    let sizes = m.histogram("query.result_size").expect("result sizes observed");
    assert_eq!(sizes.count(), 9);
    // The three ◇-class queries return non-empty results (1 organization,
    // 2 orgUnits, 3 persons = 6 hits); every violation query is empty.
    assert_eq!(sizes.sum(), 6);

    // The pass runs once, on the caller's thread: content, keys, then the
    // structure queries, each a leaf span.
    let tree = recorder.tracer().tree();
    assert_eq!(tree.len(), 1);
    assert_eq!(tree[0].shape(), "legality.check(content,keys,structure)");
}

#[test]
fn explain_census_of_the_nine_figure4_queries() {
    let schema = white_pages_schema();
    let (dir, _) = white_pages_instance();
    let structure = schema.structure();

    // The Figure 4 translation of the Figure 3 structure schema, in the
    // order the legality engine evaluates it.
    let mut queries = Vec::new();
    for class in structure.required_classes() {
        queries.push(translate::required_class_query(&schema, class));
    }
    for rel in structure.required_rels() {
        queries.push(translate::required_rel_query(&schema, rel));
    }
    for rel in structure.forbidden_rels() {
        queries.push(translate::forbidden_rel_query(&schema, rel));
    }
    assert_eq!(queries.len(), 9);

    let ctx = bschema_query::EvalContext::new(&dir);
    let reports: Vec<_> = queries.iter().map(|q| bschema_query::explain(&ctx, q)).collect();

    // EXPLAIN's matched counts are the same census the legality
    // counters pin: the three ◇-class queries hit 1 + 2 + 3 = 6
    // entries, every violation query is empty.
    let matched: usize = reports.iter().map(|r| r.matched()).sum();
    assert_eq!(matched, 6, "Figure 4 matched totals");
    for (query, report) in queries.iter().zip(&reports) {
        assert_eq!(
            report.result,
            bschema_query::evaluate(&ctx, query),
            "EXPLAIN must return what evaluate returns: {query}"
        );
        assert!(
            report.scanned() >= report.matched(),
            "cannot match more than was scanned: {}",
            report.render_text()
        );
        assert!(bschema_obs::json::is_valid(&report.to_json()), "EXPLAIN JSON parses");
    }
}

#[test]
fn insertion_counts_figure5_delta_queries_per_row() {
    let schema = white_pages_schema();
    let (mut dir, ids) = white_pages_instance();
    let mut tx = Transaction::new();
    tx.insert_under(ids.databases, researcher("zoe"));
    // The served path certifies with Figure 5′ and evaluates no Δ-query;
    // the counters below come from the Figure 5 oracle alone.
    let served = Recorder::new();
    let applied = bschema_core::updates::apply_and_check_probed(&schema, &mut dir, &tx, &served)
        .expect("valid transaction");
    assert!(applied.report.is_legal(), "{}", applied.report);
    assert!(
        served
            .metrics()
            .counters()
            .iter()
            .all(|(key, _)| !key.starts_with("incremental.delta_query")),
        "{:?}",
        served.metrics().counters()
    );
    let recorder = Recorder::new();
    let report = IncrementalChecker::new(&schema)
        .with_probe(&recorder)
        .check_insertions(&dir, &applied.inserted_roots);
    assert_eq!(report, applied.report);

    let m = recorder.metrics();
    // One researcher/person inserted under an orgUnit. Figure 5 Δ-queries
    // fired, by structure-schema row (the new entry is a person and — via
    // top — a candidate target of every relationship):
    //   orgGroup →de person  → require_descendant (target side)    = 1
    //   orgUnit  →pa orgGroup + person →pa orgGroup (source side)  = 2
    //   orgUnit  →an organization (target is never a new person,
    //                              but the inserted subtree could
    //                              contain an orgUnit)              = 1
    //   person  →ch̸ top + organization →ch̸ organization            = 2
    assert_eq!(m.counter("incremental.delta_query.require_descendant"), 1);
    assert_eq!(m.counter("incremental.delta_query.require_parent"), 2);
    assert_eq!(m.counter("incremental.delta_query.require_ancestor"), 1);
    assert_eq!(m.counter("incremental.delta_query.forbid_child"), 2);
    assert_eq!(m.counter("incremental.delta_query.require_child"), 0);
    assert_eq!(m.counter("incremental.delta_query.forbid_descendant"), 0);
    // Only the inserted entry is content-checked — that is the point of
    // the Figure 5 incremental test.
    assert_eq!(m.counter("legality.entries_content_checked"), 1);

    let tree = recorder.tracer().tree();
    let shapes: Vec<String> = tree.iter().map(|n| n.shape()).collect();
    // Each Δ-query gets its own row span under the structure wave, named
    // for its Figure 5 row, in structure-schema order — the same per-row
    // census the counters above pin.
    assert!(
        shapes.contains(
            &"incremental.check_insertions(content_delta,keys,structure_delta(\
              require_descendant,require_parent,require_ancestor,require_parent,forbid_child,\
              forbid_child))"
                .to_owned()
        ),
        "{shapes:?}"
    );
}

#[test]
fn consistency_rule_firings_sum_to_closure_size() {
    let schema = white_pages_schema();
    let recorder = Recorder::new();
    let verdict = ConsistencyChecker::new(&schema).with_probe(&recorder).check();
    assert!(verdict.is_consistent());

    let m = recorder.metrics();
    // Every Figure 3 structure element is seeded by the `schema` rule:
    // 3 required classes + 4 required rels + 2 forbidden rels = 9.
    assert_eq!(m.counter("consistency.rule.schema"), 9);
    // Each closure element is derived (and counted) exactly once, so the
    // per-rule firings partition the closure.
    let fired: u64 = m
        .counters()
        .iter()
        .filter(|(k, _)| k.starts_with("consistency.rule."))
        .map(|(_, v)| *v)
        .sum();
    assert_eq!(fired, verdict.closure_size() as u64);
    let h = m.histogram("consistency.closure_size").expect("closure size observed");
    assert_eq!(h.count(), 1);
    assert_eq!(h.sum(), verdict.closure_size() as u64);

    assert_eq!(recorder.tracer().tree()[0].shape(), "consistency.check");
}

#[test]
fn managed_rollback_reports_and_counts_the_violations() {
    let schema = white_pages_schema();
    let (dir, ids) = white_pages_instance();
    let recorder = Arc::new(Recorder::new());
    let mut managed = ManagedDirectory::with_instance(schema, dir).expect("figure 1 is legal");
    let len_before = managed.len();

    // Giving a person a child violates person →ch̸ top; the transaction
    // must roll back *and* still hand the violation set to the caller.
    let mut tx = Transaction::new();
    tx.insert_under(ids.suciu, researcher("intruder"));
    let err = managed
        .apply_op(Op::Tx { tx: &tx, global: None }, &*recorder)
        .expect_err("illegal transaction");
    let ManagedError::RolledBack(report) = err else {
        panic!("expected RolledBack, got: {err}");
    };
    assert!(!report.is_legal());
    assert!(report.violations().iter().any(|v| v.kind_name() == "forbidden-relationship"));
    assert_eq!(managed.len(), len_before, "rollback restored the instance");

    let m = recorder.metrics();
    assert_eq!(m.counter("managed.tx_rolled_back"), 1);
    assert_eq!(m.counter("managed.tx_applied"), 0);
    assert!(m.counter("managed.rollback_violation.forbidden-relationship") >= 1);
    assert_eq!(m.histogram("managed.rollback_violations").expect("observed").count(), 1);

    // A legal transaction on the same directory counts as applied.
    let mut tx = Transaction::new();
    tx.insert_under(ids.databases, researcher("newhire"));
    managed
        .apply_op(Op::Tx { tx: &tx, global: None }, &*recorder)
        .expect("legal transaction")
        .expect("no journal to flush");
    assert_eq!(recorder.metrics().counter("managed.tx_applied"), 1);
    assert_eq!(managed.len(), len_before + 1);
}

#[test]
fn noop_probe_records_nothing_and_changes_nothing() {
    let schema = white_pages_schema();
    let (dir, _) = white_pages_instance();
    // Instrumented and uninstrumented checkers agree byte-for-byte.
    let recorder = Recorder::new();
    let plain = LegalityChecker::new(&schema).check(&dir);
    let probed = LegalityChecker::new(&schema).with_probe(&recorder).check(&dir);
    assert_eq!(plain, probed);
    // The no-op probe really is inert: a recorder never attached stays
    // empty even after the probed run above did real work.
    let untouched = Recorder::new();
    assert!(untouched.metrics().is_empty());
    assert!(untouched.tracer().is_empty());
}
