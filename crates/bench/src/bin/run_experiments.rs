//! Regenerates every table/figure-level result of the paper as text tables.
//!
//! Usage: `run_experiments [f1|f4|f5|t31|q9|t42|t52|qopt|evo|srv|mon|all] [--quick] [--out <path>]`
//!
//! The paper (EDBT 2000) reports no absolute measurements — its evaluation
//! artefacts are the worked example (Figures 1–3), the reduction tables
//! (Figures 4–5), the inference system (Figures 6–7) and the complexity
//! theorems (3.1, 4.2, 5.2). This harness regenerates each: the functional
//! artefacts are printed verbatim from the implementation, and each
//! complexity claim is measured so the predicted *shape* (linear vs
//! quadratic, Δ vs full, polynomial) is visible in the numbers.
//!
//! What a served request costs — per layer, journalled, restarted — is
//! `dirbench`'s question, not this binary's (`dirbench/README.md`).

use std::sync::Arc;
use std::time::{Duration, Instant};

use bschema_bench::{fmt_us, nearest_rank, org_of_size, time_median_us, Table, SIZES};
use bschema_core::consistency::ConsistencyChecker;
use bschema_core::legality::{translate, LegalityChecker, LegalityReport};
use bschema_core::paper::{white_pages_instance, white_pages_schema};
use bschema_core::schema::{DirectorySchema, ForbidKind, RelKind};
use bschema_core::updates::{
    deletion_needs_recheck, insertion_delta_query, insertion_delta_query_forbidden,
    IncrementalChecker,
};
use bschema_core::ManagedDirectory;
use bschema_directory::Entry;
use bschema_obs::{MetricsRegistry, Recorder, SloPolicy};
use bschema_query::{evaluate, evaluate_naive, EvalContext, Query};
use bschema_server::{Client, DirectoryService, Server, ServerConfig};
use bschema_workload::{SchemaGenerator, SchemaParams, TxGenerator, TxParams};

/// Every `BENCH_JSON` payload emitted this run, in emission order, so
/// `--out <path>` can also persist the machine-readable results as one
/// JSON array for downstream tooling (CI trend lines, notebooks).
fn bench_lines() -> &'static std::sync::Mutex<Vec<String>> {
    static LINES: std::sync::OnceLock<std::sync::Mutex<Vec<String>>> = std::sync::OnceLock::new();
    LINES.get_or_init(|| std::sync::Mutex::new(Vec::new()))
}

/// Prints one machine-readable `BENCH_JSON {...}` line and records the
/// payload for `--out`.
fn emit_bench_line(payload: String) {
    println!("BENCH_JSON {payload}");
    bench_lines().lock().expect("bench line collector").push(payload);
}

/// A registry's counters as one JSON object. Counters are the whole
/// payload: what an experiment timed it prints as scalars of its own,
/// and span trees and bucketed histograms are for a live server's
/// `TRACE` / `METRICS`, not for a results file.
fn counters_json(metrics: &MetricsRegistry) -> String {
    let fields: Vec<String> = metrics
        .counters()
        .iter()
        .map(|(key, value)| format!("{}:{value}", bschema_obs::json::escape(key)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Emits a `BENCH_JSON` line carrying the engine counters collected by
/// an (untimed) instrumented pass, so the measured timings above it can
/// be correlated with operation counts — entries content-checked,
/// Figure 4 queries evaluated, Δ-queries per Figure 5 row — without
/// re-deriving them from the instance.
fn emit_bench_json(experiment: &str, n: usize, recorder: &Recorder) {
    emit_bench_line(format!(
        "{{\"experiment\":{},\"n\":{n},\"counters\":{}}}",
        bschema_obs::json::escape(experiment),
        counters_json(recorder.metrics())
    ));
}

/// What the command line chose for every experiment.
struct Run {
    quick: bool,
    /// Timing samples per cell.
    runs: usize,
    /// Instance sizes of the scaling tables.
    sizes: Vec<usize>,
}

/// An experiment's name on the command line and what runs it.
type Experiment = (&'static str, fn(&Run));

/// Every experiment, in the order `all` runs them, each with the reason
/// it is this binary's to run.
const EXPERIMENTS: [Experiment; 11] = [
    // The paper's figures, printed from the implementation.
    ("f1", |_| exp_f1()),
    ("f4", |_| exp_f4()),
    ("f5", |_| exp_f5()),
    // The paper's complexity claims, measured for their shape. The full
    // check alone goes past the sizes where fan-out starts.
    ("t31", |run| {
        let mut sizes = run.sizes.clone();
        if !run.quick {
            sizes.extend([20_000, 50_000]);
        }
        exp_t31(&sizes, run.runs)
    }),
    ("q9", |run| exp_q9(&run.sizes, run.runs)),
    ("t42", |run| exp_t42(&run.sizes, run.runs)),
    ("t52", |run| exp_t52(run.runs, run.quick)),
    // The paper's §7 future work and §6.2 schema evolution, measured.
    ("qopt", |run| exp_qopt(&run.sizes, run.runs)),
    ("evo", |run| exp_evo(run.quick)),
    // Not paper artefacts. `dirbench` is one closed-loop client on an
    // unmetered service: it cannot see 8 concurrent writers or what
    // metering costs, and the `bench-build` and `monitoring` CI jobs
    // read these rows.
    ("srv", |run| exp_srv(run.quick)),
    ("mon", |run| exp_mon(run.quick)),
];

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path: Option<String> = None;
    let mut args: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--out" {
            match it.next() {
                Some(path) => out_path = Some(path),
                None => {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                }
            }
        } else {
            args.push(arg);
        }
    }
    let quick = args.iter().any(|a| a == "--quick");
    let exp =
        args.iter().find(|a| !a.starts_with("--")).cloned().unwrap_or_else(|| "all".to_owned());
    let run = Run {
        quick,
        runs: if quick { 3 } else { 9 },
        sizes: if quick { vec![100, 1_000] } else { SIZES.to_vec() },
    };

    let chosen: Vec<_> =
        EXPERIMENTS.iter().filter(|(name, _)| exp == "all" || exp == *name).collect();
    if chosen.is_empty() {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!("unknown experiment {exp:?}; use {}|all", names.join("|"));
        std::process::exit(2);
    }
    for (_, experiment) in chosen {
        experiment(&run);
    }

    if let Some(path) = out_path {
        let lines = bench_lines().lock().expect("bench line collector");
        let mut doc = String::from("[\n");
        doc.push_str(&lines.iter().map(|l| format!("  {l}")).collect::<Vec<_>>().join(",\n"));
        doc.push_str("\n]\n");
        if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("cannot write {path:?}: {e}");
            std::process::exit(2);
        }
        println!("wrote {} BENCH_JSON record(s) to {path}", lines.len());
    }
}

/// Figures 1–3: the worked example checks out.
fn exp_f1() {
    println!("== F1-F3: the paper's worked example (Figures 1-3) ==");
    let schema = white_pages_schema();
    let (dir, _) = white_pages_instance();
    let consistency = ConsistencyChecker::new(&schema).check();
    let report = LegalityChecker::new(&schema).with_value_validation(true).check(&dir);
    println!("schema: {} ({} elements)", schema.name().unwrap_or("?"), schema.size());
    println!("schema consistent (Theorem 5.2): {}", consistency.is_consistent());
    println!("Figure 1 instance entries: {}", dir.len());
    println!("Figure 1 legal w.r.t. Figures 2-3 (paper section 2.3): {}", report.is_legal());
    println!();
}

/// Figure 4: the structure-element → query translation table.
fn exp_f4() {
    println!("== F4: structure schema -> hierarchical selection queries (Figure 4) ==");
    let schema = white_pages_schema();
    let mut table = Table::new(["schema element", "query (must be empty unless noted)"]);
    for class in schema.structure().required_classes() {
        let q = translate::required_class_query(&schema, class);
        table.row([
            format!("◇{}", schema.classes().name(class)),
            format!("{q}   [must be NON-empty]"),
        ]);
    }
    for rel in schema.structure().required_rels() {
        let q = translate::required_rel_query(&schema, rel);
        table.row([schema.display_required(rel), q.to_string()]);
    }
    for rel in schema.structure().forbidden_rels() {
        let q = translate::forbidden_rel_query(&schema, rel);
        table.row([schema.display_forbidden(rel), q.to_string()]);
    }
    println!("{}", table.render());
}

/// The white-pages schema extended so every Figure 5 row is exercised: the
/// paper's schema covers de/pa/an required and ch forbidden; this adds a
/// required-child row (`orgUnit →ch person`, satisfied by the generator:
/// every unit has a direct person child) and a forbidden-descendant row.
fn figure5_schema() -> DirectorySchema {
    bschema_core::paper::white_pages_schema_builder()
        .require_rel("orgUnit", RelKind::Child, "person")
        .and_then(|b| b.forbid_rel("organization", ForbidKind::Descendant, "organization"))
        .map(|b| b.build())
        .expect("figure-5 schema extension is well-formed")
}

/// Figure 5: the incremental-testability table, printed from the
/// implementation.
fn exp_f5() {
    println!("== F5: incremental testability of structural relationships (Figure 5) ==");
    let schema = figure5_schema();
    let mut table =
        Table::new(["element", "insert?", "insertion Δ-query", "delete?", "deletion strategy"]);
    for rel in schema.structure().required_rels() {
        let q = insertion_delta_query(&schema, rel);
        let (del_ok, del_strategy) = if deletion_needs_recheck(rel.kind) {
            ("no", "full recheck on D−ΔD (Figure 5′: the ancestor chain)".to_owned())
        } else {
            ("yes", "nothing to check (all [∅])".to_owned())
        };
        table.row([
            schema.display_required(rel),
            "yes".to_owned(),
            q.to_string(),
            del_ok.to_owned(),
            del_strategy,
        ]);
    }
    for rel in schema.structure().forbidden_rels() {
        let q = insertion_delta_query_forbidden(&schema, rel);
        table.row([
            schema.display_forbidden(rel),
            "yes".to_owned(),
            q.to_string(),
            "yes".to_owned(),
            "nothing to check (all [∅])".to_owned(),
        ]);
    }
    table.row([
        "◇c (required class)".to_owned(),
        "yes".to_owned(),
        "nothing to check".to_owned(),
        "yes*".to_owned(),
        "*with per-class counts (section 4.2)".to_owned(),
    ]);
    println!("{}", table.render());
}

/// Theorem 3.1: legality testing is linear in |D|; the naive pairwise
/// checker is quadratic. The one engine (`LegalityChecker::check`: the
/// signature cache and the Figure 4 queries, on the caller's thread) is
/// timed beside the traversal and pairwise references.
fn exp_t31(sizes: &[usize], runs: usize) {
    println!("== T3.1: legality testing — query reduction (linear) vs traversal vs pairwise strawman (quadratic) ==");
    let schema = white_pages_schema();
    let checker = LegalityChecker::new(&schema);
    let mut table =
        Table::new(["|D|", "check", "traversal", "pairwise (strawman)", "pairwise/check", "legal"]);
    for &n in sizes {
        let org = org_of_size(n);
        let check = time_median_us(runs, || checker.check(&org.dir));
        let traversal = time_median_us(runs.min(3), || checker.check_naive(&org.dir));
        // The quadratic strawman becomes painful quickly; cap its input.
        let pairwise = if n <= 10_000 {
            Some(time_median_us(runs.min(3), || checker.check_pairwise(&org.dir)))
        } else {
            None
        };
        let legal = checker.check(&org.dir).is_legal();
        table.row([
            n.to_string(),
            fmt_us(check),
            fmt_us(traversal),
            pairwise.map_or("-".to_owned(), fmt_us),
            pairwise.map_or("-".to_owned(), |p| format!("{:.1}x", p / check)),
            legal.to_string(),
        ]);

        let recorder = Recorder::new();
        LegalityChecker::new(&schema).with_probe(&recorder).check(&org.dir);
        emit_bench_json("t31", n, &recorder);
    }
    println!("{}", table.render());
}

/// The \[9\] substrate claim: hierarchical selection queries evaluate in
/// O(|Q|·|D|) with the interval-merge engine vs O(|Q|·|D|²)-ish naive.
fn exp_q9(sizes: &[usize], runs: usize) {
    println!("== Q9: hierarchical query evaluation, interval-merge vs naive (per operator) ==");
    type QueryMaker = fn() -> Query;
    let ops: [(&str, QueryMaker); 5] = [
        ("σc (child)", || {
            Query::object_class("orgUnit").with_child(Query::object_class("person"))
        }),
        ("σp (parent)", || {
            Query::object_class("person").with_parent(Query::object_class("orgUnit"))
        }),
        ("σd (descendant)", || {
            Query::object_class("orgGroup").with_descendant(Query::object_class("person"))
        }),
        ("σa (ancestor)", || {
            Query::object_class("person").with_ancestor(Query::object_class("organization"))
        }),
        ("σ? (paper Q1)", || {
            Query::object_class("orgGroup").minus(
                Query::object_class("orgGroup").with_descendant(Query::object_class("person")),
            )
        }),
    ];
    let mut table =
        Table::new(["operator", "|D|", "interval", "naive", "naive/interval", "|result|"]);
    for (name, make) in ops {
        for &n in sizes {
            let org = org_of_size(n);
            let ctx = EvalContext::new(&org.dir);
            let q = make();
            let fast = time_median_us(runs, || evaluate(&ctx, &q));
            let naive = time_median_us(runs.min(3), || evaluate_naive(&ctx, &q));
            let result = evaluate(&ctx, &q).len();
            table.row([
                name.to_owned(),
                n.to_string(),
                fmt_us(fast),
                fmt_us(naive),
                format!("{:.1}x", naive / fast),
                result.to_string(),
            ]);
        }
    }
    println!("{}", table.render());
}

/// Theorem 4.2 / Figure 5 measured: incremental Δ-checks vs full rechecks
/// after a small subtree insertion and deletion, as |D| grows — the
/// deletion both ways: scoped to the ancestor chain (Figure 5′, what the
/// write path runs) and by the paper's recheck of the "no" rows.
fn exp_t42(sizes: &[usize], runs: usize) {
    println!("== T4.2: incremental update checking, Δ-check vs full recheck ==");
    let schema = figure5_schema();
    let full = LegalityChecker::new(&schema);
    let incremental = IncrementalChecker::new(&schema);
    let mut table = Table::new([
        "|D|",
        "insert scoped (5′)",
        "insert Δ-check",
        "insert full",
        "ins full/Δ",
        "delete scoped (5′)",
        "chain",
        "delete Fig. 5",
        "delete full",
        "del full/scoped",
    ]);
    for &n in sizes {
        // Insertion: apply one legal ~5-entry subtree, then time both checks
        // on the post-insert instance.
        let mut org = org_of_size(n);
        let mut txgen = TxGenerator::new(TxParams::default());
        let tx = txgen.legal_insertion(&org);
        let normalized = tx.normalize(&org.dir).expect("generated tx is valid");
        let root = normalized.insertions[0].apply(&mut org.dir).expect("valid tx applies")[0];
        org.dir.prepare();
        assert!(full.check(&org.dir).is_legal(), "insertion fixture must stay legal");
        let ins_scoped = || incremental.check_insertions_scoped(&org.dir, &[root]);
        assert_eq!(ins_scoped(), incremental.check_insertion(&org.dir, root));
        let ins_scoped = time_median_us(runs, ins_scoped);
        let ins_delta = time_median_us(runs, || incremental.check_insertion(&org.dir, root));
        let ins_full = time_median_us(runs, || full.check(&org.dir));
        let recorder = Recorder::new();
        IncrementalChecker::new(&schema).with_probe(&recorder).check_insertion(&org.dir, root);
        emit_bench_json("t42.insert", n, &recorder);

        // Deletion: remove one safely-deletable person, then time both
        // checks on the post-delete instance.
        let mut org = org_of_size(n);
        let tx =
            txgen.legal_deletion(&org, &org.dir).expect("generated orgs have deletable persons");
        let normalized = tx.normalize(&org.dir).expect("valid");
        let former_parents: Vec<_> =
            normalized.deletion_roots.iter().map(|&r| org.dir.forest().parent(r)).collect();
        let removed: Vec<_> = normalized
            .deletion_roots
            .iter()
            .flat_map(|&r| org.dir.remove_subtree(r).expect("validated"))
            .map(|(_, e)| e)
            .collect();
        org.dir.prepare();
        assert!(full.check(&org.dir).is_legal(), "deletion fixture must stay legal");
        let scoped = || incremental.check_deletion_scoped(&org.dir, &removed, &former_parents);
        assert_eq!(scoped(), incremental.check_deletion(&org.dir, &removed));
        let del_scoped = time_median_us(runs, scoped);
        let del_delta = time_median_us(runs, || incremental.check_deletion(&org.dir, &removed));
        let del_full = time_median_us(runs, || full.check(&org.dir));
        let recorder = Recorder::new();
        IncrementalChecker::new(&schema).with_probe(&recorder).check_deletion(&org.dir, &removed);
        emit_bench_json("t42.delete", n, &recorder);
        let recorder = Recorder::new();
        IncrementalChecker::new(&schema).with_probe(&recorder).check_deletion_scoped(
            &org.dir,
            &removed,
            &former_parents,
        );
        emit_bench_json("t42.delete_scoped", n, &recorder);

        table.row([
            n.to_string(),
            fmt_us(ins_scoped),
            fmt_us(ins_delta),
            fmt_us(ins_full),
            format!("{:.1}x", ins_full / ins_delta),
            fmt_us(del_scoped),
            former_parents
                .iter()
                .flatten()
                .map(|&p| org.dir.forest().depth(p) + 1)
                .sum::<usize>()
                .to_string(),
            fmt_us(del_delta),
            fmt_us(del_full),
            format!("{:.1}x", del_full / del_scoped),
        ]);
    }
    println!("{}", table.render());
    println!("note: the Figure 5 insertion check (Δ-check) joins ∆D against whole-instance");
    println!("posting lists in four of its rows; the scoped one (Figure 5′, what the write");
    println!("path runs) answers every row from ∆D and its root's ancestor chain — same");
    println!("report, asserted above.");
    println!("note: the Figure 5 deletion check pays the 'no' rows (ch/de: a full recheck of");
    println!("those elements on D−ΔD); its advantage over the full check is skipping content,");
    println!("◇c, pa/an-required and all forbidden elements. The scoped check (Figure 5′)");
    println!("re-tests those rows at the deleted subtree's former parent and, while that one");
    println!("is starved, its ancestors — same report, asserted above: O(chain · log|D|) at");
    println!("worst, one test when a sibling witness remains, as here. (`chain` is what is");
    println!("above the deletion: this generator grows one organization depth-first.) The");
    println!("table below deletes inside a forest of organizations of bounded depth.\n");
    exp_t42_bounded_depth(runs, sizes.len() <= 2);
}

/// T4.2 continued: both columns on a forest of 250-entry organizations —
/// the shape of a served directory (`dirbench`'s `large-50k` is 200 of
/// them), where |D| grows by adding organizations and the depth stays
/// that of one. A 3-entry insertion (a unit and two persons, as
/// `dirbench` inserts) under the deepest unit, and the deletion of the
/// deepest person that leaves a sibling: the scoped checks should read
/// flat, the Figure 5 ones and the §3 check grow with |D|.
fn exp_t42_bounded_depth(runs: usize, quick: bool) {
    /// Scoped checks per timing sample: one is below the clock's grain.
    const REPS: usize = 100;
    let schema = white_pages_schema();
    let full = LegalityChecker::new(&schema);
    let incremental = IncrementalChecker::new(&schema);
    let mut table = Table::new([
        "|D|",
        "orgs",
        "chain",
        "insert scoped (5′)",
        "insert Fig. 5",
        "delete scoped (5′)",
        "delete Fig. 5",
        "delete full",
    ]);
    let sizes: &[usize] = if quick { &[2_000, 10_000] } else { &[2_000, 10_000, 20_000, 50_000] };
    let timed = |check: &dyn Fn() -> LegalityReport| {
        time_median_us(runs, || {
            for _ in 0..REPS {
                std::hint::black_box(check());
            }
        }) / REPS as f64
    };
    for &n in sizes {
        let mut dir = bschema_workload::multi_org_base(n / 250, 250, 42);
        // The insertion, on a copy: a unit of two persons under the
        // deepest unit.
        let mut inserted = dir.clone();
        let forest = inserted.forest();
        let is_unit = |id| inserted.entry(id).is_some_and(|e| e.has_class("orgUnit"));
        let anchor = forest
            .iter()
            .filter(|&id| is_unit(id))
            .max_by_key(|&id| forest.depth(id))
            .expect("generated organizations have units");
        let unit = Entry::builder().classes(["orgUnit", "orgGroup", "top"]).attr("ou", "t42");
        let root = inserted.add_child_entry(anchor, unit.build()).expect("live anchor");
        for uid in ["t42a", "t42b"] {
            let person =
                Entry::builder().classes(["person", "top"]).attr("uid", uid).attr("name", uid);
            inserted.add_child_entry(root, person.build()).expect("live unit");
        }
        inserted.prepare();
        assert!(full.check(&inserted).is_legal(), "insertion fixture must stay legal");
        let ins_scoped = || incremental.check_insertions_scoped(&inserted, &[root]);
        assert_eq!(ins_scoped(), incremental.check_insertion(&inserted, root));
        let ins_scoped = timed(&ins_scoped);
        let ins_delta = timed(&|| incremental.check_insertion(&inserted, root));
        // The deepest person that leaves a person sibling behind.
        let forest = dir.forest();
        let is_person = |id| dir.entry(id).is_some_and(|e| e.has_class("person"));
        let victim = forest
            .iter()
            .filter(|&id| is_person(id))
            .filter(|&id| {
                forest
                    .parent(id)
                    .is_some_and(|p| forest.children(p).filter(|&c| is_person(c)).count() > 1)
            })
            .max_by_key(|&id| forest.depth(id))
            .expect("generated units hold several persons");
        let former_parents = [forest.parent(victim)];
        let chain = forest.depth(victim);
        let removed = [dir.remove_leaf(victim).expect("a leaf")];
        dir.prepare();
        assert!(full.check(&dir).is_legal(), "deletion fixture must stay legal");
        let scoped = || incremental.check_deletion_scoped(&dir, &removed, &former_parents);
        assert_eq!(scoped(), incremental.check_deletion(&dir, &removed));
        let del_scoped = timed(&scoped);
        let del_delta = time_median_us(runs, || incremental.check_deletion(&dir, &removed));
        let del_full = time_median_us(runs, || full.check(&dir));
        table.row([
            dir.len().to_string(),
            (n / 250).to_string(),
            chain.to_string(),
            fmt_us(ins_scoped),
            fmt_us(ins_delta),
            fmt_us(del_scoped),
            fmt_us(del_delta),
            fmt_us(del_full),
        ]);
    }
    println!("{}", table.render());
}

/// Theorem 5.2: consistency checking is polynomial in the schema size.
fn exp_t52(runs: usize, quick: bool) {
    println!("== T5.2: schema consistency checking, closure time vs schema size ==");
    let sizes: Vec<usize> = if quick { vec![10, 40] } else { vec![10, 20, 40, 80, 160, 320] };
    let mut table =
        Table::new(["schema size", "family", "closure time", "closure |elements|", "consistent"]);
    for &n in &sizes {
        for family in ["consistent", "inconsistent", "unconstrained"] {
            let make = |seed: u64| {
                let mut g = SchemaGenerator::new(SchemaParams { seed, ..SchemaParams::sized(n) });
                match family {
                    "consistent" => g.consistent(),
                    "inconsistent" => g.inconsistent(),
                    _ => g.unconstrained(),
                }
            };
            let schema = make(1);
            let us = time_median_us(runs, || ConsistencyChecker::new(&schema).check());
            let result = ConsistencyChecker::new(&schema).check();
            table.row([
                schema.size().to_string(),
                family.to_owned(),
                fmt_us(us),
                result.closure_size().to_string(),
                result.is_consistent().to_string(),
            ]);
        }
    }
    println!("{}", table.render());

    // The §5.1 headline example, with its proof.
    let schema = DirectorySchema::builder()
        .core_class("c1", "top")
        .and_then(|b| b.core_class("c2", "top"))
        .and_then(|b| b.require_class("c1"))
        .and_then(|b| b.require_rel("c1", RelKind::Child, "c2"))
        .and_then(|b| b.require_rel("c2", RelKind::Descendant, "c1"))
        .map(|b| b.build())
        .expect("well-formed");
    let result = ConsistencyChecker::new(&schema).check();
    println!(
        "section 5.1 example (◇c1, c1 →ch c2, c2 →de c1): consistent = {}",
        result.is_consistent()
    );
    println!("derivation of ◇∅:\n{}", result.explain_inconsistency().unwrap_or_default());
}

/// The paper's §7 future work, measured: schema-aware query rewriting on
/// legal instances (see `bschema_core::qopt`).
fn exp_qopt(sizes: &[usize], runs: usize) {
    use bschema_core::qopt::SchemaAwareOptimizer;
    println!("== QOPT: schema-aware query optimization (paper section 7 future work) ==");
    let schema = white_pages_schema();
    let optimizer = SchemaAwareOptimizer::new(&schema);
    type QueryMaker = fn() -> Query;
    let cases: [(&str, QueryMaker); 4] = [
        ("σd known-required (orgGroup →de person)", || {
            Query::object_class("orgGroup").with_descendant(Query::object_class("person"))
        }),
        ("σ? legality query of a schema element", || {
            Query::object_class("orgGroup").minus(
                Query::object_class("orgGroup").with_descendant(Query::object_class("person")),
            )
        }),
        ("∩ of subclass pair (researcher ∩ person)", || {
            Query::object_class("researcher").intersect(Query::object_class("person"))
        }),
        ("σc known-forbidden (person →ch top)", || {
            Query::object_class("person").with_child(Query::object_class("top"))
        }),
    ];
    let mut table =
        Table::new(["query", "|D|", "raw eval", "optimized eval", "speedup", "|Q| raw→opt"]);
    for (name, make) in cases {
        for &n in sizes {
            let org = org_of_size(n);
            let ctx = EvalContext::new(&org.dir);
            let raw = make();
            let optimized = optimizer.optimize(raw.clone());
            assert_eq!(
                evaluate(&ctx, &raw),
                evaluate(&ctx, &optimized),
                "rewrite must preserve semantics on legal instances"
            );
            let t_raw = time_median_us(runs, || evaluate(&ctx, &raw));
            let t_opt = time_median_us(runs, || evaluate(&ctx, &optimized));
            table.row([
                name.to_owned(),
                n.to_string(),
                fmt_us(t_raw),
                fmt_us(t_opt),
                format!("{:.1}x", t_raw / t_opt.max(0.01)),
                format!("{}→{}", raw.size(), optimized.size()),
            ]);
        }
    }
    println!("{}", table.render());
}

/// What one closed-loop run over loopback TCP measured.
struct Load {
    clients: usize,
    elapsed: Duration,
    /// Every request's wall clock as its client saw it, in µs: all
    /// clients merged, ascending.
    samples_us: Vec<f64>,
    /// The server's own counters (`counters_json`).
    counters: String,
}

impl Load {
    fn req_per_s(&self) -> f64 {
        self.samples_us.len() as f64 / self.elapsed.as_secs_f64()
    }

    /// Adds this run as the table row labelled `n` and emits its
    /// `BENCH_JSON` line: `req_per_s`, nearest-rank `p50_us` / `p99_us`
    /// of the samples, and the server's counters.
    fn report(&self, experiment: &str, n: usize, table: &mut Table) {
        let req_per_s = self.req_per_s();
        let p50 = nearest_rank(&self.samples_us, 50.0);
        let p99 = nearest_rank(&self.samples_us, 99.0);
        table.row([
            n.to_string(),
            self.clients.to_string(),
            self.samples_us.len().to_string(),
            fmt_us(self.elapsed.as_micros() as f64),
            format!("{req_per_s:.0}"),
            fmt_us(p50),
            fmt_us(p99),
        ]);
        emit_bench_line(format!(
            "{{\"experiment\":\"{experiment}\",\"n\":{n},\"req_per_s\":{req_per_s:.1},\
             \"p50_us\":{p50:.1},\"p99_us\":{p99:.1},\"counters\":{}}}",
            self.counters
        ));
    }
}

/// The one loopback driver of `srv` and `mon`: serves `service` on
/// `workers` threads, runs `clients` concurrent sessions of
/// `per_client` requests — `request(client, c, i)` sends session `c`'s
/// `i`-th — times each request on the client's side, and drains the
/// server. The row carries the server's counters when it is metered.
fn drive(
    service: DirectoryService,
    workers: usize,
    clients: usize,
    per_client: usize,
    request: impl Fn(&mut Client, usize, usize) + Sync,
) -> Load {
    let config = ServerConfig { threads: workers, ..ServerConfig::default() };
    let handle = Server::spawn(Arc::new(service), config).expect("bind loopback");
    let addr = handle.addr();

    let started = Instant::now();
    let mut samples_us: Vec<f64> = std::thread::scope(|scope| {
        let request = &request;
        let sessions: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("bench client connects");
                    let mut samples = Vec::with_capacity(per_client);
                    for i in 0..per_client {
                        let sent = Instant::now();
                        request(&mut client, c, i);
                        samples.push(sent.elapsed().as_secs_f64() * 1e6);
                    }
                    client.unbind().expect("unbind");
                    samples
                })
            })
            .collect();
        sessions.into_iter().flat_map(|s| s.join().expect("bench client thread")).collect()
    });
    let elapsed = started.elapsed();
    let service = handle.service().clone();
    handle.shutdown();
    handle.wait();

    samples_us.sort_by(f64::total_cmp);
    let counters = service.metrics().map_or_else(|| "{}".to_owned(), counters_json);
    Load { clients, elapsed, samples_us, counters }
}

/// The read workload of `srv` and `mon`: one unsharded white-pages org
/// of `size` entries, and sessions that alternate PING with a bounded
/// subtree SEARCH.
fn read_service(size: usize) -> DirectoryService {
    let managed = ManagedDirectory::with_instance(white_pages_schema(), org_of_size(size).dir)
        .expect("generated org is legal");
    DirectoryService::new(managed)
}

fn read_request(client: &mut Client, _session: usize, i: usize) {
    if i % 2 == 0 {
        client.ping().expect("ping");
    } else {
        client.search(None, "sub", "(objectClass=person)", Some(10)).expect("search");
    }
}

/// SRV: wire-frontend throughput at 1, 4 and 8 workers. Not a paper
/// artefact — the deployment sanity number for `bschema-server`:
/// snapshot-backed reads should scale with the worker pool while the
/// serialized write path stays correct. Emits one `BENCH_JSON` line per
/// worker count with `req_per_s`, client-side latency percentiles and
/// the server's own counters.
fn exp_srv(quick: bool) {
    println!("== SRV: wire-frontend throughput (loopback TCP) ==");
    let size = if quick { 300 } else { 2_000 };
    let clients = 8usize;
    let per_client = if quick { 200 } else { 800 };

    let mut table =
        Table::new(["workers", "clients", "requests", "elapsed", "req/s", "p50", "p99"]);
    for workers in [1usize, 4, 8] {
        drive(
            read_service(size).with_metrics(Arc::default()),
            workers,
            clients,
            per_client,
            read_request,
        )
        .report("srv", workers, &mut table);
    }
    println!("{}", table.render());

    // Sharded TXN throughput: 8 clients, each writing persons into its
    // own top-level organization — a shard-partitioned workload, the
    // case Theorem 4.1 says needs no coordination. On one shard every
    // commit serializes behind a single write lock; on N shards the
    // same transactions route to disjoint shards and commit in parallel.
    println!("== SRV: sharded TXN throughput (loopback TCP, 8 workers) ==");
    let entries_per_org = if quick { 60 } else { 150 };
    let per_client_tx = if quick { 40 } else { 150 };
    let mut table = Table::new(["shards", "clients", "txns", "elapsed", "txn/s", "p50", "p99"]);
    for shards in [1usize, 4, 8] {
        let base = bschema_workload::multi_org_base(clients, entries_per_org, 0xBE2C4);
        let service = DirectoryService::new_sharded(white_pages_schema(), base, shards)
            .expect("multi-org base is legal");
        drive(service.with_metrics(Arc::default()), 8, clients, per_client_tx, |client, c, i| {
            let body = format!(
                "dn: uid=s{shards}c{c}n{i},o=org{c}\n\
                 objectClass: person\nobjectClass: top\n\
                 uid: s{shards}c{c}n{i}\nname: bench person\n"
            );
            let receipt = client.apply_ldif(&body).expect("bench txn commits");
            assert_eq!(receipt.shards, 1, "partitioned workload stays single-shard");
        })
        .report("srv-sharded", shards, &mut table);
    }
    println!("{}", table.render());
}

/// MON: what telemetry costs. The same loopback read workload runs on
/// the two configurations that exist: unmetered — the library default,
/// what `dirbench` boots — and metered as `bschema serve --slo` runs it:
/// every request counted into the registry, and the 1 s sampler folding
/// each tick's window into a burn rate. What that costs in req/s is the
/// row this prints (CI bounds it at 15%).
fn exp_mon(quick: bool) {
    println!("== MON: telemetry overhead (loopback TCP, metered + SLO vs unmetered) ==");
    let size = if quick { 300 } else { 1_000 };
    let clients = 4usize;
    // Long enough runs that one descheduled worker cannot move the
    // rate by whole percents: ~1s per run in the full configuration.
    let per_client = if quick { 500 } else { 4_800 };

    let run_once = |on: bool| -> f64 {
        let mut service = read_service(size);
        if on {
            let slo = SloPolicy { p99_us: Some(50_000), err_rate: Some(0.01) };
            service = service.with_metrics(Arc::default()).with_slo(slo, None);
        }
        drive(service, 4, clients, per_client, read_request).req_per_s()
    };

    // One discarded warmup per mode first (cold caches, lazy allocator
    // arenas, and loopback socket setup all land on whichever mode runs
    // first), then a paired design: each trial runs off then on
    // back-to-back and contributes one per-pair overhead, and the
    // median pair is the reported number. Pairing cancels the slow
    // drift (thermal, container scheduling) that sank PR7's best-of-4
    // comparison — it measured -8.4% "overhead" (monitor-on *faster*),
    // i.e. noise several times the true effect. The median of
    // adjacent-pair deltas is drift-robust.
    run_once(false);
    run_once(true);
    let trials = if quick { 3 } else { 9 };
    let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(trials);
    for t in 0..trials {
        // Alternate which mode runs first within the pair: the second
        // run of a pair inherits warm state and would otherwise look
        // systematically faster.
        let (off, on) = if t % 2 == 0 {
            let off = run_once(false);
            (off, run_once(true))
        } else {
            let on = run_once(true);
            (run_once(false), on)
        };
        pairs.push((off, on));
    }
    let overhead = |&(off, on): &(f64, f64)| (off - on) / off * 100.0;
    pairs.sort_by(|a, b| overhead(a).total_cmp(&overhead(b)));
    let (med_off, med_on) = pairs[pairs.len() / 2];
    let overhead_pct = overhead(&(med_off, med_on));

    let mut table = Table::new(["mode", "req/s (median pair)"]);
    table.row(["unmetered (dirbench)".to_owned(), format!("{med_off:.0}")]);
    table.row(["metered (serve --slo)".to_owned(), format!("{med_on:.0}")]);
    table.row(["overhead".to_owned(), format!("{overhead_pct:.2}%")]);
    println!("{}", table.render());
    emit_bench_line(format!(
        "{{\"experiment\":\"mon\",\"n\":{trials},\"req_per_s_off\":{med_off:.1},\
         \"req_per_s_on\":{med_on:.1},\"overhead_pct\":{overhead_pct:.2}}}"
    ));
}

/// EVO: what a live schema cutover costs. The incremental recheck the
/// evolution plane runs for a restricting step (`recheck_new_element` —
/// only the proposed bound is evaluated, §6.2) is measured against the
/// full §3 legality pass an offline evolution would run, at |D| ≈ 10k.
/// Then a real cutover is driven on a live `DirectoryService` under a
/// concurrent writer, and the maximum write latency the epoch swap
/// caused — the write stall an operator would observe — is recorded.
fn exp_evo(quick: bool) {
    use std::sync::atomic::{AtomicBool, Ordering};

    use bschema_core::evolution::plan::parse_proposal;

    println!("== EVO: incremental cutover recheck vs full section-3 recheck ==");
    let (orgs, per_org) = if quick { (4, 250) } else { (4, 2_500) };
    let schema = white_pages_schema();
    let base = bschema_workload::multi_org_base(orgs, per_org, 0xE40);
    let n = base.len();

    // A satisfiable tighten: every generated person already sits under
    // an organization root, so requiring the ancestor is restricting
    // (it must be rechecked) but violation-free.
    let step = "require-rel person ancestor organization";
    let plan = parse_proposal(&schema, step).expect("bench proposal parses");
    assert!(!plan.is_relaxing_only(), "the bench step must be restricting");

    let runs = if quick { 3 } else { 9 };
    let incremental_us = time_median_us(runs, || {
        let report = plan.recheck(&base);
        assert!(report.is_legal(), "the tighten is satisfiable");
        report
    });
    let full_us = time_median_us(runs, || {
        let report = LegalityChecker::new(&plan.target).check(&base);
        assert!(report.is_legal(), "the tighten is satisfiable");
        report
    });
    let speedup = full_us / incremental_us.max(0.01);

    // The live cutover: one writer commits conforming persons the whole
    // time; every request is timed, so the slowest one bounds the write
    // stall the PROPOSE -> CHECK -> COMMIT sequence caused.
    let service = Arc::new(DirectoryService::new(
        ManagedDirectory::with_instance(schema.clone(), base.clone())
            .expect("generated multi-org base is legal"),
    ));
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let service = Arc::clone(&service);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut max_us = 0.0f64;
            let mut i = 0usize;
            while !done.load(Ordering::SeqCst) {
                let ldif = format!(
                    "dn: uid=evo{i},o=org{}\nobjectClass: person\nobjectClass: top\n\
                     uid: evo{i}\nname: evo bench\n",
                    i % 4
                );
                let t = Instant::now();
                service.apply_ldif_tx(&ldif).expect("conforming write commits during cutover");
                max_us = max_us.max(t.elapsed().as_secs_f64() * 1e6);
                i += 1;
            }
            (max_us, i)
        })
    };
    std::thread::sleep(Duration::from_millis(25));
    service.schema_propose(step).expect("bench proposal stages");
    service.schema_check().expect("the instance satisfies the tighten");
    service.schema_commit().expect("cutover commits under writes");
    std::thread::sleep(Duration::from_millis(25));
    done.store(true, Ordering::SeqCst);
    let (max_stall_us, writer_txs) = writer.join().expect("writer thread");
    assert_eq!(service.schema_epoch(), 1, "the cutover landed");
    assert!(writer_txs > 0, "the writer must overlap the cutover");

    let mut table =
        Table::new(["|D|", "incremental recheck", "full section-3", "speedup", "max write stall"]);
    table.row([
        n.to_string(),
        fmt_us(incremental_us),
        fmt_us(full_us),
        format!("{speedup:.1}x"),
        fmt_us(max_stall_us),
    ]);
    println!("{}", table.render());
    if !quick && n >= 10_000 {
        assert!(
            speedup >= 2.0,
            "the incremental cutover recheck must beat the full section-3 pass at |D| >= 10k \
             (measured {speedup:.2}x)"
        );
    }
    emit_bench_line(format!(
        "{{\"experiment\":\"evo\",\"n\":{n},\"step\":\"require-rel person ancestor organization\",\
         \"incremental_us\":{incremental_us:.1},\"full_us\":{full_us:.1},\
         \"speedup\":{speedup:.2},\"max_stall_us\":{max_stall_us:.1},\
         \"writer_txs\":{writer_txs}}}"
    ));
}
