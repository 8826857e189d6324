//! Whole runs over loopback TCP: the accounting, the result line, the
//! traced run's table, and `BENCHMARK.json` against the spec.

use std::path::PathBuf;

use bschema_obs::json::Value;
use dirbench::report::result_line;
use dirbench::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use dirbench::wire::{RunConfig, MIN_SAMPLES};
use dirbench::{layers, wire};

fn config(workload: &str, seconds: f64, tag: &str) -> RunConfig {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("scratch")
        .join(format!("test-{tag}-{}", std::process::id()));
    RunConfig {
        workload: spec::workload(workload).unwrap(),
        seed: 5,
        seconds,
        dir,
        corrupt_cycle: None,
    }
}

#[test]
fn a_run_is_correct_and_reports_every_end_to_end_metric() {
    for wl in ["small-2k", "sharded-20k"] {
        let result = wire::run(&config(wl, 1.5, wl)).unwrap();
        assert!(result.correct && result.failed == 0, "{wl}: {} failed", result.failed);
        assert!(result.attempted > 100, "{wl}: {} attempted", result.attempted);
        let names: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        for (m, spec) in result.metrics.iter().zip(&END_TO_END) {
            assert!(m.value.is_finite() && m.value > 0.0, "{wl} {} = {}", m.name, m.value);
            assert_eq!(m.unit, spec.unit);
            // The floor is in cycles, not seconds: what holds in a run
            // this short holds at BENCHMARK.json's `run_seconds`, and on
            // a workload whose cycles are slower.
            let floor = if m.unit == "ms" { MIN_SAMPLES } else { 1 };
            assert!(m.samples >= floor, "{wl} {}: {} samples", m.name, m.samples);
        }
        // The driver's contract: one object, exactly these keys.
        let line = result_line(&result);
        let root = Value::parse(&line).expect("the result line is JSON");
        let keys: Vec<&str> = root.entries().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(root.get("metrics").unwrap().entries().unwrap().len(), END_TO_END.len());
    }
}

#[test]
fn a_corrupted_expectation_makes_the_run_incorrect() {
    let mut cfg = config("small-2k", 0.5, "corrupt");
    cfg.corrupt_cycle = Some(3);
    let result = wire::run(&cfg).unwrap();
    assert!(!result.correct);
    assert_eq!(result.failed, 1, "exactly the corrupted expectation fails");
    assert!(result_line(&result).starts_with("{\"correct\":false,"));
}

#[test]
fn a_traced_run_reports_every_layer_and_writes_its_spans() {
    let cfg = config("small-2k", 2.0, "traced");
    let result = layers::run(&cfg).unwrap();
    assert!(result.correct, "{} failed", result.failed);
    let names: Vec<&str> = result.metrics.iter().map(|m| m.name).collect();
    let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(names, expected);
    let value = |name: &str| result.metrics.iter().find(|m| m.name == name).unwrap().value;
    assert_eq!(value("fs.syncs_per_tx"), 2.0);
    assert_eq!(value("core.updates.delta_queries_per_tx"), 6.0);
    assert!(value("server.service.txn_us") > value("core.managed.apply_insert_us"));
    let trace = cfg.dir.parent().unwrap().join("trace-small-2k.json");
    let spans = Value::parse(&std::fs::read_to_string(&trace).unwrap()).expect("the trace is JSON");
    let first = spans.idx(0).expect("the trace holds spans");
    for key in ["name", "req", "parent", "start_ns", "end_ns"] {
        assert!(first.get(key).is_some(), "span lacks {key}");
    }
    let _ = std::fs::remove_file(trace);
}

#[test]
fn benchmark_json_agrees_with_the_spec() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let root =
        Value::parse(&std::fs::read_to_string(path).unwrap()).expect("BENCHMARK.json is JSON");
    let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap_or("").to_owned();
    let workloads: Vec<String> =
        root.get("workloads").unwrap().items().unwrap().iter().map(|w| field(w, "name")).collect();
    assert_eq!(workloads, WORKLOADS.map(|w| w.name));
    let listed = root.get("end_to_end").unwrap().items().unwrap();
    assert_eq!(listed.len(), END_TO_END.len());
    for (got, want) in listed.iter().zip(&END_TO_END) {
        assert_eq!(field(got, "name"), want.name);
        assert_eq!(field(got, "unit"), want.unit);
        assert_eq!(field(got, "better"), want.better);
        assert_eq!(got.get("bound").and_then(Value::as_f64), Some(want.bound), "{}", want.name);
    }
    let layers = root.get("per_layer").unwrap().items().unwrap();
    assert_eq!(layers.len(), PER_LAYER.len());
    for (got, want) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(
            (field(got, "name"), field(got, "unit")),
            (want.name.to_owned(), want.unit.to_owned())
        );
        assert_eq!(field(got, "better"), want.better);
    }
}
