//! Result lines, scalar-only set files, and `compare`.
//!
//! A **set file** is what `dirbench all` writes: for every workload the
//! per-run values of every end-to-end metric (and, with `--trace`, one
//! traced run's per-layer values) — scalars only, no spans, a few KB.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use bschema_obs::json::Value;

use crate::spec::{Metric, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};
use crate::wire::RunResult;

fn number(v: f64) -> String {
    // `{}` prints the shortest text that round-trips: every measured digit.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The one-object result line the driver reads: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, number(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(",")
    )
}

/// The human-readable table of one run (goes to stderr).
pub fn table(result: &RunResult) -> String {
    let mut out = String::new();
    for m in &result.metrics {
        let samples = if m.samples > 0 { format!("n={}", m.samples) } else { String::new() };
        let measured = m.measured.map_or(String::new(), |v| format!("(measured {v:.4})"));
        let _ = writeln!(
            out,
            "  {:<42} {:>14.4} {:<6} {samples:<8} {measured}",
            m.name, m.value, m.unit
        );
    }
    out
}

/// Values per metric name, one per run.
pub type Series = BTreeMap<String, Vec<f64>>;

/// One workload's part of a set file.
#[derive(Debug, Default, Clone)]
pub struct WorkloadSet {
    pub seeds: Vec<u64>,
    pub failed: u64,
    pub end_to_end: Series,
    /// Sample counts of the first run, per metric.
    pub samples: BTreeMap<String, usize>,
    /// Per-layer values of one traced run, when one was made.
    pub per_layer: BTreeMap<String, f64>,
}

/// A set file in memory.
#[derive(Debug, Default, Clone)]
pub struct Set {
    pub seconds: f64,
    pub workloads: BTreeMap<String, WorkloadSet>,
}

impl Set {
    /// `large-50k ÷ small-2k` of the medians of `metric` — ≈25 for a
    /// write path that copies the directory, ≈1 for one that is
    /// O(|ΔD|) as Theorem 4.2 promises.
    pub fn flatness(&self, metric: &str) -> Option<f64> {
        let med = |w: &str| {
            let set = self.workloads.get(w)?;
            match set.end_to_end.get(metric) {
                Some(values) => Some(median(values)),
                None => set.per_layer.get(metric).copied(),
            }
        };
        Some(med("large-50k")? / med("small-2k")?)
    }

    /// Serialises the set: scalars only.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"dirbench\":1,\"seconds\":{},\"nproc\":{},\"workloads\":{{",
            number(self.seconds),
            std::thread::available_parallelism().map_or(0, |n| n.get())
        );
        for (i, (name, set)) in self.workloads.iter().enumerate() {
            let seeds: Vec<String> = set.seeds.iter().map(u64::to_string).collect();
            let series = |s: &Series| -> String {
                s.iter()
                    .map(|(k, v)| {
                        let values: Vec<String> = v.iter().map(|x| number(*x)).collect();
                        format!("\"{k}\":[{}]", values.join(","))
                    })
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let medians: Vec<String> = set
                .end_to_end
                .iter()
                .map(|(k, v)| format!("\"{k}\":{}", number(median(v))))
                .collect();
            let samples: Vec<String> =
                set.samples.iter().map(|(k, n)| format!("\"{k}\":{n}")).collect();
            let layers: Vec<String> =
                set.per_layer.iter().map(|(k, v)| format!("\"{k}\":{}", number(*v))).collect();
            let _ = write!(
                out,
                "{}\n\"{name}\":{{\"seeds\":[{}],\"failed\":{},\"end_to_end\":{{{}}},\"median\":{{{}}},\"samples\":{{{}}},\"per_layer\":{{{}}}}}",
                if i == 0 { "" } else { "," },
                seeds.join(","),
                set.failed,
                series(&set.end_to_end),
                medians.join(","),
                samples.join(","),
                layers.join(",")
            );
        }
        let flat = |m: &str| self.flatness(m).map_or("null".to_owned(), number);
        let _ = write!(
            out,
            "\n}},\"flatness\":{{\"txn_insert_p50_ms\":{},\"core.updates.delta_check_insert_us\":{}}}}}\n",
            flat("txn_insert_p50_ms"),
            flat("core.updates.delta_check_insert_us")
        );
        out
    }

    /// Parses what [`to_json`](Set::to_json) wrote.
    pub fn parse(text: &str) -> Result<Set, String> {
        let root = Value::parse(text).ok_or("not JSON")?;
        let mut set = Set {
            seconds: root.get("seconds").and_then(Value::as_f64).unwrap_or(0.0),
            ..Set::default()
        };
        let workloads =
            root.get("workloads").and_then(Value::entries).ok_or("no `workloads` object")?;
        for (name, body) in workloads {
            let mut wl = WorkloadSet::default();
            for (metric, values) in body.get("end_to_end").and_then(Value::entries).unwrap_or(&[]) {
                let values =
                    values.items().unwrap_or(&[]).iter().filter_map(Value::as_f64).collect();
                wl.end_to_end.insert(metric.clone(), values);
            }
            for (metric, value) in body.get("per_layer").and_then(Value::entries).unwrap_or(&[]) {
                if let Some(v) = value.as_f64() {
                    wl.per_layer.insert(metric.clone(), v);
                }
            }
            set.workloads.insert(name.clone(), wl);
        }
        Ok(set)
    }
}

/// One row of a comparison.
#[derive(Debug, Clone)]
pub struct Verdict {
    pub workload: &'static str,
    pub metric: &'static Metric,
    pub a: f64,
    pub b: f64,
    /// The wider of the two sets' run-to-run spreads, when both sets
    /// hold at least two runs.
    pub spread: Option<f64>,
    /// `ok`, `worse`, `unresolved` or `missing`.
    pub verdict: &'static str,
}

/// Compares set `b` against base `a`: one row per (workload, end-to-end
/// metric). `worse` — b's median is worse than a's by more than the
/// metric's bound; `unresolved` — either set's spread is wider than the
/// bound, so nothing can be said; `ok` otherwise.
pub fn compare(a: &Set, b: &Set) -> Vec<Verdict> {
    let mut rows = Vec::new();
    for wl in &WORKLOADS {
        for metric in &END_TO_END {
            let pick = |s: &Set| s.workloads.get(wl.name)?.end_to_end.get(metric.name).cloned();
            let (Some(va), Some(vb)) = (pick(a), pick(b)) else {
                rows.push(Verdict {
                    workload: wl.name,
                    metric,
                    a: f64::NAN,
                    b: f64::NAN,
                    spread: None,
                    verdict: "missing",
                });
                continue;
            };
            let (ma, mb) = (median(&va), median(&vb));
            let worse_by = if metric.better == "lower" { (mb - ma) / ma } else { (ma - mb) / ma };
            let spread = match (spread(&va), spread(&vb)) {
                (Some(x), Some(y)) => Some(x.max(y)),
                _ => None,
            };
            let verdict = if spread.is_some_and(|s| s > metric.bound) {
                "unresolved"
            } else if worse_by > metric.bound {
                "worse"
            } else {
                "ok"
            };
            rows.push(Verdict { workload: wl.name, metric, a: ma, b: mb, spread, verdict });
        }
    }
    rows
}

/// Renders comparison rows as a table; every ratio with its base.
pub fn render_comparison(rows: &[Verdict]) -> String {
    let mut out = format!(
        "{:<12} {:<26} {:>12} {:>12} {:>16} {:>7} {:>7}  verdict\n",
        "workload", "metric", "a (base)", "b", "b/a", "spread", "bound"
    );
    for r in rows {
        let spread = r.spread.map_or("-".to_owned(), |s| format!("{:.1}%", s * 100.0));
        let _ = writeln!(
            out,
            "{:<12} {:<26} {:>12.4} {:>12.4} {:>8.3}x of a {:>7} {:>6.0}%  {}",
            r.workload,
            r.metric.name,
            r.a,
            r.b,
            r.b / r.a,
            spread,
            r.metric.bound * 100.0,
            r.verdict
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_with(metric: &str, values: &[f64]) -> Set {
        let mut set = Set::default();
        for wl in &WORKLOADS {
            let mut w = WorkloadSet::default();
            for m in &END_TO_END {
                w.end_to_end.insert(m.name.to_owned(), vec![10.0, 10.01, 9.99, 10.0, 10.005]);
            }
            w.end_to_end.insert(metric.to_owned(), values.to_vec());
            set.workloads.insert(wl.name.to_owned(), w);
        }
        set
    }

    fn verdict_of<'a>(rows: &'a [Verdict], metric: &str) -> &'a str {
        rows.iter().find(|r| r.workload == "small-2k" && r.metric.name == metric).unwrap().verdict
    }

    #[test]
    fn compare_separates_ok_worse_and_unresolved() {
        let base = set_with("txn_insert_p50_ms", &[10.0, 10.1, 9.9, 10.0, 10.05]);
        let same = compare(&base, &base);
        assert_eq!(same.len(), 45);
        assert!(same.iter().all(|r| r.verdict == "ok"));
        // 40% slower with a 25% bound: worse.
        let slow = set_with("txn_insert_p50_ms", &[14.0, 14.1, 13.9, 14.0, 14.05]);
        assert_eq!(verdict_of(&compare(&base, &slow), "txn_insert_p50_ms"), "worse");
        // A higher-is-better metric that fell by 40%: worse; that rose: ok.
        let fewer = set_with("txn_per_s", &[6.0, 6.1, 5.9, 6.0, 6.05]);
        assert_eq!(verdict_of(&compare(&base, &fewer), "txn_per_s"), "worse");
        assert_eq!(verdict_of(&compare(&fewer, &base), "txn_per_s"), "ok");
        // A spread wider than the bound says nothing either way.
        let noisy = set_with("txn_insert_p50_ms", &[8.0, 14.0, 10.0, 12.0, 9.0]);
        assert_eq!(verdict_of(&compare(&base, &noisy), "txn_insert_p50_ms"), "unresolved");
    }

    #[test]
    fn set_files_round_trip() {
        let mut set = set_with("txn_insert_p50_ms", &[137.25, 140.5]);
        set.seconds = 45.0;
        set.workloads
            .get_mut("small-2k")
            .unwrap()
            .end_to_end
            .insert("txn_insert_p50_ms".into(), vec![5.5, 5.25]);
        let text = set.to_json();
        assert!(bschema_obs::json::is_valid(&text), "{text}");
        let back = Set::parse(&text).unwrap();
        assert_eq!(back.workloads["large-50k"].end_to_end["txn_insert_p50_ms"], [137.25, 140.5]);
        let flat = back.flatness("txn_insert_p50_ms").unwrap();
        assert!((flat - 138.875 / 5.375).abs() < 1e-9, "{flat}");
    }
}
