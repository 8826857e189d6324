//! The telemetry and health plane (DESIGN.md §9, §13): `TRACE`, the
//! sampler tick and the `HEALTH` verdict. `METRICS` reads the registry
//! itself ([`DirectoryService::metrics`]).

use std::sync::atomic::Ordering;

use bschema_core::checkpoint::schema_hash;
use bschema_core::engine::append_sync;
use bschema_core::sharded::ShardedDirectory;
use bschema_core::ManagedDirectory;
use bschema_obs::{names, AlertEdge, HealthReport, MetricsSnapshot, ShardHealth, Signal, SpanNode};

use super::{lock_unpoisoned, DirectoryService};

impl DirectoryService {
    /// The flight recorder's buffer as one JSON line, or `None` when the
    /// server runs without `--trace`.
    pub fn trace_json(&self) -> Option<String> {
        self.flight.as_ref().map(|f| f.to_json())
    }

    /// One sampler tick: snapshot the registry into the retention ring,
    /// evaluate the SLO burn rate over the window (raising/clearing the
    /// edge-triggered alert), and publish the tick frame to `WATCH`
    /// sessions. Returns the frame; `None` on an unmetered service. Tests
    /// call it to advance the sampler by hand.
    pub fn monitor_tick(&self) -> Option<String> {
        let monitor = self.monitor()?;
        let at_us = self.uptime_us();
        let point = monitor.ring.record(monitor.registry.snapshot(), at_us);
        let mut burn = 0.0;
        if let Some(slo) = self.slo {
            let (_, _, requests, p99_us, err_rate) = monitor.window();
            burn = slo.burn(p99_us, err_rate, requests);
            let edge = monitor.alert().observe(burn);
            if let Some(edge) = edge {
                self.record_slo_edge(edge, burn, p99_us, err_rate, at_us);
            }
        }
        // Splice the SLO state into the tick frame ahead of the point's
        // own fields (`{"tick":...}` → `{"burn":...,"tick":...}`).
        let body = point.to_json();
        let json = format!(
            "{{\"burn\":{},\"alerts\":{},{}",
            fmt_rate(burn),
            monitor.alert().fired(),
            &body[1..]
        );
        monitor.publish_tick(point.seq, json.clone());
        Some(json)
    }

    /// Raises or clears the SLO burn alert: a counter edge on the probe,
    /// a synthetic `monitor.slo_burn` record in the flight recorder (so
    /// `TRACE` shows the alert next to the requests that caused it), and
    /// a structured `AUDIT` line appended to the audit trail.
    fn record_slo_edge(&self, edge: AlertEdge, burn: f64, p99_us: u64, err_rate: f64, at_us: u64) {
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
        if let Some(path) = &self.audit {
            let slo = self.slo.map_or("null".to_owned(), |s| s.to_json());
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
    /// `◇c` ledger — one JSON object. `None` on an unmetered service.
    pub fn health_json(&self) -> Option<String> {
        let monitor = self.monitor()?;
        let (window, span_us, requests, p99_us, err_rate) = monitor.window();
        let now_us = self.uptime_us();
        let req_per_s = if span_us == 0 { 0.0 } else { requests as f64 / (span_us as f64 / 1e6) };

        let mut report = HealthReport::default();

        // Global signals. Latency/error thresholds derive from the SLO
        // when one is set (warn at the target, crit well past it).
        let (p99_warn, p99_crit) = match self.slo.and_then(|s| s.p99_us) {
            Some(target) => (target as f64, 2.0 * target as f64),
            None => (100_000.0, 1_000_000.0),
        };
        report.global.push(Signal::high_bad("request_p99_us", p99_us as f64, p99_warn, p99_crit));
        let (err_warn, err_crit) = match self.slo.and_then(|s| s.err_rate) {
            Some(budget) => (budget, (budget * 10.0).min(1.0)),
            None => (0.01, 0.1),
        };
        report.global.push(Signal::high_bad("err_rate", err_rate, err_warn, err_crit));
        let qmax = window.histograms.get(names::QUEUE_DEPTH).map_or(0, |h| h.max());
        report.global.push(Signal::high_bad("queue_depth_max", qmax as f64, 32.0, 64.0));
        let rollbacks = window.counters.get(names::ROLLBACK).copied().unwrap_or(0);
        let prepared = window.counters.get(names::PREPARED).copied().unwrap_or(0);
        let rollback_rate = if prepared + rollbacks == 0 {
            0.0
        } else {
            rollbacks as f64 / (prepared + rollbacks) as f64
        };
        report.global.push(Signal::high_bad("rollback_rate", rollback_rate, 0.05, 0.25));
        let mut burn = 0.0;
        if let Some(slo) = self.slo {
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
            let (records, bytes) = self.with_engine(k, ManagedDirectory::journal_stats);
            let entries = self.shard_snapshot(k).len();
            let swap = self.last_swap_us[k].load(Ordering::Relaxed);
            let age_s = now_us.saturating_sub(swap) as f64 / 1e6;
            let shard_count = |family| {
                let key = names::labeled(family, &names::shard(k));
                window.counters.get(&key).copied().unwrap_or(0)
            };
            let (prepares, commits) =
                (shard_count(names::SHARD_PREPARE), shard_count(names::SHARD_COMMIT));
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
        report.sections.push(("ticks".to_owned(), monitor.ring.ticks().to_string()));
        report.sections.push((
            "window".to_owned(),
            format!(
                "{{\"requests\":{requests},\"req_per_s\":{},\"p99_us\":{p99_us},\"err_rate\":{},\"span_us\":{span_us}}}",
                fmt_rate(req_per_s),
                fmt_rate(err_rate),
            ),
        ));
        let slo_json = match self.slo {
            Some(slo) => {
                let alert = monitor.alert();
                format!(
                    "{{\"policy\":{},\"burn\":{},\"burning\":{},\"alerts\":{}}}",
                    slo.to_json(),
                    fmt_rate(burn),
                    alert.is_burning(),
                    alert.fired(),
                )
            }
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

/// The schema-fitness gauge over the window: commits vs rejections
/// attributed per stable rejection code (the §3 legality verdicts the
/// Figure 4 structure rules produce) and the Figure 5 Δ-query volume
/// per rule.
fn fitness_json(window: &MetricsSnapshot) -> String {
    let committed = window.counters.get(names::TX_COMMITTED).copied().unwrap_or(0);
    let mut rejected = Vec::new();
    let mut rejected_total = 0u64;
    let mut delta = Vec::new();
    for (key, &n) in &window.counters {
        if let Some(code) = names::label(key, names::TX_REJECTED) {
            rejected.push(format!("{}:{n}", bschema_obs::json::escape(code)));
            rejected_total += n;
        } else if let Some(rule) = names::label(key, names::DELTA_QUERY) {
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
