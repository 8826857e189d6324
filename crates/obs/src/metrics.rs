//! The metrics registry: named counters and quantile-capable histograms.
//!
//! Both maps are `BTreeMap`s so every rendering (text or JSON) comes out
//! in one deterministic key order regardless of which worker thread
//! recorded what first.
//!
//! Histograms are **fixed log-bucketed**: bucket `i` holds values in
//! `[2^(i-1), 2^i - 1]` (bucket 0 holds exactly 0), 65 buckets cover the
//! whole `u64` range, and a quantile is answered by a rank walk over the
//! bucket counts. The representation is a plain array of counts, so two
//! histograms recorded by different threads [`merge`](Histogram::merge)
//! by element-wise addition, and a sampler can subtract a baseline
//! ([`Histogram::delta_since`]) to get only the traffic since its last
//! tick — the delta each server `WATCH` tick carries.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json;

/// Number of log buckets: bucket 0 for the value 0, buckets 1..=64 for
/// `[2^(i-1), 2^i - 1]`.
const BUCKETS: usize = 65;

/// Summary statistics of one observed series, with log-bucketed counts
/// for quantile estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { count: 0, sum: 0, min: 0, max: 0, buckets: [0; BUCKETS] }
    }
}

/// The bucket index for `value`: 0 for 0, otherwise one past the highest
/// set bit, so bucket `i` spans `[2^(i-1), 2^i - 1]`.
fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// The largest value bucket `i` can hold — the resolution bound a
/// quantile estimate is rounded up to.
fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

/// The smallest value bucket `i` can hold.
fn bucket_lower(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

impl Histogram {
    fn record(&mut self, value: u64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        self.buckets[bucket_index(value)] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observed value (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest observed value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The estimated `q`-quantile (`0.0 ..= 1.0`): the upper bound of the
    /// bucket holding the rank-⌈q·count⌉ observation, clamped to the
    /// exact observed `[min, max]`. 0 when empty. The log buckets bound
    /// the relative error by 2×, and the clamp makes single-bucket
    /// series (and the extremes) exact.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// The estimated median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The estimated 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// The estimated 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds `other` into `self` — element-wise bucket addition, so
    /// per-worker (or per-shard) histograms combine into one with the
    /// same quantile estimates a single shared histogram would have
    /// produced. An empty `other` is a no-op: an idle shard must not
    /// drag the merged `min` to its 0 sentinel. Sums saturate rather
    /// than wrap, so a pathological series degrades its totals instead
    /// of panicking the scrape path.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
    }

    /// The observations recorded since `baseline` was snapshotted from
    /// the same series: counts, sums, and buckets subtract exactly;
    /// `min`/`max` are not recoverable from a monotone snapshot pair, so
    /// they are re-derived from the delta buckets (bucket bounds clamped
    /// to the cumulative observed range) — within the same 2× resolution
    /// as the quantiles.
    pub fn delta_since(&self, baseline: &Histogram) -> Histogram {
        let mut delta = Histogram {
            count: self.count.saturating_sub(baseline.count),
            sum: self.sum.saturating_sub(baseline.sum),
            min: 0,
            max: 0,
            buckets: [0; BUCKETS],
        };
        if delta.count == 0 {
            return delta;
        }
        for (i, slot) in delta.buckets.iter_mut().enumerate() {
            *slot = self.buckets[i].saturating_sub(baseline.buckets[i]);
        }
        let first = delta.buckets.iter().position(|&n| n > 0).unwrap_or(0);
        let last = delta.buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
        delta.min = bucket_lower(first).clamp(self.min, self.max);
        delta.max = bucket_upper(last).clamp(self.min, self.max);
        delta
    }

    /// Renders the one-line text summary used by
    /// [`MetricsRegistry::render_text`].
    fn render_summary(&self) -> String {
        format!(
            "count={} sum={} min={} mean={:.1} max={} p50={} p90={} p99={}",
            self.count,
            self.sum,
            self.min,
            self.mean(),
            self.max,
            self.p50(),
            self.p90(),
            self.p99()
        )
    }

    /// Renders the histogram as a JSON object (stable key order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            self.count,
            self.sum,
            self.min,
            self.max,
            self.p50(),
            self.p90(),
            self.p99()
        )
    }
}

/// A point-in-time copy of a registry's counters and histograms — the
/// unit a sampler diffs ([`delta_since`](MetricsSnapshot::delta_since))
/// and the server's `METRICS` verb serializes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by key.
    pub counters: BTreeMap<String, u64>,
    /// Histograms by key.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// The activity between `baseline` and `self`: counter deltas and
    /// per-histogram [`Histogram::delta_since`]. Entries whose delta is
    /// zero observations are dropped, so an idle scrape returns `{}`s.
    pub fn delta_since(&self, baseline: &MetricsSnapshot) -> MetricsSnapshot {
        let mut delta = MetricsSnapshot::default();
        for (key, &value) in &self.counters {
            let before = baseline.counters.get(key).copied().unwrap_or(0);
            if value > before {
                delta.counters.insert(key.clone(), value - before);
            }
        }
        for (key, h) in &self.histograms {
            let d = match baseline.histograms.get(key) {
                Some(before) => h.delta_since(before),
                None => *h,
            };
            if d.count() > 0 {
                delta.histograms.insert(key.clone(), d);
            }
        }
        delta
    }

    /// Adds `other` into `self` under the keys `key` maps its keys to:
    /// counters sum (saturating), histograms [`Histogram::merge`], so
    /// keys `key` sends to one name merge into one series.
    pub fn merge(&mut self, other: &MetricsSnapshot, key: impl Fn(&str) -> String) {
        for (name, &value) in &other.counters {
            let slot = self.counters.entry(key(name)).or_insert(0);
            *slot = slot.saturating_add(value);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(key(name)).or_default().merge(h);
        }
    }

    /// Renders the snapshot in Prometheus text exposition style for
    /// external scrapers: every counter becomes a `bschema_*` counter
    /// family, every histogram a summary family (`{quantile="..."}`
    /// series plus `_sum`/`_count`). Names are sanitised through
    /// [`prom_name`]; keys that collide after sanitisation merge
    /// (counters sum, histograms [`Histogram::merge`]) so the exposition
    /// never repeats a metric name — the invariant CI lints.
    pub fn render_prom(&self) -> String {
        let mut named = MetricsSnapshot::default();
        named.merge(self, prom_name);
        let mut out = String::new();
        for (name, value) in &named.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, h) in &named.histograms {
            out.push_str(&format!("# TYPE {name} summary\n"));
            for (q, v) in [("0.5", h.p50()), ("0.9", h.p90()), ("0.99", h.p99())] {
                out.push_str(&format!("{name}{{quantile=\"{q}\"}} {v}\n"));
            }
            out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum(), h.count()));
        }
        out
    }

    /// Renders the snapshot as one JSON object with deterministically
    /// (BTreeMap) ordered keys:
    /// `{"counters":{...},"histograms":{"k":{"count":..,...}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (key, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{value}", json::escape(key)));
        }
        out.push_str("},\"histograms\":{");
        for (i, (key, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", json::escape(key), h.to_json()));
        }
        out.push_str("}}");
        out
    }
}

/// Sanitises a registry key into a Prometheus-legal metric name:
/// `bschema_` prefix, lowercase, every non-`[a-z0-9_]` byte mapped to
/// `_` (so `server.request_us.TXN` → `bschema_server_request_us_txn`).
pub fn prom_name(key: &str) -> String {
    let mut out = String::with_capacity(key.len() + 8);
    out.push_str("bschema_");
    for c in key.chars() {
        match c.to_ascii_lowercase() {
            c @ ('a'..='z' | '0'..='9' | '_') => out.push(c),
            _ => out.push('_'),
        }
    }
    out
}

/// Thread-safe counters + histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increments the counter `key` by `by` (creating it at 0).
    pub fn add(&self, key: &str, by: u64) {
        let mut counters = self.counters.lock().expect("metrics mutex poisoned");
        match counters.get_mut(key) {
            Some(v) => *v += by,
            None => {
                counters.insert(key.to_owned(), by);
            }
        }
    }

    /// Increments the counter `key.label` by `by`.
    pub fn add_labeled(&self, key: &str, label: &str, by: u64) {
        self.add(&format!("{key}.{label}"), by);
    }

    /// Records `value` into the histogram `key`.
    pub fn observe(&self, key: &str, value: u64) {
        let mut histograms = self.histograms.lock().expect("metrics mutex poisoned");
        histograms.entry(key.to_owned()).or_default().record(value);
    }

    /// The current value of counter `key` (0 if never incremented).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.lock().expect("metrics mutex poisoned").get(key).copied().unwrap_or(0)
    }

    /// A snapshot of every counter.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.counters.lock().expect("metrics mutex poisoned").clone()
    }

    /// The histogram `key`, if anything was observed under it.
    pub fn histogram(&self, key: &str) -> Option<Histogram> {
        self.histograms.lock().expect("metrics mutex poisoned").get(key).copied()
    }

    /// A snapshot of every histogram.
    pub fn histograms(&self) -> BTreeMap<String, Histogram> {
        self.histograms.lock().expect("metrics mutex poisoned").clone()
    }

    /// A consistent point-in-time snapshot of everything — the unit a
    /// sampler tick diffs against the previous one.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot { counters: self.counters(), histograms: self.histograms() }
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.lock().expect("metrics mutex poisoned").is_empty()
            && self.histograms.lock().expect("metrics mutex poisoned").is_empty()
    }

    /// Renders the counters as an aligned table followed by one summary
    /// line per histogram.
    pub fn render_text(&self) -> String {
        let counters = self.counters();
        let histograms = self.histograms();
        let width = counters.keys().chain(histograms.keys()).map(String::len).max().unwrap_or(0);
        let mut out = String::new();
        for (key, value) in &counters {
            out.push_str(&format!("{key:<width$}  {value}\n"));
        }
        for (key, h) in &histograms {
            out.push_str(&format!("{key:<width$}  {}\n", h.render_summary()));
        }
        out
    }

    /// Renders everything as one JSON object:
    /// `{"counters":{...},"histograms":{"k":{"count":..,"sum":..,...}}}`.
    /// Key order is the `BTreeMap` order, so the output is stable across
    /// runs and thread schedules — CI diffs it directly.
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }

    /// Renders everything in Prometheus text exposition style (see
    /// [`MetricsSnapshot::render_prom`]).
    pub fn render_prom(&self) -> String {
        self.snapshot().render_prom()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        m.add("a", 1);
        m.add("a", 2);
        m.add_labeled("rule", "path", 4);
        assert_eq!(m.counter("a"), 3);
        assert_eq!(m.counter("rule.path"), 4);
        assert_eq!(m.counter("absent"), 0);
    }

    #[test]
    fn histogram_math() {
        let m = MetricsRegistry::new();
        for v in [5u64, 1, 9] {
            m.observe("h", v);
        }
        let h = m.histogram("h").unwrap();
        assert_eq!((h.count(), h.sum(), h.min(), h.max()), (3, 15, 1, 9));
        assert!((h.mean() - 5.0).abs() < 1e-9);
        assert_eq!(Histogram::default().mean(), 0.0);
        // Empty histograms answer 0 everywhere — no NaN, no panic.
        assert_eq!(Histogram::default().quantile(0.5), 0);
        assert_eq!(Histogram::default().p99(), 0);
    }

    #[test]
    fn bucket_layout_covers_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..BUCKETS {
            assert_eq!(bucket_index(bucket_lower(i)), i);
            assert_eq!(bucket_index(bucket_upper(i)), i);
        }
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        let mut h = Histogram::default();
        // 90 fast (≤ 15µs bucket), 9 medium, 1 slow outlier.
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..9 {
            h.record(100);
        }
        h.record(10_000);
        assert_eq!(h.count(), 100);
        // p50 and p90 land in the fast bucket [8,15]; clamped ≥ min.
        assert_eq!(h.p50(), 15);
        assert_eq!(h.p90(), 15);
        // p99 lands in the medium bucket [64,127].
        assert_eq!(h.p99(), 127);
        // The extreme quantile is exact thanks to the max clamp.
        assert_eq!(h.quantile(1.0), 10_000);
        // Single-value series are exact at every quantile.
        let mut one = Histogram::default();
        one.record(7);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 7);
        }
    }

    #[test]
    fn merge_matches_a_shared_histogram() {
        let mut shared = Histogram::default();
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        for v in [3u64, 900, 17, 2] {
            shared.record(v);
            a.record(v);
        }
        for v in [1u64, 64, 4096] {
            shared.record(v);
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a, shared);
        // Merging an empty histogram is the identity.
        let before = a;
        a.merge(&Histogram::default());
        assert_eq!(a, before);
        let mut empty = Histogram::default();
        empty.merge(&b);
        assert_eq!(empty, b);
    }

    /// The per-shard merge edges: idle shards contribute nothing (not a
    /// phantom `min=0` observation), an all-idle merge stays a clean
    /// zero (no NaN mean, zero quantiles), and merging overflowing sums
    /// saturates instead of wrapping or panicking.
    #[test]
    fn merge_empty_shard_edges() {
        // All shards idle: the merged histogram is exactly empty.
        let mut merged = Histogram::default();
        for _ in 0..4 {
            merged.merge(&Histogram::default());
        }
        assert_eq!(merged, Histogram::default());
        assert_eq!(merged.count(), 0);
        assert_eq!((merged.min(), merged.max()), (0, 0));
        assert_eq!(merged.p50(), 0);
        assert_eq!(merged.p99(), 0);
        assert_eq!(merged.mean(), 0.0, "empty mean must be 0.0, not NaN");

        // One busy shard among idle ones: the merge is that shard,
        // bit-for-bit — the idle shards' min/max sentinels never leak.
        let mut busy = Histogram::default();
        busy.record(40);
        busy.record(9_000);
        let mut merged = Histogram::default();
        merged.merge(&Histogram::default());
        merged.merge(&busy);
        merged.merge(&Histogram::default());
        assert_eq!(merged, busy);
        assert_eq!(merged.min(), 40, "idle shard dragged min to 0");

        // Saturation: two histograms whose counts/sums sum past u64::MAX
        // merge to the ceiling instead of wrapping (or panicking in
        // debug builds) — a scrape must never die on a broken series.
        let mut near_max = Histogram::default();
        near_max.record(u64::MAX - 1);
        let mut huge = near_max;
        huge.merge(&near_max);
        assert_eq!(huge.count(), 2);
        assert_eq!(huge.sum(), u64::MAX, "sum must saturate, not wrap");
        let idle_delta = huge.delta_since(&huge);
        assert_eq!(idle_delta.count(), 0);
        assert_eq!(idle_delta.sum(), 0, "saturated series still deltas to zero");
    }

    #[test]
    fn delta_since_subtracts_buckets() {
        let mut h = Histogram::default();
        h.record(10);
        h.record(20);
        let baseline = h;
        h.record(100);
        h.record(200);
        let d = h.delta_since(&baseline);
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), 300);
        // min/max are bucket-resolution estimates within observed range.
        assert!(d.min() <= 100 && d.min() >= h.min(), "{}", d.min());
        assert!(d.max() >= 200 && d.max() <= h.max(), "{}", d.max());
        // No traffic → an all-zero delta.
        let idle = h.delta_since(&h);
        assert_eq!(idle.count(), 0);
        assert_eq!(idle.sum(), 0);
    }

    #[test]
    fn snapshot_delta_drops_idle_series() {
        let m = MetricsRegistry::new();
        m.add("steady", 5);
        m.add("busy", 1);
        m.observe("lat", 10);
        let baseline = m.snapshot();
        m.add("busy", 2);
        m.observe("lat", 30);
        m.observe("fresh", 7);
        let delta = m.snapshot().delta_since(&baseline);
        assert_eq!(delta.counters.get("busy"), Some(&2));
        assert!(!delta.counters.contains_key("steady"));
        assert_eq!(delta.histograms.get("lat").unwrap().count(), 1);
        assert_eq!(delta.histograms.get("lat").unwrap().sum(), 30);
        assert_eq!(delta.histograms.get("fresh").unwrap().sum(), 7);
        // Fully idle interval → both maps empty.
        let idle = m.snapshot().delta_since(&m.snapshot());
        assert!(idle.counters.is_empty() && idle.histograms.is_empty());
        assert!(json::is_valid(&idle.to_json()));
    }

    #[test]
    fn concurrent_updates_sum_correctly() {
        let m = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let m = &m;
                scope.spawn(move || {
                    for _ in 0..100 {
                        m.add("hits", 1);
                        m.observe("vals", 2);
                    }
                });
            }
        });
        assert_eq!(m.counter("hits"), 800);
        assert_eq!(m.histogram("vals").unwrap().count(), 800);
        assert_eq!(m.histogram("vals").unwrap().sum(), 1600);
        assert_eq!(m.histogram("vals").unwrap().p99(), 2);
    }

    #[test]
    fn text_rendering_is_sorted_and_aligned() {
        let m = MetricsRegistry::new();
        m.add("zebra", 1);
        m.add("apple", 2);
        m.observe("mid", 7);
        let text = m.render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("apple"));
        assert!(lines[1].starts_with("zebra"));
        assert!(lines[2].contains("count=1 sum=7 min=7 mean=7.0 max=7 p50=7 p90=7 p99=7"));
    }

    /// The empty-series contract, pinned field by field: every quantile
    /// accessor of a never-observed histogram answers exactly 0 — no
    /// NaN, no panic, no stale sentinel. A scrape of an idle series and
    /// the first `HEALTH` window of a fresh server both depend on it.
    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let empty = Histogram::default();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.sum(), 0);
        assert_eq!(empty.min(), 0);
        assert_eq!(empty.max(), 0);
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.p90(), 0);
        assert_eq!(empty.p99(), 0);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(empty.quantile(q), 0, "quantile({q}) of empty series");
        }
        // The same holds for an empty delta of a busy series.
        let mut busy = Histogram::default();
        busy.record(1000);
        let idle = busy.delta_since(&busy);
        assert_eq!((idle.p50(), idle.p90(), idle.p99(), idle.max()), (0, 0, 0, 0));
    }

    #[test]
    fn prom_exposition_is_unique_typed_and_sane() {
        let m = MetricsRegistry::new();
        m.add("server.request.TXN", 3);
        m.add("server.request.txn", 2); // collides after sanitisation → sums
        m.observe("server.request_us.TXN", 100);
        m.observe("server.request_us.TXN", 300);
        let text = m.render_prom();
        assert!(text.contains("# TYPE bschema_server_request_txn counter\n"));
        assert!(text.contains("bschema_server_request_txn 5\n"), "{text}");
        assert!(text.contains("# TYPE bschema_server_request_us_txn summary\n"));
        assert!(text.contains("bschema_server_request_us_txn{quantile=\"0.99\"}"));
        assert!(text.contains("bschema_server_request_us_txn_sum 400\n"));
        assert!(text.contains("bschema_server_request_us_txn_count 2\n"));
        // Every metric name appears exactly once, and each has a TYPE.
        let mut names: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("# TYPE "))
            .map(|l| l.split_whitespace().nth(2).unwrap())
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate TYPE lines in {text}");
        assert_eq!(prom_name("sharded.prepare.shard0"), "bschema_sharded_prepare_shard0");
        assert_eq!(prom_name("weird-key µ"), "bschema_weird_key__");
        // An empty registry exposes nothing (no stray headers).
        assert_eq!(MetricsRegistry::new().render_prom(), "");
    }

    #[test]
    fn json_is_valid_and_deterministic() {
        let m = MetricsRegistry::new();
        m.add("b", 2);
        m.add("a", 1);
        m.observe("h", 3);
        let text = m.to_json();
        assert!(json::is_valid(&text), "{text}");
        assert_eq!(text, m.to_json());
        assert!(text.find("\"a\":1").unwrap() < text.find("\"b\":2").unwrap());
        assert!(text.contains("\"p50\":3"), "{text}");
    }

    #[test]
    fn empty_registry_exports_a_pinned_shape() {
        // The exporter contract CI depends on: an empty registry emits
        // exactly this object, and it is valid JSON.
        let m = MetricsRegistry::new();
        assert_eq!(m.to_json(), "{\"counters\":{},\"histograms\":{}}");
        assert!(json::is_valid(&m.to_json()));
        assert_eq!(m.render_text(), "");
        // An empty histogram entry still renders non-NaN fields.
        m.observe("h", 0);
        assert!(m.to_json().contains("\"count\":1"));
    }
}
