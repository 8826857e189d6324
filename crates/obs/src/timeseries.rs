//! Fixed-capacity time-series retention over a [`MetricsRegistry`].
//!
//! The registry is cumulative: counters only grow, histograms only
//! accumulate. [`TimeSeries`] turns that into *history*: a monitor loop
//! feeds it one [`MetricsSnapshot`] per tick, the ring stores the
//! **delta** each tick contributed (via [`MetricsSnapshot::delta_since`]
//! against the previous tick), and windowed queries — request rate over
//! the last N ticks, p99 over the last N ticks — fall out by merging
//! the retained deltas. Capacity is fixed at construction, so a server
//! that runs for a month holds exactly as much monitoring state as one
//! that ran for an hour.
//!
//! This is the storage layer of the health plane: the `WATCH` verb
//! streams the per-tick deltas, and the `HEALTH` verdict and SLO
//! burn-rate computation read the merged window.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::metrics::MetricsSnapshot;

/// One monitor tick: the sequence number, when it was taken (µs since
/// the sampler's origin), how much wall-clock it covers, and the
/// counter/histogram activity since the previous tick.
#[derive(Debug, Clone, PartialEq)]
pub struct TickPoint {
    /// Tick sequence number, starting at 1 for the first recorded tick.
    pub seq: u64,
    /// Microseconds since the sampler's origin when the tick was taken.
    pub at_us: u64,
    /// Wall-clock microseconds this tick covers (since the previous
    /// tick, or since the origin for the first).
    pub dur_us: u64,
    /// The activity recorded during this tick (idle series omitted, as
    /// [`MetricsSnapshot::delta_since`] does).
    pub delta: MetricsSnapshot,
}

impl TickPoint {
    /// Renders the tick as one JSON object — the `WATCH` frame payload.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"tick\":{},\"at_us\":{},\"dur_us\":{},\"delta\":{}}}",
            self.seq,
            self.at_us,
            self.dur_us,
            self.delta.to_json()
        )
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// The previous tick's cumulative snapshot — the delta baseline.
    last: MetricsSnapshot,
    /// Timestamp of the previous tick (µs since origin).
    last_at_us: u64,
    /// Retained ticks, oldest first.
    points: VecDeque<TickPoint>,
    /// Total ticks ever recorded (≥ `points.len()` once the ring wraps).
    ticks: u64,
}

/// A bounded ring of per-tick metric deltas with windowed rate and
/// quantile queries. Thread-safe: the monitor thread records while
/// `WATCH`/`HEALTH` handlers read.
#[derive(Debug)]
pub struct TimeSeries {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl TimeSeries {
    /// A ring retaining the most recent `capacity` ticks (clamped ≥ 1).
    pub fn new(capacity: usize) -> Self {
        TimeSeries { inner: Mutex::new(Inner::default()), capacity: capacity.max(1) }
    }

    /// Total ticks recorded over the ring's lifetime.
    pub fn ticks(&self) -> u64 {
        self.lock().ticks
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records one tick: `snapshot` is the registry's cumulative state,
    /// `at_us` the caller's monotonic clock (µs since its origin; must
    /// not run backwards). Computes the delta against the previous tick,
    /// retains it (evicting the oldest beyond capacity), and returns the
    /// new point.
    pub fn record(&self, snapshot: MetricsSnapshot, at_us: u64) -> TickPoint {
        let mut inner = self.lock();
        let delta = snapshot.delta_since(&inner.last);
        inner.ticks += 1;
        let point = TickPoint {
            seq: inner.ticks,
            at_us,
            dur_us: at_us.saturating_sub(inner.last_at_us),
            delta,
        };
        inner.last = snapshot;
        inner.last_at_us = at_us;
        inner.points.push_back(point.clone());
        while inner.points.len() > self.capacity {
            inner.points.pop_front();
        }
        point
    }

    /// The merged activity of the last `n` retained ticks (counters
    /// summed, histograms bucket-merged) plus the wall-clock span those
    /// ticks cover. `n = 0` or an empty ring yields an empty window.
    pub fn window(&self, n: usize) -> (MetricsSnapshot, u64) {
        let inner = self.lock();
        let take = n.min(inner.points.len());
        let mut merged = MetricsSnapshot::default();
        let mut span_us = 0u64;
        for point in inner.points.iter().rev().take(take) {
            span_us = span_us.saturating_add(point.dur_us);
            merged.merge(&point.delta, str::to_owned);
        }
        (merged, span_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn ring_deltas_and_evicts() {
        let m = MetricsRegistry::new();
        let ts = TimeSeries::new(3);
        assert_eq!(ts.window(3), (MetricsSnapshot::default(), 0));
        for i in 1..=5u64 {
            m.add("reqs", 2);
            m.observe("lat", 10 * i);
            let point = ts.record(m.snapshot(), i * 1_000_000);
            assert_eq!(point.seq, i);
            assert_eq!(point.dur_us, 1_000_000);
            assert_eq!(point.delta.counters.get("reqs"), Some(&2));
            assert_eq!(point.delta.histograms.get("lat").unwrap().count(), 1);
        }
        // Capacity 3: ticks 3..=5 retained, 5 recorded.
        assert_eq!(ts.ticks(), 5);
        let (window, span_us) = ts.window(100);
        assert_eq!(window.counters.get("reqs"), Some(&6));
        assert_eq!(span_us, 3_000_000);
        assert_eq!(window.histograms.get("lat").unwrap().count(), 3);
        // Quantile over the merged window: values 30, 40, 50 recorded.
        let p = window.histograms["lat"].quantile(1.0);
        assert!(p >= 50, "window max quantile ≥ the largest retained value, got {p}");
    }

    #[test]
    fn idle_ticks_are_empty_and_harmless() {
        let m = MetricsRegistry::new();
        let ts = TimeSeries::new(8);
        m.add("reqs", 1);
        ts.record(m.snapshot(), 100);
        let idle = ts.record(m.snapshot(), 200);
        assert!(idle.delta.counters.is_empty());
        assert!(idle.delta.histograms.is_empty());
        assert_eq!(ts.window(1).0, MetricsSnapshot::default(), "an idle window is empty");
        // Window larger than retention is clamped, not an error.
        let (window, _) = ts.window(100);
        assert_eq!(window.counters.get("reqs"), Some(&1));
    }

    #[test]
    fn tick_json_is_valid() {
        let m = MetricsRegistry::new();
        let ts = TimeSeries::new(2);
        m.add("a", 1);
        m.observe("h", 7);
        let point = ts.record(m.snapshot(), 42);
        let json = point.to_json();
        assert!(crate::json::is_valid(&json), "{json}");
        let v = crate::json::Value::parse(&json).unwrap();
        assert_eq!(v.get("tick").unwrap().as_u64(), Some(1));
        assert_eq!(v.path("delta.counters.a").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let ts = TimeSeries::new(0);
        let m = MetricsRegistry::new();
        for at_us in 1..=2 {
            m.add("a", 1);
            ts.record(m.snapshot(), at_us);
        }
        // One tick retained: the window holds the last delta only.
        assert_eq!(ts.window(100).0.counters.get("a"), Some(&1));
        assert_eq!(ts.ticks(), 2);
    }
}
