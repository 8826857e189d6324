//! The metered part of a service: the registry every request counts
//! into and the sampler state behind `HEALTH` and `WATCH`.
//!
//! [`Server::spawn`](crate::server::Server::spawn) runs one sampler
//! thread (`bschema-monitor`) over a metered service. Every [`TICK`] it
//! calls `DirectoryService::monitor_tick`, which snapshots the registry
//! into the bounded [`TimeSeries`] ring, evaluates the SLO burn rate over
//! the last [`WINDOW`] ticks, and publishes the tick's JSON here for
//! `WATCH` sessions; `HEALTH` reads the merged window. The ring holds
//! [`RETAINED`] ticks, and a watcher that cannot keep up is cut by the
//! socket write timeout, never buffered without limit.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use bschema_obs::{names, AlertState, MetricsRegistry, MetricsSnapshot, TimeSeries};

use crate::server::Shutdown;

/// Time between sampler ticks.
pub(crate) const TICK: Duration = Duration::from_secs(1);
/// Ticks retained in the ring: two minutes.
const RETAINED: usize = 120;
/// Ticks merged into the `HEALTH`/SLO evaluation window.
const WINDOW: usize = 12;

/// The latest published tick, shared with blocked watchers.
#[derive(Debug, Default)]
struct Latest {
    seq: u64,
    json: String,
}

/// A metered service's registry and sampler state: the retention ring,
/// the latest published tick (with a condvar watchers block on), and the
/// SLO alert latch.
#[derive(Debug)]
pub(crate) struct Monitor {
    pub(crate) registry: Arc<MetricsRegistry>,
    /// The retention ring of per-tick metric deltas.
    pub(crate) ring: TimeSeries,
    latest: Mutex<Latest>,
    tick_ready: Condvar,
    alert: Mutex<AlertState>,
}

impl Monitor {
    pub(crate) fn new(registry: Arc<MetricsRegistry>) -> Self {
        Monitor {
            registry,
            ring: TimeSeries::new(RETAINED),
            latest: Mutex::new(Latest::default()),
            tick_ready: Condvar::new(),
            alert: Mutex::new(AlertState::new()),
        }
    }

    fn latest(&self) -> MutexGuard<'_, Latest> {
        self.latest.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Publishes a completed tick's frame and wakes every watcher.
    pub(crate) fn publish_tick(&self, seq: u64, json: String) {
        let mut latest = self.latest();
        latest.seq = seq;
        latest.json = json;
        self.tick_ready.notify_all();
    }

    /// Wakes every watcher without publishing: the sampler calls this
    /// once the server's shutdown signal fired, so each blocked
    /// [`wait_for_tick`](Monitor::wait_for_tick) sees it.
    pub(crate) fn wake_watchers(&self) {
        let _latest = self.latest();
        self.tick_ready.notify_all();
    }

    /// The sequence number of the latest published tick (0 before the
    /// first).
    pub(crate) fn latest_seq(&self) -> u64 {
        self.latest().seq
    }

    /// Blocks until a tick newer than `after_seq` is published, and
    /// returns it; `None` once `stop` has fired.
    pub(crate) fn wait_for_tick(&self, after_seq: u64, stop: &Shutdown) -> Option<(u64, String)> {
        let latest = self
            .tick_ready
            .wait_while(self.latest(), |latest| latest.seq <= after_seq && !stop.is_fired())
            .unwrap_or_else(|e| e.into_inner());
        (latest.seq > after_seq).then(|| (latest.seq, latest.json.clone()))
    }

    /// The merged activity of the last [`WINDOW`] ticks:
    /// `(window, span_us, requests, p99_us, err_rate)`.
    pub(crate) fn window(&self) -> (MetricsSnapshot, u64, u64, u64, f64) {
        let (window, span_us) = self.ring.window(WINDOW);
        let all = window.histograms.get(names::REQUEST_MICROS).copied().unwrap_or_default();
        let requests = all.count();
        let p99_us = all.quantile(0.99);
        let errors: u64 = window
            .histograms
            .iter()
            .filter(|(key, _)| names::label(key, names::REJECTED_US).is_some())
            .map(|(_, h)| h.count())
            .sum();
        let err_rate = if requests == 0 { 0.0 } else { (errors as f64 / requests as f64).min(1.0) };
        (window, span_us, requests, p99_us, err_rate)
    }

    /// The edge-triggered SLO alert latch.
    pub(crate) fn alert(&self) -> MutexGuard<'_, AlertState> {
        self.alert.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bschema_obs::AlertEdge;

    fn monitor() -> Monitor {
        Monitor::new(Arc::new(MetricsRegistry::new()))
    }

    fn fired() -> Shutdown {
        let stop = Shutdown::new(None);
        stop.fire();
        stop
    }

    #[test]
    fn watchers_see_only_fresh_ticks() {
        let m = monitor();
        assert_eq!(m.latest_seq(), 0);
        // Nothing published yet: a stopped watcher leaves empty.
        assert_eq!(m.wait_for_tick(0, &fired()), None);
        m.publish_tick(1, "{\"tick\":1}".to_owned());
        let (seq, json) = m.wait_for_tick(0, &Shutdown::new(None)).unwrap();
        assert_eq!((seq, json.as_str()), (1, "{\"tick\":1}"));
        // Already seen: it would wait for the next one.
        assert_eq!(m.wait_for_tick(1, &fired()), None);
    }

    #[test]
    fn publish_wakes_a_blocked_watcher() {
        let m = Arc::new(monitor());
        let stop = Arc::new(Shutdown::new(None));
        let watcher = {
            let (m, stop) = (m.clone(), stop.clone());
            std::thread::spawn(move || {
                let first = m.wait_for_tick(0, &stop);
                (first, m.wait_for_tick(7, &stop))
            })
        };
        // Give the watcher a moment to block, then publish.
        std::thread::sleep(Duration::from_millis(20));
        m.publish_tick(7, "{}".to_owned());
        // The second wait ends on the shutdown signal, not on a tick.
        std::thread::sleep(Duration::from_millis(20));
        stop.fire();
        m.wake_watchers();
        let (first, second) = watcher.join().unwrap();
        assert_eq!(first, Some((7, "{}".to_owned())));
        assert_eq!(second, None);
    }

    #[test]
    fn alert_latch_is_shared_and_edge_triggered() {
        let m = monitor();
        assert_eq!(m.alert().observe(0.5), None);
        assert_eq!(m.alert().observe(1.5), Some(AlertEdge::Fired));
        assert_eq!(m.alert().observe(9.0), None);
        assert!(m.alert().is_burning());
        assert_eq!(m.alert().observe(0.1), Some(AlertEdge::Cleared));
        assert_eq!(m.alert().fired(), 1);
    }
}
