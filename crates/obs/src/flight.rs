//! The flight recorder: a bounded buffer of completed request span
//! trees.
//!
//! Per-process counters say *that* requests were slow; the flight
//! recorder keeps the evidence for *which* and *why*: the N most
//! **recent** and the N **slowest** completed requests, each as a full
//! [`SpanNode`] tree with the caller's trace id attached. Memory is
//! bounded by `2 × capacity` records no matter how long the server
//! runs, and recording is one short mutex hold, so it is safe to leave
//! on in production — the server's `TRACE` verb serves the buffer as
//! JSON.

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::json;
use crate::span::SpanNode;

/// One completed request, as retained by the [`FlightRecorder`].
#[derive(Debug, Clone)]
pub struct FlightRecord {
    /// Monotonic admission number (process-wide order of completion).
    pub seq: u64,
    /// The caller's trace id (from the wire `tc=` token), or the
    /// server-assigned fallback for unstamped requests.
    pub trace_id: String,
    /// The request verb (`TXN`, `SEARCH`, ...).
    pub verb: String,
    /// `ok`, or the stable rejection code (`rolled-back`, `limit`, ...).
    pub status: String,
    /// End-to-end duration of the request root span, microseconds.
    pub dur_us: u64,
    /// The completed span tree rooted at `server.request`.
    pub root: SpanNode,
}

impl FlightRecord {
    /// Renders the record as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\":{},\"trace_id\":{},\"verb\":{},\"status\":{},\"dur_us\":{},\"spans\":{}}}",
            self.seq,
            json::escape(&self.trace_id),
            json::escape(&self.verb),
            json::escape(&self.status),
            self.dur_us,
            self.root.to_json()
        )
    }
}

#[derive(Debug, Default)]
struct FlightInner {
    recent: VecDeque<FlightRecord>,
    slowest: Vec<FlightRecord>,
    seq: u64,
}

/// A bounded ring buffer retaining the most recent and the slowest
/// completed request traces.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    inner: Mutex<FlightInner>,
}

impl FlightRecorder {
    /// A recorder keeping up to `capacity` recent and `capacity`
    /// slowest records (capacity 0 is clamped to 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder { capacity: capacity.max(1), inner: Mutex::new(FlightInner::default()) }
    }

    /// Admits a completed request; returns its sequence number.
    pub fn record(
        &self,
        trace_id: impl Into<String>,
        verb: impl Into<String>,
        status: impl Into<String>,
        dur_us: u64,
        root: SpanNode,
    ) -> u64 {
        let mut inner = self.inner.lock().expect("flight mutex poisoned");
        let seq = inner.seq;
        inner.seq += 1;
        let record = FlightRecord {
            seq,
            trace_id: trace_id.into(),
            verb: verb.into(),
            status: status.into(),
            dur_us,
            root,
        };
        if inner.recent.len() == self.capacity {
            inner.recent.pop_front();
        }
        inner.recent.push_back(record.clone());
        inner.slowest.push(record);
        // Slowest first; equal durations keep completion order so the
        // buffer contents are deterministic.
        inner.slowest.sort_by(|a, b| b.dur_us.cmp(&a.dur_us).then(a.seq.cmp(&b.seq)));
        inner.slowest.truncate(self.capacity);
        seq
    }

    /// Total requests admitted so far (including evicted ones).
    pub fn admitted(&self) -> u64 {
        self.inner.lock().expect("flight mutex poisoned").seq
    }

    /// The retained most-recent records, oldest first.
    pub fn recent(&self) -> Vec<FlightRecord> {
        self.inner.lock().expect("flight mutex poisoned").recent.iter().cloned().collect()
    }

    /// The retained slowest records, slowest first.
    pub fn slowest(&self) -> Vec<FlightRecord> {
        self.inner.lock().expect("flight mutex poisoned").slowest.clone()
    }

    /// Renders the whole buffer as one JSON object:
    /// `{"admitted":N,"recent":[...],"slowest":[...]}`.
    pub fn to_json(&self) -> String {
        let inner = self.inner.lock().expect("flight mutex poisoned");
        let mut out = format!("{{\"admitted\":{},\"recent\":[", inner.seq);
        for (i, rec) in inner.recent.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&rec.to_json());
        }
        out.push_str("],\"slowest\":[");
        for (i, rec) in inner.slowest.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&rec.to_json());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(name: &'static str, dur_us: u64) -> SpanNode {
        SpanNode { name, ord: 0, start_us: 0, dur_us: Some(dur_us), children: Vec::new() }
    }

    #[test]
    fn keeps_recent_and_slowest_within_capacity() {
        let fr = FlightRecorder::new(2);
        // Durations: 10, 50, 20, 40, 30 — slowest two are 50 and 40.
        for (i, dur) in [10u64, 50, 20, 40, 30].into_iter().enumerate() {
            fr.record(format!("t-{i}"), "PING", "ok", dur, leaf("server.request", dur));
        }
        assert_eq!(fr.admitted(), 5);
        let recent: Vec<u64> = fr.recent().iter().map(|r| r.dur_us).collect();
        assert_eq!(recent, [40, 30]);
        let slowest: Vec<u64> = fr.slowest().iter().map(|r| r.dur_us).collect();
        assert_eq!(slowest, [50, 40]);
        assert_eq!(fr.slowest()[0].trace_id, "t-1");
    }

    #[test]
    fn equal_durations_keep_completion_order() {
        let fr = FlightRecorder::new(3);
        for i in 0..5u64 {
            fr.record(format!("t-{i}"), "PING", "ok", 7, leaf("server.request", 7));
        }
        let seqs: Vec<u64> = fr.slowest().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [0, 1, 2]);
    }

    #[test]
    fn json_is_valid_and_carries_the_tree() {
        let fr = FlightRecorder::new(4);
        let root = SpanNode {
            name: "server.request",
            ord: 0,
            start_us: 0,
            dur_us: Some(9),
            children: vec![leaf("legality.check", 5)],
        };
        fr.record("cli-0", "TXN", "rolled-back", 9, root);
        let text = fr.to_json();
        assert!(json::is_valid(&text), "{text}");
        assert!(text.contains("\"trace_id\":\"cli-0\""), "{text}");
        assert!(text.contains("\"status\":\"rolled-back\""), "{text}");
        assert!(text.contains("\"name\":\"legality.check\""), "{text}");
        assert!(text.starts_with("{\"admitted\":1,\"recent\":["), "{text}");
    }

    #[test]
    fn concurrent_recording_admits_everything() {
        let fr = FlightRecorder::new(8);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let fr = &fr;
                scope.spawn(move || {
                    for i in 0..50u64 {
                        fr.record("t", "PING", "ok", i, leaf("server.request", i));
                    }
                });
            }
        });
        assert_eq!(fr.admitted(), 200);
        assert_eq!(fr.recent().len(), 8);
        let slowest: Vec<u64> = fr.slowest().iter().map(|r| r.dur_us).collect();
        assert_eq!(slowest, [49, 49, 49, 49, 48, 48, 48, 48]);
    }
}
