//! Wire-propagated trace context and the per-request span collector.
//!
//! [`TraceContext`] is the identity a client stamps on a request frame
//! (`tc=<trace-id>.<parent-span>` as an ordinary header token) so the
//! server can attribute everything it does for that frame — queue wait,
//! worker dispatch, journal write, legality check, per-Figure-5
//! Δ-queries — to the caller's trace. Ids are **deterministic**: the
//! client derives them from a per-connection sequence number, never a
//! clock, so loopback tests can pin exact ids.
//!
//! [`RequestTrace`] is the server-side collector: a fresh [`Tracer`]
//! per request plus a re-parenting [`Probe`]. The engines all open
//! their root spans at [`NO_SPAN`] (they know nothing about requests);
//! `RequestTrace` rewrites that parent to the request's root span, so a
//! single TXN yields **one** connected span tree from `server.request`
//! down to each Δ-query, while counters and histograms keep flowing to
//! the shared per-process registry.

use std::fmt;
use std::sync::Arc;

use crate::span::{SpanNode, Tracer};
use crate::{Probe, SpanId, NO_SPAN};

/// The longest `tc=` token body ([`TraceContext::parse_token`])
/// accepted off the wire. Generous for any real client (`<label>-<n>.<span>`)
/// while keeping trace ids bounded in logs and flight records.
const MAX_TOKEN_BODY: usize = 256;

/// A request's trace identity: who asked (`trace_id`) and which of the
/// caller's spans this request hangs under (`parent_span`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceContext {
    /// Caller-chosen trace identifier. Sequence-derived, not a clock:
    /// the bundled client stamps `<label>-<n>` with a per-connection
    /// counter `n`.
    pub trace_id: String,
    /// The caller-side span this request is a child of (0 for a root).
    pub parent_span: u64,
}

impl TraceContext {
    /// A context rooted at `trace_id` (parent span 0).
    pub fn new(trace_id: impl Into<String>) -> Self {
        TraceContext { trace_id: trace_id.into(), parent_span: 0 }
    }

    /// Renders the context as the wire header token
    /// `tc=<trace_id>.<parent_span>`. The result is whitespace-free as
    /// long as the trace id is (the codec rejects it otherwise).
    pub fn wire_token(&self) -> String {
        format!("tc={}.{}", self.trace_id, self.parent_span)
    }

    /// Parses a header token produced by [`wire_token`]
    /// (`TraceContext::wire_token`). Returns `None` for anything else —
    /// unknown tokens must stay inert so old clients keep working
    /// against new servers and vice versa.
    pub fn parse_token(token: &str) -> Option<TraceContext> {
        let body = token.strip_prefix("tc=")?;
        // A hostile or corrupted token must not become an unbounded
        // trace id echoed through every log line and flight record.
        if body.len() > MAX_TOKEN_BODY {
            return None;
        }
        let (id, span) = body.rsplit_once('.')?;
        if id.is_empty() {
            return None;
        }
        Some(TraceContext { trace_id: id.to_owned(), parent_span: span.parse().ok()? })
    }
}

impl fmt::Display for TraceContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.trace_id, self.parent_span)
    }
}

/// A per-request span collector that re-parents engine span trees under
/// one request root and forwards all metric traffic to a shared probe.
///
/// The request root is opened at construction and closed by
/// [`finish`](RequestTrace::finish), which hands back the completed
/// [`SpanNode`] tree (for the flight recorder) and the root duration.
#[derive(Debug)]
pub struct RequestTrace {
    tracer: Tracer,
    root: SpanId,
    shared: Arc<dyn Probe + Send + Sync>,
}

impl RequestTrace {
    /// Opens a request trace rooted at a span named `root_name`.
    /// Counters/histograms recorded through this trace are forwarded to
    /// `shared` (the per-process registry); span events stay private to
    /// this request's tracer.
    pub fn new(shared: Arc<dyn Probe + Send + Sync>, root_name: &'static str) -> Self {
        let tracer = Tracer::new();
        let root = tracer.start(NO_SPAN, root_name, 0);
        RequestTrace { tracer, root, shared }
    }

    /// Records an already-elapsed wait (e.g. accept-queue time) as a
    /// closed child of the request root.
    pub fn note_wait(&self, name: &'static str, dur_us: u64) {
        self.tracer.record_with_duration(self.root, name, 0, dur_us);
    }

    /// Closes the root and returns the finished span tree plus the
    /// request's total duration in microseconds. Takes `&self` so the
    /// server can finish a trace it shares behind an `Arc`.
    pub fn finish(&self) -> (SpanNode, u64) {
        self.tracer.end(self.root);
        let mut roots = self.tracer.tree();
        let root = roots.swap_remove(0);
        let dur = root.dur_us.unwrap_or(0);
        (root, dur)
    }
}

impl Probe for RequestTrace {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, key: &str, by: u64) {
        self.shared.add(key, by);
    }

    fn add_labeled(&self, key: &str, label: &str, by: u64) {
        self.shared.add_labeled(key, label, by);
    }

    fn observe(&self, key: &str, value: u64) {
        self.shared.observe(key, value);
    }

    fn span_start(&self, parent: SpanId, name: &'static str, ord: u64) -> SpanId {
        // Engines open their roots at NO_SPAN; hang those under the
        // request root so the whole request is one tree.
        let parent = if parent == NO_SPAN { self.root } else { parent };
        self.tracer.start(parent, name, ord)
    }

    fn span_end(&self, span: SpanId) {
        self.tracer.end(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn wire_token_roundtrips() {
        let ctx = TraceContext { trace_id: "cli-3".to_owned(), parent_span: 7 };
        assert_eq!(ctx.wire_token(), "tc=cli-3.7");
        assert_eq!(TraceContext::parse_token("tc=cli-3.7"), Some(ctx));
        // Ids may themselves contain dots; the span is the last segment.
        let dotted = TraceContext::parse_token("tc=host.example-9.0").unwrap();
        assert_eq!(dotted.trace_id, "host.example-9");
        assert_eq!(dotted.parent_span, 0);
    }

    #[test]
    fn foreign_tokens_are_ignored() {
        for bad in ["", "tc=", "tc=.", "tc=.5", "tc=x", "tc=x.y", "limit", "base:o=acme"] {
            assert_eq!(TraceContext::parse_token(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn hostile_tokens_are_bounded_and_inert() {
        // Overlong body: rejected outright, even if otherwise shaped right.
        let long = format!("tc={}.7", "x".repeat(300));
        assert_eq!(TraceContext::parse_token(&long), None);
        // The longest accepted body still parses.
        let id = "y".repeat(MAX_TOKEN_BODY - 2);
        let edge = format!("tc={id}.7");
        let parsed = TraceContext::parse_token(&edge).expect("body at the cap parses");
        assert_eq!(parsed.trace_id, id);
        // A span field beyond u64 is a parse failure, not a panic.
        assert_eq!(TraceContext::parse_token("tc=cli.99999999999999999999999"), None);
        assert_eq!(TraceContext::parse_token("tc=cli.-1"), None);
        assert_eq!(TraceContext::parse_token("tc=cli.1e3"), None);
        // Embedded NULs and controls in the id are carried, not fatal —
        // the codec layer rejects such frames before parse_token runs.
        assert!(TraceContext::parse_token("tc=a\u{0}b.0").is_some());
    }

    #[test]
    fn request_trace_reparents_engine_roots() {
        let shared = Arc::new(Recorder::new());
        let trace = RequestTrace::new(shared.clone(), "server.request");
        let p: &dyn Probe = &trace;
        // An engine opens its root at NO_SPAN, as they all do.
        let check = p.span_start(NO_SPAN, "legality.check", 0);
        let content = p.span_start(check, "content", 0);
        p.span_end(content);
        p.span_end(check);
        p.add("legality.structure_queries", 9);
        let (root, _dur) = trace.finish();
        assert_eq!(root.shape(), "server.request(legality.check(content))");
        assert!(root.dur_us.is_some());
        // Metric traffic went to the shared registry, span traffic did not.
        assert_eq!(shared.metrics().counter("legality.structure_queries"), 9);
        assert!(shared.tracer().is_empty());
    }

    #[test]
    fn waits_are_backdated_children() {
        let trace = RequestTrace::new(Arc::new(Recorder::new()), "server.request");
        trace.note_wait("server.queue_wait", 42);
        let probe: &dyn Probe = &trace;
        probe.span_end(probe.span_start(NO_SPAN, "managed.apply", 0));
        let (root, _) = trace.finish();
        assert_eq!(root.shape(), "server.request(server.queue_wait,managed.apply)");
        assert_eq!(root.children[0].dur_us, Some(42));
    }
}
