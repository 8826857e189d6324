//! # bschema-obs
//!
//! Observability for the bounding-schema engines: a hierarchical span
//! tracer with monotonic timing, a metrics registry (counters +
//! histograms), and the [`Probe`] trait the engines are instrumented
//! against.
//!
//! The paper's core claims are complexity bounds — Theorem 3.1's
//! O(|Q|·|D|) legality test, the Figure 5 Δ-query incremental checks,
//! and the polynomial consistency closure. This crate makes the
//! *operation counts* behind those bounds first-class: entries
//! content-checked, Figure 4 queries evaluated and their result sizes,
//! index reuses through the Cow evaluation path, Δ-queries per Figure 5
//! row, and inference-rule firings.
//!
//! The crate is dependency-free. The design
//! splits three concerns:
//!
//! * [`Probe`] — the instrumentation *interface* the engines call. Every
//!   method has a no-op default body, and [`noop()`] returns a shared
//!   static no-op instance, so an uninstrumented checker pays one
//!   virtual `enabled()` test (predictably false) on the hot paths and
//!   nothing else.
//! * [`Tracer`] — hierarchical spans with thread-safe collection.
//!   Server threads record spans concurrently; the
//!   reconstructed tree is deterministic regardless of thread count
//!   because siblings are ordered by a caller-supplied ordinal, not by
//!   completion time.
//! * [`MetricsRegistry`] — named counters and log-bucketed quantile
//!   histograms (p50/p90/p99, mergeable, delta-able for scrape loops)
//!   behind `BTreeMap`s, so every rendering is deterministically
//!   ordered.
//!
//! [`Recorder`] bundles a tracer and a registry into a ready-made
//! `Probe` implementation with text and JSON exporters. A registry on
//! its own is a `Probe` too — counters and histograms, no spans — the
//! one a server shares across requests.
//!
//! On top of these sit the request-telemetry pieces the wire server
//! uses: [`TraceContext`] (a deterministic, wire-propagated trace
//! identity), [`RequestTrace`] (a per-request probe that re-parents
//! engine span trees under one request root while forwarding metrics
//! to the shared registry), and [`FlightRecorder`] (a bounded buffer
//! of the most recent + slowest completed request span trees).
//! [`names`] spells once every metric name that code reads back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod names;

mod flight;
mod fmt;
mod health;
mod metrics;
mod span;
mod timeseries;
mod trace;

pub use flight::{FlightRecord, FlightRecorder};
pub use fmt::fmt_us;
pub use health::{
    AlertEdge, AlertState, HealthReport, HealthStatus, Sense, ShardHealth, Signal, SloPolicy,
};
pub use metrics::{prom_name, Histogram, MetricsRegistry, MetricsSnapshot};
pub use span::{SpanId, SpanNode, Tracer, NO_SPAN};
pub use timeseries::{TickPoint, TimeSeries};
pub use trace::{RequestTrace, TraceContext};

/// The instrumentation interface threaded through the engines.
///
/// Every method has a no-op default, so implementors override only what
/// they collect and instrumentation sites stay unconditional. Hot loops
/// should gate bulk work on [`enabled`](Probe::enabled):
///
/// ```
/// # use bschema_obs::{noop, Probe};
/// # let probe = noop();
/// # let entries: &[u8] = &[];
/// if probe.enabled() {
///     probe.add("legality.entries_content_checked", entries.len() as u64);
/// }
/// ```
///
/// The `Debug + Sync` supertraits let engine structs that hold a
/// `&dyn Probe` keep their derived `Debug`/`Clone`/`Copy` impls and
/// share the probe across scoped worker threads.
pub trait Probe: std::fmt::Debug + Sync {
    /// Whether this probe records anything. `false` (the default) lets
    /// instrumented code skip preparing labels or timings entirely.
    fn enabled(&self) -> bool {
        false
    }

    /// Increments the counter `key` by `by`.
    fn add(&self, key: &str, by: u64) {
        let _ = (key, by);
    }

    /// Increments the counter `key.label` by `by` — for per-row /
    /// per-rule families like `incremental.delta_query.require_parent`.
    fn add_labeled(&self, key: &str, label: &str, by: u64) {
        let _ = (key, label, by);
    }

    /// Records `value` into the histogram `key`.
    fn observe(&self, key: &str, value: u64) {
        let _ = (key, value);
    }

    /// Opens a span named `name` under `parent` ([`NO_SPAN`] for a
    /// root). `ord` fixes the span's position among its siblings, so
    /// trees reconstructed from concurrent threads are deterministic —
    /// pass the phase or job index, not a timestamp.
    fn span_start(&self, parent: SpanId, name: &'static str, ord: u64) -> SpanId {
        let _ = (parent, name, ord);
        NO_SPAN
    }

    /// Closes a span opened by [`span_start`](Probe::span_start).
    /// Closing [`NO_SPAN`] is a no-op.
    fn span_end(&self, span: SpanId) {
        let _ = span;
    }
}

/// The do-nothing probe: every method keeps its default body.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopProbe;

impl Probe for NoopProbe {}

static NOOP: NoopProbe = NoopProbe;

/// The shared static no-op probe — the default wired into every engine.
pub fn noop() -> &'static dyn Probe {
    &NOOP
}

/// Runs `f` inside a span named `name`, opened at `probe`'s root level
/// (a [`RequestTrace`] re-parents it under the request root; a registry
/// drops it). A panic in `f` leaves the span open, as the trace of a
/// real crash ends.
pub fn scoped<T>(probe: &dyn Probe, name: &'static str, f: impl FnOnce() -> T) -> T {
    let span = probe.span_start(NO_SPAN, name, 0);
    let out = f();
    probe.span_end(span);
    out
}

/// A [`Probe`] that records everything: spans into a [`Tracer`],
/// counters and histograms into a [`MetricsRegistry`].
#[derive(Debug, Default)]
pub struct Recorder {
    tracer: Tracer,
    metrics: MetricsRegistry,
}

impl Recorder {
    /// A fresh recorder (empty tracer + registry).
    pub fn new() -> Self {
        Recorder::default()
    }

    /// The collected spans.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The collected counters and histograms.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Renders the span forest as an indented text tree.
    pub fn trace_text(&self) -> String {
        self.tracer.render_text()
    }

    /// Everything as one line of JSON:
    /// `{"counters":{...},"histograms":{...},"spans":[...]}`.
    pub fn to_json(&self) -> String {
        let m = self.metrics.to_json();
        // Splice the spans into the metrics object (which always renders
        // as `{"counters":...,"histograms":...}`).
        let body = m.strip_suffix('}').expect("metrics JSON is an object");
        format!("{body},\"spans\":{}}}", self.tracer.to_json())
    }
}

/// A registry on its own is the probe a long-running process shares:
/// counters and histograms are kept, spans fall to the trait's no-op
/// defaults — a served request's spans live in its own
/// [`RequestTrace`], and nothing accumulates per request.
impl Probe for MetricsRegistry {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, key: &str, by: u64) {
        MetricsRegistry::add(self, key, by);
    }

    fn add_labeled(&self, key: &str, label: &str, by: u64) {
        MetricsRegistry::add_labeled(self, key, label, by);
    }

    fn observe(&self, key: &str, value: u64) {
        MetricsRegistry::observe(self, key, value);
    }
}

impl Probe for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, key: &str, by: u64) {
        self.metrics.add(key, by);
    }

    fn add_labeled(&self, key: &str, label: &str, by: u64) {
        self.metrics.add_labeled(key, label, by);
    }

    fn observe(&self, key: &str, value: u64) {
        self.metrics.observe(key, value);
    }

    fn span_start(&self, parent: SpanId, name: &'static str, ord: u64) -> SpanId {
        self.tracer.start(parent, name, ord)
    }

    fn span_end(&self, span: SpanId) {
        self.tracer.end(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_probe_is_inert() {
        let p = noop();
        assert!(!p.enabled());
        p.add("x", 1);
        p.add_labeled("x", "y", 1);
        p.observe("x", 1);
        let s = p.span_start(NO_SPAN, "root", 0);
        assert_eq!(s, NO_SPAN);
        p.span_end(s);
    }

    #[test]
    fn recorder_collects_through_the_trait() {
        let r = Recorder::new();
        let p: &dyn Probe = &r;
        assert!(p.enabled());
        p.add("queries", 2);
        p.add("queries", 3);
        p.add_labeled("rule", "path", 1);
        p.observe("size", 7);
        let root = p.span_start(NO_SPAN, "check", 0);
        let child = p.span_start(root, "content", 0);
        p.span_end(child);
        p.span_end(root);
        assert_eq!(r.metrics().counter("queries"), 5);
        assert_eq!(r.metrics().counter("rule.path"), 1);
        assert_eq!(r.metrics().histogram("size").unwrap().count(), 1);
        let tree = r.tracer().tree();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].shape(), "check(content)");
    }

    #[test]
    fn a_registry_probe_keeps_counts_and_no_spans() {
        let m = MetricsRegistry::new();
        let p: &dyn Probe = &m;
        assert!(p.enabled());
        p.add("queries", 2);
        p.add_labeled("rule", "path", 1);
        p.observe("size", 7);
        let root = p.span_start(NO_SPAN, "check", 0);
        assert_eq!(root, NO_SPAN);
        p.span_end(root);
        assert_eq!((m.counter("queries"), m.counter("rule.path")), (2, 1));
        assert_eq!(m.histogram("size").unwrap().count(), 1);
    }

    #[test]
    fn recorder_json_is_valid_and_single_line() {
        let r = Recorder::new();
        r.add("a\"b", 1);
        r.observe("h", 3);
        let root = r.span_start(NO_SPAN, "root", 0);
        r.span_end(root);
        let text = r.to_json();
        assert!(json::is_valid(&text), "invalid JSON: {text}");
        assert!(!text.contains('\n'));
        assert!(text.contains("\"spans\""));
    }
}
