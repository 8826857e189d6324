//! Hierarchical spans with monotonic timing and thread-safe collection.
//!
//! Spans are appended to one mutex-guarded arena; a [`SpanId`] is the
//! arena index. Server threads open spans concurrently, so arena
//! order is nondeterministic — the reconstructed [`tree`](Tracer::tree)
//! is made deterministic by stable-sorting siblings on the
//! caller-supplied ordinal (phase number, job index, ...), with the
//! arena sequence only breaking ties among equal ordinals.

use std::sync::Mutex;
use std::time::Instant;

use crate::fmt::fmt_us;
use crate::json;

/// Handle to a span in a [`Tracer`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(usize);

/// The "no span" sentinel: the parent of root spans, and what a no-op
/// probe returns. Ending it is a no-op.
pub const NO_SPAN: SpanId = SpanId(usize::MAX);

/// One recorded span.
#[derive(Debug, Clone)]
struct SpanRec {
    name: &'static str,
    parent: usize,
    ord: u64,
    start_us: u64,
    dur_us: Option<u64>,
}

/// A thread-safe span collector with one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer::default()
    }

    /// Opens a span under `parent` ([`NO_SPAN`] for a root) with sibling
    /// ordinal `ord`.
    pub fn start(&self, parent: SpanId, name: &'static str, ord: u64) -> SpanId {
        let start_us = self.origin.elapsed().as_micros() as u64;
        let mut spans = self.spans.lock().expect("tracer mutex poisoned");
        spans.push(SpanRec { name, parent: parent.0, ord, start_us, dur_us: None });
        SpanId(spans.len() - 1)
    }

    /// Records an already-elapsed interval as a closed span: the span is
    /// backdated so it *ends* now and lasted `dur_us`. Used for waits
    /// measured outside the tracer's scope — e.g. the server backdates a
    /// connection's queue wait once a worker picks it up.
    pub fn record_with_duration(
        &self,
        parent: SpanId,
        name: &'static str,
        ord: u64,
        dur_us: u64,
    ) -> SpanId {
        let now = self.origin.elapsed().as_micros() as u64;
        let mut spans = self.spans.lock().expect("tracer mutex poisoned");
        spans.push(SpanRec {
            name,
            parent: parent.0,
            ord,
            start_us: now.saturating_sub(dur_us),
            dur_us: Some(dur_us),
        });
        SpanId(spans.len() - 1)
    }

    /// Closes `span`, recording its duration. Closing [`NO_SPAN`] (or an
    /// already-closed span) is a no-op.
    pub fn end(&self, span: SpanId) {
        if span == NO_SPAN {
            return;
        }
        let now = self.origin.elapsed().as_micros() as u64;
        let mut spans = self.spans.lock().expect("tracer mutex poisoned");
        if let Some(rec) = spans.get_mut(span.0) {
            if rec.dur_us.is_none() {
                rec.dur_us = Some(now.saturating_sub(rec.start_us));
            }
        }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("tracer mutex poisoned").len()
    }

    /// True when no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reconstructs the span forest. Root spans (parent [`NO_SPAN`]) come
    /// in recording order; siblings everywhere are stable-sorted by their
    /// ordinal, so the shape is independent of worker scheduling.
    pub fn tree(&self) -> Vec<SpanNode> {
        let spans = self.spans.lock().expect("tracer mutex poisoned").clone();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, rec) in spans.iter().enumerate() {
            if rec.parent == NO_SPAN.0 {
                roots.push(i);
            } else if let Some(list) = children.get_mut(rec.parent) {
                list.push(i);
            }
        }
        fn build(i: usize, spans: &[SpanRec], children: &[Vec<usize>]) -> SpanNode {
            let mut kids: Vec<usize> = children[i].clone();
            // Arena order breaks ties among equal ordinals (stable sort).
            kids.sort_by_key(|&k| spans[k].ord);
            SpanNode {
                name: spans[i].name,
                ord: spans[i].ord,
                start_us: spans[i].start_us,
                dur_us: spans[i].dur_us,
                children: kids.into_iter().map(|k| build(k, spans, children)).collect(),
            }
        }
        roots.sort_by_key(|&r| spans[r].ord);
        roots.into_iter().map(|r| build(r, &spans, &children)).collect()
    }

    /// Renders the forest as an indented text tree with durations.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for root in self.tree() {
            out.push_str(&root.render_text());
        }
        out
    }

    /// Renders the forest as a JSON array of nested span objects.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, root) in self.tree().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&root.to_json());
        }
        out.push(']');
        out
    }
}

/// A reconstructed span with its (ordinal-sorted) children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name as passed to [`Tracer::start`].
    pub name: &'static str,
    /// Sibling ordinal as passed to [`Tracer::start`].
    pub ord: u64,
    /// Microseconds from the tracer's origin to the span opening.
    pub start_us: u64,
    /// Span duration in microseconds; `None` if never closed.
    pub dur_us: Option<u64>,
    /// Child spans, ordinal-sorted.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A timing-free rendering of the subtree shape —
    /// `name(child1,child2(grandchild))` — for deterministic assertions.
    pub fn shape(&self) -> String {
        if self.children.is_empty() {
            return self.name.to_owned();
        }
        let inner: Vec<String> = self.children.iter().map(SpanNode::shape).collect();
        format!("{}({})", self.name, inner.join(","))
    }

    /// Renders this subtree as one nested JSON object — the same shape
    /// [`Tracer::to_json`] emits per root, reusable for detached trees
    /// (the flight recorder stores `SpanNode`s, not tracers).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"name\":{},\"ord\":{},\"start_us\":{},\"dur_us\":{},\"children\":[",
            json::escape(self.name),
            self.ord,
            self.start_us,
            self.dur_us.map_or("null".to_owned(), |d| d.to_string()),
        );
        for (i, child) in self.children.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&child.to_json());
        }
        out.push_str("]}");
        out
    }

    /// Renders this subtree as an indented text tree with durations.
    pub fn render_text(&self) -> String {
        fn render(node: &SpanNode, depth: usize, out: &mut String) {
            let dur = node.dur_us.map_or("(open)".to_owned(), |d| fmt_us(d as f64));
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!("{} {dur}\n", node.name));
            for child in &node.children {
                render(child, depth + 1, out);
            }
        }
        let mut out = String::new();
        render(self, 0, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_sibling_order_follow_ordinals() {
        let t = Tracer::new();
        let root = t.start(NO_SPAN, "root", 0);
        // Open children out of ordinal order; the tree must sort them.
        let b = t.start(root, "b", 1);
        let a = t.start(root, "a", 0);
        let leaf = t.start(a, "leaf", 0);
        for span in [leaf, a, b, root] {
            t.end(span);
        }
        let tree = t.tree();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].shape(), "root(a(leaf),b)");
        assert!(tree[0].dur_us.is_some());
    }

    #[test]
    fn tree_is_deterministic_under_concurrent_workers() {
        // Threads record their spans in scheduler order; the ordinal makes
        // the reconstruction identical across runs and thread counts.
        let expected = {
            let t = Tracer::new();
            let root = t.start(NO_SPAN, "root", 0);
            for i in 0..8u64 {
                t.end(t.start(root, "job", i));
            }
            t.end(root);
            t.tree()[0].shape()
        };
        for _ in 0..4 {
            let t = Tracer::new();
            let root = t.start(NO_SPAN, "root", 0);
            let ords: Vec<u64> = (0..8).collect();
            std::thread::scope(|scope| {
                for &i in &ords {
                    let t = &t;
                    scope.spawn(move || {
                        let s = t.start(root, "job", i);
                        t.end(s);
                    });
                }
            });
            t.end(root);
            let tree = t.tree();
            assert_eq!(tree[0].shape(), expected);
            assert_eq!(tree[0].children.len(), 8);
            let ords_seen: Vec<u64> = tree[0].children.iter().map(|c| c.ord).collect();
            assert_eq!(ords_seen, ords);
        }
    }

    #[test]
    fn equal_ordinals_keep_recording_order() {
        let t = Tracer::new();
        let root = t.start(NO_SPAN, "root", 0);
        t.end(t.start(root, "first", 0));
        t.end(t.start(root, "second", 0));
        t.end(root);
        assert_eq!(t.tree()[0].shape(), "root(first,second)");
    }

    #[test]
    fn open_and_no_span_are_harmless() {
        let t = Tracer::new();
        t.end(NO_SPAN);
        let s = t.start(NO_SPAN, "open", 0);
        let text = t.render_text();
        assert!(text.contains("open (open)"), "{text}");
        t.end(s);
        t.end(s); // double close keeps the first duration
        assert!(t.tree()[0].dur_us.is_some());
    }

    #[test]
    fn backdated_spans_are_closed_and_ordered() {
        let t = Tracer::new();
        let root = t.start(NO_SPAN, "request", 0);
        // The wait ended "now" but started before the root opened.
        let wait = t.record_with_duration(root, "queue_wait", 0, 1_000_000);
        t.end(t.start(root, "work", 0));
        t.end(root);
        t.end(wait); // double close keeps the synthesized duration
        let tree = t.tree();
        assert_eq!(tree[0].shape(), "request(queue_wait,work)");
        assert_eq!(tree[0].children[0].dur_us, Some(1_000_000));
    }

    #[test]
    fn json_renders_nested_spans() {
        let t = Tracer::new();
        let root = t.start(NO_SPAN, "root", 0);
        t.end(t.start(root, "kid", 0));
        t.end(root);
        let text = t.to_json();
        assert!(crate::json::is_valid(&text), "{text}");
        assert!(text.contains("\"name\":\"kid\""));
    }
}
