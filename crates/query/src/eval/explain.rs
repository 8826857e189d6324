//! EXPLAIN: evaluate a query while recording its evaluation plan.
//!
//! The paper's efficiency argument (§3.2, Theorem 3.1) is about *how*
//! a Figure 4 query is evaluated, not just what it returns: atomic
//! selections reuse the preorder index built once by
//! [`prepare`](bschema_directory::DirectoryInstance::prepare), the
//! hierarchical operators are linear merges over the candidate lists,
//! and the whole query costs O(|Q|·|D|). [`explain`] makes that
//! concrete for one query on one instance: it runs the interval
//! evaluator's own access-path choice and merge operators step for step
//! and returns both the (identical) result and
//! an [`ExplainNode`] tree recording, per step, the access path taken
//! (index reused, index-seeded scan, or full scan), the candidate-set
//! sizes flowing in, and entries scanned vs. matched.

use std::borrow::Cow;

use bschema_directory::{EntryId, Forest};
use bschema_obs::json;

use super::interval::{
    ancestor_select, child_select, descendant_select, parent_select, select_whole,
};
use super::EvalContext;
use crate::algebra::{Binding, Query};
use crate::filter::Filter;
use crate::result;

/// How one plan step touched the instance.
///
/// The values mirror the evaluator's three atomic access paths plus the
/// two merge families; [`ExplainNode::access`] carries them as stable
/// strings so text and JSON renderings can be pinned by tests.
pub mod access {
    /// Answered directly from a prepared index slice (shared borrow).
    pub const INDEX_REUSED: &str = "index-reused";
    /// Seeded from the most selective index slice, then post-filtered.
    pub const INDEX_SEEDED: &str = "index-seeded";
    /// Full scan over every live entry.
    pub const SCAN: &str = "scan";
    /// Statically empty (`Filter::False` or a `[∅]` binding).
    pub const EMPTY: &str = "empty";
    /// Child/parent selection: one bitmap over the arena + a filter pass.
    pub const BITMAP_MERGE: &str = "bitmap-merge";
    /// Descendant/ancestor selection: stack-based interval merge.
    pub const INTERVAL_MERGE: &str = "interval-merge";
    /// Minus/union/intersect over preorder-sorted lists.
    pub const LIST_MERGE: &str = "list-merge";
}

/// One step of an evaluation plan.
#[derive(Debug, Clone)]
pub struct ExplainNode {
    /// Operator label: the atomic filter (with binding) for leaves, the
    /// paper's operator glyph (`σc`, `σd`, ...) for internal nodes.
    pub op: String,
    /// Access path taken — one of the [`access`] constants.
    pub access: &'static str,
    /// Candidate-set sizes flowing into this step (child result sizes;
    /// empty for leaves).
    pub candidates: Vec<usize>,
    /// Entries this step examined: the index-slice / seed / scan length
    /// for leaves, the sum of candidate list lengths for merges.
    pub scanned: usize,
    /// Entries this step produced.
    pub matched: usize,
    /// Sub-plans, in operand order.
    pub children: Vec<ExplainNode>,
}

impl ExplainNode {
    /// Sum of `scanned` over this node and all descendants.
    pub fn scanned_total(&self) -> usize {
        self.scanned + self.children.iter().map(ExplainNode::scanned_total).sum::<usize>()
    }

    /// Renders this step (and its sub-plans) as indented text lines.
    fn render_into(&self, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(&self.op);
        out.push_str(&format!(" [{}]", self.access));
        if !self.candidates.is_empty() {
            let sizes: Vec<String> = self.candidates.iter().map(usize::to_string).collect();
            out.push_str(&format!(" candidates={}", sizes.join("+")));
        }
        out.push_str(&format!(" scanned={} matched={}\n", self.scanned, self.matched));
        for child in &self.children {
            child.render_into(depth + 1, out);
        }
    }

    /// Renders the step as one JSON object.
    pub fn to_json(&self) -> String {
        let candidates: Vec<String> = self.candidates.iter().map(usize::to_string).collect();
        let mut out = format!(
            "{{\"op\":{},\"access\":{},\"candidates\":[{}],\"scanned\":{},\"matched\":{},\"children\":[",
            json::escape(&self.op),
            json::escape(self.access),
            candidates.join(","),
            self.scanned,
            self.matched,
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
}

/// A query's result together with the plan that produced it.
#[derive(Debug, Clone)]
pub struct Explain {
    /// Paper-style rendering of the explained query.
    pub query: String,
    /// The result list — identical to what [`evaluate`](super::evaluate)
    /// returns for the same context and query.
    pub result: Vec<EntryId>,
    /// The recorded plan, rooted at the query's outermost operator.
    pub plan: ExplainNode,
}

impl Explain {
    /// Total entries scanned across every plan step.
    pub fn scanned(&self) -> usize {
        self.plan.scanned_total()
    }

    /// Result size.
    pub fn matched(&self) -> usize {
        self.result.len()
    }

    /// Renders the plan as indented text, one line per step, with a
    /// query header and a totals footer.
    pub fn render_text(&self) -> String {
        let mut out = format!("Q: {}\n", self.query);
        self.plan.render_into(0, &mut out);
        out.push_str(&format!("total scanned={} matched={}\n", self.scanned(), self.matched()));
        out
    }

    /// Renders the whole report as one JSON object:
    /// `{"query":...,"scanned":N,"matched":N,"plan":{...}}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"query\":{},\"scanned\":{},\"matched\":{},\"plan\":{}}}",
            json::escape(&self.query),
            self.scanned(),
            self.matched(),
            self.plan.to_json()
        )
    }
}

/// Evaluates `query` exactly as [`evaluate`](super::evaluate) would,
/// additionally recording the evaluation plan. The result list is
/// byte-identical to the plain evaluator's; no probe counters are
/// emitted (EXPLAIN is a diagnostic read, not a measured workload).
pub fn explain(ctx: &EvalContext<'_>, query: &Query) -> Explain {
    let (result, plan) = explain_query(ctx, query);
    Explain { query: query.to_string(), result: result.into_owned(), plan }
}

fn explain_query<'a>(ctx: &EvalContext<'a>, query: &Query) -> (Cow<'a, [EntryId]>, ExplainNode) {
    let forest = ctx.instance().forest();
    match query {
        Query::Select { filter, binding } => explain_select(ctx, filter, *binding),
        Query::Child(a, b) => binary(ctx, "σc", access::BITMAP_MERGE, a, b, child_select),
        Query::Parent(a, b) => binary(ctx, "σp", access::BITMAP_MERGE, a, b, parent_select),
        Query::Descendant(a, b) => {
            binary(ctx, "σd", access::INTERVAL_MERGE, a, b, descendant_select)
        }
        Query::Ancestor(a, b) => binary(ctx, "σa", access::INTERVAL_MERGE, a, b, ancestor_select),
        Query::Minus(a, b) => {
            binary(ctx, "σ?", access::LIST_MERGE, a, b, |_, r1, r2| result::minus(forest, r1, r2))
        }
        Query::Union(a, b) => binary(ctx, "σ∪", access::LIST_MERGE, a, b, |_, r1, r2| {
            result::union(forest, r1, r2)
        }),
        Query::Intersect(a, b) => binary(ctx, "σ∩", access::LIST_MERGE, a, b, |_, r1, r2| {
            result::intersect(forest, r1, r2)
        }),
    }
}

fn binary<'a>(
    ctx: &EvalContext<'a>,
    op: &str,
    access: &'static str,
    a: &Query,
    b: &Query,
    merge: impl Fn(&Forest, &[EntryId], &[EntryId]) -> Vec<EntryId>,
) -> (Cow<'a, [EntryId]>, ExplainNode) {
    let (r1, n1) = explain_query(ctx, a);
    let (r2, n2) = explain_query(ctx, b);
    let out = merge(ctx.instance().forest(), &r1, &r2);
    let node = ExplainNode {
        op: op.to_owned(),
        access,
        candidates: vec![r1.len(), r2.len()],
        scanned: r1.len() + r2.len(),
        matched: out.len(),
        children: vec![n1, n2],
    };
    (Cow::Owned(out), node)
}

/// Mirrors `eval_select`: resolve the filter through the evaluator's own
/// access-path choice, then apply the Figure 5 binding.
fn explain_select<'a>(
    ctx: &EvalContext<'a>,
    filter: &Filter,
    binding: Binding,
) -> (Cow<'a, [EntryId]>, ExplainNode) {
    let op = format!("{filter}{binding}");
    let leaf = |access, scanned, matched| ExplainNode {
        op: op.clone(),
        access,
        candidates: Vec::new(),
        scanned,
        matched,
        children: Vec::new(),
    };
    if binding == Binding::Empty {
        return (Cow::Owned(Vec::new()), leaf(access::EMPTY, 0, 0));
    }
    let (base, access, scanned) = select_whole(ctx, filter);
    let result = match binding {
        Binding::Whole => base,
        Binding::Delta => {
            let root =
                ctx.delta().expect("Binding::Delta requires an EvalContext with a delta subtree");
            Cow::Owned(result::restrict_to_subtree(ctx.instance().forest(), &base, root))
        }
        Binding::Empty => unreachable!("handled above"),
    };
    let node = leaf(access, scanned, result.len());
    (result, node)
}

#[cfg(test)]
mod tests {
    use super::super::tests::figure1;
    use super::super::{evaluate, EvalContext};
    use super::*;

    fn q1() -> Query {
        Query::object_class("orgGroup")
            .minus(Query::object_class("orgGroup").with_descendant(Query::object_class("person")))
    }

    /// The explain evaluator is a faithful mirror: same results as
    /// `evaluate` on the whole differential battery.
    #[test]
    fn explain_result_matches_evaluate() {
        let (d, [_, _, _, db, ..]) = figure1();
        let whole = EvalContext::new(&d);
        let delta = EvalContext::with_delta(&d, db);
        let queries = [
            Query::object_class("person"),
            Query::object_class("nonexistent"),
            q1(),
            Query::object_class("person").with_parent(Query::object_class("orgUnit")),
            Query::object_class("orgUnit").with_child(Query::object_class("person")),
            Query::object_class("person").with_ancestor(Query::object_class("organization")),
            Query::select(Filter::present("mail")),
            Query::select(Filter::object_class("person").and(Filter::present("mail"))),
            Query::object_class("person").intersect(Query::object_class("online")),
            Query::object_class("orgUnit").union(Query::object_class("organization")),
            Query::select_bound(Filter::True, Binding::Empty),
        ];
        for q in &queries {
            assert_eq!(explain(&whole, q).result, evaluate(&whole, q), "query {q}");
        }
        let q = Query::select_bound(Filter::object_class("person"), Binding::Delta);
        assert_eq!(explain(&delta, &q).result, evaluate(&delta, &q));
    }

    #[test]
    fn plan_records_access_paths_and_counts() {
        let (d, _) = figure1();
        let ctx = EvalContext::new(&d);
        let report = explain(&ctx, &q1());
        // Q1 is empty on the legal Figure 1 instance.
        assert_eq!(report.matched(), 0);
        let plan = &report.plan;
        assert_eq!(plan.op, "σ?");
        assert_eq!(plan.access, access::LIST_MERGE);
        assert_eq!(plan.candidates, [3, 3]);
        assert_eq!((plan.scanned, plan.matched), (6, 0));
        // Left leaf: (objectClass=orgGroup) straight off the class index.
        let left = &plan.children[0];
        assert_eq!(left.access, access::INDEX_REUSED);
        assert_eq!((left.scanned, left.matched), (3, 3));
        // Right: σd over two index-reused leaves.
        let right = &plan.children[1];
        assert_eq!(right.access, access::INTERVAL_MERGE);
        assert_eq!((right.scanned, right.matched), (6, 3));
        assert_eq!(report.scanned(), 3 + 3 + 3 + 6 + 6);
    }

    #[test]
    fn seeded_and_scan_paths_are_distinguished() {
        let (d, _) = figure1();
        let ctx = EvalContext::new(&d);
        // person(3) ∧ mail-present(1): seeded from the smaller slice.
        let seeded = explain(
            &ctx,
            &Query::select(Filter::object_class("person").and(Filter::present("mail"))),
        );
        assert_eq!(seeded.plan.access, access::INDEX_SEEDED);
        assert_eq!((seeded.plan.scanned, seeded.plan.matched), (1, 1));
        // Equality on a single-valued attribute is answered from its
        // postings: what is scanned is what is hit.
        let keyed = explain(&ctx, &Query::select(Filter::eq("uid", "LAKS")));
        assert_eq!(keyed.plan.access, access::INDEX_REUSED);
        assert_eq!((keyed.plan.scanned, keyed.plan.matched), (1, 1));
        // On any other attribute it tests the entries that hold one.
        let held = explain(&ctx, &Query::select(Filter::eq("location", "fp")));
        assert_eq!(held.plan.access, access::INDEX_SEEDED);
        assert_eq!((held.plan.scanned, held.plan.matched), (1, 1));
        // A filter with no indexable shape reads every entry.
        let scanned = explain(&ctx, &Query::select(Filter::eq("uid", "laks").not()));
        assert_eq!(scanned.plan.access, access::SCAN);
        assert_eq!((scanned.plan.scanned, scanned.plan.matched), (6, 5));
    }

    #[test]
    fn text_rendering_is_pinned() {
        let (d, _) = figure1();
        let ctx = EvalContext::new(&d);
        let text = explain(&ctx, &q1()).render_text();
        let expected = "\
Q: (σ? (objectClass=orgGroup) (σd (objectClass=orgGroup) (objectClass=person)))
σ? [list-merge] candidates=3+3 scanned=6 matched=0
  (objectClass=orgGroup) [index-reused] scanned=3 matched=3
  σd [interval-merge] candidates=3+3 scanned=6 matched=3
    (objectClass=orgGroup) [index-reused] scanned=3 matched=3
    (objectClass=person) [index-reused] scanned=3 matched=3
total scanned=21 matched=0
";
        assert_eq!(text, expected);
    }

    #[test]
    fn json_is_valid_and_carries_the_plan() {
        let (d, _) = figure1();
        let ctx = EvalContext::new(&d);
        let text = explain(&ctx, &q1()).to_json();
        assert!(json::is_valid(&text), "invalid JSON: {text}");
        assert!(text.starts_with("{\"query\":"), "{text}");
        assert!(text.contains("\"scanned\":21,\"matched\":0"), "{text}");
        assert!(text.contains("\"access\":\"interval-merge\""), "{text}");
        assert!(!text.contains('\n'));
    }
}
