//! The efficient evaluator: interval merge joins over preorder-sorted lists.
//!
//! Every operator runs in time linear in its input lists (plus, for
//! child/parent selection, one bitmap over the entry arena), so a query `Q`
//! evaluates in O(|Q|·|D|) — the bound §3.2 inherits from reference [9] and
//! that Theorem 3.1's legality test builds on.

use std::borrow::Cow;

use bschema_directory::{Entry, EntryId, Forest};

use super::explain::access;
use super::EvalContext;
use crate::algebra::{Binding, Query};
use crate::filter::Filter;
use crate::result;

/// Evaluates `query`, returning matching entries sorted by preorder rank.
pub fn evaluate(ctx: &EvalContext<'_>, query: &Query) -> Vec<EntryId> {
    let result = eval_cow(ctx, query).into_owned();
    let probe = ctx.probe();
    if probe.enabled() {
        probe.add("query.evaluated", 1);
        probe.observe("query.result_size", result.len() as u64);
    }
    result
}

/// Core evaluator. Atomic indexable selections borrow the instance's
/// sorted-entry index slices directly (`Cow::Borrowed`) instead of
/// re-deriving an owned copy per query, so the index built once by
/// [`prepare`](bschema_directory::DirectoryInstance::prepare) is shared
/// across every query evaluated against the instance — the operators
/// only ever read `&[EntryId]`.
pub(crate) fn eval_cow<'a>(ctx: &EvalContext<'a>, query: &Query) -> Cow<'a, [EntryId]> {
    let forest = ctx.instance().forest();
    match query {
        Query::Select { filter, binding } => eval_select(ctx, filter, *binding),
        Query::Child(a, b) => {
            let (r1, r2) = (eval_cow(ctx, a), eval_cow(ctx, b));
            Cow::Owned(child_select(forest, &r1, &r2))
        }
        Query::Parent(a, b) => {
            let (r1, r2) = (eval_cow(ctx, a), eval_cow(ctx, b));
            Cow::Owned(parent_select(forest, &r1, &r2))
        }
        Query::Descendant(a, b) => {
            let (r1, r2) = (eval_cow(ctx, a), eval_cow(ctx, b));
            Cow::Owned(descendant_select(forest, &r1, &r2))
        }
        Query::Ancestor(a, b) => {
            let (r1, r2) = (eval_cow(ctx, a), eval_cow(ctx, b));
            Cow::Owned(ancestor_select(forest, &r1, &r2))
        }
        Query::Minus(a, b) => {
            let (r1, r2) = (eval_cow(ctx, a), eval_cow(ctx, b));
            Cow::Owned(result::minus(forest, &r1, &r2))
        }
        Query::Union(a, b) => {
            let (r1, r2) = (eval_cow(ctx, a), eval_cow(ctx, b));
            Cow::Owned(result::union(forest, &r1, &r2))
        }
        Query::Intersect(a, b) => {
            let (r1, r2) = (eval_cow(ctx, a), eval_cow(ctx, b));
            Cow::Owned(result::intersect(forest, &r1, &r2))
        }
    }
}

/// Atomic selection: route through the class / presence indexes when the
/// filter shape allows, otherwise scan; then apply the Figure 5 binding.
fn eval_select<'a>(ctx: &EvalContext<'a>, filter: &Filter, binding: Binding) -> Cow<'a, [EntryId]> {
    if binding == Binding::Empty {
        return Cow::Owned(Vec::new());
    }
    let base = eval_filter_whole(ctx, filter);
    match binding {
        Binding::Whole => base,
        Binding::Delta => {
            let root =
                ctx.delta().expect("Binding::Delta requires an EvalContext with a delta subtree");
            Cow::Owned(result::restrict_to_subtree(ctx.instance().forest(), &base, root))
        }
        Binding::Empty => unreachable!("handled above"),
    }
}

/// [`select_whole`] for the evaluator: the result, with the access path
/// counted on the context's probe.
fn eval_filter_whole<'a>(ctx: &EvalContext<'a>, filter: &Filter) -> Cow<'a, [EntryId]> {
    let (result, path, _) = select_whole(ctx, filter);
    let probe = ctx.probe();
    if probe.enabled() {
        match path {
            // Answered or seeded from the prepared preorder index (built
            // once, shared `Cow::Borrowed`-style across queries).
            access::INDEX_REUSED | access::INDEX_SEEDED => probe.add("query.index_reused", 1),
            access::SCAN => probe.add("query.index_scan", 1),
            _ => {}
        }
    }
    result
}

/// Resolves an atomic selection over the whole instance along the
/// cheapest access path the index offers, and says which it took: the
/// result, the [`access`] constant, and how many entries it examined.
/// The one place access paths are chosen — `evaluate` and `explain` both
/// run it, so a plan never describes a path the evaluator does not take.
pub(crate) fn select_whole<'a>(
    ctx: &EvalContext<'a>,
    filter: &Filter,
) -> (Cow<'a, [EntryId]>, &'static str, usize) {
    let dir = ctx.instance();
    let index = dir.index();
    let reused = |list: &'a [EntryId]| (Cow::Borrowed(list), access::INDEX_REUSED, list.len());
    // Post-filters a candidate list that is known to contain every match.
    let narrowed = |list: &'a [EntryId], path, keep: &dyn Fn(&Entry) -> bool| {
        let kept = list
            .iter()
            .copied()
            .filter(|&id| keep(dir.entry(id).expect("indexed entries are live")));
        (Cow::Owned(kept.collect()), path, list.len())
    };
    let matches = |entry: &Entry| filter.matches(entry, dir.registry());
    match filter {
        Filter::True => reused(index.all_entries()),
        Filter::False => (Cow::Owned(Vec::new()), access::EMPTY, 0),
        Filter::Present(attr) => reused(index.entries_with_attribute(attr)),
        Filter::Equality(attr, value) => {
            if let Some(class) = filter.as_object_class() {
                return reused(index.entries_with_class(class));
            }
            if let Some(hits) = index.entries_with_value(attr, value) {
                return reused(hits);
            }
            // No equality postings: only entries holding the attribute
            // can match, and the needle is normalized once for all of them.
            let syntax = dir.registry().syntax_of(attr);
            let needle = syntax.normalize(value);
            narrowed(index.entries_with_attribute(attr), access::INDEX_SEEDED, &|entry| {
                entry.values(attr).iter().any(|v| syntax.matches_normalized(v, &needle))
            })
        }
        Filter::And(subs) => {
            // Seed from the most selective indexable conjunct, then
            // post-filter with the rest.
            let seed = subs
                .iter()
                .filter_map(|f| {
                    f.as_object_class().map(|c| index.entries_with_class(c)).or_else(|| match f {
                        Filter::Present(a) => Some(index.entries_with_attribute(a)),
                        _ => None,
                    })
                })
                .min_by_key(|list| list.len());
            match seed {
                Some(list) => narrowed(list, access::INDEX_SEEDED, &matches),
                None => narrowed(index.all_entries(), access::SCAN, &matches),
            }
        }
        _ => narrowed(index.all_entries(), access::SCAN, &matches),
    }
}

/// `(σc r1 r2)`: members of `r1` with at least one child in `r2`.
/// O(|r1| + |r2|) plus a bitmap over the arena.
pub(crate) fn child_select(forest: &Forest, r1: &[EntryId], r2: &[EntryId]) -> Vec<EntryId> {
    let mut has_child_in_r2 = vec![false; forest.slot_bound()];
    for &e2 in r2 {
        if let Some(p) = forest.parent(e2) {
            has_child_in_r2[p.index()] = true;
        }
    }
    r1.iter().copied().filter(|e1| has_child_in_r2[e1.index()]).collect()
}

/// `(σp r1 r2)`: members of `r1` whose parent is in `r2`.
pub(crate) fn parent_select(forest: &Forest, r1: &[EntryId], r2: &[EntryId]) -> Vec<EntryId> {
    let mut in_r2 = vec![false; forest.slot_bound()];
    for &e2 in r2 {
        in_r2[e2.index()] = true;
    }
    r1.iter().copied().filter(|&e1| forest.parent(e1).is_some_and(|p| in_r2[p.index()])).collect()
}

/// `(σd r1 r2)`: members of `r1` with at least one **proper** descendant in
/// `r2`. Stack-based interval merge: both lists are preorder-sorted; each
/// `r1` node is pushed while open and marked the moment an `r2` node falls
/// inside its interval. O(|r1| + |r2|) plus a bitmap.
pub(crate) fn descendant_select(forest: &Forest, r1: &[EntryId], r2: &[EntryId]) -> Vec<EntryId> {
    if r1.is_empty() || r2.is_empty() {
        return Vec::new();
    }
    let mut marked = vec![false; forest.slot_bound()];
    let mut stack: Vec<EntryId> = Vec::new();
    let mut i = 0;
    for &e2 in r2 {
        let p2 = forest.pre(e2);
        // Open every r1 interval starting before e2.
        while i < r1.len() && forest.pre(r1[i]) < p2 {
            let x = r1[i];
            while stack.last().is_some_and(|&top| forest.end(top) < forest.pre(x)) {
                stack.pop();
            }
            stack.push(x);
            i += 1;
        }
        // Close intervals ending before e2.
        while stack.last().is_some_and(|&top| forest.end(top) < p2) {
            stack.pop();
        }
        // Every remaining interval opened strictly before e2 and ends at or
        // after it, hence properly contains it: mark and drain (marking is
        // idempotent, so draining keeps the pass linear).
        for x in stack.drain(..) {
            marked[x.index()] = true;
        }
    }
    r1.iter().copied().filter(|e1| marked[e1.index()]).collect()
}

/// `(σa r1 r2)`: members of `r1` with at least one **proper** ancestor in
/// `r2`. Symmetric stack merge over open `r2` intervals. O(|r1| + |r2|).
pub(crate) fn ancestor_select(forest: &Forest, r1: &[EntryId], r2: &[EntryId]) -> Vec<EntryId> {
    if r1.is_empty() || r2.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut stack: Vec<EntryId> = Vec::new();
    let mut j = 0;
    for &e1 in r1 {
        let p1 = forest.pre(e1);
        // Open every r2 interval starting strictly before e1.
        while j < r2.len() && forest.pre(r2[j]) < p1 {
            let x = r2[j];
            while stack.last().is_some_and(|&top| forest.end(top) < forest.pre(x)) {
                stack.pop();
            }
            stack.push(x);
            j += 1;
        }
        // Close intervals ending before e1.
        while stack.last().is_some_and(|&top| forest.end(top) < p1) {
            stack.pop();
        }
        if !stack.is_empty() {
            out.push(e1);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bschema_directory::Forest;

    /// Two-root forest:
    /// r1 ── a ── b        r2 ── c
    ///        └─ d
    fn forest() -> (Forest, [EntryId; 6]) {
        let mut f = Forest::new();
        let r1 = f.add_root();
        let a = f.add_child(r1).unwrap();
        let b = f.add_child(a).unwrap();
        let d = f.add_child(a).unwrap();
        let r2 = f.add_root();
        let c = f.add_child(r2).unwrap();
        f.ensure_numbered();
        (f, [r1, a, b, d, r2, c])
    }

    #[test]
    fn descendant_select_marks_all_open_ancestors() {
        let (f, [r1, a, b, d, r2, c]) = forest();
        // Who (among everyone) has b as a descendant? r1 and a.
        let all: Vec<EntryId> = f.iter().collect();
        assert_eq!(descendant_select(&f, &all, &[b]), [r1, a]);
        // Multiple targets across roots.
        assert_eq!(descendant_select(&f, &all, &[d, c]), [r1, a, r2]);
        // Proper: b has no descendant in {b}.
        assert_eq!(descendant_select(&f, &[b], &[b]), []);
    }

    #[test]
    fn ancestor_select_checks_open_stack() {
        let (f, [r1, a, b, d, r2, c]) = forest();
        let all: Vec<EntryId> = f.iter().collect();
        assert_eq!(ancestor_select(&f, &all, &[a]), [b, d]);
        assert_eq!(ancestor_select(&f, &all, &[r1, r2]), [a, b, d, c]);
        // Proper: a is not its own ancestor.
        assert_eq!(ancestor_select(&f, &[a], &[a]), []);
    }

    #[test]
    fn child_and_parent_select() {
        let (f, [r1, a, b, d, r2, c]) = forest();
        let all: Vec<EntryId> = f.iter().collect();
        assert_eq!(child_select(&f, &all, &[b, d]), [a]);
        assert_eq!(child_select(&f, &all, &[a, c]), [r1, r2]);
        assert_eq!(parent_select(&f, &all, &[a]), [b, d]);
        assert_eq!(parent_select(&f, &[b], &[r1]), []);
    }

    #[test]
    fn empty_inputs() {
        let (f, _) = forest();
        let all: Vec<EntryId> = f.iter().collect();
        assert_eq!(descendant_select(&f, &[], &all), []);
        assert_eq!(descendant_select(&f, &all, &[]), []);
        assert_eq!(ancestor_select(&f, &[], &all), []);
        assert_eq!(ancestor_select(&f, &all, &[]), []);
    }
}
