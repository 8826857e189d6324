//! Incremental legality testing: the Figure 5 Δ-query table (§4.2,
//! Theorem 4.2).
//!
//! Given a legal instance `D` and a single subtree update `∆D`, most
//! structural relationships can be re-verified by a **Δ-query** — the
//! Figure 4 translation with each atomic selection re-bound to `∅`, `∆D`,
//! or the whole updated instance:
//!
//! | element | insertion | deletion |
//! |---|---|---|
//! | `ci →ch cj` | yes — all `[∆D]` | **no** — recheck on `D−∆D` |
//! | `ci →pa cj` | yes — source `[∆D]`, target `[D+∆D]` | yes — nothing to check |
//! | `ci →de cj` | yes — all `[∆D]` | **no** — recheck on `D−∆D` |
//! | `ci →an cj` | yes — source `[∆D]`, target `[D+∆D]` | yes — nothing to check |
//! | `ci ↛ch cj` | yes — upper `[D+∆D]`, lower `[∆D]` | yes — nothing to check |
//! | `ci ↛de cj` | yes — upper `[D+∆D]`, lower `[∆D]` | yes — nothing to check |
//! | `◇c` | nothing to check | testable given class counts |
//!
//! The content schema is fully incremental both ways: insertion checks only
//! the new entries; deletion checks nothing (§4.2).
//!
//! [`check_insertions`](IncrementalChecker::check_insertions) and
//! [`check_deletion`](IncrementalChecker::check_deletion) are that table,
//! literally. The served write path runs Figure 5′ instead — see
//! [`scoped`](super::scoped): an insertion's rows answered from ∆D and
//! the ancestor chain of its root
//! ([`check_insertions_scoped`](IncrementalChecker::check_insertions_scoped)),
//! a deletion's two "no" rows re-tested on the deleted subtrees' former
//! parents and their ancestors only
//! ([`check_deletion_scoped`](IncrementalChecker::check_deletion_scoped)) —
//! with the literal table kept as the oracle both are tested against. It
//! runs them on D and the normalised transaction before anything is
//! applied (`check_unapplied`, via [`verdict`](super::verdict)).

use std::borrow::Borrow;

use bschema_directory::{DirectoryInstance, Entry, EntryId};
use bschema_obs::{names, Probe, SpanId, NO_SPAN};
use bschema_query::{evaluate, Binding, EvalContext, Filter, Query};

use super::scoped::{Inserted, Neighbourhood};
use super::transaction::NormalizedTx;
use crate::legality::report::{LegalityReport, Violation};
use crate::legality::{content, translate};
use crate::schema::{ClassId, DirectorySchema, ForbidKind, ForbiddenRel, RelKind, RequiredRel};

/// Figure 5 row label for a required relationship, as used in the
/// `incremental.delta_query.*` / `incremental.scoped.*` /
/// `incremental.recheck.*` counters.
pub(super) fn required_row(kind: RelKind) -> &'static str {
    match kind {
        RelKind::Child => "require_child",
        RelKind::Parent => "require_parent",
        RelKind::Descendant => "require_descendant",
        RelKind::Ancestor => "require_ancestor",
    }
}

/// Figure 5 row label for a forbidden relationship.
pub(super) fn forbidden_row(kind: ForbidKind) -> &'static str {
    match kind {
        ForbidKind::Child => "forbid_child",
        ForbidKind::Descendant => "forbid_descendant",
    }
}

/// Figure 5, required-relationship insertion rows: the Δ-query whose
/// emptiness certifies that inserting the `∆D` subtree preserved `rel`.
pub fn insertion_delta_query(schema: &DirectorySchema, rel: &RequiredRel) -> Query {
    let classes = schema.classes();
    let src = |b: Binding| Query::select_bound(Filter::object_class(classes.name(rel.source)), b);
    let tgt = |b: Binding| Query::select_bound(Filter::object_class(classes.name(rel.target)), b);
    match rel.kind {
        // New entries' children/descendants all lie inside ∆D.
        RelKind::Child => {
            src(Binding::Delta).minus(src(Binding::Delta).with_child(tgt(Binding::Delta)))
        }
        RelKind::Descendant => {
            src(Binding::Delta).minus(src(Binding::Delta).with_descendant(tgt(Binding::Delta)))
        }
        // New entries' parents/ancestors may lie outside ∆D.
        RelKind::Parent => {
            src(Binding::Delta).minus(src(Binding::Delta).with_parent(tgt(Binding::Whole)))
        }
        RelKind::Ancestor => {
            src(Binding::Delta).minus(src(Binding::Delta).with_ancestor(tgt(Binding::Whole)))
        }
    }
}

/// Figure 5, forbidden-relationship insertion rows: every newly created
/// (upper, lower) pair has its lower end inside `∆D`.
pub fn insertion_delta_query_forbidden(schema: &DirectorySchema, rel: &ForbiddenRel) -> Query {
    let classes = schema.classes();
    let upper = Query::select_bound(Filter::object_class(classes.name(rel.upper)), Binding::Whole);
    let lower = Query::select_bound(Filter::object_class(classes.name(rel.lower)), Binding::Delta);
    match rel.kind {
        crate::schema::ForbidKind::Child => upper.with_child(lower),
        crate::schema::ForbidKind::Descendant => upper.with_descendant(lower),
    }
}

/// Figure 5, deletion column for required relationships: `true` for the
/// child/descendant rows, which are **not** incrementally testable and
/// require a full recheck on `D − ∆D`.
pub fn deletion_needs_recheck(kind: RelKind) -> bool {
    matches!(kind, RelKind::Child | RelKind::Descendant)
}

/// The incremental checker for subtree insertions and deletions —
/// single-subtree ([`check_insertion`](Self::check_insertion)) or batched
/// multi-subtree ([`check_insertions`](Self::check_insertions)). Each
/// column assumes the instance before the update legal; Figure 5′'s
/// scoped columns also take one that is legal but possibly for `◇c`,
/// which they count for every required class.
#[derive(Debug, Clone)]
pub struct IncrementalChecker<'s> {
    schema: &'s DirectorySchema,
    probe: &'s dyn Probe,
}

/// One structure-schema row of the insertion column, checked once per
/// inserted subtree.
#[derive(Clone, Copy)]
enum Row<'s> {
    Required(&'s RequiredRel),
    Forbidden(&'s ForbiddenRel),
}

impl<'s> IncrementalChecker<'s> {
    /// A checker for `schema`.
    pub fn new(schema: &'s DirectorySchema) -> Self {
        IncrementalChecker { schema, probe: bschema_obs::noop() }
    }

    /// Attaches an instrumentation probe (spans + Figure 5 row counters).
    /// Checking behaviour and reports are unchanged.
    pub fn with_probe(mut self, probe: &'s dyn Probe) -> Self {
        self.probe = probe;
        self
    }

    /// Evaluates the Figure 5 insertion Δ-queries for every (delta root,
    /// structure element) pair, appending witnesses as violations in
    /// root-major, required-before-forbidden order. Each Δ-query runs
    /// under a child span of `parent` named by its Figure 5 row, ordered
    /// by its position in that order.
    fn structure_delta_violations(
        &self,
        dir: &DirectoryInstance,
        roots: &[EntryId],
        parent: SpanId,
        out: &mut Vec<Violation>,
    ) {
        let probe = self.probe;
        let classes = self.schema.classes();
        let mut ordinal = 0;
        for &root in roots {
            let ctx = EvalContext::with_delta(dir, root).with_probe(probe);
            for row in self.rows() {
                let label = match row {
                    Row::Required(rel) => required_row(rel.kind),
                    Row::Forbidden(rel) => forbidden_row(rel.kind),
                };
                probe.add_labeled(names::DELTA_QUERY, label, 1);
                let span = probe.span_start(parent, label, ordinal);
                ordinal += 1;
                match row {
                    Row::Required(rel) => {
                        let q = insertion_delta_query(self.schema, rel);
                        for witness in evaluate(&ctx, &q) {
                            out.push(Violation::RequiredRelViolation {
                                entry: witness,
                                source: classes.name(rel.source).to_owned(),
                                kind: rel.kind,
                                target: classes.name(rel.target).to_owned(),
                            });
                        }
                    }
                    Row::Forbidden(rel) => {
                        let q = insertion_delta_query_forbidden(self.schema, rel);
                        for witness in evaluate(&ctx, &q) {
                            out.push(Violation::ForbiddenRelViolation {
                                entry: witness,
                                upper: classes.name(rel.upper).to_owned(),
                                kind: rel.kind,
                                lower: classes.name(rel.lower).to_owned(),
                            });
                        }
                    }
                }
                probe.span_end(span);
            }
        }
    }

    /// The structure rows an insertion is checked against, in report
    /// order: required rows, then forbidden, each in schema order.
    fn rows(&self) -> impl Iterator<Item = Row<'s>> + 's {
        let structure = self.schema.structure();
        let required = structure.required_rels().iter().map(Row::Required);
        required.chain(structure.forbidden_rels().iter().map(Row::Forbidden))
    }

    /// Checks that inserting the subtree rooted at `delta_root` preserved
    /// legality. `dir` is the instance **after** the insertion, prepared;
    /// `D` (the instance before) is assumed legal.
    ///
    /// Cost: O(per-entry content cost · |∆D| + Σ_rel |Δ-query inputs|) —
    /// for the all-`[∆D]` rows this is independent of |D|.
    pub fn check_insertion(&self, dir: &DirectoryInstance, delta_root: EntryId) -> LegalityReport {
        self.check_insertions(dir, &[delta_root])
    }

    /// Batched variant of [`check_insertion`](Self::check_insertion) for
    /// multi-subtree transactions: checks that inserting **all** of the
    /// subtrees rooted at `delta_roots` preserved legality. `dir` is the
    /// instance **after** every insertion, prepared; the instance before is
    /// assumed legal.
    ///
    /// Inserted subtrees are pairwise disjoint and non-nested (they hang
    /// off pre-existing entries), so no subtree can satisfy another's
    /// required relationships or create a forbidden pair spanning two
    /// deltas — each root's Figure 5 Δ-queries are independent, and the
    /// whole batch runs as one wave. The report equals the union of
    /// per-root [`check_insertion`] reports against the final instance.
    ///
    /// This is Figure 5 as printed — four of its rows join ∆D against a
    /// whole-instance posting list — and the oracle
    /// [`check_insertions_scoped`](Self::check_insertions_scoped) answers to.
    pub fn check_insertions(
        &self,
        dir: &DirectoryInstance,
        delta_roots: &[EntryId],
    ) -> LegalityReport {
        let near = self.inserted(dir, delta_roots);
        self.insertion_column(&near, |out| keys(self.schema, dir, delta_roots, out), Some(dir))
    }

    /// Figure 5′: what [`check_insertions`](Self::check_insertions)
    /// checks, with the same report — same violations, same order — in
    /// O(|∆D| · |rows| + depth) instead of joins against whole posting
    /// lists: content and keys as there, the structure rows answered from
    /// ∆D and the ancestor chain of each delta root
    /// ([`scoped`](super::scoped)). What the oracle
    /// [`apply_and_check_probed`](super::apply_and_check_probed) runs;
    /// every certify runs the same column on D and ∆D before it is
    /// applied ([`verdict`](super::verdict)).
    pub fn check_insertions_scoped(
        &self,
        dir: &DirectoryInstance,
        delta_roots: &[EntryId],
    ) -> LegalityReport {
        let near = self.inserted(dir, delta_roots);
        self.insertion_column(&near, |out| keys(self.schema, dir, delta_roots, out), None)
    }

    /// The neighbourhoods of the subtrees rooted at `delta_roots` in the
    /// prepared instance `dir`.
    fn inserted<'d>(&self, dir: &'d DirectoryInstance, delta_roots: &[EntryId]) -> Vec<Inserted<'d>>
    where
        's: 'd,
    {
        delta_roots.iter().map(|&root| Inserted::new(self.schema, dir, root)).collect()
    }

    /// The insertion column over the subtrees `near`: content of ∆D, its
    /// keys (appended by `keys`), then the structure rows — Figure 5′ on
    /// `near`, or Figure 5's Δ-queries on the instance after the
    /// insertions when it is given.
    fn insertion_column(
        &self,
        near: &[Inserted<'_>],
        keys: impl FnOnce(&mut Vec<Violation>),
        figure5: Option<&DirectoryInstance>,
    ) -> LegalityReport {
        let probe = self.probe;
        let root_span = probe.span_start(NO_SPAN, "incremental.check_insertions", 0);
        let mut out = Vec::new();
        // Content schema: only the new entries need checking (§4.2), in
        // root-major document order.
        let span = probe.span_start(root_span, "content_delta", 0);
        let mut checked = 0;
        for (id, entry) in near.iter().flat_map(Inserted::entries) {
            content::check_entry(self.schema, id, entry, &mut out);
            checked += 1;
        }
        if probe.enabled() {
            probe.add("legality.entries_content_checked", checked);
        }
        probe.span_end(span);

        // Keys (§6.1): only the new entries' values can clash.
        let span = probe.span_start(root_span, "keys", 1);
        keys(&mut out);
        probe.span_end(span);

        // Structure schema, per inserted subtree. Required classes `◇c`
        // cannot be violated by an insertion.
        match figure5 {
            None => {
                let span = probe.span_start(root_span, "structure_scoped", 2);
                for near in near {
                    for row in self.rows() {
                        match row {
                            Row::Required(rel) => near.required(rel, &mut out),
                            Row::Forbidden(rel) => near.forbidden(rel, &mut out),
                        }
                    }
                }
                probe.span_end(span);
            }
            Some(dir) => {
                let roots: Vec<EntryId> =
                    near.iter().filter_map(|s| s.entries().next().map(|(id, _)| id)).collect();
                let span = probe.span_start(root_span, "structure_delta", 2);
                self.structure_delta_violations(dir, &roots, span, &mut out);
                probe.span_end(span);
            }
        }

        probe.span_end(root_span);
        LegalityReport::from_violations(out)
    }

    /// Figure 5′ on (D, ∆D): the report [`check_insertions_scoped`] and
    /// [`check_deletion_scoped`] give the instance `tx` makes of the
    /// prepared `dir` — insertion column, then deletion column — read
    /// from `dir` and `tx` alone, nothing applied. A new entry is named by
    /// the id its apply will take ([`DirectoryInstance::next_ids`]).
    ///
    /// `dir` is legal but possibly for `◇c`, so `◇c` is counted for every
    /// TXN: first in the deletion column, or after the insertion column
    /// when nothing is deleted. Either way the report names the
    /// violations a full §3 check of the updated instance finds — but for
    /// keys (§6.1), which are read in Theorem 4.1's order, after the
    /// insertions and before the deletions.
    ///
    /// [`check_insertions_scoped`]: Self::check_insertions_scoped
    /// [`check_deletion_scoped`]: Self::check_deletion_scoped
    pub(super) fn check_unapplied(
        &self,
        dir: &DirectoryInstance,
        tx: &NormalizedTx,
    ) -> LegalityReport {
        let mut ids = dir.next_ids(tx.inserted());
        let near: Vec<Inserted<'_>> = tx
            .insertions
            .iter()
            .map(|subtree| {
                let ids: Vec<EntryId> = ids.by_ref().take(subtree.len()).collect();
                Inserted::detached(self.schema, dir, subtree, &ids)
            })
            .collect();
        let mut report = LegalityReport::legal();
        if !near.is_empty() {
            let keys = |out: &mut Vec<Violation>| unapplied_keys(self.schema, dir, &near, out);
            report.extend(self.insertion_column(&near, keys, None));
        }
        let forest = dir.forest();
        let gone: Vec<&Entry> = tx
            .deletion_roots
            .iter()
            .flat_map(|&root| std::iter::once(root).chain(forest.descendants(root)))
            .map(|id| dir.entry(id).expect("deletion roots are live"))
            .collect();
        let pending = Neighbourhood::new(self.schema, dir, self.probe).pending(
            &tx.deletion_roots,
            &gone,
            &near,
        );
        if tx.deletion_roots.is_empty() {
            let mut out = Vec::new();
            pending.emptied(&mut out);
            report.extend(LegalityReport::from_violations(out));
        } else {
            let former_parents: Vec<Option<EntryId>> =
                tx.deletion_roots.iter().map(|&root| forest.parent(root)).collect();
            report.extend(self.deletion_column(pending, &gone, &former_parents));
        }
        report
    }

    /// Figure 5′: checks that deleting subtrees preserved legality, in
    /// O(depth · log|D|) instead of [`check_deletion`](Self::check_deletion)'s
    /// O(|D|), with the same report. `dir` is the instance **after** the
    /// deletions, prepared; `removed` holds the deleted entries;
    /// `former_parents` the entry each deleted subtree hung under (`None`
    /// for a forest root); the instance before is assumed legal.
    ///
    /// `◇c` is the count test of §4.2, asked of every required class. A
    /// required child / descendant row is re-tested only if a removed
    /// entry carried its target class, and only at the former parents
    /// (child) and their ancestors (descendant) — nobody else had a
    /// removed entry below them.
    pub fn check_deletion_scoped(
        &self,
        dir: &DirectoryInstance,
        removed: &[impl Borrow<Entry>],
        former_parents: &[Option<EntryId>],
    ) -> LegalityReport {
        let removed: Vec<&Entry> = removed.iter().map(Borrow::borrow).collect();
        let near = Neighbourhood::new(self.schema, dir, self.probe);
        self.deletion_column(near, &removed, former_parents)
    }

    /// The deletion column of Figure 5′, asked of `near`: `◇c` by the
    /// counts, for every required class, then the required child /
    /// descendant rows at `former_parents` and up, for the classes the
    /// `removed` entries carried.
    fn deletion_column(
        &self,
        near: Neighbourhood<'_>,
        removed: &[&Entry],
        former_parents: &[Option<EntryId>],
    ) -> LegalityReport {
        let probe = self.probe;
        let root_span = probe.span_start(NO_SPAN, "incremental.check_deletion_scoped", 0);
        let mut out = Vec::new();
        let classes = self.schema.classes();
        let lost = |class: ClassId| removed.iter().any(|e| e.has_class(classes.name(class)));
        near.emptied(&mut out);
        near.starved(former_parents, lost, &mut out);
        near.finish();
        probe.span_end(root_span);
        LegalityReport::from_violations(out)
    }

    /// Checks that deleting a subtree preserved legality. `dir` is the
    /// instance **after** the deletion, prepared; `removed` holds the
    /// deleted entries (used for the count-based `◇c` test); the instance
    /// before is assumed legal.
    ///
    /// Per Figure 5, only the child/descendant required rows and `◇c` can
    /// break, so content, parent/ancestor required, and all forbidden
    /// elements are skipped outright. This is the paper's table as
    /// printed — the two "no" rows cost O(|D|) — and the oracle
    /// [`check_deletion_scoped`](Self::check_deletion_scoped) answers to.
    pub fn check_deletion(
        &self,
        dir: &DirectoryInstance,
        removed: &[impl Borrow<Entry>],
    ) -> LegalityReport {
        let probe = self.probe;
        let root_span = probe.span_start(NO_SPAN, "incremental.check_deletion", 0);
        let mut out = Vec::new();
        let ctx = EvalContext::new(dir).with_probe(probe);
        let classes = self.schema.classes();

        // `◇c` with counts (§4.2): only classes that lost members can have
        // become empty, and the index answers emptiness in O(1).
        for class in self.schema.structure().required_classes() {
            let name = classes.name(class);
            let lost_member = removed.iter().any(|e| e.borrow().has_class(name));
            if lost_member && dir.index().class_count(name) == 0 {
                out.push(Violation::MissingRequiredClass { class: name.to_owned() });
            }
        }

        // The non-incrementally-testable rows: full recheck on D − ∆D.
        for rel in self.schema.structure().required_rels() {
            if !deletion_needs_recheck(rel.kind) {
                continue;
            }
            if probe.enabled() {
                probe.add_labeled("incremental.recheck", required_row(rel.kind), 1);
            }
            let query = translate::required_rel_query(self.schema, rel);
            for witness in evaluate(&ctx, &query) {
                out.push(Violation::RequiredRelViolation {
                    entry: witness,
                    source: classes.name(rel.source).to_owned(),
                    kind: rel.kind,
                    target: classes.name(rel.target).to_owned(),
                });
            }
        }

        probe.span_end(root_span);
        LegalityReport::from_violations(out)
    }
}

/// Keys (§6.1) of the subtrees rooted at `delta_roots` in the instance
/// `dir` after their insertion.
fn keys(
    schema: &DirectorySchema,
    dir: &DirectoryInstance,
    delta_roots: &[EntryId],
    out: &mut Vec<Violation>,
) {
    for &root in delta_roots {
        crate::legality::keys::check_insertion(schema, dir, root, out);
    }
}

/// Where an entry sits in the document order of the instance a
/// transaction's insertions make: `(pre, 0, 0, 0)` for an entry of D;
/// `(end(p), u64::MAX − h, k, j)` for the `j`-th entry, in preorder, of
/// the `k`-th subtree, hung under `p` with `h` entries on the chain above
/// it (a new root's: `u64::MAX` for both).
type Place = (u64, u64, usize, usize);

/// Keys (§6.1) of the subtrees `near` of a transaction not applied to
/// `dir` yet, subtree after subtree. Each of the others' entries is placed
/// in the document order of the instance the insertions make: a subtree
/// joins its parent as the last child, so it follows the parent's last
/// descendant in `dir` — ahead of a subtree joining that entry's ancestor
/// there, behind an earlier one joining the same parent — and a new root
/// follows everything.
fn unapplied_keys(
    schema: &DirectorySchema,
    dir: &DirectoryInstance,
    near: &[Inserted<'_>],
    out: &mut Vec<Violation>,
) {
    if schema.attributes().unique_attributes().next().is_none() {
        return;
    }
    let forest = dir.forest();
    let placed: Vec<(Place, EntryId, &Entry)> = near
        .iter()
        .enumerate()
        .flat_map(|(k, s)| {
            let (end, h) = s.parent().map_or((u64::MAX, 0), |p| (forest.end(p), s.height()));
            let after = u64::MAX - h as u64;
            s.entries().enumerate().map(move |(j, (id, entry))| ((end, after, k, j), id, entry))
        })
        .collect();
    for (k, s) in near.iter().enumerate() {
        let delta: Vec<(EntryId, &Entry)> = s.entries().collect();
        let others: Vec<_> = placed.iter().filter(|(at, _, _)| at.2 != k).copied().collect();
        let place = |id: EntryId| -> Place { (forest.pre(id), 0, 0, 0) };
        crate::legality::keys::check_unapplied(schema, dir, &delta, &others, place, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legality::LegalityChecker;
    use crate::paper::{white_pages_instance, white_pages_schema};
    use bschema_directory::Entry;

    fn researcher(uid: &str) -> Entry {
        Entry::builder()
            .classes(["researcher", "person", "top"])
            .attr("uid", uid)
            .attr("name", uid)
            .build()
    }

    #[test]
    fn legal_insertion_passes() {
        let schema = white_pages_schema();
        let (mut dir, ids) = white_pages_instance();
        let new = dir.add_child_entry(ids.databases, researcher("milo")).unwrap();
        dir.prepare();
        let report = IncrementalChecker::new(&schema).check_insertion(&dir, new);
        assert!(report.is_legal(), "{report}");
        // Agreement with full recheck.
        assert!(LegalityChecker::new(&schema).check(&dir).is_legal());
    }

    #[test]
    fn section_4_2_illegal_insertion_is_caught() {
        // §4.2: new orgUnit under suciu, plus persons under it — violates
        // orgUnit →pa orgGroup and person ↛ch top; "neither of these
        // violations can be detected by solely examining ∆D" (they need the
        // Whole bindings).
        let schema = white_pages_schema();
        let (mut dir, ids) = white_pages_instance();
        let bad_unit = dir
            .add_child_entry(
                ids.suciu,
                Entry::builder().classes(["orgUnit", "orgGroup", "top"]).attr("ou", "oops").build(),
            )
            .unwrap();
        dir.add_child_entry(bad_unit, researcher("p1")).unwrap();
        dir.prepare();
        let report = IncrementalChecker::new(&schema).check_insertion(&dir, bad_unit);
        assert!(!report.is_legal());
        // orgUnit →pa orgGroup caught (source ∆D, target Whole).
        assert!(report.violations().iter().any(|v| matches!(
            v,
            Violation::RequiredRelViolation { entry, source, kind: RelKind::Parent, .. }
                if *entry == bad_unit && source == "orgUnit"
        )));
        // person ↛ch top caught at suciu (upper Whole, lower ∆D).
        assert!(report.violations().iter().any(|v| matches!(
            v,
            Violation::ForbiddenRelViolation { entry, upper, .. }
                if *entry == ids.suciu && upper == "person"
        )));
        // Incremental verdict matches the full recheck.
        assert_eq!(report.is_legal(), LegalityChecker::new(&schema).check(&dir).is_legal());
    }

    #[test]
    fn insertion_content_violation_is_caught() {
        let schema = white_pages_schema();
        let (mut dir, ids) = white_pages_instance();
        // Person missing its required name.
        let new = dir
            .add_child_entry(
                ids.databases,
                Entry::builder().classes(["person", "top"]).attr("uid", "anon").build(),
            )
            .unwrap();
        dir.prepare();
        let report = IncrementalChecker::new(&schema).check_insertion(&dir, new);
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::MissingRequiredAttribute { .. })));
    }

    #[test]
    fn legal_deletion_passes() {
        let schema = white_pages_schema();
        let (mut dir, ids) = white_pages_instance();
        let removed: Vec<_> =
            dir.remove_subtree(ids.armstrong).unwrap().into_iter().map(|(_, e)| e).collect();
        dir.prepare();
        let report = IncrementalChecker::new(&schema).check_deletion(&dir, &removed);
        assert!(report.is_legal(), "{report}");
        assert!(LegalityChecker::new(&schema).check(&dir).is_legal());
    }

    #[test]
    fn deletion_breaking_required_descendant_is_caught() {
        // §4.2: "Deletion could, however, violate orgGroup ⇒⇒ person".
        // Deleting both researchers leaves `databases` with no person
        // descendant.
        let schema = white_pages_schema();
        let (mut dir, ids) = white_pages_instance();
        let mut removed = Vec::new();
        for id in [ids.laks, ids.suciu] {
            removed.push(dir.remove_leaf(id).unwrap());
        }
        dir.prepare();
        let report = IncrementalChecker::new(&schema).check_deletion(&dir, &removed);
        assert!(report.violations().iter().any(|v| matches!(
            v,
            Violation::RequiredRelViolation { entry, source, kind: RelKind::Descendant, .. }
                if *entry == ids.databases && source == "orgGroup"
        )));
        assert_eq!(report.is_legal(), LegalityChecker::new(&schema).check(&dir).is_legal());
    }

    #[test]
    fn deletion_breaking_required_class_uses_counts() {
        let schema = white_pages_schema();
        let (mut dir, ids) = white_pages_instance();
        // Delete every person: ◇person becomes violated.
        let mut removed = Vec::new();
        for id in [ids.armstrong, ids.laks, ids.suciu] {
            removed.push(dir.remove_leaf(id).unwrap());
        }
        dir.prepare();
        let report = IncrementalChecker::new(&schema).check_deletion(&dir, &removed);
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::MissingRequiredClass { class } if class == "person")));
    }

    #[test]
    fn figure5_insertion_queries_render_with_bindings() {
        let schema = white_pages_schema();
        let rel = schema.structure().required_rels()[0]; // orgGroup →de person
        let q = insertion_delta_query(&schema, &rel);
        assert_eq!(
            q.to_string(),
            "(σ? (objectClass=orgGroup)[ΔD] (σd (objectClass=orgGroup)[ΔD] (objectClass=person)[ΔD]))"
        );
        let parent_rel = RequiredRel {
            source: schema.classes().resolve("orgUnit").unwrap(),
            kind: RelKind::Parent,
            target: schema.classes().resolve("orgGroup").unwrap(),
        };
        let q = insertion_delta_query(&schema, &parent_rel);
        assert_eq!(
            q.to_string(),
            "(σ? (objectClass=orgUnit)[ΔD] (σp (objectClass=orgUnit)[ΔD] (objectClass=orgGroup)))"
        );
    }

    #[test]
    fn figure5_deletion_column() {
        assert!(deletion_needs_recheck(RelKind::Child));
        assert!(deletion_needs_recheck(RelKind::Descendant));
        assert!(!deletion_needs_recheck(RelKind::Parent));
        assert!(!deletion_needs_recheck(RelKind::Ancestor));
    }
}
