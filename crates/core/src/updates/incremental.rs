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
//! [`check_deletion`](IncrementalChecker::check_deletion) is that table,
//! literally. The served write path runs Figure 5′ instead
//! ([`check_deletion_scoped`](IncrementalChecker::check_deletion_scoped)):
//! the two "no" rows re-tested on the deleted subtrees' former parents
//! and their ancestors only — see [`scoped`](super::scoped) — with the
//! literal recheck kept as the oracle it is tested against.

use bschema_directory::{DirectoryInstance, Entry, EntryId};
use bschema_obs::{Probe, SpanId, NO_SPAN};
use bschema_query::{evaluate, Binding, EvalContext, Filter, Query};

use super::scoped::Neighbourhood;
use crate::legality::report::{LegalityReport, Violation};
use crate::legality::{content, fan_out, translate};
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

/// The incremental checker for subtree updates — single-subtree
/// ([`check_insertion`](Self::check_insertion)) or batched multi-subtree
/// ([`check_insertions`](Self::check_insertions)).
#[derive(Debug, Clone)]
pub struct IncrementalChecker<'s> {
    schema: &'s DirectorySchema,
    validate_values: bool,
    probe: &'s dyn Probe,
}

/// One Δ-query evaluation unit of a batched insertion check: a delta root
/// paired with a structure-schema element. Units are independent, so a
/// multi-subtree transaction fans them all out at once.
enum DeltaJob<'s> {
    Required(EntryId, &'s RequiredRel),
    Forbidden(EntryId, &'s ForbiddenRel),
}

impl<'s> IncrementalChecker<'s> {
    /// A checker for `schema`.
    pub fn new(schema: &'s DirectorySchema) -> Self {
        IncrementalChecker { schema, validate_values: false, probe: bschema_obs::noop() }
    }

    /// Attaches an instrumentation probe (spans + Figure 5 row counters).
    /// Checking behaviour and reports are unchanged.
    pub fn with_probe(mut self, probe: &'s dyn Probe) -> Self {
        self.probe = probe;
        self
    }

    /// Also validate value syntaxes of inserted entries.
    pub fn with_value_validation(mut self, on: bool) -> Self {
        self.validate_values = on;
        self
    }

    /// Evaluates the Figure 5 insertion Δ-queries for every (delta root,
    /// structure element) pair on `workers` workers, appending witnesses
    /// as violations in root-major, required-before-forbidden order — the
    /// order per-root loops produce.
    fn structure_delta_violations(
        &self,
        dir: &DirectoryInstance,
        roots: &[EntryId],
        workers: usize,
        parent: SpanId,
        out: &mut Vec<Violation>,
    ) {
        let probe = self.probe;
        let structure = self.schema.structure();
        let mut jobs: Vec<DeltaJob<'s>> = Vec::with_capacity(
            roots.len() * (structure.required_rels().len() + structure.forbidden_rels().len()),
        );
        // Count Δ-queries per Figure 5 row here, at job construction on
        // the caller's thread, so the counters are deterministic no
        // matter how the jobs are chunked over workers.
        for &root in roots {
            for rel in structure.required_rels() {
                if probe.enabled() {
                    probe.add_labeled("incremental.delta_query", required_row(rel.kind), 1);
                }
                jobs.push(DeltaJob::Required(root, rel));
            }
            for rel in structure.forbidden_rels() {
                if probe.enabled() {
                    probe.add_labeled("incremental.delta_query", forbidden_row(rel.kind), 1);
                }
                jobs.push(DeltaJob::Forbidden(root, rel));
            }
        }
        let classes = self.schema.classes();
        out.extend(fan_out(&jobs, workers, probe, parent, |span, chunk, local| {
            // One child span per Δ-query, named by its Figure 5 row
            // and ordered by in-chunk position, so a request trace
            // attributes time to individual rows deterministically.
            for (j, job) in chunk.iter().enumerate() {
                match *job {
                    DeltaJob::Required(root, rel) => {
                        let row = probe.span_start(span, required_row(rel.kind), j as u64);
                        let ctx = EvalContext::with_delta(dir, root).with_probe(probe);
                        let q = insertion_delta_query(self.schema, rel);
                        for witness in evaluate(&ctx, &q) {
                            local.push(Violation::RequiredRelViolation {
                                entry: witness,
                                source: classes.name(rel.source).to_owned(),
                                kind: rel.kind,
                                target: classes.name(rel.target).to_owned(),
                            });
                        }
                        probe.span_end(row);
                    }
                    DeltaJob::Forbidden(root, rel) => {
                        let row = probe.span_start(span, forbidden_row(rel.kind), j as u64);
                        let ctx = EvalContext::with_delta(dir, root).with_probe(probe);
                        let q = insertion_delta_query_forbidden(self.schema, rel);
                        for witness in evaluate(&ctx, &q) {
                            local.push(Violation::ForbiddenRelViolation {
                                entry: witness,
                                upper: classes.name(rel.upper).to_owned(),
                                kind: rel.kind,
                                lower: classes.name(rel.lower).to_owned(),
                            });
                        }
                        probe.span_end(row);
                    }
                }
            }
        }));
    }

    /// Content-schema check of the `∆D` entries on `workers` workers.
    fn content_delta_violations(
        &self,
        dir: &DirectoryInstance,
        entries: &[EntryId],
        workers: usize,
        parent: SpanId,
        out: &mut Vec<Violation>,
    ) {
        let probe = self.probe;
        out.extend(fan_out(entries, workers, probe, parent, |_, chunk, local| {
            for &id in chunk {
                let entry = dir.entry(id).expect("delta entries are live");
                content::check_entry(self.schema, id, entry, local);
                if self.validate_values {
                    if let Err(e) = dir.validate_entry_values(id) {
                        local.push(Violation::ValueViolation { entry: id, message: e.to_string() });
                    }
                }
            }
            if probe.enabled() {
                probe.add("legality.entries_content_checked", chunk.len() as u64);
            }
        }));
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
    /// whole batch runs as one wave on
    /// [`workers_for(|∆D|)`](bschema_parallel::workers_for) workers: inline
    /// for a served write, fanned out for a bulk load. The report equals
    /// the union of per-root [`check_insertion`] reports against the final
    /// instance.
    pub fn check_insertions(
        &self,
        dir: &DirectoryInstance,
        delta_roots: &[EntryId],
    ) -> LegalityReport {
        let probe = self.probe;
        let root_span = probe.span_start(NO_SPAN, "incremental.check_insertions", 0);
        let mut out = Vec::new();
        // ∆D, in root-major document order; its size decides the fan-out
        // of both waves below.
        let forest = dir.forest();
        let delta: Vec<EntryId> = delta_roots
            .iter()
            .flat_map(|&r| std::iter::once(r).chain(forest.descendants(r)))
            .collect();
        let workers = bschema_parallel::workers_for(delta.len());

        // Content schema: only the new entries need checking (§4.2).
        let span = probe.span_start(root_span, "content_delta", 0);
        self.content_delta_violations(dir, &delta, workers, span, &mut out);
        probe.span_end(span);

        // Keys (§6.1): only the new entries' values can clash.
        let span = probe.span_start(root_span, "keys", 1);
        for &root in delta_roots {
            crate::legality::keys::check_insertion(self.schema, dir, root, &mut out);
        }
        probe.span_end(span);

        // Structure schema: Figure 5 insertion Δ-queries per delta root.
        // Required classes `◇c` cannot be violated by an insertion.
        let span = probe.span_start(root_span, "structure_delta", 2);
        self.structure_delta_violations(dir, delta_roots, workers, span, &mut out);
        probe.span_end(span);

        probe.span_end(root_span);
        LegalityReport::from_violations(out)
    }

    /// Checks that **moving** a subtree (LDAP ModifyDN) preserved legality.
    /// `dir` is the instance **after** the move, prepared, with the subtree
    /// now rooted at `moved_root`; `former_parent` is the entry it hung
    /// under before (`None`: it was a forest root); the instance before is
    /// assumed legal.
    ///
    /// A move is a deletion at the old location plus an insertion of the
    /// same subtree at the new one, so the check is the union of both
    /// columns — minus what a move can never change: entry content is
    /// untouched, and per-class counts are preserved so `◇c` cannot
    /// break.
    pub fn check_move(
        &self,
        dir: &DirectoryInstance,
        moved_root: EntryId,
        former_parent: Option<EntryId>,
    ) -> LegalityReport {
        let probe = self.probe;
        let root_span = probe.span_start(NO_SPAN, "incremental.check_move", 0);
        let mut out = Vec::new();

        // Insertion half: the Figure 5 Δ-queries at the new location.
        let workers = bschema_parallel::workers_for(dir.forest().subtree_size(moved_root));
        let span = probe.span_start(root_span, "structure_delta", 0);
        self.structure_delta_violations(dir, &[moved_root], workers, span, &mut out);
        probe.span_end(span);

        // Deletion half, Figure 5′: only the old parent and its ancestors
        // had the subtree below them, so only they can miss a child /
        // descendant that moved away. They all lie outside ∆D.
        let span = probe.span_start(root_span, "scoped", 1);
        let near = Neighbourhood::new(self.schema, dir, probe);
        let moved_away = |class: ClassId| {
            near.carries(moved_root, class)
                || near.has_relative(moved_root, RelKind::Descendant, class)
        };
        near.starved(&[former_parent], moved_away, &mut out);
        near.finish();
        probe.span_end(span);

        probe.span_end(root_span);
        LegalityReport::from_violations(out).normalized()
    }

    /// Figure 5′: checks that deleting subtrees preserved legality, in
    /// O(depth · log|D|) instead of [`check_deletion`](Self::check_deletion)'s
    /// O(|D|), with the same report. `dir` is the instance **after** the
    /// deletions, prepared; `removed` holds the deleted entries;
    /// `former_parents` the entry each deleted subtree hung under (`None`
    /// for a forest root); the instance before is assumed legal.
    ///
    /// `◇c` is the count test of §4.2. A required child / descendant row
    /// is re-tested only if a removed entry carried its target class, and
    /// only at the former parents (child) and their ancestors
    /// (descendant) — nobody else had a removed entry below them.
    pub fn check_deletion_scoped(
        &self,
        dir: &DirectoryInstance,
        removed: &[Entry],
        former_parents: &[Option<EntryId>],
    ) -> LegalityReport {
        let probe = self.probe;
        let root_span = probe.span_start(NO_SPAN, "incremental.check_deletion_scoped", 0);
        let mut out = Vec::new();
        let classes = self.schema.classes();
        let lost = |class: ClassId| removed.iter().any(|e| e.has_class(classes.name(class)));
        let near = Neighbourhood::new(self.schema, dir, probe);
        near.emptied(lost, &mut out);
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
    pub fn check_deletion(&self, dir: &DirectoryInstance, removed: &[Entry]) -> LegalityReport {
        let probe = self.probe;
        let root_span = probe.span_start(NO_SPAN, "incremental.check_deletion", 0);
        let mut out = Vec::new();
        let ctx = EvalContext::new(dir).with_probe(probe);
        let classes = self.schema.classes();

        // `◇c` with counts (§4.2): only classes that lost members can have
        // become empty, and the index answers emptiness in O(1).
        for class in self.schema.structure().required_classes() {
            let name = classes.name(class);
            let lost_member = removed.iter().any(|e| e.has_class(name));
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
        let removed: Vec<Entry> =
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
    fn move_check_matches_full_recheck() {
        let schema = white_pages_schema();
        let checker = IncrementalChecker::new(&schema);
        let full = LegalityChecker::new(&schema);
        // Legal move: databases under att.
        let (mut dir, ids) = white_pages_instance();
        let from = dir.forest().parent(ids.databases);
        dir.move_subtree(ids.databases, ids.att).unwrap();
        dir.prepare();
        let inc = checker.check_move(&dir, ids.databases, from);
        assert_eq!(inc.is_legal(), full.check(&dir).is_legal());
        assert!(inc.is_legal(), "{inc}");

        // Illegal move: databases under armstrong (a person gains a child;
        // attLabs keeps its person descendants through armstrong itself).
        let (mut dir, ids) = white_pages_instance();
        dir.move_subtree(ids.databases, ids.armstrong).unwrap();
        dir.prepare();
        let inc = checker.check_move(&dir, ids.databases, from);
        assert_eq!(inc.is_legal(), full.check(&dir).is_legal());
        assert!(!inc.is_legal());
        assert!(inc.violations().iter().any(|v| matches!(
            v,
            Violation::ForbiddenRelViolation { entry, .. } if *entry == ids.armstrong
        )));

        // Illegal move where only an OUTSIDE entry breaks: move armstrong
        // under databases — attLabs keeps its person descendants via
        // databases... so instead delete-side: move the whole databases
        // subtree to the root; attLabs still has armstrong (fine), but the
        // moved orgUnit loses its organization ancestor.
        let (mut dir, ids) = white_pages_instance();
        dir.move_subtree_to_root(ids.databases).unwrap();
        dir.prepare();
        let inc = checker.check_move(&dir, ids.databases, from);
        assert_eq!(inc.is_legal(), full.check(&dir).is_legal());
        assert!(!inc.is_legal());
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
