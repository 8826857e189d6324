//! Figure 5′: the witness tests behind every scoped check.
//!
//! Figure 5 re-evaluates `ci →ch cj` and `ci →de cj` over all of D − ∆D
//! after a deletion. It does not have to: taking a subtree out from under
//! `p` changes the child set of `p` and the descendant sets of `p` and
//! its ancestors, and of no other entry — so only they can have lost a
//! witness. The same locality bounds what a move (a deletion at the old
//! parent) and a class change at one entry can alter. Each test below
//! asks one entry whether it still has a relative of one class; the
//! descendant test is a binary search on the class's label-sorted posting
//! list followed by one comparison against the entry's exact `end`, and
//! a walk up the ancestors ends at the first that passes it.
//! DESIGN.md §4 states the theorem.

use std::cell::Cell;
use std::collections::HashSet;

use bschema_directory::{DirectoryInstance, EntryId};
use bschema_obs::Probe;

use super::incremental::{forbidden_row, required_row};
use crate::legality::report::Violation;
use crate::schema::{ClassId, DirectorySchema, ForbidKind, ForbiddenRel, RelKind, RequiredRel};

/// The witness tests of one scoped check over a prepared instance.
/// Single-threaded by construction: the work is O(depth · log|D|) at
/// worst, there is nothing to fan out.
pub(super) struct Neighbourhood<'a> {
    schema: &'a DirectorySchema,
    dir: &'a DirectoryInstance,
    probe: &'a dyn Probe,
    /// Chain entries, children and posting-list members looked at.
    examined: Cell<u64>,
}

impl<'a> Neighbourhood<'a> {
    pub(super) fn new(
        schema: &'a DirectorySchema,
        dir: &'a DirectoryInstance,
        probe: &'a dyn Probe,
    ) -> Self {
        Neighbourhood { schema, dir, probe, examined: Cell::new(0) }
    }

    fn examine(&self, entries: usize) {
        self.examined.set(self.examined.get() + entries as u64);
    }

    /// Whether the live entry `id` belongs to `class`.
    pub(super) fn carries(&self, id: EntryId, class: ClassId) -> bool {
        self.examine(1);
        let name = self.schema.classes().name(class);
        self.dir.entry(id).is_some_and(|entry| entry.has_class(name))
    }

    /// The `class` entries labelled after `e`, in label order: the tail
    /// of the posting list past `pre(e)`, one binary search away.
    fn after(&self, e: EntryId, class: ClassId) -> &'a [EntryId] {
        let forest = self.dir.forest();
        let list = self.dir.index().entries_with_class(self.schema.classes().name(class));
        &list[list.partition_point(|&x| forest.pre(x) <= forest.pre(e))..]
    }

    /// The `class` entries properly below `e`, in label order: the run of
    /// the posting list inside `(pre(e), end(e)]`.
    pub(super) fn below(&self, e: EntryId, class: ClassId) -> &'a [EntryId] {
        let forest = self.dir.forest();
        let tail = self.after(e, class);
        let run = &tail[..tail.partition_point(|&x| forest.pre(x) <= forest.end(e))];
        self.examine(run.len());
        run
    }

    /// Whether `e` has a `kind`-relative in `class`. A child is found by
    /// walking `e`'s child list to the first witness — O(fan-out), and
    /// the reason no per-entry witness counts are kept; a descendant by
    /// one binary search and one comparison.
    pub(super) fn has_relative(&self, e: EntryId, kind: RelKind, class: ClassId) -> bool {
        let forest = self.dir.forest();
        match kind {
            RelKind::Child => forest.children(e).any(|c| self.carries(c, class)),
            RelKind::Parent => forest.parent(e).is_some_and(|p| self.carries(p, class)),
            RelKind::Ancestor => forest.ancestors(e).any(|a| self.carries(a, class)),
            RelKind::Descendant => {
                self.examine(1);
                self.after(e, class).first().is_some_and(|&x| forest.pre(x) <= forest.end(e))
            }
        }
    }

    /// One test of a required row: whether `e` has the relative `rel`
    /// asks for.
    fn served(&self, e: EntryId, rel: &RequiredRel) -> bool {
        if self.probe.enabled() {
            self.probe.add_labeled("incremental.scoped", required_row(rel.kind), 1);
        }
        self.has_relative(e, rel.kind, rel.target)
    }

    fn unmet(&self, e: EntryId, rel: &RequiredRel) -> Violation {
        let classes = self.schema.classes();
        Violation::RequiredRelViolation {
            entry: e,
            source: classes.name(rel.source).to_owned(),
            kind: rel.kind,
            target: classes.name(rel.target).to_owned(),
        }
    }

    /// Appends the violation of `rel` at `e` unless `e` has the relative
    /// `rel` asks of it. `e` carries `rel.source`.
    pub(super) fn require(&self, e: EntryId, rel: &RequiredRel, out: &mut Vec<Violation>) {
        if !self.served(e, rel) {
            out.push(self.unmet(e, rel));
        }
    }

    /// Appends the violation of `rel` at `upper` if it has a relative in
    /// `rel.lower`. `upper` carries `rel.upper`.
    pub(super) fn forbid(&self, upper: EntryId, rel: &ForbiddenRel, out: &mut Vec<Violation>) {
        if self.probe.enabled() {
            self.probe.add_labeled("incremental.scoped", forbidden_row(rel.kind), 1);
        }
        let kind = match rel.kind {
            ForbidKind::Child => RelKind::Child,
            ForbidKind::Descendant => RelKind::Descendant,
        };
        if self.has_relative(upper, kind, rel.lower) {
            let classes = self.schema.classes();
            out.push(Violation::ForbiddenRelViolation {
                entry: upper,
                upper: classes.name(rel.upper).to_owned(),
                kind: rel.kind,
                lower: classes.name(rel.lower).to_owned(),
            });
        }
    }

    /// `◇c` by the class counts of §4.2: only a class that `lost` a member
    /// can have become empty, and the index answers emptiness in O(1).
    pub(super) fn emptied(&self, lost: impl Fn(ClassId) -> bool, out: &mut Vec<Violation>) {
        for class in self.schema.structure().required_classes() {
            let name = self.schema.classes().name(class);
            if lost(class) && self.dir.index().class_count(name) == 0 {
                out.push(Violation::MissingRequiredClass { class: name.to_owned() });
            }
        }
    }

    /// The deletion column of Figure 5′. Subtrees left from under
    /// `former_parents` (`None`: a forest root, above which nobody is);
    /// `lost(c)` says whether a `c` entry left with them. Only a required
    /// child row at a former parent, or a required descendant row at a
    /// former parent or one of its ancestors, can have lost its witness.
    /// Those are re-tested going up, each entry once however many
    /// subtrees shared it, and no further than the first that still has
    /// a witness below it — everyone above has that one too. Reported row
    /// by row in label order, the order the whole-instance query of
    /// Figure 5 reports them in.
    pub(super) fn starved(
        &self,
        former_parents: &[Option<EntryId>],
        lost: impl Fn(ClassId) -> bool,
        out: &mut Vec<Violation>,
    ) {
        let forest = self.dir.forest();
        let rows = self.schema.structure().required_rels().iter().filter(|rel| {
            matches!(rel.kind, RelKind::Child | RelKind::Descendant) && lost(rel.target)
        });
        for rel in rows {
            let mut walked = HashSet::new();
            let mut found = Vec::new();
            for p in former_parents.iter().flatten().copied() {
                if rel.kind == RelKind::Child {
                    if walked.insert(p) && self.carries(p, rel.source) && !self.served(p, rel) {
                        found.push(p);
                    }
                    continue;
                }
                for a in std::iter::once(p).chain(forest.ancestors(p)) {
                    if !walked.insert(a) || self.served(a, rel) {
                        break;
                    }
                    if self.carries(a, rel.source) {
                        found.push(a);
                    }
                }
            }
            found.sort_unstable_by_key(|&a| forest.pre(a));
            out.extend(found.into_iter().map(|a| self.unmet(a, rel)));
        }
    }

    /// Reports the entries this check examined as
    /// `incremental.scoped_entries` — its work, to set against |∆D|.
    pub(super) fn finish(self) {
        if self.probe.enabled() {
            self.probe.add("incremental.scoped_entries", self.examined.get());
        }
    }
}
