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
//!
//! An insertion needs no index at all: every relative a new entry has is
//! either in ∆D or on the ancestor chain of ∆D's root, so the insertion
//! column ([`Inserted`]) reads that chain once and ∆D once per row.
//! DESIGN.md §4 states both theorems.
//!
//! Neither column needs the instance the update makes. [`Inserted`] reads
//! ∆D as applied or detached — the normalised subtree and the ids its
//! apply will take — and a [`Neighbourhood`] over D told what a pending
//! transaction removes and inserts ([`pending`](Neighbourhood::pending))
//! answers every witness test as the updated instance would.

use std::cell::Cell;
use std::collections::HashSet;

use bschema_directory::{DirectoryInstance, Entry, EntryId, Postings};
use bschema_obs::Probe;

use super::incremental::{forbidden_row, required_row};
use super::transaction::SubtreeInsertion;
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
    /// `[pre, end]` of each subtree a pending transaction deletes, in
    /// label order; empty when `dir` is the instance after the update.
    removed: Vec<(u64, u64)>,
    /// The entries those subtrees hold.
    gone: &'a [&'a Entry],
    /// The subtrees a pending transaction inserts.
    inserted: &'a [Inserted<'a>],
}

impl<'a> Neighbourhood<'a> {
    pub(super) fn new(
        schema: &'a DirectorySchema,
        dir: &'a DirectoryInstance,
        probe: &'a dyn Probe,
    ) -> Self {
        let (removed, gone, inserted) = (Vec::new(), &[][..], &[][..]);
        Neighbourhood { schema, dir, probe, examined: Cell::new(0), removed, gone, inserted }
    }

    /// The same tests asked of the instance a transaction not applied to
    /// `dir` yet would make: one that deletes the subtrees of
    /// `deletion_roots`, holding the entries `gone`, and inserts
    /// `inserted`. Only entries that survive it may be asked about.
    pub(super) fn pending(
        mut self,
        deletion_roots: &[EntryId],
        gone: &'a [&'a Entry],
        inserted: &'a [Inserted<'a>],
    ) -> Self {
        let forest = self.dir.forest();
        self.removed = deletion_roots.iter().map(|&r| (forest.pre(r), forest.end(r))).collect();
        self.removed.sort_unstable();
        self.gone = gone;
        self.inserted = inserted;
        self
    }

    /// The `end` of the deleted subtree the entry labelled `label` lies
    /// in, if it lies in one.
    fn removed_through(&self, label: u64) -> Option<u64> {
        let after = self.removed.partition_point(|&(pre, _)| pre <= label);
        let (_, end) = *self.removed.get(after.checked_sub(1)?)?;
        (label <= end).then_some(end)
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

    /// The posting list of `class`.
    fn members(&self, class: ClassId) -> Postings<'a> {
        self.dir.index().entries_with_class(self.schema.classes().name(class))
    }

    /// The `class` entries properly below `e`, in label order: the run of
    /// the posting list inside `(pre(e), end(e)]`, found by one binary
    /// search over its chunks and one inside a chunk.
    pub(super) fn below(&self, e: EntryId, class: ClassId) -> Vec<EntryId> {
        let forest = self.dir.forest();
        let run: Vec<EntryId> =
            self.members(class).between(forest, forest.pre(e), forest.end(e)).collect();
        self.examine(run.len());
        run
    }

    /// Whether `e` has a `kind`-relative in `class`. A child is found by
    /// walking `e`'s child list to the first witness — O(fan-out), and
    /// the reason no per-entry witness counts are kept; a descendant by
    /// one binary search and one comparison. A pending deletion's members
    /// are stepped over, one binary search per deleted subtree in the
    /// way; a pending insertion's are read off its class flags.
    pub(super) fn has_relative(&self, e: EntryId, kind: RelKind, class: ClassId) -> bool {
        let forest = self.dir.forest();
        match kind {
            RelKind::Child => {
                forest.children(e).any(|c| {
                    self.removed_through(forest.pre(c)).is_none() && self.carries(c, class)
                }) || self.inserted.iter().any(|s| s.parent() == Some(e) && s.has(0, class))
            }
            RelKind::Parent => forest.parent(e).is_some_and(|p| self.carries(p, class)),
            RelKind::Ancestor => forest.ancestors(e).any(|a| self.carries(a, class)),
            RelKind::Descendant => {
                self.examine(1);
                let (members, end) = (self.members(class), forest.end(e));
                let mut from = forest.pre(e);
                let kept = loop {
                    match members.after(forest, from).next().map(|x| forest.pre(x)) {
                        Some(label) if label <= end => match self.removed_through(label) {
                            Some(past) => from = past,
                            None => break true,
                        },
                        _ => break false,
                    }
                };
                kept || self.inserted.iter().any(|s| s.under(e) && s.holds(class) > 0)
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

    /// Appends the violation of `rel` at `e` unless `e` has the relative
    /// `rel` asks of it. `e` carries `rel.source`.
    pub(super) fn require(&self, e: EntryId, rel: &RequiredRel, out: &mut Vec<Violation>) {
        if !self.served(e, rel) {
            out.push(unmet(self.schema, e, rel));
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
            out.push(forbidden(self.schema, upper, rel));
        }
    }

    /// `◇c` by the class counts of §4.2: only a class that `lost` a member
    /// can have become empty, and the index answers emptiness in O(1) —
    /// D's count, less a pending deletion's members, plus a pending
    /// insertion's.
    pub(super) fn emptied(&self, lost: impl Fn(ClassId) -> bool, out: &mut Vec<Violation>) {
        for class in self.schema.structure().required_classes().filter(|&class| lost(class)) {
            let name = self.schema.classes().name(class);
            let gained: usize = self.inserted.iter().map(|s| s.holds(class)).sum();
            let gone = self.gone.iter().filter(|e| e.has_class(name)).count();
            if self.dir.index().class_count(name) + gained == gone {
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
            out.extend(found.into_iter().map(|a| unmet(self.schema, a, rel)));
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

fn unmet(schema: &DirectorySchema, e: EntryId, rel: &RequiredRel) -> Violation {
    let classes = schema.classes();
    Violation::RequiredRelViolation {
        entry: e,
        source: classes.name(rel.source).to_owned(),
        kind: rel.kind,
        target: classes.name(rel.target).to_owned(),
    }
}

fn forbidden(schema: &DirectorySchema, upper: EntryId, rel: &ForbiddenRel) -> Violation {
    let classes = schema.classes();
    Violation::ForbiddenRelViolation {
        entry: upper,
        upper: classes.name(rel.upper).to_owned(),
        kind: rel.kind,
        lower: classes.name(rel.lower).to_owned(),
    }
}

/// The insertion column of Figure 5′: the neighbourhood of one inserted
/// subtree, read once, against which each structure row is one pass.
///
/// A new entry's parent and ancestors are the subtree root's ancestor
/// chain plus the path to it inside ∆D, and its children and descendants
/// all lie in ∆D. So [`new`](Self::new) and [`detached`](Self::detached)
/// walk the chain once for the classes on it and ∆D once in preorder for
/// each entry's parent and classes; then [`required`](Self::required) and
/// [`forbidden`](Self::forbidden) answer a row by one pass over ∆D going
/// down (`→pa`, `→an`) or up (`→ch`, `→de`, and which entries gained a
/// lower `↛` relative). O(|∆D| · |rows| + depth), whatever |D|; each row's
/// witnesses come out in label order, as the Figure 5 Δ-query reports
/// them.
pub(super) struct Inserted<'a> {
    schema: &'a DirectorySchema,
    /// How many classes the schema declares: the stride of the flags.
    width: usize,
    /// The chain above the root, parent first.
    chain: Vec<EntryId>,
    /// `width` class flags per chain entry.
    chain_classes: Vec<bool>,
    /// ∆D in preorder, the root first.
    delta: Vec<EntryId>,
    /// Each ∆D entry's content.
    entries: Vec<&'a Entry>,
    /// Each ∆D entry's parent, as a position in `delta` (the root's own:
    /// unused, its parent is `chain[0]`).
    parent: Vec<usize>,
    /// `width` class flags per ∆D entry.
    classes: Vec<bool>,
}

impl<'a> Inserted<'a> {
    /// Reads the neighbourhood of the subtree rooted at `root` in the
    /// prepared instance `dir`.
    pub(super) fn new(
        schema: &'a DirectorySchema,
        dir: &'a DirectoryInstance,
        root: EntryId,
    ) -> Self {
        let forest = dir.forest();
        let delta: Vec<EntryId> = std::iter::once(root).chain(forest.descendants(root)).collect();
        let (mut parent, mut path) = (vec![0; delta.len()], Vec::new());
        for (i, &e) in delta.iter().enumerate() {
            while path.last().is_some_and(|&p: &usize| forest.end(delta[p]) < forest.pre(e)) {
                path.pop();
            }
            parent[i] = path.last().copied().unwrap_or(0);
            path.push(i);
        }
        let live = |e: EntryId| dir.entry(e).expect("∆D entries are live");
        let nodes = delta.iter().zip(parent).map(|(&e, p)| (e, live(e), p));
        Self::read(schema, dir, forest.ancestors(root), nodes)
    }

    /// Reads the neighbourhood `subtree` will have once applied to the
    /// prepared instance `dir`, its nodes named by `ids` (parallel to
    /// `subtree.nodes`): the chain from `dir`, ∆D from the detached nodes
    /// laid out as the apply lays them out.
    pub(super) fn detached(
        schema: &'a DirectorySchema,
        dir: &'a DirectoryInstance,
        subtree: &'a SubtreeInsertion,
        ids: &[EntryId],
    ) -> Self {
        let forest = dir.forest();
        let chain =
            subtree.parent.into_iter().flat_map(|p| std::iter::once(p).chain(forest.ancestors(p)));
        let nodes = subtree
            .preorder()
            .into_iter()
            .map(|(node, parent)| (ids[node], &subtree.nodes[node].2, parent));
        Self::read(schema, dir, chain, nodes)
    }

    /// Flags the classes of the `chain` entries of `dir` and of the
    /// `(id, entry, parent position)` nodes of ∆D, in preorder.
    fn read(
        schema: &'a DirectorySchema,
        dir: &'a DirectoryInstance,
        chain: impl Iterator<Item = EntryId>,
        nodes: impl Iterator<Item = (EntryId, &'a Entry, usize)>,
    ) -> Self {
        let width = schema.classes().len();
        let mark = |entry: &Entry, flags: &mut Vec<bool>| {
            let at = flags.len();
            flags.resize(at + width, false);
            for class in entry.classes().iter().filter_map(|name| schema.classes().lookup(name)) {
                flags[at + class.index()] = true;
            }
        };
        let chain: Vec<EntryId> = chain.collect();
        let mut chain_classes = Vec::with_capacity(chain.len() * width);
        for &a in &chain {
            mark(dir.entry(a).expect("chain entries are live"), &mut chain_classes);
        }
        let (mut delta, mut entries, mut parent, mut classes) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for (id, entry, up) in nodes {
            delta.push(id);
            entries.push(entry);
            parent.push(up);
            mark(entry, &mut classes);
        }
        Inserted { schema, width, chain, chain_classes, delta, entries, parent, classes }
    }

    /// ∆D's `(id, entry)` pairs, in preorder.
    pub(super) fn entries(&self) -> impl Iterator<Item = (EntryId, &'a Entry)> + '_ {
        self.delta.iter().copied().zip(self.entries.iter().copied())
    }

    /// The entry ∆D hangs under; `None` for a new forest root.
    pub(super) fn parent(&self) -> Option<EntryId> {
        self.chain.first().copied()
    }

    /// How many entries the chain above ∆D holds: the depth it hangs at.
    pub(super) fn height(&self) -> usize {
        self.chain.len()
    }

    /// Whether ∆D hangs under `e` or under one of its descendants.
    fn under(&self, e: EntryId) -> bool {
        self.chain.contains(&e)
    }

    /// How many ∆D entries carry `class`.
    fn holds(&self, class: ClassId) -> usize {
        (0..self.delta.len()).filter(|&i| self.has(i, class)).count()
    }

    /// Whether the `i`-th entry of ∆D carries `class`.
    fn has(&self, i: usize, class: ClassId) -> bool {
        self.classes[i * self.width + class.index()]
    }

    /// Whether the `k`-th entry of the chain carries `class`.
    fn above(&self, k: usize, class: ClassId) -> bool {
        self.chain_classes[k * self.width + class.index()]
    }

    /// Whether each ∆D entry has a child — `deep`: a proper descendant —
    /// in `class`; all of them lie in ∆D.
    fn below(&self, class: ClassId, deep: bool) -> Vec<bool> {
        let mut found = vec![false; self.delta.len()];
        for i in (1..self.delta.len()).rev() {
            found[self.parent[i]] |= self.has(i, class) || (deep && found[i]);
        }
        found
    }

    /// Appends the ∆D entries of `rel.source` that lack the relative
    /// `rel` asks for.
    pub(super) fn required(&self, rel: &RequiredRel, out: &mut Vec<Violation>) {
        let n = self.delta.len();
        let served: Vec<bool> = match rel.kind {
            RelKind::Child | RelKind::Descendant => {
                self.below(rel.target, rel.kind == RelKind::Descendant)
            }
            RelKind::Parent => (0..n)
                .map(|i| match i {
                    0 => !self.chain.is_empty() && self.above(0, rel.target),
                    _ => self.has(self.parent[i], rel.target),
                })
                .collect(),
            RelKind::Ancestor => {
                let on_chain = (0..self.chain.len()).any(|k| self.above(k, rel.target));
                let mut over = vec![on_chain; n];
                for i in 1..n {
                    over[i] = over[self.parent[i]] || self.has(self.parent[i], rel.target);
                }
                over
            }
        };
        let unserved = (0..n).filter(|&i| self.has(i, rel.source) && !served[i]);
        out.extend(unserved.map(|i| unmet(self.schema, self.delta[i], rel)));
    }

    /// Appends the entries of `rel.upper` — on the chain or in ∆D — that
    /// gained a `rel.lower` child (descendant) with ∆D.
    pub(super) fn forbidden(&self, rel: &ForbiddenRel, out: &mut Vec<Violation>) {
        let n = self.delta.len();
        let deep = rel.kind == ForbidKind::Descendant;
        // On the chain: the parent, if the root is a lower; every
        // ancestor, if any of ∆D is.
        let reach = match deep {
            false if self.has(0, rel.lower) => self.chain.len().min(1),
            true if (0..n).any(|i| self.has(i, rel.lower)) => self.chain.len(),
            _ => 0,
        };
        let gained = self.below(rel.lower, deep);
        let on_chain =
            (0..reach).rev().filter(|&k| self.above(k, rel.upper)).map(|k| self.chain[k]);
        let inside = (0..n).filter(|&i| gained[i] && self.has(i, rel.upper)).map(|i| self.delta[i]);
        out.extend(on_chain.chain(inside).map(|upper| forbidden(self.schema, upper, rel)));
    }
}
