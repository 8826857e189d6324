//! The directory forest: Definition 2.1(4)'s binary relation `N ⊆ R × R`
//! such that `(R, N)` is a forest.
//!
//! Entries live in an arena ([`Forest`]) indexed by [`EntryId`]. Structure is
//! kept as first-child/next-sibling links, so child order is stable and
//! insertion is O(1). For the query engine, every node carries a
//! *preorder interval* `[pre, end]` of labels: labels grow strictly along
//! the preorder, `end(a)` is the label of `a`'s last descendant, and `a`
//! is a proper ancestor of `d` iff `pre(a) < pre(d) <= end(a)`. Labels
//! have gaps: [`Forest::ensure_numbered`] spaces them [`STRIDE`] apart in
//! one O(n) traversal (the bulk-load-then-query pattern the paper's
//! algorithms assume — "when the directory entries are sorted", §3.2), and
//! from then on an insertion labels the one node it adds from the gap it
//! lands in and a leaf removal tightens `end` along its ancestor chain, so
//! an update of |ΔD| entries touches O(|ΔD| · depth) labels (§4). Only an
//! exhausted gap renumbers the forest, preserving order; only a move,
//! which reorders a whole subtree, leaves the numbering stale.
//!
//! The arena is a chunked copy-on-write vector (`crate::cow`), like the
//! entry and RDN tables of a [`DirectoryInstance`](crate::DirectoryInstance):
//! a clone shares every chunk of nodes, and a write copies only the
//! chunks holding the nodes it links, unlinks or relabels — the new node,
//! its parent and siblings, and the ancestors whose `end` moves. A
//! transaction on a copy of |D| entries therefore copies
//! O(|ΔD| · depth) chunks, not the arena. A renumber rewrites every
//! label and so un-shares every chunk, as a flat arena's clone would.
//!
//! LDAP update discipline (paper §4.1) is enforced here: new entries are
//! roots or children of existing entries; only leaves can be removed one at a
//! time ([`Forest::remove_leaf`]), with [`Forest::remove_subtree`] as the
//! paper's subtree-granularity composite.

use std::fmt;

use crate::cow::CowVec;

/// Stable handle to an entry slot in a [`Forest`].
///
/// Ids are small integers suitable for direct indexing in side tables.
/// Removing an entry frees its slot for reuse by later insertions, so holders
/// of stale ids should check [`Forest::contains`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EntryId(u32);

impl EntryId {
    /// The raw slot index, for side-table indexing.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from a raw index (e.g. when iterating side tables).
    pub fn from_index(index: usize) -> EntryId {
        EntryId(u32::try_from(index).expect("entry index fits u32"))
    }
}

impl fmt::Display for EntryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Node {
    parent: Option<EntryId>,
    first_child: Option<EntryId>,
    last_child: Option<EntryId>,
    prev_sibling: Option<EntryId>,
    next_sibling: Option<EntryId>,
    /// Preorder label; valid only while `Forest::numbering_valid`.
    pre: u64,
    /// The label of this node's last descendant (its own when a leaf);
    /// valid only while `Forest::numbering_valid`. A node `a` properly
    /// contains `d` iff `pre(a) < pre(d) && pre(d) <= end(a)` — a
    /// containment test in a single (preorder) coordinate space, which is
    /// what the merge joins in `bschema-query` rely on.
    end: u64,
    alive: bool,
}

impl Node {
    fn detached() -> Node {
        Node {
            parent: None,
            first_child: None,
            last_child: None,
            prev_sibling: None,
            next_sibling: None,
            pre: 0,
            end: 0,
            alive: true,
        }
    }
}

/// Errors from structural forest updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForestError {
    /// The referenced entry does not exist (never created, or removed).
    NoSuchEntry(EntryId),
    /// `remove_leaf` was called on an entry that still has children —
    /// forbidden by the LDAP update discipline (paper §4.1).
    NotALeaf(EntryId),
    /// `move_subtree` would place an entry under itself or one of its own
    /// descendants.
    MoveIntoSelf {
        /// The subtree being moved.
        moved: EntryId,
        /// The illegal destination.
        target: EntryId,
    },
    /// A slot-exact snapshot ([`Forest::from_slots`]) is internally
    /// inconsistent — out-of-bound slots, duplicate slots, a parent that
    /// is not alive yet, or a free list that does not cover exactly the
    /// dead slots.
    InvalidSnapshot {
        /// What was wrong with the snapshot.
        reason: &'static str,
    },
}

impl fmt::Display for ForestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForestError::NoSuchEntry(id) => write!(f, "entry {id} does not exist"),
            ForestError::NotALeaf(id) => {
                write!(f, "entry {id} has descendants and cannot be deleted (LDAP allows leaf deletion only)")
            }
            ForestError::MoveIntoSelf { moved, target } => {
                write!(f, "cannot move entry {moved} under {target}: the destination is inside the moved subtree")
            }
            ForestError::InvalidSnapshot { reason } => {
                write!(f, "invalid slot snapshot: {reason}")
            }
        }
    }
}

impl std::error::Error for ForestError {}

/// Label spacing a full renumber leaves between consecutive entries.
const STRIDE: u64 = 1 << 24;

/// How far past its predecessor an appended entry is labelled while the
/// gap allows: `STRIDE / STEP` appends fit into one gap before halving
/// starts.
const STEP: u64 = 1 << 12;

/// An arena forest with gap-labelled preorder interval numbering, whose
/// clones share the arena chunk by chunk (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Forest {
    nodes: CowVec<Node>,
    first_root: Option<EntryId>,
    last_root: Option<EntryId>,
    free: Vec<u32>,
    len: usize,
    numbering_valid: bool,
}

impl Forest {
    /// An empty forest.
    pub fn new() -> Forest {
        Forest::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no entries exist.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Upper bound (exclusive) on `EntryId::index` values ever handed out;
    /// side tables should size to this.
    pub fn slot_bound(&self) -> usize {
        self.nodes.len()
    }

    /// The dead-slot reuse stack, bottom first. [`Forest::alloc`]-backed
    /// insertions pop from the **end**, so a snapshot that wants later
    /// insertions to land on the same slots as the original forest must
    /// restore this sequence verbatim ([`Forest::from_slots`]).
    pub fn free_slots(&self) -> &[u32] {
        &self.free
    }

    /// Rebuilds a forest with an exact slot layout: `live` lists
    /// `(slot, parent_slot)` pairs in preorder (roots in order, each
    /// followed by its subtree), `free` is the dead-slot reuse stack
    /// (bottom first), and `slot_bound` is the arena size. The result is
    /// indistinguishable from the forest that produced the snapshot:
    /// same ids, same sibling order, and the same slots handed to future
    /// insertions.
    pub fn from_slots(
        slot_bound: usize,
        live: &[(u32, Option<u32>)],
        free: &[u32],
    ) -> Result<Forest, ForestError> {
        let invalid = |reason| ForestError::InvalidSnapshot { reason };
        if live.len() + free.len() != slot_bound {
            return Err(invalid("live + free slot counts must equal the slot bound"));
        }
        let mut forest = Forest { free: free.to_vec(), len: live.len(), ..Forest::default() };
        forest.nodes.grow_to(slot_bound, || Node { alive: false, ..Node::detached() });
        for &(slot, parent) in live {
            let id = EntryId(slot);
            if id.index() >= slot_bound {
                return Err(invalid("live slot out of bound"));
            }
            if forest.nodes[id.index()].alive {
                return Err(invalid("duplicate live slot"));
            }
            forest.nodes[id.index()].alive = true;
            match parent {
                None => match forest.last_root {
                    Some(prev) => {
                        forest.nodes[prev.index()].next_sibling = Some(id);
                        forest.nodes[id.index()].prev_sibling = Some(prev);
                        forest.last_root = Some(id);
                    }
                    None => {
                        forest.first_root = Some(id);
                        forest.last_root = Some(id);
                    }
                },
                Some(p) => {
                    let parent = EntryId(p);
                    // Preorder guarantees the parent row came first.
                    if parent.index() >= slot_bound || !forest.nodes[parent.index()].alive {
                        return Err(invalid("parent slot is not alive (rows must be preorder)"));
                    }
                    forest.nodes[id.index()].parent = Some(parent);
                    match forest.nodes[parent.index()].last_child {
                        Some(prev) => {
                            forest.nodes[prev.index()].next_sibling = Some(id);
                            forest.nodes[id.index()].prev_sibling = Some(prev);
                        }
                        None => forest.nodes[parent.index()].first_child = Some(id),
                    }
                    forest.nodes[parent.index()].last_child = Some(id);
                }
            }
        }
        for &slot in free {
            if slot as usize >= slot_bound {
                return Err(invalid("free slot out of bound"));
            }
            if forest.nodes[slot as usize].alive {
                return Err(invalid("free slot collides with a live slot"));
            }
        }
        // live + free == bound and no free/live collision, so the free
        // list covers exactly the dead slots unless it repeats one.
        let mut seen = vec![false; slot_bound];
        for &slot in free {
            if std::mem::replace(&mut seen[slot as usize], true) {
                return Err(invalid("duplicate free slot"));
            }
        }
        Ok(forest)
    }

    /// Whether `id` refers to a live entry.
    pub fn contains(&self, id: EntryId) -> bool {
        self.nodes.get(id.index()).is_some_and(|n| n.alive)
    }

    fn node(&self, id: EntryId) -> Result<&Node, ForestError> {
        self.nodes.get(id.index()).filter(|n| n.alive).ok_or(ForestError::NoSuchEntry(id))
    }

    /// The ids the next `n` allocations will take, in order, taking
    /// none: the free stack from its top, then fresh slots from
    /// [`slot_bound`](Self::slot_bound) up — what lets a write be judged
    /// before it is applied name the entries it would create.
    pub fn next_ids(&self, n: usize) -> impl Iterator<Item = EntryId> + '_ {
        let reused = self.free.iter().rev().map(|&slot| EntryId(slot));
        reused.chain((self.nodes.len()..).map(EntryId::from_index)).take(n)
    }

    fn alloc(&mut self) -> EntryId {
        self.len += 1;
        if let Some(slot) = self.free.pop() {
            self.nodes[slot as usize] = Node::detached();
            EntryId(slot)
        } else {
            let id = EntryId::from_index(self.nodes.len());
            self.nodes.push(Node::detached());
            id
        }
    }

    /// Creates a new root entry, appended after existing roots.
    pub fn add_root(&mut self) -> EntryId {
        let id = self.alloc();
        match self.last_root {
            Some(prev) => {
                self.nodes[prev.index()].next_sibling = Some(id);
                self.nodes[id.index()].prev_sibling = Some(prev);
            }
            None => self.first_root = Some(id),
        }
        self.last_root = Some(id);
        self.label_appended(id);
        id
    }

    /// Creates a new child of `parent`, appended after its existing children.
    pub fn add_child(&mut self, parent: EntryId) -> Result<EntryId, ForestError> {
        self.node(parent)?;
        let id = self.alloc();
        let last = self.nodes[parent.index()].last_child;
        self.nodes[id.index()].parent = Some(parent);
        match last {
            Some(prev) => {
                self.nodes[prev.index()].next_sibling = Some(id);
                self.nodes[id.index()].prev_sibling = Some(prev);
            }
            None => self.nodes[parent.index()].first_child = Some(id),
        }
        self.nodes[parent.index()].last_child = Some(id);
        self.label_appended(id);
        Ok(id)
    }

    /// Labels the node just appended as the last root or the last child
    /// of its parent, from the gap between its preorder neighbours. No-op
    /// while the numbering is stale (bulk load); a gap too narrow to
    /// split renumbers the whole forest on the spot.
    fn label_appended(&mut self, id: EntryId) {
        if !self.numbering_valid {
            return;
        }
        let Node { parent, prev_sibling, .. } = self.nodes[id.index()];
        let lo = match (prev_sibling, parent) {
            (Some(prev), _) => self.nodes[prev.index()].end,
            (None, Some(parent)) => self.nodes[parent.index()].pre,
            (None, None) => 0,
        };
        // The preorder successor: the next sibling of the nearest
        // ancestor that has one.
        let successor = self.ancestors(id).find_map(|a| self.nodes[a.index()].next_sibling);
        let hi = successor.map_or(lo.saturating_add(STRIDE), |next| self.nodes[next.index()].pre);
        let gap = hi - lo;
        if gap < 2 {
            self.numbering_valid = false;
            return self.ensure_numbered();
        }
        let label = lo + (gap / 2).min(STEP);
        let node = &mut self.nodes[id.index()];
        (node.pre, node.end) = (label, label);
        // The new node is the last descendant of exactly the ancestors
        // whose interval ended before it.
        let mut up = parent;
        while let Some(a) = up.filter(|a| self.nodes[a.index()].end < label) {
            self.nodes[a.index()].end = label;
            up = self.nodes[a.index()].parent;
        }
    }

    fn unlink(&mut self, id: EntryId) {
        let (parent, prev, next) = {
            let n = &self.nodes[id.index()];
            (n.parent, n.prev_sibling, n.next_sibling)
        };
        match prev {
            Some(p) => self.nodes[p.index()].next_sibling = next,
            None => match parent {
                Some(par) => self.nodes[par.index()].first_child = next,
                None => self.first_root = next,
            },
        }
        match next {
            Some(nx) => self.nodes[nx.index()].prev_sibling = prev,
            None => match parent {
                Some(par) => self.nodes[par.index()].last_child = prev,
                None => self.last_root = prev,
            },
        }
    }

    /// Removes a leaf entry. Fails if `id` has children — per LDAP, "a
    /// directory entry that has descendants cannot be deleted, unless all its
    /// descendants are first deleted" (§4.1).
    pub fn remove_leaf(&mut self, id: EntryId) -> Result<(), ForestError> {
        let node = self.node(id)?;
        if node.first_child.is_some() {
            return Err(ForestError::NotALeaf(id));
        }
        let Node { parent, pre: label, .. } = *node;
        self.unlink(id);
        self.nodes[id.index()].alive = false;
        self.free.push(id.0);
        self.len -= 1;
        if self.numbering_valid {
            // The ancestors whose last descendant this was now end on
            // the parent's new last descendant, so `end` stays exact and
            // the label space is free for the next insertion here.
            let end = parent.map_or(0, |p| {
                let p = &self.nodes[p.index()];
                p.last_child.map_or(p.pre, |last| self.nodes[last.index()].end)
            });
            let mut up = parent;
            while let Some(a) = up.filter(|a| self.nodes[a.index()].end == label) {
                self.nodes[a.index()].end = end;
                up = self.nodes[a.index()].parent;
            }
        }
        Ok(())
    }

    /// Removes the whole subtree rooted at `id` (the paper's
    /// subtree-deletion granularity, §4.1) as a sequence of leaf deletions in
    /// post-order. Returns the removed ids, post-order (leaves first, `id`
    /// last).
    pub fn remove_subtree(&mut self, id: EntryId) -> Result<Vec<EntryId>, ForestError> {
        self.node(id)?;
        let order = self.postorder_of(id);
        for &e in &order {
            self.remove_leaf(e).expect("postorder guarantees leaves first");
        }
        Ok(order)
    }

    /// Moves the subtree rooted at `id` under `new_parent` (appended after
    /// its existing children) — the LDAP ModifyDN/"move" operation. Fails if
    /// either entry is dead or if `new_parent` is `id` itself or one of its
    /// descendants (which would detach the subtree into a cycle).
    pub fn move_subtree(&mut self, id: EntryId, new_parent: EntryId) -> Result<(), ForestError> {
        self.node(id)?;
        self.node(new_parent)?;
        if new_parent == id || self.is_ancestor(id, new_parent) {
            return Err(ForestError::MoveIntoSelf { moved: id, target: new_parent });
        }
        self.unlink(id);
        let n = &mut self.nodes[id.index()];
        n.parent = Some(new_parent);
        n.prev_sibling = None;
        n.next_sibling = None;
        let last = self.nodes[new_parent.index()].last_child;
        match last {
            Some(prev) => {
                self.nodes[prev.index()].next_sibling = Some(id);
                self.nodes[id.index()].prev_sibling = Some(prev);
            }
            None => self.nodes[new_parent.index()].first_child = Some(id),
        }
        self.nodes[new_parent.index()].last_child = Some(id);
        self.numbering_valid = false;
        Ok(())
    }

    /// Detaches the subtree rooted at `id`, making it a new forest root
    /// (appended after existing roots). The other half of ModifyDN.
    pub fn move_subtree_to_root(&mut self, id: EntryId) -> Result<(), ForestError> {
        self.node(id)?;
        if self.nodes[id.index()].parent.is_none() {
            return Ok(()); // already a root
        }
        self.unlink(id);
        let n = &mut self.nodes[id.index()];
        n.parent = None;
        n.prev_sibling = None;
        n.next_sibling = None;
        match self.last_root {
            Some(prev) => {
                self.nodes[prev.index()].next_sibling = Some(id);
                self.nodes[id.index()].prev_sibling = Some(prev);
            }
            None => self.first_root = Some(id),
        }
        self.last_root = Some(id);
        self.numbering_valid = false;
        Ok(())
    }

    /// The parent of `id`, or `None` for roots.
    pub fn parent(&self, id: EntryId) -> Option<EntryId> {
        self.node(id).ok().and_then(|n| n.parent)
    }

    /// Whether `id` is a live root.
    pub fn is_root(&self, id: EntryId) -> bool {
        self.node(id).is_ok_and(|n| n.parent.is_none())
    }

    /// Whether `id` is a live leaf.
    pub fn is_leaf(&self, id: EntryId) -> bool {
        self.node(id).is_ok_and(|n| n.first_child.is_none())
    }

    /// The roots, in insertion order.
    pub fn roots(&self) -> SiblingIter<'_> {
        SiblingIter { forest: self, next: self.first_root }
    }

    /// The children of `id`, in insertion order (empty if `id` is dead).
    pub fn children(&self, id: EntryId) -> SiblingIter<'_> {
        let next = self.node(id).ok().and_then(|n| n.first_child);
        SiblingIter { forest: self, next }
    }

    /// Number of children of `id`.
    pub fn child_count(&self, id: EntryId) -> usize {
        self.children(id).count()
    }

    /// Proper ancestors of `id`, nearest (parent) first.
    pub fn ancestors(&self, id: EntryId) -> AncestorIter<'_> {
        AncestorIter { forest: self, next: self.parent(id) }
    }

    /// Depth of `id`: 0 for roots.
    pub fn depth(&self, id: EntryId) -> usize {
        self.ancestors(id).count()
    }

    /// Proper descendants of `id` in preorder.
    pub fn descendants(&self, id: EntryId) -> PreorderIter<'_> {
        match self.node(id) {
            Ok(n) => PreorderIter { forest: self, next: n.first_child, stop: Some(id) },
            Err(_) => PreorderIter { forest: self, next: None, stop: None },
        }
    }

    /// All live entries in preorder (roots in insertion order, each followed
    /// by its subtree).
    pub fn iter(&self) -> PreorderIter<'_> {
        PreorderIter { forest: self, next: self.first_root, stop: None }
    }

    /// Entries of the subtree rooted at `id` in post-order (children before
    /// parents).
    pub fn postorder_of(&self, id: EntryId) -> Vec<EntryId> {
        let mut out = Vec::new();
        // Iterative postorder: push self in preorder, then reverse trick is
        // wrong for forests with sibling order; do explicit two-phase.
        let mut stack = vec![(id, false)];
        while let Some((e, expanded)) = stack.pop() {
            if expanded {
                out.push(e);
            } else {
                stack.push((e, true));
                let children: Vec<EntryId> = self.children(e).collect();
                for c in children.into_iter().rev() {
                    stack.push((c, false));
                }
            }
        }
        out
    }

    /// Size of the subtree rooted at `id` (including `id`); 0 if dead.
    pub fn subtree_size(&self, id: EntryId) -> usize {
        if !self.contains(id) {
            return 0;
        }
        1 + self.descendants(id).count()
    }

    /// Link-chasing ancestor test: true iff `a` is a **proper** ancestor of
    /// `d`. O(depth(d)); always valid, independent of numbering.
    pub fn is_ancestor(&self, a: EntryId, d: EntryId) -> bool {
        if a == d || !self.contains(a) {
            return false;
        }
        self.ancestors(d).any(|x| x == a)
    }

    // ----- interval numbering -----

    /// Whether the interval numbering currently reflects the structure.
    /// Once numbered, insertions and removals keep it so; only a move
    /// makes it stale.
    pub fn is_numbered(&self) -> bool {
        self.numbering_valid
    }

    /// Renumbers the whole forest, [`STRIDE`] apart, if the numbering is
    /// stale. O(n); no-op when clean. Order-preserving: anything sorted
    /// by label before stays sorted.
    pub fn ensure_numbered(&mut self) {
        if self.numbering_valid {
            return;
        }
        let mut label = 0u64;
        // Iterative DFS over the forest.
        let mut next = self.first_root;
        let mut stack: Vec<EntryId> = Vec::new();
        while let Some(id) = next {
            label += STRIDE;
            self.nodes[id.index()].pre = label;
            if let Some(child) = self.nodes[id.index()].first_child {
                stack.push(id);
                next = Some(child);
            } else {
                self.nodes[id.index()].end = label;
                // Walk up until a next sibling exists.
                let mut cur = id;
                next = None;
                loop {
                    if let Some(sib) = self.nodes[cur.index()].next_sibling {
                        next = Some(sib);
                        break;
                    }
                    match stack.pop() {
                        Some(parent) => {
                            self.nodes[parent.index()].end = label;
                            cur = parent;
                        }
                        None => break,
                    }
                }
            }
        }
        self.numbering_valid = true;
    }

    /// Preorder label of `id`: strictly increasing along
    /// [`iter`](Self::iter), with gaps — compare labels, do not count
    /// with them.
    ///
    /// # Panics
    /// If the numbering is stale (call [`ensure_numbered`](Self::ensure_numbered)
    /// first) or `id` is dead.
    pub fn pre(&self, id: EntryId) -> u64 {
        assert!(self.numbering_valid, "forest numbering is stale; call ensure_numbered()");
        debug_assert!(self.contains(id));
        self.nodes[id.index()].pre
    }

    /// The label of `id`'s last descendant in preorder (its own when a
    /// leaf). Same preconditions as [`pre`](Self::pre). `a` properly
    /// contains `d` iff `pre(a) < pre(d) && pre(d) <= end(a)` — the
    /// single-coordinate containment test the `bschema-query` merge
    /// joins use.
    pub fn end(&self, id: EntryId) -> u64 {
        assert!(self.numbering_valid, "forest numbering is stale; call ensure_numbered()");
        debug_assert!(self.contains(id));
        self.nodes[id.index()].end
    }

    /// Interval-based proper-ancestor test; requires fresh numbering.
    /// O(1) — this is what makes the §3.2 merge joins linear.
    pub fn interval_is_ancestor(&self, a: EntryId, d: EntryId) -> bool {
        let pa = self.pre(a);
        let pd = self.pre(d);
        pa < pd && pd <= self.end(a)
    }

    /// The numbering's invariants, checked against the links in one
    /// pass: labels strictly follow [`iter`](Self::iter) and every `end`
    /// is exactly the label of the node's last descendant. The oracle
    /// the maintained numbering is tested against.
    #[doc(hidden)]
    pub fn check_numbering(&self) -> Result<(), String> {
        if !self.numbering_valid {
            return Err("forest numbering is stale".to_owned());
        }
        let order: Vec<EntryId> = self.iter().collect();
        if let Some(w) = order.windows(2).find(|w| self.pre(w[0]) >= self.pre(w[1])) {
            return Err(format!("labels of {} and {} do not follow the preorder", w[0], w[1]));
        }
        // Children come after their parent, so in reverse preorder a
        // node's last child already has its exact `end` verified.
        for &id in order.iter().rev() {
            let node = &self.nodes[id.index()];
            let last = node.last_child.map_or(node.pre, |c| self.nodes[c.index()].end);
            if node.end != last {
                return Err(format!("end({id}) = {} but its last descendant is {last}", node.end));
            }
        }
        Ok(())
    }
}

/// Iterator over a sibling chain.
#[derive(Debug, Clone)]
pub struct SiblingIter<'f> {
    forest: &'f Forest,
    next: Option<EntryId>,
}

impl Iterator for SiblingIter<'_> {
    type Item = EntryId;
    fn next(&mut self) -> Option<EntryId> {
        let id = self.next?;
        self.next = self.forest.nodes[id.index()].next_sibling;
        Some(id)
    }
}

/// Iterator over proper ancestors, nearest first.
#[derive(Debug, Clone)]
pub struct AncestorIter<'f> {
    forest: &'f Forest,
    next: Option<EntryId>,
}

impl Iterator for AncestorIter<'_> {
    type Item = EntryId;
    fn next(&mut self) -> Option<EntryId> {
        let id = self.next?;
        self.next = self.forest.nodes[id.index()].parent;
        Some(id)
    }
}

/// Preorder iterator, optionally confined to the subtree under `stop`.
#[derive(Debug, Clone)]
pub struct PreorderIter<'f> {
    forest: &'f Forest,
    next: Option<EntryId>,
    /// When `Some(root)`, iteration stays strictly inside `root`'s subtree.
    stop: Option<EntryId>,
}

impl Iterator for PreorderIter<'_> {
    type Item = EntryId;
    fn next(&mut self) -> Option<EntryId> {
        let id = self.next?;
        let nodes = &self.forest.nodes;
        // Compute successor in preorder.
        self.next = if let Some(child) = nodes[id.index()].first_child {
            Some(child)
        } else {
            let mut cur = id;
            loop {
                if Some(cur) == self.stop {
                    break None;
                }
                if let Some(sib) = nodes[cur.index()].next_sibling {
                    break Some(sib);
                }
                match nodes[cur.index()].parent {
                    Some(p) if Some(p) != self.stop => cur = p,
                    _ => break None,
                }
            }
        };
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the Figure 1 shape:
    /// att ── attLabs ── { armstrong, databases ── { laks, suciu } }
    fn figure1_shape() -> (Forest, [EntryId; 6]) {
        let mut f = Forest::new();
        let att = f.add_root();
        let labs = f.add_child(att).unwrap();
        let armstrong = f.add_child(labs).unwrap();
        let db = f.add_child(labs).unwrap();
        let laks = f.add_child(db).unwrap();
        let suciu = f.add_child(db).unwrap();
        (f, [att, labs, armstrong, db, laks, suciu])
    }

    #[test]
    fn build_and_navigate() {
        let (f, [att, labs, armstrong, db, laks, suciu]) = figure1_shape();
        assert_eq!(f.len(), 6);
        assert_eq!(f.parent(laks), Some(db));
        assert_eq!(f.parent(att), None);
        assert!(f.is_root(att));
        assert!(f.is_leaf(suciu));
        assert!(!f.is_leaf(db));
        assert_eq!(f.children(labs).collect::<Vec<_>>(), [armstrong, db]);
        assert_eq!(f.ancestors(laks).collect::<Vec<_>>(), [db, labs, att]);
        assert_eq!(f.depth(laks), 3);
        assert_eq!(f.depth(att), 0);
        assert_eq!(f.subtree_size(labs), 5);
        assert_eq!(f.child_count(db), 2);
    }

    #[test]
    fn preorder_iteration() {
        let (f, [att, labs, armstrong, db, laks, suciu]) = figure1_shape();
        assert_eq!(f.iter().collect::<Vec<_>>(), [att, labs, armstrong, db, laks, suciu]);
        assert_eq!(f.descendants(labs).collect::<Vec<_>>(), [armstrong, db, laks, suciu]);
        assert_eq!(f.descendants(suciu).count(), 0);
    }

    #[test]
    fn multiple_roots_iterate_in_order() {
        let mut f = Forest::new();
        let r1 = f.add_root();
        let r2 = f.add_root();
        let c1 = f.add_child(r1).unwrap();
        assert_eq!(f.roots().collect::<Vec<_>>(), [r1, r2]);
        assert_eq!(f.iter().collect::<Vec<_>>(), [r1, c1, r2]);
    }

    #[test]
    fn ancestor_tests_agree() {
        let (mut f, ids) = figure1_shape();
        f.ensure_numbered();
        for &a in &ids {
            for &d in &ids {
                assert_eq!(
                    f.is_ancestor(a, d),
                    f.interval_is_ancestor(a, d),
                    "mismatch for {a} -> {d}"
                );
            }
        }
    }

    #[test]
    fn numbering_is_pre_post() {
        let (mut f, ids @ [att, _, _, _, laks, _]) = figure1_shape();
        f.ensure_numbered();
        assert_eq!(f.iter().collect::<Vec<_>>(), ids, "figure 1 was built in preorder");
        for w in ids.windows(2) {
            assert!(f.pre(w[0]) < f.pre(w[1]));
        }
        f.check_numbering().unwrap();
        assert!(f.interval_is_ancestor(att, laks));
        assert!(!f.interval_is_ancestor(laks, att));
        assert!(!f.interval_is_ancestor(att, att));
    }

    #[test]
    fn end_is_max_preorder_in_subtree() {
        let (mut f, [att, labs, armstrong, db, laks, suciu]) = figure1_shape();
        f.ensure_numbered();
        // suciu is the last of all 6 nodes in preorder.
        assert_eq!(f.end(att), f.pre(suciu));
        assert_eq!(f.end(labs), f.pre(suciu));
        assert_eq!(f.end(armstrong), f.pre(armstrong)); // leaf
        assert_eq!(f.end(db), f.pre(suciu));
        assert_eq!(f.end(laks), f.pre(laks));
        assert_eq!(f.end(suciu), f.pre(suciu));
        // Containment in the preorder coordinate space matches ancestry.
        for &a in &[att, labs, armstrong, db, laks, suciu] {
            for &d in &[att, labs, armstrong, db, laks, suciu] {
                let by_interval = f.pre(a) < f.pre(d) && f.pre(d) <= f.end(a);
                assert_eq!(by_interval, f.is_ancestor(a, d));
            }
        }
    }

    #[test]
    fn remove_leaf_enforces_leaf_only() {
        let (mut f, [_, labs, armstrong, ..]) = figure1_shape();
        assert_eq!(f.remove_leaf(labs), Err(ForestError::NotALeaf(labs)));
        f.remove_leaf(armstrong).unwrap();
        assert!(!f.contains(armstrong));
        assert_eq!(f.len(), 5);
        assert_eq!(f.remove_leaf(armstrong), Err(ForestError::NoSuchEntry(armstrong)));
    }

    #[test]
    fn remove_subtree_is_postorder() {
        let (mut f, [att, labs, armstrong, db, laks, suciu]) = figure1_shape();
        let removed = f.remove_subtree(labs).unwrap();
        assert_eq!(removed, [armstrong, laks, suciu, db, labs]);
        assert_eq!(f.len(), 1);
        assert!(f.contains(att));
        assert!(f.is_leaf(att));
    }

    #[test]
    fn move_subtree_relocates_whole_subtree() {
        let (mut f, [att, labs, armstrong, db, laks, suciu]) = figure1_shape();
        // Move databases (with laks, suciu) directly under att.
        f.move_subtree(db, att).unwrap();
        assert_eq!(f.parent(db), Some(att));
        assert_eq!(f.parent(laks), Some(db));
        assert_eq!(f.children(att).collect::<Vec<_>>(), [labs, db]);
        assert_eq!(f.children(labs).collect::<Vec<_>>(), [armstrong]);
        assert_eq!(f.len(), 6);
        f.ensure_numbered();
        assert!(f.interval_is_ancestor(att, suciu));
        assert!(!f.interval_is_ancestor(labs, suciu));
    }

    #[test]
    fn move_into_own_subtree_is_rejected() {
        let (mut f, [_, labs, _, db, laks, _]) = figure1_shape();
        assert_eq!(
            f.move_subtree(labs, laks),
            Err(ForestError::MoveIntoSelf { moved: labs, target: laks })
        );
        assert_eq!(
            f.move_subtree(db, db),
            Err(ForestError::MoveIntoSelf { moved: db, target: db })
        );
        // Structure unchanged after rejections.
        assert_eq!(f.parent(laks), Some(db));
    }

    #[test]
    fn move_subtree_to_root_detaches() {
        let (mut f, [att, labs, _, db, laks, _]) = figure1_shape();
        f.move_subtree_to_root(db).unwrap();
        assert_eq!(f.parent(db), None);
        assert!(f.is_root(db));
        assert_eq!(f.roots().collect::<Vec<_>>(), [att, db]);
        assert_eq!(f.parent(laks), Some(db));
        assert_eq!(f.children(labs).count(), 1);
        // Idempotent on roots.
        f.move_subtree_to_root(db).unwrap();
        assert_eq!(f.roots().count(), 2);
    }

    #[test]
    fn slot_reuse_after_removal() {
        let mut f = Forest::new();
        let r = f.add_root();
        let c = f.add_child(r).unwrap();
        f.remove_leaf(c).unwrap();
        let c2 = f.add_child(r).unwrap();
        assert_eq!(c2.index(), c.index(), "slot should be reused");
        assert!(f.contains(c2));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn removing_middle_sibling_relinks() {
        let mut f = Forest::new();
        let r = f.add_root();
        let a = f.add_child(r).unwrap();
        let b = f.add_child(r).unwrap();
        let c = f.add_child(r).unwrap();
        f.remove_leaf(b).unwrap();
        assert_eq!(f.children(r).collect::<Vec<_>>(), [a, c]);
        let d = f.add_child(r).unwrap();
        assert_eq!(f.children(r).collect::<Vec<_>>(), [a, c, d]);
    }

    #[test]
    fn numbering_refreshes_after_update() {
        let (mut f, ids @ [att, labs, armstrong, db, _, suciu]) = figure1_shape();
        f.ensure_numbered();
        let before = ids.map(|id| f.pre(id));
        // An insertion labels the new node alone, between its preorder
        // neighbours, and extends exactly the intervals it ends.
        let extra = f.add_child(armstrong).unwrap();
        assert!(f.is_numbered());
        assert_eq!(ids.map(|id| f.pre(id)), before, "no other label moved");
        assert!(f.pre(armstrong) < f.pre(extra) && f.pre(extra) < f.pre(db));
        assert_eq!(f.end(armstrong), f.pre(extra));
        assert_eq!(f.end(labs), f.pre(suciu));
        let tail = f.add_child(suciu).unwrap();
        assert_eq!([f.end(suciu), f.end(db), f.end(att)], [f.pre(tail); 3]);
        f.check_numbering().unwrap();
        // A removal gives the label space back: `end` tightens.
        f.remove_leaf(tail).unwrap();
        f.remove_leaf(extra).unwrap();
        assert!(f.is_numbered());
        assert_eq!(f.end(armstrong), f.pre(armstrong));
        assert_eq!(f.end(att), f.pre(suciu));
        f.check_numbering().unwrap();
        // A move reorders a subtree: the numbering is stale until rebuilt.
        f.move_subtree(armstrong, db).unwrap();
        assert!(!f.is_numbered());
        f.ensure_numbered();
        assert!(f.interval_is_ancestor(db, armstrong));
        f.check_numbering().unwrap();
    }

    /// A splitmix64 step: the tests below need many cheap random picks.
    fn next_random(state: &mut u64) -> usize {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as usize
    }

    #[test]
    fn random_churn_with_hot_parents_keeps_labels_ordered_and_ends_exact() {
        let mut f = Forest::new();
        let mut live: Vec<EntryId> = (0..4).map(|_| f.add_root()).collect();
        f.ensure_numbered();
        let hot = live.clone();
        let mut rng = 20u64;
        for step in 0..20_000 {
            let pick = next_random(&mut rng);
            match pick % 8 {
                // Half the insertions pile up under the four hot parents.
                0..=2 => live.push(f.add_child(hot[pick / 8 % hot.len()]).unwrap()),
                3..=4 => live.push(f.add_child(live[pick / 8 % live.len()]).unwrap()),
                5 => live.push(f.add_root()),
                _ => {
                    let at = pick / 8 % live.len();
                    if f.is_leaf(live[at]) && !hot.contains(&live[at]) {
                        f.remove_leaf(live.swap_remove(at)).unwrap();
                    }
                }
            }
            assert!(f.is_numbered());
            if step % 500 == 0 {
                f.check_numbering().unwrap();
            }
        }
        f.check_numbering().unwrap();
        assert_eq!(f.len(), live.len());
    }

    #[test]
    fn appends_under_one_parent_rarely_renumber() {
        let mut f = Forest::new();
        let parent = f.add_root();
        let sentinel = f.add_root();
        f.ensure_numbered();
        // The sentinel follows every appended child in preorder, so each
        // full renumber — and nothing else — moves its label.
        let (mut renumbers, mut label) = (0, f.pre(sentinel));
        for _ in 0..100_000 {
            f.add_child(parent).unwrap();
            if f.pre(sentinel) != label {
                renumbers += 1;
                label = f.pre(sentinel);
            }
        }
        assert!((1..=100).contains(&renumbers), "{renumbers} renumbers for 100k appends");
        f.check_numbering().unwrap();
    }

    #[test]
    #[should_panic(expected = "numbering is stale")]
    fn stale_numbering_panics() {
        let mut f = Forest::new();
        let r = f.add_root();
        let _ = f.pre(r);
    }

    #[test]
    fn empty_forest() {
        let f = Forest::new();
        assert!(f.is_empty());
        assert_eq!(f.iter().count(), 0);
        assert_eq!(f.roots().count(), 0);
    }

    #[test]
    fn add_child_of_dead_parent_fails() {
        let mut f = Forest::new();
        let r = f.add_root();
        f.remove_leaf(r).unwrap();
        assert_eq!(f.add_child(r), Err(ForestError::NoSuchEntry(r)));
    }

    #[test]
    fn deep_chain_numbering() {
        // Exercise the iterative DFS on a deep path (would overflow a
        // recursive implementation's stack at much larger sizes).
        let mut f = Forest::new();
        let mut cur = f.add_root();
        let root = cur;
        for _ in 0..10_000 {
            cur = f.add_child(cur).unwrap();
        }
        f.ensure_numbered();
        assert!(f.interval_is_ancestor(root, cur));
        assert_eq!(f.end(root), f.pre(cur));
        f.check_numbering().unwrap();
        assert_eq!(f.depth(cur), 10_000);
    }

    #[test]
    fn postorder_of_single_node() {
        let mut f = Forest::new();
        let r = f.add_root();
        assert_eq!(f.postorder_of(r), [r]);
    }

    /// Everything a reader of a numbered forest observes of its nodes:
    /// the preorder, every `[pre, end]`, the free stack and the arena size.
    type Observed = (Vec<EntryId>, Vec<(u64, u64)>, Vec<u32>, usize);

    fn observed(f: &Forest) -> Observed {
        let order: Vec<EntryId> = f.iter().collect();
        let labels = order.iter().map(|&id| (f.pre(id), f.end(id))).collect();
        (order, labels, f.free_slots().to_vec(), f.slot_bound())
    }

    #[test]
    fn a_write_to_a_clone_copies_the_chunks_it_touches_and_never_reaches_the_original() {
        // Every node hangs under a random earlier one: ≈313 chunks, with
        // ancestor chains spread over them.
        let mut f = Forest::new();
        let mut ids = vec![f.add_root()];
        let mut rng = 31u64;
        for _ in 1..20_000 {
            let parent = ids[next_random(&mut rng) % ids.len()];
            ids.push(f.add_child(parent).unwrap());
        }
        f.ensure_numbered();
        let mut leaves: Vec<EntryId> = ids.iter().copied().filter(|&id| f.is_leaf(id)).collect();
        for leaf in leaves.drain(..5) {
            f.remove_leaf(leaf).unwrap();
        }
        let before = observed(&f);
        let arena: Vec<Node> = (0..f.slot_bound()).map(|i| f.nodes[i].clone()).collect();
        let untouched = |f: &Forest| (0..arena.len()).all(|i| f.nodes[i] == arena[i]);

        for _ in 0..100 {
            // An insertion writes the new node (a reused slot here), its
            // previous sibling, its parent and the parent's ancestors.
            let parent = ids[next_random(&mut rng) % ids.len()];
            if !f.contains(parent) {
                continue;
            }
            let mut copy = f.clone();
            assert_eq!(copy.nodes.unshared_chunks(&f.nodes), 0, "a clone shares every chunk");
            copy.add_child(parent).unwrap();
            let depth = f.depth(parent);
            let copied = copy.nodes.unshared_chunks(&f.nodes);
            assert!(copied <= depth + 3, "{copied} chunks copied to insert under depth {depth}");
            assert!(untouched(&f), "an insertion into a clone reached the original");
            copy.check_numbering().unwrap();

            // A leaf removal writes the leaf, both its siblings and the
            // ancestors whose interval it ended.
            let leaf = leaves[next_random(&mut rng) % leaves.len()];
            let mut copy = f.clone();
            copy.remove_leaf(leaf).unwrap();
            let depth = f.depth(leaf);
            let copied = copy.nodes.unshared_chunks(&f.nodes);
            assert!(copied <= depth + 3, "{copied} chunks copied to remove at depth {depth}");
            assert!(untouched(&f), "a removal from a clone reached the original");
            copy.check_numbering().unwrap();
        }
        f.check_numbering().unwrap();
        assert!(observed(&f) == before);
    }

    /// Snapshot `f` through the slot-exact API and rebuild it.
    fn snapshot_roundtrip(f: &Forest) -> Forest {
        let live: Vec<(u32, Option<u32>)> = f
            .iter()
            .map(|id| (id.index() as u32, f.parent(id).map(|p| p.index() as u32)))
            .collect();
        Forest::from_slots(f.slot_bound(), &live, f.free_slots()).expect("valid snapshot")
    }

    #[test]
    fn from_slots_reproduces_structure_and_slot_reuse() {
        let (mut f, [att, labs, armstrong, db, laks, _suciu]) = figure1_shape();
        // Punch holes so the free stack is non-trivial and ordered.
        f.remove_leaf(armstrong).unwrap();
        f.remove_leaf(laks).unwrap();
        assert_eq!(f.free_slots(), [armstrong.index() as u32, laks.index() as u32]);

        let mut restored = snapshot_roundtrip(&f);
        assert_eq!(restored.len(), f.len());
        assert_eq!(restored.slot_bound(), f.slot_bound());
        assert_eq!(restored.free_slots(), f.free_slots());
        assert_eq!(
            restored.iter().collect::<Vec<_>>(),
            f.iter().collect::<Vec<_>>(),
            "preorder (ids and order) must match"
        );
        // Future insertions land on the same slots in both forests.
        let a = f.add_child(db).unwrap();
        let b = restored.add_child(db).unwrap();
        assert_eq!(a, b, "first reused slot must match");
        let a2 = f.add_child(att).unwrap();
        let b2 = restored.add_child(att).unwrap();
        assert_eq!(a2, b2, "second reused slot must match");
        assert_eq!(
            f.children(labs).collect::<Vec<_>>(),
            restored.children(labs).collect::<Vec<_>>()
        );
    }

    #[test]
    fn from_slots_rejects_inconsistent_snapshots() {
        let bad = |bound, live: &[(u32, Option<u32>)], free: &[u32]| {
            assert!(
                matches!(
                    Forest::from_slots(bound, live, free),
                    Err(ForestError::InvalidSnapshot { .. })
                ),
                "bound={bound} live={live:?} free={free:?} should be rejected"
            );
        };
        bad(1, &[(0, None), (1, Some(0))], &[]); // slot out of bound
        bad(2, &[(0, None), (0, Some(0))], &[]); // duplicate live slot
        bad(2, &[(1, Some(0)), (0, None)], &[]); // child before parent
        bad(2, &[(0, None)], &[0]); // free collides with live
        bad(3, &[(0, None)], &[1, 1]); // duplicate free slot
        bad(3, &[(0, None)], &[1]); // counts do not cover the bound
                                    // A valid snapshot for contrast.
        assert!(Forest::from_slots(3, &[(0, None), (2, Some(0))], &[1]).is_ok());
    }
}
