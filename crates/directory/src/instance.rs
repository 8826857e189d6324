//! The directory instance: Definition 2.1's `D = (R, class, val, N)`.
//!
//! [`DirectoryInstance`] combines the arena [`Forest`] (the relation `N`),
//! per-entry data ([`Entry`] gives `class` and `val`), the attribute
//! namespace, and optional RDN naming so entries can be addressed by
//! distinguished name. It also owns the [`InstanceIndex`] that query
//! evaluation and legality checking run against: call
//! [`DirectoryInstance::prepare`] after a batch of mutations, then read
//! through the shared accessors. The first `prepare()` numbers the forest
//! and builds the index; later ones post the entries the batch added or
//! changed (removals un-post on the spot), so a write of |ΔD| entries
//! costs |ΔD| postings, not a pass over the directory.

use std::fmt;
use std::sync::Arc;

use crate::attribute::AttributeRegistry;
use crate::cow::CowVec;
use crate::dn::{Dn, Rdn};
use crate::entry::Entry;
use crate::forest::{EntryId, Forest, ForestError};
use crate::index::InstanceIndex;

/// Errors from instance-level operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceError {
    /// Underlying forest error (missing entry, non-leaf deletion, ...).
    Forest(ForestError),
    /// A value failed its attribute's syntax validation.
    SyntaxViolation {
        /// Attribute whose value was invalid.
        attribute: String,
        /// The offending value.
        value: String,
        /// Why it was rejected.
        reason: String,
    },
    /// A sibling with a matching RDN already exists under the same parent
    /// (DNs must be unique: "the distinguished name of an entry serves as a
    /// key", paper §6.1).
    DuplicateRdn(String),
    /// The entry has no RDN so no DN can be formed.
    Unnamed(EntryId),
    /// A single-valued attribute was given several values.
    SingleValueViolation {
        /// The single-valued attribute.
        attribute: String,
        /// How many values the entry carried.
        count: usize,
    },
}

impl From<ForestError> for InstanceError {
    fn from(e: ForestError) -> Self {
        InstanceError::Forest(e)
    }
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::Forest(e) => write!(f, "{e}"),
            InstanceError::SyntaxViolation { attribute, value, reason } => {
                write!(f, "value {value:?} invalid for attribute {attribute:?}: {reason}")
            }
            InstanceError::DuplicateRdn(rdn) => {
                write!(f, "an entry named {rdn:?} already exists under this parent")
            }
            InstanceError::Unnamed(id) => write!(f, "entry {id} has no RDN"),
            InstanceError::SingleValueViolation { attribute, count } => {
                write!(f, "attribute {attribute:?} is single-valued but has {count} values")
            }
        }
    }
}

impl std::error::Error for InstanceError {}

/// One preorder row of a slot-exact instance snapshot: the raw slot
/// number, the parent's slot (if any), and the entry's naming and
/// content. Together with the arena bound and the free stack this is
/// the full observable state of an instance —
/// [`DirectoryInstance::from_slots`] rebuilds an instance with
/// byte-identical [`canonical_bytes`](DirectoryInstance::canonical_bytes)
/// *and* identical future slot assignment, which is what lets a journal
/// tail (addressing entries as `existing:<slot>`) replay on top of a
/// restored checkpoint.
#[derive(Debug, Clone)]
pub struct SlotRow {
    /// The raw arena slot ([`EntryId::index`]).
    pub slot: u32,
    /// The parent's slot, or `None` for roots.
    pub parent: Option<u32>,
    /// The entry's RDN, when named.
    pub rdn: Option<Rdn>,
    /// The entry content.
    pub entry: Entry,
}

/// What a [`DirectoryInstance::prepare`] call did to the index — the
/// write-amplification a caller can attribute to its batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Prepared {
    /// Entries posted to the maintained index.
    pub posted: usize,
    /// Whether the forest was renumbered and the index built from
    /// scratch instead: the first call, or after a move, a registry
    /// change or a batch past the rebuild bound.
    pub rebuilt: bool,
}

/// A batch — every entry queued for the index or taken out of it since
/// the last `prepare()`, a changed entry counting as both — of more than
/// one entry in this many sets the index aside for a rebuild. Patching
/// measured ≈19 µs an entry against a 30–44 ms build at 50k entries and
/// ≈2 µs against 1.2 ms at 2k (each post shifts the tail of every list
/// it lands in): the two met near `len / 30` at 50k and `len / 3` at 2k
/// (EXPERIMENTS.md SRV). The benchmark cannot re-check the value: every
/// `dirbench` write has |ΔD| ≤ 3, so the rebuilt side of the bound sees
/// no measured traffic until it has a bulk-TXN workload (ROADMAP item 7).
const REBUILD_FRACTION: usize = 32;

/// An LDAP directory instance.
///
/// Cloning is cheap and structurally shared: the entry and RDN tables
/// are chunked copy-on-write vectors, the registry and every list of
/// the index sit behind `Arc`s, and only the forest's link arena is
/// copied outright.
/// Two clones share every chunk neither has written to, so a clone is
/// the unit of atomicity of a transaction (mutate the copy, swap it in
/// or drop it) and of publication (readers keep the version they
/// started on).
#[derive(Debug, Clone)]
pub struct DirectoryInstance {
    forest: Forest,
    /// Slot-parallel entry storage.
    entries: CowVec<Option<Entry>>,
    /// Slot-parallel RDN storage (optional naming).
    rdns: CowVec<Option<Rdn>>,
    registry: Arc<AttributeRegistry>,
    /// `Some` from the first [`prepare`](Self::prepare) on: covers every
    /// live entry but those in `unposted`, and implies a numbered forest.
    index: Option<Arc<InstanceIndex>>,
    /// Entries added or handed out mutably since the last `prepare()`,
    /// which posts them under the content they have by then. Empty
    /// while there is no index to maintain.
    unposted: Vec<EntryId>,
    /// Entries taken out of the index since the last `prepare()`: with
    /// `unposted.len()`, the batch the rebuild bound measures.
    withdrawn: usize,
}

impl Default for DirectoryInstance {
    fn default() -> Self {
        DirectoryInstance::new(AttributeRegistry::new())
    }
}

impl DirectoryInstance {
    /// An empty instance over the given attribute namespace.
    pub fn new(registry: AttributeRegistry) -> Self {
        DirectoryInstance {
            forest: Forest::new(),
            entries: CowVec::new(),
            rdns: CowVec::new(),
            registry: Arc::new(registry),
            index: None,
            unposted: Vec::new(),
            withdrawn: 0,
        }
    }

    /// An empty instance with the white-pages attribute namespace.
    pub fn white_pages() -> Self {
        DirectoryInstance::new(AttributeRegistry::white_pages())
    }

    /// The instance's full observable state as slot-exact snapshot rows
    /// (preorder), for [`from_slots`](Self::from_slots). Pair with
    /// [`Forest::slot_bound`] and [`Forest::free_slots`] via
    /// [`forest`](Self::forest).
    pub fn slot_rows(&self) -> Vec<SlotRow> {
        self.forest
            .iter()
            .map(|id| SlotRow {
                slot: id.index() as u32,
                parent: self.forest.parent(id).map(|p| p.index() as u32),
                rdn: self.rdn(id).cloned(),
                entry: live_entry(&self.entries, id).clone(),
            })
            .collect()
    }

    /// Rebuilds an instance from a slot-exact snapshot: `rows` in
    /// preorder, the arena `slot_bound`, and the dead-slot `free` stack
    /// (bottom first). The result has byte-identical
    /// [`canonical_bytes`](Self::canonical_bytes) to the snapshot source
    /// and assigns the same slots to future insertions — unlike
    /// [`graft_subtree`](Self::graft_subtree), which renumbers.
    pub fn from_slots(
        registry: AttributeRegistry,
        slot_bound: usize,
        rows: Vec<SlotRow>,
        free: &[u32],
    ) -> Result<DirectoryInstance, InstanceError> {
        let live: Vec<(u32, Option<u32>)> = rows.iter().map(|r| (r.slot, r.parent)).collect();
        let forest = Forest::from_slots(slot_bound, &live, free)?;
        let mut instance = DirectoryInstance { forest, ..DirectoryInstance::new(registry) };
        instance.entries.grow_to(slot_bound, || None);
        instance.rdns.grow_to(slot_bound, || None);
        for row in rows {
            let id = EntryId::from_index(row.slot as usize);
            *instance.entry_slot(id) = Some(row.entry);
            *instance.rdn_slot(id) = row.rdn;
        }
        Ok(instance)
    }

    /// The attribute namespace.
    pub fn registry(&self) -> &AttributeRegistry {
        &self.registry
    }

    /// Mutable access to the attribute namespace (for late registration).
    /// Invalidates the index: which attributes carry equality postings
    /// is derived from the registry.
    pub fn registry_mut(&mut self) -> &mut AttributeRegistry {
        self.invalidate();
        Arc::make_mut(&mut self.registry)
    }

    /// The underlying forest (read-only).
    pub fn forest(&self) -> &Forest {
        &self.forest
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.forest.len()
    }

    /// True iff the instance has no entries.
    pub fn is_empty(&self) -> bool {
        self.forest.is_empty()
    }

    fn grow_slots(&mut self, id: EntryId) {
        self.entries.grow_to(id.index() + 1, || None);
        self.rdns.grow_to(id.index() + 1, || None);
    }

    /// Sets the index aside: the next `prepare()` renumbers and rebuilds.
    fn invalidate(&mut self) {
        self.index = None;
        self.unposted.clear();
        self.withdrawn = 0;
    }

    /// Whether `more` entries would take the batch since the last
    /// `prepare()` past the rebuild bound.
    fn past_rebuild_bound(&self, more: usize) -> bool {
        self.unposted.len() + self.withdrawn + more > self.forest.len() / REBUILD_FRACTION
    }

    /// Queues `id`, which the index does not hold, for the next
    /// `prepare()` to post.
    fn queue(&mut self, id: EntryId) {
        if self.index.is_some() {
            self.unposted.push(id);
            if self.past_rebuild_bound(0) {
                self.invalidate();
            }
        }
    }

    /// Takes the live entries `ids` out of the index, or out of the
    /// queue, ahead of their removal or a change of content — while the
    /// forest still knows their labels and the index their old content.
    fn unpost(&mut self, ids: &[EntryId]) {
        if self.index.is_none() {
            return;
        }
        if self.past_rebuild_bound(ids.len()) {
            return self.invalidate();
        }
        let index = Arc::make_mut(self.index.as_mut().expect("checked above"));
        for &id in ids {
            match self.unposted.iter().position(|&queued| queued == id) {
                Some(at) => {
                    self.unposted.swap_remove(at);
                }
                None => {
                    index.unpost(&self.forest, id, live_entry(&self.entries, id));
                    self.withdrawn += 1;
                }
            }
        }
    }

    /// The entry cell of an allocated slot, un-sharing its chunk.
    fn entry_slot(&mut self, id: EntryId) -> &mut Option<Entry> {
        self.entries.get_mut(id.index()).expect("slot is allocated")
    }

    /// The RDN cell of an allocated slot, un-sharing its chunk.
    fn rdn_slot(&mut self, id: EntryId) -> &mut Option<Rdn> {
        self.rdns.get_mut(id.index()).expect("slot is allocated")
    }

    // ----- construction -----

    /// Adds `entry` as a new root.
    pub fn add_root_entry(&mut self, entry: Entry) -> EntryId {
        let id = self.forest.add_root();
        self.grow_slots(id);
        *self.entry_slot(id) = Some(entry);
        *self.rdn_slot(id) = None;
        self.queue(id);
        id
    }

    /// Adds `entry` as a new child of `parent` (which must exist — LDAP
    /// requires new entries be roots or children of existing entries, §4.1).
    pub fn add_child_entry(
        &mut self,
        parent: EntryId,
        entry: Entry,
    ) -> Result<EntryId, InstanceError> {
        let id = self.forest.add_child(parent)?;
        self.grow_slots(id);
        *self.entry_slot(id) = Some(entry);
        *self.rdn_slot(id) = None;
        self.queue(id);
        Ok(id)
    }

    /// Adds a named root; the RDN must not collide with an existing root's.
    pub fn add_named_root(&mut self, rdn: Rdn, entry: Entry) -> Result<EntryId, InstanceError> {
        if self.find_root(&rdn).is_some() {
            return Err(InstanceError::DuplicateRdn(rdn.to_string()));
        }
        let id = self.add_root_entry(entry);
        *self.rdn_slot(id) = Some(rdn);
        Ok(id)
    }

    /// Adds a named child; the RDN must be unique among `parent`'s children.
    pub fn add_named_child(
        &mut self,
        parent: EntryId,
        rdn: Rdn,
        entry: Entry,
    ) -> Result<EntryId, InstanceError> {
        if self.find_child(parent, &rdn).is_some() {
            return Err(InstanceError::DuplicateRdn(rdn.to_string()));
        }
        let id = self.add_child_entry(parent, entry)?;
        *self.rdn_slot(id) = Some(rdn);
        Ok(id)
    }

    // ----- removal -----

    /// Removes a leaf entry (LDAP deletion discipline).
    pub fn remove_leaf(&mut self, id: EntryId) -> Result<Entry, InstanceError> {
        if self.forest.is_leaf(id) {
            self.unpost(&[id]);
        }
        self.forest.remove_leaf(id)?;
        *self.rdn_slot(id) = None;
        Ok(self.entry_slot(id).take().expect("live node has an entry"))
    }

    /// Removes the subtree rooted at `id`; returns removed `(id, entry)`
    /// pairs in post-order.
    pub fn remove_subtree(&mut self, id: EntryId) -> Result<Vec<(EntryId, Entry)>, InstanceError> {
        if self.index.is_some() && self.forest.contains(id) {
            let doomed = self.forest.postorder_of(id);
            self.unpost(&doomed);
        }
        let order = self.forest.remove_subtree(id)?;
        let mut out = Vec::with_capacity(order.len());
        for e in order {
            *self.rdn_slot(e) = None;
            out.push((e, self.entry_slot(e).take().expect("live node has an entry")));
        }
        Ok(out)
    }

    /// Moves the subtree rooted at `id` under `new_parent` (LDAP ModifyDN).
    /// If `id` is named, its RDN must not clash among the destination's
    /// children.
    pub fn move_subtree(&mut self, id: EntryId, new_parent: EntryId) -> Result<(), InstanceError> {
        if let Some(rdn) = self.rdn(id).cloned() {
            if self.find_child(new_parent, &rdn).is_some_and(|existing| existing != id) {
                return Err(InstanceError::DuplicateRdn(rdn.to_string()));
            }
        }
        self.forest.move_subtree(id, new_parent)?;
        self.invalidate();
        Ok(())
    }

    /// Detaches the subtree rooted at `id` into a new forest root.
    pub fn move_subtree_to_root(&mut self, id: EntryId) -> Result<(), InstanceError> {
        if let Some(rdn) = self.rdn(id).cloned() {
            if self.find_root(&rdn).is_some_and(|existing| existing != id) {
                return Err(InstanceError::DuplicateRdn(rdn.to_string()));
            }
        }
        self.forest.move_subtree_to_root(id)?;
        self.invalidate();
        Ok(())
    }

    // ----- access -----

    /// Whether `id` refers to a live entry.
    pub fn contains(&self, id: EntryId) -> bool {
        self.forest.contains(id)
    }

    /// The entry at `id`, if live.
    pub fn entry(&self, id: EntryId) -> Option<&Entry> {
        if !self.forest.contains(id) {
            return None;
        }
        self.entries.get(id.index()).and_then(Option::as_ref)
    }

    /// Mutable access to the entry at `id`. The index lets go of the
    /// entry (class membership and values may change); the next
    /// [`prepare`](Self::prepare) posts it as it is by then.
    pub fn entry_mut(&mut self, id: EntryId) -> Option<&mut Entry> {
        if !self.forest.contains(id) {
            return None;
        }
        self.unpost(&[id]);
        self.queue(id);
        self.entries.get_mut(id.index()).and_then(Option::as_mut)
    }

    /// The RDN of `id`, if the entry was added with a name.
    pub fn rdn(&self, id: EntryId) -> Option<&Rdn> {
        if !self.forest.contains(id) {
            return None;
        }
        self.rdns.get(id.index()).and_then(Option::as_ref)
    }

    /// Assigns or replaces the RDN of `id`.
    pub fn set_rdn(&mut self, id: EntryId, rdn: Rdn) -> Result<(), InstanceError> {
        if !self.forest.contains(id) {
            return Err(InstanceError::Forest(ForestError::NoSuchEntry(id)));
        }
        *self.rdn_slot(id) = Some(rdn);
        Ok(())
    }

    /// The full DN of `id`, built from its RDN chain. Errors if any entry on
    /// the path to the root is unnamed.
    pub fn dn(&self, id: EntryId) -> Result<Dn, InstanceError> {
        if !self.forest.contains(id) {
            return Err(InstanceError::Forest(ForestError::NoSuchEntry(id)));
        }
        let mut rdns = Vec::new();
        let mut cur = Some(id);
        while let Some(e) = cur {
            let rdn = self.rdn(e).ok_or(InstanceError::Unnamed(e))?;
            rdns.push(rdn.clone());
            cur = self.forest.parent(e);
        }
        Ok(Dn::from_rdns(rdns))
    }

    fn find_root(&self, rdn: &Rdn) -> Option<EntryId> {
        self.forest.roots().find(|&r| self.rdn(r).is_some_and(|x| x.matches(rdn)))
    }

    fn find_child(&self, parent: EntryId, rdn: &Rdn) -> Option<EntryId> {
        self.forest.children(parent).find(|&c| self.rdn(c).is_some_and(|x| x.matches(rdn)))
    }

    /// Resolves a DN to an entry by walking RDN components from the root.
    pub fn lookup_dn(&self, dn: &Dn) -> Option<EntryId> {
        let mut rdns = dn.rdns().iter().rev();
        let mut cur = self.find_root(rdns.next()?)?;
        for rdn in rdns {
            cur = self.find_child(cur, rdn)?;
        }
        Some(cur)
    }

    /// Iterates `(id, entry)` in preorder.
    pub fn iter(&self) -> impl Iterator<Item = (EntryId, &Entry)> {
        self.forest.iter().map(move |id| (id, live_entry(&self.entries, id)))
    }

    /// Copies the subtree of `src` rooted at `root` into this instance
    /// as a new top-level subtree, preserving preorder (and therefore
    /// sibling order), entry content, and naming. Slot ids in `self`
    /// are assigned in copy order, so grafting the same subtrees in the
    /// same order always yields the same canonical bytes — the basis of
    /// the sharded≡unsharded comparison, which rebuilds both engines'
    /// states through this method before comparing.
    pub fn graft_subtree(
        &mut self,
        src: &DirectoryInstance,
        root: EntryId,
    ) -> Result<EntryId, InstanceError> {
        let root_entry =
            src.entry(root).ok_or(InstanceError::Forest(ForestError::NoSuchEntry(root)))?.clone();
        let new_root = match src.rdn(root) {
            Some(rdn) => self.add_named_root(rdn.clone(), root_entry)?,
            None => self.add_root_entry(root_entry),
        };
        // Explicit stack, children pushed in reverse so pops preserve
        // sibling order.
        let mut stack: Vec<(EntryId, EntryId)> = Vec::new();
        let kids: Vec<EntryId> = src.forest.children(root).collect();
        for &k in kids.iter().rev() {
            stack.push((k, new_root));
        }
        while let Some((s, dst_parent)) = stack.pop() {
            let entry =
                src.entry(s).ok_or(InstanceError::Forest(ForestError::NoSuchEntry(s)))?.clone();
            let d = match src.rdn(s) {
                Some(rdn) => self.add_named_child(dst_parent, rdn.clone(), entry)?,
                None => self.add_child_entry(dst_parent, entry)?,
            };
            let kids: Vec<EntryId> = src.forest.children(s).collect();
            for &k in kids.iter().rev() {
                stack.push((k, d));
            }
        }
        Ok(new_root)
    }

    /// A canonical byte serialization of the full observable state: every
    /// live entry in preorder with its slot id, parent id, RDN, object
    /// classes, and attribute values in storage order. Two instances have
    /// equal canonical bytes iff they are observably identical — same
    /// ids, hierarchy, naming, and content — which is what the
    /// crash-consistency suite means by "byte-identical to the
    /// pre-transaction snapshot". Unlike the LDIF dump this covers
    /// unnamed entries, and unlike `PartialEq` on a derived struct it is
    /// insensitive to caches (the lazy index never participates).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        use std::fmt::Write;
        let mut out = String::new();
        for id in self.forest.iter() {
            let _ = match self.forest.parent(id) {
                Some(p) => write!(out, "{}<{}", id.index(), p.index()),
                None => write!(out, "{}<-", id.index()),
            };
            let _ = match self.rdn(id) {
                Some(rdn) => write!(out, " rdn={:?}", rdn.to_string()),
                None => write!(out, " rdn=-"),
            };
            if let Some(entry) = self.entry(id) {
                let _ = write!(out, " classes={:?}", entry.classes());
                for (attr, values) in entry.attributes() {
                    let _ = write!(out, " {attr:?}={values:?}");
                }
            }
            out.push('\n');
        }
        out.into_bytes()
    }

    // ----- validation against the attribute namespace -----

    /// Validates every (attribute, value) pair of `id` against the registry:
    /// syntax membership (`v ∈ dom(τ(a))`, Definition 2.1(3a)) and
    /// single-value restrictions. Unregistered attributes pass (the
    /// bounding-schema's *content* check is what constrains the vocabulary).
    pub fn validate_entry_values(&self, id: EntryId) -> Result<(), InstanceError> {
        let entry = self.entry(id).ok_or(InstanceError::Forest(ForestError::NoSuchEntry(id)))?;
        for (attr, values) in entry.attributes() {
            if let Some(def) = self.registry.get(attr) {
                if def.is_single_valued() && values.len() > 1 {
                    return Err(InstanceError::SingleValueViolation {
                        attribute: attr.to_owned(),
                        count: values.len(),
                    });
                }
                for value in values {
                    def.syntax().validate(value).map_err(|e| InstanceError::SyntaxViolation {
                        attribute: attr.to_owned(),
                        value: value.clone(),
                        reason: e.to_string(),
                    })?;
                }
            }
        }
        Ok(())
    }

    // ----- preparation for query / legality evaluation -----

    /// Ensures numbering and secondary indexes are fresh. Call once after a
    /// batch of mutations; read-only evaluation then uses the shared
    /// accessors below. Posts the batch to the index there is, or — the
    /// first time, and after what [`Prepared::rebuilt`] lists — numbers
    /// the forest and builds the index in one pass.
    pub fn prepare(&mut self) -> Prepared {
        let Some(index) = &mut self.index else {
            self.forest.ensure_numbered();
            self.index =
                Some(Arc::new(InstanceIndex::build(&self.forest, &self.entries, &self.registry)));
            return Prepared { posted: 0, rebuilt: true };
        };
        debug_assert!(self.forest.is_numbered(), "an index implies a numbered forest");
        self.withdrawn = 0;
        let posted = self.unposted.len();
        if posted > 0 {
            let index = Arc::make_mut(index);
            for id in self.unposted.drain(..) {
                index.post(&self.forest, &self.registry, id, live_entry(&self.entries, id));
            }
        }
        Prepared { posted, rebuilt: false }
    }

    /// Whether [`prepare`](Self::prepare) has run since the last addition
    /// or content change (a removal leaves a prepared instance prepared).
    pub fn is_prepared(&self) -> bool {
        self.index.is_some() && self.unposted.is_empty()
    }

    /// The secondary index.
    ///
    /// # Panics
    /// If the instance is not [`prepare`](Self::prepare)d.
    pub fn index(&self) -> &InstanceIndex {
        assert!(self.unposted.is_empty(), "instance not prepared; call prepare() after mutations");
        self.index.as_deref().expect("instance not prepared; call prepare() after mutations")
    }

    /// The structure layer's invariants: labels follow the preorder,
    /// every `end` is exact, and the maintained index equals the one a
    /// from-scratch build makes of the same entries. The oracle tests
    /// run after every mutation they apply.
    #[doc(hidden)]
    pub fn check_prepared(&self) -> Result<(), String> {
        if !self.is_prepared() {
            return Err("instance is not prepared".to_owned());
        }
        self.forest.check_numbering()?;
        let mut fresh = self.clone();
        fresh.invalidate();
        fresh.prepare();
        if fresh.index != self.index {
            return Err("the maintained index differs from a fresh build".to_owned());
        }
        Ok(())
    }
}

/// The entry of a live node — a free function over the one field, so
/// callers can hold the index or the queue mutably beside it.
fn live_entry(entries: &CowVec<Option<Entry>>, id: EntryId) -> &Entry {
    entries.get(id.index()).and_then(Option::as_ref).expect("live node has an entry")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Entry;

    fn person(uid: &str) -> Entry {
        Entry::builder().class("person").class("top").attr("uid", uid).build()
    }

    #[test]
    fn build_and_lookup_by_dn() {
        let mut d = DirectoryInstance::white_pages();
        let org = d
            .add_named_root(
                Rdn::single("o", "att"),
                Entry::builder().class("organization").class("top").attr("o", "att").build(),
            )
            .unwrap();
        let labs = d
            .add_named_child(
                org,
                Rdn::single("ou", "attLabs"),
                Entry::builder().class("orgUnit").class("top").attr("ou", "attLabs").build(),
            )
            .unwrap();
        let laks = d.add_named_child(labs, Rdn::single("uid", "laks"), person("laks")).unwrap();

        let dn = d.dn(laks).unwrap();
        assert_eq!(dn.to_string(), "uid=laks,ou=attLabs,o=att");
        assert_eq!(d.lookup_dn(&dn), Some(laks));
        assert_eq!(d.lookup_dn(&Dn::parse("uid=LAKS,ou=ATTLABS,o=ATT").unwrap()), Some(laks));
        assert_eq!(d.lookup_dn(&Dn::parse("uid=nope,ou=attLabs,o=att").unwrap()), None);
    }

    #[test]
    fn duplicate_rdn_rejected() {
        let mut d = DirectoryInstance::default();
        let org = d.add_named_root(Rdn::single("o", "att"), person("x")).unwrap();
        d.add_named_child(org, Rdn::single("uid", "a"), person("a")).unwrap();
        let err = d.add_named_child(org, Rdn::single("uid", "A"), person("a2")).unwrap_err();
        assert!(matches!(err, InstanceError::DuplicateRdn(_)));
        // Same RDN under a *different* parent is fine.
        let org2 = d.add_named_root(Rdn::single("o", "ibm"), person("y")).unwrap();
        d.add_named_child(org2, Rdn::single("uid", "a"), person("a")).unwrap();
    }

    #[test]
    fn remove_leaf_returns_entry() {
        let mut d = DirectoryInstance::default();
        let r = d.add_root_entry(person("a"));
        let c = d.add_child_entry(r, person("b")).unwrap();
        let e = d.remove_leaf(c).unwrap();
        assert_eq!(e.first_value("uid"), Some("b"));
        assert!(d.entry(c).is_none());
        assert!(d.remove_leaf(r).is_ok());
        assert!(d.is_empty());
    }

    #[test]
    fn canonical_bytes_detect_any_observable_change() {
        let mut d = DirectoryInstance::default();
        let r = d.add_root_entry(person("r"));
        let m = d.add_child_entry(r, person("m")).unwrap();
        let baseline = d.canonical_bytes();
        // A clone is byte-identical; preparing the index changes nothing.
        let mut clone = d.clone();
        clone.prepare();
        assert_eq!(clone.canonical_bytes(), baseline);
        // Content, naming, and structure changes all show up.
        clone.entry_mut(m).unwrap().add_value("title", "x");
        assert_ne!(clone.canonical_bytes(), baseline);
        let mut named = d.clone();
        named.set_rdn(m, Rdn::single("uid", "m")).unwrap();
        assert_ne!(named.canonical_bytes(), baseline);
        let mut moved = d.clone();
        let _ = moved.add_child_entry(m, person("leaf")).unwrap();
        assert_ne!(moved.canonical_bytes(), baseline);
    }

    #[test]
    fn remove_subtree_returns_postorder() {
        let mut d = DirectoryInstance::default();
        let r = d.add_root_entry(person("r"));
        let m = d.add_child_entry(r, person("m")).unwrap();
        let l = d.add_child_entry(m, person("l")).unwrap();
        let removed = d.remove_subtree(m).unwrap();
        assert_eq!(removed.len(), 2);
        assert_eq!(removed[0].0, l);
        assert_eq!(removed[1].0, m);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn move_subtree_checks_rdn_uniqueness() {
        let mut d = DirectoryInstance::default();
        let r1 = d.add_named_root(Rdn::single("o", "a"), person("a")).unwrap();
        let r2 = d.add_named_root(Rdn::single("o", "b"), person("b")).unwrap();
        let kid = d.add_named_child(r1, Rdn::single("uid", "k"), person("k")).unwrap();
        d.add_named_child(r2, Rdn::single("uid", "k"), person("k2")).unwrap();
        // Moving kid under r2 would clash with the existing uid=k child.
        assert!(matches!(d.move_subtree(kid, r2), Err(InstanceError::DuplicateRdn(_))));
        // Moving under a fresh parent works and updates the DN.
        let r3 = d.add_named_root(Rdn::single("o", "c"), person("c")).unwrap();
        d.move_subtree(kid, r3).unwrap();
        assert_eq!(d.dn(kid).unwrap().to_string(), "uid=k,o=c");
    }

    #[test]
    fn prepare_and_index() {
        let mut d = DirectoryInstance::default();
        let r = d.add_root_entry(person("a"));
        d.add_child_entry(r, person("b")).unwrap();
        assert!(!d.is_prepared());
        d.prepare();
        assert!(d.is_prepared());
        assert_eq!(d.index().entries_with_class("person").len(), 2);
        // Mutation invalidates.
        d.entry_mut(r).unwrap().add_class("online");
        assert!(!d.is_prepared());
        d.prepare();
        assert_eq!(d.index().entries_with_class("online").len(), 1);
    }

    #[test]
    fn validate_entry_values_checks_syntax() {
        let mut d = DirectoryInstance::white_pages();
        let ok =
            d.add_root_entry(Entry::builder().class("person").attr("employeeNumber", "42").build());
        d.prepare();
        assert!(d.validate_entry_values(ok).is_ok());

        let bad = d.add_root_entry(
            Entry::builder().class("person").attr("employeeNumber", "forty-two").build(),
        );
        assert!(matches!(d.validate_entry_values(bad), Err(InstanceError::SyntaxViolation { .. })));

        let mut e = Entry::builder().class("person").build();
        e.add_value("uid", "a");
        e.add_value("uid", "b");
        let multi = d.add_root_entry(e);
        assert!(matches!(
            d.validate_entry_values(multi),
            Err(InstanceError::SingleValueViolation { .. })
        ));
    }

    #[test]
    fn dn_of_unnamed_entry_errors() {
        let mut d = DirectoryInstance::default();
        let r = d.add_root_entry(person("a"));
        assert!(matches!(d.dn(r), Err(InstanceError::Unnamed(_))));
        d.set_rdn(r, Rdn::single("uid", "a")).unwrap();
        assert_eq!(d.dn(r).unwrap().to_string(), "uid=a");
    }

    #[test]
    fn graft_subtree_preserves_order_naming_and_content() {
        let mut d = DirectoryInstance::default();
        let r = d.add_named_root(Rdn::single("o", "a"), person("r")).unwrap();
        let a = d.add_named_child(r, Rdn::single("uid", "a"), person("a")).unwrap();
        d.add_named_child(r, Rdn::single("uid", "b"), person("b")).unwrap();
        d.add_child_entry(a, person("leaf")).unwrap();

        let mut fresh = DirectoryInstance::default();
        let copied = fresh.graft_subtree(&d, r).unwrap();
        assert_eq!(fresh.len(), 4);
        assert_eq!(fresh.rdn(copied).unwrap().to_string(), "o=a");
        let uids: Vec<_> =
            fresh.iter().map(|(_, e)| e.first_value("uid").unwrap().to_owned()).collect();
        assert_eq!(uids, ["r", "a", "leaf", "b"], "graft must preserve preorder");
        // The unnamed leaf stays unnamed.
        assert_eq!(fresh.iter().filter(|&(id, _)| fresh.rdn(id).is_none()).count(), 1);
        // Same graft order ⇒ same canonical bytes, regardless of the
        // source's slot history.
        let mut again = DirectoryInstance::default();
        again.graft_subtree(&d, r).unwrap();
        assert_eq!(fresh.canonical_bytes(), again.canonical_bytes());
    }

    #[test]
    fn slot_snapshot_roundtrip_is_exact() {
        let mut d = DirectoryInstance::white_pages();
        let r = d.add_named_root(Rdn::single("o", "att"), person("r")).unwrap();
        let a = d.add_named_child(r, Rdn::single("uid", "a"), person("a")).unwrap();
        let b = d.add_child_entry(r, person("b")).unwrap();
        d.add_child_entry(a, person("leaf")).unwrap();
        // Punch a hole so the free stack matters.
        d.remove_leaf(b).unwrap();

        let rows = d.slot_rows();
        let restored = DirectoryInstance::from_slots(
            d.registry().clone(),
            d.forest().slot_bound(),
            rows,
            d.forest().free_slots(),
        )
        .unwrap();
        assert_eq!(restored.canonical_bytes(), d.canonical_bytes());
        assert_eq!(restored.forest().free_slots(), d.forest().free_slots());
        // Future insertions land on the same slot in both.
        let mut live = d.clone();
        let mut rest = restored.clone();
        let x = live.add_child_entry(r, person("x")).unwrap();
        let y = rest.add_child_entry(r, person("x")).unwrap();
        assert_eq!(x, y, "reused slot must match");
        assert_eq!(live.canonical_bytes(), rest.canonical_bytes());
    }

    #[test]
    fn iter_is_preorder() {
        let mut d = DirectoryInstance::default();
        let r = d.add_root_entry(person("r"));
        let a = d.add_child_entry(r, person("a")).unwrap();
        let b = d.add_child_entry(r, person("b")).unwrap();
        let ids: Vec<_> = d.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, [r, a, b]);
        let uids: Vec<_> =
            d.iter().map(|(_, e)| e.first_value("uid").unwrap().to_owned()).collect();
        assert_eq!(uids, ["r", "a", "b"]);
    }
}
