//! The directory instance: Definition 2.1's `D = (R, class, val, N)`.
//!
//! [`DirectoryInstance`] combines the arena [`Forest`] (the relation `N`),
//! per-entry data ([`Entry`] gives `class` and `val`), the attribute
//! namespace, and optional RDN naming so entries can be addressed by
//! distinguished name. It also owns the [`InstanceIndex`] that query
//! evaluation and legality checking run against: call
//! [`DirectoryInstance::prepare`] after a batch of mutations, then read
//! through the shared accessors. The first `prepare()` numbers the forest
//! and builds the index; later ones post the entries the batch added and
//! re-post the ones it changed (removals un-post on the spot), so a write
//! of |ΔD| entries costs |ΔD| postings, not a pass over the directory.
//!
//! A DN is a key (paper §6.1), and [`DirectoryInstance::lookup_dn`]
//! resolves it as one: the RDN table is also a copy-on-write hash table
//! keyed by (parent slot or "root", normalised RDN) (`names.rs`),
//! so each level of a DN is one probe, whatever the number of roots or
//! siblings, and the duplicate checks of a named insertion are one probe
//! too. A write touches O(1) of its chunks. Its bucket heads are sized
//! to a power of two at least the named count: a load sizes them from
//! its record count and [`from_slots`](DirectoryInstance::from_slots)
//! from its rows; past that they double, re-chaining every named slot
//! from its stored hash without normalising any RDN again, and they
//! never shrink, so a directory that grows and shrinks by a few entries
//! around a boundary pays one doubling, not one per crossing. One
//! doubling at 50k names (65 536 → 131 072 heads) took 0.6–0.9 ms on an
//! instance that owns its RDN table (a load, a graft, a restore) and
//! 23–50 ms on a clone that shares it, a served write past the size a
//! load set: re-chaining writes every named slot, so every RDN chunk is
//! copied, RDN by RDN (2-vCPU shared host, release build).

use std::fmt;
use std::sync::Arc;

use crate::attribute::AttributeRegistry;
use crate::cow::CowVec;
use crate::dn::{Dn, Rdn};
use crate::entry::Entry;
use crate::forest::{EntryId, Forest, ForestError};
use crate::index::InstanceIndex;
use crate::names::{Names, Probe};

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
/// content (shared with the instance it was taken from). Together with
/// the arena bound and the free stack this is the full observable state
/// of an instance —
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
    pub entry: Arc<Entry>,
}

/// What a [`DirectoryInstance::prepare`] call did to the index — the
/// write-amplification a caller can attribute to its batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Prepared {
    /// Entries posted to the maintained index: added ones, and changed
    /// ones re-posted.
    pub posted: usize,
    /// Whether the forest was renumbered and the index built from
    /// scratch instead: the first call, or after a registry change or a
    /// batch past the rebuild bound.
    pub rebuilt: bool,
    /// Posting-list chunks and value tables the batch copied out of a
    /// version it shares them with, or split off — its removals' un-posts
    /// included. O(1) per list an entry joins or leaves, whatever |D|;
    /// the first write to a freshly built list pays one split of it.
    pub unshared: usize,
}

/// A batch — every entry queued for the index or taken out of it since
/// the last `prepare()`, a changed entry counting as both — of more than
/// one entry in this many sets the index aside for a rebuild. Patching
/// measured ≈19 µs an entry against a 30–44 ms build at 50k entries and
/// ≈2 µs against 1.2 ms at 2k (each post shifts the tail of every list
/// it lands in): the two met near `len / 30` at 50k and `len / 3` at 2k
/// (EXPERIMENTS.md SRV). The benchmark cannot re-check the value: every
/// `dirbench` write has |ΔD| ≤ 3, so the rebuilt side of the bound sees
/// no measured traffic until it has a bulk-TXN workload (ROADMAP item 1).
const REBUILD_FRACTION: usize = 32;

/// An LDAP directory instance.
///
/// Cloning is cheap and structurally shared: the entry table, the RDN
/// table, the name table's bucket heads and the forest's link arena are
/// chunked copy-on-write vectors, the registry sits behind an `Arc` and
/// the index is chunked the same way, so a clone copies one pointer per
/// chunk and nothing else of size |D|. Entries sit behind their own
/// `Arc`s, so un-sharing an entry chunk copies its pointers, and an edit
/// copies the one entry it edits.
/// Two clones share every chunk neither has written to, so a clone is
/// the unit of atomicity of a transaction (mutate the copy, swap it in
/// or drop it) and of publication (readers keep the version they
/// started on).
#[derive(Debug, Clone)]
pub struct DirectoryInstance {
    forest: Forest,
    /// Slot-parallel entry storage, each entry shared until edited.
    entries: CowVec<Option<Arc<Entry>>>,
    /// Slot-parallel RDN storage (optional naming), chained into the
    /// (parent, RDN) → child name table.
    names: Names,
    registry: Arc<AttributeRegistry>,
    /// `Some` from the first [`prepare`](Self::prepare) on: covers every
    /// live entry but those in `unposted`, holds those in `changed` under
    /// their former content, and implies a numbered forest.
    index: Option<Arc<InstanceIndex>>,
    /// Entries added since the last `prepare()`, which posts them under
    /// the content they have by then. Empty while there is no index to
    /// maintain.
    unposted: Vec<EntryId>,
    /// Entries handed out mutably since the last `prepare()`, with the
    /// content the index holds them under: `prepare()` re-posts each from
    /// that content to the one it has by then.
    changed: Vec<(EntryId, Arc<Entry>)>,
    /// Entries taken out of the index since the last `prepare()`: with
    /// the two queues, the batch the rebuild bound measures.
    withdrawn: usize,
    /// Chunks and value tables the batch has copied or split so far
    /// ([`Prepared::unshared`]).
    unshared: usize,
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
            names: Names::default(),
            registry: Arc::new(registry),
            index: None,
            unposted: Vec::new(),
            changed: Vec::new(),
            withdrawn: 0,
            unshared: 0,
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
                entry: Arc::clone(live_arc(&self.entries, id)),
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
        instance.names.grow_to(slot_bound);
        instance.names.reserve(rows.iter().filter(|row| row.rdn.is_some()).count());
        for row in rows {
            let id = EntryId::from_index(row.slot as usize);
            *instance.entry_slot(id) = Some(row.entry);
            if let Some(rdn) = row.rdn {
                let parent = row.parent.map(|p| EntryId::from_index(p as usize));
                let hash = instance.names.hash(parent, &rdn);
                instance.names.link(id, rdn, hash);
            }
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
        self.names.grow_to(id.index() + 1);
        debug_assert!(self.names.rdn(id.index()).is_none(), "a free slot is unnamed");
    }

    /// Sets the index aside: the next `prepare()` renumbers and rebuilds.
    fn invalidate(&mut self) {
        self.index = None;
        self.unposted.clear();
        self.changed.clear();
        self.withdrawn = 0;
        self.unshared = 0;
    }

    /// Whether `more` entries would take the batch since the last
    /// `prepare()` past the rebuild bound.
    fn past_rebuild_bound(&self, more: usize) -> bool {
        let batch = self.unposted.len() + 2 * self.changed.len() + self.withdrawn + more;
        batch > self.forest.len() / REBUILD_FRACTION
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

    /// Notes that the live entry `id` is about to change content: unless
    /// it is queued already, `prepare()` re-posts it from what it holds
    /// now.
    fn queue_change(&mut self, id: EntryId) {
        if self.index.is_none()
            || self.unposted.contains(&id)
            || self.changed.iter().any(|(queued, _)| *queued == id)
        {
            return;
        }
        self.changed.push((id, Arc::clone(live_arc(&self.entries, id))));
        if self.past_rebuild_bound(0) {
            self.invalidate();
        }
    }

    /// Takes the live entries `ids` out of the index, or out of the
    /// queues, ahead of their removal — while the forest still knows their
    /// labels and the index the content it holds them under.
    fn unpost(&mut self, ids: &[EntryId]) {
        if self.index.is_none() {
            return;
        }
        if self.past_rebuild_bound(ids.len()) {
            return self.invalidate();
        }
        let index = Arc::make_mut(self.index.as_mut().expect("checked above"));
        for &id in ids {
            if let Some(at) = self.unposted.iter().position(|&queued| queued == id) {
                self.unposted.swap_remove(at);
                continue;
            }
            let at = self.changed.iter().position(|(queued, _)| *queued == id);
            let old = at.map(|at| self.changed.swap_remove(at).1);
            let posted = old.as_deref().unwrap_or_else(|| live_entry(&self.entries, id));
            self.unshared += index.unpost(&self.forest, id, posted);
            self.withdrawn += 1;
        }
    }

    /// The entry cell of an allocated slot, un-sharing its chunk.
    fn entry_slot(&mut self, id: EntryId) -> &mut Option<Arc<Entry>> {
        self.entries.get_mut(id.index()).expect("slot is allocated")
    }

    // ----- construction -----

    /// Adds `entry` as a new root.
    pub fn add_root_entry(&mut self, entry: Entry) -> EntryId {
        let id = self.forest.add_root();
        self.grow_slots(id);
        *self.entry_slot(id) = Some(Arc::new(entry));
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
        *self.entry_slot(id) = Some(Arc::new(entry));
        self.queue(id);
        Ok(id)
    }

    /// Adds a named root; the RDN must not collide with an existing root's.
    pub fn add_named_root(&mut self, rdn: Rdn, entry: Entry) -> Result<EntryId, InstanceError> {
        let hash = self.names.hash(None, &rdn);
        if self.resolve(None, &rdn, hash).is_some() {
            return Err(InstanceError::DuplicateRdn(rdn.to_string()));
        }
        let id = self.add_root_entry(entry);
        self.names.link(id, rdn, hash);
        Ok(id)
    }

    /// Adds a named child; the RDN must be unique among `parent`'s children.
    pub fn add_named_child(
        &mut self,
        parent: EntryId,
        rdn: Rdn,
        entry: Entry,
    ) -> Result<EntryId, InstanceError> {
        let hash = self.names.hash(Some(parent), &rdn);
        if self.resolve(Some(parent), &rdn, hash).is_some() {
            return Err(InstanceError::DuplicateRdn(rdn.to_string()));
        }
        let id = self.add_child_entry(parent, entry)?;
        self.names.link(id, rdn, hash);
        Ok(id)
    }

    // ----- removal -----

    /// Removes a leaf entry (LDAP deletion discipline); returns its
    /// content, still shared with any version that holds it.
    pub fn remove_leaf(&mut self, id: EntryId) -> Result<Arc<Entry>, InstanceError> {
        if self.forest.is_leaf(id) {
            self.unpost(&[id]);
        }
        self.forest.remove_leaf(id)?;
        self.names.unlink(id);
        Ok(self.entry_slot(id).take().expect("live node has an entry"))
    }

    /// Removes the subtree rooted at `id`; returns removed `(id, entry)`
    /// pairs in post-order, each entry still shared with any version
    /// that holds it.
    pub fn remove_subtree(
        &mut self,
        id: EntryId,
    ) -> Result<Vec<(EntryId, Arc<Entry>)>, InstanceError> {
        if self.index.is_some() && self.forest.contains(id) {
            let doomed = self.forest.postorder_of(id);
            self.unpost(&doomed);
        }
        let order = self.forest.remove_subtree(id)?;
        let mut out = Vec::with_capacity(order.len());
        for e in order {
            self.names.unlink(e);
            out.push((e, self.entry_slot(e).take().expect("live node has an entry")));
        }
        Ok(out)
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
        self.entries.get(id.index()).and_then(Option::as_deref)
    }

    /// Mutable access to the entry at `id`. Class membership and values
    /// may change: the next [`prepare`](Self::prepare) moves the entry to
    /// the lists its content then puts it in, touching only those whose
    /// membership changed. The entry is copied first if another version
    /// (or the index's pre-image of it) still shares it: the one entry
    /// copy a write makes.
    pub fn entry_mut(&mut self, id: EntryId) -> Option<&mut Entry> {
        if !self.forest.contains(id) {
            return None;
        }
        self.queue_change(id);
        let entry = self.entries.get_mut(id.index())?.as_mut()?;
        Some(Arc::make_mut(entry))
    }

    /// The RDN of `id`, if the entry was added with a name.
    pub fn rdn(&self, id: EntryId) -> Option<&Rdn> {
        if !self.forest.contains(id) {
            return None;
        }
        self.names.rdn(id.index())
    }

    /// Assigns or replaces the RDN of `id`.
    pub fn set_rdn(&mut self, id: EntryId, rdn: Rdn) -> Result<(), InstanceError> {
        if !self.forest.contains(id) {
            return Err(InstanceError::Forest(ForestError::NoSuchEntry(id)));
        }
        self.names.unlink(id);
        let hash = self.names.hash(self.forest.parent(id), &rdn);
        self.names.link(id, rdn, hash);
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

    /// The child of `parent` (`None`: the root) whose RDN matches `rdn` —
    /// the sibling a named insertion there would collide with. One probe
    /// of the name table.
    pub fn named_child(&self, parent: Option<EntryId>, rdn: &Rdn) -> Option<EntryId> {
        self.resolve(parent, rdn, self.names.hash(parent, rdn))
    }

    /// [`named_child`](Self::named_child) for a key already hashed.
    fn resolve(&self, parent: Option<EntryId>, rdn: &Rdn, hash: u32) -> Option<EntryId> {
        match self.names.find(&self.forest, parent, rdn, hash) {
            Probe::Absent => None,
            Probe::One(id) => Some(id),
            Probe::Several => self.first_matching_sibling(parent, rdn),
        }
    }

    /// The duplicate fallback: the first of several matching siblings in
    /// sibling order, which is the one a name denoted before the table
    /// existed. Only an instance built without the name checks
    /// ([`set_rdn`](Self::set_rdn), [`from_slots`](Self::from_slots)) has
    /// such siblings, so no resolution of a checked instance scans.
    fn first_matching_sibling(&self, parent: Option<EntryId>, rdn: &Rdn) -> Option<EntryId> {
        let mut siblings = match parent {
            Some(parent) => self.forest.children(parent),
            None => self.forest.roots(),
        };
        siblings.find(|&s| self.rdn(s).is_some_and(|x| x.matches(rdn)))
    }

    /// The ids the next `n` insertions will take, in order
    /// ([`Forest::next_ids`]).
    pub fn next_ids(&self, n: usize) -> impl Iterator<Item = EntryId> + '_ {
        self.forest.next_ids(n)
    }

    /// Resolves a DN to an entry, one name-table probe per RDN from the
    /// root down.
    pub fn lookup_dn(&self, dn: &Dn) -> Option<EntryId> {
        self.lookup_rdns(dn.rdns())
    }

    /// Resolves leaf-first RDNs as [`lookup_dn`](Self::lookup_dn) does a
    /// DN's — `&dn.rdns()[1..]` is the parent's, with no parent DN built.
    /// The empty slice names no entry.
    pub fn lookup_rdns(&self, rdns: &[Rdn]) -> Option<EntryId> {
        let (top, below) = rdns.split_last()?;
        let mut cur = self.named_child(None, top)?;
        for rdn in below.iter().rev() {
            cur = self.named_child(Some(cur), rdn)?;
        }
        Some(cur)
    }

    /// Makes room in the name table for `additional` more names, so a
    /// load that knows its record count sizes the table once.
    pub fn reserve_names(&mut self, additional: usize) {
        let named = self.forest.len() + additional;
        self.names.reserve(named);
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
    ///
    /// Unlike every other path into the entry table, a graft copies each
    /// entry instead of sharing its `Arc`: it builds a new directory (the
    /// sharded open), whose entries then sit together in the heap rather
    /// than interleaved with the other shards' where the loader left
    /// them. Sharing them read `sharded-20k` `search_eq_p50_ms` ×1.19–1.26
    /// (EXPERIMENTS.md SHARE).
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
            return Prepared { posted: 0, rebuilt: true, unshared: 0 };
        };
        debug_assert!(self.forest.is_numbered(), "an index implies a numbered forest");
        self.withdrawn = 0;
        let posted = self.unposted.len() + self.changed.len();
        let mut unshared = std::mem::take(&mut self.unshared);
        if posted > 0 {
            let (forest, registry) = (&self.forest, &self.registry);
            let index = Arc::make_mut(index);
            for id in self.unposted.drain(..) {
                unshared += index.post(forest, registry, id, live_entry(&self.entries, id));
            }
            for (id, old) in self.changed.drain(..) {
                let new = live_entry(&self.entries, id);
                unshared += index.repost(forest, registry, id, &old, new);
            }
        }
        Prepared { posted, rebuilt: false, unshared }
    }

    /// Whether [`prepare`](Self::prepare) has run since the last addition
    /// or content change (a removal leaves a prepared instance prepared).
    pub fn is_prepared(&self) -> bool {
        self.index.is_some() && self.unposted.is_empty() && self.changed.is_empty()
    }

    /// The secondary index.
    ///
    /// # Panics
    /// If the instance is not [`prepare`](Self::prepare)d.
    pub fn index(&self) -> &InstanceIndex {
        assert!(
            self.unposted.is_empty() && self.changed.is_empty(),
            "instance not prepared; call prepare() after mutations"
        );
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
fn live_entry(entries: &CowVec<Option<Arc<Entry>>>, id: EntryId) -> &Entry {
    live_arc(entries, id)
}

/// [`live_entry`]'s `Arc`, for a caller that keeps a handle on it.
fn live_arc(entries: &CowVec<Option<Arc<Entry>>>, id: EntryId) -> &Arc<Entry> {
    entries.get(id.index()).and_then(Option::as_ref).expect("live node has an entry")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dn::Ava;
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

    /// An organisation of `units` units of 100 people each, prepared:
    /// |D| = 1 + 101 · `units`. Returns it with its root.
    fn org(units: usize) -> (DirectoryInstance, EntryId) {
        let mut d = DirectoryInstance::white_pages();
        let root = d.add_root_entry(Entry::builder().class("organization").attr("o", "x").build());
        for u in 0..units {
            let unit = Entry::builder().class("orgUnit").attr("ou", format!("u{u}")).build();
            let unit = d.add_child_entry(root, unit).unwrap();
            for p in 0..100 {
                d.add_child_entry(unit, person(&format!("u{u}p{p}"))).unwrap();
            }
        }
        d.prepare();
        (d, root)
    }

    /// What `next` did to `before`'s entry table, slot by slot: entries
    /// it added, live entries it holds a copy of rather than `before`'s
    /// own `Arc`, and entries it removed.
    fn entry_delta(before: &DirectoryInstance, next: &DirectoryInstance) -> [usize; 3] {
        fn live(d: &DirectoryInstance, slot: usize) -> Option<&Arc<Entry>> {
            let id = EntryId::from_index(slot);
            d.contains(id).then(|| live_arc(&d.entries, id))
        }
        let mut delta = [0; 3];
        for slot in 0..before.entries.len().max(next.entries.len()) {
            match (live(before, slot), live(next, slot)) {
                (None, Some(_)) => delta[0] += 1,
                (Some(old), Some(new)) if !Arc::ptr_eq(old, new) => delta[1] += 1,
                (Some(_), None) => delta[2] += 1,
                _ => {}
            }
        }
        delta
    }

    #[test]
    fn a_write_shares_every_entry_it_does_not_add_or_edit_at_2k_as_at_20k() {
        // [added, edited, removed] after a 3-entry insert, a MODIFY and a
        // 3-entry subtree delete, each on a clone of the state before it.
        let writes = |units: usize| {
            let (base, root) = org(units);
            let bytes = base.canonical_bytes();

            let mut inserted = base.clone();
            let unit = Entry::builder().class("orgUnit").attr("ou", "new").build();
            let unit = inserted.add_child_entry(root, unit).unwrap();
            for uid in ["n1", "n2"] {
                inserted.add_child_entry(unit, person(uid)).unwrap();
            }
            inserted.prepare();

            let mut modified = inserted.clone();
            let target = EntryId::from_index(5);
            modified.entry_mut(target).unwrap().add_value("title", "lead");
            let (queued, pre_image) = &modified.changed[0];
            assert_eq!(*queued, target);
            assert!(
                Arc::ptr_eq(pre_image, live_arc(&inserted.entries, target)),
                "the index's pre-image of an edited entry is the published entry, not a copy"
            );
            modified.prepare();

            let mut deleted = modified.clone();
            let removed = deleted.remove_subtree(unit).unwrap();
            for (id, entry) in &removed {
                assert!(
                    Arc::ptr_eq(entry, live_arc(&modified.entries, *id)),
                    "a removed entry is handed back shared, not copied"
                );
            }
            deleted.prepare();

            assert_eq!(base.canonical_bytes(), bytes, "the base never sees its clones' writes");
            assert_eq!(modified.entry(target).unwrap().first_value("title"), Some("lead"));
            assert_eq!(inserted.entry(target).unwrap().first_value("title"), None);
            [
                entry_delta(&base, &inserted),
                entry_delta(&inserted, &modified),
                entry_delta(&modified, &deleted),
            ]
        };
        let expected = [[3, 0, 0], [0, 1, 0], [0, 0, 3]];
        assert_eq!(writes(20), expected, "at 2 021 entries");
        assert_eq!(writes(200), expected, "at 20 201 entries");
    }

    /// Name resolution as it was before the name table, kept as the
    /// oracle: a scan of the roots, then of each level's siblings, for
    /// the first RDN that matches.
    fn scan_child(d: &DirectoryInstance, parent: Option<EntryId>, rdn: &Rdn) -> Option<EntryId> {
        let matching = |&s: &EntryId| d.rdn(s).is_some_and(|x| x.matches(rdn));
        match parent {
            Some(parent) => d.forest.children(parent).find(matching),
            None => d.forest.roots().find(matching),
        }
    }

    fn scan_lookup(d: &DirectoryInstance, dn: &Dn) -> Option<EntryId> {
        let mut rdns = dn.rdns().iter().rev();
        let mut cur = scan_child(d, None, rdns.next()?)?;
        for rdn in rdns {
            cur = scan_child(d, Some(cur), rdn)?;
        }
        Some(cur)
    }

    /// A seeded xorshift stream: `next(bound)` is uniform enough below
    /// `bound`.
    fn stream(seed: u64) -> impl FnMut(usize) -> usize {
        let mut state = seed | 1;
        move |bound| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        }
    }

    /// Values that collide only under case folding and whitespace
    /// collapsing, ASCII or not (`\u{212A}`, the Kelvin sign, folds to
    /// `k`).
    const VALUES: [&str; 14] = [
        "a", "A", " a ", "k", "K", "\u{212A}", "x y", "X  Y", "x\ty", "café", "CAFÉ", "Straße",
        "b", "",
    ];

    fn random_rdn(next: &mut impl FnMut(usize) -> usize) -> Rdn {
        let value = |next: &mut dyn FnMut(usize) -> usize| VALUES[next(VALUES.len())];
        let attr = |next: &mut dyn FnMut(usize) -> usize| ["cn", "CN", "uid", "ou"][next(4)];
        match next(5) {
            0 => {
                // A multi-valued RDN, written in either order.
                let (a, b) = (Ava::new(attr(next), value(next)), Ava::new("sn", value(next)));
                let avas = if next(2) == 0 { vec![a, b] } else { vec![b, a] };
                Rdn::new(avas).unwrap()
            }
            _ => Rdn::single(attr(next), value(next)),
        }
    }

    /// The table answers every query the scan does, exactly: every live
    /// DN, and `named_child` of random parents (dead ones included) and
    /// names.
    fn assert_table_is_scan(d: &DirectoryInstance, next: &mut impl FnMut(usize) -> usize) {
        d.names.check_chains().unwrap();
        let live: Vec<EntryId> = d.forest.iter().collect();
        for &id in &live {
            if let Ok(dn) = d.dn(id) {
                assert_eq!(d.lookup_dn(&dn), scan_lookup(d, &dn), "{dn}");
                let upper = Dn::parse(&dn.to_string().to_uppercase()).unwrap();
                assert_eq!(d.lookup_dn(&upper), scan_lookup(d, &upper), "{upper}");
            }
        }
        for _ in 0..64 {
            let parent = match next(4) {
                0 => None,
                _ if live.is_empty() => None,
                1 => Some(EntryId::from_index(next(d.forest.slot_bound() + 2))),
                _ => Some(live[next(live.len())]),
            };
            let rdn = random_rdn(next);
            assert_eq!(
                d.named_child(parent, &rdn),
                scan_child(d, parent, &rdn),
                "{parent:?} {rdn}"
            );
        }
    }

    /// One random write: a named or unnamed insertion (refused when the
    /// scan finds the name taken), a leaf or subtree removal, or a rename
    /// that may make two siblings match.
    fn random_write(d: &mut DirectoryInstance, next: &mut impl FnMut(usize) -> usize) {
        let live: Vec<EntryId> = d.forest.iter().collect();
        let parent =
            if live.is_empty() || next(6) == 0 { None } else { Some(live[next(live.len())]) };
        match next(10) {
            0..=4 => {
                let rdn = random_rdn(next);
                let taken = scan_child(d, parent, &rdn).is_some();
                let added = match parent {
                    Some(p) => d.add_named_child(p, rdn, person("n")),
                    None => d.add_named_root(rdn, person("n")),
                };
                assert_eq!(matches!(added, Err(InstanceError::DuplicateRdn(_))), taken);
            }
            5 => {
                let _ = match parent {
                    Some(p) => d.add_child_entry(p, person("u")).unwrap(),
                    None => d.add_root_entry(person("u")),
                };
            }
            6 | 7 if !live.is_empty() => {
                let victim = live[next(live.len())];
                if next(2) == 0 {
                    let _ = d.remove_leaf(victim);
                } else {
                    d.remove_subtree(victim).unwrap();
                }
            }
            8 if !live.is_empty() => {
                d.set_rdn(live[next(live.len())], random_rdn(next)).unwrap();
            }
            _ => {}
        }
    }

    #[test]
    fn the_name_table_answers_what_the_sibling_scan_answers() {
        for seed in 1..=24_u64 {
            let mut next = stream(0x9E37_79B9 * seed);
            let mut d = DirectoryInstance::default();
            for step in 0..240 {
                random_write(&mut d, &mut next);
                if step % 40 == 39 {
                    assert_table_is_scan(&d, &mut next);
                }
            }
            // Two clones diverge after the fork; neither sees the other's
            // writes and each answers as its own scan does.
            let mut fork = d.clone();
            let before = d.canonical_bytes();
            for _ in 0..60 {
                random_write(&mut fork, &mut next);
            }
            assert_eq!(d.canonical_bytes(), before);
            assert_table_is_scan(&fork, &mut next);
            for _ in 0..60 {
                random_write(&mut d, &mut next);
            }
            assert_table_is_scan(&d, &mut next);
            assert_table_is_scan(&fork, &mut next);
            // A slot-exact snapshot restores a table that answers alike.
            let restored = DirectoryInstance::from_slots(
                d.registry().clone(),
                d.forest().slot_bound(),
                d.slot_rows(),
                d.forest().free_slots(),
            )
            .unwrap();
            assert_eq!(restored.canonical_bytes(), d.canonical_bytes());
            assert_table_is_scan(&restored, &mut next);
        }
    }

    #[test]
    fn deleting_and_reinserting_a_name_resolves_to_the_new_entry() {
        let mut d = DirectoryInstance::default();
        let root = d.add_named_root(Rdn::single("o", "x"), person("r")).unwrap();
        let dn = Dn::parse("uid=A,o=X").unwrap();
        for round in 0..3 {
            let id = d.add_named_child(root, Rdn::single("uid", "a"), person("a")).unwrap();
            assert_eq!(d.lookup_dn(&dn), Some(id), "round {round}");
            let again = d.add_named_child(root, Rdn::single("UID", " A "), person("a"));
            assert!(matches!(again, Err(InstanceError::DuplicateRdn(_))));
            d.remove_leaf(id).unwrap();
            assert_eq!(d.lookup_dn(&dn), None);
            d.names.check_chains().unwrap();
        }
        // A renamed entry answers to its new name only.
        let id = d.add_named_child(root, Rdn::single("uid", "a"), person("a")).unwrap();
        d.set_rdn(id, Rdn::single("uid", "b")).unwrap();
        assert_eq!(d.lookup_dn(&dn), None);
        assert_eq!(d.lookup_dn(&Dn::parse("uid=b,o=x").unwrap()), Some(id));
    }

    #[test]
    fn matching_siblings_resolve_to_the_first_in_sibling_order() {
        // `set_rdn` checks no names, so it can make two siblings match;
        // a name then denotes the first of them in sibling order, as the
        // scan did, and a named insertion is still refused.
        let mut d = DirectoryInstance::default();
        let root = d.add_named_root(Rdn::single("o", "x"), person("r")).unwrap();
        let first = d.add_named_child(root, Rdn::single("uid", "a"), person("a")).unwrap();
        let second = d.add_named_child(root, Rdn::single("uid", "b"), person("b")).unwrap();
        d.set_rdn(first, Rdn::single("uid", "B")).unwrap();
        let b = Rdn::single("uid", "b");
        assert_eq!(d.named_child(Some(root), &b), Some(first));
        assert_eq!(d.lookup_dn(&Dn::parse("uid=b,o=x").unwrap()), Some(first));
        assert!(matches!(
            d.add_named_child(root, b.clone(), person("c")),
            Err(InstanceError::DuplicateRdn(_))
        ));
        // The same among roots.
        let other = d.add_named_root(Rdn::single("o", "y"), person("y")).unwrap();
        d.set_rdn(root, Rdn::single("o", "Y")).unwrap();
        assert_eq!(d.named_child(None, &Rdn::single("o", "y")), Some(root));
        // A snapshot of the duplicates restores the same answers.
        let restored = DirectoryInstance::from_slots(
            d.registry().clone(),
            d.forest().slot_bound(),
            d.slot_rows(),
            d.forest().free_slots(),
        )
        .unwrap();
        assert_eq!(restored.named_child(None, &Rdn::single("o", "y")), Some(root));
        assert_eq!(restored.named_child(Some(root), &b), Some(first));
        // With the first gone, the name denotes the other.
        d.remove_leaf(first).unwrap();
        assert_eq!(d.named_child(Some(root), &b), Some(second));
        d.remove_subtree(root).unwrap();
        assert_eq!(d.named_child(None, &Rdn::single("o", "y")), Some(other));
    }

    /// `roots` organisations of 250 entries each — `o=org<r>`, three
    /// units, 82 people in each — named, so every entry has a DN.
    fn named_orgs(roots: usize) -> DirectoryInstance {
        let mut d = DirectoryInstance::white_pages();
        for r in 0..roots {
            let org = d.add_named_root(Rdn::single("o", format!("org{r}")), person("o")).unwrap();
            for u in 0..3 {
                let unit = d.add_named_child(org, Rdn::single("ou", format!("u{u}")), person("u"));
                let unit = unit.unwrap();
                for p in 0..82 {
                    let uid = format!("p{u}x{p}");
                    d.add_named_child(unit, Rdn::single("uid", uid.as_str()), person(&uid))
                        .unwrap();
                }
            }
        }
        d
    }

    #[test]
    fn resolving_a_dn_compares_one_rdn_per_level_with_8_roots_as_with_200() {
        // [RDN comparisons, DNs resolved] over every entry's DN.
        let comparisons = |d: &DirectoryInstance| {
            let mut total = [0_u64, 0];
            for id in d.forest.iter() {
                let dn = d.dn(id).unwrap();
                let before = crate::dn::rdn_comparisons();
                assert_eq!(d.lookup_dn(&dn), Some(id));
                let spent = crate::dn::rdn_comparisons() - before;
                assert!(spent <= dn.depth() as u64 + 1, "{dn}: {spent} comparisons");
                total[0] += spent;
                total[1] += 1;
            }
            total
        };
        let [small, small_dns] = comparisons(&named_orgs(8));
        let [large, large_dns] = comparisons(&named_orgs(200));
        assert_eq!((small_dns, large_dns), (2_000, 50_000));
        assert_eq!(
            small * large_dns,
            large * small_dns,
            "per DN: {small}/{small_dns} at 8 roots, {large}/{large_dns} at 200"
        );
    }

    #[test]
    fn a_named_insert_and_a_delete_unshare_as_many_name_chunks_with_8_roots_as_with_200() {
        // Name-table chunks (RDN slots and bucket heads) each write copies
        // out of the version it forked from: an insertion, the deletion
        // of what it inserted (the head of its chain), and the deletion of
        // an entry that may sit deeper in a chain.
        let unshared = |roots: usize| {
            let base = named_orgs(roots);
            let unit = base.lookup_dn(&Dn::parse("ou=u1,o=org3").unwrap()).unwrap();
            let mut inserted = base.clone();
            let new = inserted.add_named_child(unit, Rdn::single("uid", "new"), person("new"));
            let new = new.unwrap();
            let mut deleted = inserted.clone();
            deleted.remove_leaf(new).unwrap();
            let mut older = base.clone();
            let victim = base.lookup_dn(&Dn::parse("uid=p1x7,ou=u1,o=org3").unwrap()).unwrap();
            older.remove_leaf(victim).unwrap();
            assert!(older.names.unshared_chunks(&base.names) <= 2);
            [
                inserted.names.unshared_chunks(&base.names),
                deleted.names.unshared_chunks(&inserted.names),
            ]
        };
        assert_eq!(unshared(8), [2, 2], "at 2 000 entries");
        assert_eq!(unshared(200), [2, 2], "at 50 000 entries");
    }

    #[test]
    fn the_name_table_is_sized_once_by_a_load_and_never_shrinks() {
        let d = named_orgs(4);
        let text = crate::ldif::dump(&d).unwrap();
        let mut loaded = DirectoryInstance::white_pages();
        loaded.reserve_names(1_000);
        let buckets = loaded.names.buckets();
        assert_eq!(buckets, 1_024);
        crate::ldif::load_into(&mut loaded, &text).unwrap();
        assert_eq!(loaded.names.buckets(), 1_024, "1 000 records fit the reserved table");
        // Past it, one doubling; back below it, no shrinking.
        let org = loaded.lookup_dn(&Dn::parse("o=org0").unwrap()).unwrap();
        let extra: Vec<EntryId> = (0..30)
            .map(|i| loaded.add_named_child(org, Rdn::single("cn", format!("e{i}")), person("e")))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(loaded.names.buckets(), 2_048);
        for id in extra {
            loaded.remove_leaf(id).unwrap();
        }
        assert_eq!(loaded.names.buckets(), 2_048);
        loaded.names.check_chains().unwrap();
        for (id, _) in d.iter() {
            let dn = d.dn(id).unwrap();
            assert_eq!(loaded.dn(loaded.lookup_dn(&dn).unwrap()).unwrap(), dn);
        }
        // A snapshot sizes its table from its named rows.
        let restored = DirectoryInstance::from_slots(
            d.registry().clone(),
            d.forest().slot_bound(),
            d.slot_rows(),
            d.forest().free_slots(),
        )
        .unwrap();
        assert_eq!(restored.names.buckets(), 1_024);
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
