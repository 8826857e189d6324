//! The name table: a distinguished name is a key (paper §6.1), so each
//! level of it resolves by one hash probe, not by a scan of the siblings.
//!
//! [`Names`] keeps the instance's slot-parallel RDN table and, beside
//! each RDN, the two words that chain it into a hash table keyed by
//! (parent slot or "root", normalised RDN): the key's hash and the next
//! slot in its bucket. The bucket heads are a [`CowVec`] of their own,
//! sized to a power of two at least the named count, 1 024 to a chunk. So
//! a named insert writes one head chunk and its own slot, an unlink its own slot and its
//! predecessor's chunk (a head or another slot), and a clone one pointer
//! per chunk of each table: versions share the table as they share the
//! rest of the instance.
//!
//! The hash is keyed ([`RandomState`], drawn once per lineage and carried
//! by clones), because a transaction's RDNs arrive off the wire: no
//! chosen set of names can pile into one bucket. It covers the same
//! normal form [`Rdn::matches`] compares (see [`crate::syntax`]), and a
//! probe confirms every candidate with `Rdn::matches` and the forest's
//! parent link.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};

use crate::cow::CowVec;
use crate::dn::Rdn;
use crate::forest::{EntryId, Forest};

/// No slot: an empty bucket, the end of a chain, and the parent key the
/// roots share.
const NIL: u32 = u32::MAX;

/// Bucket heads per chunk: 4 KiB of them. A write copies one such chunk
/// (a memcpy), and a clone bumps |heads| / 1 024 pointers — 64 at 50k
/// names, where 64-slot chunks would be 1 024 (each a cache miss on the
/// clone and again on its drop).
const HEADS_CHUNK: usize = 1024;

/// A named slot: its RDN, the hash of its key and the next slot of its
/// bucket.
#[derive(Debug, Clone)]
struct Name {
    rdn: Rdn,
    hash: u32,
    next: u32,
}

/// What a probe found under one parent.
pub(crate) enum Probe {
    /// No child has a matching RDN.
    Absent,
    /// Exactly one has.
    One(EntryId),
    /// Two or more have: an instance built without the name checks
    /// (`set_rdn`, `from_slots`) can hold matching siblings. Which one
    /// the name denotes is sibling order's to say.
    Several,
}

/// The slot-parallel RDN table with its hash chains (module docs).
#[derive(Debug, Clone)]
pub(crate) struct Names {
    slots: CowVec<Option<Name>>,
    /// Bucket heads: the first slot of each chain, or [`NIL`].
    heads: CowVec<u32, HEADS_CHUNK>,
    /// Linked (named, live) slots.
    named: usize,
    keys: RandomState,
}

impl Default for Names {
    fn default() -> Self {
        Names { slots: CowVec::new(), heads: CowVec::new(), named: 0, keys: RandomState::new() }
    }
}

impl Names {
    /// Grows the RDN table to at least `len` slots, all unnamed.
    pub(crate) fn grow_to(&mut self, len: usize) {
        self.slots.grow_to(len, || None);
    }

    /// The RDN of `slot`, if it is named.
    pub(crate) fn rdn(&self, slot: usize) -> Option<&Rdn> {
        self.slots.get(slot)?.as_ref().map(|name| &name.rdn)
    }

    /// The hash of the key (`parent`, `rdn`).
    pub(crate) fn hash(&self, parent: Option<EntryId>, rdn: &Rdn) -> u32 {
        let mut state = self.keys.build_hasher();
        state.write_u32(parent_key(parent));
        for ava in rdn.avas() {
            state.write(ava.attr().as_bytes());
            state.write_u8(0xFF);
            crate::syntax::hash_case_ignore(ava.value(), &mut state);
            state.write_u8(0xFF);
        }
        let full = state.finish();
        (full ^ (full >> 32)) as u32
    }

    /// The children of `parent` (`None`: the roots) named `rdn`, whose
    /// key hashes to `hash`.
    pub(crate) fn find(
        &self,
        forest: &Forest,
        parent: Option<EntryId>,
        rdn: &Rdn,
        hash: u32,
    ) -> Probe {
        let mut found = Probe::Absent;
        let mut cur = self.head(hash);
        while cur != NIL {
            let name = self.linked(cur);
            let id = EntryId::from_index(cur as usize);
            if name.hash == hash && forest.parent(id) == parent && name.rdn.matches(rdn) {
                if let Probe::One(_) = found {
                    return Probe::Several;
                }
                found = Probe::One(id);
            }
            cur = name.next;
        }
        found
    }

    /// Names the unnamed slot of `id`, whose key hashes to `hash`.
    pub(crate) fn link(&mut self, id: EntryId, rdn: Rdn, hash: u32) {
        self.reserve(self.named + 1);
        let bucket = self.bucket(hash);
        let slot = self.slots.get_mut(id.index()).expect("slot is allocated");
        debug_assert!(slot.is_none(), "a named slot is linked once");
        *slot = Some(Name { rdn, hash, next: self.heads[bucket] });
        self.heads[bucket] = id.index() as u32;
        self.named += 1;
    }

    /// Un-names the slot of `id`, if it is named.
    pub(crate) fn unlink(&mut self, id: EntryId) {
        let Some(name) = self.slots.get_mut(id.index()).and_then(Option::take) else { return };
        let slot = id.index() as u32;
        let bucket = self.bucket(name.hash);
        if self.heads[bucket] == slot {
            self.heads[bucket] = name.next;
        } else {
            let mut cur = self.heads[bucket];
            while self.linked(cur).next != slot {
                cur = self.linked(cur).next;
            }
            let before = self.slots[cur as usize].as_mut().expect("a chained slot is named");
            before.next = name.next;
        }
        self.named -= 1;
    }

    /// Makes room for `count` names without growing again: the heads
    /// become a power of two at least `count`, and every named slot is
    /// re-chained from its stored hash, with no RDN normalised again.
    /// The table never shrinks.
    pub(crate) fn reserve(&mut self, count: usize) {
        if count <= self.heads.len() {
            return;
        }
        let mut heads = vec![NIL; count.next_power_of_two()];
        let mask = heads.len() - 1;
        self.slots.for_each_mut(|slot, name| {
            if let Some(name) = name {
                let bucket = name.hash as usize & mask;
                name.next = heads[bucket];
                heads[bucket] = slot as u32;
            }
        });
        self.heads = CowVec::from(heads);
    }

    fn bucket(&self, hash: u32) -> usize {
        hash as usize & (self.heads.len() - 1)
    }

    /// The first slot of `hash`'s chain.
    fn head(&self, hash: u32) -> u32 {
        if self.heads.len() == 0 {
            return NIL;
        }
        self.heads[self.bucket(hash)]
    }

    fn linked(&self, slot: u32) -> &Name {
        self.slots[slot as usize].as_ref().expect("a chained slot is named")
    }
}

fn parent_key(parent: Option<EntryId>) -> u32 {
    parent.map_or(NIL, |p| p.index() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Names {
        /// How many chunks of the two tables `self` does not share with
        /// `before`: what a write to a clone of `before` copied or grew.
        pub(crate) fn unshared_chunks(&self, before: &Names) -> usize {
            self.slots.unshared_chunks(&before.slots) + self.heads.unshared_chunks(&before.heads)
        }

        /// The bucket count.
        pub(crate) fn buckets(&self) -> usize {
            self.heads.len()
        }

        /// Every chain holds exactly the named slots, each once, in the
        /// bucket its stored hash picks.
        pub(crate) fn check_chains(&self) -> Result<(), String> {
            let mut seen = 0;
            for bucket in 0..self.heads.len() {
                let mut cur = self.heads[bucket];
                while cur != NIL {
                    let name =
                        self.slots[cur as usize].as_ref().ok_or("an unnamed slot is chained")?;
                    if self.bucket(name.hash) != bucket {
                        return Err(format!("slot {cur} sits in bucket {bucket}"));
                    }
                    seen += 1;
                    if seen > self.named {
                        return Err("the chains hold more slots than are named".to_owned());
                    }
                    cur = name.next;
                }
            }
            let named = (0..self.slots.len()).filter(|&s| self.slots[s].is_some()).count();
            if (seen, named) != (self.named, self.named) {
                return Err(format!("{seen} chained, {named} named, {} counted", self.named));
            }
            Ok(())
        }
    }
}
