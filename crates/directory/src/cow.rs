//! A chunked copy-on-write vector.
//!
//! The slot-parallel tables of a
//! [`DirectoryInstance`](crate::DirectoryInstance) — its entries, its
//! RDNs (with their name-table links) and its forest's link arena — and
//! the name table's bucket heads live in fixed-width chunks behind
//! `Arc`s, so cloning an instance copies one pointer per chunk and two
//! versions share every chunk neither of them wrote to. A write
//! un-shares exactly the chunk it touches ([`Arc::make_mut`]);
//! dropping a version frees only the chunks it owned alone. That makes
//! a clone and its drop O(len / CHUNK), which is what lets a whole-copy
//! be the unit of atomicity for a transaction of |ΔD| entries.
//!
//! Un-sharing a chunk clones its slots. The node and RDN slots are small
//! values; the entry table's slots are `Arc`s, so un-sharing one of its
//! chunks copies 64 pointers, not 64 attribute maps, and the one entry
//! an edit changes is copied on its own.

use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// Slots per chunk unless a table says otherwise: what one write to a
/// shared vector copies.
const CHUNK: usize = 64;

/// A grow-only `Vec<T>` whose clones share storage chunk by chunk, `N`
/// slots a chunk. Every chunk but the last is full.
#[derive(Debug, Clone)]
pub(crate) struct CowVec<T, const N: usize = CHUNK> {
    chunks: Vec<Arc<Vec<T>>>,
}

impl<T: Clone, const N: usize> CowVec<T, N> {
    pub(crate) fn new() -> Self {
        CowVec::default()
    }

    pub(crate) fn len(&self) -> usize {
        self.chunks.last().map_or(0, |last| (self.chunks.len() - 1) * N + last.len())
    }

    pub(crate) fn get(&self, index: usize) -> Option<&T> {
        self.chunks.get(index / N)?.get(index % N)
    }

    /// Mutable access to one slot; copies the slot's chunk first if
    /// another version still shares it.
    pub(crate) fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        Arc::make_mut(self.chunks.get_mut(index / N)?).get_mut(index % N)
    }

    /// Appends one slot. Only the last chunk is ever written to.
    pub(crate) fn push(&mut self, value: T) {
        if self.len() % N == 0 {
            self.chunks.push(Arc::new(Vec::with_capacity(N)));
        }
        Arc::make_mut(self.chunks.last_mut().expect("chunk just ensured")).push(value);
    }

    /// Grows to at least `len` slots, filling new ones from `fill`.
    pub(crate) fn grow_to(&mut self, len: usize, mut fill: impl FnMut() -> T) {
        for _ in self.len()..len {
            self.push(fill());
        }
    }

    /// Calls `f` on every slot with its index, mutably: un-shares every
    /// chunk, once each.
    pub(crate) fn for_each_mut(&mut self, mut f: impl FnMut(usize, &mut T)) {
        for (c, chunk) in self.chunks.iter_mut().enumerate() {
            for (i, slot) in Arc::make_mut(chunk).iter_mut().enumerate() {
                f(c * N + i, slot);
            }
        }
    }
}

/// Chunks `values`, sharing nothing yet.
impl<T, const N: usize> From<Vec<T>> for CowVec<T, N> {
    fn from(values: Vec<T>) -> Self {
        let mut chunks = Vec::with_capacity(values.len().div_ceil(N));
        let mut values = values.into_iter().peekable();
        while values.peek().is_some() {
            chunks.push(Arc::new(values.by_ref().take(N).collect()));
        }
        CowVec { chunks }
    }
}

impl<T, const N: usize> Default for CowVec<T, N> {
    fn default() -> Self {
        CowVec { chunks: Vec::new() }
    }
}

impl<T, const N: usize> Index<usize> for CowVec<T, N> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        &self.chunks[index / N][index % N]
    }
}

/// Like [`CowVec::get_mut`]: the slot's chunk is un-shared first.
impl<T: Clone, const N: usize> IndexMut<usize> for CowVec<T, N> {
    fn index_mut(&mut self, index: usize) -> &mut T {
        &mut Arc::make_mut(&mut self.chunks[index / N])[index % N]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T, const N: usize> CowVec<T, N> {
        /// How many of `self`'s chunks are not `other`'s own chunk at
        /// the same position: what a write to one of two clones copied.
        pub(crate) fn unshared_chunks(&self, other: &CowVec<T, N>) -> usize {
            let shared = self.chunks.iter().zip(&other.chunks).filter(|(x, y)| Arc::ptr_eq(x, y));
            self.chunks.len() - shared.count()
        }

        /// How many chunks hold the slots.
        pub(crate) fn chunks(&self) -> usize {
            self.chunks.len()
        }
    }

    fn filled(len: usize) -> CowVec<usize> {
        let mut v = CowVec::new();
        let mut next = 0;
        v.grow_to(len, || {
            next += 1;
            next - 1
        });
        v
    }

    fn contents(v: &CowVec<usize>) -> Vec<usize> {
        (0..v.len()).map(|i| *v.get(i).expect("in range")).collect()
    }

    #[test]
    fn grows_across_chunk_boundaries() {
        for len in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 3 * CHUNK + 7] {
            let mut v = filled(len);
            assert_eq!(contents(&v), (0..len).collect::<Vec<_>>());
            assert_eq!(v.get(len), None);
            assert!(v.get_mut(len).is_none());
            v.grow_to(len / 2, || unreachable!("already long enough"));
            v.grow_to(len + 2, || 7);
            assert_eq!(contents(&v)[len..], [7, 7]);
            assert_eq!(v.len(), len + 2);
        }
    }

    #[test]
    fn a_write_unshares_one_chunk_and_never_reaches_the_other_version() {
        let a = filled(3 * CHUNK);
        let mut b = a.clone();
        *b.get_mut(CHUNK + 1).expect("in range") = 999;
        b.grow_to(3 * CHUNK + 2, || 5);
        assert_eq!(contents(&a), (0..3 * CHUNK).collect::<Vec<_>>());
        assert_eq!(*b.get(CHUNK + 1).expect("in range"), 999);
        assert_eq!(b.len(), 3 * CHUNK + 2);
        let shared: Vec<bool> =
            a.chunks.iter().zip(&b.chunks).map(|(x, y)| Arc::ptr_eq(x, y)).collect();
        assert_eq!(shared, [true, false, true], "only the written chunk is copied");
        assert_eq!(b.unshared_chunks(&a), 2, "the written chunk and the one grown");
    }

    #[test]
    fn indexing_reads_and_writes_like_get() {
        let a = filled(2 * CHUNK + 3);
        let mut b = a.clone();
        for i in [0, CHUNK - 1, CHUNK, 2 * CHUNK + 2] {
            assert_eq!(a[i], i);
            b[i] += 1000;
            assert_eq!(b.get(i), Some(&(i + 1000)));
        }
        assert_eq!(contents(&a), (0..2 * CHUNK + 3).collect::<Vec<_>>());
        assert_eq!(b.unshared_chunks(&a), 3);
        b.push(7);
        assert_eq!((b.len(), b[2 * CHUNK + 3]), (2 * CHUNK + 4, 7));
    }

    #[test]
    fn a_chunked_vec_reads_like_the_vec_it_came_from() {
        for len in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7] {
            let mut v = CowVec::<usize>::from((0..len).collect::<Vec<_>>());
            assert_eq!(contents(&v), (0..len).collect::<Vec<_>>());
            v.push(len);
            assert_eq!(v.len(), len + 1, "the last chunk is the only one short");
        }
        let wide = CowVec::<usize, 1024>::from(vec![3; 2_049]);
        assert_eq!((wide.len(), wide.chunks.len(), wide[2_048]), (2_049, 3, 3));
    }

    #[test]
    fn for_each_mut_visits_every_slot_and_unshares_every_chunk() {
        let a = filled(2 * CHUNK + 5);
        let mut b = a.clone();
        let mut seen = Vec::new();
        b.for_each_mut(|i, slot| {
            seen.push(i);
            *slot += 1;
        });
        assert_eq!(seen, (0..2 * CHUNK + 5).collect::<Vec<_>>());
        assert_eq!(contents(&b), (1..2 * CHUNK + 6).collect::<Vec<_>>());
        assert_eq!(contents(&a), (0..2 * CHUNK + 5).collect::<Vec<_>>());
        assert_eq!(b.unshared_chunks(&a), 3);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_past_the_end_panics() {
        let _ = filled(CHUNK)[CHUNK];
    }
}
