//! A chunked copy-on-write vector.
//!
//! The slot-parallel side tables of a
//! [`DirectoryInstance`](crate::DirectoryInstance) live in fixed-width
//! chunks behind `Arc`s, so cloning an instance copies one pointer per
//! chunk and two versions share every chunk neither of them wrote to.
//! A write un-shares exactly the chunk it touches ([`Arc::make_mut`]);
//! dropping a version frees only the chunks it owned alone. That makes
//! a clone and its drop O(len / CHUNK), which is what lets a whole-copy
//! be the unit of atomicity for a transaction of |ΔD| entries.

use std::sync::Arc;

/// Slots per chunk: what one write to a shared vector copies.
const CHUNK: usize = 64;

/// A grow-only `Vec<T>` whose clones share storage chunk by chunk.
/// Every chunk but the last is full.
#[derive(Debug, Clone)]
pub(crate) struct CowVec<T> {
    chunks: Vec<Arc<Vec<T>>>,
}

impl<T: Clone> CowVec<T> {
    pub(crate) fn new() -> Self {
        CowVec { chunks: Vec::new() }
    }

    pub(crate) fn len(&self) -> usize {
        self.chunks.last().map_or(0, |last| (self.chunks.len() - 1) * CHUNK + last.len())
    }

    pub(crate) fn get(&self, index: usize) -> Option<&T> {
        self.chunks.get(index / CHUNK)?.get(index % CHUNK)
    }

    /// Mutable access to one slot; copies the slot's chunk first if
    /// another version still shares it.
    pub(crate) fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        Arc::make_mut(self.chunks.get_mut(index / CHUNK)?).get_mut(index % CHUNK)
    }

    /// Grows to at least `len` slots, filling new ones from `fill`. Only
    /// the last chunk is ever written to.
    pub(crate) fn grow_to(&mut self, len: usize, mut fill: impl FnMut() -> T) {
        for index in self.len()..len {
            if index % CHUNK == 0 {
                self.chunks.push(Arc::new(Vec::with_capacity(CHUNK)));
            }
            Arc::make_mut(self.chunks.last_mut().expect("chunk just ensured")).push(fill());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    }
}
