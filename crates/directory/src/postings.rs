//! Label-sorted posting lists in copy-on-write chunks.
//!
//! Every list of the [`InstanceIndex`](crate::InstanceIndex) but the
//! equality value tables — `all`, one per class, one per attribute
//! present — is a [`PostingList`]: the entries sorted by forest label,
//! held as a spine of chunks behind `Arc`s. Two versions of an instance
//! share every chunk neither has written to, so posting or un-posting
//! one entry copies the one chunk its label falls in (and the spine's
//! pointers), not the list. A chunk that is full splits in two before it
//! takes another entry; a chunk left empty goes. Readers see a list
//! through [`Postings`], a borrowed view that iterates, counts, finds the
//! members past a label, and hands out one slice — borrowed when the list
//! is one chunk, concatenated otherwise.

use std::borrow::Cow;
use std::sync::Arc;

use crate::forest::{EntryId, Forest};

/// The most entries a chunk holds before a post splits it in two. A post
/// to a shared list copies one chunk of at most this many ids plus the
/// list's spine, |list| / `CHUNK` … 2·|list| / `CHUNK` pointers, and a
/// dropped version releases the same. Measured on a 50k-entry directory
/// (a 3-entry insert posted to a clone of a served version, then
/// dropped; EXPERIMENTS.md "POSTINGS"): `prepare()` + drop read ≈228,
/// ≈155, ≈104, ≈68 and ≈82 µs at 64, 128, 256, 512 and 1024 — the spines
/// dominate below 512, the chunk copies above — and a whole-list read
/// (one class list concatenated for a SEARCH) ≈9 µs at 512 against ≈7 µs
/// for one flat slice.
const CHUNK: usize = 512;

type Chunk = Arc<Vec<EntryId>>;

/// One label-sorted list of entries, chunked for sharing. Built lists
/// ([`from_sorted`](Self::from_sorted)) are one chunk, whatever their
/// length — building allocates exactly the flat list it always did —
/// and the first write to such a chunk splits it into half-full ones.
#[derive(Debug, Clone, Default)]
pub(crate) struct PostingList {
    /// Non-empty chunks, in label order.
    spine: Arc<Vec<Chunk>>,
    len: usize,
}

/// Two lists are equal when they hold the same entries in the same
/// order, however those are chunked: a list maintained post by post
/// equals the one built from scratch.
impl PartialEq for PostingList {
    fn eq(&self, other: &PostingList) -> bool {
        self.view() == other.view()
    }
}

impl PostingList {
    /// The list of `sorted`, as one chunk.
    pub(crate) fn from_sorted(sorted: Vec<EntryId>) -> PostingList {
        let len = sorted.len();
        let spine = if sorted.is_empty() { Vec::new() } else { vec![Arc::new(sorted)] };
        PostingList { spine: Arc::new(spine), len }
    }

    pub(crate) fn view(&self) -> Postings<'_> {
        Postings { chunks: &self.spine, len: self.len }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Where `id` sits (`Ok`) or belongs (`Err`): a chunk and an offset
    /// in it. The chunk is the first whose last label is not below
    /// `id`'s, else the last; an empty list answers `Err((0, 0))`.
    fn locate(&self, forest: &Forest, id: EntryId) -> Result<(usize, usize), (usize, usize)> {
        let label = forest.pre(id);
        let last = |chunk: &Chunk| forest.pre(*chunk.last().expect("chunks are non-empty"));
        let Some(end) = self.spine.len().checked_sub(1) else { return Err((0, 0)) };
        let c = self.spine.partition_point(|chunk| last(chunk) < label).min(end);
        let chunk = &self.spine[c];
        match chunk.last() {
            // An entry labelled past the last one — an append — skips the
            // search.
            Some(&tail) if forest.pre(tail) < label => Err((c, chunk.len())),
            _ => chunk
                .binary_search_by_key(&label, |&e| forest.pre(e))
                .map(|at| (c, at))
                .map_err(|at| (c, at)),
        }
    }

    /// Adds `id` where its label puts it; returns how many chunks the
    /// write copied out of a shared version or split off. `id` must be
    /// labelled; posting it twice changes nothing.
    pub(crate) fn insert(&mut self, forest: &Forest, id: EntryId) -> usize {
        let Err((c, at)) = self.locate(forest, id) else { return 0 };
        self.len += 1;
        let spine = Arc::make_mut(&mut self.spine);
        if spine.is_empty() {
            spine.push(Arc::new(vec![id]));
            return 1;
        }
        let (c, at, written) = split_past(spine, c, at, CHUNK - 1);
        let (chunk, copied) = unshare(&mut spine[c], 1);
        chunk.insert(at, id);
        written + copied
    }

    /// Takes `id` out; returns how many chunks the write copied out of a
    /// shared version or split off. Absent ids change nothing.
    pub(crate) fn remove(&mut self, forest: &Forest, id: EntryId) -> usize {
        let Ok((c, at)) = self.locate(forest, id) else { return 0 };
        self.len -= 1;
        let spine = Arc::make_mut(&mut self.spine);
        let (c, at, written) = split_past(spine, c, at, CHUNK);
        if spine[c].len() == 1 {
            spine.remove(c);
            return written;
        }
        let (chunk, copied) = unshare(&mut spine[c], 0);
        chunk.remove(at);
        written + copied
    }
}

/// Splits chunk `c` into near-equal pieces of at most `CHUNK / 2` entries
/// if it holds more than `most` — a full chunk about to take one more, or
/// a built list longer than [`CHUNK`], which any write splits — and says
/// where offset `at` lands and how many chunks the split made. Every
/// piece holds at least `CHUNK / 4` entries, so a removal right after
/// the split never empties one.
fn split_past(spine: &mut Vec<Chunk>, c: usize, at: usize, most: usize) -> (usize, usize, usize) {
    let len = spine[c].len();
    if len <= most {
        return (c, at, 0);
    }
    let made = len.div_ceil(CHUNK / 2);
    // The first `len % made` pieces hold one entry more than the rest.
    let (small, big) = (len / made, len % made);
    let start = |piece: usize| piece * small + piece.min(big);
    let pieces: Vec<Chunk> = (0..made)
        .map(|piece| {
            let mut owned = Vec::with_capacity(CHUNK / 2 + 1);
            owned.extend_from_slice(&spine[c][start(piece)..start(piece + 1)]);
            Arc::new(owned)
        })
        .collect();
    spine.splice(c..=c, pieces);
    // An append past the last piece stays in it.
    let piece = (0..made).rfind(|&piece| start(piece) <= at).unwrap_or(0);
    (c + piece, at - start(piece), made)
}

/// The chunk, writable: copied first — with room for `extra` more ids —
/// if another version shares it. Says whether it copied.
fn unshare(chunk: &mut Chunk, extra: usize) -> (&mut Vec<EntryId>, usize) {
    let copied = Arc::get_mut(chunk).is_none();
    if copied {
        let mut owned = Vec::with_capacity(chunk.len() + extra);
        owned.extend_from_slice(chunk);
        *chunk = Arc::new(owned);
    }
    (Arc::get_mut(chunk).expect("just un-shared"), usize::from(copied))
}

/// A borrowed, label-sorted list of entries from the index.
#[derive(Debug, Clone, Copy, Default)]
pub struct Postings<'a> {
    chunks: &'a [Chunk],
    len: usize,
}

impl<'a> Postings<'a> {
    /// How many entries the list holds.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the list holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries in label (preorder) order.
    pub fn iter(&self) -> impl Iterator<Item = EntryId> + 'a {
        self.chunks.iter().flat_map(|chunk| chunk.iter().copied())
    }

    /// The list as one slice: borrowed when it is one chunk, copied
    /// together from its chunks otherwise.
    pub fn to_slice(&self) -> Cow<'a, [EntryId]> {
        match self.chunks {
            [] => Cow::Borrowed(&[]),
            [one] => Cow::Borrowed(one.as_slice()),
            many => {
                let mut flat = Vec::with_capacity(self.len);
                for chunk in many {
                    flat.extend_from_slice(chunk);
                }
                Cow::Owned(flat)
            }
        }
    }

    /// The entries labelled after `label`, in label order: one binary
    /// search over the chunks' last labels and one inside a chunk.
    pub fn after(&self, forest: &'a Forest, label: u64) -> impl Iterator<Item = EntryId> + 'a {
        let chunks = self.chunks;
        let c = chunks.partition_point(|chunk| {
            forest.pre(*chunk.last().expect("chunks are non-empty")) <= label
        });
        let skip =
            chunks.get(c).map_or(0, |chunk| chunk.partition_point(|&e| forest.pre(e) <= label));
        chunks[c..].iter().flat_map(|chunk| chunk.iter().copied()).skip(skip)
    }

    /// The entries labelled in `(lo, hi]`, in label order — the members
    /// properly inside an entry's interval when `lo, hi` are its `pre`
    /// and `end`.
    pub fn between(
        &self,
        forest: &'a Forest,
        lo: u64,
        hi: u64,
    ) -> impl Iterator<Item = EntryId> + 'a {
        self.after(forest, lo).take_while(move |&e| forest.pre(e) <= hi)
    }
}

impl PartialEq for Postings<'_> {
    fn eq(&self, other: &Postings<'_>) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Postings<'_> {
        pub(crate) fn chunk_count(&self) -> usize {
            self.chunks.len()
        }

        /// How many of `self`'s chunks `other` holds too.
        pub(crate) fn shared_chunks(&self, other: &Postings<'_>) -> usize {
            self.chunks.iter().filter(|x| other.chunks.iter().any(|y| Arc::ptr_eq(x, y))).count()
        }
    }

    /// A forest of `n` roots, numbered: root `i` is labelled in order.
    fn roots(n: usize) -> (Forest, Vec<EntryId>) {
        let mut forest = Forest::new();
        let ids: Vec<EntryId> = (0..n).map(|_| forest.add_root()).collect();
        forest.ensure_numbered();
        (forest, ids)
    }

    fn chunk_lens(list: &PostingList) -> Vec<usize> {
        list.spine.iter().map(|chunk| chunk.len()).collect()
    }

    #[test]
    fn a_built_list_is_one_chunk_until_its_first_write_splits_it() {
        let (forest, ids) = roots(3 * CHUNK + 5);
        let evens: Vec<EntryId> = ids.iter().copied().step_by(2).collect();
        let built = PostingList::from_sorted(evens.clone());
        assert_eq!(chunk_lens(&built), [evens.len()]);
        assert_eq!(built.view().to_slice(), Cow::Borrowed(&evens[..]));

        let mut next = built.clone();
        let written = next.insert(&forest, ids[1]);
        let pieces = evens.len().div_ceil(CHUNK / 2);
        assert_eq!(written, pieces, "the split makes every piece, and copies nothing else");
        assert_eq!(next.view().len(), evens.len() + 1);
        assert!(chunk_lens(&next).iter().all(|&n| n <= CHUNK / 2 + 1));
        let mut expected = evens.clone();
        expected.insert(1, ids[1]);
        assert_eq!(next.view().iter().collect::<Vec<_>>(), expected);
        assert_eq!(built.view().iter().collect::<Vec<_>>(), evens, "the old version is intact");

        // From now on a write to a clone copies the one chunk it lands in.
        let mut third = next.clone();
        assert_eq!(third.insert(&forest, ids[3 * CHUNK + 1]), 1);
        assert_eq!(third.view().shared_chunks(&next.view()), chunk_lens(&next).len() - 1);
        assert_eq!(third.remove(&forest, ids[0]), 1);
        assert_eq!(third.insert(&forest, ids[0]), 0, "its chunk is already this version's");
    }

    #[test]
    fn a_full_chunk_splits_and_an_empty_one_goes() {
        let (forest, ids) = roots(2 * CHUNK + 2);
        let mut list = PostingList::default();
        for &id in &ids[..CHUNK] {
            list.insert(&forest, id);
        }
        assert_eq!(chunk_lens(&list), [CHUNK]);
        assert_eq!(list.insert(&forest, ids[CHUNK]), 2, "a full chunk splits in two");
        assert_eq!(chunk_lens(&list), [CHUNK / 2, CHUNK / 2 + 1]);
        for &id in &ids[..CHUNK / 2] {
            list.remove(&forest, id);
        }
        assert_eq!(chunk_lens(&list), [CHUNK / 2 + 1]);
        assert_eq!(list.remove(&forest, ids[0]), 0, "absent");
        assert_eq!(list.insert(&forest, ids[CHUNK]), 0, "present");
        for &id in &ids[CHUNK / 2..=CHUNK] {
            list.remove(&forest, id);
        }
        assert!(list.is_empty() && list.spine.is_empty());
        assert_eq!(list, PostingList::default());
    }

    #[test]
    fn removing_a_built_lists_last_entry_leaves_no_empty_chunk() {
        // A built list of 2·CHUNK + 1 ids: cut into half-chunk pieces from
        // the front, its last piece would hold the one id removed here.
        let (forest, ids) = roots(2 * CHUNK + 3);
        let mut list = PostingList::from_sorted(ids[..=2 * CHUNK].to_vec());
        assert_eq!(list.remove(&forest, ids[2 * CHUNK]), (2 * CHUNK + 1).div_ceil(CHUNK / 2));
        assert!(chunk_lens(&list).iter().all(|&n| n >= CHUNK / 4), "{:?}", chunk_lens(&list));
        assert_eq!(chunk_lens(&list).iter().sum::<usize>(), 2 * CHUNK);
        list.insert(&forest, ids[2 * CHUNK + 2]);
        let label = forest.pre(ids[2 * CHUNK - 1]);
        assert_eq!(list.view().after(&forest, label).collect::<Vec<_>>(), [ids[2 * CHUNK + 2]]);
        let mut expected = ids[..2 * CHUNK].to_vec();
        expected.push(ids[2 * CHUNK + 2]);
        assert_eq!(list, PostingList::from_sorted(expected));
    }

    #[test]
    fn equality_and_range_lookups_ignore_the_chunking() {
        let (forest, ids) = roots(3 * CHUNK);
        let built = PostingList::from_sorted(ids.clone());
        let mut posted = PostingList::default();
        for &id in ids.iter().rev() {
            posted.insert(&forest, id);
        }
        assert!(chunk_lens(&posted).len() > 2);
        assert_eq!(posted, built);
        assert_eq!(posted.view().to_slice(), built.view().to_slice());
        for list in [&built, &posted] {
            let view = list.view();
            for at in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK - 1] {
                let label = forest.pre(ids[at]);
                assert_eq!(view.after(&forest, label).collect::<Vec<_>>(), ids[at + 1..]);
                let hi = forest.pre(ids[(at + 3).min(ids.len() - 1)]);
                let run: Vec<_> = view.between(&forest, label, hi).collect();
                assert_eq!(run, ids[at + 1..=(at + 3).min(ids.len() - 1)]);
            }
            assert_eq!(view.after(&forest, 0).count(), ids.len());
        }
    }
}
