//! Secondary indexes over a directory instance.
//!
//! The §3.2 evaluation strategy needs, for each object class `c`, the list of
//! entries belonging to `c` *sorted in document (preorder) order* — that is
//! the "directory entries are sorted" precondition under which hierarchical
//! selection queries evaluate in O(|Q|·|D|). [`InstanceIndex`] materialises
//! those lists, plus per-attribute presence lists for general filters and
//! `(attribute, value)` equality postings for the key-like attributes.
//!
//! The index is built once ([`InstanceIndex::build`]) and from then on
//! maintained in place: a write of |ΔD| entries posts |ΔD| entries
//! (§4's promise), each by a binary search on the forest's gap labels.
//! The class, presence and `all` lists are [`PostingList`]s, chunked
//! copy-on-write, and each value table sits behind its own `Arc`, so the
//! version of an instance a write forks from keeps every chunk and table
//! the write did not touch.

use std::collections::HashMap;
use std::sync::Arc;

use crate::attribute::{fold_name, AttributeRegistry};
use crate::cow::CowVec;
use crate::entry::Entry;
use crate::forest::{EntryId, Forest};
use crate::postings::{PostingList, Postings};
use crate::syntax::Syntax;

/// How many separately shared tables one attribute's equality postings
/// are split into: a post to a shared index copies one of them, not
/// every distinct value of the attribute.
const BUCKETS: usize = 64;

/// The table a normalized value is posted in — a fixed hash, so that an
/// index maintained in place and one built from scratch agree. (Each
/// table keeps the default hasher: values crafted to share a table cost
/// a write the copy of one big table, never a lookup its O(1).)
fn bucket_of(normalized: &str) -> usize {
    (crate::fnv1a(normalized.as_bytes()) % BUCKETS as u64) as usize
}

/// normalized value → entries holding it, sorted by label.
type ValueTable = HashMap<String, Vec<EntryId>>;

/// What the index keeps per attribute present in the instance. Versions
/// of an instance share the chunks and tables neither has posted to
/// since they forked.
#[derive(Debug, Clone, PartialEq)]
struct AttributePostings {
    /// Entries holding at least one value, sorted by label.
    present: PostingList,
    /// The equality postings, [`BUCKETS`] tables selected by
    /// [`bucket_of`]. Kept only for attributes the registry declares
    /// single-valued: one posting per entry, and the key-like
    /// attributes an equality search names.
    by_value: Option<(Syntax, Vec<Arc<ValueTable>>)>,
}

/// One attribute's postings while [`InstanceIndex::build`] is still
/// pushing to them: plain lists, wrapped for sharing once complete.
struct UnsharedPostings {
    present: Vec<EntryId>,
    by_value: Option<(Syntax, Vec<ValueTable>)>,
}

impl UnsharedPostings {
    fn new(registry: &AttributeRegistry, attr: &str) -> Self {
        let key_like = registry.get(attr).filter(|def| def.is_single_valued());
        UnsharedPostings {
            present: Vec::new(),
            by_value: key_like.map(|def| (def.syntax(), vec![HashMap::new(); BUCKETS])),
        }
    }

    fn push(&mut self, id: EntryId, values: &[String]) {
        self.present.push(id);
        let Some((syntax, tables)) = &mut self.by_value else { return };
        for value in values {
            let key = syntax.normalize(value);
            let list = tables[bucket_of(&key)].entry(key).or_default();
            // An entry breaking the single-value rule may hold two
            // spellings of one value: post it once.
            if list.last() != Some(&id) {
                list.push(id);
            }
        }
    }

    fn share(self) -> AttributePostings {
        AttributePostings {
            present: PostingList::from_sorted(self.present),
            by_value: self
                .by_value
                .map(|(syntax, tables)| (syntax, tables.into_iter().map(Arc::new).collect())),
        }
    }
}

/// Where `id` sits (`Ok`) or belongs (`Err`) in a value table's list;
/// an entry labelled past the last element — an append — skips the
/// search.
fn position(list: &[EntryId], forest: &Forest, id: EntryId) -> Result<usize, usize> {
    let label = forest.pre(id);
    match list.last() {
        Some(&last) if forest.pre(last) >= label => {
            list.binary_search_by_key(&label, |&e| forest.pre(e))
        }
        _ => Err(list.len()),
    }
}

/// The distinct normalized values `values` post under `syntax`.
fn keys(syntax: &Syntax, values: &[String]) -> Vec<String> {
    let mut keys: Vec<String> = values.iter().map(|v| syntax.normalize(v)).collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Label-sorted entry lists by object class, by attribute presence,
/// and by value for single-valued attributes.
///
/// Two indexes are equal iff they hold the same lists, however those are
/// chunked: one maintained post by post equals the one built from
/// scratch of the same instance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InstanceIndex {
    /// lowercase class name → entry ids sorted by label.
    by_class: HashMap<String, PostingList>,
    /// lowercase attribute key → presence and equality postings.
    by_attribute: HashMap<String, AttributePostings>,
    /// All live entries sorted by label.
    all: PostingList,
}

impl InstanceIndex {
    /// Builds the index in one preorder pass — the bulk path (boot,
    /// restore, after a move) and the oracle the maintained index is
    /// tested against. `forest` must be numbered (entries are visited in
    /// preorder, so pushed lists come out sorted). Map keys are allocated
    /// once per distinct name, not once per (entry, name) pair; each list
    /// is one flat allocation, shared as one chunk until a write splits
    /// it.
    pub(crate) fn build(
        forest: &Forest,
        entries: &CowVec<Option<Arc<Entry>>>,
        registry: &AttributeRegistry,
    ) -> InstanceIndex {
        debug_assert!(forest.is_numbered());
        let mut all = Vec::with_capacity(forest.len());
        let mut by_class: HashMap<String, Vec<EntryId>> = HashMap::new();
        let mut by_attribute: HashMap<String, UnsharedPostings> = HashMap::new();
        let mut folded = String::new();
        for id in forest.iter() {
            all.push(id);
            let Some(entry) = entries.get(id.index()).and_then(Option::as_deref) else {
                continue;
            };
            for class in entry.classes() {
                folded.clear();
                folded.push_str(class);
                folded.make_ascii_lowercase();
                match by_class.get_mut(&folded) {
                    Some(list) => list.push(id),
                    None => {
                        by_class.insert(folded.clone(), vec![id]);
                    }
                }
            }
            for (attr, values) in entry.attributes() {
                match by_attribute.get_mut(attr) {
                    Some(postings) => postings.push(id, values),
                    None => {
                        let mut postings = UnsharedPostings::new(registry, attr);
                        postings.push(id, values);
                        by_attribute.insert(attr.to_owned(), postings);
                    }
                }
            }
        }
        InstanceIndex {
            by_class: by_class
                .into_iter()
                .map(|(class, list)| (class, PostingList::from_sorted(list)))
                .collect(),
            by_attribute: by_attribute.into_iter().map(|(a, p)| (a, p.share())).collect(),
            all: PostingList::from_sorted(all),
        }
    }

    /// Adds the labelled, live entry `id` to exactly the lists it
    /// belongs to. Returns how many chunks and value tables the post
    /// copied out of a shared version or split off — O(1) per list.
    pub(crate) fn post(
        &mut self,
        forest: &Forest,
        registry: &AttributeRegistry,
        id: EntryId,
        entry: &Entry,
    ) -> usize {
        let mut written = self.all.insert(forest, id);
        for class in entry.classes() {
            written += self.add_class(forest, &fold_name(class), id);
        }
        for (attr, values) in entry.attributes() {
            written += self.add_attribute(forest, registry, id, attr, values);
        }
        written
    }

    /// Takes `id` out of every list `entry` — its content when it was
    /// posted — put it in. `id` must still be live and labelled. Lists
    /// left empty go, as [`build`](Self::build) would not have made them.
    /// Returns what [`post`](Self::post) does.
    pub(crate) fn unpost(&mut self, forest: &Forest, id: EntryId, entry: &Entry) -> usize {
        let mut written = self.all.remove(forest, id);
        for class in entry.classes() {
            written += self.drop_class(forest, &fold_name(class), id);
        }
        for (attr, values) in entry.attributes() {
            written += self.drop_attribute(forest, id, attr, values);
        }
        written
    }

    /// Moves the live entry `id`, posted under `old`, to the lists its
    /// content `new` puts it in — touching only the lists whose membership
    /// the change alters, and of an attribute whose values changed only
    /// the value tables of the values it gained or lost. Returns what
    /// [`post`](Self::post) does.
    pub(crate) fn repost(
        &mut self,
        forest: &Forest,
        registry: &AttributeRegistry,
        id: EntryId,
        old: &Entry,
        new: &Entry,
    ) -> usize {
        let mut written = 0;
        for class in old.classes().iter().filter(|&c| !new.has_class(c)) {
            written += self.drop_class(forest, &fold_name(class), id);
        }
        for class in new.classes().iter().filter(|&c| !old.has_class(c)) {
            written += self.add_class(forest, &fold_name(class), id);
        }
        for (attr, before) in old.attributes() {
            let after = new.values(attr);
            if after.is_empty() {
                written += self.drop_attribute(forest, id, attr, before);
            } else if before != after {
                let Some(postings) = self.by_attribute.get_mut(attr) else { continue };
                let Some((syntax, tables)) = &mut postings.by_value else { continue };
                let (gone, kept) = (keys(syntax, before), keys(syntax, after));
                for key in gone.iter().filter(|key| kept.binary_search(key).is_err()) {
                    written += drop_value(tables, forest, key, id);
                }
                for key in kept.into_iter().filter(|key| gone.binary_search(key).is_err()) {
                    written += add_value(tables, forest, key, id);
                }
            }
        }
        for (attr, values) in new.attributes().filter(|(attr, _)| !old.has_attribute(attr)) {
            written += self.add_attribute(forest, registry, id, attr, values);
        }
        written
    }

    fn add_class(&mut self, forest: &Forest, class: &str, id: EntryId) -> usize {
        match self.by_class.get_mut(class) {
            Some(list) => list.insert(forest, id),
            None => self.by_class.entry(class.to_owned()).or_default().insert(forest, id),
        }
    }

    fn drop_class(&mut self, forest: &Forest, class: &str, id: EntryId) -> usize {
        let Some(list) = self.by_class.get_mut(class) else { return 0 };
        let written = list.remove(forest, id);
        if list.is_empty() {
            self.by_class.remove(class);
        }
        written
    }

    fn add_attribute(
        &mut self,
        forest: &Forest,
        registry: &AttributeRegistry,
        id: EntryId,
        attr: &str,
        values: &[String],
    ) -> usize {
        let postings = self
            .by_attribute
            .entry(attr.to_owned())
            .or_insert_with(|| UnsharedPostings::new(registry, attr).share());
        let mut written = postings.present.insert(forest, id);
        if let Some((syntax, tables)) = &mut postings.by_value {
            for key in keys(syntax, values) {
                written += add_value(tables, forest, key, id);
            }
        }
        written
    }

    fn drop_attribute(
        &mut self,
        forest: &Forest,
        id: EntryId,
        attr: &str,
        values: &[String],
    ) -> usize {
        let Some(postings) = self.by_attribute.get_mut(attr) else { return 0 };
        let mut written = postings.present.remove(forest, id);
        if postings.present.is_empty() {
            self.by_attribute.remove(attr);
            return written;
        }
        if let Some((syntax, tables)) = &mut postings.by_value {
            for key in keys(syntax, values) {
                written += drop_value(tables, forest, &key, id);
            }
        }
        written
    }

    /// Entries that belong to `class` (case-insensitive), preorder-sorted.
    pub fn entries_with_class(&self, class: &str) -> Postings<'_> {
        self.by_class.get(fold_name(class).as_ref()).map(PostingList::view).unwrap_or_default()
    }

    fn postings(&self, attr: &str) -> Option<&AttributePostings> {
        self.by_attribute.get(fold_name(attr).as_ref())
    }

    /// Entries holding at least one value of `attr`, preorder-sorted.
    pub fn entries_with_attribute(&self, attr: &str) -> Postings<'_> {
        self.postings(attr).map(|postings| postings.present.view()).unwrap_or_default()
    }

    /// Entries holding a value of `attr` equal to `value` under the
    /// attribute's matching rule, preorder-sorted — answered from the
    /// equality postings. `None` when `attr` carries none (it is present
    /// in the instance and not single-valued): the caller has to test
    /// the values of [`entries_with_attribute`](Self::entries_with_attribute).
    pub fn entries_with_value(&self, attr: &str, value: &str) -> Option<&[EntryId]> {
        let Some(postings) = self.postings(attr) else { return Some(&[]) };
        let (syntax, tables) = postings.by_value.as_ref()?;
        let key = syntax.normalize(value);
        Some(tables[bucket_of(&key)].get(&key).map_or(&[], Vec::as_slice))
    }

    /// All live entries, preorder-sorted.
    pub fn all_entries(&self) -> Postings<'_> {
        self.all.view()
    }

    /// Number of entries that belong to `class` (the per-class counts that,
    /// per §4.2, make required-class elements `◇c` incrementally testable
    /// against deletion).
    pub fn class_count(&self, class: &str) -> usize {
        self.entries_with_class(class).len()
    }

    /// The distinct (lowercased) class names present in the instance.
    pub fn classes(&self) -> impl Iterator<Item = &str> {
        self.by_class.keys().map(String::as_str)
    }
}

/// Posts `id` under the normalized value `key`; says whether the value
/// table was copied out of a shared version.
fn add_value(tables: &mut [Arc<ValueTable>], forest: &Forest, key: String, id: EntryId) -> usize {
    let table = &mut tables[bucket_of(&key)];
    let copied = usize::from(Arc::get_mut(table).is_none());
    let list = Arc::make_mut(table).entry(key).or_default();
    if let Err(at) = position(list, forest, id) {
        list.insert(at, id);
    }
    copied
}

/// Un-posts `id` from the normalized value `key`, dropping the key when
/// no entry is left under it; says whether the value table was copied.
fn drop_value(tables: &mut [Arc<ValueTable>], forest: &Forest, key: &str, id: EntryId) -> usize {
    let table = &mut tables[bucket_of(key)];
    if table.get(key).is_none_or(|list| position(list, forest, id).is_err()) {
        return 0;
    }
    let copied = usize::from(Arc::get_mut(table).is_none());
    let table = Arc::make_mut(table);
    let list = table.get_mut(key).expect("checked above");
    if let Ok(at) = position(list, forest, id) {
        list.remove(at);
    }
    if list.is_empty() {
        table.remove(key);
    }
    copied
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::entry::Entry;
    use crate::forest::EntryId;
    use crate::instance::{DirectoryInstance, Prepared};
    use crate::postings::PostingList;

    fn sample() -> DirectoryInstance {
        let mut d = DirectoryInstance::white_pages();
        let org = d.add_root_entry(
            Entry::builder().class("organization").class("top").attr("o", "att").build(),
        );
        let unit = d
            .add_child_entry(
                org,
                Entry::builder().class("orgUnit").class("top").attr("ou", "labs").build(),
            )
            .unwrap();
        d.add_child_entry(
            unit,
            Entry::builder().class("person").class("top").attr("uid", "a").build(),
        )
        .unwrap();
        d.add_child_entry(
            unit,
            Entry::builder()
                .class("person")
                .class("top")
                .attr("uid", "b")
                .attr("mail", "b@x")
                .build(),
        )
        .unwrap();
        d.prepare();
        d
    }

    #[test]
    fn class_lists_are_preorder_sorted() {
        let d = sample();
        let (f, idx) = (d.forest(), d.index());
        let tops = idx.entries_with_class("top").to_slice();
        assert_eq!(tops.len(), 4);
        for w in tops.windows(2) {
            assert!(f.pre(w[0]) < f.pre(w[1]));
        }
        assert_eq!(idx.entries_with_class("person").len(), 2);
        assert_eq!(idx.entries_with_class("PERSON").len(), 2);
        assert!(idx.entries_with_class("absent").is_empty());
    }

    #[test]
    fn attribute_presence() {
        let d = sample();
        let idx = d.index();
        assert_eq!(idx.entries_with_attribute("uid").len(), 2);
        assert_eq!(idx.entries_with_attribute("mail").len(), 1);
        assert_eq!(idx.entries_with_attribute("objectClass").len(), 4);
        assert_eq!(idx.all_entries().len(), 4);
    }

    #[test]
    fn class_counts() {
        let d = sample();
        let idx = d.index();
        assert_eq!(idx.class_count("person"), 2);
        assert_eq!(idx.class_count("organization"), 1);
        assert_eq!(idx.class_count("router"), 0);
        let mut classes: Vec<_> = idx.classes().collect();
        classes.sort_unstable();
        assert_eq!(classes, ["organization", "orgunit", "person", "top"]);
    }

    #[test]
    fn equality_postings_cover_the_single_valued_attributes() {
        let mut d = sample();
        let b = d.index().entries_with_attribute("mail").iter().next().unwrap();
        assert_eq!(d.index().entries_with_value("uid", "B"), Some(&[b][..]));
        assert_eq!(d.index().entries_with_value("UID", "nobody"), Some(&[][..]));
        // Multi-valued attributes carry no postings; an attribute no
        // entry holds needs none to be answered.
        assert_eq!(d.index().entries_with_value("mail", "b@x"), None);
        assert_eq!(d.index().entries_with_value("nickname", "bee"), Some(&[][..]));

        // Two spellings of one value in one entry post it once, and
        // values are folded as the attribute's syntax folds them.
        let entry = d.entry_mut(b).unwrap();
        entry.add_value("uid", " B ");
        entry.add_value("employeeNumber", "007");
        d.prepare();
        assert_eq!(d.index().entries_with_value("uid", "b"), Some(&[b][..]));
        assert_eq!(d.index().entries_with_value("employeeNumber", "7"), Some(&[b][..]));
    }

    /// The O(|ΔD|) tripwire, as counts: one insertion into a shared
    /// version of a 20k-entry directory copies one chunk of each list the
    /// new entry belongs to and one value table per posted value —
    /// nothing else — and relabels no other node.
    #[test]
    fn one_insertion_unshares_only_the_lists_it_posts_to() {
        let mut base = DirectoryInstance::white_pages();
        let org =
            base.add_root_entry(Entry::builder().class("organization").attr("o", "x").build());
        let mut units = Vec::new();
        for u in 0..200 {
            let ou = Entry::builder().class("orgUnit").class("top").attr("ou", format!("u{u}"));
            let unit = base.add_child_entry(org, ou.build()).unwrap();
            units.push(unit);
            for p in 0..100 {
                let person = Entry::builder()
                    .class("person")
                    .class("top")
                    .attr("uid", format!("u{u}p{p}"))
                    .attr("employeeNumber", format!("{}", u * 100 + p))
                    .attr("title", "staff");
                base.add_child_entry(unit, person.build()).unwrap();
            }
        }
        assert_eq!(base.prepare(), Prepared { posted: 0, rebuilt: true, unshared: 0 });
        // A first write splits every built list it lands in; the version
        // it leaves is the one later writes fork from.
        let warm = Entry::builder().class("person").class("top").attr("uid", "warm");
        let warm = base.add_child_entry(units[3], warm.build()).unwrap();
        base.prepare();
        base.remove_leaf(warm).unwrap();
        base.prepare();
        let labels = |d: &DirectoryInstance, ids: &[EntryId]| -> Vec<u64> {
            ids.iter().map(|&id| d.forest().pre(id)).collect()
        };
        let before: Vec<EntryId> = base.forest().iter().collect();

        let mut next = base.clone();
        let fresh = Entry::builder().class("person").class("top").attr("uid", "fresh");
        let new = next.add_child_entry(units[77], fresh.attr("mail", "f@x").build()).unwrap();
        // all, person, top, objectclass, uid, a new mail list, one uid table.
        assert_eq!(next.prepare(), Prepared { posted: 1, rebuilt: false, unshared: 7 });

        let (old, now) = (base.index(), next.index());
        let copied = |a: &PostingList, b: &PostingList| {
            let (a, b) = (a.view(), b.view());
            a.chunk_count() - a.shared_chunks(&b)
        };
        assert_eq!(copied(&old.all, &now.all), 1);
        assert_eq!(old.by_class.len(), 4);
        for (class, list) in &old.by_class {
            let posted_to = ["person", "top"].contains(&class.as_str());
            assert_eq!(copied(list, &now.by_class[class]), usize::from(posted_to), "class {class}");
        }
        assert_eq!(old.by_attribute.len(), 6);
        assert_eq!(now.by_attribute.len(), 7, "mail is new");
        for (attr, postings) in &old.by_attribute {
            let posted_to = ["objectclass", "uid"].contains(&attr.as_str());
            assert_eq!(
                copied(&postings.present, &now.by_attribute[attr].present),
                usize::from(posted_to),
                "attribute {attr}"
            );
            let tables = |index: &super::InstanceIndex| {
                index.by_attribute[attr].by_value.as_ref().map(|(_, tables)| tables.clone())
            };
            let copied = match (tables(old), tables(now)) {
                (Some(a), Some(b)) => a.iter().zip(&b).filter(|(a, b)| !Arc::ptr_eq(a, b)).count(),
                (None, None) => 0,
                _ => panic!("{attr} gained or lost its postings"),
            };
            assert_eq!(copied, usize::from(attr == "uid"), "value tables of {attr}");
        }
        assert_eq!(labels(&next, &before), labels(&base, &before), "no other node relabelled");
        assert_eq!(now.entries_with_value("uid", "FRESH"), Some(&[new][..]));
        assert_eq!(old.entries_with_value("uid", "fresh"), Some(&[][..]));
        next.check_prepared().unwrap();
        base.check_prepared().unwrap();

        // Removing it again un-posts on the spot, from the same lists.
        next.remove_leaf(new).unwrap();
        assert!(next.is_prepared());
        assert!(next.index() == base.index());
        next.check_prepared().unwrap();
    }
}
