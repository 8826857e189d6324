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
//! Every list sits behind its own `Arc`, so the version of an instance a
//! write forks from keeps the lists the write did not touch.

use std::collections::HashMap;
use std::sync::Arc;

use crate::attribute::{fold_name, AttributeRegistry};
use crate::cow::CowVec;
use crate::entry::Entry;
use crate::forest::{EntryId, Forest};
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

/// What the index keeps per attribute present in the instance. Every
/// list sits behind its own `Arc`: versions of an instance share the
/// lists neither has posted to since they forked.
#[derive(Debug, Clone, PartialEq)]
struct AttributePostings {
    /// Entries holding at least one value, sorted by label.
    present: Arc<Vec<EntryId>>,
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
            present: Arc::new(self.present),
            by_value: self
                .by_value
                .map(|(syntax, tables)| (syntax, tables.into_iter().map(Arc::new).collect())),
        }
    }
}

/// Where `id` sits (`Ok`) or belongs (`Err`) in a list sorted by label;
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

fn insert(list: &mut Vec<EntryId>, forest: &Forest, id: EntryId) {
    if let Err(at) = position(list, forest, id) {
        list.insert(at, id);
    }
}

fn remove(list: &mut Vec<EntryId>, forest: &Forest, id: EntryId) {
    if let Ok(at) = position(list, forest, id) {
        list.remove(at);
    }
}

/// Label-sorted entry lists by object class, by attribute presence,
/// and by value for single-valued attributes.
///
/// Two indexes are equal iff they hold the same lists: one maintained
/// post by post equals the one built from scratch of the same instance.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InstanceIndex {
    /// lowercase class name → entry ids sorted by label.
    by_class: HashMap<String, Arc<Vec<EntryId>>>,
    /// lowercase attribute key → presence and equality postings.
    by_attribute: HashMap<String, AttributePostings>,
    /// All live entries sorted by label.
    all: Arc<Vec<EntryId>>,
}

impl InstanceIndex {
    /// Builds the index in one preorder pass — the bulk path (boot,
    /// restore, after a move) and the oracle the maintained index is
    /// tested against. `forest` must be numbered (entries are visited in
    /// preorder, so pushed lists come out sorted). Map keys are allocated
    /// once per distinct name, not once per (entry, name) pair.
    pub(crate) fn build(
        forest: &Forest,
        entries: &CowVec<Option<Entry>>,
        registry: &AttributeRegistry,
    ) -> InstanceIndex {
        debug_assert!(forest.is_numbered());
        let mut all = Vec::with_capacity(forest.len());
        let mut by_class: HashMap<String, Vec<EntryId>> = HashMap::new();
        let mut by_attribute: HashMap<String, UnsharedPostings> = HashMap::new();
        let mut folded = String::new();
        for id in forest.iter() {
            all.push(id);
            let Some(entry) = entries.get(id.index()).and_then(Option::as_ref) else {
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
            by_class: by_class.into_iter().map(|(class, list)| (class, Arc::new(list))).collect(),
            by_attribute: by_attribute.into_iter().map(|(a, p)| (a, p.share())).collect(),
            all: Arc::new(all),
        }
    }

    /// Adds the labelled, live entry `id` to exactly the lists it
    /// belongs to, un-sharing those and no others.
    pub(crate) fn post(
        &mut self,
        forest: &Forest,
        registry: &AttributeRegistry,
        id: EntryId,
        entry: &Entry,
    ) {
        insert(Arc::make_mut(&mut self.all), forest, id);
        for class in entry.classes() {
            let list = self.by_class.entry(fold_name(class).into_owned()).or_default();
            insert(Arc::make_mut(list), forest, id);
        }
        for (attr, values) in entry.attributes() {
            let postings = self
                .by_attribute
                .entry(attr.to_owned())
                .or_insert_with(|| UnsharedPostings::new(registry, attr).share());
            insert(Arc::make_mut(&mut postings.present), forest, id);
            let Some((syntax, tables)) = &mut postings.by_value else { continue };
            for value in values {
                let key = syntax.normalize(value);
                let table = Arc::make_mut(&mut tables[bucket_of(&key)]);
                insert(table.entry(key).or_default(), forest, id);
            }
        }
    }

    /// Takes `id` out of every list `entry` — its content when it was
    /// posted — put it in. `id` must still be live and labelled. Lists
    /// left empty go, as [`build`](Self::build) would not have made them.
    pub(crate) fn unpost(&mut self, forest: &Forest, id: EntryId, entry: &Entry) {
        remove(Arc::make_mut(&mut self.all), forest, id);
        for class in entry.classes() {
            let class = fold_name(class);
            let Some(list) = self.by_class.get_mut(class.as_ref()) else { continue };
            remove(Arc::make_mut(list), forest, id);
            if list.is_empty() {
                self.by_class.remove(class.as_ref());
            }
        }
        for (attr, values) in entry.attributes() {
            let Some(postings) = self.by_attribute.get_mut(attr) else { continue };
            remove(Arc::make_mut(&mut postings.present), forest, id);
            if postings.present.is_empty() {
                self.by_attribute.remove(attr);
                continue;
            }
            let Some((syntax, tables)) = &mut postings.by_value else { continue };
            for value in values {
                let key = syntax.normalize(value);
                let table = Arc::make_mut(&mut tables[bucket_of(&key)]);
                let Some(list) = table.get_mut(&key) else { continue };
                remove(list, forest, id);
                if list.is_empty() {
                    table.remove(&key);
                }
            }
        }
    }

    /// Entries that belong to `class` (case-insensitive), preorder-sorted.
    pub fn entries_with_class(&self, class: &str) -> &[EntryId] {
        self.by_class.get(fold_name(class).as_ref()).map_or(&[], |list| list.as_slice())
    }

    fn postings(&self, attr: &str) -> Option<&AttributePostings> {
        self.by_attribute.get(fold_name(attr).as_ref())
    }

    /// Entries holding at least one value of `attr`, preorder-sorted.
    pub fn entries_with_attribute(&self, attr: &str) -> &[EntryId] {
        self.postings(attr).map_or(&[], |postings| &postings.present)
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
    pub fn all_entries(&self) -> &[EntryId] {
        &self.all
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

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::entry::Entry;
    use crate::forest::EntryId;
    use crate::instance::{DirectoryInstance, Prepared};

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
        let tops = idx.entries_with_class("top");
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
        let b = d.index().entries_with_attribute("mail")[0];
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
    /// version of a 20k-entry directory copies the lists the new entry
    /// belongs to and one value table per posted value — nothing else —
    /// and relabels no other node.
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
        assert_eq!(base.prepare(), Prepared { posted: 0, rebuilt: true });
        let labels = |d: &DirectoryInstance, ids: &[EntryId]| -> Vec<u64> {
            ids.iter().map(|&id| d.forest().pre(id)).collect()
        };
        let before: Vec<EntryId> = base.forest().iter().collect();

        let mut next = base.clone();
        let fresh = Entry::builder().class("person").class("top").attr("uid", "fresh");
        let new = next.add_child_entry(units[77], fresh.attr("mail", "f@x").build()).unwrap();
        assert_eq!(next.prepare(), Prepared { posted: 1, rebuilt: false });

        let (old, now) = (base.index(), next.index());
        assert!(!Arc::ptr_eq(&old.all, &now.all));
        assert_eq!(old.by_class.len(), 4);
        for (class, list) in &old.by_class {
            let posted_to = ["person", "top"].contains(&class.as_str());
            assert_eq!(Arc::ptr_eq(list, &now.by_class[class]), !posted_to, "class {class}");
        }
        assert_eq!(old.by_attribute.len(), 6);
        assert_eq!(now.by_attribute.len(), 7, "mail is new");
        for (attr, postings) in &old.by_attribute {
            let posted_to = ["objectclass", "uid"].contains(&attr.as_str());
            assert_eq!(
                Arc::ptr_eq(&postings.present, &now.by_attribute[attr].present),
                !posted_to,
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
