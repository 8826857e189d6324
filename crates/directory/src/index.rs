//! Secondary indexes over a directory instance.
//!
//! The §3.2 evaluation strategy needs, for each object class `c`, the list of
//! entries belonging to `c` *sorted in document (preorder) order* — that is
//! the "directory entries are sorted" precondition under which hierarchical
//! selection queries evaluate in O(|Q|·|D|). [`InstanceIndex`] materialises
//! those lists, plus per-attribute presence lists for general filters and
//! `(attribute, value)` equality postings for the key-like attributes.

use std::collections::HashMap;

use crate::attribute::{fold_name, AttributeRegistry};
use crate::cow::CowVec;
use crate::entry::Entry;
use crate::forest::{EntryId, Forest};
use crate::syntax::Syntax;

/// What the index keeps per attribute present in the instance.
#[derive(Debug, Clone)]
struct AttributePostings {
    /// Entries holding at least one value, sorted by preorder rank.
    present: Vec<EntryId>,
    /// normalized value → entries holding it, sorted by preorder rank.
    /// Kept only for attributes the registry declares single-valued:
    /// one posting per entry, and the key-like attributes an equality
    /// search names.
    by_value: Option<(Syntax, HashMap<String, Vec<EntryId>>)>,
}

impl AttributePostings {
    fn new(registry: &AttributeRegistry, attr: &str) -> Self {
        let key_like = registry.get(attr).filter(|def| def.is_single_valued());
        AttributePostings {
            present: Vec::new(),
            by_value: key_like.map(|def| (def.syntax(), HashMap::new())),
        }
    }

    fn post(&mut self, id: EntryId, values: &[String]) {
        self.present.push(id);
        let Some((syntax, by_value)) = &mut self.by_value else { return };
        for value in values {
            let list = by_value.entry(syntax.normalize(value)).or_default();
            // An entry breaking the single-value rule may hold two
            // spellings of one value: post it once.
            if list.last() != Some(&id) {
                list.push(id);
            }
        }
    }
}

/// Preorder-sorted entry lists by object class, by attribute presence,
/// and by value for single-valued attributes.
#[derive(Debug, Clone, Default)]
pub struct InstanceIndex {
    /// lowercase class name → entry ids sorted by preorder rank.
    by_class: HashMap<String, Vec<EntryId>>,
    /// lowercase attribute key → presence and equality postings.
    by_attribute: HashMap<String, AttributePostings>,
    /// All live entries sorted by preorder rank.
    all: Vec<EntryId>,
}

impl InstanceIndex {
    /// Builds the index in one preorder pass. `forest` must be numbered
    /// (entries are visited in preorder, so pushed lists come out sorted).
    /// Map keys are allocated once per distinct name, not once per
    /// (entry, name) pair.
    pub(crate) fn build(
        forest: &Forest,
        entries: &CowVec<Option<Entry>>,
        registry: &AttributeRegistry,
    ) -> InstanceIndex {
        debug_assert!(forest.is_numbered());
        let mut index =
            InstanceIndex { all: Vec::with_capacity(forest.len()), ..InstanceIndex::default() };
        let mut folded = String::new();
        for id in forest.iter() {
            index.all.push(id);
            let Some(entry) = entries.get(id.index()).and_then(Option::as_ref) else {
                continue;
            };
            for class in entry.classes() {
                folded.clear();
                folded.push_str(class);
                folded.make_ascii_lowercase();
                match index.by_class.get_mut(&folded) {
                    Some(list) => list.push(id),
                    None => {
                        index.by_class.insert(folded.clone(), vec![id]);
                    }
                }
            }
            for (attr, values) in entry.attributes() {
                match index.by_attribute.get_mut(attr) {
                    Some(postings) => postings.post(id, values),
                    None => {
                        let mut postings = AttributePostings::new(registry, attr);
                        postings.post(id, values);
                        index.by_attribute.insert(attr.to_owned(), postings);
                    }
                }
            }
        }
        index
    }

    /// Entries that belong to `class` (case-insensitive), preorder-sorted.
    pub fn entries_with_class(&self, class: &str) -> &[EntryId] {
        self.by_class.get(fold_name(class).as_ref()).map_or(&[], Vec::as_slice)
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
        let (syntax, by_value) = postings.by_value.as_ref()?;
        Some(by_value.get(&syntax.normalize(value)).map_or(&[], Vec::as_slice))
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
    use crate::entry::Entry;
    use crate::instance::DirectoryInstance;

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
}
