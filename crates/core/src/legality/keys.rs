//! Directory-wide key (uniqueness) checking — the §6.1 key discussion:
//! "any notion of a key in an LDAP directory must be unique across all
//! entries in the directory instance, not just within a single object
//! class."
//!
//! Values are compared under the attribute's matching rule (from the
//! instance's registry), so `Laks` and `laks` clash for a case-ignore
//! syntax.

use std::collections::HashMap;

use bschema_directory::{DirectoryInstance, Entry, EntryId};

use super::report::Violation;
use crate::schema::DirectorySchema;

/// Checks every declared key attribute, appending one violation per entry
/// that shares a value with an earlier (document-order) entry.
pub fn check_instance(schema: &DirectorySchema, dir: &DirectoryInstance, out: &mut Vec<Violation>) {
    for attr in schema.attributes().unique_attributes() {
        let syntax = dir.registry().syntax_of(attr);
        let holders = dir.index().entries_with_attribute(attr);
        let mut seen: HashMap<String, EntryId> = HashMap::with_capacity(holders.len());
        for id in holders.iter() {
            let entry = dir.entry(id).expect("indexed entries are live");
            for value in entry.values(attr) {
                let normalized = syntax.normalize(value);
                match seen.get(&normalized) {
                    Some(&first) if first != id => {
                        out.push(Violation::DuplicateKey {
                            entry: id,
                            attribute: attr.to_owned(),
                            value: value.clone(),
                            first,
                        });
                    }
                    Some(_) => {}
                    None => {
                        seen.insert(normalized, id);
                    }
                }
            }
        }
    }
}

/// Incremental variant for a subtree insertion: only the new entries'
/// values need checking — against each other and against the rest of the
/// instance. `dir` is post-insert and prepared. Where the index carries
/// equality postings for the attribute, the rest of the instance is the
/// entries posted under a new value — O(|ΔD|) lookups; otherwise every
/// holder of the attribute is read.
pub fn check_insertion(
    schema: &DirectorySchema,
    dir: &DirectoryInstance,
    delta_root: EntryId,
    out: &mut Vec<Violation>,
) {
    let forest = dir.forest();
    let in_delta = |id: EntryId| id == delta_root || forest.interval_is_ancestor(delta_root, id);
    let live = |id: EntryId| (id, dir.entry(id).expect("indexed entries are live"));
    let delta: Vec<(EntryId, &Entry)> =
        std::iter::once(delta_root).chain(forest.descendants(delta_root)).map(live).collect();
    for attr in schema.attributes().unique_attributes() {
        let Some((new_values, holders)) = new_values(dir, attr, &delta, out) else { continue };
        // Clashes with pre-existing entries (D was legal, so only
        // new-vs-old pairs are possible beyond the new-vs-new above).
        let rest = holders.into_iter().filter(|&id| !in_delta(id)).map(live);
        clashes(dir, attr, &new_values, rest, out);
    }
}

/// [`check_insertion`] of the subtree `delta` (`(id, entry)` in
/// preorder) of a transaction not applied to the prepared `dir` yet. The
/// rest of the instance the insertions make is `dir` — its value tables,
/// deleted entries included — and `others`, the transaction's other new
/// entries, each with its place in that instance's document order; `place`
/// gives an entry of `dir` its own, on the same scale.
pub(crate) fn check_unapplied<'e, P: Ord + Copy>(
    schema: &DirectorySchema,
    dir: &'e DirectoryInstance,
    delta: &[(EntryId, &'e Entry)],
    others: &[(P, EntryId, &'e Entry)],
    place: impl Fn(EntryId) -> P,
    out: &mut Vec<Violation>,
) {
    for attr in schema.attributes().unique_attributes() {
        let Some((new_values, holders)) = new_values(dir, attr, delta, out) else { continue };
        let mut rest: Vec<(P, EntryId, &Entry)> = holders
            .into_iter()
            .map(|id| (place(id), id, dir.entry(id).expect("indexed entries are live")))
            .collect();
        rest.extend(others.iter().filter(|(_, _, entry)| entry.has_attribute(attr)));
        rest.sort_by_key(|&(at, _, _)| at);
        clashes(dir, attr, &new_values, rest.into_iter().map(|(_, id, e)| (id, e)), out);
    }
}

/// The normalized values of `attr` the new entries `delta` hold, each
/// with the first entry holding it, appending a violation for every later
/// one; `None` when they hold none. Beside it, in document order, the
/// entries of `dir` that may hold one too: those its index posts under
/// them, or every holder of `attr` where it carries no equality postings.
fn new_values(
    dir: &DirectoryInstance,
    attr: &str,
    delta: &[(EntryId, &Entry)],
    out: &mut Vec<Violation>,
) -> Option<(HashMap<String, EntryId>, Vec<EntryId>)> {
    let syntax = dir.registry().syntax_of(attr);
    let mut new_values: HashMap<String, EntryId> = HashMap::new();
    let mut posted: Option<Vec<EntryId>> = Some(Vec::new());
    for &(id, entry) in delta {
        for value in entry.values(attr) {
            let normalized = syntax.normalize(value);
            if let Some(&first) = new_values.get(&normalized) {
                if first != id {
                    out.push(Violation::DuplicateKey {
                        entry: id,
                        attribute: attr.to_owned(),
                        value: value.clone(),
                        first,
                    });
                }
            } else {
                new_values.insert(normalized, id);
                match (posted.as_mut(), dir.index().entries_with_value(attr, value)) {
                    (Some(posted), Some(holders)) => posted.extend_from_slice(holders),
                    _ => posted = None,
                }
            }
        }
    }
    if new_values.is_empty() {
        return None;
    }
    let holders = match posted {
        Some(mut posted) => {
            let forest = dir.forest();
            posted.sort_unstable_by_key(|&id| forest.pre(id));
            posted.dedup();
            posted
        }
        None => dir.index().entries_with_attribute(attr).iter().collect(),
    };
    Some((new_values, holders))
}

/// Appends a violation for each value of `attr` an entry of `rest` — in
/// document order — holds among `new_values`.
fn clashes<'e>(
    dir: &DirectoryInstance,
    attr: &str,
    new_values: &HashMap<String, EntryId>,
    rest: impl Iterator<Item = (EntryId, &'e Entry)>,
    out: &mut Vec<Violation>,
) {
    let syntax = dir.registry().syntax_of(attr);
    for (id, entry) in rest {
        for value in entry.values(attr) {
            if let Some(&new_entry) = new_values.get(&syntax.normalize(value)) {
                out.push(Violation::DuplicateKey {
                    entry: new_entry,
                    attribute: attr.to_owned(),
                    value: value.clone(),
                    first: id,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DirectorySchema;
    use bschema_directory::Entry;

    fn schema() -> DirectorySchema {
        DirectorySchema::builder()
            .core_class("person", "top")
            .map(|b| b.unique_attrs(["uid"]))
            .map(|b| b.build())
            .unwrap()
    }

    fn person(uid: &str) -> Entry {
        Entry::builder().classes(["person", "top"]).attr("uid", uid).build()
    }

    #[test]
    fn duplicate_keys_are_found() {
        let schema = schema();
        let mut dir = DirectoryInstance::white_pages();
        let root = dir.add_root_entry(person("laks"));
        dir.add_child_entry(root, person("suciu")).unwrap();
        // Case-insensitive clash: uid is a directoryString.
        let dup = dir.add_child_entry(root, person("LAKS")).unwrap();
        dir.prepare();
        let mut out = Vec::new();
        check_instance(&schema, &dir, &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            &out[0],
            Violation::DuplicateKey { entry, attribute, first, .. }
                if *entry == dup && attribute == "uid" && *first == root
        ));
    }

    #[test]
    fn distinct_keys_pass() {
        let schema = schema();
        let mut dir = DirectoryInstance::white_pages();
        let root = dir.add_root_entry(person("a"));
        dir.add_child_entry(root, person("b")).unwrap();
        dir.prepare();
        let mut out = Vec::new();
        check_instance(&schema, &dir, &mut out);
        assert!(out.is_empty());
    }

    /// The uids a generated delta draws from: clashes with the base
    /// (`b<i>`), a respelling of a base value, fresh values and a
    /// respelling of a fresh one.
    const UIDS: [&str; 8] = ["b0", "b1", "b2", " B3 ", "n0", "n1", "n2", "N0  "];

    /// A legal base of `shape.len()` entries (`b<i>`, entry 3 under two
    /// spellings) plus one inserted subtree whose entries carry one or
    /// two uids out of [`UIDS`]. `posted` decides whether the registry
    /// declares `uid` single-valued, i.e. whether the index posts it.
    fn base_and_delta(
        posted: bool,
        shape: &[u8],
        delta: &[(u8, u8, Option<u8>)],
    ) -> (DirectoryInstance, EntryId) {
        use bschema_directory::{AttributeDef, AttributeRegistry, Syntax};
        let mut registry = AttributeRegistry::new();
        let uid = AttributeDef::new("uid", Syntax::DirectoryString);
        registry.register(if posted { uid.single_valued() } else { uid }).unwrap();
        let mut dir = DirectoryInstance::new(registry);
        let mut ids = vec![dir.add_root_entry(person("b0"))];
        for (i, &pick) in shape.iter().enumerate().skip(1) {
            let parent = ids[pick as usize % ids.len()];
            ids.push(dir.add_child_entry(parent, person(&format!("b{i}"))).unwrap());
        }
        if let Some(&third) = ids.get(3) {
            dir.entry_mut(third).unwrap().add_value("uid", "B3");
        }
        dir.prepare();
        let mut new: Vec<EntryId> = Vec::new();
        for &(pick, uid, second) in delta {
            let parent = match new.is_empty() {
                true => ids[pick as usize % ids.len()],
                false => new[pick as usize % new.len()],
            };
            let mut entry = person(UIDS[uid as usize % UIDS.len()]);
            if let Some(second) = second {
                entry.add_value("uid", UIDS[second as usize % UIDS.len()]);
            }
            new.push(dir.add_child_entry(parent, entry).unwrap());
        }
        dir.prepare();
        (dir, new[0])
    }

    use proptest::prelude::*;

    proptest! {
        /// The Δ-check finds what the full check finds — the same values
        /// clash — and reads the same violations off the equality
        /// postings as off a scan of every holder.
        #[test]
        fn incremental_matches_full(
            shape in proptest::collection::vec(any::<u8>(), 1..24),
            delta in proptest::collection::vec(
                (any::<u8>(), any::<u8>(), any::<Option<u8>>()),
                1..6,
            ),
        ) {
            let schema = schema();
            let (with_postings, root) = base_and_delta(true, &shape, &delta);
            let (without, same_root) = base_and_delta(false, &shape, &delta);
            prop_assert_eq!(root, same_root);
            prop_assert!(with_postings.index().entries_with_value("uid", "x").is_some());
            prop_assert!(without.index().entries_with_value("uid", "x").is_none());

            let mut looked_up = Vec::new();
            check_insertion(&schema, &with_postings, root, &mut looked_up);
            let mut scanned = Vec::new();
            check_insertion(&schema, &without, root, &mut scanned);
            prop_assert_eq!(&looked_up, &scanned);

            let mut full = Vec::new();
            check_instance(&schema, &with_postings, &mut full);
            let clashing = |violations: &[Violation]| -> std::collections::BTreeSet<String> {
                violations
                    .iter()
                    .map(|v| match v {
                        Violation::DuplicateKey { value, .. } => value.trim().to_lowercase(),
                        other => panic!("not a key violation: {other:?}"),
                    })
                    .collect()
            };
            prop_assert_eq!(clashing(&looked_up), clashing(&full));
        }
    }

    #[test]
    fn multivalued_keys_within_one_entry_do_not_self_clash() {
        let schema = schema();
        let mut dir = DirectoryInstance::white_pages();
        let mut e = Entry::builder().classes(["person", "top"]).build();
        e.add_value("uid", "x");
        e.add_value("uid", "X"); // same normalized value, same entry
        dir.add_root_entry(e);
        dir.prepare();
        let mut out = Vec::new();
        check_instance(&schema, &dir, &mut out);
        assert!(out.is_empty(), "an entry does not clash with itself: {out:?}");
    }
}
