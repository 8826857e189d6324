//! Directory entries: sets of (attribute, value) pairs with class membership.
//!
//! Implements Definition 2.1's per-entry structure: `val(r)`, a finite set of
//! (attribute, value) pairs, and `class(r)`, the entry's object classes.
//! Condition 3(b) of the definition — `(objectClass, c) ∈ val(r)` **iff**
//! `c ∈ class(r)` — is enforced structurally: the class set *is* the value
//! set of the `objectClass` attribute; there is no second copy to drift.

use std::collections::BTreeMap;
use std::fmt;

use crate::attribute::{fold_name, OBJECT_CLASS};

/// A directory entry: a multimap from attribute name to value set.
///
/// Attribute names are case-insensitive and stored lowercased; values keep
/// their original spelling. Values of one attribute form a *set*: adding an
/// exact duplicate is a no-op (class names deduplicate case-insensitively).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Entry {
    /// attribute key (lowercase) → values, insertion-ordered within the key.
    attrs: BTreeMap<String, Vec<String>>,
}

impl Entry {
    /// An empty entry (no attributes, no classes). Note an empty entry is
    /// never legal under any bounding-schema: Definition 2.1(2) requires a
    /// non-empty class set — the legality checker reports this.
    pub fn new() -> Self {
        Entry::default()
    }

    /// Starts a fluent builder.
    pub fn builder() -> EntryBuilder {
        EntryBuilder { entry: Entry::new() }
    }

    /// Adds one value to `attr`, preserving set semantics. Returns `true` if
    /// the value was new. For `objectClass`, duplicates are detected
    /// case-insensitively (class names are case-insensitive).
    pub fn add_value(&mut self, attr: &str, value: impl Into<String>) -> bool {
        let key = attr.to_ascii_lowercase();
        let value = value.into();
        let values = self.attrs.entry(key.clone()).or_default();
        let duplicate = if key == OBJECT_CLASS {
            values.iter().any(|v| v.eq_ignore_ascii_case(&value))
        } else {
            values.iter().any(|v| v == &value)
        };
        if duplicate {
            // Avoid leaving an empty value vector behind if we just created it.
            if values.is_empty() {
                self.attrs.remove(&key);
            }
            return false;
        }
        values.push(value);
        true
    }

    /// Removes one value from `attr` (exact match, except class names which
    /// match case-insensitively). Returns `true` if a value was removed.
    /// Removing the last value removes the attribute entirely — Definition
    /// 2.1 has no notion of an attribute that is "present with no values".
    pub fn remove_value(&mut self, attr: &str, value: &str) -> bool {
        let key = attr.to_ascii_lowercase();
        let Some(values) = self.attrs.get_mut(&key) else {
            return false;
        };
        let pos = if key == OBJECT_CLASS {
            values.iter().position(|v| v.eq_ignore_ascii_case(value))
        } else {
            values.iter().position(|v| v == value)
        };
        match pos {
            Some(i) => {
                values.remove(i);
                if values.is_empty() {
                    self.attrs.remove(&key);
                }
                true
            }
            None => false,
        }
    }

    /// Replaces all values of `attr`.
    pub fn set_values(&mut self, attr: &str, values: impl IntoIterator<Item = String>) {
        let key = attr.to_ascii_lowercase();
        self.attrs.remove(&key);
        for v in values {
            self.add_value(&key, v);
        }
    }

    /// Drops an attribute and all its values. Returns `true` if it existed.
    pub fn remove_attribute(&mut self, attr: &str) -> bool {
        self.attrs.remove(&attr.to_ascii_lowercase()).is_some()
    }

    /// The values of `attr` (empty slice if absent).
    pub fn values(&self, attr: &str) -> &[String] {
        self.attrs.get(fold_name(attr).as_ref()).map_or(&[], |v| v.as_slice())
    }

    /// The first value of `attr`, if any (convenience for single-valued use).
    pub fn first_value(&self, attr: &str) -> Option<&str> {
        self.values(attr).first().map(String::as_str)
    }

    /// Whether the entry holds at least one value for `attr`.
    pub fn has_attribute(&self, attr: &str) -> bool {
        !self.values(attr).is_empty()
    }

    /// Iterates `(attribute_key, values)` pairs, keys lowercase, sorted.
    pub fn attributes(&self) -> impl Iterator<Item = (&str, &[String])> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }

    /// Number of distinct attributes present.
    pub fn attribute_count(&self) -> usize {
        self.attrs.len()
    }

    /// Total number of (attribute, value) pairs — the paper's `|val(e)|`.
    pub fn value_count(&self) -> usize {
        self.attrs.values().map(Vec::len).sum()
    }

    // ----- class membership (Definition 2.1 condition 3b) -----

    /// The entry's object classes, original spelling — the paper's
    /// `class(r)`, i.e. exactly the values of `objectClass`.
    pub fn classes(&self) -> &[String] {
        self.values(OBJECT_CLASS)
    }

    /// Case-insensitive class-membership test.
    pub fn has_class(&self, class: &str) -> bool {
        self.classes().iter().any(|c| c.eq_ignore_ascii_case(class))
    }

    /// Adds a class (sugar over `objectClass`). Returns `true` if new.
    pub fn add_class(&mut self, class: impl Into<String>) -> bool {
        self.add_value(OBJECT_CLASS, class)
    }

    /// Removes a class. Returns `true` if it was present.
    pub fn remove_class(&mut self, class: &str) -> bool {
        self.remove_value(OBJECT_CLASS, class)
    }

    /// Number of classes — the paper's `|class(e)|`.
    pub fn class_count(&self) -> usize {
        self.classes().len()
    }
}

impl fmt::Display for Entry {
    /// LDIF-flavoured rendering: one `attr: value` line per pair.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (attr, values) in &self.attrs {
            for value in values {
                if !first {
                    writeln!(f)?;
                }
                first = false;
                write!(f, "{attr}: {value}")?;
            }
        }
        Ok(())
    }
}

/// Fluent construction of entries:
///
/// ```
/// use bschema_directory::Entry;
/// let e = Entry::builder()
///     .class("person")
///     .class("top")
///     .attr("uid", "laks")
///     .attr("mail", "laks@cs.concordia.ca")
///     .attr("mail", "laks@research.att.com")
///     .build();
/// assert!(e.has_class("Person"));
/// assert_eq!(e.values("mail").len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EntryBuilder {
    entry: Entry,
}

impl EntryBuilder {
    /// Adds an object class.
    pub fn class(mut self, class: impl Into<String>) -> Self {
        self.entry.add_class(class);
        self
    }

    /// Adds classes from an iterator.
    pub fn classes<I, S>(mut self, classes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        for c in classes {
            self.entry.add_class(c);
        }
        self
    }

    /// Adds one (attribute, value) pair.
    pub fn attr(mut self, attr: &str, value: impl Into<String>) -> Self {
        self.entry.add_value(attr, value);
        self
    }

    /// Finishes construction.
    pub fn build(self) -> Entry {
        self.entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_set_is_object_class_values() {
        // Definition 2.1(3b): (objectClass, c) ∈ val(r) iff c ∈ class(r).
        let mut e = Entry::new();
        e.add_class("person");
        assert_eq!(e.values("objectClass"), ["person"]);
        e.add_value("objectclass", "top");
        assert!(e.has_class("top"));
        e.remove_value("OBJECTCLASS", "person");
        assert!(!e.has_class("person"));
        assert_eq!(e.classes(), ["top"]);
    }

    #[test]
    fn class_dedup_is_case_insensitive() {
        let mut e = Entry::new();
        assert!(e.add_class("Person"));
        assert!(!e.add_class("person"));
        assert_eq!(e.class_count(), 1);
        assert_eq!(e.classes(), ["Person"]); // first spelling wins
    }

    #[test]
    fn plain_values_dedup_exactly() {
        let mut e = Entry::new();
        assert!(e.add_value("mail", "a@b.c"));
        assert!(!e.add_value("mail", "a@b.c"));
        // Different case is a different raw value at the entry level;
        // syntax-aware matching happens in the query/legality layers.
        assert!(e.add_value("mail", "A@B.C"));
        assert_eq!(e.values("mail").len(), 2);
    }

    #[test]
    fn removing_last_value_drops_attribute() {
        let mut e = Entry::new();
        e.add_value("mail", "a@b.c");
        assert!(e.has_attribute("mail"));
        assert!(e.remove_value("mail", "a@b.c"));
        assert!(!e.has_attribute("mail"));
        assert_eq!(e.attribute_count(), 0);
        assert!(!e.remove_value("mail", "a@b.c"));
    }

    #[test]
    fn attribute_names_case_fold() {
        let mut e = Entry::new();
        e.add_value("Mail", "x@y.z");
        assert_eq!(e.values("MAIL"), ["x@y.z"]);
        assert!(e.has_attribute("mail"));
        let keys: Vec<_> = e.attributes().map(|(k, _)| k.to_owned()).collect();
        assert_eq!(keys, ["mail"]);
    }

    #[test]
    fn value_count_counts_pairs() {
        let e = Entry::builder()
            .class("researcher")
            .class("person")
            .class("top")
            .attr("uid", "laks")
            .attr("name", "laks lakshmanan")
            .attr("mail", "laks@cs.concordia.ca")
            .attr("mail", "laks@research.att.com")
            .build();
        // |val(e)| includes the three objectClass pairs.
        assert_eq!(e.value_count(), 7);
        assert_eq!(e.class_count(), 3);
        assert_eq!(e.attribute_count(), 4);
    }

    #[test]
    fn set_values_replaces() {
        let mut e = Entry::new();
        e.add_value("mail", "old@x.y");
        e.set_values("mail", vec!["new1@x.y".to_owned(), "new2@x.y".to_owned()]);
        assert_eq!(e.values("mail"), ["new1@x.y", "new2@x.y"]);
    }

    #[test]
    fn display_is_ldif_like() {
        let e = Entry::builder().class("person").attr("uid", "suciu").build();
        let text = e.to_string();
        assert!(text.contains("objectclass: person"));
        assert!(text.contains("uid: suciu"));
    }

    #[test]
    fn first_value() {
        let mut e = Entry::new();
        assert_eq!(e.first_value("uid"), None);
        e.add_value("uid", "laks");
        assert_eq!(e.first_value("uid"), Some("laks"));
    }
}
