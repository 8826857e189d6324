//! The attribute schema `A = (C, A, ρ, α)` of Definition 2.2.
//!
//! Per object class, `ρ(c)` gives the attributes every member entry *must*
//! hold a value for (the lower bound) and `α(c)` the attributes a member
//! *may* hold (the upper bound), with `ρ(c) ⊆ α(c)` enforced structurally:
//! requiring an attribute also allows it.

use std::collections::{BTreeSet, HashMap};

use super::class::ClassId;

/// Per-class required (`ρ`) and allowed (`α`) attribute sets.
///
/// Attribute names are stored lowercased (LDAP attribute names are
/// case-insensitive). `objectClass` is implicitly allowed for every class:
/// Definition 2.1 makes it part of every entry, so listing it in each `α(c)`
/// would be noise.
#[derive(Debug, Clone, Default)]
pub struct AttributeSchema {
    required: HashMap<ClassId, BTreeSet<String>>,
    allowed: HashMap<ClassId, BTreeSet<String>>,
    /// Attributes whose values must be unique across the whole instance —
    /// the paper's §6.1 key notion: "any notion of a key in an LDAP
    /// directory must be unique across all entries in the directory
    /// instance, not just within a single object class".
    unique: BTreeSet<String>,
    /// Classes whose members may hold *any* attribute — §6.2's
    /// "extensible object that allows all possible attributes" (LDAPv3
    /// `extensibleObject`). For these, `α(c) = 𝒜`.
    extensible: BTreeSet<ClassId>,
}

impl AttributeSchema {
    /// An empty attribute schema: nothing required, nothing (explicitly)
    /// allowed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `attr` to `ρ(class)` (and hence to `α(class)`).
    pub fn require(&mut self, class: ClassId, attr: &str) {
        let key = attr.to_ascii_lowercase();
        self.allowed.entry(class).or_default().insert(key.clone());
        self.required.entry(class).or_default().insert(key);
    }

    /// Adds `attr` to `α(class)` only.
    pub fn allow(&mut self, class: ClassId, attr: &str) {
        self.allowed.entry(class).or_default().insert(attr.to_ascii_lowercase());
    }

    /// `ρ(class)` — required attribute keys, sorted.
    pub fn required(&self, class: ClassId) -> impl Iterator<Item = &str> {
        self.required.get(&class).into_iter().flatten().map(String::as_str)
    }

    /// `α(class)` — allowed attribute keys, sorted (includes required ones;
    /// excludes the implicit `objectClass`).
    pub fn allowed(&self, class: ClassId) -> impl Iterator<Item = &str> {
        self.allowed.get(&class).into_iter().flatten().map(String::as_str)
    }

    /// Whether `attr` is required for `class`.
    pub fn is_required(&self, class: ClassId, attr: &str) -> bool {
        let key = attr.to_ascii_lowercase();
        self.required.get(&class).is_some_and(|s| s.contains(&key))
    }

    /// Whether `attr` is allowed for `class` (`objectClass` always is, and
    /// extensible classes allow everything).
    pub fn is_allowed(&self, class: ClassId, attr: &str) -> bool {
        if self.extensible.contains(&class) {
            return true;
        }
        let key = attr.to_ascii_lowercase();
        key == bschema_directory::OBJECT_CLASS
            || self.allowed.get(&class).is_some_and(|s| s.contains(&key))
    }

    /// Marks `class` extensible: its members may hold any attribute
    /// (`α(class) = 𝒜`, the §6.2 `extensibleObject` notion).
    pub fn mark_extensible(&mut self, class: ClassId) {
        self.extensible.insert(class);
    }

    /// Whether `class` allows all attributes.
    pub fn is_extensible(&self, class: ClassId) -> bool {
        self.extensible.contains(&class)
    }

    /// All extensible classes.
    pub fn extensible_classes(&self) -> impl Iterator<Item = ClassId> + '_ {
        self.extensible.iter().copied()
    }

    /// `|α(class)|` — appears in the paper's content-check complexity bound.
    pub fn allowed_count(&self, class: ClassId) -> usize {
        self.allowed.get(&class).map_or(0, BTreeSet::len)
    }

    /// Declares `attr` a directory-wide key (§6.1): no two entries may
    /// share a value for it.
    pub fn declare_unique(&mut self, attr: &str) {
        self.unique.insert(attr.to_ascii_lowercase());
    }

    /// Whether `attr` is a directory-wide key.
    pub fn is_unique(&self, attr: &str) -> bool {
        self.unique.contains(&attr.to_ascii_lowercase())
    }

    /// All declared keys, sorted.
    pub fn unique_attributes(&self) -> impl Iterator<Item = &str> {
        self.unique.iter().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PERSON: ClassId = ClassId(1);
    const ORG: ClassId = ClassId(2);

    #[test]
    fn require_implies_allow() {
        let mut a = AttributeSchema::new();
        a.require(PERSON, "name");
        a.require(PERSON, "uid");
        assert!(a.is_required(PERSON, "name"));
        assert!(a.is_allowed(PERSON, "name"));
        assert_eq!(a.required(PERSON).collect::<Vec<_>>(), ["name", "uid"]);
        // ρ(c) ⊆ α(c) by construction.
        for attr in a.required(PERSON) {
            assert!(a.is_allowed(PERSON, attr));
        }
    }

    #[test]
    fn allow_does_not_require() {
        let mut a = AttributeSchema::new();
        a.allow(PERSON, "cellularPhone");
        assert!(a.is_allowed(PERSON, "cellularPhone"));
        assert!(!a.is_required(PERSON, "cellularPhone"));
    }

    #[test]
    fn names_fold_case() {
        let mut a = AttributeSchema::new();
        a.require(PERSON, "TelephoneNumber");
        assert!(a.is_required(PERSON, "telephonenumber"));
        assert!(a.is_allowed(PERSON, "TELEPHONENUMBER"));
    }

    #[test]
    fn object_class_always_allowed() {
        let a = AttributeSchema::new();
        assert!(a.is_allowed(PERSON, "objectClass"));
        assert!(a.is_allowed(ORG, "objectclass"));
    }

    #[test]
    fn extensible_classes_allow_everything() {
        let mut a = AttributeSchema::new();
        assert!(!a.is_allowed(PERSON, "anything"));
        a.mark_extensible(PERSON);
        assert!(a.is_extensible(PERSON));
        assert!(a.is_allowed(PERSON, "anything"));
        assert!(a.is_allowed(PERSON, "somethingElse"));
        // Requirements still apply independently.
        a.require(PERSON, "uid");
        assert!(a.is_required(PERSON, "uid"));
        // Other classes unaffected.
        assert!(!a.is_extensible(ORG));
        assert!(!a.is_allowed(ORG, "anything"));
        assert_eq!(a.extensible_classes().collect::<Vec<_>>(), [PERSON]);
    }

    #[test]
    fn per_class_isolation() {
        let mut a = AttributeSchema::new();
        a.require(PERSON, "uid");
        a.allow(ORG, "o");
        assert!(!a.is_allowed(ORG, "uid"));
        assert!(!a.is_allowed(PERSON, "o"));
        assert_eq!(a.allowed_count(PERSON), 1);
        assert_eq!(a.allowed_count(ClassId(99)), 0);
    }
}
