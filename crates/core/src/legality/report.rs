//! Violation types and the legality report.
//!
//! The checker does not just answer yes/no: every way an instance can fall
//! outside the bounding-schema's bounds (Definition 2.7) is reported as a
//! typed [`Violation`] pinpointing the entry and schema element involved.

use std::fmt;

use bschema_directory::EntryId;

use crate::schema::{ForbidKind, RelKind};

/// One way an instance violates a bounding-schema.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Violation {
    // ----- attribute schema (Definition 2.7, first block) -----
    /// An entry belongs to a class but lacks one of its required attributes.
    MissingRequiredAttribute {
        /// The offending entry.
        entry: EntryId,
        /// The class imposing the requirement.
        class: String,
        /// The missing attribute (lowercase key).
        attribute: String,
    },
    /// An entry holds an attribute no class it belongs to allows.
    AttributeNotAllowed {
        /// The offending entry.
        entry: EntryId,
        /// The disallowed attribute (lowercase key).
        attribute: String,
    },

    // ----- class schema (Definition 2.7, second block) -----
    /// An entry belongs to a class the schema does not mention.
    UnknownClass {
        /// The offending entry.
        entry: EntryId,
        /// The unknown class name.
        class: String,
    },
    /// An entry has no core object class.
    NoCoreClass {
        /// The offending entry.
        entry: EntryId,
    },
    /// An entry belongs to a core class but not to one of its superclasses
    /// (violating `ci ⇒ cj`).
    MissingSuperclass {
        /// The offending entry.
        entry: EntryId,
        /// The class it belongs to.
        class: String,
        /// The superclass it is missing.
        superclass: String,
    },
    /// An entry belongs to two incomparable core classes (violating
    /// `ci ⇏ cj` / single inheritance).
    ExclusiveClasses {
        /// The offending entry.
        entry: EntryId,
        /// One core class.
        first: String,
        /// The other, incomparable, core class.
        second: String,
    },
    /// An entry carries an auxiliary class no core class of it allows.
    AuxiliaryNotAllowed {
        /// The offending entry.
        entry: EntryId,
        /// The disallowed auxiliary class.
        auxiliary: String,
    },

    // ----- structure schema (Definition 2.7, third block) -----
    /// `◇class ∈ Cr` but no entry belongs to `class`.
    MissingRequiredClass {
        /// The required-but-absent class.
        class: String,
    },
    /// An entry of `source` lacks the required `kind`-related `target` entry.
    RequiredRelViolation {
        /// The witness entry (member of `source` with no qualifying
        /// relative).
        entry: EntryId,
        /// `ci` of the violated element.
        source: String,
        /// The relationship direction.
        kind: RelKind,
        /// `cj` of the violated element.
        target: String,
    },
    /// An entry of `upper` has a forbidden `kind`-related `lower` entry.
    ForbiddenRelViolation {
        /// The witness entry (member of `upper` with a forbidden relative).
        entry: EntryId,
        /// `ci` of the violated element.
        upper: String,
        /// Child or descendant.
        kind: ForbidKind,
        /// `cj` of the violated element.
        lower: String,
    },

    /// Two entries share a value for a directory-wide key attribute
    /// (§6.1 keys).
    DuplicateKey {
        /// The later (document-order) entry holding the duplicate.
        entry: EntryId,
        /// The key attribute.
        attribute: String,
        /// The clashing value (as held by `entry`).
        value: String,
        /// The earlier entry holding the same value.
        first: EntryId,
    },

    // ----- value level (Definition 2.1(3a); optional strict mode) -----
    /// A value fell outside its attribute's syntax domain, or a
    /// single-valued attribute held several values.
    ValueViolation {
        /// The offending entry.
        entry: EntryId,
        /// Rendered description.
        message: String,
    },
}

impl Violation {
    /// The entry this violation is anchored at, if entry-specific.
    pub fn entry(&self) -> Option<EntryId> {
        match self {
            Violation::MissingRequiredAttribute { entry, .. }
            | Violation::AttributeNotAllowed { entry, .. }
            | Violation::UnknownClass { entry, .. }
            | Violation::NoCoreClass { entry }
            | Violation::MissingSuperclass { entry, .. }
            | Violation::ExclusiveClasses { entry, .. }
            | Violation::AuxiliaryNotAllowed { entry, .. }
            | Violation::RequiredRelViolation { entry, .. }
            | Violation::ForbiddenRelViolation { entry, .. }
            | Violation::DuplicateKey { entry, .. }
            | Violation::ValueViolation { entry, .. } => Some(*entry),
            Violation::MissingRequiredClass { .. } => None,
        }
    }

    /// A stable kebab-case label for the violation kind, used as the
    /// metrics label in `managed.rollback_violation.<kind>` counters.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Violation::MissingRequiredAttribute { .. } => "missing-required-attribute",
            Violation::AttributeNotAllowed { .. } => "attribute-not-allowed",
            Violation::UnknownClass { .. } => "unknown-class",
            Violation::NoCoreClass { .. } => "no-core-class",
            Violation::MissingSuperclass { .. } => "missing-superclass",
            Violation::ExclusiveClasses { .. } => "exclusive-classes",
            Violation::AuxiliaryNotAllowed { .. } => "auxiliary-not-allowed",
            Violation::MissingRequiredClass { .. } => "missing-required-class",
            Violation::RequiredRelViolation { .. } => "required-relationship",
            Violation::ForbiddenRelViolation { .. } => "forbidden-relationship",
            Violation::DuplicateKey { .. } => "duplicate-key",
            Violation::ValueViolation { .. } => "value",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::MissingRequiredAttribute { entry, class, attribute } => write!(
                f,
                "entry {entry}: class {class:?} requires attribute {attribute:?}, which is absent"
            ),
            Violation::AttributeNotAllowed { entry, attribute } => write!(
                f,
                "entry {entry}: attribute {attribute:?} is not allowed by any of the entry's classes"
            ),
            Violation::UnknownClass { entry, class } => {
                write!(f, "entry {entry}: object class {class:?} is not in the schema")
            }
            Violation::NoCoreClass { entry } => {
                write!(f, "entry {entry}: no core object class")
            }
            Violation::MissingSuperclass { entry, class, superclass } => write!(
                f,
                "entry {entry}: belongs to {class:?} but not to its superclass {superclass:?}"
            ),
            Violation::ExclusiveClasses { entry, first, second } => write!(
                f,
                "entry {entry}: belongs to incomparable core classes {first:?} and {second:?}"
            ),
            Violation::AuxiliaryNotAllowed { entry, auxiliary } => write!(
                f,
                "entry {entry}: auxiliary class {auxiliary:?} is not allowed by any core class of the entry"
            ),
            Violation::MissingRequiredClass { class } => {
                write!(f, "no entry belongs to required class {class:?} (◇{class})")
            }
            Violation::RequiredRelViolation { entry, source, kind, target } => write!(
                f,
                "entry {entry}: belongs to {source:?} but has no {target:?} {}",
                match kind {
                    RelKind::Child => "child",
                    RelKind::Descendant => "descendant",
                    RelKind::Parent => "parent",
                    RelKind::Ancestor => "ancestor",
                }
            ),
            Violation::ForbiddenRelViolation { entry, upper, kind, lower } => write!(
                f,
                "entry {entry}: belongs to {upper:?} and has a forbidden {lower:?} {}",
                match kind {
                    ForbidKind::Child => "child",
                    ForbidKind::Descendant => "descendant",
                }
            ),
            Violation::DuplicateKey { entry, attribute, value, first } => write!(
                f,
                "entry {entry}: key attribute {attribute:?} value {value:?} already held by entry {first}"
            ),
            Violation::ValueViolation { entry, message } => {
                write!(f, "entry {entry}: {message}")
            }
        }
    }
}

/// Outcome of a legality check: the (possibly empty) list of violations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LegalityReport {
    violations: Vec<Violation>,
}

impl LegalityReport {
    /// An empty (legal) report.
    pub fn legal() -> Self {
        Self::default()
    }

    /// Builds a report from collected violations.
    pub fn from_violations(violations: Vec<Violation>) -> Self {
        LegalityReport { violations }
    }

    /// Definition 2.7: the instance is legal iff nothing was violated.
    pub fn is_legal(&self) -> bool {
        self.violations.is_empty()
    }

    /// Number of violations found.
    pub fn len(&self) -> usize {
        self.violations.len()
    }

    /// True when no violations were found.
    pub fn is_empty(&self) -> bool {
        self.violations.is_empty()
    }

    /// The violations.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Appends a violation.
    pub fn push(&mut self, v: Violation) {
        self.violations.push(v);
    }

    /// Merges another report into this one.
    pub fn extend(&mut self, other: LegalityReport) {
        self.violations.extend(other.violations);
    }

    /// Sorts violations for deterministic comparison in tests.
    pub fn normalized(mut self) -> Self {
        self.violations.sort();
        self.violations.dedup();
        self
    }
}

impl fmt::Display for LegalityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_legal() {
            return write!(f, "legal (no violations)");
        }
        writeln!(f, "ILLEGAL: {} violation(s)", self.len())?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

impl IntoIterator for LegalityReport {
    type Item = Violation;
    type IntoIter = std::vec::IntoIter<Violation>;
    fn into_iter(self) -> Self::IntoIter {
        self.violations.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_basics() {
        let mut r = LegalityReport::legal();
        assert!(r.is_legal());
        assert_eq!(r.to_string(), "legal (no violations)");
        r.push(Violation::NoCoreClass { entry: EntryId::from_index(3) });
        assert!(!r.is_legal());
        assert_eq!(r.len(), 1);
        assert!(r.to_string().contains("no core object class"));
        assert_eq!(r.violations()[0].entry(), Some(EntryId::from_index(3)));
    }

    #[test]
    fn content_vs_structure_classification() {
        let content =
            Violation::AttributeNotAllowed { entry: EntryId::from_index(0), attribute: "x".into() };
        let structure = Violation::MissingRequiredClass { class: "person".into() };
        assert_eq!(content.entry(), Some(EntryId::from_index(0)));
        assert_eq!(structure.entry(), None);
    }

    #[test]
    fn normalized_dedups() {
        let v = Violation::NoCoreClass { entry: EntryId::from_index(1) };
        let r = LegalityReport::from_violations(vec![v.clone(), v.clone()]).normalized();
        assert_eq!(r.len(), 1);
    }
}
