//! The structure schema `S = (Cr, Er, Ef)` of Definition 2.4.
//!
//! * `Cr` — required object classes: `◇c` demands at least one entry whose
//!   classes include `c`.
//! * `Er ⊆ Cc × {ch, de, pa, an} × Cc` — required structural relationships:
//!   the triple `(ci, k, cj)` demands every `ci` entry have a *k*-related
//!   entry belonging to `cj` (a child / descendant / parent / ancestor,
//!   per Definition 2.6).
//! * `Ef ⊆ Cc × {ch, de} × Cc` — forbidden structural relationships: the
//!   triple `(ci, k, cj)` forbids any `ci` entry from having a `cj` child /
//!   descendant.

use std::collections::BTreeSet;
use std::fmt;

use super::class::ClassId;

/// Direction/kind of a required structural relationship.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RelKind {
    /// `(ci, ch, cj)`: every `ci` entry has a child in `cj`
    /// (paper notation `ci → cj`).
    Child,
    /// `(ci, de, cj)`: every `ci` entry has a proper descendant in `cj`
    /// (`ci ⇒⇒ cj`).
    Descendant,
    /// `(ci, pa, cj)`: every `ci` entry has a parent in `cj`
    /// (`cj ← ci`).
    Parent,
    /// `(ci, an, cj)`: every `ci` entry has a proper ancestor in `cj`
    /// (`cj ⇐⇐ ci`).
    Ancestor,
}

impl RelKind {
    /// All four kinds, for table-driven tests and benches.
    pub const ALL: [RelKind; 4] =
        [RelKind::Child, RelKind::Descendant, RelKind::Parent, RelKind::Ancestor];

    /// Short mnemonic matching the paper's `{ch, de, pa, an}`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            RelKind::Child => "ch",
            RelKind::Descendant => "de",
            RelKind::Parent => "pa",
            RelKind::Ancestor => "an",
        }
    }
}

impl fmt::Display for RelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Kind of a forbidden structural relationship (`Ef` only admits downward
/// forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ForbidKind {
    /// `(ci, ch, cj)`: no `ci` entry has a `cj` child (`ci ↛ cj`).
    Child,
    /// `(ci, de, cj)`: no `ci` entry has a `cj` descendant (`ci ↛↛ cj`).
    Descendant,
}

impl ForbidKind {
    /// Both kinds.
    pub const ALL: [ForbidKind; 2] = [ForbidKind::Child, ForbidKind::Descendant];

    /// Short mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            ForbidKind::Child => "ch",
            ForbidKind::Descendant => "de",
        }
    }
}

impl fmt::Display for ForbidKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// One required structural relationship `(source, kind, target) ∈ Er`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequiredRel {
    /// `ci` — the class whose members carry the obligation.
    pub source: ClassId,
    /// The relationship direction.
    pub kind: RelKind,
    /// `cj` — the class the related entry must belong to.
    pub target: ClassId,
}

/// One forbidden structural relationship `(upper, kind, lower) ∈ Ef`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ForbiddenRel {
    /// `ci` — the (would-be) parent/ancestor class.
    pub upper: ClassId,
    /// Child or descendant.
    pub kind: ForbidKind,
    /// `cj` — the (would-be) child/descendant class.
    pub lower: ClassId,
}

/// The structure schema triple.
#[derive(Debug, Clone, Default)]
pub struct StructureSchema {
    required_classes: BTreeSet<ClassId>,
    required: Vec<RequiredRel>,
    forbidden: Vec<ForbiddenRel>,
}

impl StructureSchema {
    /// An empty structure schema (no structural constraints).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `◇class` to `Cr`.
    pub fn require_class(&mut self, class: ClassId) {
        self.required_classes.insert(class);
    }

    /// Adds a required relationship to `Er` (idempotent).
    pub fn require_rel(&mut self, source: ClassId, kind: RelKind, target: ClassId) {
        let rel = RequiredRel { source, kind, target };
        if !self.required.contains(&rel) {
            self.required.push(rel);
        }
    }

    /// Adds a forbidden relationship to `Ef` (idempotent).
    pub fn forbid_rel(&mut self, upper: ClassId, kind: ForbidKind, lower: ClassId) {
        let rel = ForbiddenRel { upper, kind, lower };
        if !self.forbidden.contains(&rel) {
            self.forbidden.push(rel);
        }
    }

    /// Empties `Cr`, leaving `Er`/`Ef` untouched. Used to derive the
    /// shard-local view of a schema: `◇c` is the only instance-global
    /// element of the triple, so per-shard checkers drop it and the
    /// shard router enforces it with global per-class counts.
    pub(crate) fn clear_required_classes(&mut self) {
        self.required_classes.clear();
    }

    /// `Cr`, sorted.
    pub fn required_classes(&self) -> impl Iterator<Item = ClassId> + '_ {
        self.required_classes.iter().copied()
    }

    /// `Er`, in insertion order.
    pub fn required_rels(&self) -> &[RequiredRel] {
        &self.required
    }

    /// `Ef`, in insertion order.
    pub fn forbidden_rels(&self) -> &[ForbiddenRel] {
        &self.forbidden
    }

    /// `|S|` — total number of structure-schema elements, as used in the
    /// Theorem 3.1 bound.
    pub fn len(&self) -> usize {
        self.required_classes.len() + self.required.len() + self.forbidden.len()
    }

    /// True when no structural constraints exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: ClassId = ClassId(1);
    const B: ClassId = ClassId(2);

    #[test]
    fn build_and_inspect() {
        let mut s = StructureSchema::new();
        s.require_class(A);
        s.require_rel(A, RelKind::Descendant, B);
        s.forbid_rel(B, ForbidKind::Child, A);
        assert_eq!(s.required_classes().collect::<Vec<_>>(), [A]);
        assert_eq!(s.required_rels().len(), 1);
        assert_eq!(s.forbidden_rels().len(), 1);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(
            s.required_rels()[0],
            RequiredRel { source: A, kind: RelKind::Descendant, target: B }
        );
    }

    #[test]
    fn idempotent_insertion() {
        let mut s = StructureSchema::new();
        s.require_rel(A, RelKind::Child, B);
        s.require_rel(A, RelKind::Child, B);
        s.forbid_rel(A, ForbidKind::Descendant, B);
        s.forbid_rel(A, ForbidKind::Descendant, B);
        s.require_class(A);
        s.require_class(A);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn kind_mnemonics() {
        assert_eq!(RelKind::Child.to_string(), "ch");
        assert_eq!(RelKind::Descendant.to_string(), "de");
        assert_eq!(RelKind::Parent.to_string(), "pa");
        assert_eq!(RelKind::Ancestor.to_string(), "an");
        assert_eq!(ForbidKind::Child.to_string(), "ch");
        assert_eq!(ForbidKind::Descendant.to_string(), "de");
        assert_eq!(RelKind::ALL.len(), 4);
        assert_eq!(ForbidKind::ALL.len(), 2);
    }
}
