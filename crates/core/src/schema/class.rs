//! The class schema `H = (C, E, Aux)` of Definition 2.3.
//!
//! Core object classes form a single-inheritance tree rooted at `top`;
//! auxiliary classes attach to core classes via the `Aux` map. The tree
//! induces two derived relations the rest of the system consumes:
//!
//! * `ci ⇒ cj` (subclass, reflexive-transitive): every entry belonging to
//!   `ci` must also belong to `cj`;
//! * `ci ⇏ cj` (exclusion): `ci` and `cj` are incomparable core classes, so
//!   no entry may belong to both (single inheritance).

use std::collections::HashMap;
use std::fmt;

/// Compact handle to a class within one schema (index into its class table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub(crate) u32);

impl ClassId {
    /// Raw index, for side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Core (structural) vs auxiliary object class — the paper's `Cc` / `Cx`
/// partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassKind {
    /// Member of the single-inheritance tree.
    Core,
    /// Attachable to entries whose core class allows it.
    Auxiliary,
}

/// Errors from class-schema construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassSchemaError {
    /// A class name was declared twice.
    DuplicateClass(String),
    /// The referenced class is not declared.
    UnknownClass(String),
    /// A core class was used where an auxiliary was expected, or vice versa.
    WrongKind {
        /// The offending class.
        class: String,
        /// What the operation expected.
        expected: ClassKind,
    },
}

impl fmt::Display for ClassSchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClassSchemaError::DuplicateClass(c) => write!(f, "class {c:?} declared twice"),
            ClassSchemaError::UnknownClass(c) => write!(f, "unknown class {c:?}"),
            ClassSchemaError::WrongKind { class, expected } => {
                let expected = match expected {
                    ClassKind::Core => "a core class",
                    ClassKind::Auxiliary => "an auxiliary class",
                };
                write!(f, "class {class:?} is not {expected}")
            }
        }
    }
}

impl std::error::Error for ClassSchemaError {}

/// The class schema: core-class tree plus auxiliary associations.
#[derive(Debug, Clone)]
pub struct ClassSchema {
    /// Display names; index = `ClassId`.
    names: Vec<String>,
    /// lowercase name → id.
    by_key: HashMap<String, ClassId>,
    kinds: Vec<ClassKind>,
    /// Parent in the core tree (`None` for `top` and for auxiliaries).
    parents: Vec<Option<ClassId>>,
    /// Depth in the core tree (`0` for `top`; unused for auxiliaries).
    depths: Vec<u32>,
    /// `Aux(c)` per core class.
    aux: Vec<Vec<ClassId>>,
    top: ClassId,
}

impl Default for ClassSchema {
    fn default() -> Self {
        Self::new()
    }
}

impl ClassSchema {
    /// A schema containing only `top`.
    pub fn new() -> Self {
        let mut s = ClassSchema {
            names: Vec::new(),
            by_key: HashMap::new(),
            kinds: Vec::new(),
            parents: Vec::new(),
            depths: Vec::new(),
            aux: Vec::new(),
            top: ClassId(0),
        };
        let top = s.insert("top", ClassKind::Core, None, 0).expect("fresh schema accepts top");
        s.top = top;
        s
    }

    fn insert(
        &mut self,
        name: &str,
        kind: ClassKind,
        parent: Option<ClassId>,
        depth: u32,
    ) -> Result<ClassId, ClassSchemaError> {
        let key = name.to_ascii_lowercase();
        if self.by_key.contains_key(&key) {
            return Err(ClassSchemaError::DuplicateClass(name.to_owned()));
        }
        let id = ClassId(u32::try_from(self.names.len()).expect("class count fits u32"));
        self.names.push(name.to_owned());
        self.by_key.insert(key, id);
        self.kinds.push(kind);
        self.parents.push(parent);
        self.depths.push(depth);
        self.aux.push(Vec::new());
        Ok(id)
    }

    /// The root core class `top`.
    pub fn top(&self) -> ClassId {
        self.top
    }

    /// Declares a core class under `parent` (which must be core).
    pub fn add_core(&mut self, name: &str, parent: ClassId) -> Result<ClassId, ClassSchemaError> {
        self.check_kind(parent, ClassKind::Core)?;
        let depth = self.depths[parent.index()] + 1;
        self.insert(name, ClassKind::Core, Some(parent), depth)
    }

    /// Declares an auxiliary class.
    pub fn add_auxiliary(&mut self, name: &str) -> Result<ClassId, ClassSchemaError> {
        self.insert(name, ClassKind::Auxiliary, None, 0)
    }

    /// Permits entries of core class `core` to also carry auxiliary `aux` —
    /// extends `Aux(core)`.
    pub fn allow_auxiliary(&mut self, core: ClassId, aux: ClassId) -> Result<(), ClassSchemaError> {
        self.check_kind(core, ClassKind::Core)?;
        self.check_kind(aux, ClassKind::Auxiliary)?;
        if !self.aux[core.index()].contains(&aux) {
            self.aux[core.index()].push(aux);
        }
        Ok(())
    }

    fn check_kind(&self, class: ClassId, expected: ClassKind) -> Result<(), ClassSchemaError> {
        if self.kinds[class.index()] != expected {
            return Err(ClassSchemaError::WrongKind {
                class: self.name(class).to_owned(),
                expected,
            });
        }
        Ok(())
    }

    /// Resolves a (case-insensitive) name.
    pub fn lookup(&self, name: &str) -> Option<ClassId> {
        self.by_key.get(&name.to_ascii_lowercase()).copied()
    }

    /// Resolves a name, erroring when absent.
    pub fn resolve(&self, name: &str) -> Result<ClassId, ClassSchemaError> {
        self.lookup(name).ok_or_else(|| ClassSchemaError::UnknownClass(name.to_owned()))
    }

    /// Display name of `id`.
    pub fn name(&self, id: ClassId) -> &str {
        &self.names[id.index()]
    }

    /// Core or auxiliary?
    pub fn kind(&self, id: ClassId) -> ClassKind {
        self.kinds[id.index()]
    }

    /// True for core classes.
    pub fn is_core(&self, id: ClassId) -> bool {
        self.kinds[id.index()] == ClassKind::Core
    }

    /// The parent of a core class (`None` for `top` and auxiliaries).
    pub fn parent(&self, id: ClassId) -> Option<ClassId> {
        self.parents[id.index()]
    }

    /// Depth of a core class in the tree (`top` = 0).
    pub fn depth(&self, id: ClassId) -> u32 {
        self.depths[id.index()]
    }

    /// `Aux(core)`: the auxiliaries allowed for a core class.
    pub fn allowed_auxiliaries(&self, core: ClassId) -> &[ClassId] {
        &self.aux[core.index()]
    }

    /// All class ids, in declaration order.
    pub fn classes(&self) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.names.len() as u32).map(ClassId)
    }

    /// All core class ids.
    pub fn core_classes(&self) -> impl Iterator<Item = ClassId> + '_ {
        self.classes().filter(|&c| self.is_core(c))
    }

    /// All auxiliary class ids.
    pub fn auxiliary_classes(&self) -> impl Iterator<Item = ClassId> + '_ {
        self.classes().filter(|&c| !self.is_core(c))
    }

    /// Number of declared classes (core + auxiliary).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Never true: `top` always exists.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    // ----- derived relations -----

    /// `sub ⇒ sup` (reflexive-transitive subclass among core classes):
    /// every `sub` entry must also belong to `sup`.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        if !self.is_core(sub) || !self.is_core(sup) {
            return sub == sup;
        }
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.parents[c.index()];
        }
        false
    }

    /// `a ⇏ b`: incomparable core classes, forbidden from co-occurring.
    pub fn are_exclusive(&self, a: ClassId, b: ClassId) -> bool {
        self.is_core(a) && self.is_core(b) && !self.is_subclass(a, b) && !self.is_subclass(b, a)
    }

    /// `c` and its proper superclasses, nearest first, ending at `top`.
    pub fn superclass_chain(&self, c: ClassId) -> Vec<ClassId> {
        let mut out = Vec::with_capacity(self.depths[c.index()] as usize + 1);
        let mut cur = Some(c);
        while let Some(x) = cur {
            out.push(x);
            cur = self.parents[x.index()];
        }
        out
    }

    /// Whether auxiliary `aux` is allowed alongside core class `core`
    /// *or any of its superclasses* are irrelevant — `Aux` is looked up per
    /// core class exactly as Definition 2.3 states.
    pub fn aux_allowed(&self, core: ClassId, aux: ClassId) -> bool {
        self.aux[core.index()].contains(&aux)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the Figure 2 class schema.
    pub(crate) fn figure2() -> (ClassSchema, HashMap<&'static str, ClassId>) {
        let mut s = ClassSchema::new();
        let top = s.top();
        let org_group = s.add_core("orgGroup", top).unwrap();
        let organization = s.add_core("organization", org_group).unwrap();
        let org_unit = s.add_core("orgUnit", org_group).unwrap();
        let person = s.add_core("person", top).unwrap();
        let staff = s.add_core("staffMember", person).unwrap();
        let researcher = s.add_core("researcher", person).unwrap();
        let online = s.add_auxiliary("online").unwrap();
        let manager = s.add_auxiliary("manager").unwrap();
        let secretary = s.add_auxiliary("secretary").unwrap();
        let consultant = s.add_auxiliary("consultant").unwrap();
        let faculty = s.add_auxiliary("facultyMember").unwrap();
        s.allow_auxiliary(org_group, online).unwrap();
        s.allow_auxiliary(person, online).unwrap();
        for a in [manager, secretary, consultant] {
            s.allow_auxiliary(staff, a).unwrap();
        }
        for a in [manager, consultant, faculty] {
            s.allow_auxiliary(researcher, a).unwrap();
        }
        let mut names = HashMap::new();
        names.insert("top", top);
        names.insert("orgGroup", org_group);
        names.insert("organization", organization);
        names.insert("orgUnit", org_unit);
        names.insert("person", person);
        names.insert("staffMember", staff);
        names.insert("researcher", researcher);
        names.insert("online", online);
        names.insert("facultyMember", faculty);
        (s, names)
    }

    #[test]
    fn figure2_subclass_relations() {
        let (s, n) = figure2();
        // organization ⇒ orgGroup (paper's example).
        assert!(s.is_subclass(n["organization"], n["orgGroup"]));
        assert!(s.is_subclass(n["organization"], n["top"]));
        assert!(s.is_subclass(n["researcher"], n["person"]));
        assert!(!s.is_subclass(n["orgGroup"], n["organization"]));
        // Reflexive.
        assert!(s.is_subclass(n["person"], n["person"]));
    }

    #[test]
    fn figure2_exclusions() {
        let (s, n) = figure2();
        // organization ⇏ person (paper's example).
        assert!(s.are_exclusive(n["organization"], n["person"]));
        assert!(s.are_exclusive(n["staffMember"], n["researcher"]));
        assert!(!s.are_exclusive(n["person"], n["researcher"]));
        assert!(!s.are_exclusive(n["top"], n["person"])); // comparable
                                                          // Auxiliaries are never exclusive.
        assert!(!s.are_exclusive(n["online"], n["person"]));
    }

    #[test]
    fn figure2_aux_associations() {
        let (s, n) = figure2();
        assert!(s.aux_allowed(n["person"], n["online"]));
        assert!(s.aux_allowed(n["researcher"], n["facultyMember"]));
        assert!(!s.aux_allowed(n["person"], n["facultyMember"]));
        assert!(!s.aux_allowed(n["orgUnit"], n["online"])); // Aux is per-class, not inherited
        assert_eq!(s.allowed_auxiliaries(n["researcher"]).len(), 3);
    }

    #[test]
    fn chains_and_depths() {
        let (s, n) = figure2();
        assert_eq!(
            s.superclass_chain(n["researcher"]),
            vec![n["researcher"], n["person"], n["top"]]
        );
        assert_eq!(s.depth(n["top"]), 0);
        assert_eq!(s.depth(n["researcher"]), 2);
        assert_eq!(s.superclass_chain(n["top"]), vec![n["top"]]);
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let (s, n) = figure2();
        assert_eq!(s.lookup("ORGGROUP"), Some(n["orgGroup"]));
        assert_eq!(s.lookup("nosuch"), None);
        assert!(matches!(s.resolve("nosuch"), Err(ClassSchemaError::UnknownClass(_))));
        assert_eq!(s.name(n["orgGroup"]), "orgGroup");
    }

    #[test]
    fn duplicate_and_kind_errors() {
        let mut s = ClassSchema::new();
        let top = s.top();
        let a = s.add_core("a", top).unwrap();
        assert!(matches!(s.add_core("A", top), Err(ClassSchemaError::DuplicateClass(_))));
        let x = s.add_auxiliary("x").unwrap();
        assert!(matches!(s.add_core("b", x), Err(ClassSchemaError::WrongKind { .. })));
        assert!(matches!(s.allow_auxiliary(x, x), Err(ClassSchemaError::WrongKind { .. })));
        assert!(matches!(s.allow_auxiliary(a, a), Err(ClassSchemaError::WrongKind { .. })));
        // allow_auxiliary is idempotent.
        s.allow_auxiliary(a, x).unwrap();
        s.allow_auxiliary(a, x).unwrap();
        assert_eq!(s.allowed_auxiliaries(a), [x]);
    }

    #[test]
    fn class_iterators() {
        let (s, _) = figure2();
        assert_eq!(s.len(), 12);
        assert_eq!(s.core_classes().count(), 7);
        assert_eq!(s.auxiliary_classes().count(), 5);
    }
}
