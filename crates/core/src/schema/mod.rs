//! The directory bounding-schema `S = (A, H, S)` of Definition 2.5:
//! attribute schema + class schema + structure schema, with a string-friendly
//! builder and a plain-text DSL ([`dsl`]).

pub mod attribute;
pub mod class;
pub mod dsl;
pub mod structure;

pub use attribute::AttributeSchema;
pub use class::{ClassId, ClassKind, ClassSchema, ClassSchemaError};
pub use structure::{ForbidKind, ForbiddenRel, RelKind, RequiredRel, StructureSchema};

use std::fmt;

/// Errors from schema construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// Class-table error (duplicate / unknown / wrong kind).
    Class(ClassSchemaError),
    /// A structure-schema element referenced a non-core class; Definition
    /// 2.4 restricts `Cr` and the relationship endpoints to `Cc`.
    StructureOnAuxiliary {
        /// The offending auxiliary class.
        class: String,
    },
}

impl From<ClassSchemaError> for SchemaError {
    fn from(e: ClassSchemaError) -> Self {
        SchemaError::Class(e)
    }
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Class(e) => write!(f, "{e}"),
            SchemaError::StructureOnAuxiliary { class } => write!(
                f,
                "structure schema elements must reference core classes, but {class:?} is auxiliary"
            ),
        }
    }
}

impl std::error::Error for SchemaError {}

/// A complete bounding-schema.
#[derive(Debug, Clone)]
pub struct DirectorySchema {
    name: Option<String>,
    classes: ClassSchema,
    attributes: AttributeSchema,
    structure: StructureSchema,
}

impl Default for DirectorySchema {
    fn default() -> Self {
        DirectorySchema {
            name: None,
            classes: ClassSchema::new(),
            attributes: AttributeSchema::new(),
            structure: StructureSchema::new(),
        }
    }
}

impl DirectorySchema {
    /// An empty schema (just `top`, no constraints).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a string-friendly builder.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder { schema: DirectorySchema::new() }
    }

    /// Optional human-readable schema name.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// The class schema `H`.
    pub fn classes(&self) -> &ClassSchema {
        &self.classes
    }

    /// The attribute schema `A`.
    pub fn attributes(&self) -> &AttributeSchema {
        &self.attributes
    }

    /// The structure schema `S`.
    pub fn structure(&self) -> &StructureSchema {
        &self.structure
    }

    /// A copy of this schema with `Cr = ∅` — every required class
    /// dropped, all other components untouched.
    ///
    /// This is the *shard-local* view of a schema: of the Definition 2.4
    /// triple `(Cr, Er, Ef)`, only `◇c` quantifies over the whole
    /// instance; every required/forbidden relationship is witnessed
    /// inside a single top-level subtree (the Figure 5 Δ-queries are
    /// subtree-local, Theorem 4.1). A shard holding complete top-level
    /// subtrees can therefore check `(∅, Er, Ef)` locally while the
    /// shard router enforces `Cr` with global per-class counts.
    pub fn without_required_classes(&self) -> DirectorySchema {
        let mut schema = self.clone();
        schema.structure.clear_required_classes();
        schema
    }

    /// A canonical, order-stable textual rendering of the whole schema:
    /// every class in id order with its kind, parent, allowed
    /// auxiliaries, and attribute constraints (already sorted inside the
    /// attribute schema), then uniqueness declarations and the structure
    /// triple. Unlike `Debug` — whose `HashMap` iteration order varies
    /// between otherwise identical schemas — two equal constructions
    /// render identically, which makes this the substrate for the
    /// checkpoint schema hash.
    pub fn canonical_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if let Some(name) = &self.name {
            let _ = writeln!(out, "schema {name}");
        }
        for id in self.classes.classes() {
            let kind = if self.classes.is_core(id) { "core" } else { "auxiliary" };
            let parent = self.classes.parent(id).map_or("-", |p| self.classes.name(p));
            let _ = write!(out, "class {} kind={kind} parent={parent}", self.classes.name(id));
            for aux in self.classes.allowed_auxiliaries(id) {
                let _ = write!(out, " aux={}", self.classes.name(*aux));
            }
            for attr in self.attributes.required(id) {
                let _ = write!(out, " req={attr}");
            }
            for attr in self.attributes.allowed(id) {
                let _ = write!(out, " opt={attr}");
            }
            if self.attributes.is_extensible(id) {
                let _ = write!(out, " extensible");
            }
            out.push('\n');
        }
        for attr in self.attributes.unique_attributes() {
            let _ = writeln!(out, "unique {attr}");
        }
        for class in self.structure.required_classes() {
            let _ = writeln!(out, "required-class {}", self.classes.name(class));
        }
        for rel in self.structure.required_rels() {
            let _ = writeln!(out, "require {}", self.display_required(rel));
        }
        for rel in self.structure.forbidden_rels() {
            let _ = writeln!(out, "forbid {}", self.display_forbidden(rel));
        }
        out
    }

    /// Total element count `|S|` across all three components — the schema
    /// size used in complexity accounting.
    pub fn size(&self) -> usize {
        self.classes.len()
            + self.classes.classes().map(|c| self.attributes.allowed_count(c)).sum::<usize>()
            + self.structure.len()
    }

    /// Renders a required relationship in paper-style notation, e.g.
    /// `orgGroup →de person`.
    pub fn display_required(&self, rel: &RequiredRel) -> String {
        format!("{} →{} {}", self.classes.name(rel.source), rel.kind, self.classes.name(rel.target))
    }

    /// Reconstructs a builder holding a copy of this schema, so elements can
    /// be added (schema evolution, benchmark extensions). Classes keep
    /// their declaration order, so `ClassId`s of the rebuilt schema match.
    pub fn to_builder(&self) -> SchemaBuilder {
        let mut builder = DirectorySchema::builder();
        if let Some(name) = self.name() {
            builder = builder.named(name);
        }
        let classes = &self.classes;
        for c in classes.classes() {
            let result = match (classes.is_core(c), classes.parent(c)) {
                (true, Some(parent)) => builder.core_class(classes.name(c), classes.name(parent)),
                (true, None) => Ok(builder), // top
                (false, _) => builder.auxiliary(classes.name(c)),
            };
            builder = result.expect("source schema is well-formed");
        }
        for core in classes.core_classes() {
            for &aux in classes.allowed_auxiliaries(core) {
                builder = builder
                    .allow_aux(classes.name(core), classes.name(aux))
                    .expect("source schema is well-formed");
            }
        }
        for c in classes.classes() {
            let required: Vec<&str> = self.attributes.required(c).collect();
            let allowed: Vec<&str> = self.attributes.allowed(c).collect();
            builder = builder
                .require_attrs(classes.name(c), required)
                .and_then(|b| b.allow_attrs(classes.name(c), allowed))
                .expect("source schema is well-formed");
        }
        for class in self.structure.required_classes() {
            builder =
                builder.require_class(classes.name(class)).expect("source schema is well-formed");
        }
        for rel in self.structure.required_rels() {
            builder = builder
                .require_rel(classes.name(rel.source), rel.kind, classes.name(rel.target))
                .expect("source schema is well-formed");
        }
        for rel in self.structure.forbidden_rels() {
            builder = builder
                .forbid_rel(classes.name(rel.upper), rel.kind, classes.name(rel.lower))
                .expect("source schema is well-formed");
        }
        builder = builder.unique_attrs(self.attributes.unique_attributes());
        for class in self.attributes.extensible_classes() {
            builder =
                builder.extensible(classes.name(class)).expect("source schema is well-formed");
        }
        builder
    }

    /// Renders a forbidden relationship, e.g. `person ↛ch top`.
    pub fn display_forbidden(&self, rel: &ForbiddenRel) -> String {
        format!("{} ↛{} {}", self.classes.name(rel.upper), rel.kind, self.classes.name(rel.lower))
    }
}

/// String-based builder for [`DirectorySchema`].
///
/// ```
/// use bschema_core::schema::{DirectorySchema, RelKind, ForbidKind};
///
/// let schema = DirectorySchema::builder()
///     .core_class("orgGroup", "top").unwrap()
///     .core_class("orgUnit", "orgGroup").unwrap()
///     .core_class("person", "top").unwrap()
///     .auxiliary("online").unwrap()
///     .allow_aux("person", "online").unwrap()
///     .require_attrs("person", ["name", "uid"]).unwrap()
///     .allow_attrs("person", ["cellularPhone"]).unwrap()
///     .require_class("orgUnit").unwrap()
///     .require_rel("orgGroup", RelKind::Descendant, "person").unwrap()
///     .forbid_rel("person", ForbidKind::Child, "top").unwrap()
///     .build();
/// assert_eq!(schema.structure().len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct SchemaBuilder {
    schema: DirectorySchema,
}

impl SchemaBuilder {
    /// Names the schema.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.schema.name = Some(name.into());
        self
    }

    /// Declares a core class under `parent` (use `"top"` for the root).
    pub fn core_class(mut self, name: &str, parent: &str) -> Result<Self, SchemaError> {
        let parent = self.schema.classes.resolve(parent)?;
        self.schema.classes.add_core(name, parent)?;
        Ok(self)
    }

    /// Declares an auxiliary class.
    pub fn auxiliary(mut self, name: &str) -> Result<Self, SchemaError> {
        self.schema.classes.add_auxiliary(name)?;
        Ok(self)
    }

    /// Permits auxiliary `aux` on entries of core class `core`.
    pub fn allow_aux(mut self, core: &str, aux: &str) -> Result<Self, SchemaError> {
        let core = self.schema.classes.resolve(core)?;
        let aux = self.schema.classes.resolve(aux)?;
        self.schema.classes.allow_auxiliary(core, aux)?;
        Ok(self)
    }

    /// Adds required attributes `ρ(class) ∪= attrs`.
    pub fn require_attrs<'a>(
        mut self,
        class: &str,
        attrs: impl IntoIterator<Item = &'a str>,
    ) -> Result<Self, SchemaError> {
        let class = self.schema.classes.resolve(class)?;
        for attr in attrs {
            self.schema.attributes.require(class, attr);
        }
        Ok(self)
    }

    /// Adds allowed attributes `α(class) ∪= attrs`.
    pub fn allow_attrs<'a>(
        mut self,
        class: &str,
        attrs: impl IntoIterator<Item = &'a str>,
    ) -> Result<Self, SchemaError> {
        let class = self.schema.classes.resolve(class)?;
        for attr in attrs {
            self.schema.attributes.allow(class, attr);
        }
        Ok(self)
    }

    /// Marks a class extensible (§6.2 `extensibleObject`): its members may
    /// hold any attribute.
    pub fn extensible(mut self, class: &str) -> Result<Self, SchemaError> {
        let id = self.schema.classes.resolve(class)?;
        self.schema.attributes.mark_extensible(id);
        Ok(self)
    }

    /// Declares directory-wide key attributes (§6.1): values must be unique
    /// across all entries.
    pub fn unique_attrs<'a>(mut self, attrs: impl IntoIterator<Item = &'a str>) -> Self {
        for attr in attrs {
            self.schema.attributes.declare_unique(attr);
        }
        self
    }

    fn resolve_core(&self, name: &str) -> Result<ClassId, SchemaError> {
        let id = self.schema.classes.resolve(name)?;
        if !self.schema.classes.is_core(id) {
            return Err(SchemaError::StructureOnAuxiliary { class: name.to_owned() });
        }
        Ok(id)
    }

    /// Adds `◇class` to `Cr`.
    pub fn require_class(mut self, class: &str) -> Result<Self, SchemaError> {
        let id = self.resolve_core(class)?;
        self.schema.structure.require_class(id);
        Ok(self)
    }

    /// Adds `(source, kind, target)` to `Er`.
    pub fn require_rel(
        mut self,
        source: &str,
        kind: RelKind,
        target: &str,
    ) -> Result<Self, SchemaError> {
        let source = self.resolve_core(source)?;
        let target = self.resolve_core(target)?;
        self.schema.structure.require_rel(source, kind, target);
        Ok(self)
    }

    /// Adds `(upper, kind, lower)` to `Ef`.
    pub fn forbid_rel(
        mut self,
        upper: &str,
        kind: ForbidKind,
        lower: &str,
    ) -> Result<Self, SchemaError> {
        let upper = self.resolve_core(upper)?;
        let lower = self.resolve_core(lower)?;
        self.schema.structure.forbid_rel(upper, kind, lower);
        Ok(self)
    }

    /// Finishes construction.
    pub fn build(self) -> DirectorySchema {
        self.schema
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_end_to_end() {
        let s = DirectorySchema::builder()
            .named("test")
            .core_class("person", "top")
            .unwrap()
            .auxiliary("online")
            .unwrap()
            .allow_aux("person", "online")
            .unwrap()
            .require_attrs("person", ["uid"])
            .unwrap()
            .require_class("person")
            .unwrap()
            .forbid_rel("person", ForbidKind::Child, "top")
            .unwrap()
            .build();
        assert_eq!(s.name(), Some("test"));
        let person = s.classes().resolve("person").unwrap();
        assert!(s.attributes().is_required(person, "uid"));
        assert_eq!(s.structure().required_classes().collect::<Vec<_>>(), [person]);
        assert!(s.size() > 0);
    }

    #[test]
    fn structure_rejects_auxiliary_classes() {
        let b = DirectorySchema::builder().auxiliary("online").unwrap();
        assert!(matches!(
            b.clone().require_class("online"),
            Err(SchemaError::StructureOnAuxiliary { .. })
        ));
        assert!(matches!(
            b.clone().require_rel("online", RelKind::Child, "top"),
            Err(SchemaError::StructureOnAuxiliary { .. })
        ));
        assert!(matches!(
            b.forbid_rel("top", ForbidKind::Child, "online"),
            Err(SchemaError::StructureOnAuxiliary { .. })
        ));
    }

    #[test]
    fn unknown_class_errors() {
        let b = DirectorySchema::builder();
        assert!(matches!(
            b.clone().core_class("x", "nosuch"),
            Err(SchemaError::Class(ClassSchemaError::UnknownClass(_)))
        ));
        assert!(matches!(
            b.require_attrs("nosuch", ["uid"]),
            Err(SchemaError::Class(ClassSchemaError::UnknownClass(_)))
        ));
    }

    #[test]
    fn display_notation() {
        let s = DirectorySchema::builder()
            .core_class("orgGroup", "top")
            .unwrap()
            .core_class("person", "top")
            .unwrap()
            .require_rel("orgGroup", RelKind::Descendant, "person")
            .unwrap()
            .forbid_rel("person", ForbidKind::Child, "top")
            .unwrap()
            .build();
        assert_eq!(s.display_required(&s.structure().required_rels()[0]), "orgGroup →de person");
        assert_eq!(s.display_forbidden(&s.structure().forbidden_rels()[0]), "person ↛ch top");
    }
}
