//! Attribute type definitions and the single-namespace registry.
//!
//! A distinguishing philosophy of the directory model (paper §2.4): *all
//! attributes live in one namespace* — the definition of an attribute is
//! independent of the object classes it appears in, unlike columns in
//! relational tables. The [`AttributeRegistry`] is that namespace: it maps
//! each attribute name to exactly one definition (the paper's typing function
//! `τ : A → T`).

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

use crate::oid::Oid;
use crate::syntax::Syntax;

/// The well-known name of the class-membership attribute (Definition 2.1
/// requires `objectClass ∈ A` with `τ(objectClass) = string`).
pub const OBJECT_CLASS: &str = "objectclass";

/// The namespace key of a (case-insensitive) attribute or class name:
/// its ASCII-lowercase form, borrowed when the name already is one — as
/// the names that reach a lookup nearly always are.
pub(crate) fn fold_name(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// Definition of one attribute type in the global namespace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttributeDef {
    /// Canonical (display) name, original case, e.g. `telephoneNumber`.
    name: String,
    /// Lowercased name used as the namespace key.
    key: String,
    /// Optional numeric OID.
    oid: Option<Oid>,
    /// The attribute's type `τ(a)`.
    syntax: Syntax,
    /// LDAP "SINGLE-VALUE" restriction (paper §6.1 "Numeric Restrictions"):
    /// when true, entries may hold at most one value for this attribute.
    single_valued: bool,
    /// Free-text description.
    description: Option<String>,
}

impl AttributeDef {
    /// Creates a multi-valued attribute definition (the LDAP default: "each
    /// entry can have multiple values for each attribute", paper §6.1).
    pub fn new(name: impl Into<String>, syntax: Syntax) -> Self {
        let name = name.into();
        let key = name.to_ascii_lowercase();
        AttributeDef { name, key, oid: None, syntax, single_valued: false, description: None }
    }

    /// Marks the attribute single-valued.
    pub fn single_valued(mut self) -> Self {
        self.single_valued = true;
        self
    }

    /// Attaches an OID.
    pub fn with_oid(mut self, oid: Oid) -> Self {
        self.oid = Some(oid);
        self
    }

    /// Attaches a description.
    pub fn with_description(mut self, description: impl Into<String>) -> Self {
        self.description = Some(description.into());
        self
    }

    /// Display name, original case.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Lowercased namespace key.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The attribute's syntax (`τ(a)`).
    pub fn syntax(&self) -> Syntax {
        self.syntax
    }

    /// Whether at most one value is allowed per entry.
    pub fn is_single_valued(&self) -> bool {
        self.single_valued
    }

    /// The attribute's OID, if registered with one.
    pub fn oid(&self) -> Option<&Oid> {
        self.oid.as_ref()
    }

    /// The attribute's description, if any.
    pub fn description(&self) -> Option<&str> {
        self.description.as_deref()
    }
}

/// Error returned when registering a conflicting attribute definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateAttribute {
    /// The lowercased name that was already taken.
    pub name: String,
}

impl fmt::Display for DuplicateAttribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "attribute {:?} is already defined with a different definition", self.name)
    }
}

impl std::error::Error for DuplicateAttribute {}

/// The single global attribute namespace: name → definition.
///
/// Names are case-insensitive (`Mail` and `mail` are the same attribute).
/// `objectClass` is pre-registered (Definition 2.1 assumes it), as
/// `directoryString` which subsumes the paper's `string`.
#[derive(Debug, Clone)]
pub struct AttributeRegistry {
    defs: Vec<AttributeDef>,
    by_key: HashMap<String, usize>,
}

impl Default for AttributeRegistry {
    fn default() -> Self {
        let mut reg = AttributeRegistry { defs: Vec::new(), by_key: HashMap::new() };
        reg.register(AttributeDef::new("objectClass", Syntax::DirectoryString))
            .expect("fresh registry accepts objectClass");
        reg
    }
}

impl AttributeRegistry {
    /// A registry containing only the mandatory `objectClass` attribute.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry pre-loaded with the attribute types used by the paper's
    /// white-pages example (Figure 1) and common LDAP white-pages schema.
    pub fn white_pages() -> Self {
        let mut reg = Self::new();
        let defs = [
            AttributeDef::new("o", Syntax::DirectoryString),
            AttributeDef::new("ou", Syntax::DirectoryString),
            AttributeDef::new("uid", Syntax::DirectoryString).single_valued(),
            AttributeDef::new("name", Syntax::DirectoryString),
            AttributeDef::new("cn", Syntax::DirectoryString),
            AttributeDef::new("mail", Syntax::Ia5String),
            AttributeDef::new("uri", Syntax::Uri),
            AttributeDef::new("location", Syntax::DirectoryString),
            AttributeDef::new("telephoneNumber", Syntax::TelephoneNumber),
            AttributeDef::new("cellularPhone", Syntax::TelephoneNumber),
            AttributeDef::new("title", Syntax::DirectoryString),
            AttributeDef::new("manager", Syntax::DnSyntax),
            AttributeDef::new("employeeNumber", Syntax::Integer).single_valued(),
            AttributeDef::new("description", Syntax::DirectoryString),
        ];
        for def in defs {
            reg.register(def).expect("white-pages defaults are distinct");
        }
        reg
    }

    /// Registers a definition. Registering an identical definition twice is
    /// idempotent; a *different* definition under the same name is an error
    /// (one namespace, one meaning — paper §2.4).
    pub fn register(&mut self, def: AttributeDef) -> Result<(), DuplicateAttribute> {
        if let Some(&idx) = self.by_key.get(def.key()) {
            if self.defs[idx] == def {
                return Ok(());
            }
            return Err(DuplicateAttribute { name: def.key().to_owned() });
        }
        self.by_key.insert(def.key().to_owned(), self.defs.len());
        self.defs.push(def);
        Ok(())
    }

    /// Looks up an attribute by (case-insensitive) name.
    pub fn get(&self, name: &str) -> Option<&AttributeDef> {
        self.by_key.get(fold_name(name).as_ref()).map(|&idx| &self.defs[idx])
    }

    /// The syntax for `name`, defaulting to case-ignore directory string for
    /// unregistered attributes (permissive-lookup LDAP convention; the
    /// content-schema check in `bschema-core` is what rejects unknown
    /// attributes when a bounding-schema says so).
    pub fn syntax_of(&self, name: &str) -> Syntax {
        self.get(name).map_or(Syntax::DirectoryString, |d| d.syntax())
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Iterates all definitions in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &AttributeDef> {
        self.defs.iter()
    }

    /// Number of registered attributes.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True iff only nothing is registered (cannot happen in practice:
    /// `objectClass` is always present).
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_class_is_preregistered() {
        let reg = AttributeRegistry::new();
        let def = reg.get("objectClass").unwrap();
        assert_eq!(def.syntax(), Syntax::DirectoryString);
        assert_eq!(def.key(), OBJECT_CLASS);
        assert!(!def.is_single_valued());
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let reg = AttributeRegistry::white_pages();
        assert_eq!(reg.get("MAIL").unwrap().name(), "mail");
        assert_eq!(reg.get("TelephoneNumber").unwrap().syntax(), Syntax::TelephoneNumber);
    }

    #[test]
    fn duplicate_identical_is_idempotent() {
        let mut reg = AttributeRegistry::new();
        let def = AttributeDef::new("mail", Syntax::Ia5String);
        reg.register(def.clone()).unwrap();
        reg.register(def).unwrap();
        assert_eq!(reg.len(), 2); // objectClass + mail
    }

    #[test]
    fn duplicate_conflicting_is_rejected() {
        let mut reg = AttributeRegistry::new();
        reg.register(AttributeDef::new("mail", Syntax::Ia5String)).unwrap();
        let err = reg.register(AttributeDef::new("Mail", Syntax::DirectoryString)).unwrap_err();
        assert_eq!(err.name, "mail");
    }

    #[test]
    fn unknown_attribute_defaults_to_directory_string() {
        let reg = AttributeRegistry::new();
        assert_eq!(reg.syntax_of("nonexistent"), Syntax::DirectoryString);
        assert!(!reg.contains("nonexistent"));
    }

    #[test]
    fn builder_methods() {
        let def = AttributeDef::new("employeeNumber", Syntax::Integer)
            .single_valued()
            .with_oid("2.16.840.1.113730.3.1.3".parse().unwrap())
            .with_description("numeric employee id");
        assert!(def.is_single_valued());
        assert_eq!(def.oid().unwrap().to_string(), "2.16.840.1.113730.3.1.3");
        assert_eq!(def.description(), Some("numeric employee id"));
    }
}
