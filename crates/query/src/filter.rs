//! LDAP search filters: the atomic selection conditions of the query algebra.
//!
//! The paper's hierarchical selection queries bottom out in atomic
//! selections such as `(objectClass=orgGroup)` — boolean combinations of
//! conditions on individual attributes ("directory applications retrieve
//! entries that match (a boolean combination of) conditions on individual
//! attributes", §1). We implement the standard LDAP filter repertoire
//! (RFC 2254): presence, equality, substring, ordering, and `& | !`.
//!
//! Matching is *syntax-aware*: equality on a `telephoneNumber` ignores
//! separators, on a `directoryString` ignores case, etc., driven by the
//! instance's [`AttributeRegistry`].

use std::fmt;

use bschema_directory::{AttributeRegistry, Entry, Syntax};

/// A boolean filter over a single entry's attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Filter {
    /// Matches every entry. Rendered as `(objectClass=*)`.
    True,
    /// Matches no entry. Rendered as `(!(objectClass=*))`.
    False,
    /// `(attr=*)` — the entry has at least one value for `attr`.
    Present(String),
    /// `(attr=value)` — some value of `attr` equals `value` under the
    /// attribute's matching rule.
    Equality(String, String),
    /// `(attr=initial*any*...*final)` — substring match.
    Substring {
        /// The attribute tested.
        attr: String,
        /// Required prefix, if any.
        initial: Option<String>,
        /// Required interior fragments, in order.
        any: Vec<String>,
        /// Required suffix, if any.
        finally: Option<String>,
    },
    /// `(attr>=value)` under the attribute's ordering rule.
    GreaterOrEqual(String, String),
    /// `(attr<=value)` under the attribute's ordering rule.
    LessOrEqual(String, String),
    /// `(&(f1)(f2)...)` — all sub-filters match. Empty conjunction is true.
    And(Vec<Filter>),
    /// `(|(f1)(f2)...)` — some sub-filter matches. Empty disjunction is false.
    Or(Vec<Filter>),
    /// `(!(f))` — the sub-filter does not match.
    Not(Box<Filter>),
}

impl Filter {
    /// The workhorse atomic selection of the paper: `(objectClass=c)`.
    pub fn object_class(class: impl Into<String>) -> Filter {
        Filter::Equality("objectClass".to_owned(), class.into())
    }

    /// `(attr=value)` convenience constructor.
    pub fn eq(attr: impl Into<String>, value: impl Into<String>) -> Filter {
        Filter::Equality(attr.into(), value.into())
    }

    /// `(attr=*)` convenience constructor.
    pub fn present(attr: impl Into<String>) -> Filter {
        Filter::Present(attr.into())
    }

    /// Conjunction of two filters, flattening nested `And`s.
    pub fn and(self, other: Filter) -> Filter {
        match (self, other) {
            (Filter::And(mut a), Filter::And(b)) => {
                a.extend(b);
                Filter::And(a)
            }
            (Filter::And(mut a), f) => {
                a.push(f);
                Filter::And(a)
            }
            (f, Filter::And(mut b)) => {
                b.insert(0, f);
                Filter::And(b)
            }
            (a, b) => Filter::And(vec![a, b]),
        }
    }

    /// Disjunction of two filters, flattening nested `Or`s.
    pub fn or(self, other: Filter) -> Filter {
        match (self, other) {
            (Filter::Or(mut a), Filter::Or(b)) => {
                a.extend(b);
                Filter::Or(a)
            }
            (Filter::Or(mut a), f) => {
                a.push(f);
                Filter::Or(a)
            }
            (f, Filter::Or(mut b)) => {
                b.insert(0, f);
                Filter::Or(b)
            }
            (a, b) => Filter::Or(vec![a, b]),
        }
    }

    /// Negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Filter {
        Filter::Not(Box::new(self))
    }

    /// If this filter is exactly `(objectClass=c)`, returns `c`. The
    /// evaluators use this to route through the per-class index.
    pub fn as_object_class(&self) -> Option<&str> {
        match self {
            Filter::Equality(attr, value) if attr.eq_ignore_ascii_case("objectclass") => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Number of atomic conditions — contributes to the paper's `|Q|`.
    pub fn size(&self) -> usize {
        match self {
            Filter::True
            | Filter::False
            | Filter::Present(_)
            | Filter::Equality(..)
            | Filter::Substring { .. }
            | Filter::GreaterOrEqual(..)
            | Filter::LessOrEqual(..) => 1,
            Filter::And(fs) | Filter::Or(fs) => 1 + fs.iter().map(Filter::size).sum::<usize>(),
            Filter::Not(f) => 1 + f.size(),
        }
    }

    /// Evaluates the filter against one entry, using `registry` for
    /// syntax-aware matching.
    pub fn matches(&self, entry: &Entry, registry: &AttributeRegistry) -> bool {
        match self {
            Filter::True => true,
            Filter::False => false,
            Filter::Present(attr) => entry.has_attribute(attr),
            Filter::Equality(attr, value) => {
                let values = entry.values(attr);
                if values.is_empty() {
                    return false;
                }
                let syntax = registry.syntax_of(attr);
                let needle = syntax.normalize(value);
                values.iter().any(|v| syntax.matches_normalized(v, &needle))
            }
            Filter::Substring { attr, initial, any, finally } => {
                let syntax = registry.syntax_of(attr);
                entry.values(attr).iter().any(|v| {
                    substring_match(syntax, v, initial.as_deref(), any, finally.as_deref())
                })
            }
            Filter::GreaterOrEqual(attr, value) => {
                let syntax = registry.syntax_of(attr);
                entry.values(attr).iter().any(|v| {
                    syntax.compare(v, value).is_some_and(|o| o != std::cmp::Ordering::Less)
                })
            }
            Filter::LessOrEqual(attr, value) => {
                let syntax = registry.syntax_of(attr);
                entry.values(attr).iter().any(|v| {
                    syntax.compare(v, value).is_some_and(|o| o != std::cmp::Ordering::Greater)
                })
            }
            Filter::And(fs) => fs.iter().all(|f| f.matches(entry, registry)),
            Filter::Or(fs) => fs.iter().any(|f| f.matches(entry, registry)),
            Filter::Not(f) => !f.matches(entry, registry),
        }
    }
}

fn substring_match(
    syntax: Syntax,
    value: &str,
    initial: Option<&str>,
    any: &[String],
    finally: Option<&str>,
) -> bool {
    // Normalise both sides so case-ignore syntaxes match case-insensitively.
    let v = syntax.normalize(value);
    let mut rest = v.as_str();
    if let Some(prefix) = initial {
        let prefix = syntax.normalize(prefix);
        match rest.strip_prefix(prefix.as_str()) {
            Some(r) => rest = r,
            None => return false,
        }
    }
    // Handle the suffix before interior fragments so they can't overlap it.
    if let Some(suffix) = finally {
        let suffix = syntax.normalize(suffix);
        match rest.strip_suffix(suffix.as_str()) {
            Some(r) => rest = r,
            None => return false,
        }
    }
    for fragment in any {
        let fragment = syntax.normalize(fragment);
        match rest.find(fragment.as_str()) {
            Some(pos) => rest = &rest[pos + fragment.len()..],
            None => return false,
        }
    }
    true
}

impl fmt::Display for Filter {
    /// RFC 2254 string representation, with values escaped.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Filter::True => write!(f, "(objectClass=*)"),
            Filter::False => write!(f, "(!(objectClass=*))"),
            Filter::Present(attr) => write!(f, "({attr}=*)"),
            Filter::Equality(attr, value) => write!(f, "({attr}={})", escape_value(value)),
            Filter::Substring { attr, initial, any, finally } => {
                write!(f, "({attr}=")?;
                if let Some(i) = initial {
                    write!(f, "{}", escape_value(i))?;
                }
                write!(f, "*")?;
                for a in any {
                    write!(f, "{}*", escape_value(a))?;
                }
                if let Some(fin) = finally {
                    write!(f, "{}", escape_value(fin))?;
                }
                write!(f, ")")
            }
            Filter::GreaterOrEqual(attr, value) => write!(f, "({attr}>={})", escape_value(value)),
            Filter::LessOrEqual(attr, value) => write!(f, "({attr}<={})", escape_value(value)),
            Filter::And(fs) => {
                write!(f, "(&")?;
                for sub in fs {
                    write!(f, "{sub}")?;
                }
                write!(f, ")")
            }
            Filter::Or(fs) => {
                write!(f, "(|")?;
                for sub in fs {
                    write!(f, "{sub}")?;
                }
                write!(f, ")")
            }
            Filter::Not(sub) => write!(f, "(!{sub})"),
        }
    }
}

/// Escapes `* ( ) \` and NUL per RFC 2254 §4.
pub fn escape_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '*' => out.push_str("\\2a"),
            '(' => out.push_str("\\28"),
            ')' => out.push_str("\\29"),
            '\\' => out.push_str("\\5c"),
            '\0' => out.push_str("\\00"),
            _ => out.push(ch),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bschema_directory::Entry;

    fn laks() -> Entry {
        Entry::builder()
            .class("researcher")
            .class("person")
            .class("top")
            .attr("uid", "laks")
            .attr("name", "Laks Lakshmanan")
            .attr("mail", "laks@cs.concordia.ca")
            .attr("mail", "laks@research.att.com")
            .attr("telephoneNumber", "+1 (514) 848-2424")
            .attr("employeeNumber", "17")
            .build()
    }

    fn reg() -> AttributeRegistry {
        AttributeRegistry::white_pages()
    }

    #[test]
    fn object_class_equality() {
        let e = laks();
        assert!(Filter::object_class("person").matches(&e, &reg()));
        assert!(Filter::object_class("PERSON").matches(&e, &reg()));
        assert!(!Filter::object_class("orgUnit").matches(&e, &reg()));
        assert_eq!(Filter::object_class("person").as_object_class(), Some("person"));
        assert_eq!(Filter::present("objectClass").as_object_class(), None);
    }

    #[test]
    fn equality_is_syntax_aware() {
        let e = laks();
        // directoryString: case/space-insensitive.
        assert!(Filter::eq("name", "laks   lakshmanan").matches(&e, &reg()));
        // telephoneNumber: separators ignored.
        assert!(Filter::eq("telephoneNumber", "+1-514-848-2424").matches(&e, &reg()));
        // ia5String (mail): case-insensitive.
        assert!(Filter::eq("mail", "LAKS@CS.CONCORDIA.CA").matches(&e, &reg()));
    }

    #[test]
    fn presence() {
        let e = laks();
        assert!(Filter::present("mail").matches(&e, &reg()));
        assert!(!Filter::present("cellularPhone").matches(&e, &reg()));
    }

    #[test]
    fn substring() {
        let e = laks();
        let f = Filter::Substring {
            attr: "mail".into(),
            initial: Some("laks@".into()),
            any: vec![],
            finally: Some(".com".into()),
        };
        assert!(f.matches(&e, &reg()));
        let g = Filter::Substring {
            attr: "name".into(),
            initial: None,
            any: vec!["AKSH".into()],
            finally: None,
        };
        assert!(g.matches(&e, &reg())); // case-ignore
        let h = Filter::Substring {
            attr: "mail".into(),
            initial: Some("dan@".into()),
            any: vec![],
            finally: None,
        };
        assert!(!h.matches(&e, &reg()));
    }

    #[test]
    fn substring_fragments_do_not_overlap() {
        let e = Entry::builder().class("top").attr("name", "abc").build();
        // initial "ab" + final "bc" would need to overlap on 'b' — no match.
        let f = Filter::Substring {
            attr: "name".into(),
            initial: Some("ab".into()),
            any: vec![],
            finally: Some("bc".into()),
        };
        assert!(!f.matches(&e, &reg()));
    }

    #[test]
    fn ordering_comparisons() {
        let e = laks();
        assert!(Filter::GreaterOrEqual("employeeNumber".into(), "9".into()).matches(&e, &reg()));
        assert!(Filter::LessOrEqual("employeeNumber".into(), "17".into()).matches(&e, &reg()));
        assert!(!Filter::LessOrEqual("employeeNumber".into(), "16".into()).matches(&e, &reg()));
    }

    #[test]
    fn boolean_combinations() {
        let e = laks();
        let f = Filter::object_class("person")
            .and(Filter::present("mail"))
            .and(Filter::object_class("orgUnit").not());
        assert!(f.matches(&e, &reg()));
        let g = Filter::object_class("orgUnit").or(Filter::eq("uid", "laks"));
        assert!(g.matches(&e, &reg()));
        assert!(Filter::And(vec![]).matches(&e, &reg())); // empty ∧ = true
        assert!(!Filter::Or(vec![]).matches(&e, &reg())); // empty ∨ = false
        assert!(Filter::True.matches(&e, &reg()));
        assert!(!Filter::False.matches(&e, &reg()));
    }

    #[test]
    fn and_or_flatten() {
        let f = Filter::present("a").and(Filter::present("b")).and(Filter::present("c"));
        assert!(matches!(&f, Filter::And(v) if v.len() == 3));
        let g = Filter::present("a").or(Filter::present("b")).or(Filter::present("c"));
        assert!(matches!(&g, Filter::Or(v) if v.len() == 3));
    }

    #[test]
    fn display_rfc2254() {
        let f = Filter::object_class("person").and(Filter::present("mail")).not();
        assert_eq!(f.to_string(), "(!(&(objectClass=person)(mail=*)))");
        assert_eq!(Filter::eq("cn", "a*b").to_string(), "(cn=a\\2ab)");
    }

    #[test]
    fn size_counts_atoms_and_connectives() {
        let f = Filter::object_class("a").and(Filter::present("b")).not();
        // Not(And(eq, present)): 1 + 1 + 1 + 1
        assert_eq!(f.size(), 4);
        assert_eq!(Filter::True.size(), 1);
    }
}
