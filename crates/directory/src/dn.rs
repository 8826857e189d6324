//! Distinguished names (RFC 2253 subset).
//!
//! The paper notes (§2.1, footnote 1) that every LDAP entry carries a
//! distinguished name and that the set of DNs *induces* the forest structure;
//! the paper then abstracts DNs away. We keep them: they are how real
//! directory content (LDIF) names entries, and [`crate::instance`] uses them
//! to build the forest the paper's algorithms run on.
//!
//! A DN is a sequence of relative distinguished names (RDNs), *leaf first*:
//! `uid=laks,ou=databases,ou=attLabs,o=att` names an entry whose parent is
//! `ou=databases,ou=attLabs,o=att`. An RDN is one or more
//! `attribute=value` pairs joined with `+`.

use std::fmt;

/// One `attribute=value` component of an RDN.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ava {
    /// Attribute name, stored lowercase (attribute names are
    /// case-insensitive in LDAP).
    attr: String,
    /// Raw (unescaped) attribute value, original case preserved.
    value: String,
}

impl Ava {
    /// Builds an attribute-value assertion; the attribute name is folded to
    /// lowercase.
    pub fn new(attr: impl Into<String>, value: impl Into<String>) -> Self {
        Ava { attr: attr.into().to_ascii_lowercase(), value: value.into() }
    }

    /// Lowercased attribute name.
    pub fn attr(&self) -> &str {
        &self.attr
    }

    /// Unescaped value, original case.
    pub fn value(&self) -> &str {
        &self.value
    }

    fn normalized_value(&self) -> String {
        crate::syntax::normalize_case_ignore(&self.value)
    }
}

/// A relative distinguished name: one or more AVAs (usually exactly one).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rdn {
    /// AVAs sorted by (attr, normalized value) so logically-equal RDNs
    /// compare equal regardless of the order they were written in.
    avas: Vec<Ava>,
}

impl Rdn {
    /// Single-AVA RDN, the common case: `Rdn::single("uid", "laks")`.
    pub fn single(attr: impl Into<String>, value: impl Into<String>) -> Self {
        Rdn { avas: vec![Ava::new(attr, value)] }
    }

    /// Multi-valued RDN from AVAs; they are canonically sorted.
    pub fn new(mut avas: Vec<Ava>) -> Result<Self, DnParseError> {
        if avas.is_empty() {
            return Err(DnParseError::EmptyRdn);
        }
        avas.sort_by(|a, b| {
            a.attr.cmp(&b.attr).then_with(|| a.normalized_value().cmp(&b.normalized_value()))
        });
        Ok(Rdn { avas })
    }

    /// The AVAs of this RDN, in canonical order.
    pub fn avas(&self) -> &[Ava] {
        &self.avas
    }

    /// Case/whitespace-insensitive equality used for tree navigation:
    /// `uid=Laks` and `uid=laks` name the same child.
    pub fn matches(&self, other: &Rdn) -> bool {
        self.avas.len() == other.avas.len()
            && self
                .avas
                .iter()
                .zip(&other.avas)
                .all(|(a, b)| a.attr == b.attr && crate::syntax::case_ignore_eq(&a.value, &b.value))
    }

    fn normalized_string(&self) -> String {
        let mut out = String::new();
        for (i, ava) in self.avas.iter().enumerate() {
            if i > 0 {
                out.push('+');
            }
            out.push_str(&ava.attr);
            out.push('=');
            push_escaped(&mut out, &ava.normalized_value());
        }
        out
    }
}

impl fmt::Display for Rdn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, ava) in self.avas.iter().enumerate() {
            if i > 0 {
                f.write_str("+")?;
            }
            let mut escaped = String::new();
            push_escaped(&mut escaped, &ava.value);
            write!(f, "{}={}", ava.attr, escaped)?;
        }
        Ok(())
    }
}

/// A distinguished name: RDNs ordered leaf-first per RFC 2253. The empty DN
/// (zero RDNs) denotes the conceptual root above all forest roots.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Dn {
    rdns: Vec<Rdn>,
}

/// Errors from [`Dn::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnParseError {
    /// An RDN had no AVAs (e.g. `uid=laks,,o=att`).
    EmptyRdn,
    /// An AVA lacked an `=` separator.
    MissingEquals(String),
    /// An AVA's attribute name was empty.
    EmptyAttribute,
    /// A backslash escape was truncated or invalid.
    BadEscape(usize),
    /// A character that must be escaped appeared bare.
    UnescapedSpecial {
        /// Byte offset of the offending character.
        position: usize,
        /// The offending character.
        ch: char,
    },
}

impl fmt::Display for DnParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnParseError::EmptyRdn => write!(f, "empty RDN component"),
            DnParseError::MissingEquals(s) => write!(f, "RDN component {s:?} missing '='"),
            DnParseError::EmptyAttribute => write!(f, "empty attribute name in RDN"),
            DnParseError::BadEscape(pos) => write!(f, "bad escape sequence at byte {pos}"),
            DnParseError::UnescapedSpecial { position, ch } => {
                write!(f, "unescaped special character {ch:?} at byte {position}")
            }
        }
    }
}

impl std::error::Error for DnParseError {}

impl Dn {
    /// The empty DN (conceptual super-root).
    pub fn root() -> Dn {
        Dn::default()
    }

    /// Builds a DN from leaf-first RDNs.
    pub fn from_rdns(rdns: Vec<Rdn>) -> Dn {
        Dn { rdns }
    }

    /// Parses an RFC 2253 string such as
    /// `uid=laks,ou=databases,ou=attLabs,o=att`. Supports backslash escapes
    /// (`\,`, `\+`, `\\`, `\=`, hex pairs `\2C`) and multi-valued RDNs with
    /// `+`. The empty string parses to the empty DN.
    pub fn parse(s: &str) -> Result<Dn, DnParseError> {
        if s.is_empty() {
            return Ok(Dn::root());
        }
        let mut rdns = Vec::new();
        for raw_rdn in split_unescaped(s, ',') {
            if raw_rdn.trim().is_empty() {
                return Err(DnParseError::EmptyRdn);
            }
            let mut avas = Vec::new();
            for raw_ava in split_unescaped(raw_rdn, '+') {
                // Only trim the left side here: a trailing space may be an
                // escaped value character; `trim_value` below handles the
                // right side escape-awarely.
                let raw_ava = raw_ava.trim_start();
                let eq = find_unescaped(raw_ava, '=')
                    .ok_or_else(|| DnParseError::MissingEquals(raw_ava.to_owned()))?;
                let attr = raw_ava[..eq].trim();
                if attr.is_empty() {
                    return Err(DnParseError::EmptyAttribute);
                }
                let value = unescape(trim_value(&raw_ava[eq + 1..]))?;
                avas.push(Ava::new(attr, value));
            }
            rdns.push(Rdn::new(avas)?);
        }
        Ok(Dn { rdns })
    }

    /// Leaf-first RDNs.
    pub fn rdns(&self) -> &[Rdn] {
        &self.rdns
    }

    /// The leaf (first) RDN, or `None` for the empty DN.
    pub fn rdn(&self) -> Option<&Rdn> {
        self.rdns.first()
    }

    /// Number of RDN components (the entry's depth below the super-root).
    pub fn depth(&self) -> usize {
        self.rdns.len()
    }

    /// True for the empty DN.
    pub fn is_root(&self) -> bool {
        self.rdns.is_empty()
    }

    /// The parent DN (drops the leaf RDN); `None` if this is the empty DN.
    pub fn parent(&self) -> Option<Dn> {
        if self.rdns.is_empty() {
            None
        } else {
            Some(Dn { rdns: self.rdns[1..].to_vec() })
        }
    }

    /// Builds the DN of a child: `child_rdn` prepended to `self`.
    pub fn child(&self, rdn: Rdn) -> Dn {
        let mut rdns = Vec::with_capacity(self.rdns.len() + 1);
        rdns.push(rdn);
        rdns.extend_from_slice(&self.rdns);
        Dn { rdns }
    }

    /// True iff `self` is an ancestor of `other` (proper: not equal), under
    /// case-insensitive RDN matching.
    pub fn is_ancestor_of(&self, other: &Dn) -> bool {
        let (n, m) = (self.rdns.len(), other.rdns.len());
        if n >= m {
            return false;
        }
        // self's RDNs must equal the last n RDNs of other.
        self.rdns.iter().zip(&other.rdns[m - n..]).all(|(a, b)| a.matches(b))
    }

    /// Case-insensitive DN equivalence (RFC 4517 `distinguishedNameMatch`).
    pub fn matches(&self, other: &Dn) -> bool {
        self.rdns.len() == other.rdns.len()
            && self.rdns.iter().zip(&other.rdns).all(|(a, b)| a.matches(b))
    }

    /// Canonical lowercase, whitespace-collapsed form; equal iff
    /// [`matches`](Dn::matches).
    pub fn to_normalized_string(&self) -> String {
        let mut out = String::new();
        for (i, rdn) in self.rdns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&rdn.normalized_string());
        }
        out
    }
}

impl fmt::Display for Dn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, rdn) in self.rdns.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{rdn}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Dn {
    type Err = DnParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Dn::parse(s)
    }
}

/// Splits on `sep` occurrences not preceded by a backslash.
fn split_unescaped(s: &str, sep: char) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut escaped = false;
    for (i, ch) in s.char_indices() {
        if escaped {
            escaped = false;
        } else if ch == '\\' {
            escaped = true;
        } else if ch == sep {
            parts.push(&s[start..i]);
            start = i + ch.len_utf8();
        }
    }
    parts.push(&s[start..]);
    parts
}

fn find_unescaped(s: &str, target: char) -> Option<usize> {
    let mut escaped = false;
    for (i, ch) in s.char_indices() {
        if escaped {
            escaped = false;
        } else if ch == '\\' {
            escaped = true;
        } else if ch == target {
            return Some(i);
        }
    }
    None
}

/// Trims unescaped surrounding whitespace from an attribute value. A
/// trailing space preceded by an odd number of backslashes is escaped
/// (RFC 2253 `\ `) and must be kept.
fn trim_value(s: &str) -> &str {
    let mut v = s.trim_start();
    while let Some(stripped) = v.strip_suffix(' ') {
        let backslashes = stripped.len() - stripped.trim_end_matches('\\').len();
        if backslashes % 2 == 1 {
            break; // the space is escaped
        }
        v = stripped;
    }
    v
}

fn unescape(s: &str) -> Result<String, DnParseError> {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < s.len() {
        let ch = s[i..].chars().next().expect("in-bounds char");
        if ch == '\\' {
            let rest = &s[i + 1..];
            let next = rest.chars().next().ok_or(DnParseError::BadEscape(i))?;
            match next {
                ',' | '+' | '"' | '\\' | '<' | '>' | ';' | '=' | ' ' | '#' => {
                    out.push(next);
                    i += 1 + next.len_utf8();
                }
                c if c.is_ascii_hexdigit() => {
                    if i + 2 >= s.len() || !bytes[i + 2].is_ascii_hexdigit() {
                        return Err(DnParseError::BadEscape(i));
                    }
                    let byte = u8::from_str_radix(&s[i + 1..i + 3], 16)
                        .map_err(|_| DnParseError::BadEscape(i))?;
                    out.push(byte as char);
                    i += 3;
                }
                _ => return Err(DnParseError::BadEscape(i)),
            }
        } else if matches!(ch, ',' | '+' | '<' | '>' | ';' | '"') {
            return Err(DnParseError::UnescapedSpecial { position: i, ch });
        } else {
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    Ok(out)
}

fn push_escaped(out: &mut String, value: &str) {
    let last = value.chars().count().saturating_sub(1);
    for (i, ch) in value.chars().enumerate() {
        let needs_escape = matches!(ch, ',' | '+' | '"' | '\\' | '<' | '>' | ';' | '=')
            || (i == 0 && matches!(ch, ' ' | '#'))
            || (i == last && ch == ' ');
        if needs_escape {
            out.push('\\');
        }
        out.push(ch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_dn() {
        let dn = Dn::parse("uid=laks,ou=databases,ou=attLabs,o=att").unwrap();
        assert_eq!(dn.depth(), 4);
        assert_eq!(dn.rdn().unwrap().avas()[0].attr(), "uid");
        assert_eq!(dn.rdn().unwrap().avas()[0].value(), "laks");
        assert_eq!(dn.to_string(), "uid=laks,ou=databases,ou=attLabs,o=att");
    }

    #[test]
    fn empty_dn_is_root() {
        let dn = Dn::parse("").unwrap();
        assert!(dn.is_root());
        assert_eq!(dn.depth(), 0);
        assert_eq!(dn.parent(), None);
    }

    #[test]
    fn parent_and_child() {
        let dn = Dn::parse("uid=laks,o=att").unwrap();
        let parent = dn.parent().unwrap();
        assert_eq!(parent.to_string(), "o=att");
        assert!(parent.is_ancestor_of(&dn));
        assert!(!dn.is_ancestor_of(&parent));
        assert_eq!(parent.child(Rdn::single("uid", "laks")), dn);
    }

    #[test]
    fn ancestor_is_proper() {
        let dn = Dn::parse("o=att").unwrap();
        assert!(!dn.is_ancestor_of(&dn));
        assert!(Dn::root().is_ancestor_of(&dn));
    }

    #[test]
    fn matching_is_case_insensitive() {
        let a = Dn::parse("UID=Laks,O=ATT").unwrap();
        let b = Dn::parse("uid=laks,o=att").unwrap();
        assert!(a.matches(&b));
        assert_eq!(a.to_normalized_string(), b.to_normalized_string());
    }

    #[test]
    fn escaped_comma_in_value() {
        let dn = Dn::parse(r"cn=Lakshmanan\, Laks,o=att").unwrap();
        assert_eq!(dn.depth(), 2);
        assert_eq!(dn.rdn().unwrap().avas()[0].value(), "Lakshmanan, Laks");
        // Display re-escapes.
        let rendered = dn.to_string();
        assert_eq!(Dn::parse(&rendered).unwrap(), dn);
    }

    #[test]
    fn hex_escape() {
        let dn = Dn::parse(r"cn=a\2Cb,o=att").unwrap();
        assert_eq!(dn.rdn().unwrap().avas()[0].value(), "a,b");
    }

    #[test]
    fn multivalued_rdn_order_insensitive() {
        let a = Dn::parse("cn=x+uid=1,o=att").unwrap();
        let b = Dn::parse("uid=1+cn=x,o=att").unwrap();
        assert_eq!(a, b);
        assert!(a.matches(&b));
    }

    #[test]
    fn parse_errors() {
        assert!(matches!(Dn::parse("uid=laks,,o=att"), Err(DnParseError::EmptyRdn)));
        assert!(matches!(Dn::parse("laks,o=att"), Err(DnParseError::MissingEquals(_))));
        assert!(matches!(Dn::parse("=laks"), Err(DnParseError::EmptyAttribute)));
        assert!(matches!(Dn::parse(r"cn=x\"), Err(DnParseError::BadEscape(_))));
        assert!(matches!(Dn::parse(r"cn=x\q,o=a"), Err(DnParseError::BadEscape(_))));
    }

    #[test]
    fn is_ancestor_requires_suffix_match() {
        let org = Dn::parse("o=att").unwrap();
        let other = Dn::parse("uid=laks,o=ibm").unwrap();
        assert!(!org.is_ancestor_of(&other));
        let deep = Dn::parse("uid=laks,ou=db,o=att").unwrap();
        assert!(org.is_ancestor_of(&deep));
        let mid = Dn::parse("ou=db,o=att").unwrap();
        assert!(mid.is_ancestor_of(&deep));
        assert!(!Dn::parse("ou=db").unwrap().is_ancestor_of(&deep));
    }
}
