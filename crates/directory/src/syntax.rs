//! Attribute syntaxes: the set `T` of value types from Definition 2.1.
//!
//! The paper assumes "a set `T` of types, each with an associated domain
//! `dom(t)`" and a typing function `τ : A → T`. LDAP calls these *attribute
//! syntaxes* (RFC 2252). We implement the syntaxes a white-pages or DEN-style
//! directory actually uses, each with a validator defining its domain and a
//! matching rule defining value equality within the domain.

use std::fmt;

/// The value type associated with an attribute (the paper's `t ∈ T`).
///
/// Each syntax defines a domain `dom(t)` via [`Syntax::validate`], and an
/// equality matching rule via [`Syntax::normalize`]: two raw strings denote
/// the same domain value iff their normalizations are byte-equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Syntax {
    /// Case-insensitive directory string (LDAP `DirectoryString` with
    /// `caseIgnoreMatch`). This is the paper's basic `string` type, and the
    /// type of the distinguished `objectClass` attribute.
    DirectoryString,
    /// Case-sensitive string (`caseExactMatch`).
    CaseExactString,
    /// IA5 (ASCII) string, case-insensitive — used for mail addresses.
    Ia5String,
    /// Signed 64-bit integer (LDAP `INTEGER`).
    Integer,
    /// Boolean: `TRUE` or `FALSE`.
    Boolean,
    /// Telephone number: digits, `+`, and separators; separators ignored for
    /// matching (`telephoneNumberMatch`).
    TelephoneNumber,
    /// Distinguished name; matching is by normalized DN form.
    DnSyntax,
    /// Generalized time `YYYYMMDDHHMMSSZ`.
    GeneralizedTime,
    /// URI: requires a scheme prefix, matched case-sensitively except scheme.
    Uri,
    /// Opaque octet string, matched byte-exactly.
    OctetString,
}

/// All syntaxes, for registry iteration and property tests.
pub const ALL_SYNTAXES: [Syntax; 10] = [
    Syntax::DirectoryString,
    Syntax::CaseExactString,
    Syntax::Ia5String,
    Syntax::Integer,
    Syntax::Boolean,
    Syntax::TelephoneNumber,
    Syntax::DnSyntax,
    Syntax::GeneralizedTime,
    Syntax::Uri,
    Syntax::OctetString,
];

/// Why a raw value is outside a syntax's domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyntaxViolation {
    /// Value is empty but the syntax requires content.
    Empty,
    /// Value contains a character outside the syntax's repertoire.
    BadCharacter {
        /// Byte offset of the offending character.
        position: usize,
        /// The offending character.
        ch: char,
    },
    /// Value failed structural validation (integer overflow, bad date, ...).
    Malformed(String),
}

impl fmt::Display for SyntaxViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyntaxViolation::Empty => write!(f, "empty value"),
            SyntaxViolation::BadCharacter { position, ch } => {
                write!(f, "character {ch:?} at byte {position} not allowed")
            }
            SyntaxViolation::Malformed(msg) => write!(f, "malformed value: {msg}"),
        }
    }
}

impl std::error::Error for SyntaxViolation {}

impl Syntax {
    /// Human-readable name, matching LDAP terminology where one exists.
    pub fn name(self) -> &'static str {
        match self {
            Syntax::DirectoryString => "directoryString",
            Syntax::CaseExactString => "caseExactString",
            Syntax::Ia5String => "ia5String",
            Syntax::Integer => "integer",
            Syntax::Boolean => "boolean",
            Syntax::TelephoneNumber => "telephoneNumber",
            Syntax::DnSyntax => "dn",
            Syntax::GeneralizedTime => "generalizedTime",
            Syntax::Uri => "uri",
            Syntax::OctetString => "octetString",
        }
    }

    /// Looks a syntax up by its [`name`](Syntax::name).
    pub fn by_name(name: &str) -> Option<Syntax> {
        ALL_SYNTAXES.iter().copied().find(|s| s.name() == name)
    }

    /// Checks that `raw` lies in this syntax's domain (the paper's
    /// `v ∈ dom(t)` condition, Definition 2.1(3a)).
    pub fn validate(self, raw: &str) -> Result<(), SyntaxViolation> {
        match self {
            Syntax::DirectoryString | Syntax::CaseExactString => {
                if raw.is_empty() {
                    Err(SyntaxViolation::Empty)
                } else {
                    Ok(())
                }
            }
            Syntax::Ia5String => {
                if raw.is_empty() {
                    return Err(SyntaxViolation::Empty);
                }
                match raw.char_indices().find(|(_, c)| !c.is_ascii()) {
                    Some((position, ch)) => Err(SyntaxViolation::BadCharacter { position, ch }),
                    None => Ok(()),
                }
            }
            Syntax::Integer => {
                if raw.is_empty() {
                    return Err(SyntaxViolation::Empty);
                }
                raw.parse::<i64>()
                    .map(|_| ())
                    .map_err(|e| SyntaxViolation::Malformed(e.to_string()))
            }
            Syntax::Boolean => match raw {
                "TRUE" | "FALSE" => Ok(()),
                _ => Err(SyntaxViolation::Malformed(format!(
                    "boolean must be TRUE or FALSE, got {raw:?}"
                ))),
            },
            Syntax::TelephoneNumber => {
                if raw.is_empty() {
                    return Err(SyntaxViolation::Empty);
                }
                let mut digits = 0usize;
                for (position, ch) in raw.char_indices() {
                    match ch {
                        '0'..='9' => digits += 1,
                        '+' | ' ' | '-' | '(' | ')' | '.' => {}
                        _ => return Err(SyntaxViolation::BadCharacter { position, ch }),
                    }
                }
                if digits == 0 {
                    Err(SyntaxViolation::Malformed("no digits in telephone number".into()))
                } else {
                    Ok(())
                }
            }
            Syntax::DnSyntax => crate::dn::Dn::parse(raw)
                .map(|_| ())
                .map_err(|e| SyntaxViolation::Malformed(e.to_string())),
            Syntax::GeneralizedTime => validate_generalized_time(raw),
            Syntax::Uri => {
                let scheme_end = raw
                    .find(':')
                    .ok_or_else(|| SyntaxViolation::Malformed("URI missing scheme".into()))?;
                if scheme_end == 0 {
                    return Err(SyntaxViolation::Malformed("URI has empty scheme".into()));
                }
                let scheme = &raw[..scheme_end];
                if !scheme.chars().next().is_some_and(|c| c.is_ascii_alphabetic())
                    || !scheme
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '+' | '-' | '.'))
                {
                    return Err(SyntaxViolation::Malformed(format!("bad URI scheme {scheme:?}")));
                }
                Ok(())
            }
            Syntax::OctetString => Ok(()),
        }
    }

    /// Produces the canonical (matching) form of a valid value. Two raw
    /// strings denote the same domain value iff their normalizations are
    /// equal. Callers should [`validate`](Syntax::validate) first; for
    /// invalid input the result is unspecified but deterministic.
    pub fn normalize(self, raw: &str) -> String {
        match self {
            Syntax::DirectoryString | Syntax::Ia5String => normalize_case_ignore(raw),
            Syntax::CaseExactString
            | Syntax::Boolean
            | Syntax::GeneralizedTime
            | Syntax::OctetString => raw.to_owned(),
            Syntax::Integer => {
                raw.parse::<i64>().map(|v| v.to_string()).unwrap_or_else(|_| raw.to_owned())
            }
            Syntax::TelephoneNumber => {
                raw.chars().filter(|c| c.is_ascii_digit() || *c == '+').collect()
            }
            Syntax::DnSyntax => crate::dn::Dn::parse(raw)
                .map(|dn| dn.to_normalized_string())
                .unwrap_or_else(|_| normalize_case_ignore(raw)),
            Syntax::Uri => match raw.find(':') {
                Some(i) => {
                    let mut out = raw[..i].to_ascii_lowercase();
                    out.push_str(&raw[i..]);
                    out
                }
                None => raw.to_owned(),
            },
        }
    }

    /// True iff two raw values match under this syntax's equality rule.
    pub fn values_match(self, a: &str, b: &str) -> bool {
        self.matches_normalized(a, &self.normalize(b))
    }

    /// True iff `raw` normalizes to `needle`, itself already in
    /// [`normalize`](Syntax::normalize)d form. A search normalizes its
    /// needle once and tests every candidate value with this; the string
    /// syntaxes compare without building the candidate's normal form.
    pub fn matches_normalized(self, raw: &str, needle: &str) -> bool {
        match self {
            Syntax::DirectoryString | Syntax::Ia5String => case_ignore_matches(raw, needle),
            Syntax::CaseExactString
            | Syntax::Boolean
            | Syntax::GeneralizedTime
            | Syntax::OctetString => raw == needle,
            _ => self.normalize(raw) == needle,
        }
    }

    /// Compares two values under the syntax's ordering rule, if it has one.
    /// Integers compare numerically; strings compare by normalized form;
    /// generalized times compare lexicographically (which is chronological).
    pub fn compare(self, a: &str, b: &str) -> Option<std::cmp::Ordering> {
        match self {
            Syntax::Integer => {
                let (a, b) = (a.parse::<i64>().ok()?, b.parse::<i64>().ok()?);
                Some(a.cmp(&b))
            }
            Syntax::Boolean | Syntax::OctetString | Syntax::DnSyntax => None,
            _ => Some(self.normalize(a).cmp(&self.normalize(b))),
        }
    }
}

impl fmt::Display for Syntax {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Case-ignore matching per RFC 2252: fold case and collapse internal
/// whitespace runs, trimming the ends.
pub(crate) fn normalize_case_ignore(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    let mut pending_space = false;
    for ch in raw.trim().chars() {
        if ch.is_whitespace() {
            pending_space = true;
        } else {
            if pending_space && !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
            out.extend(ch.to_lowercase());
        }
    }
    out
}

/// The bytes of [`normalize_case_ignore`]`(raw)` for an all-ASCII `raw`,
/// produced one by one: ASCII values — nearly all of them — are compared
/// as folded streams, with no string built for either side.
fn case_ignore_ascii(raw: &str) -> impl Iterator<Item = u8> + '_ {
    debug_assert!(raw.is_ascii());
    // The ASCII members of `char::is_whitespace` (unlike
    // `u8::is_ascii_whitespace`, that includes vertical tab).
    let is_space = |b: u8| matches!(b, b' ' | 0x09..=0x0D);
    let mut rest = raw.trim().as_bytes();
    std::iter::from_fn(move || {
        let (&first, tail) = rest.split_first()?;
        if !is_space(first) {
            rest = tail;
            return Some(first.to_ascii_lowercase());
        }
        // An inner run (the ends are trimmed) collapses to one space.
        let run = rest.iter().take_while(|&&b| is_space(b)).count();
        rest = &rest[run..];
        Some(b' ')
    })
}

/// `normalize_case_ignore(raw) == needle`, for a `needle` already in
/// normal form.
pub(crate) fn case_ignore_matches(raw: &str, needle: &str) -> bool {
    if raw.is_ascii() {
        case_ignore_ascii(raw).eq(needle.bytes())
    } else {
        normalize_case_ignore(raw) == needle
    }
}

/// `normalize_case_ignore(a) == normalize_case_ignore(b)`.
pub(crate) fn case_ignore_eq(a: &str, b: &str) -> bool {
    if a.is_ascii() && b.is_ascii() {
        case_ignore_ascii(a).eq(case_ignore_ascii(b))
    } else {
        normalize_case_ignore(a) == normalize_case_ignore(b)
    }
}

fn validate_generalized_time(raw: &str) -> Result<(), SyntaxViolation> {
    let bytes = raw.as_bytes();
    if bytes.len() != 15 || bytes[14] != b'Z' {
        return Err(SyntaxViolation::Malformed("generalized time must be YYYYMMDDHHMMSSZ".into()));
    }
    if let Some(pos) = bytes[..14].iter().position(|b| !b.is_ascii_digit()) {
        return Err(SyntaxViolation::BadCharacter {
            position: pos,
            ch: raw[pos..].chars().next().unwrap_or('?'),
        });
    }
    let field = |range: std::ops::Range<usize>| -> u32 { raw[range].parse().unwrap_or(0) };
    let (month, day) = (field(4..6), field(6..8));
    let (hour, minute, second) = (field(8..10), field(10..12), field(12..14));
    if !(1..=12).contains(&month) {
        return Err(SyntaxViolation::Malformed(format!("month {month} out of range")));
    }
    if !(1..=31).contains(&day) {
        return Err(SyntaxViolation::Malformed(format!("day {day} out of range")));
    }
    if hour > 23 || minute > 59 || second > 60 {
        return Err(SyntaxViolation::Malformed("time of day out of range".into()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directory_string_is_case_insensitive() {
        let s = Syntax::DirectoryString;
        assert!(s.values_match("Laks  Lakshmanan", "laks lakshmanan"));
        assert!(!s.values_match("laks", "dan"));
    }

    #[test]
    fn case_exact_distinguishes_case() {
        assert!(!Syntax::CaseExactString.values_match("AT&T", "at&t"));
        assert!(Syntax::CaseExactString.values_match("AT&T", "AT&T"));
    }

    #[test]
    fn ia5_rejects_non_ascii() {
        assert!(Syntax::Ia5String.validate("laks@cs.concordia.ca").is_ok());
        assert!(matches!(
            Syntax::Ia5String.validate("sübject"),
            Err(SyntaxViolation::BadCharacter { .. })
        ));
    }

    #[test]
    fn integer_domain_and_matching() {
        assert!(Syntax::Integer.validate("42").is_ok());
        assert!(Syntax::Integer.validate("-7").is_ok());
        assert!(Syntax::Integer.validate("4.2").is_err());
        assert!(Syntax::Integer.validate("").is_err());
        assert!(Syntax::Integer.values_match("007", "7"));
        assert_eq!(Syntax::Integer.compare("9", "10"), Some(std::cmp::Ordering::Less));
    }

    #[test]
    fn boolean_domain() {
        assert!(Syntax::Boolean.validate("TRUE").is_ok());
        assert!(Syntax::Boolean.validate("FALSE").is_ok());
        assert!(Syntax::Boolean.validate("true").is_err());
    }

    #[test]
    fn telephone_matching_ignores_separators() {
        let t = Syntax::TelephoneNumber;
        assert!(t.validate("+1 (973) 360-8680").is_ok());
        assert!(t.values_match("+1 (973) 360-8680", "+19733608680"));
        assert!(t.validate("call me").is_err());
    }

    #[test]
    fn generalized_time_validation() {
        let g = Syntax::GeneralizedTime;
        assert!(g.validate("20000315120000Z").is_ok());
        assert!(g.validate("20001315120000Z").is_err()); // month 13
        assert!(g.validate("20000315120000").is_err()); // missing Z
        assert!(g.validate("2000031512000Z").is_err()); // short
        assert_eq!(g.compare("19990101000000Z", "20000101000000Z"), Some(std::cmp::Ordering::Less));
    }

    #[test]
    fn uri_validation_and_matching() {
        assert!(Syntax::Uri.validate("http://www.att.com/").is_ok());
        assert!(Syntax::Uri.validate("no-scheme-here").is_err());
        assert!(Syntax::Uri.validate(":empty").is_err());
        assert!(Syntax::Uri.values_match("HTTP://www.att.com/", "http://www.att.com/"));
        // Path is case-sensitive.
        assert!(!Syntax::Uri.values_match("http://a/X", "http://a/x"));
    }

    #[test]
    fn case_ignore_normalization_collapses_whitespace() {
        assert_eq!(normalize_case_ignore("  A  B\tC "), "a b c");
        assert_eq!(normalize_case_ignore(""), "");
    }

    #[test]
    fn name_lookup_roundtrips() {
        for s in ALL_SYNTAXES {
            assert_eq!(Syntax::by_name(s.name()), Some(s));
        }
        assert_eq!(Syntax::by_name("nope"), None);
    }
}
