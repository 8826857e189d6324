//! Object identifiers (OIDs) in dotted-decimal notation.
//!
//! LDAP schema elements (attribute types, object classes, syntaxes) are
//! globally identified by OIDs such as `2.5.4.3` (`cn`). The paper abstracts
//! these away, but a production directory model needs them: they are the
//! stable names under which schema elements are registered and compared.

use std::fmt;
use std::str::FromStr;

/// A dotted-decimal object identifier, e.g. `1.3.6.1.4.1.1466.115.121.1.15`.
///
/// Stored as its arc values. The textual form is available via [`Display`](std::fmt::Display)
/// (`fmt::Display`). OIDs are totally ordered lexicographically by arcs,
/// which matches the ordering of their canonical textual forms component-wise.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Oid {
    arcs: Vec<u64>,
}

/// Error produced when parsing a textual OID.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OidParseError {
    /// The string was empty.
    Empty,
    /// A component was empty (e.g. `1..2` or a trailing dot).
    EmptyArc,
    /// A component contained a non-digit character.
    InvalidDigit(char),
    /// A component overflowed `u64`.
    ArcOverflow,
    /// The first arc must be 0, 1 or 2 per X.660.
    InvalidFirstArc(u64),
    /// When the first arc is 0 or 1, the second arc must be < 40.
    InvalidSecondArc(u64),
}

impl fmt::Display for OidParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OidParseError::Empty => write!(f, "empty OID"),
            OidParseError::EmptyArc => write!(f, "empty OID component"),
            OidParseError::InvalidDigit(c) => write!(f, "invalid character {c:?} in OID"),
            OidParseError::ArcOverflow => write!(f, "OID component exceeds u64"),
            OidParseError::InvalidFirstArc(a) => {
                write!(f, "first OID arc must be 0, 1 or 2, got {a}")
            }
            OidParseError::InvalidSecondArc(a) => {
                write!(f, "second OID arc must be < 40 when first arc is 0 or 1, got {a}")
            }
        }
    }
}

impl std::error::Error for OidParseError {}

impl Oid {
    /// Builds an OID from explicit arcs, validating X.660 constraints.
    pub fn new(arcs: Vec<u64>) -> Result<Self, OidParseError> {
        if arcs.is_empty() {
            return Err(OidParseError::Empty);
        }
        if arcs[0] > 2 {
            return Err(OidParseError::InvalidFirstArc(arcs[0]));
        }
        if arcs[0] < 2 && arcs.len() > 1 && arcs[1] >= 40 {
            return Err(OidParseError::InvalidSecondArc(arcs[1]));
        }
        Ok(Oid { arcs })
    }

    /// The arc values of this OID.
    pub fn arcs(&self) -> &[u64] {
        &self.arcs
    }

    /// Number of arcs.
    pub fn len(&self) -> usize {
        self.arcs.len()
    }

    /// OIDs are never empty, but the method mirrors collection conventions.
    pub fn is_empty(&self) -> bool {
        self.arcs.is_empty()
    }

    /// Returns a child OID with one extra arc appended.
    pub fn child(&self, arc: u64) -> Oid {
        let mut arcs = self.arcs.clone();
        arcs.push(arc);
        Oid { arcs }
    }
}

impl FromStr for Oid {
    type Err = OidParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(OidParseError::Empty);
        }
        let mut arcs = Vec::with_capacity(8);
        for part in s.split('.') {
            if part.is_empty() {
                return Err(OidParseError::EmptyArc);
            }
            if let Some(c) = part.chars().find(|c| !c.is_ascii_digit()) {
                return Err(OidParseError::InvalidDigit(c));
            }
            let arc: u64 = part.parse().map_err(|_| OidParseError::ArcOverflow)?;
            arcs.push(arc);
        }
        Oid::new(arcs)
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, arc) in self.arcs.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{arc}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        let o: Oid = "1.3.6.1.4.1.1466.115.121.1.15".parse().unwrap();
        assert_eq!(o.to_string(), "1.3.6.1.4.1.1466.115.121.1.15");
        assert_eq!(o.len(), 11);
    }

    #[test]
    fn parse_rejects_empty() {
        assert_eq!("".parse::<Oid>(), Err(OidParseError::Empty));
    }

    #[test]
    fn parse_rejects_empty_arc() {
        assert_eq!("1..2".parse::<Oid>(), Err(OidParseError::EmptyArc));
        assert_eq!("1.2.".parse::<Oid>(), Err(OidParseError::EmptyArc));
    }

    #[test]
    fn parse_rejects_non_digit() {
        assert_eq!("1.a.2".parse::<Oid>(), Err(OidParseError::InvalidDigit('a')));
        assert_eq!("1.-2".parse::<Oid>(), Err(OidParseError::InvalidDigit('-')));
    }

    #[test]
    fn parse_rejects_invalid_first_arc() {
        assert_eq!("3.1".parse::<Oid>(), Err(OidParseError::InvalidFirstArc(3)));
    }

    #[test]
    fn parse_rejects_invalid_second_arc() {
        assert_eq!("0.40".parse::<Oid>(), Err(OidParseError::InvalidSecondArc(40)));
        assert_eq!("1.40".parse::<Oid>(), Err(OidParseError::InvalidSecondArc(40)));
        // Arc 2 subtree has no such restriction.
        assert!("2.999".parse::<Oid>().is_ok());
    }

    #[test]
    fn parse_rejects_overflow() {
        assert_eq!("1.99999999999999999999999".parse::<Oid>(), Err(OidParseError::ArcOverflow));
    }

    #[test]
    fn prefix_relation() {
        let root: Oid = "2.5.4".parse().unwrap();
        let cn: Oid = "2.5.4.3".parse().unwrap();
        assert_eq!(root.child(3), cn);
        assert_eq!(cn.len(), root.len() + 1);
    }

    #[test]
    fn ordering_is_by_arcs() {
        let a: Oid = "1.2.3".parse().unwrap();
        let b: Oid = "1.2.10".parse().unwrap();
        // Component-wise: 3 < 10 even though "10" < "3" as strings.
        assert!(a < b);
    }
}
