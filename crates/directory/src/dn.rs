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

use std::cell::Cell;
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

    /// Parses one RDN such as `uid=laks` or `cn=a+uid=b`, reading what
    /// [`Dn::parse`] reads in one component: an unescaped `,` (a second
    /// RDN) is refused.
    pub fn parse(s: &str) -> Result<Rdn, DnParseError> {
        if let Some(position) = find_unescaped(s, ',') {
            return Err(DnParseError::UnescapedSpecial { position, ch: ',' });
        }
        Rdn::parse_component(s)
    }

    /// One `,`-separated component of a DN.
    #[inline]
    fn parse_component(raw_rdn: &str) -> Result<Rdn, DnParseError> {
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
        Rdn::new(avas)
    }

    /// The AVAs of this RDN, in canonical order.
    pub fn avas(&self) -> &[Ava] {
        &self.avas
    }

    /// Case/whitespace-insensitive equality used for tree navigation:
    /// `uid=Laks` and `uid=laks` name the same child. Each call counts
    /// one [`rdn_comparisons`].
    pub fn matches(&self, other: &Rdn) -> bool {
        COMPARISONS.with(|n| n.set(n.get() + 1));
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
            let _ = write_escaped(&mut out, &ava.normalized_value());
        }
        out
    }

    /// Renders the RDN as its [`Display`](fmt::Display) form does —
    /// `attr=value` pairs joined with `+`, values RFC 2253-escaped —
    /// straight into `out`, with no temporary string.
    pub fn write_to(&self, out: &mut impl fmt::Write) -> fmt::Result {
        for (i, ava) in self.avas.iter().enumerate() {
            if i > 0 {
                out.write_char('+')?;
            }
            out.write_str(&ava.attr)?;
            out.write_char('=')?;
            write_escaped(out, &ava.value)?;
        }
        Ok(())
    }
}

thread_local! {
    static COMPARISONS: Cell<u64> = const { Cell::new(0) };
}

/// How many RDN comparisons ([`Rdn::matches`]) this thread has made so
/// far. The difference across a name resolution is the work it did: one
/// comparison per level of the DN when names resolve through the
/// instance's name table, whatever the number of roots or siblings.
pub fn rdn_comparisons() -> u64 {
    COMPARISONS.with(Cell::get)
}

impl fmt::Display for Rdn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
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
    /// `+`. A run of hex pairs is UTF-8 (RFC 4514 §3: `\C3\A9` is `é`). The
    /// empty string parses to the empty DN.
    pub fn parse(s: &str) -> Result<Dn, DnParseError> {
        if s.is_empty() {
            return Ok(Dn::root());
        }
        let mut rdns = Vec::new();
        for raw_rdn in split_unescaped(s, ',') {
            rdns.push(Rdn::parse_component(raw_rdn)?);
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

/// Splits on `sep` occurrences not preceded by a backslash, lazily:
/// parsing a DN collects no list of its parts.
fn split_unescaped(s: &str, sep: char) -> impl Iterator<Item = &str> {
    let mut rest = Some(s);
    std::iter::from_fn(move || {
        let s = rest?;
        match find_unescaped(s, sep) {
            Some(at) => {
                rest = Some(&s[at + sep.len_utf8()..]);
                Some(&s[..at])
            }
            None => {
                rest = None;
                Some(s)
            }
        }
    })
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

/// Removes the escapes of an RDN value. A run of `\XX` hex pairs is the
/// UTF-8 encoding of what it stands for, and a run that is not UTF-8 is a
/// [`DnParseError::BadEscape`] at the run's first backslash.
fn unescape(s: &str) -> Result<String, DnParseError> {
    let mut out = String::with_capacity(s.len());
    let bytes = s.as_bytes();
    // The bytes of the hex-pair run being read, and where it started.
    let mut run: Vec<u8> = Vec::new();
    let mut run_start = 0;
    let mut i = 0;
    while i < s.len() {
        let ch = s[i..].chars().next().expect("in-bounds char");
        let hex = ch == '\\' && bytes.get(i + 1).is_some_and(u8::is_ascii_hexdigit);
        if !hex && !run.is_empty() {
            flush_hex_run(&mut run, run_start, &mut out)?;
        }
        if hex {
            if i + 2 >= s.len() || !bytes[i + 2].is_ascii_hexdigit() {
                return Err(DnParseError::BadEscape(i));
            }
            let byte =
                u8::from_str_radix(&s[i + 1..i + 3], 16).map_err(|_| DnParseError::BadEscape(i))?;
            if run.is_empty() {
                run_start = i;
            }
            run.push(byte);
            i += 3;
        } else if ch == '\\' {
            let rest = &s[i + 1..];
            let next = rest.chars().next().ok_or(DnParseError::BadEscape(i))?;
            match next {
                ',' | '+' | '"' | '\\' | '<' | '>' | ';' | '=' | ' ' | '#' => {
                    out.push(next);
                    i += 1 + next.len_utf8();
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
    if !run.is_empty() {
        flush_hex_run(&mut run, run_start, &mut out)?;
    }
    Ok(out)
}

/// Appends a finished run of hex-pair bytes as UTF-8 text.
fn flush_hex_run(run: &mut Vec<u8>, start: usize, out: &mut String) -> Result<(), DnParseError> {
    out.push_str(std::str::from_utf8(run).map_err(|_| DnParseError::BadEscape(start))?);
    run.clear();
    Ok(())
}

/// Writes `value` with RFC 2253's specials escaped, plus a leading space
/// or `#` and a trailing space; the runs between escapes go out whole.
fn write_escaped(out: &mut impl fmt::Write, value: &str) -> fmt::Result {
    let mut run = 0;
    for (i, ch) in value.char_indices() {
        let needs_escape = matches!(ch, ',' | '+' | '"' | '\\' | '<' | '>' | ';' | '=')
            || (i == 0 && matches!(ch, ' ' | '#'))
            || (i + ch.len_utf8() == value.len() && ch == ' ');
        if needs_escape {
            out.write_str(&value[run..i])?;
            out.write_char('\\')?;
            run = i;
        }
    }
    out.write_str(&value[run..])
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
        assert_eq!(parent.child(Rdn::single("uid", "laks")), dn);
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
    fn a_run_of_hex_pairs_is_utf8() {
        let escaped = Dn::parse(r"cn=caf\C3\A9,o=x").unwrap();
        assert_eq!(escaped.rdn().unwrap().avas()[0].value(), "café");
        assert!(escaped.matches(&Dn::parse("cn=café,o=x").unwrap()));
        assert!(escaped.matches(&Dn::parse(r"CN=CAF\C3\89,O=X").unwrap()), "É folds to é");
        // A four-byte character, and a run that ends the value.
        let dn = Dn::parse(r"cn=\F0\9F\98\80").unwrap();
        assert_eq!(dn.rdn().unwrap().avas()[0].value(), "\u{1F600}");
    }

    #[test]
    fn hex_runs_mix_with_plain_and_special_escapes() {
        let dn = Dn::parse(r"cn=\41b\2C\C3\A9\,z\+\e2\82\ac\20x,o=att").unwrap();
        assert_eq!(dn.rdn().unwrap().avas()[0].value(), "Ab,é,z+€ x");
        assert_eq!(dn.depth(), 2);
        let rendered = dn.to_string();
        assert_eq!(Dn::parse(&rendered).unwrap(), dn, "{rendered}");
    }

    #[test]
    fn a_hex_run_that_is_not_utf8_is_a_bad_escape_at_its_start() {
        // A lone lead byte, a lead byte cut off by another escape, a
        // stray continuation byte, and an overlong encoding of '/'.
        for (value, at) in [(r"x\C3", 1), (r"ab\C3\,\A9", 2), (r"\A9", 0), (r"a\41\C0\AF", 1)] {
            let dn = format!("cn={value},o=x");
            assert_eq!(Dn::parse(&dn), Err(DnParseError::BadEscape(at)), "{dn}");
        }
        // A run broken by a plain character is two runs: each must be UTF-8.
        assert_eq!(Dn::parse(r"cn=\C3x\A9"), Err(DnParseError::BadEscape(0)));
    }

    #[test]
    fn parts_split_lazily_keep_every_empty_part() {
        let parts = |s| split_unescaped(s, ',').collect::<Vec<_>>();
        assert_eq!(parts(""), [""]);
        assert_eq!(parts(","), ["", ""]);
        assert_eq!(parts(r"a\,b,,c\\,d"), [r"a\,b", "", r"c\\", "d"]);
        assert_eq!(parts("é,ü"), ["é", "ü"]);
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
    fn an_rdn_parses_as_the_leaf_of_a_dn_and_refuses_a_second_one() {
        for text in ["uid=laks", " CN = a + uid=b ", "cn=a\\,b", "cn=caf\\C3\\A9", "o=x\\ "] {
            let dn = Dn::parse(text).unwrap();
            assert_eq!(Rdn::parse(text).as_ref(), Ok(&dn.rdns()[0]), "{text:?}");
        }
        assert_eq!(
            Rdn::parse("cn=a,o=b"),
            Err(DnParseError::UnescapedSpecial { position: 4, ch: ',' })
        );
        assert_eq!(Rdn::parse(""), Err(DnParseError::EmptyRdn));
        assert_eq!(Rdn::parse("cn"), Err(DnParseError::MissingEquals("cn".to_owned())));
    }

    /// The escaping as it was before `write_to`: char by char, into a
    /// temporary string per AVA.
    fn reference_render(rdn: &Rdn) -> String {
        let mut out = String::new();
        for (i, ava) in rdn.avas().iter().enumerate() {
            if i > 0 {
                out.push('+');
            }
            let last = ava.value().chars().count().saturating_sub(1);
            let mut escaped = String::new();
            for (i, ch) in ava.value().chars().enumerate() {
                let needs_escape = matches!(ch, ',' | '+' | '"' | '\\' | '<' | '>' | ';' | '=')
                    || (i == 0 && matches!(ch, ' ' | '#'))
                    || (i == last && ch == ' ');
                if needs_escape {
                    escaped.push('\\');
                }
                escaped.push(ch);
            }
            out.push_str(&format!("{}={}", ava.attr(), escaped));
        }
        out
    }

    #[test]
    fn write_to_renders_what_the_per_ava_rendering_did() {
        const ALPHABET: [char; 14] =
            ['a', 'Z', '0', ' ', '#', ',', '+', '"', '\\', '<', '>', ';', '=', 'é'];
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut value = || (0..next(8)).map(|_| ALPHABET[next(ALPHABET.len())]).collect::<String>();
        for _ in 0..20_000 {
            let rdn = match value() {
                v if v.len() % 3 == 0 => {
                    Rdn::new(vec![Ava::new("cn", v), Ava::new("uid", value())]).unwrap()
                }
                v => Rdn::single("ou", v),
            };
            let mut written = String::new();
            rdn.write_to(&mut written).unwrap();
            assert_eq!(written, reference_render(&rdn), "{rdn:?}");
            assert_eq!(rdn.to_string(), written);
        }
    }
}
