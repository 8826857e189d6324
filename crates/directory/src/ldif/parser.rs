//! LDIF record parser (RFC 2849 subset).

use std::borrow::Cow;
use std::fmt;
use std::iter::{Enumerate, Peekable};
use std::str::Lines;

use super::base64;
use crate::dn::{Dn, DnParseError};
use crate::entry::Entry;

/// One parsed LDIF record: a DN plus the entry content.
#[derive(Debug, Clone)]
pub struct LdifRecord {
    /// The record's distinguished name.
    pub dn: Dn,
    /// The record's attributes (including `objectClass`).
    pub entry: Entry,
    /// 1-based line number where the record started (for diagnostics).
    pub line: usize,
}

/// Errors from LDIF parsing or loading.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LdifError {
    /// A record did not start with a `dn:` line.
    MissingDn {
        /// Line where the record started.
        line: usize,
    },
    /// A record contained a second `dn:` line.
    DuplicateDn {
        /// Line of the second `dn:`.
        line: usize,
    },
    /// A line had no `:` separator.
    MissingColon {
        /// The offending line number.
        line: usize,
        /// The line's content.
        content: String,
    },
    /// The DN failed to parse.
    BadDn {
        /// The offending line number.
        line: usize,
        /// Underlying DN error.
        source: DnParseError,
    },
    /// A record's DN was empty.
    EmptyDn {
        /// Line where the record started.
        line: usize,
    },
    /// A base64 value failed to decode, or decoded to invalid UTF-8.
    BadBase64 {
        /// The offending line number.
        line: usize,
        /// Description of the failure.
        reason: String,
    },
    /// A continuation line appeared with nothing to continue.
    DanglingContinuation {
        /// The offending line number.
        line: usize,
    },
    /// Loading into an instance failed (duplicate DN, missing parent, ...).
    Instance {
        /// Line of the record that failed to load.
        line: usize,
        /// Rendered instance error.
        source: String,
    },
    /// A resource limit was exceeded (guard against pathological inputs
    /// such as continuation bombs or absurdly deep DNs).
    LimitExceeded {
        /// Line where the limit was crossed (0 for whole-input limits).
        line: usize,
        /// Which limit was crossed, with the observed and allowed sizes.
        what: String,
    },
}

impl fmt::Display for LdifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LdifError::MissingDn { line } => write!(f, "line {line}: record must start with dn:"),
            LdifError::DuplicateDn { line } => write!(f, "line {line}: duplicate dn: in record"),
            LdifError::MissingColon { line, content } => {
                write!(f, "line {line}: missing ':' in {content:?}")
            }
            LdifError::BadDn { line, source } => write!(f, "line {line}: bad DN: {source}"),
            LdifError::EmptyDn { line } => write!(f, "line {line}: record has empty DN"),
            LdifError::BadBase64 { line, reason } => write!(f, "line {line}: {reason}"),
            LdifError::DanglingContinuation { line } => {
                write!(f, "line {line}: continuation line with no preceding line")
            }
            LdifError::Instance { line, source } => {
                write!(f, "line {line}: cannot load record: {source}")
            }
            LdifError::LimitExceeded { line, what } => {
                write!(f, "line {line}: resource limit exceeded: {what}")
            }
        }
    }
}

impl std::error::Error for LdifError {}

/// Resource limits for LDIF parsing. Defaults are generous for real
/// directories but stop pathological inputs (continuation bombs, giant
/// single values, absurdly deep DNs) from exhausting memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LdifLimits {
    /// Maximum total input length in bytes.
    pub max_input_len: usize,
    /// Maximum length of one logical (unfolded) line in bytes.
    pub max_line_len: usize,
    /// Maximum number of records.
    pub max_records: usize,
    /// Maximum DN depth (number of RDN components).
    pub max_dn_depth: usize,
}

impl Default for LdifLimits {
    fn default() -> Self {
        LdifLimits {
            max_input_len: 256 << 20, // 256 MiB
            max_line_len: 1 << 20,    // 1 MiB per logical line
            max_records: 4_000_000,
            max_dn_depth: 256,
        }
    }
}

impl LdifLimits {
    /// Limits suitable for untrusted input (a few MiB, shallow trees).
    pub fn strict() -> Self {
        LdifLimits {
            max_input_len: 8 << 20,
            max_line_len: 64 << 10,
            max_records: 100_000,
            max_dn_depth: 64,
        }
    }
}

/// A logical (unfolded) LDIF line with its source position: borrowed
/// from the input, owned only when continuation lines were joined onto it.
struct Logical<'a> {
    line: usize,
    text: Cow<'a, str>,
}

/// The logical lines of an LDIF text, in order: each line with its
/// continuation lines joined on, comments skipped. A comment between a
/// line and its continuation is skipped too, so the continuation still
/// joins the earlier line. The walk yields an error at the first raw line
/// longer than `max_line_len`, at the first continuation that would
/// unfold its line past that, and at the first continuation with nothing
/// to continue (at the start of the input, or after a blank line); after
/// an error it yields nothing more.
struct LogicalLines<'a> {
    raw: Peekable<Enumerate<Lines<'a>>>,
    max_line_len: usize,
    failed: bool,
    /// Logical lines yielded as [`Cow::Owned`]: exactly the folded ones.
    owned: usize,
}

impl<'a> LogicalLines<'a> {
    fn new(text: &'a str, limits: &LdifLimits) -> Self {
        LogicalLines {
            raw: text.lines().enumerate().peekable(),
            max_line_len: limits.max_line_len,
            failed: false,
            owned: 0,
        }
    }

    /// The next raw line as `(line number, text)`, length-checked.
    fn next_raw(&mut self) -> Result<Option<(usize, &'a str)>, LdifError> {
        let Some((i, raw)) = self.raw.next() else { return Ok(None) };
        let line = i + 1;
        if raw.len() > self.max_line_len {
            return Err(LdifError::LimitExceeded {
                line,
                what: format!("line is {} bytes (limit {})", raw.len(), self.max_line_len),
            });
        }
        Ok(Some((line, raw)))
    }

    fn logical(&mut self) -> Result<Option<Logical<'a>>, LdifError> {
        let (line, mut text) = loop {
            let Some((line, raw)) = self.next_raw()? else { return Ok(None) };
            if raw.starts_with(' ') {
                return Err(LdifError::DanglingContinuation { line });
            }
            if !raw.starts_with('#') {
                break (line, Cow::Borrowed(raw));
            }
        };
        // Join the continuations, skipping the comments among them. Cap
        // the unfolded length so a continuation bomb cannot grow one line
        // unboundedly.
        while self.raw.peek().is_some_and(|(_, raw)| raw.starts_with([' ', '#'])) {
            let Some((cont, raw)) = self.next_raw()? else { break };
            let Some(rest) = raw.strip_prefix(' ') else { continue };
            if text.is_empty() {
                return Err(LdifError::DanglingContinuation { line: cont });
            }
            if text.len() + rest.len() > self.max_line_len {
                return Err(LdifError::LimitExceeded {
                    line: cont,
                    what: format!("unfolded logical line exceeds {} bytes", self.max_line_len),
                });
            }
            text.to_mut().push_str(rest);
        }
        self.owned += usize::from(matches!(text, Cow::Owned(_)));
        Ok(Some(Logical { line, text }))
    }
}

impl<'a> Iterator for LogicalLines<'a> {
    type Item = Result<Logical<'a>, LdifError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let next = self.logical();
        self.failed = next.is_err();
        next.transpose()
    }
}

/// Splits `attr: value` / `attr:: base64`, returning the attribute name and
/// decoded value, both borrowed from the line unless base64 was decoded.
fn split_line<'l>(l: &'l Logical<'_>) -> Result<(&'l str, Cow<'l, str>), LdifError> {
    let text: &str = &l.text;
    let colon = text
        .find(':')
        .ok_or_else(|| LdifError::MissingColon { line: l.line, content: text.to_owned() })?;
    let attr = text[..colon].trim();
    let rest = &text[colon + 1..];
    if let Some(b64) = rest.strip_prefix(':') {
        let bytes = base64::decode(b64.trim())
            .map_err(|e| LdifError::BadBase64 { line: l.line, reason: e.to_string() })?;
        let value = String::from_utf8(bytes).map_err(|_| LdifError::BadBase64 {
            line: l.line,
            reason: "base64 value is not valid UTF-8".to_owned(),
        })?;
        Ok((attr, Cow::Owned(value)))
    } else {
        Ok((attr, Cow::Borrowed(rest.trim_start())))
    }
}

/// One step of [`walk_ldif`], the record loop as it reads the input.
#[derive(Debug)]
pub enum LdifEvent<'l> {
    /// A `dn:` line opens a record: its value, unparsed, and its line.
    Start {
        /// The DN as written (base64 decoded), not yet parsed.
        dn: &'l str,
        /// 1-based line number of the `dn:` line.
        line: usize,
    },
    /// An `attr: value` line of the open record, the value base64 decoded.
    Value {
        /// The attribute name as written, trimmed.
        attr: &'l str,
        /// The value, borrowed from the input unless it was decoded.
        value: Cow<'l, str>,
    },
    /// The open record ends: at a blank line or at the end of the input.
    End,
}

/// Parses LDIF text into records. Records are separated by blank lines; the
/// optional `version: 1` header is accepted and ignored. Uses the default
/// [`LdifLimits`]; see [`parse_ldif_limited`] for untrusted input.
pub fn parse_ldif(text: &str) -> Result<Vec<LdifRecord>, LdifError> {
    parse_ldif_limited(text, &LdifLimits::default())
}

/// Like [`parse_ldif`] but with explicit resource limits, returning
/// [`LdifError::LimitExceeded`] as soon as one is crossed.
pub fn parse_ldif_limited(text: &str, limits: &LdifLimits) -> Result<Vec<LdifRecord>, LdifError> {
    read(text, limits).map(|(records, _owned)| records)
}

/// The one reader, as a walk: hands `visit` each record's start, values
/// and end in input order, building nothing. The walk keeps the input
/// length, line length and record count limits, refuses a value before
/// any `dn:` ([`LdifError::MissingDn`]) and a second `dn:` in a record
/// ([`LdifError::DuplicateDn`]); it leaves the DN unparsed, so the DN
/// depth limit is the visitor's to keep. A line fault — an over-long raw
/// or unfolded line, a dangling continuation — anywhere in the input
/// outranks a record fault, the visitor's own errors included: after a
/// record fault the walk goes on to the end, and the first line fault it
/// meets, if any, is the error.
pub fn walk_ldif<E: From<LdifError>>(
    text: &str,
    limits: &LdifLimits,
    visit: impl FnMut(LdifEvent<'_>) -> Result<(), E>,
) -> Result<(), E> {
    walk(text, limits, visit).map(|_owned| ())
}

/// [`walk_ldif`], also counting how many logical lines had to be owned
/// (one per folded line; every other line and value is read in place).
fn walk<E: From<LdifError>>(
    text: &str,
    limits: &LdifLimits,
    mut visit: impl FnMut(LdifEvent<'_>) -> Result<(), E>,
) -> Result<usize, E> {
    if text.len() > limits.max_input_len {
        return Err(LdifError::LimitExceeded {
            line: 0,
            what: format!("input is {} bytes (limit {})", text.len(), limits.max_input_len),
        }
        .into());
    }
    let mut lines = LogicalLines::new(text, limits);
    match records(&mut lines, limits, &mut visit) {
        Ok(()) => Ok(lines.owned),
        Err(e) => Err(lines.find_map(Result::err).map_or(e, E::from)),
    }
}

/// The record loop: blank lines end records, a first `version:` line is
/// skipped, a `dn:` line starts a record and every other line adds a
/// value to it.
fn records<E: From<LdifError>>(
    lines: &mut LogicalLines<'_>,
    limits: &LdifLimits,
    visit: &mut impl FnMut(LdifEvent<'_>) -> Result<(), E>,
) -> Result<(), E> {
    let (mut open, mut started, mut seen_any) = (false, 0, false);
    for l in lines {
        let l = l?;
        if l.text.trim().is_empty() {
            if std::mem::take(&mut open) {
                visit(LdifEvent::End)?;
            }
            continue;
        }
        let (attr, value) = split_line(&l)?;
        if !seen_any && attr.eq_ignore_ascii_case("version") {
            seen_any = true;
            continue;
        }
        seen_any = true;
        match (open, attr.eq_ignore_ascii_case("dn")) {
            (false, true) => {
                if started >= limits.max_records {
                    return Err(LdifError::LimitExceeded {
                        line: l.line,
                        what: format!("more than {} records", limits.max_records),
                    }
                    .into());
                }
                (open, started) = (true, started + 1);
                visit(LdifEvent::Start { dn: &value, line: l.line })?;
            }
            (false, false) => return Err(LdifError::MissingDn { line: l.line }.into()),
            (true, true) => return Err(LdifError::DuplicateDn { line: l.line }.into()),
            (true, false) => visit(LdifEvent::Value { attr, value })?,
        }
    }
    if open {
        visit(LdifEvent::End)?;
    }
    Ok(())
}

/// The records of `text`, built on the walk: each DN parsed and held to
/// the depth limit, each value added to its record's entry. Also returns
/// how many logical lines had to be owned.
fn read(text: &str, limits: &LdifLimits) -> Result<(Vec<LdifRecord>, usize), LdifError> {
    let mut records = Vec::new();
    let mut current: Option<LdifRecord> = None;
    // Forced into the walk's loop: left out of line, the call per
    // attribute line made this reader 4–7% slower than the loop it replaced.
    let owned = walk(
        text,
        limits,
        #[inline(always)]
        |event| {
            match event {
                LdifEvent::Start { dn, line } => {
                    let dn = Dn::parse(dn).map_err(|e| LdifError::BadDn { line, source: e })?;
                    if dn.depth() > limits.max_dn_depth {
                        return Err(LdifError::LimitExceeded {
                            line,
                            what: format!(
                                "DN depth {} exceeds limit {}",
                                dn.depth(),
                                limits.max_dn_depth
                            ),
                        });
                    }
                    current = Some(LdifRecord { dn, entry: Entry::new(), line });
                }
                LdifEvent::Value { attr, value } => {
                    if let Some(rec) = &mut current {
                        rec.entry.add_value(attr, value);
                    }
                }
                LdifEvent::End => records.extend(current.take()),
            }
            Ok(())
        },
    )?;
    Ok((records, owned))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
version: 1
# The Figure 1 root entry.
dn: o=att
objectClass: organization
objectClass: orgGroup
objectClass: online
objectClass: top
o: att
uri: http://www.att.com/

dn: ou=attLabs,o=att
objectClass: orgUnit
objectClass: orgGroup
objectClass: top
ou: attLabs
location: FP
";

    #[test]
    fn parse_two_records() {
        let recs = parse_ldif(SAMPLE).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].dn.to_string(), "o=att");
        assert!(recs[0].entry.has_class("organization"));
        assert!(recs[0].entry.has_class("online"));
        assert_eq!(recs[0].entry.first_value("uri"), Some("http://www.att.com/"));
        assert_eq!(recs[1].dn.to_string(), "ou=attLabs,o=att");
        assert_eq!(recs[1].entry.first_value("location"), Some("FP"));
    }

    #[test]
    fn continuation_lines_unfold() {
        let text = "dn: o=att\nobjectClass: organ\n ization\no: att\n";
        let recs = parse_ldif(text).unwrap();
        assert!(recs[0].entry.has_class("organization"));
    }

    #[test]
    fn base64_values_decode() {
        let text = format!(
            "dn: o=att\nobjectClass: top\ndescription:: {}\n",
            super::base64::encode("hello world".as_bytes())
        );
        let recs = parse_ldif(&text).unwrap();
        assert_eq!(recs[0].entry.first_value("description"), Some("hello world"));
    }

    #[test]
    fn record_without_dn_fails() {
        let err = parse_ldif("objectClass: top\n").unwrap_err();
        assert!(matches!(err, LdifError::MissingDn { line: 1 }));
    }

    #[test]
    fn duplicate_dn_fails() {
        let err = parse_ldif("dn: o=att\ndn: o=ibm\n").unwrap_err();
        assert!(matches!(err, LdifError::DuplicateDn { line: 2 }));
    }

    #[test]
    fn missing_colon_fails() {
        let err = parse_ldif("dn: o=att\nnonsense line\n").unwrap_err();
        assert!(matches!(err, LdifError::MissingColon { line: 2, .. }));
    }

    #[test]
    fn dangling_continuation_fails() {
        let err = parse_ldif(" leading continuation\n").unwrap_err();
        assert!(matches!(err, LdifError::DanglingContinuation { line: 1 }));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# header comment\n\n\ndn: o=att\nobjectClass: top\n\n# trailing\n";
        let recs = parse_ldif(text).unwrap();
        assert_eq!(recs.len(), 1);
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(parse_ldif("").unwrap().is_empty());
        assert!(parse_ldif("\n\n").unwrap().is_empty());
    }

    #[test]
    fn continuation_bomb_is_rejected() {
        // Many continuation lines folding into one ever-growing logical
        // line must trip the per-line cap, not exhaust memory.
        let limits = LdifLimits { max_line_len: 1024, ..LdifLimits::default() };
        let mut text = String::from("dn: o=att\ndescription: start\n");
        for _ in 0..64 {
            text.push(' ');
            text.push_str(&"x".repeat(100));
            text.push('\n');
        }
        let err = parse_ldif_limited(&text, &limits).unwrap_err();
        assert!(matches!(err, LdifError::LimitExceeded { .. }), "{err}");
    }

    #[test]
    fn oversized_single_line_is_rejected() {
        let limits = LdifLimits { max_line_len: 64, ..LdifLimits::default() };
        let text = format!("dn: o=att\ndescription: {}\n", "y".repeat(200));
        let err = parse_ldif_limited(&text, &limits).unwrap_err();
        assert!(matches!(err, LdifError::LimitExceeded { line: 2, .. }), "{err}");
    }

    #[test]
    fn deep_dn_is_rejected() {
        let limits = LdifLimits { max_dn_depth: 8, ..LdifLimits::default() };
        let dn = (0..20).map(|i| format!("ou=d{i}")).collect::<Vec<_>>().join(",");
        let text = format!("dn: {dn}\nobjectClass: top\n");
        let err = parse_ldif_limited(&text, &limits).unwrap_err();
        assert!(matches!(err, LdifError::LimitExceeded { line: 1, .. }), "{err}");
        // The same DN passes under default limits.
        assert!(parse_ldif(&text).is_ok());
    }

    #[test]
    fn record_count_limit_is_enforced() {
        let limits = LdifLimits { max_records: 3, ..LdifLimits::default() };
        let mut text = String::new();
        for i in 0..5 {
            text.push_str(&format!("dn: o=org{i}\nobjectClass: top\n\n"));
        }
        let err = parse_ldif_limited(&text, &limits).unwrap_err();
        assert!(matches!(err, LdifError::LimitExceeded { .. }), "{err}");
        assert_eq!(parse_ldif(&text).unwrap().len(), 5);
    }

    #[test]
    fn input_length_limit_is_enforced() {
        let limits = LdifLimits { max_input_len: 16, ..LdifLimits::default() };
        let err = parse_ldif_limited("dn: o=att\nobjectClass: top\n", &limits).unwrap_err();
        assert!(matches!(err, LdifError::LimitExceeded { line: 0, .. }), "{err}");
    }

    /// The events of a walk, each as a line of text.
    fn events(text: &str, limits: &LdifLimits) -> Result<Vec<String>, LdifError> {
        let mut seen = Vec::new();
        walk_ldif(text, limits, |event| {
            seen.push(match event {
                LdifEvent::Start { dn, line } => format!("start {dn:?} @{line}"),
                LdifEvent::Value { attr, value } => format!("{attr} = {value:?}"),
                LdifEvent::End => "end".to_owned(),
            });
            Ok::<_, LdifError>(())
        })?;
        Ok(seen)
    }

    #[test]
    fn the_walk_hands_over_each_record_as_it_reads_it() {
        let text = format!(
            "version: 1\n# c\ndn: uid=A\\, b,o=att\nObjectClass: to\n p\ncn:: {}\n\n\ndn:: {}\n",
            super::base64::encode(b"h\xc3\xa9"),
            super::base64::encode(b"o=ibm"),
        );
        let seen = events(&text, &LdifLimits::default()).unwrap();
        assert_eq!(
            seen,
            [
                r#"start "uid=A\\, b,o=att" @3"#,
                r#"ObjectClass = "top""#,
                r#"cn = "hé""#,
                "end",
                r#"start "o=ibm" @9"#,
                "end",
            ]
        );
        // The walk keeps the record count and the record faults; the DN
        // is the visitor's to parse, so a bad one walks.
        let limits = LdifLimits { max_records: 1, ..LdifLimits::default() };
        assert!(matches!(events(&text, &limits), Err(LdifError::LimitExceeded { line: 9, .. })));
        let bad = "dn: o=a,,b\ncn: x\n";
        assert_eq!(events(bad, &LdifLimits::default()).unwrap().len(), 3);
        assert_eq!(
            events("cn: x\n", &LdifLimits::default()),
            Err(LdifError::MissingDn { line: 1 })
        );
        assert_eq!(
            events("dn: o=a\ndn: o=b\n", &LdifLimits::default()),
            Err(LdifError::DuplicateDn { line: 2 })
        );
    }

    /// A visitor's refusal is a record fault: a line fault after it is the
    /// error, and without one the refusal is.
    #[test]
    fn a_line_fault_outranks_the_visitors_refusal() {
        #[derive(Debug, PartialEq)]
        enum Fault {
            Refused(usize),
            Ldif(LdifError),
        }
        impl From<LdifError> for Fault {
            fn from(e: LdifError) -> Self {
                Fault::Ldif(e)
            }
        }
        let refuse = |text: &str| {
            walk_ldif(text, &LdifLimits::strict(), |event| match event {
                LdifEvent::Start { line, .. } => Err(Fault::Refused(line)),
                _ => Ok(()),
            })
        };
        assert_eq!(refuse("dn: o=a\ncn: x\n\ndn: o=b\n"), Err(Fault::Refused(1)));
        let late = format!("dn: o=a\n\ndn: o=b\ncn: {}\n", "y".repeat(70_000));
        assert!(matches!(
            refuse(&late),
            Err(Fault::Ldif(LdifError::LimitExceeded { line: 4, .. }))
        ));
        assert_eq!(refuse(""), Ok(()));
    }

    // ----- the borrowed reader against the two-pass reader it replaced -----

    /// An owned logical line, as the two-pass reader collected them.
    struct OwnedLogical {
        line: usize,
        text: String,
    }

    /// The first pass of the reader as it was before it borrowed: every
    /// logical line copied into its own `String`, comments stripped,
    /// continuations joined.
    fn logical_lines(text: &str, limits: &LdifLimits) -> Result<Vec<OwnedLogical>, LdifError> {
        let mut out: Vec<OwnedLogical> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            if raw.len() > limits.max_line_len {
                return Err(LdifError::LimitExceeded {
                    line,
                    what: format!("line is {} bytes (limit {})", raw.len(), limits.max_line_len),
                });
            }
            if let Some(rest) = raw.strip_prefix(' ') {
                match out.last_mut() {
                    Some(prev) if !prev.text.is_empty() => {
                        if prev.text.len() + rest.len() > limits.max_line_len {
                            return Err(LdifError::LimitExceeded {
                                line,
                                what: format!(
                                    "unfolded logical line exceeds {} bytes",
                                    limits.max_line_len
                                ),
                            });
                        }
                        prev.text.push_str(rest);
                    }
                    _ => return Err(LdifError::DanglingContinuation { line }),
                }
                continue;
            }
            if raw.starts_with('#') {
                continue;
            }
            out.push(OwnedLogical { line, text: raw.to_owned() });
        }
        Ok(out)
    }

    fn reference_split_line(l: &OwnedLogical) -> Result<(String, String), LdifError> {
        let colon = l
            .text
            .find(':')
            .ok_or_else(|| LdifError::MissingColon { line: l.line, content: l.text.clone() })?;
        let attr = l.text[..colon].trim().to_owned();
        let rest = &l.text[colon + 1..];
        if let Some(b64) = rest.strip_prefix(':') {
            let bytes = base64::decode(b64.trim())
                .map_err(|e| LdifError::BadBase64 { line: l.line, reason: e.to_string() })?;
            let value = String::from_utf8(bytes).map_err(|_| LdifError::BadBase64 {
                line: l.line,
                reason: "base64 value is not valid UTF-8".to_owned(),
            })?;
            Ok((attr, value))
        } else {
            Ok((attr, rest.trim_start().to_owned()))
        }
    }

    /// The two-pass reader: `logical_lines`, then the record loop.
    fn reference_parse(text: &str, limits: &LdifLimits) -> Result<Vec<LdifRecord>, LdifError> {
        if text.len() > limits.max_input_len {
            return Err(LdifError::LimitExceeded {
                line: 0,
                what: format!("input is {} bytes (limit {})", text.len(), limits.max_input_len),
            });
        }
        let lines = logical_lines(text, limits)?;
        let mut records = Vec::new();
        let mut current: Option<LdifRecord> = None;
        let mut seen_any = false;
        for l in &lines {
            if l.text.trim().is_empty() {
                if let Some(rec) = current.take() {
                    records.push(rec);
                }
                continue;
            }
            let (attr, value) = reference_split_line(l)?;
            let key = attr.to_ascii_lowercase();
            if !seen_any && key == "version" {
                seen_any = true;
                continue;
            }
            seen_any = true;
            match (&mut current, key.as_str()) {
                (None, "dn") => {
                    if records.len() >= limits.max_records {
                        return Err(LdifError::LimitExceeded {
                            line: l.line,
                            what: format!("more than {} records", limits.max_records),
                        });
                    }
                    let dn = Dn::parse(&value)
                        .map_err(|e| LdifError::BadDn { line: l.line, source: e })?;
                    if dn.depth() > limits.max_dn_depth {
                        return Err(LdifError::LimitExceeded {
                            line: l.line,
                            what: format!(
                                "DN depth {} exceeds limit {}",
                                dn.depth(),
                                limits.max_dn_depth
                            ),
                        });
                    }
                    current = Some(LdifRecord { dn, entry: Entry::new(), line: l.line });
                }
                (None, _) => return Err(LdifError::MissingDn { line: l.line }),
                (Some(_), "dn") => return Err(LdifError::DuplicateDn { line: l.line }),
                (Some(rec), _) => {
                    rec.entry.add_value(&attr, value);
                }
            }
        }
        if let Some(rec) = current.take() {
            records.push(rec);
        }
        Ok(records)
    }

    type Outcome = Result<Vec<(Dn, Entry, usize)>, LdifError>;

    fn outcome(parsed: Result<Vec<LdifRecord>, LdifError>) -> Outcome {
        parsed.map(|records| records.into_iter().map(|r| (r.dn, r.entry, r.line)).collect())
    }

    /// Both readers return the same records, or the same error.
    fn same(text: &str, limits: &LdifLimits) -> Outcome {
        let new = outcome(parse_ldif_limited(text, limits));
        assert_eq!(new, outcome(reference_parse(text, limits)), "{text:?} under {limits:?}");
        new
    }

    #[test]
    fn the_borrowed_reader_reads_hostile_input_as_the_two_pass_reader_did() {
        let long = "x".repeat(100);
        let b64 = super::base64::encode("héllo, wörld".as_bytes());
        let bad_utf8 = super::base64::encode(&[0xff, 0xfe]);
        let deep = (0..80).map(|i| format!("ou=d{i}")).collect::<Vec<_>>().join(",");
        let cases: Vec<String> = vec![
            // A continuation after a comment joins the line before it.
            "dn: o=att\nobjectClass: to\n# a comment\n p\n".into(),
            "dn: o=att\nobjectClass: to\n#\n#\n p\n#\n".into(),
            // After a blank line, at the start, after a leading comment.
            "dn: o=att\nobjectClass: top\n\n more\n".into(),
            " leading\ndn: o=att\n".into(),
            "# c\n x\n".into(),
            "dn: o=att\n\n# c\n x\n".into(),
            // A continuation bomb: one logical line past `max_line_len`.
            format!("dn: o=att\ndescription: start\n{}", format!(" {long}\n").repeat(700)),
            // An over-long raw line after a record fault.
            format!("dn: o=a,,b\nobjectClass: top\n\n{}\n", "y".repeat(70_000)),
            format!("nonsense\n\ndn: o=att\ndescription: {}\n", "y".repeat(70_000)),
            "objectClass: top\n\n x\n".into(),
            "dn: o=att\ndn: o=ibm\n\n\n x\n".into(),
            // Two line faults: the first one is reported.
            format!("dn: o=att\n\n y\n{}\n", "y".repeat(70_000)),
            // A record fault with no line fault after it.
            "dn: o=a,,b\nobjectClass: top\n\ndn: o=c\n".into(),
            // CRLF line endings, folded too.
            "dn: o=att\r\nobjectClass: top\r\ndescription: fol\r\n ded\r\n\r\n".into(),
            "version: 1\r\n\r\ndn: o=att\r\nobjectClass: top\r\n".into(),
            // Base64 values, good and bad; a base64 DN.
            format!("dn: o=att\nobjectClass: top\ndescription:: {b64}\n"),
            format!("dn: o=att\nobjectClass: top\ndescription:: {bad_utf8}\n"),
            "dn: o=att\nobjectClass: top\ndescription:: !!!!\n".into(),
            format!("dn:: {}\nobjectClass: top\n", super::base64::encode(b"o=att")),
            format!("dn: o=att\nobjectClass: top\ndescription:: {}\n {}\n", &b64[..8], &b64[8..]),
            // The version header: only first, any case, once.
            "version: 1\ndn: o=att\nobjectClass: top\n".into(),
            "VERSION: 1\ndn: o=att\nobjectClass: top\n".into(),
            "version: 1\nversion: 1\ndn: o=att\n".into(),
            "dn: o=att\nversion: 1\n".into(),
            // Attribute names fold; values keep their spelling.
            "DN: o=att\nObjectClass: Top\nOBJECTCLASS: top\nMail: A@b\nmail: a@b\nmail: a@b\n"
                .into(),
            // Whitespace-only lines end records; a tab line is continued.
            "dn: o=att\nobjectClass: top\n\t\ndn: o=ibm\nobjectClass: top\n".into(),
            "dn: o=att\n\t\n x\n".into(),
            "dn: o=att\n \nobjectClass: top\n".into(),
            // Empty input, blank input, no final newline, a lone CR.
            "".into(),
            "\n\n\n".into(),
            "dn: o=att".into(),
            "dn: o=att\r".into(),
            "dn: o=att\nnonsense\n".into(),
            // Limits: depth, record count, input length.
            format!("dn: {deep}\nobjectClass: top\n"),
            "dn: o=a\n\n".repeat(200),
        ];
        let limits = [
            LdifLimits::default(),
            LdifLimits::strict(),
            LdifLimits { max_line_len: 64, max_records: 100, ..LdifLimits::default() },
            LdifLimits { max_input_len: 40, ..LdifLimits::default() },
        ];
        for text in &cases {
            for limits in &limits {
                let _ = same(text, limits);
            }
        }

        // The faults the cases are there for.
        let strict = LdifLimits::strict();
        let fault = |i: usize| same(&cases[i], &strict).unwrap_err();
        let joined = same(&cases[0], &strict).unwrap();
        assert!(joined[0].1.has_class("top"), "the continuation joins across the comment");
        assert_eq!(fault(2), LdifError::DanglingContinuation { line: 4 });
        assert_eq!(fault(3), LdifError::DanglingContinuation { line: 1 });
        assert_eq!(fault(4), LdifError::DanglingContinuation { line: 2 });
        assert!(
            matches!(fault(6), LdifError::LimitExceeded { ref what, .. } if what.starts_with("unfolded")),
            "{}",
            fault(6)
        );
        assert!(matches!(fault(7), LdifError::LimitExceeded { line: 4, .. }), "{}", fault(7));
        assert!(matches!(fault(8), LdifError::LimitExceeded { line: 4, .. }), "{}", fault(8));
        assert_eq!(fault(9), LdifError::DanglingContinuation { line: 3 });
        assert_eq!(fault(10), LdifError::DanglingContinuation { line: 5 });
        assert_eq!(fault(11), LdifError::DanglingContinuation { line: 3 });
        assert!(matches!(fault(12), LdifError::BadDn { line: 1, .. }));
        assert!(matches!(fault(33), LdifError::LimitExceeded { line: 1, .. }));
    }

    /// A small xorshift generator, so the corpora below are reproducible.
    fn xorshift(seed: u64) -> impl FnMut(usize) -> usize {
        let mut state = seed;
        move |bound| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        }
    }

    #[test]
    fn the_borrowed_reader_reads_generated_line_soup_as_the_two_pass_reader_did() {
        const LINES: [&str; 18] = [
            "dn: o=att",
            "dn: ou=x,o=att",
            "dn: o=a,,b",
            "DN: o=Z",
            "objectClass: top",
            "cn:: aGVsbG8=",
            "cn:: !!",
            " cont",
            " ",
            "#c",
            "",
            "\t",
            "noColon",
            "version: 1",
            "description: xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
            " xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx",
            "dn: ou=a,ou=b,ou=c,ou=d,o=att",
            "mail: a@b",
        ];
        let limits = [
            LdifLimits::default(),
            LdifLimits {
                max_line_len: 64,
                max_records: 3,
                max_dn_depth: 3,
                ..LdifLimits::default()
            },
        ];
        let mut next = xorshift(0x2545_F491_4F6C_DD1D);
        let mut errors = 0;
        for _ in 0..20_000 {
            let len = next(14);
            let newline = if next(4) == 0 { "\r\n" } else { "\n" };
            let text: String =
                (0..len).map(|_| format!("{}{newline}", LINES[next(LINES.len())])).collect();
            for limits in &limits {
                errors += usize::from(same(&text, limits).is_err());
            }
        }
        assert!((1_000..39_000).contains(&errors), "{errors} of 40000 soups failed");
    }

    /// A generated instance: a random forest with multi-valued RDNs,
    /// escaped and non-ASCII RDN values, and long, multi-line, non-ASCII
    /// and leading-space attribute values.
    fn generated_instance(seed: u64, n: usize) -> crate::instance::DirectoryInstance {
        use crate::dn::{Ava, Rdn};
        let mut next = xorshift(seed);
        let mut d = crate::instance::DirectoryInstance::white_pages();
        let mut ids = Vec::new();
        const VALUES: [&str; 8] =
            ["plain", "a, b", "ünï", " lead", "trail ", "#hash", "x+y=z", "semi;colon"];
        for i in 0..n {
            let value = format!("{}{i}", VALUES[next(VALUES.len())]);
            let rdn = if next(5) == 0 {
                Rdn::new(vec![Ava::new("cn", value.clone()), Ava::new("uid", format!("u{i}"))])
                    .unwrap()
            } else {
                Rdn::single(["o", "ou", "cn", "uid"][next(4)], value.clone())
            };
            let mut entry = Entry::builder().class(["person", "top", "orgUnit"][next(3)]).build();
            for _ in 0..next(5) {
                let attr = ["description", "mail", "telephoneNumber", "name"][next(4)];
                let v = match next(6) {
                    0 => "y".repeat(50 + next(300)),
                    1 => "é".repeat(10 + next(60)),
                    2 => format!(" {value}"),
                    3 => "two\nlines".to_owned(),
                    _ => format!("{attr} {i}"),
                };
                entry.add_value(attr, v);
            }
            let added = if ids.is_empty() || next(6) == 0 {
                d.add_named_root(rdn, entry)
            } else {
                d.add_named_child(ids[next(ids.len())], rdn, entry)
            };
            if let Ok(id) = added {
                ids.push(id);
            }
        }
        d
    }

    #[test]
    fn the_borrowed_reader_reads_dumped_instances_as_the_two_pass_reader_did() {
        for seed in 1..=8 {
            let d = generated_instance(seed, 300);
            let text = crate::ldif::dump(&d).unwrap();
            let records = same(&text, &LdifLimits::default()).unwrap();
            assert_eq!(records.len(), d.len());
            same(&text, &LdifLimits { max_line_len: 200, ..LdifLimits::default() }).ok();
        }
    }

    /// The folded logical lines of `text`: lines followed by a
    /// continuation line.
    fn folded_lines(text: &str) -> usize {
        let lines: Vec<&str> = text.lines().collect();
        lines.windows(2).filter(|w| !w[0].starts_with(' ') && w[1].starts_with(' ')).count()
    }

    /// `n` person records under eight units, written by the LDIF writer;
    /// with `fold`, every seventh record also holds a description the
    /// writer folds over one to five continuation lines.
    fn people(n: usize, fold: bool) -> String {
        let mut text = String::from("version: 1\n\n");
        for i in 0..n {
            let mut entry = Entry::builder()
                .class("person")
                .class("top")
                .attr("uid", format!("u{i}"))
                .attr("name", format!("name of u{i}"))
                .attr("mail", format!("u{i}@example.com"))
                .build();
            if fold && i % 7 == 3 {
                entry.add_value("description", "d".repeat(75 * (1 + i % 5)));
            }
            crate::ldif::write_record(
                &mut text,
                &format!("uid=u{i},ou=unit{},o=acme", i % 8),
                &entry,
            );
        }
        text
    }

    /// The reader's counted contract: it owns one logical line per folded
    /// line and nothing else, at 2k records as at 20k.
    #[test]
    fn the_reader_owns_exactly_the_folded_lines_at_2k_as_at_20k() {
        for n in [2_000, 20_000] {
            let text = people(n, false);
            assert_eq!(folded_lines(&text), 0);
            let (records, owned) = read(&text, &LdifLimits::default()).unwrap();
            assert_eq!((records.len(), owned), (n, 0), "{n} records with no folded line");

            let text = people(n, true);
            let folds = folded_lines(&text);
            assert!(folds >= n / 7, "{folds} folded lines");
            assert!(text.lines().filter(|l| l.starts_with(' ')).count() > 2 * folds);
            let (records, owned) = read(&text, &LdifLimits::default()).unwrap();
            assert_eq!((records.len(), owned), (n, folds), "{n} records, {folds} folded lines");
        }
    }
}
