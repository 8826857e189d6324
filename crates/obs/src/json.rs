//! Minimal JSON helpers: string escaping for the exporters, and one
//! dependency-free reader, [`Value::parse`]. Consumers (the `bschema
//! top` renderer, CI lint scripts, the loopback suite) pick fields out
//! of `HEALTH`/`WATCH`/`METRICS` payloads with it, and [`is_valid`] —
//! the check tests use to guarantee machine-readable output parses —
//! is that same grammar answering yes/no.

/// Renders `s` as a JSON string literal (with surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Whether `text` is one complete, well-formed JSON value — exactly
/// what [`Value::parse`] accepts, nesting bound included.
pub fn is_valid(text: &str) -> bool {
    Value::parse(text).is_some()
}

/// A parsed JSON value — the read side of the exporters. Object keys
/// keep their document order (no map), so round-trips stay faithful to
/// the deterministic renderings the registry produces.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; the exporters only emit values that
    /// fit).
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document key order.
    Obj(Vec<(String, Value)>),
}

/// Nesting bound for [`Value::parse`] — generous for our own exporters,
/// fatal for adversarial deep nesting.
const MAX_VALUE_DEPTH: usize = 128;

impl Value {
    /// Parses one complete JSON document. `None` on any malformation,
    /// and on nesting deeper than 128 levels.
    pub fn parse(text: &str) -> Option<Value> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let v = p.value(0)?;
        p.skip_ws();
        (p.pos == p.bytes.len()).then_some(v)
    }

    /// Member `key` of an object (first occurrence), else `None`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Walks a `.`-separated member path: `v.path("window.p99_us")`.
    pub fn path(&self, path: &str) -> Option<&Value> {
        path.split('.').try_fold(self, |v, key| v.get(key))
    }

    /// Element `i` of an array, else `None`.
    pub fn idx(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Arr(items) => items.get(i),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn items(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members in document order, when this is an object.
    pub fn entries(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The number, when this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u64` (floor), when this is a non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string, when this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// The one recursive-descent JSON reader, over raw bytes: it decodes
/// string escapes as it validates them, and non-ASCII passes through
/// untouched.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Option<Value> {
        self.bytes[self.pos..].starts_with(word.as_bytes()).then(|| {
            self.pos += word.len();
            value
        })
    }

    fn value(&mut self, depth: usize) -> Option<Value> {
        if depth > MAX_VALUE_DEPTH {
            return None;
        }
        self.skip_ws();
        match self.peek()? {
            b'{' => self
                .list(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    (p.bump()? == b':').then_some(())?;
                    Some((key, p.value(depth + 1)?))
                })
                .map(Value::Obj),
            b'[' => self.list(b']', |p| p.value(depth + 1)).map(Value::Arr),
            b'"' => self.string().map(Value::Str),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'n' => self.literal("null", Value::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => None,
        }
    }

    /// The items of an array or the members of an object: `item` reads
    /// each, commas between, from just past the opening bracket through
    /// `close`.
    fn list<T>(&mut self, close: u8, item: impl Fn(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Some(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            match self.bump()? {
                b',' => {}
                b if b == close => return Some(items),
                _ => return None,
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        if self.bump()? != b'"' {
            return None;
        }
        let mut out = String::new();
        loop {
            let run = self.pos;
            while self.peek().is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(std::str::from_utf8(&self.bytes[run..self.pos]).ok()?);
            let escaped = match self.bump()? {
                b'"' => return Some(out),
                b'\\' => self.bump()?,
                _ => return None, // raw control character
            };
            out.push(match escaped {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hex = self.bytes.get(self.pos..self.pos + 4)?;
                    if !hex.iter().all(u8::is_ascii_hexdigit) {
                        return None;
                    }
                    self.pos += 4;
                    let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                    // Lone surrogates decode to the replacement char; the
                    // exporters never emit them.
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return None,
            });
        }
    }

    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Option<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: 0, or a nonzero-led digit run.
        match self.peek()? {
            b'0' => self.pos += 1,
            b'1'..=b'9' => {
                self.digits();
            }
            _ => return None,
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.digits() {
                return None;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return None;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos]).ok()?.parse().ok().map(Value::Num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips_through_validation() {
        for s in ["plain", "with \"quotes\"", "line\nbreak\ttab", "back\\slash", "\u{1}ctl", "µs"]
        {
            let lit = escape(s);
            assert!(is_valid(&lit), "escape({s:?}) = {lit} must be valid");
        }
        assert_eq!(escape("a\"b"), "\"a\\\"b\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn accepts_well_formed_json() {
        for text in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e+3",
            "0",
            "\"hi\"",
            r#"{"a":[1,2,{"b":null}],"c":"x\ny","d":1.5e-2}"#,
            " { \"k\" : [ 1 , 2 ] } ",
        ] {
            assert!(is_valid(text), "{text} should be valid");
        }
    }

    #[test]
    fn rejects_malformed_json() {
        for text in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{'a':1}",
            "01",
            "1.",
            "1e",
            "nul",
            "\"unterminated",
            "\"bad \\x escape\"",
            "{} extra",
            "\"raw\ncontrol\"",
            "\"\\u12\"",
            "\"\\u+123\"",
            "[1 2]",
            "{\"a\":1,}",
            "-",
        ] {
            assert!(!is_valid(text), "{text:?} should be invalid");
            assert_eq!(Value::parse(text), None, "{text:?}");
        }
    }

    /// One grammar, one depth bound: nesting past 128 levels is invalid,
    /// not a stack overflow. Run on its own thread so that a reader
    /// without the bound fails this test instead of the whole run.
    #[test]
    fn nesting_past_the_depth_bound_is_invalid() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        std::thread::spawn(move || {
            assert!(is_valid(&nested(MAX_VALUE_DEPTH + 1)));
            assert!(!is_valid(&nested(MAX_VALUE_DEPTH + 2)));
            assert!(!is_valid(&nested(200)));
            assert_eq!(Value::parse(&nested(200)), None);
        })
        .join()
        .expect("a 200-deep array is refused");
    }

    #[test]
    fn value_parses_what_the_exporters_emit() {
        let v = Value::parse(
            r#"{"counters":{"a.b":3},"histograms":{"h":{"count":2,"p99":7}},"ok":true,"none":null,"arr":[1,"x"]}"#,
        )
        .unwrap();
        assert_eq!(v.path("counters.a.b"), None, "dotted keys are literal, not paths");
        assert_eq!(v.get("counters").unwrap().get("a.b").unwrap().as_u64(), Some(3));
        assert_eq!(v.path("histograms.h.p99").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("none"), Some(&Value::Null));
        assert_eq!(v.get("arr").unwrap().idx(1).unwrap().as_str(), Some("x"));
        assert_eq!(v.get("arr").unwrap().items().unwrap().len(), 2);
        // Escapes decode.
        let s = Value::parse(r#""a\"b\nµ""#).unwrap();
        assert_eq!(s.as_str(), Some("a\"b\nµ"));
        assert_eq!(Value::parse(r#""\u00b5\/""#).unwrap().as_str(), Some("µ/"));
        // Negative and fractional numbers.
        assert_eq!(Value::parse("-1.5e1").unwrap().as_f64(), Some(-15.0));
        assert_eq!(Value::parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn value_round_trips_escaped_keys() {
        let doc = format!("{{{}:1}}", escape("key with \"quotes\" and\nnewline"));
        let v = Value::parse(&doc).unwrap();
        assert_eq!(v.get("key with \"quotes\" and\nnewline").unwrap().as_u64(), Some(1));
    }
}
