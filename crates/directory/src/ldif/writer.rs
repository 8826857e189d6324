//! LDIF serialisation: instance → text, parents before children.

use std::fmt::Write as _;

use super::base64;
use crate::entry::Entry;
use crate::instance::{DirectoryInstance, InstanceError};

/// True when a value is representable on a plain `attr: value` line; RFC 2849
/// requires base64 when the value starts with space/colon/`<`, or contains
/// NUL/CR/LF or non-ASCII bytes.
fn is_safe(value: &str) -> bool {
    if value.is_empty() {
        return true;
    }
    let first = value.as_bytes()[0];
    if matches!(first, b' ' | b':' | b'<') {
        return false;
    }
    value.bytes().all(|b| b != 0 && b != b'\r' && b != b'\n' && b < 0x80)
}

/// Appends one attribute line, folding long lines at 76 columns.
fn push_line(out: &mut String, attr: &str, value: &str) {
    // The common line — ASCII name, plain value, nothing to fold — is
    // its own rendering: bytes are columns.
    if attr.is_ascii() && attr.len() + 2 + value.len() <= 76 && is_safe(value) {
        out.push_str(attr);
        out.push_str(": ");
        out.push_str(value);
        out.push('\n');
        return;
    }
    let line = if is_safe(value) {
        format!("{attr}: {value}")
    } else {
        format!("{attr}:: {}", base64::encode(value.as_bytes()))
    };
    let mut chars: Vec<char> = line.chars().collect();
    let mut first = true;
    while !chars.is_empty() {
        let width = if first { 76 } else { 75 };
        let take = chars.len().min(width);
        if !first {
            out.push(' ');
        }
        out.extend(chars.drain(..take));
        out.push('\n');
        first = false;
    }
}

/// Writes a single record (a `dn:` line plus the entry's attributes).
pub fn write_record(out: &mut String, dn: &str, entry: &Entry) {
    push_line(out, "dn", dn);
    // objectClass values first, per convention.
    for class in entry.classes() {
        push_line(out, "objectClass", class);
    }
    for (attr, values) in entry.attributes() {
        if attr == crate::attribute::OBJECT_CLASS {
            continue;
        }
        for value in values {
            push_line(out, attr, value);
        }
    }
    out.push('\n');
}

/// Serialises the whole instance in preorder. Fails if any entry is unnamed.
pub fn write_ldif(instance: &DirectoryInstance) -> Result<String, InstanceError> {
    let mut out = String::new();
    let _ = writeln!(out, "version: 1");
    out.push('\n');
    for (id, entry) in instance.iter() {
        let dn = instance.dn(id)?;
        write_record(&mut out, &dn.to_string(), entry);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dn::Rdn;
    use crate::entry::Entry;
    use crate::instance::DirectoryInstance;
    use crate::ldif::load;

    fn sample_instance() -> DirectoryInstance {
        let mut d = DirectoryInstance::white_pages();
        let org = d
            .add_named_root(
                Rdn::single("o", "att"),
                Entry::builder().class("organization").class("top").attr("o", "att").build(),
            )
            .unwrap();
        let labs = d
            .add_named_child(
                org,
                Rdn::single("ou", "attLabs"),
                Entry::builder().class("orgUnit").class("top").attr("ou", "attLabs").build(),
            )
            .unwrap();
        d.add_named_child(
            labs,
            Rdn::single("uid", "laks"),
            Entry::builder()
                .class("person")
                .class("top")
                .attr("uid", "laks")
                .attr("name", "laks lakshmanan")
                .build(),
        )
        .unwrap();
        d
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let d = sample_instance();
        let text = write_ldif(&d).unwrap();
        let d2 = load(&text).unwrap();
        assert_eq!(d2.len(), 3);
        let laks = d2
            .lookup_dn(&"uid=laks,ou=attLabs,o=att".parse().unwrap())
            .expect("laks present after roundtrip");
        assert_eq!(d2.entry(laks).unwrap().first_value("name"), Some("laks lakshmanan"));
        assert_eq!(d2.forest().depth(laks), 2);
    }

    #[test]
    fn unsafe_values_use_base64() {
        let mut out = String::new();
        let e = Entry::builder().class("top").attr("description", " leading space").build();
        write_record(&mut out, "o=att", &e);
        assert!(out.contains("description:: "), "got: {out}");
        let e2 = Entry::builder().class("top").attr("description", "ünïcode").build();
        let mut out2 = String::new();
        write_record(&mut out2, "o=att", &e2);
        assert!(out2.contains("description:: "));
    }

    #[test]
    fn long_lines_fold_and_unfold() {
        let long = "x".repeat(300);
        let mut d = DirectoryInstance::default();
        d.add_named_root(
            Rdn::single("o", "att"),
            Entry::builder().class("top").attr("description", long.clone()).build(),
        )
        .unwrap();
        let text = write_ldif(&d).unwrap();
        assert!(text.lines().all(|l| l.chars().count() <= 76));
        let d2 = load(&text).unwrap();
        let id = d2.lookup_dn(&"o=att".parse().unwrap()).unwrap();
        assert_eq!(d2.entry(id).unwrap().first_value("description"), Some(long.as_str()));
    }

    /// `push_line` as it was before it had a fast path: render the whole
    /// line, then cut it into 76/75-column pieces.
    fn reference_line(out: &mut String, attr: &str, value: &str) {
        let line = if is_safe(value) {
            format!("{attr}: {value}")
        } else {
            format!("{attr}:: {}", base64::encode(value.as_bytes()))
        };
        let chars: Vec<char> = line.chars().collect();
        let (head, rest) = chars.split_at(chars.len().min(76));
        out.extend(head);
        out.push('\n');
        for piece in rest.chunks(75) {
            out.push(' ');
            out.extend(piece);
            out.push('\n');
        }
    }

    #[test]
    fn the_fast_path_writes_what_the_folding_path_writes() {
        let check = |attr: &str, value: &str| {
            let (mut new, mut old) = (String::new(), String::new());
            push_line(&mut new, attr, value);
            reference_line(&mut old, attr, value);
            assert_eq!(new, old, "{attr:?}: {value:?}");
        };
        // The cases the tests above cover, and the columns around the fold.
        for value in ["", "x", " leading space", ":colon", "<url", "ünïcode", "a\nb", "nul\0"] {
            check("description", value);
            check("déscription", value);
        }
        for len in 60..90 {
            check("description", &"x".repeat(len));
            check("d", &"é".repeat(len));
            check(&"n".repeat(len), "v");
        }
        check("description", &"x".repeat(300));

        // A generated corpus: ten thousand lines of mixed alphabets and
        // lengths on both sides of every limit.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        const ALPHABET: [char; 12] =
            ['a', 'Z', '0', ' ', ':', '<', '@', '.', 'é', '\n', '\r', '\0'];
        for _ in 0..10_000 {
            let ascii_only = next(4) != 0;
            let len = [next(12), next(40), 60 + next(30), next(200)][next(4)];
            let value: String = (0..len)
                .map(|_| ALPHABET[next(if ascii_only { 8 } else { ALPHABET.len() })])
                .collect();
            let attr = ["cn", "telephoneNumber", "objectClass", "ü"][next(4)];
            check(attr, &value);
        }
    }

    #[test]
    fn object_class_lines_come_first() {
        let mut out = String::new();
        let e = Entry::builder().class("person").attr("uid", "x").build();
        write_record(&mut out, "uid=x", &e);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "dn: uid=x");
        assert_eq!(lines[1], "objectClass: person");
        assert_eq!(lines[2], "uid: x");
    }
}
