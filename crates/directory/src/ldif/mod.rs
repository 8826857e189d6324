//! LDIF (LDAP Data Interchange Format, RFC 2849 subset) reader and writer.
//!
//! This is how real directory content moves between servers and tools, and
//! how our examples load the paper's Figure 1 instance from a file. The
//! subset implemented: `version:` header, comments, folded (continuation)
//! lines, `attr: value` and base64 `attr:: value` lines, records separated by
//! blank lines, parents-before-children ordering on output.

pub mod base64;
mod parser;
mod writer;

pub use parser::{
    parse_ldif, parse_ldif_limited, walk_ldif, LdifError, LdifEvent, LdifLimits, LdifRecord,
};
pub use writer::{write_ldif, write_record, write_record_with};

use crate::instance::{DirectoryInstance, InstanceError};

/// Loads LDIF text into an existing instance. Records must appear
/// parents-first (standard LDIF practice); a record whose parent DN is not
/// present (neither in the instance nor earlier in the file) becomes a new
/// root.
///
/// Returns the number of entries added.
pub fn load_into(instance: &mut DirectoryInstance, text: &str) -> Result<usize, LdifError> {
    load_into_limited(instance, text, &LdifLimits::default())
}

/// Like [`load_into`] but with explicit resource limits — the variant
/// every untrusted-bytes surface (server socket, CLI with `--max-*`
/// flags) must use.
pub fn load_into_limited(
    instance: &mut DirectoryInstance,
    text: &str,
    limits: &LdifLimits,
) -> Result<usize, LdifError> {
    let records = parse_ldif_limited(text, limits)?;
    instance.reserve_names(records.len());
    let mut added = 0;
    for record in records {
        let dn = &record.dn;
        let rdn = dn.rdn().ok_or(LdifError::EmptyDn { line: record.line })?.clone();
        let result = match dn.parent() {
            Some(parent_dn) if !parent_dn.is_root() => match instance.lookup_dn(&parent_dn) {
                Some(parent) => instance.add_named_child(parent, rdn, record.entry),
                None => instance.add_named_root(rdn, record.entry),
            },
            _ => instance.add_named_root(rdn, record.entry),
        };
        result.map_err(|e| LdifError::Instance { line: record.line, source: e.to_string() })?;
        added += 1;
    }
    Ok(added)
}

/// Parses LDIF text into a fresh white-pages instance.
pub fn load(text: &str) -> Result<DirectoryInstance, LdifError> {
    let mut instance = DirectoryInstance::white_pages();
    load_into(&mut instance, text)?;
    Ok(instance)
}

/// Serialises the whole instance to LDIF, preorder (parents first). Entries
/// must all be named; unnamed entries yield an error.
pub fn dump(instance: &DirectoryInstance) -> Result<String, InstanceError> {
    write_ldif(instance)
}
