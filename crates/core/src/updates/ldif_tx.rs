//! Building a [`Transaction`] from LDIF change records.
//!
//! This is the one decoding path shared by every surface that accepts
//! transactions as LDIF bytes — the CLI `apply` command and the wire
//! server's `TXN` frames — so both enforce identical semantics: a record
//! with `changetype: delete` deletes the named subtree root (which must
//! exist), any other record is an insertion attached to its parent DN,
//! where the parent may be an existing entry or an earlier insertion in
//! the same transaction.

use std::collections::HashMap;

use bschema_directory::ldif::LdifRecord;
use bschema_directory::{DirectoryInstance, Dn};

use super::{Transaction, TxError};

/// Whether `rec` is a `changetype: delete` record (any other record is
/// an insertion).
pub fn is_delete_record(rec: &LdifRecord) -> bool {
    rec.entry.first_value("changetype").is_some_and(|c| c.eq_ignore_ascii_case("delete"))
}

/// Decodes parsed LDIF records into an insertion/deletion [`Transaction`]
/// against `dir`. DNs are resolved at build time, so the caller must hold
/// the directory stable between building and applying (the server builds
/// under its write lock for exactly this reason). A record that cannot be
/// turned into an operation is [`TxError::Ldif`].
pub fn transaction_from_ldif(
    dir: &DirectoryInstance,
    records: Vec<LdifRecord>,
) -> Result<Transaction, TxError> {
    let mut tx = Transaction::new();
    let mut pending: HashMap<String, usize> = HashMap::new();
    for mut rec in records {
        if is_delete_record(&rec) {
            let id = dir.lookup_dn(&rec.dn).ok_or_else(|| TxError::Ldif {
                line: rec.line,
                reason: format!("cannot delete {:?}: no such entry", rec.dn.to_normalized_string()),
            })?;
            tx.delete(id);
            continue;
        }
        rec.entry.remove_attribute("changetype");
        let (rdn, parent) = rec.dn.rdns().split_first().ok_or_else(|| TxError::Ldif {
            line: rec.line,
            reason: "insertion record has an empty dn".to_owned(),
        })?;
        let rdn = rdn.clone();
        let op = if parent.is_empty() {
            tx.insert_root_named(rdn, rec.entry)
        } else if let Some(id) = dir.lookup_rdns(parent) {
            tx.insert_under_named(id, rdn, rec.entry)
        } else if let Some(&parent_op) =
            pending.get(&Dn::from_rdns(parent.to_vec()).to_normalized_string())
        {
            tx.insert_under_new_named(parent_op, rdn, rec.entry)
        } else {
            return Err(TxError::Ldif {
                line: rec.line,
                reason: format!(
                    "parent of {:?} is neither in the directory nor earlier in the transaction",
                    rec.dn.to_normalized_string()
                ),
            });
        };
        pending.insert(rec.dn.to_normalized_string(), op);
    }
    Ok(tx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::white_pages_instance;
    use bschema_directory::ldif::parse_ldif;

    #[test]
    fn insertions_resolve_existing_and_pending_parents() {
        let (dir, _) = white_pages_instance();
        let text = "\
dn: ou=voice,ou=attLabs,o=att
objectClass: orgUnit
objectClass: orgGroup
objectClass: top
ou: voice

dn: uid=zoe,ou=voice,ou=attLabs,o=att
objectClass: person
objectClass: top
uid: zoe
name: zoe
";
        let tx = transaction_from_ldif(&dir, parse_ldif(text).expect("valid ldif"))
            .expect("builds transaction");
        assert_eq!(tx.len(), 2);
    }

    #[test]
    fn delete_of_missing_entry_is_an_error() {
        let (dir, _) = white_pages_instance();
        let text = "dn: uid=nobody,o=att\nchangetype: delete\n";
        let err = transaction_from_ldif(&dir, parse_ldif(text).expect("valid ldif")).unwrap_err();
        let TxError::Ldif { line, reason } = &err else { panic!("{err:?}") };
        assert!(reason.contains("no such entry"), "{err}");
        assert_eq!(*line, 1);
    }

    #[test]
    fn orphan_insertion_is_an_error() {
        let (dir, _) = white_pages_instance();
        let text = "dn: uid=zoe,ou=nowhere,o=att\nobjectClass: person\nobjectClass: top\n";
        let err = transaction_from_ldif(&dir, parse_ldif(text).expect("valid ldif")).unwrap_err();
        assert!(err.to_string().contains("neither in the directory"), "{err}");
    }
}
