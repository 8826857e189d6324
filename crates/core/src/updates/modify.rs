//! Entry modification (LDAP Modify, RFC 2251 §4.6) with incremental
//! legality checking.
//!
//! The paper's §4 treats insertions and deletions of entries; modifying an
//! existing entry's attributes is the third LDAP write. Its incremental
//! story follows from the same locality arguments:
//!
//! * if the modification does **not** touch `objectClass`, only the content
//!   schema of the one modified entry can change (content checks are
//!   per-entry, §3.1), plus key uniqueness for the touched attributes —
//!   nothing structural moves;
//! * if it **does** change the entry's class set, structure-schema elements
//!   mentioning the affected classes must be re-verified: the entry may have
//!   gained obligations (it joined a source class), lost its qualifying
//!   status for relatives (it left a target class), or created forbidden
//!   pairs. All of that happens between the entry and its own parent,
//!   ancestors, children and descendants, so those are what is re-tested
//!   (Figure 5′, [`scoped`](super::scoped)) — not the instance.

use std::collections::BTreeSet;
use std::fmt;

use bschema_directory::{DirectoryInstance, Entry, EntryId};
use bschema_obs::{Probe, NO_SPAN};

use super::scoped::Neighbourhood;
use crate::legality::content;
use crate::legality::report::LegalityReport;
use crate::schema::{ClassId, DirectorySchema, ForbidKind, RelKind};

/// One attribute-level modification (RFC 2251 Modify operation kinds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mod {
    /// Add a value to an attribute.
    Add {
        /// The attribute.
        attribute: String,
        /// The value to add.
        value: String,
    },
    /// Delete one value of an attribute.
    DeleteValue {
        /// The attribute.
        attribute: String,
        /// The value to remove.
        value: String,
    },
    /// Delete an attribute with all its values.
    DeleteAttribute {
        /// The attribute.
        attribute: String,
    },
    /// Replace all values of an attribute.
    Replace {
        /// The attribute.
        attribute: String,
        /// The new values (empty = delete the attribute).
        values: Vec<String>,
    },
}

impl Mod {
    /// Applies this modification to `entry`, unchecked — the one
    /// interpreter of a `Mod`, behind both the checked apply and the
    /// sharded `◇c` ledger's dry run.
    pub fn apply_to(&self, entry: &mut Entry) {
        match self {
            Mod::Add { attribute, value } => {
                entry.add_value(attribute, value.clone());
            }
            Mod::DeleteValue { attribute, value } => {
                entry.remove_value(attribute, value);
            }
            Mod::DeleteAttribute { attribute } => {
                entry.remove_attribute(attribute);
            }
            Mod::Replace { attribute, values } => {
                entry.set_values(attribute, values.iter().cloned());
            }
        }
    }
}

impl fmt::Display for Mod {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mod::Add { attribute, value } => write!(f, "add {attribute}: {value}"),
            Mod::DeleteValue { attribute, value } => write!(f, "delete {attribute}: {value}"),
            Mod::DeleteAttribute { attribute } => write!(f, "delete {attribute}"),
            Mod::Replace { attribute, values } => {
                write!(f, "replace {attribute} with {} value(s)", values.len())
            }
        }
    }
}

/// Applies `mods` to `target` in `dir` (in order), without any legality
/// checking. Returns the set of (lowercased) class names whose membership
/// changed, for the caller's targeted recheck.
pub fn apply_mods(
    dir: &mut DirectoryInstance,
    target: EntryId,
    mods: &[Mod],
) -> Option<BTreeSet<String>> {
    let before: BTreeSet<String> =
        dir.entry(target)?.classes().iter().map(|c| c.to_ascii_lowercase()).collect();
    {
        let entry = dir.entry_mut(target)?;
        for m in mods {
            m.apply_to(entry);
        }
    }
    let after: BTreeSet<String> =
        dir.entry(target)?.classes().iter().map(|c| c.to_ascii_lowercase()).collect();
    Some(before.symmetric_difference(&after).cloned().collect())
}

/// Incremental legality check after modifying one entry. `dir` is the
/// instance **after** the modification, prepared; `changed_classes` is
/// [`apply_mods`]' return value; the instance before is assumed legal
/// but possibly for `◇c`, which is counted for every required class, so
/// the report names the violations a full §3 check of `dir` finds (a key
/// clash from `target`'s side).
pub fn check_modification(
    schema: &DirectorySchema,
    dir: &DirectoryInstance,
    target: EntryId,
    changed_classes: &BTreeSet<String>,
    probe: &dyn Probe,
) -> LegalityReport {
    let root_span = probe.span_start(NO_SPAN, "incremental.check_modification", 0);
    let mut out = Vec::new();

    // Content: the one modified entry.
    if let Some(entry) = dir.entry(target) {
        content::check_entry(schema, target, entry, &mut out);
    }

    // Keys: the modified entry's values against the rest.
    crate::legality::keys::check_insertion(schema, dir, target, &mut out);

    // `◇c` by the counts, whatever changed: the instance before may miss
    // a required class.
    let near = Neighbourhood::new(schema, dir, probe);
    near.emptied(&mut out);

    // Structure: only elements whose classes intersect the change set,
    // and of those only what `target` itself can have changed.
    if !changed_classes.is_empty() {
        let forest = dir.forest();
        let touched = |c: ClassId| {
            let name = schema.classes().name(c);
            changed_classes.iter().any(|changed| changed.eq_ignore_ascii_case(name))
        };
        let joined = |c: ClassId| touched(c) && near.carries(target, c);
        let left = |c: ClassId| touched(c) && !near.carries(target, c);

        // Leaving a class takes a child-witness from the parent and a
        // descendant-witness from the ancestors, as a deletion would.
        near.starved(&[forest.parent(target)], left, &mut out);
        for rel in schema.structure().required_rels() {
            // Joining a source class puts `target` under the obligation.
            if joined(rel.source) {
                near.require(target, rel, &mut out);
            }
            // Leaving a target class takes a parent-witness from the
            // children and an ancestor-witness from the entries below.
            if left(rel.target) {
                match rel.kind {
                    RelKind::Child | RelKind::Descendant => {} // `starved`, above
                    RelKind::Parent => {
                        for c in forest.children(target).filter(|&c| near.carries(c, rel.source)) {
                            near.require(c, rel, &mut out);
                        }
                    }
                    RelKind::Ancestor => {
                        for d in near.below(target, rel.source) {
                            near.require(d, rel, &mut out);
                        }
                    }
                }
            }
        }
        for rel in schema.structure().forbidden_rels() {
            // A new forbidden pair has `target` as its upper end …
            if joined(rel.upper) {
                near.forbid(target, rel, &mut out);
            }
            // … or as its lower end, under its parent or an ancestor.
            if joined(rel.lower) {
                let reach = match rel.kind {
                    ForbidKind::Child => 1,
                    ForbidKind::Descendant => usize::MAX,
                };
                for upper in forest.ancestors(target).take(reach) {
                    if near.carries(upper, rel.upper) {
                        near.forbid(upper, rel, &mut out);
                    }
                }
            }
        }
        near.finish();
    }

    probe.span_end(root_span);
    LegalityReport::from_violations(out).normalized()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legality::{LegalityChecker, Violation};
    use crate::paper::{white_pages_instance, white_pages_schema};

    #[test]
    fn content_only_modification() {
        let schema = white_pages_schema();
        let (mut dir, ids) = white_pages_instance();
        // Legal: add a phone number to laks.
        let changed = apply_mods(
            &mut dir,
            ids.laks,
            &[Mod::Add { attribute: "telephoneNumber".into(), value: "+1 514 848 2424".into() }],
        )
        .unwrap();
        assert!(changed.is_empty(), "no class change");
        dir.prepare();
        let report = check_modification(&schema, &dir, ids.laks, &changed, bschema_obs::noop());
        assert!(report.is_legal(), "{report}");
        assert!(LegalityChecker::new(&schema).check(&dir).is_legal());

        // Illegal: remove a required attribute.
        let changed =
            apply_mods(&mut dir, ids.suciu, &[Mod::DeleteAttribute { attribute: "name".into() }])
                .unwrap();
        dir.prepare();
        let report = check_modification(&schema, &dir, ids.suciu, &changed, bschema_obs::noop());
        assert!(!report.is_legal());
        assert_eq!(report.is_legal(), LegalityChecker::new(&schema).check(&dir).is_legal());
    }

    #[test]
    fn class_changing_modification_rechecks_structure() {
        let schema = white_pages_schema();
        let (mut dir, ids) = white_pages_instance();
        // Turning armstrong's staffMember into researcher: still legal
        // (researcher is a person subclass and armstrong's parent is a
        // unit).
        let changed = apply_mods(
            &mut dir,
            ids.armstrong,
            &[
                Mod::DeleteValue { attribute: "objectClass".into(), value: "staffMember".into() },
                Mod::Add { attribute: "objectClass".into(), value: "researcher".into() },
            ],
        )
        .unwrap();
        assert_eq!(changed.len(), 2);
        dir.prepare();
        let report =
            check_modification(&schema, &dir, ids.armstrong, &changed, bschema_obs::noop());
        assert!(report.is_legal(), "{report}");

        // Dropping person from laks breaks content (researcher without its
        // superclass) AND structure for ancestors needing person
        // descendants is still fine (suciu remains)... then dropping
        // suciu's person too starves `databases`.
        let changed = apply_mods(
            &mut dir,
            ids.laks,
            &[Mod::DeleteValue { attribute: "objectClass".into(), value: "person".into() }],
        )
        .unwrap();
        dir.prepare();
        let report = check_modification(&schema, &dir, ids.laks, &changed, bschema_obs::noop());
        assert!(!report.is_legal());
        assert_eq!(report.is_legal(), LegalityChecker::new(&schema).check(&dir).is_legal());
    }

    #[test]
    fn structure_breaking_class_change_matches_full_check() {
        let schema = white_pages_schema();
        let (mut dir, ids) = white_pages_instance();
        // Remove person+researcher from BOTH researchers: databases (an
        // orgGroup) loses every person descendant.
        for id in [ids.laks, ids.suciu] {
            let changed = apply_mods(
                &mut dir,
                id,
                &[
                    Mod::DeleteValue { attribute: "objectClass".into(), value: "person".into() },
                    Mod::DeleteValue {
                        attribute: "objectClass".into(),
                        value: "researcher".into(),
                    },
                ],
            )
            .unwrap();
            assert!(changed.contains("person"));
        }
        dir.prepare();
        let changed: BTreeSet<String> = ["person".to_owned(), "researcher".to_owned()].into();
        let report = check_modification(&schema, &dir, ids.laks, &changed, bschema_obs::noop());
        let full = LegalityChecker::new(&schema).check(&dir);
        assert!(!report.is_legal());
        assert_eq!(report.is_legal(), full.is_legal());
        assert!(report.violations().iter().any(|v| matches!(
            v,
            Violation::RequiredRelViolation { entry, .. } if *entry == ids.databases
        )));
    }

    #[test]
    fn replace_and_delete_value_semantics() {
        let (mut dir, ids) = white_pages_instance();
        apply_mods(
            &mut dir,
            ids.laks,
            &[Mod::Replace { attribute: "mail".into(), values: vec!["laks@new.example".into()] }],
        )
        .unwrap();
        assert_eq!(dir.entry(ids.laks).unwrap().values("mail"), ["laks@new.example"]);
        apply_mods(
            &mut dir,
            ids.laks,
            &[Mod::Replace { attribute: "mail".into(), values: vec![] }],
        )
        .unwrap();
        assert!(!dir.entry(ids.laks).unwrap().has_attribute("mail"));
        // Missing target → None.
        let ghost = EntryId::from_index(999);
        assert!(apply_mods(&mut dir, ghost, &[]).is_none());
    }
}
