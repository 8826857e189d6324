//! Structure-schema legality via the Figure 4 query reduction (§3.2).
//!
//! Each element of `(Cr, Er, Ef)` is translated to a hierarchical selection
//! query ([`super::translate`]) and evaluated with the interval-merge
//! engine; the instance is legal iff every "must be empty" query is empty
//! and every `◇` query is non-empty. With sorted entries each query runs in
//! O(|Q|·|D|), so the whole structure check is O(|S|·|D|) — the linear half
//! of Theorem 3.1.

use bschema_directory::DirectoryInstance;
use bschema_query::{evaluate_batch, EvalContext, Query};

use super::report::Violation;
use super::translate;
use crate::schema::DirectorySchema;

/// How a structure-schema element turns its query's witnesses into
/// violations.
enum StructureJob<'s> {
    RequiredClass(crate::schema::ClassId),
    RequiredRel(&'s crate::schema::RequiredRel),
    ForbiddenRel(&'s crate::schema::ForbiddenRel),
}

/// Checks the instance against the structure schema, appending violations
/// (with one witness violation per offending entry).
///
/// The Figure 4 queries are independent, so they are evaluated as one
/// batch on `workers` workers over one shared evaluation context (and the
/// one shared sorted-entry index behind it). Violations come out in
/// schema-element order whatever `workers` is: witnesses are collected
/// per query and concatenated in query order.
pub fn check_instance(
    schema: &DirectorySchema,
    dir: &DirectoryInstance,
    workers: usize,
    probe: &dyn bschema_obs::Probe,
    out: &mut Vec<Violation>,
) {
    let ctx = EvalContext::new(dir).with_probe(probe);
    let classes = schema.classes();
    let structure = schema.structure();
    if probe.enabled() {
        probe.add("legality.structure_queries", structure.len() as u64);
    }

    let mut jobs: Vec<StructureJob<'_>> = Vec::with_capacity(structure.len());
    let mut queries: Vec<Query> = Vec::with_capacity(structure.len());
    for class in structure.required_classes() {
        jobs.push(StructureJob::RequiredClass(class));
        queries.push(translate::required_class_query(schema, class));
    }
    for rel in structure.required_rels() {
        jobs.push(StructureJob::RequiredRel(rel));
        queries.push(translate::required_rel_query(schema, rel));
    }
    for rel in structure.forbidden_rels() {
        jobs.push(StructureJob::ForbiddenRel(rel));
        queries.push(translate::forbidden_rel_query(schema, rel));
    }

    for (job, witnesses) in jobs.iter().zip(evaluate_batch(&ctx, &queries, workers)) {
        match *job {
            StructureJob::RequiredClass(class) => {
                if witnesses.is_empty() {
                    out.push(Violation::MissingRequiredClass {
                        class: classes.name(class).to_owned(),
                    });
                }
            }
            StructureJob::RequiredRel(rel) => {
                for witness in witnesses {
                    out.push(Violation::RequiredRelViolation {
                        entry: witness,
                        source: classes.name(rel.source).to_owned(),
                        kind: rel.kind,
                        target: classes.name(rel.target).to_owned(),
                    });
                }
            }
            StructureJob::ForbiddenRel(rel) => {
                for witness in witnesses {
                    out.push(Violation::ForbiddenRelViolation {
                        entry: witness,
                        upper: classes.name(rel.upper).to_owned(),
                        kind: rel.kind,
                        lower: classes.name(rel.lower).to_owned(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{white_pages_instance, white_pages_schema};
    use bschema_directory::Entry;

    #[test]
    fn figure1_structure_is_legal() {
        let schema = white_pages_schema();
        let (dir, _) = white_pages_instance();
        let mut out = Vec::new();
        check_instance(&schema, &dir, 1, bschema_obs::noop(), &mut out);
        assert_eq!(out, [], "Figure 1 must satisfy the Figure 3 structure schema");
    }

    #[test]
    fn person_with_child_is_caught() {
        let schema = white_pages_schema();
        let (mut dir, ids) = white_pages_instance();
        // §4.2's illegal update: an orgUnit under suciu.
        let bad = dir
            .add_child_entry(
                ids.suciu,
                Entry::builder().classes(["orgUnit", "orgGroup", "top"]).attr("ou", "oops").build(),
            )
            .unwrap();
        dir.prepare();
        let mut out = Vec::new();
        check_instance(&schema, &dir, 1, bschema_obs::noop(), &mut out);
        // person ↛ch top violated at suciu; orgUnit →pa orgGroup violated at
        // the new entry; orgGroup ⇒⇒de person violated at the new entry (it
        // has no person descendant); orgUnit →an organization is satisfied
        // (att is an ancestor).
        assert!(out.iter().any(|v| matches!(
            v,
            Violation::ForbiddenRelViolation { entry, upper, .. }
                if *entry == ids.suciu && upper == "person"
        )));
        assert!(out.iter().any(|v| matches!(
            v,
            Violation::RequiredRelViolation { entry, source, .. }
                if *entry == bad && source == "orgUnit"
        )));
        assert!(out.iter().any(|v| matches!(
            v,
            Violation::RequiredRelViolation { entry, source, .. }
                if *entry == bad && source == "orgGroup"
        )));
    }

    #[test]
    fn missing_required_class_is_caught() {
        let schema = white_pages_schema();
        // An instance with only the organization: ◇person and ◇orgUnit fail.
        let mut dir = DirectoryInstance::white_pages();
        dir.add_root_entry(
            Entry::builder().classes(["organization", "orgGroup", "top"]).attr("o", "att").build(),
        );
        dir.prepare();
        let mut out = Vec::new();
        check_instance(&schema, &dir, 1, bschema_obs::noop(), &mut out);
        let missing: Vec<&str> = out
            .iter()
            .filter_map(|v| match v {
                Violation::MissingRequiredClass { class } => Some(class.as_str()),
                _ => None,
            })
            .collect();
        assert!(missing.contains(&"person"));
        assert!(missing.contains(&"orgUnit"));
        assert!(!missing.contains(&"organization"));
    }

    #[test]
    fn empty_instance_fails_only_required_classes() {
        let schema = white_pages_schema();
        let mut dir = DirectoryInstance::white_pages();
        dir.prepare();
        let mut out = Vec::new();
        check_instance(&schema, &dir, 1, bschema_obs::noop(), &mut out);
        assert_eq!(out.len(), 3); // ◇organization, ◇orgUnit, ◇person
        assert!(out.iter().all(|v| matches!(v, Violation::MissingRequiredClass { .. })));
    }
}
