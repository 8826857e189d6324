//! The naive structure-schema checker: direct pairwise comparison.
//!
//! This is the strawman §3.2 opens with: "compare every pair of (parent,
//! child) entries and every pair of (ancestor, descendant) entries, against
//! the structure schema", running in O((|Er|+|Ef|)·|D|²). It exists as the
//! baseline for the Theorem 3.1 scaling benchmark and as a differential
//! oracle for the query-based checker.

use bschema_directory::DirectoryInstance;

use super::report::Violation;
use crate::schema::{DirectorySchema, ForbidKind, RelKind};

/// Checks the structure schema by explicit traversal, no indexes or queries.
/// Output matches [`super::structure::check_instance`] up to ordering.
pub fn check_instance(schema: &DirectorySchema, dir: &DirectoryInstance, out: &mut Vec<Violation>) {
    let classes = schema.classes();
    let structure = schema.structure();
    let forest = dir.forest();

    let has_class =
        |id, class_id| dir.entry(id).is_some_and(|e| e.has_class(classes.name(class_id)));

    for class in structure.required_classes() {
        let found = dir.iter().any(|(_, e)| e.has_class(classes.name(class)));
        if !found {
            out.push(Violation::MissingRequiredClass { class: classes.name(class).to_owned() });
        }
    }

    for rel in structure.required_rels() {
        for (id, entry) in dir.iter() {
            if !entry.has_class(classes.name(rel.source)) {
                continue;
            }
            let satisfied = match rel.kind {
                RelKind::Child => forest.children(id).any(|c| has_class(c, rel.target)),
                RelKind::Parent => forest.parent(id).is_some_and(|p| has_class(p, rel.target)),
                RelKind::Descendant => forest.descendants(id).any(|d| has_class(d, rel.target)),
                RelKind::Ancestor => forest.ancestors(id).any(|a| has_class(a, rel.target)),
            };
            if !satisfied {
                out.push(Violation::RequiredRelViolation {
                    entry: id,
                    source: classes.name(rel.source).to_owned(),
                    kind: rel.kind,
                    target: classes.name(rel.target).to_owned(),
                });
            }
        }
    }

    for rel in structure.forbidden_rels() {
        for (id, entry) in dir.iter() {
            if !entry.has_class(classes.name(rel.upper)) {
                continue;
            }
            let violated = match rel.kind {
                ForbidKind::Child => forest.children(id).any(|c| has_class(c, rel.lower)),
                ForbidKind::Descendant => forest.descendants(id).any(|d| has_class(d, rel.lower)),
            };
            if violated {
                out.push(Violation::ForbiddenRelViolation {
                    entry: id,
                    upper: classes.name(rel.upper).to_owned(),
                    kind: rel.kind,
                    lower: classes.name(rel.lower).to_owned(),
                });
            }
        }
    }
}

/// The *literal* §3.2 strawman: "compare every pair of (parent, child)
/// entries and every pair of (ancestor, descendant) entries, against the
/// structure schema" — O((|Er| + |Ef|) · |D|²). Used as the quadratic
/// baseline in the Theorem 3.1 scaling benchmark.
pub fn check_instance_pairwise(
    schema: &DirectorySchema,
    dir: &DirectoryInstance,
    out: &mut Vec<Violation>,
) {
    let classes = schema.classes();
    let structure = schema.structure();
    let forest = dir.forest();
    let entries: Vec<_> = dir.iter().collect();
    let n = entries.len();

    for class in structure.required_classes() {
        let found = entries.iter().any(|(_, e)| e.has_class(classes.name(class)));
        if !found {
            out.push(Violation::MissingRequiredClass { class: classes.name(class).to_owned() });
        }
    }

    let req = structure.required_rels();
    let forb = structure.forbidden_rels();
    // satisfied[i][r]: entry i satisfies required rel r (or is not a source).
    let mut satisfied = vec![vec![false; req.len()]; n];
    // violated[i][f]: entry i was caught violating forbidden rel f (dedup —
    // the fast checker reports one witness per entry, not per pair).
    let mut violated = vec![vec![false; forb.len()]; n];
    for (i, (_, ei)) in entries.iter().enumerate() {
        for (r, rel) in req.iter().enumerate() {
            satisfied[i][r] = !ei.has_class(classes.name(rel.source));
        }
    }

    // Every ordered pair, as the strawman prescribes.
    for (i, &(id_i, ei)) in entries.iter().enumerate() {
        for (j, &(id_j, ej)) in entries.iter().enumerate() {
            if i == j {
                continue;
            }
            let is_parent = forest.parent(id_j) == Some(id_i);
            let is_ancestor = forest.interval_is_ancestor(id_i, id_j);
            if !is_ancestor {
                continue; // unrelated pair (parent implies ancestor)
            }
            for (r, rel) in req.iter().enumerate() {
                // ei is above ej: ej may satisfy ei's child/descendant
                // requirements, ei may satisfy ej's parent/ancestor ones.
                match rel.kind {
                    RelKind::Child => {
                        if is_parent && !satisfied[i][r] && ej.has_class(classes.name(rel.target)) {
                            satisfied[i][r] = true;
                        }
                    }
                    RelKind::Descendant => {
                        if !satisfied[i][r] && ej.has_class(classes.name(rel.target)) {
                            satisfied[i][r] = true;
                        }
                    }
                    RelKind::Parent => {
                        if is_parent && !satisfied[j][r] && ei.has_class(classes.name(rel.target)) {
                            satisfied[j][r] = true;
                        }
                    }
                    RelKind::Ancestor => {
                        if !satisfied[j][r] && ei.has_class(classes.name(rel.target)) {
                            satisfied[j][r] = true;
                        }
                    }
                }
            }
            for (f, rel) in forb.iter().enumerate() {
                let pair_matches = match rel.kind {
                    ForbidKind::Child => is_parent,
                    ForbidKind::Descendant => true,
                };
                if pair_matches
                    && !violated[i][f]
                    && ei.has_class(classes.name(rel.upper))
                    && ej.has_class(classes.name(rel.lower))
                {
                    violated[i][f] = true;
                }
            }
        }
    }

    for (i, &(id_i, _)) in entries.iter().enumerate() {
        for (f, rel) in forb.iter().enumerate() {
            if violated[i][f] {
                out.push(Violation::ForbiddenRelViolation {
                    entry: id_i,
                    upper: classes.name(rel.upper).to_owned(),
                    kind: rel.kind,
                    lower: classes.name(rel.lower).to_owned(),
                });
            }
        }
    }

    for (i, &(id_i, _)) in entries.iter().enumerate() {
        for (r, rel) in req.iter().enumerate() {
            if !satisfied[i][r] {
                out.push(Violation::RequiredRelViolation {
                    entry: id_i,
                    source: classes.name(rel.source).to_owned(),
                    kind: rel.kind,
                    target: classes.name(rel.target).to_owned(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legality::structure as fast;
    use crate::paper::{white_pages_instance, white_pages_schema};
    use bschema_directory::Entry;

    #[test]
    fn agrees_with_fast_checker_on_figure1() {
        let schema = white_pages_schema();
        let (dir, _) = white_pages_instance();
        let mut naive_out = Vec::new();
        check_instance(&schema, &dir, &mut naive_out);
        let mut fast_out = Vec::new();
        fast::check_instance(&schema, &dir, bschema_obs::noop(), &mut fast_out);
        naive_out.sort();
        fast_out.sort();
        assert_eq!(naive_out, fast_out);
    }

    #[test]
    fn pairwise_agrees_with_fast_checker() {
        let schema = white_pages_schema();
        // Legal instance.
        let (dir, ids) = white_pages_instance();
        let mut pair_out = Vec::new();
        check_instance_pairwise(&schema, &dir, &mut pair_out);
        assert_eq!(pair_out, [], "Figure 1 is legal");
        // Illegal instance: both structure violations present.
        let mut dir = dir;
        dir.add_child_entry(
            ids.suciu,
            Entry::builder().classes(["orgUnit", "orgGroup", "top"]).attr("ou", "oops").build(),
        )
        .unwrap();
        dir.prepare();
        let mut pair_out = Vec::new();
        check_instance_pairwise(&schema, &dir, &mut pair_out);
        let mut fast_out = Vec::new();
        fast::check_instance(&schema, &dir, bschema_obs::noop(), &mut fast_out);
        pair_out.sort();
        fast_out.sort();
        assert_eq!(pair_out, fast_out);
    }

    #[test]
    fn agrees_with_fast_checker_on_illegal_instance() {
        let schema = white_pages_schema();
        let (mut dir, ids) = white_pages_instance();
        dir.add_child_entry(
            ids.suciu,
            Entry::builder().classes(["orgUnit", "orgGroup", "top"]).attr("ou", "oops").build(),
        )
        .unwrap();
        // Also delete nothing, add a lone person at the root (no orgGroup
        // parent → person →pa orgGroup violated).
        dir.add_root_entry(
            Entry::builder()
                .classes(["person", "top"])
                .attr("uid", "stray")
                .attr("name", "stray")
                .build(),
        );
        dir.prepare();
        let mut naive_out = Vec::new();
        check_instance(&schema, &dir, &mut naive_out);
        let mut fast_out = Vec::new();
        fast::check_instance(&schema, &dir, bschema_obs::noop(), &mut fast_out);
        naive_out.sort();
        fast_out.sort();
        assert_eq!(naive_out, fast_out);
        assert!(!naive_out.is_empty());
    }
}
