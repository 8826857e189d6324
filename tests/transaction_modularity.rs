//! Theorem 4.1 property test: a transaction's final-instance legality
//! equals the conjunction of per-subtree incremental verdicts along the
//! normalised insert-then-delete order — independent of the original
//! operation interleaving.

use bschema_core::legality::LegalityChecker;
use bschema_core::paper::white_pages_schema;
use bschema_core::updates::{apply_and_check, Transaction};
use bschema_directory::{DirectoryInstance, Entry, EntryId};
use proptest::prelude::*;

fn base() -> (DirectoryInstance, Vec<EntryId>, Vec<EntryId>) {
    let mut dir = DirectoryInstance::white_pages();
    let org = dir.add_root_entry(
        Entry::builder().classes(["organization", "orgGroup", "top"]).attr("o", "x").build(),
    );
    let mut units = Vec::new();
    let mut persons = Vec::new();
    for u in 0..3 {
        let unit = dir
            .add_child_entry(
                org,
                Entry::builder()
                    .classes(["orgUnit", "orgGroup", "top"])
                    .attr("ou", format!("u{u}"))
                    .build(),
            )
            .unwrap();
        units.push(unit);
        for p in 0..2 {
            persons.push(
                dir.add_child_entry(
                    unit,
                    Entry::builder()
                        .classes(["researcher", "person", "top"])
                        .attr("uid", format!("p{u}-{p}"))
                        .attr("name", format!("p{u}-{p}"))
                        .build(),
                )
                .unwrap(),
            );
        }
    }
    dir.prepare();
    (dir, units, persons)
}

/// One randomized op: insert a person under a unit, insert a unit+person
/// subtree, or delete a person.
#[derive(Debug, Clone)]
enum OpChoice {
    InsertPerson(usize),
    InsertUnitSubtree(usize),
    DeletePerson(usize),
}

fn op_strategy() -> impl Strategy<Value = OpChoice> {
    prop_oneof![
        (0usize..3).prop_map(OpChoice::InsertPerson),
        (0usize..3).prop_map(OpChoice::InsertUnitSubtree),
        (0usize..6).prop_map(OpChoice::DeletePerson),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn incremental_conjunction_equals_final_full_check(
        ops in proptest::collection::vec(op_strategy(), 1..6)
    ) {
        let schema = white_pages_schema();
        let (dir, units, persons) = base();
        prop_assume!(LegalityChecker::new(&schema).check(&dir).is_legal());

        // Build the interleaved transaction.
        let mut tx = Transaction::new();
        let mut deleted: Vec<EntryId> = Vec::new();
        let mut counter = 0usize;
        for op in &ops {
            counter += 1;
            match op {
                OpChoice::InsertPerson(u) => {
                    tx.insert_under(
                        units[*u],
                        Entry::builder()
                            .classes(["researcher", "person", "top"])
                            .attr("uid", format!("n{counter}"))
                            .attr("name", format!("n{counter}"))
                            .build(),
                    );
                }
                OpChoice::InsertUnitSubtree(u) => {
                    let unit_op = tx.insert_under(
                        units[*u],
                        Entry::builder()
                            .classes(["orgUnit", "orgGroup", "top"])
                            .attr("ou", format!("n{counter}"))
                            .build(),
                    );
                    tx.insert_under_new(
                        unit_op,
                        Entry::builder()
                            .classes(["person", "top"])
                            .attr("uid", format!("n{counter}b"))
                            .attr("name", format!("n{counter}b"))
                            .build(),
                    );
                }
                OpChoice::DeletePerson(p) => {
                    let victim = persons[*p];
                    if !deleted.contains(&victim) {
                        tx.delete(victim);
                        deleted.push(victim);
                    }
                }
            }
        }

        // Path A: normalised application with per-subtree incremental
        // checks (Theorem 4.1 + Figure 5).
        let mut dir_a = dir.clone();
        let applied = apply_and_check(&schema, &mut dir_a, &tx).expect("tx is structurally valid");

        // Path B: apply the same normalised form without checks, then one
        // full from-scratch legality check.
        let mut dir_b = dir.clone();
        let normalized = tx.normalize(&dir_b).expect("valid");
        for subtree in &normalized.insertions {
            subtree.apply(&mut dir_b).expect("normalised insertion applies");
        }
        for &root in &normalized.deletion_roots {
            dir_b.remove_subtree(root).expect("validated");
        }
        dir_b.prepare();
        // Whichever way the transaction was applied, numbering and index
        // are what a from-scratch pass would make of the result.
        prop_assert_eq!((dir_a.check_prepared(), dir_b.check_prepared()), (Ok(()), Ok(())));
        let full = LegalityChecker::new(&schema).check(&dir_b);

        // Theorem 4.1: final legal ⇔ all intermediate checks clean.
        prop_assert_eq!(
            applied.report.is_legal(),
            full.is_legal(),
            "modularity broken.\nincremental: {}\nfull: {}",
            applied.report,
            full
        );

        // Both paths agree on the final content, too.
        prop_assert_eq!(dir_a.len(), dir_b.len());
    }
}

/// The §4.1 motivating scenario verbatim: checking after every single op
/// would flag a spurious violation, subtree granularity does not.
#[test]
fn op_granularity_is_not_robust_but_subtree_granularity_is() {
    let schema = white_pages_schema();
    let (mut dir, units, _) = base();
    let checker = LegalityChecker::new(&schema);

    // Apply just the orgUnit insertion: instance becomes (temporarily)
    // illegal — orgGroup ⇒⇒ person has no person under the new unit yet.
    let unit = dir
        .add_child_entry(
            units[0],
            Entry::builder().classes(["orgUnit", "orgGroup", "top"]).attr("ou", "fresh").build(),
        )
        .unwrap();
    dir.prepare();
    dir.check_prepared().expect("maintained across the first insertion");
    assert!(!checker.check(&dir).is_legal(), "mid-transaction state is illegal");

    // Complete the subtree: legality restored.
    dir.add_child_entry(
        unit,
        Entry::builder().classes(["person", "top"]).attr("uid", "k").attr("name", "k").build(),
    )
    .unwrap();
    dir.prepare();
    dir.check_prepared().expect("maintained across the second insertion");
    assert!(checker.check(&dir).is_legal(), "completed subtree is legal");
}
