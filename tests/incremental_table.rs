//! Figure 5 / Theorem 4.2 property test: after any single-subtree update to
//! a legal instance, the incremental Δ-check's verdict equals a full
//! from-scratch legality check of the updated instance.
//!
//! Figure 5′: the scoped insertion and deletion checks report exactly
//! what the paper's Δ-queries and whole-instance recheck report, and the
//! scoped move and class-change checks exactly what the §3 checker finds.
//! Theorem 4.2 by counting: a write copies as many index chunks at |D| ≈
//! 20k as at |D| ≈ 2k, and a refused write copies nothing at all.

use std::collections::BTreeSet;

use bschema_core::legality::{content, LegalityChecker, LegalityReport, Violation};
use bschema_core::paper::{white_pages_schema, white_pages_schema_builder};
use bschema_core::schema::{DirectorySchema, ForbidKind, RelKind};
use bschema_core::updates::{
    apply_and_check, apply_and_check_probed, apply_mods, check_modification, IncrementalChecker,
    Mod, Transaction,
};
use bschema_core::{ManagedDirectory, Op};
use bschema_directory::{DirectoryInstance, Entry, EntryId};
use bschema_obs::names;
use proptest::prelude::*;

/// The white-pages schema extended with a required-child and a
/// forbidden-descendant row so all six Figure 5 relationship forms are live.
fn full_schema() -> DirectorySchema {
    white_pages_schema_builder()
        .require_rel("orgUnit", RelKind::Child, "person")
        .and_then(|b| b.forbid_rel("organization", ForbidKind::Descendant, "organization"))
        .map(|b| b.build())
        .unwrap()
}

/// A small *legal* base instance: org → unit → persons, several units.
fn base_instance(
    units: usize,
    persons_per_unit: usize,
) -> (DirectoryInstance, Vec<EntryId>, Vec<EntryId>) {
    let mut dir = DirectoryInstance::white_pages();
    let org = dir.add_root_entry(
        Entry::builder().classes(["organization", "orgGroup", "top"]).attr("o", "x").build(),
    );
    let mut unit_ids = Vec::new();
    let mut person_ids = Vec::new();
    let mut n = 0;
    for u in 0..units {
        let unit = dir
            .add_child_entry(
                org,
                Entry::builder()
                    .classes(["orgUnit", "orgGroup", "top"])
                    .attr("ou", format!("u{u}"))
                    .build(),
            )
            .unwrap();
        unit_ids.push(unit);
        for _ in 0..persons_per_unit {
            n += 1;
            let p = dir
                .add_child_entry(
                    unit,
                    Entry::builder()
                        .classes(["researcher", "person", "top"])
                        .attr("uid", format!("p{n}"))
                        .attr("name", format!("p{n}"))
                        .build(),
                )
                .unwrap();
            person_ids.push(p);
        }
    }
    dir.prepare();
    (dir, unit_ids, person_ids)
}

/// Entry templates an insertion subtree can be built from — a mix of legal
/// and violating shapes.
fn entry_template(kind: u8, n: usize) -> Entry {
    match kind % 5 {
        0 => Entry::builder()
            .classes(["researcher", "person", "top"])
            .attr("uid", format!("new{n}"))
            .attr("name", format!("new{n}"))
            .build(),
        1 => Entry::builder()
            .classes(["orgUnit", "orgGroup", "top"])
            .attr("ou", format!("new{n}"))
            .build(),
        // Missing required name → content violation.
        2 => Entry::builder().classes(["person", "top"]).attr("uid", format!("new{n}")).build(),
        // A second organization → organization ↛de organization risk.
        3 => Entry::builder()
            .classes(["organization", "orgGroup", "top"])
            .attr("o", format!("new{n}"))
            .build(),
        _ => Entry::builder()
            .classes(["staffMember", "person", "top"])
            .attr("uid", format!("new{n}"))
            .attr("name", format!("new{n}"))
            .build(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random subtree insertions — legal or not — judged identically by the
    /// Δ-checker and the full checker.
    #[test]
    fn insertion_delta_check_matches_full_check(
        units in 1usize..4,
        persons in 1usize..3,
        anchor in any::<prop::sample::Index>(),
        shape in proptest::collection::vec((any::<u8>(), any::<Option<u8>>()), 1..6),
    ) {
        let schema = full_schema();
        let (mut dir, unit_ids, person_ids) = base_instance(units, persons);
        prop_assume!(LegalityChecker::new(&schema).check(&dir).is_legal());

        // Anchor the subtree at a random existing entry (unit or person —
        // person anchors produce person ↛ch top violations).
        let all: Vec<EntryId> = unit_ids.iter().chain(&person_ids).copied().collect();
        let parent = all[anchor.index(all.len())];

        // Build the subtree: node 0 under `parent`, others under a random
        // earlier subtree node.
        let mut created: Vec<EntryId> = Vec::new();
        for (i, (kind, attach)) in shape.iter().enumerate() {
            let entry = entry_template(*kind, i);
            let under = match attach {
                Some(k) if !created.is_empty() => created[*k as usize % created.len()],
                _ => parent,
            };
            // To keep it one subtree, the first node always goes under
            // `parent`; later "None" attaches also go under node 0.
            let under = if created.is_empty() { parent } else if under == parent { created[0] } else { under };
            created.push(dir.add_child_entry(under, entry).unwrap());
        }
        dir.prepare();
        prop_assert_eq!(dir.check_prepared(), Ok(()));

        let delta_root = created[0];
        let incremental = IncrementalChecker::new(&schema).check_insertion(&dir, delta_root);
        let full = LegalityChecker::new(&schema).check(&dir);
        prop_assert_eq!(
            incremental.is_legal(),
            full.is_legal(),
            "Δ-insert verdict diverged.\nincremental: {}\nfull: {}",
            incremental,
            full
        );
    }

    /// Random subtree deletions judged identically.
    #[test]
    fn deletion_delta_check_matches_full_check(
        units in 1usize..4,
        persons in 1usize..4,
        victim in any::<prop::sample::Index>(),
    ) {
        let schema = full_schema();
        let (mut dir, unit_ids, person_ids) = base_instance(units, persons);
        prop_assume!(LegalityChecker::new(&schema).check(&dir).is_legal());

        // Delete either a person or a whole unit subtree.
        let all: Vec<EntryId> = unit_ids.iter().chain(&person_ids).copied().collect();
        let target = all[victim.index(all.len())];
        let removed: Vec<Entry> = dir
            .remove_subtree(target)
            .unwrap()
            .into_iter()
            .map(|(_, e)| e)
            .collect();
        dir.prepare();
        prop_assert_eq!(dir.check_prepared(), Ok(()));

        let incremental = IncrementalChecker::new(&schema).check_deletion(&dir, &removed);
        let full = LegalityChecker::new(&schema).check(&dir);
        prop_assert_eq!(
            incremental.is_legal(),
            full.is_legal(),
            "Δ-delete verdict diverged.\nincremental: {}\nfull: {}",
            incremental,
            full
        );
    }
}

/// Applies `tx` with the batched checker, asserting the verdict matches a
/// full recheck of the final instance. Returns (final instance, batched
/// report).
fn apply_batched(
    schema: &DirectorySchema,
    base: &DirectoryInstance,
    tx: &Transaction,
) -> (DirectoryInstance, LegalityReport) {
    let mut dir = base.clone();
    let applied = apply_and_check_probed(schema, &mut dir, tx, bschema_obs::noop())
        .expect("valid transaction");
    assert_eq!(dir.check_prepared(), Ok(()));
    let full = LegalityChecker::new(schema).check(&dir);
    assert_eq!(
        applied.report.is_legal(),
        full.is_legal(),
        "batched Δ verdict diverged from full recheck.\nbatched: {}\nfull: {}",
        applied.report,
        full
    );
    (dir, applied.report)
}

/// Figure 5, insertion column, row by row: one batched multi-subtree
/// transaction per structural-relationship form, each violating exactly
/// that row alongside an independent *legal* subtree (so the batch mixes
/// verdicts). The batched Δ-check must flag the row and agree with a full
/// recheck.
#[test]
fn figure5_insertion_rows_batched_match_full_recheck() {
    let schema = full_schema();
    let (dir, unit_ids, person_ids) = base_instance(3, 2);
    assert!(LegalityChecker::new(&schema).check(&dir).is_legal());

    let legal_person = |n: usize| entry_template(0, n);
    let unit = |n: usize| entry_template(1, n);

    // Required child (orgUnit →ch person): a new unit whose only person is
    // a grandchild — →de satisfied, →ch violated.
    let mut tx = Transaction::new();
    let outer = tx.insert_under(unit_ids[0], unit(0));
    let inner = tx.insert_under_new(outer, unit(1));
    tx.insert_under_new(inner, legal_person(2));
    tx.insert_under(unit_ids[1], legal_person(3)); // independent legal subtree
    let (_, report) = apply_batched(&schema, &dir, &tx);
    assert!(
        report.violations().iter().any(|v| matches!(
            v,
            Violation::RequiredRelViolation { kind: RelKind::Child, source, .. } if source == "orgUnit"
        )),
        "orgUnit →ch person row not flagged: {report}"
    );

    // Required descendant (orgGroup →de person): a new unit with no person
    // at all (also breaks →ch; the →de row must be among the findings).
    let mut tx = Transaction::new();
    tx.insert_under(unit_ids[0], unit(0));
    tx.insert_under(unit_ids[2], legal_person(1));
    let (_, report) = apply_batched(&schema, &dir, &tx);
    assert!(
        report.violations().iter().any(|v| matches!(
            v,
            Violation::RequiredRelViolation { kind: RelKind::Descendant, .. }
        )),
        "orgGroup →de person row not flagged: {report}"
    );

    // Required parent + ancestor (orgUnit →pa orgGroup, orgUnit →an
    // organization): a unit inserted as a forest root has neither.
    let mut tx = Transaction::new();
    let root_unit = tx.insert_root(unit(0));
    tx.insert_under_new(root_unit, legal_person(1));
    tx.insert_under(unit_ids[0], legal_person(2));
    let (_, report) = apply_batched(&schema, &dir, &tx);
    for kind in [RelKind::Parent, RelKind::Ancestor] {
        assert!(
            report.violations().iter().any(|v| matches!(
                v,
                Violation::RequiredRelViolation { kind: k, source, .. } if *k == kind && source == "orgUnit"
            )),
            "orgUnit {kind:?} row not flagged: {report}"
        );
    }

    // Forbidden child (person ↛ch top): any entry under a person.
    let mut tx = Transaction::new();
    tx.insert_under(person_ids[0], legal_person(0));
    tx.insert_under(unit_ids[0], legal_person(1));
    let (_, report) = apply_batched(&schema, &dir, &tx);
    assert!(
        report.violations().iter().any(|v| matches!(
            v,
            Violation::ForbiddenRelViolation { kind: ForbidKind::Child, upper, .. } if upper == "person"
        )),
        "person ↛ch top row not flagged: {report}"
    );

    // Forbidden descendant (organization ↛de organization): a second
    // organization nested below the first — not a direct child, so only
    // the descendant row fires.
    let mut tx = Transaction::new();
    let nested_org = tx.insert_under(
        unit_ids[0],
        Entry::builder().classes(["organization", "orgGroup", "top"]).attr("o", "nested").build(),
    );
    tx.insert_under_new(nested_org, legal_person(1));
    let (_, report) = apply_batched(&schema, &dir, &tx);
    assert!(
        report.violations().iter().any(|v| matches!(
            v,
            Violation::ForbiddenRelViolation { kind: ForbidKind::Descendant, upper, lower, .. }
                if upper == "organization" && lower == "organization"
        )),
        "organization ↛de organization row not flagged: {report}"
    );

    // A batch of only-legal subtrees under distinct units stays legal.
    let mut tx = Transaction::new();
    for (i, &u) in unit_ids.iter().enumerate() {
        let nu = tx.insert_under(u, unit(10 + i));
        tx.insert_under_new(nu, legal_person(20 + i));
    }
    let (_, report) = apply_batched(&schema, &dir, &tx);
    assert!(report.is_legal(), "all-legal batch must pass: {report}");
}

/// Figure 5, deletion column, row by row, batched: the "no" rows (required
/// child/descendant) and the count-based `◇c` row are re-checked after a
/// multi-root deletion and must match a full recheck.
#[test]
fn figure5_deletion_rows_batched_match_full_recheck() {
    let schema = full_schema();

    // Deleting one person from each of two units (each keeping a sibling
    // person) stays legal.
    let (dir, _, person_ids) = base_instance(2, 2);
    let mut tx = Transaction::new();
    tx.delete(person_ids[0]); // unit 0 keeps person_ids[1]
    tx.delete(person_ids[2]); // unit 1 keeps person_ids[3]
    let (_, report) = apply_batched(&schema, &dir, &tx);
    assert!(report.is_legal(), "sibling-preserving deletions are legal: {report}");

    // Deleting *both* persons of one unit breaks →ch and →de for it.
    let mut tx = Transaction::new();
    tx.delete(person_ids[0]);
    tx.delete(person_ids[1]);
    let (_, report) = apply_batched(&schema, &dir, &tx);
    for kind in [RelKind::Child, RelKind::Descendant] {
        assert!(
            report.violations().iter().any(|v| matches!(
                v,
                Violation::RequiredRelViolation { kind: k, .. } if *k == kind
            )),
            "required {kind:?} deletion row not flagged: {report}"
        );
    }

    // Deleting every person breaks ◇person via the count-based test.
    let mut tx = Transaction::new();
    for &p in &person_ids {
        tx.delete(p);
    }
    let (_, report) = apply_batched(&schema, &dir, &tx);
    assert!(
        report
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::MissingRequiredClass { class } if class == "person")),
        "◇person deletion row not flagged: {report}"
    );

    // Mixed batch: an insertion repairing one unit while another unit's
    // persons are deleted — verdicts must still track the full recheck.
    let (dir2, _, persons2) = base_instance(2, 1);
    let mut tx = Transaction::new();
    tx.delete(persons2[0]); // unit 0 loses its only person...
    let (_, report) = apply_batched(&schema, &dir2, &tx);
    assert!(!report.is_legal());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random batched multi-subtree transactions: under both engines the
    /// batched Δ-check report is identical and its verdict equals a full
    /// recheck of the final instance.
    #[test]
    fn batched_transactions_match_full_recheck(
        units in 2usize..5,
        persons in 1usize..3,
        subtrees in proptest::collection::vec(
            (any::<prop::sample::Index>(), proptest::collection::vec(any::<u8>(), 1..4)),
            1..4
        ),
        deletions in proptest::collection::vec(any::<prop::sample::Index>(), 0..3),
    ) {
        let schema = full_schema();
        let (dir, unit_ids, person_ids) = base_instance(units, persons);
        prop_assume!(LegalityChecker::new(&schema).check(&dir).is_legal());

        // Multi-subtree insertion: each subtree is a chain of template
        // entries anchored at a random unit or person.
        let all: Vec<EntryId> = unit_ids.iter().chain(&person_ids).copied().collect();
        let mut tx = Transaction::new();
        let mut n = 0;
        for (anchor, kinds) in &subtrees {
            let parent = all[anchor.index(all.len())];
            let mut prev = None;
            for kind in kinds {
                n += 1;
                let entry = entry_template(*kind, n);
                prev = Some(match prev {
                    None => tx.insert_under(parent, entry),
                    Some(op) => tx.insert_under_new(op, entry),
                });
            }
        }
        // Random leaf-person deletions (skipping insertion anchors, which
        // normalisation rejects as insert-under-deleted).
        let mut doomed: Vec<EntryId> = Vec::new();
        for victim in &deletions {
            let p = person_ids[victim.index(person_ids.len())];
            if !doomed.contains(&p) {
                doomed.push(p);
            }
        }
        for &p in &doomed {
            tx.delete(p);
        }

        let mut after = dir.clone();
        let applied = apply_and_check_probed(&schema, &mut after, &tx, bschema_obs::noop());
        // Anchoring an insertion under a deleted person is a TxError;
        // discard those draws.
        prop_assume!(applied.is_ok());
        let applied = applied.unwrap();

        prop_assert_eq!(after.check_prepared(), Ok(()));
        let full = LegalityChecker::new(&schema).check(&after);
        prop_assert_eq!(
            applied.report.is_legal(),
            full.is_legal(),
            "batched Δ verdict diverged from full recheck.\nbatched: {}\nfull: {}",
            applied.report,
            full
        );
    }
}

/// A bulk load: one TXN inserting 2 × `GRAIN` entries under an existing
/// unit — the smallest ∆D for which the derived fan-out starts a second
/// worker, on a host that has one — and one TXN deleting them again. Each
/// is judged report-`==` by the batched path and by the paper-literal
/// per-step `apply_and_check`, and the content findings are those of
/// Definition 2.7 applied entry by entry.
#[test]
fn bulk_transaction_fans_out_and_matches_the_per_step_oracle() {
    let schema = full_schema();
    let (base, unit_ids, _) = base_instance(3, 2);
    let bulk = 2 * bschema_parallel::GRAIN;
    let workers = bschema_parallel::workers_for(bulk) as u64;

    // A new unit holding `bulk - 1` persons; one in each half of ∆D lacks
    // its required name, so every worker has something to report.
    let mut tx = Transaction::new();
    let unit = tx.insert_under(unit_ids[0], entry_template(1, 0));
    for n in 1..bulk {
        let flawed = n == bulk / 4 || n == 3 * bulk / 4;
        tx.insert_under_new(unit, entry_template(if flawed { 2 } else { 0 }, n));
    }

    let (mut batched, mut stepped) = (base.clone(), base.clone());
    let recorder = bschema_obs::Recorder::new();
    let inserted = apply_and_check_probed(&schema, &mut batched, &tx, &recorder).expect("valid");
    let oracle = apply_and_check(&schema, &mut stepped, &tx).expect("valid");
    assert_eq!(inserted.report, oracle.report);
    assert_eq!(batched.check_prepared(), Ok(()));
    let root = inserted.inserted_roots[0];
    let mut as_printed = Vec::new();
    for id in std::iter::once(root).chain(batched.forest().descendants(root)) {
        content::check_entry(&schema, id, batched.entry(id).expect("live"), &mut as_printed);
    }
    assert_eq!(as_printed.len(), 2);
    assert_eq!(&inserted.report.violations()[..2], &as_printed[..]);
    assert_eq!(
        inserted.report.is_legal(),
        LegalityChecker::new(&schema).check(&batched).is_legal()
    );

    // Two fan-out sites (content wave, Δ-query wave), `workers` chunks at
    // each, every chunk timed.
    let m = recorder.metrics();
    assert_eq!(m.counter("parallel.chunks"), 2 * workers);
    assert_eq!(m.histogram("parallel.chunk_us").expect("chunk timings").count(), 2 * workers);
    assert_eq!(m.counter("legality.entries_content_checked"), bulk as u64);
    if bschema_parallel::available_threads() > 1 {
        assert!(workers > 1, "a 2 × GRAIN ∆D must fan out on a multi-core host");
    }

    // Deleting the subtree again, entry by entry as LDAP has it (the
    // normaliser finds the one root): scoped (batched) against Figure 5.
    let mut tx = Transaction::new();
    for id in std::iter::once(root).chain(stepped.forest().descendants(root)) {
        tx.delete(id);
    }
    let deleted =
        apply_and_check_probed(&schema, &mut batched, &tx, bschema_obs::noop()).expect("valid");
    let oracle = apply_and_check(&schema, &mut stepped, &tx).expect("valid");
    assert_eq!(deleted.report, oracle.report);
    assert_eq!(deleted.removed.len(), bulk);
    assert!(deleted.report.is_legal(), "{}", deleted.report);
    assert_eq!(batched.canonical_bytes(), base.canonical_bytes());
}

/// The Figure 5 deletion column: every row marked "nothing to check" truly
/// cannot be violated by deletion — exhaustively over small instances.
#[test]
fn deletion_safe_rows_never_break() {
    let schema = full_schema();
    let checker = LegalityChecker::new(&schema);
    let (dir, unit_ids, person_ids) = base_instance(2, 2);
    assert!(checker.check(&dir).is_legal());

    for &target in unit_ids.iter().chain(&person_ids) {
        let mut copy = dir.clone();
        copy.remove_subtree(target).unwrap();
        copy.prepare();
        copy.check_prepared().expect("maintained across the deletion");
        let report = checker.check(&copy);
        for v in report.violations() {
            use bschema_core::legality::Violation;
            match v {
                // Only the Figure 5 "no" rows and ◇c may appear.
                Violation::RequiredRelViolation { kind, .. } => {
                    assert!(
                        matches!(kind, RelKind::Child | RelKind::Descendant),
                        "deletion violated a Figure 5 'safe' row: {v}"
                    );
                }
                Violation::MissingRequiredClass { .. } => {}
                other => panic!("deletion produced unexpected violation kind: {other}"),
            }
        }
    }
}

// ----- Figure 5′: scoped checks against their oracles -----

fn group(classes: [&str; 3], attr: &str, name: String) -> Entry {
    Entry::builder().classes(classes).attr(attr, name).build()
}

/// The schema a generated instance is legal under: `full_schema()` when
/// it is `dense` — every unit has a person child, so a deletion starves
/// the parent it happens under — and the paper's own when persons are
/// sparse, where one deletion can starve every ancestor up the chain.
fn schema_for(dense: bool) -> DirectorySchema {
    if dense {
        full_schema()
    } else {
        white_pages_schema_builder().build()
    }
}

/// A legal instance under `schema_for(dense)` of any depth: `orgs`
/// organization roots, then one unit per element of `attach`, hung under
/// the organization or earlier unit it picks. Dense: every group has a
/// person child, a flagged unit two. Sparse: only flagged units and
/// groups with no unit below them have one. Returns the groups
/// (organizations first) and the persons.
fn deep_instance(
    orgs: usize,
    attach: &[(u8, bool)],
    dense: bool,
) -> (DirectoryInstance, Vec<EntryId>, Vec<EntryId>) {
    let mut dir = DirectoryInstance::white_pages();
    let (mut groups, mut persons) = (Vec::new(), Vec::new());
    for o in 0..orgs {
        let org = group(["organization", "orgGroup", "top"], "o", format!("o{o}"));
        groups.push(dir.add_root_entry(org));
    }
    for (u, &(under, _)) in attach.iter().enumerate() {
        let parent = groups[under as usize % groups.len()];
        let unit = group(["orgUnit", "orgGroup", "top"], "ou", format!("u{u}"));
        groups.push(dir.add_child_entry(parent, unit).unwrap());
    }
    for (g, &group) in groups.iter().enumerate() {
        let flagged = g >= orgs && attach[g - orgs].1;
        let count = match dense {
            true => 1 + usize::from(flagged),
            false => usize::from(flagged || dir.forest().is_leaf(group)),
        };
        for _ in 0..count {
            let person = entry_template(0, persons.len());
            persons.push(dir.add_child_entry(group, person).unwrap());
        }
    }
    dir.prepare();
    (dir, groups, persons)
}

/// Deletes the subtrees of `victims` from a copy of `base` and holds the
/// scoped check against the Figure 5 recheck, report for report. Returns
/// the report.
fn delete_both_ways(
    schema: &DirectorySchema,
    base: &DirectoryInstance,
    victims: &[EntryId],
) -> LegalityReport {
    let forest = base.forest();
    let doomed: BTreeSet<EntryId> =
        victims.iter().flat_map(|&v| std::iter::once(v).chain(forest.descendants(v))).collect();
    let mut dir = base.clone();
    let (mut removed, mut former_parents) = (Vec::new(), Vec::new());
    for &root in doomed.iter().filter(|&&d| forest.parent(d).is_none_or(|p| !doomed.contains(&p))) {
        former_parents.push(forest.parent(root));
        removed.extend(dir.remove_subtree(root).unwrap().into_iter().map(|(_, e)| e));
    }
    assert_eq!(removed.len(), doomed.len());
    dir.prepare();
    let figure5 = IncrementalChecker::new(schema).check_deletion(&dir, &removed);
    let scoped =
        IncrementalChecker::new(schema).check_deletion_scoped(&dir, &removed, &former_parents);
    assert_eq!(scoped, figure5, "deleting {victims:?}");
    assert_eq!(figure5.is_legal(), LegalityChecker::new(schema).check(&dir).is_legal());
    figure5
}

/// A subtree to insert: where it hangs (`None`: a new forest root) and its
/// shape, one `(template, under)` per node.
type Subtree = (Option<usize>, Vec<(u8, u8)>);

/// Inserts one subtree per `(anchor, shape)` into a copy of `base` — under
/// `anchors[anchor]`, or as a new forest root when `anchor` is `None`; a
/// shape's node `k` hangs under an earlier node of the same subtree, or
/// under the subtree's root — and holds the scoped check against the
/// Figure 5 Δ-queries, report for report. Returns the report.
fn insert_both_ways(
    schema: &DirectorySchema,
    base: &DirectoryInstance,
    anchors: &[EntryId],
    subtrees: &[Subtree],
) -> LegalityReport {
    let mut dir = base.clone();
    let mut roots = Vec::new();
    let mut n = 0;
    for (anchor, shape) in subtrees {
        let mut created: Vec<EntryId> = Vec::new();
        for &(kind, under) in shape {
            n += 1;
            let entry = entry_template(kind, n);
            let id = match (created.is_empty(), anchor) {
                (true, Some(a)) => dir.add_child_entry(anchors[a % anchors.len()], entry),
                (true, None) => Ok(dir.add_root_entry(entry)),
                (false, _) => dir.add_child_entry(created[under as usize % created.len()], entry),
            };
            created.push(id.unwrap());
        }
        roots.push(created[0]);
    }
    dir.prepare();
    let figure5 = IncrementalChecker::new(schema).check_insertions(&dir, &roots);
    let scoped = IncrementalChecker::new(schema).check_insertions_scoped(&dir, &roots);
    assert_eq!(scoped, figure5, "inserting {subtrees:?}");
    assert_eq!(figure5.is_legal(), LegalityChecker::new(schema).check(&dir).is_legal());
    figure5
}

/// The class sets a class-flip swaps in: every source, target, upper and
/// lower class of `full_schema()` is joined by one and left by another.
const FLIPS: [&[&str]; 5] = [
    &["orgGroup", "top"],
    &["organization", "orgGroup", "top"],
    &["orgUnit", "orgGroup", "top"],
    &["researcher", "person", "top"],
    &["top"],
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any deletion — one root or several, sharing ancestors or not, a
    /// leaf, a whole branch or a forest root — draws the same report
    /// from the scoped check as from the whole-instance recheck.
    #[test]
    fn scoped_deletion_report_equals_figure5_report(
        dense in any::<bool>(),
        orgs in 1usize..3,
        attach in proptest::collection::vec((any::<u8>(), any::<bool>()), 1..9),
        victims in proptest::collection::vec(any::<prop::sample::Index>(), 1..5),
    ) {
        let schema = schema_for(dense);
        let (dir, groups, persons) = deep_instance(orgs, &attach, dense);
        prop_assert!(LegalityChecker::new(&schema).check(&dir).is_legal());
        let all: Vec<EntryId> = groups.iter().chain(&persons).copied().collect();
        let victims: Vec<EntryId> = victims.iter().map(|v| all[v.index(all.len())]).collect();
        delete_both_ways(&schema, &dir, &victims);
    }

    /// Any insertion — one subtree or several, under any entry or as a new
    /// forest root, of any shape — draws the same report, violation for
    /// violation and in the same order, from the scoped check as from the
    /// Figure 5 Δ-queries, on dense and on sparse (paper-schema)
    /// instances.
    #[test]
    fn scoped_insertion_report_equals_figure5_report(
        dense in any::<bool>(),
        orgs in 1usize..3,
        attach in proptest::collection::vec((any::<u8>(), any::<bool>()), 1..9),
        subtrees in proptest::collection::vec(
            (any::<u8>(), any::<usize>(), proptest::collection::vec((any::<u8>(), any::<u8>()), 1..6)),
            1..4,
        ),
    ) {
        let schema = schema_for(dense);
        let (dir, groups, persons) = deep_instance(orgs, &attach, dense);
        let all: Vec<EntryId> = groups.iter().chain(&persons).copied().collect();
        // One subtree in eight is a new forest root.
        let subtrees: Vec<_> = subtrees
            .into_iter()
            .map(|(root, anchor, shape)| ((root % 8 != 0).then_some(anchor), shape))
            .collect();
        insert_both_ways(&schema, &dir, &all, &subtrees);
    }

    /// A move of any subtree anywhere draws from the scoped check what
    /// the §3 checker finds in the whole instance.
    #[test]
    fn scoped_move_report_equals_full_report(
        dense in any::<bool>(),
        orgs in 1usize..3,
        attach in proptest::collection::vec((any::<u8>(), any::<bool>()), 1..9),
        moved in any::<prop::sample::Index>(),
        to in any::<Option<prop::sample::Index>>(),
    ) {
        let schema = schema_for(dense);
        let (mut dir, groups, persons) = deep_instance(orgs, &attach, dense);
        let all: Vec<EntryId> = groups.iter().chain(&persons).copied().collect();
        let moved = all[moved.index(all.len())];
        let former_parent = dir.forest().parent(moved);
        let done = match to {
            Some(to) => dir.move_subtree(moved, all[to.index(all.len())]),
            None => dir.move_subtree_to_root(moved),
        };
        // A destination inside the moved subtree is no move at all.
        prop_assume!(done.is_ok());
        dir.prepare();
        let full = LegalityChecker::new(&schema).check(&dir).normalized();
        let scoped = IncrementalChecker::new(&schema).check_move(&dir, moved, former_parent);
        prop_assert_eq!(&scoped, &full, "moving {} from under {:?}", moved, former_parent);
    }

    /// Swapping any entry's class set for another draws from the scoped
    /// check what the §3 checker finds in the whole instance.
    #[test]
    fn scoped_class_flip_report_equals_full_report(
        dense in any::<bool>(),
        orgs in 1usize..3,
        attach in proptest::collection::vec((any::<u8>(), any::<bool>()), 1..9),
        flipped in any::<prop::sample::Index>(),
        into in 0usize..FLIPS.len(),
    ) {
        let schema = schema_for(dense);
        let (mut dir, groups, persons) = deep_instance(orgs, &attach, dense);
        let all: Vec<EntryId> = groups.iter().chain(&persons).copied().collect();
        let flipped = all[flipped.index(all.len())];
        let values = FLIPS[into].iter().map(|c| (*c).to_owned()).collect();
        let changed =
            apply_mods(&mut dir, flipped, &[Mod::Replace { attribute: "objectClass".into(), values }])
                .expect("live entry");
        dir.prepare();
        prop_assert_eq!(dir.check_prepared(), Ok(()));
        let scoped = check_modification(&schema, &dir, flipped, &changed, bschema_obs::noop());
        let full = LegalityChecker::new(&schema).check(&dir).normalized();
        prop_assert_eq!(scoped, full, "{} into {:?}", flipped, FLIPS[into]);
    }
}

/// The last witness, at every depth. A chain o → u1 → … → u5, dense — one
/// person under each: deleting the person at depth d starves u_d of its
/// child; deleting every person from depth d down starves u_d … u5 of
/// child and descendant alike; deleting everybody's person starves the
/// whole chain and empties `person`; deleting the branch below depth d or
/// the forest root itself starves nobody. The same chain, sparse — one
/// person, at depth d: deleting it starves every group above it. Each
/// report is the Figure 5 report.
#[test]
fn deleting_the_last_witness_at_every_depth_matches_figure5() {
    const DEPTH: usize = 5;
    let chain = |flagged: usize| -> Vec<(u8, bool)> {
        (0..DEPTH).map(|d| (d as u8, d + 1 == flagged)).collect()
    };
    let starved = |report: &LegalityReport, kind: RelKind| -> Vec<EntryId> {
        report
            .violations()
            .iter()
            .filter_map(|v| match v {
                Violation::RequiredRelViolation { entry, kind: k, .. } if *k == kind => {
                    Some(*entry)
                }
                _ => None,
            })
            .collect()
    };

    let schema = schema_for(true);
    let (dir, groups, persons) = deep_instance(1, &chain(0), true);
    assert_eq!(dir.forest().depth(groups[DEPTH]), DEPTH);
    for d in 1..=DEPTH {
        // The person of u_d alone: its last child, not its last descendant
        // — except at the bottom of the chain.
        let report = delete_both_ways(&schema, &dir, &[persons[d]]);
        assert_eq!(starved(&report, RelKind::Child), [groups[d]]);
        assert_eq!(starved(&report, RelKind::Descendant), &groups[d..][..usize::from(d == DEPTH)]);

        // Every person from depth d down, as so many roots sharing the
        // chain above them.
        let report = delete_both_ways(&schema, &dir, &persons[d..]);
        assert_eq!(starved(&report, RelKind::Child), &groups[d..]);
        assert_eq!(starved(&report, RelKind::Descendant), &groups[d..]);

        // The whole branch from depth d down takes its obligations along
        // (and from depth 1, the last orgUnit).
        assert_eq!(delete_both_ways(&schema, &dir, &[groups[d]]).is_legal(), d > 1);
    }
    let report = delete_both_ways(&schema, &dir, &persons);
    assert_eq!(starved(&report, RelKind::Descendant), groups);
    let nobody = Violation::MissingRequiredClass { class: "person".into() };
    assert!(report.violations().contains(&nobody), "{report}");
    // The forest root: nobody above it, `◇c` by the counts.
    let report = delete_both_ways(&schema, &dir, &[groups[0]]);
    assert_eq!(report.len(), 3, "{report}");

    let schema = schema_for(false);
    for d in 1..=DEPTH {
        // One person under u_d and one that keeps the bottom of the chain
        // legal (one and the same at the bottom): without the lower one,
        // the chain starves up to where the upper one still serves.
        let (dir, groups, persons) = deep_instance(1, &chain(d), false);
        let lower = *persons.last().expect("the leaf unit has a person");
        let report = delete_both_ways(&schema, &dir, &[lower]);
        let expected = if d == DEPTH { &groups[..] } else { &groups[d + 1..] };
        assert_eq!(starved(&report, RelKind::Descendant), expected, "depth {d}");
        let report = delete_both_ways(&schema, &dir, &persons);
        assert_eq!(starved(&report, RelKind::Descendant), groups, "depth {d}");
    }
}

/// Figure 5′'s insertion column along a 22-deep chain — as deep as any
/// workload's directories go — dense and sparse: every template, alone
/// and under a new unit, inserted at every depth; each report is the
/// Figure 5 report.
#[test]
fn inserting_at_every_depth_of_a_22_deep_chain_matches_figure5() {
    const DEPTH: usize = 22;
    for dense in [true, false] {
        let schema = schema_for(dense);
        let chain: Vec<(u8, bool)> = (0..DEPTH).map(|d| (d as u8, d + 1 == DEPTH)).collect();
        let (dir, groups, persons) = deep_instance(1, &chain, dense);
        assert_eq!(dir.forest().depth(groups[DEPTH]), DEPTH);
        assert!(LegalityChecker::new(&schema).check(&dir).is_legal());
        let mut illegal = 0;
        for anchor in groups.iter().chain(&persons) {
            for kind in 0..5 {
                let alone = vec![(Some(0), vec![(kind, 0)])];
                let under_unit = vec![(Some(0), vec![(1, 0), (kind, 0), (0, 0)])];
                for subtrees in [alone, under_unit] {
                    let report = insert_both_ways(&schema, &dir, &[*anchor], &subtrees);
                    illegal += usize::from(!report.is_legal());
                }
            }
        }
        assert!(illegal > 0, "the chain saw violations of every kind it can");
    }
}

/// Theorem 4.2, counted rather than timed: the same 3-entry insert,
/// refused TXN, MODIFY and delete copy the same number of index chunks
/// (`managed.index_chunks_unshared`) at |D| ≈ 2k as at |D| ≈ 20k — up to
/// one split per list touched — and post the same entries. Each engine
/// first commits one write, as a served directory has: the first write
/// to a freshly built list splits it once.
#[test]
fn a_write_copies_as_many_index_chunks_at_20k_as_at_2k() {
    let counts = |orgs: usize| -> Vec<(u64, u64)> {
        let base = bschema_workload::multi_org_base(orgs, 250, 0xC0C0);
        let mut engine =
            ManagedDirectory::with_instance(white_pages_schema(), base).expect("legal base");
        let org = engine.instance().forest().roots().next().expect("orgs");
        let person = |uid: &str| {
            Entry::builder()
                .classes(["person", "top"])
                .attr("uid", uid)
                .attr("name", format!("{uid} tester"))
                .build()
        };
        let unit = |ou: &str| {
            Entry::builder().classes(["orgUnit", "orgGroup", "top"]).attr("ou", ou).build()
        };
        let insert = |tag: &str| {
            let mut tx = Transaction::new();
            let new = tx.insert_under(org, unit(tag));
            tx.insert_under_new(new, person(&format!("{tag}a")));
            tx.insert_under_new(new, person(&format!("{tag}b")));
            tx
        };
        engine.apply(&insert("warm")).expect("legal");
        let warm = engine.instance().forest().children(org).last().expect("the warm unit");
        let warm = engine.instance().forest().children(warm).next().expect("a person");
        let mods = [Mod::Add { attribute: "telephoneNumber".into(), value: "+1 555".into() }];
        engine.modify_entry(warm, &mods).expect("legal");
        let mut out = Vec::new();
        let mut measure = |engine: &mut ManagedDirectory, op: Op<'_>, legal: bool| {
            let recorder = bschema_obs::Recorder::new();
            assert_eq!(engine.apply_op(op, &recorder).is_ok(), legal);
            let m = recorder.metrics();
            assert_eq!(m.counter("managed.index_rebuilt"), 0);
            out.push((m.counter(names::INDEX_CHUNKS_UNSHARED), m.counter("managed.index_posted")));
        };
        measure(&mut engine, Op::Tx { tx: &insert("unit"), global: None }, true);
        let target = engine.instance().forest().children(org).last().expect("the new unit");
        let target = engine.instance().forest().children(target).next().expect("a person");
        let mut refused = Transaction::new();
        refused.insert_under(target, person("intruder"));
        measure(&mut engine, Op::Tx { tx: &refused, global: None }, false);
        measure(&mut engine, Op::Modify { target, mods: &mods }, true);
        let mut delete = Transaction::new();
        delete.delete(target);
        measure(&mut engine, Op::Tx { tx: &delete, global: None }, true);
        out
    };
    let (small, large) = (counts(8), counts(80));
    // The insert joins `all`, three class lists and four presence lists
    // per entry type; at most that many of them can split on one side.
    const LISTS: u64 = 8;
    for ((a, posted_a), (b, posted_b)) in small.iter().zip(&large) {
        assert_eq!(posted_a, posted_b, "{small:?} vs {large:?}");
        assert!(a.abs_diff(*b) <= LISTS, "{small:?} vs {large:?}");
        assert!(*a <= 2 * LISTS && *b <= 2 * LISTS, "{small:?} vs {large:?}");
    }
    // A MODIFY adding a value re-posts one presence list, not every list
    // its entry is in.
    assert_eq!((small[2], large[2]), ((1, 1), (1, 1)));
    // A delete-only TXN reports the chunks its un-posts copy.
    assert!(small[3].0 > 0 && large[3].0 > 0, "{small:?} vs {large:?}");
}

/// Verdict before copy, counted: at |D| ≈ 2k and ≈ 20k a refused TXN —
/// a refused insert, a refused delete, an insert whose name is taken, a
/// legal insert beside an illegal one — copies no instance
/// (`managed.instance_cloned`), un-shares no index chunk and prepares
/// nothing (no `instance.prepare` span): it is decided on the published
/// instance. An accepted TXN copies the instance once.
#[test]
fn a_refused_txn_copies_nothing_and_an_accepted_one_copies_once() {
    fn spans(nodes: &[bschema_obs::SpanNode], out: &mut Vec<&'static str>) {
        for node in nodes {
            out.push(node.name);
            spans(&node.children, out);
        }
    }
    for orgs in [8, 80] {
        let base = bschema_workload::multi_org_base(orgs, 250, 0xC0C0);
        let mut engine =
            ManagedDirectory::with_instance(white_pages_schema(), base).expect("legal base");
        let forest = engine.instance().forest();
        let org = forest.roots().next().expect("orgs");
        let unit = forest.children(org).next().expect("a unit");
        let person = forest
            .descendants(org)
            .find(|&e| engine.instance().entry(e).is_some_and(|e| e.has_class("person")))
            .expect("a person");
        let rdn = engine.instance().rdn(unit).expect("named").clone();
        let researcher = |uid: &str| {
            Entry::builder()
                .classes(["researcher", "person", "top"])
                .attr("uid", uid)
                .attr("name", uid)
                .build()
        };
        let mut under_person = Transaction::new();
        under_person.insert_under(person, researcher("intruder"));
        let mut every_org = Transaction::new();
        for root in forest.roots() {
            for id in forest.postorder_of(root) {
                every_org.delete(id);
            }
        }
        let mut taken = Transaction::new();
        taken.insert_under_named(org, rdn, researcher("twin"));
        let mut half = Transaction::new();
        half.insert_under(unit, researcher("fine"));
        half.insert_under(person, researcher("stowaway"));
        let mut legal = Transaction::new();
        legal.insert_under(unit, researcher("welcome"));
        let cases = [(&under_person, false), (&every_org, false), (&taken, false), (&half, false)];
        for (i, (tx, accepted)) in cases.into_iter().chain([(&legal, true)]).enumerate() {
            let recorder = bschema_obs::Recorder::new();
            let outcome = engine.apply_op(Op::Tx { tx, global: None }, &recorder);
            assert_eq!(outcome.is_ok(), accepted, "{orgs} orgs, case {i}: {outcome:?}");
            let m = recorder.metrics();
            let mut seen = Vec::new();
            spans(&recorder.tracer().tree(), &mut seen);
            assert!(seen.contains(&"managed.apply"), "{orgs} orgs, case {i}: {seen:?}");
            assert_eq!(
                m.counter(names::INSTANCE_CLONED),
                u64::from(accepted),
                "{orgs} orgs, case {i}"
            );
            assert_eq!(seen.contains(&"instance.prepare"), accepted, "{orgs} orgs, case {i}");
            if !accepted {
                assert_eq!(m.counter(names::INDEX_CHUNKS_UNSHARED), 0, "{orgs} orgs, case {i}");
            }
        }
    }
}
