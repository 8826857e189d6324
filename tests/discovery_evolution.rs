//! Integration: schema discovery and schema evolution against generated
//! directories — the §6.2 lifecycle (observe → prescribe → evolve).

use bschema_core::consistency::ConsistencyChecker;
use bschema_core::discover::{suggest_schema, DiscoveryOptions};
use bschema_core::evolution::plan::parse_proposal;
use bschema_core::legality::LegalityChecker;
use bschema_core::managed::ManagedDirectory;
use bschema_workload::{OrgGenerator, OrgParams};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Discovery soundness across random org shapes: the mined schema is
    /// consistent and accepts the instance it was mined from.
    #[test]
    fn discovery_is_sound_on_random_orgs(seed in 0u64..2000, size in 30usize..200) {
        let org = OrgGenerator::new(OrgParams { seed, target_entries: size, ..OrgParams::default() })
            .generate();
        for options in [
            DiscoveryOptions::default(),
            DiscoveryOptions { forbidden: true, ..Default::default() },
        ] {
            let suggested = suggest_schema(&org.dir, &options);
            prop_assert!(
                ConsistencyChecker::new(&suggested).check().is_consistent(),
                "mined schema must be consistent (a witness exists: the source)"
            );
            let report = LegalityChecker::new(&suggested).check(&org.dir);
            prop_assert!(report.is_legal(), "seed {}: {}", seed, report);
        }
    }

    /// Relaxing evolution chains never invalidate a legal instance.
    #[test]
    fn relaxing_chains_preserve_legality(seed in 0u64..2000, steps in 1usize..6) {
        let org = OrgGenerator::new(OrgParams { seed, target_entries: 60, ..OrgParams::default() })
            .generate();
        let mut schema = bschema_core::paper::white_pages_schema();
        prop_assume!(LegalityChecker::new(&schema).check(&org.dir).is_legal());
        for i in 0..steps {
            let step = match i % 3 {
                0 => format!("allow-attr person custom{i}"),
                1 => format!("add-aux aux{i}"),
                _ => format!("add-class core{i} person"),
            };
            let plan = parse_proposal(&schema, &step)
                .unwrap_or_else(|e| panic!("relaxing step refused: {e}"));
            prop_assert!(plan.is_relaxing_only(), "{}", step);
            prop_assert!(plan.recheck(&org.dir).is_legal());
            schema = plan.target;
            prop_assert!(
                LegalityChecker::new(&schema).check(&org.dir).is_legal(),
                "relaxing step {} broke legality", step
            );
        }
    }
}

/// Observe → prescribe → operate: a discovered schema drives a managed
/// directory that keeps accepting conforming growth.
#[test]
fn discovered_schema_manages_future_growth() {
    let org = OrgGenerator::new(OrgParams { seed: 7, target_entries: 120, ..OrgParams::default() })
        .generate();
    // Without forbidden mining the suggestion generalises better.
    let suggested = suggest_schema(&org.dir, &DiscoveryOptions::default());
    let mut managed = ManagedDirectory::with_instance(suggested, org.dir.clone())
        .expect("mined schema accepts its source");

    // Conforming growth: a researcher in an existing unit, matching the
    // generator's own shape (uid+name, person chain).
    let unit = org.units[0];
    managed
        .insert_under(
            unit,
            bschema_directory::Entry::builder()
                .classes(["researcher", "person", "top"])
                .attr("uid", "fresh1")
                .attr("name", "fresh one")
                .build(),
        )
        .expect("conforming entries are accepted");
    assert!(managed.is_legal());

    // A person with a child stays forbidden — the generator's data never
    // exhibits person-with-children, so discovery mined the prohibition.
    let person = org.persons[0];
    let err = managed.insert_under(
        person,
        bschema_directory::Entry::builder()
            .classes(["orgunit", "orggroup", "top"])
            .attr("ou", "under-person")
            .build(),
    );
    assert!(err.is_err(), "deviant structure must be rejected");
}

/// A restricting tighten the instance cannot meet is refused, and the
/// recheck report names the offending entries by DN — the payload an
/// operator sees from `SCHEMA CHECK` / `SCHEMA COMMIT`.
#[test]
fn rejected_tighten_names_offending_entries() {
    let org = OrgGenerator::new(OrgParams { seed: 11, target_entries: 80, ..OrgParams::default() })
        .generate();
    let schema = bschema_core::paper::white_pages_schema();
    assert!(LegalityChecker::new(&schema).check(&org.dir).is_legal());

    // `title` is allowed but the generator never sets it, so requiring
    // it violates on every person.
    let plan = parse_proposal(&schema, "require-attr person title").expect("valid proposal");
    assert!(!plan.is_relaxing_only(), "require-attr tightens the bounds");
    let report = plan.recheck(&org.dir);
    assert!(!report.is_legal(), "no generated person carries a title");

    let mut named = 0usize;
    for violation in report.violations() {
        let Some(id) = violation.entry() else { continue };
        let dn = org.dir.dn(id).expect("the report names live entries");
        let entry = org.dir.entry(id).expect("the report names live entries");
        assert!(entry.has_class("person"), "only persons can violate, got dn {dn}");
        assert!(!entry.has_attribute("title"));
        named += 1;
    }
    assert!(named > 0, "a rejected tighten must name its offenders");
}

/// The operator loop for an unsatisfiable tighten: widen first (allow
/// the attribute — relaxing, instant), migrate the data, and only then
/// tighten. Each stage rechecks exactly as the live cutover would.
#[test]
fn widen_then_migrate_then_tighten() {
    let org = OrgGenerator::new(OrgParams { seed: 3, target_entries: 60, ..OrgParams::default() })
        .generate();
    let schema = bschema_core::paper::white_pages_schema();
    let mut dir = org.dir.clone();

    // Tightening straight to `require-attr person mail` is refused at
    // recheck time: no entry carries the attribute yet.
    let direct = parse_proposal(&schema, "require-attr person mail").expect("tighten parses");
    assert!(
        !direct.recheck(&dir).is_legal(),
        "no person has mail yet — the direct tighten must be refused"
    );

    // Widen: allow the attribute. Relaxing — no recheck needed, and the
    // old instance stays legal under the widened schema.
    let widen = parse_proposal(&schema, "allow-attr person mail").expect("widen parses");
    assert!(widen.is_relaxing_only(), "allow-attr is relaxing (Definition 2.7)");
    let widened = widen.target.clone();
    assert!(LegalityChecker::new(&widened).check(&dir).is_legal());

    // Migrate: backfill the attribute on every person.
    let persons: Vec<_> =
        dir.iter().filter(|(_, e)| e.has_class("person")).map(|(id, _)| id).collect();
    for id in persons {
        let uid = dir.entry(id).unwrap().first_value("uid").unwrap_or("someone").to_owned();
        dir.entry_mut(id).unwrap().add_value("mail", format!("{uid}@example.org"));
    }
    dir.prepare();

    // Tighten: the same step now parses and its targeted recheck passes.
    let tighten = parse_proposal(&widened, "require-attr person mail").expect("tighten parses");
    assert!(!tighten.is_relaxing_only());
    let report = tighten.recheck(&dir);
    assert!(report.is_legal(), "after migration the tighten must pass: {report}");
    assert!(LegalityChecker::new(&tighten.target).check(&dir).is_legal());
}

/// On an empty directory every restricting step is trivially safe: the
/// recheck has nothing to violate, so any consistent tighten commits.
#[test]
fn restricting_evolution_on_an_empty_directory_is_trivially_safe() {
    let mut empty = bschema_directory::DirectoryInstance::white_pages();
    empty.prepare();
    let schema = bschema_core::paper::white_pages_schema();

    let plan = parse_proposal(&schema, "require-attr person title").expect("valid proposal");
    assert!(!plan.is_relaxing_only());
    assert!(plan.recheck(&empty).is_legal(), "no entries, nothing to violate");
    assert!(ConsistencyChecker::new(&plan.target).check().is_consistent());
}
