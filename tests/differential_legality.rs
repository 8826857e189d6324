//! Differential test oracle for the legality engine.
//!
//! Independent routes to a report must agree on every randomized input:
//!
//! * [`LegalityChecker::check`] — the one engine, required to be
//!   *byte-identical* (same violations, same order) with and without a
//!   recording probe, and
//! * the **naive** traversal baseline (`legality/naive.rs`, Definition
//!   2.7's content check entry by entry, no cache) — required to agree up
//!   to ordering ([`LegalityReport::normalized`]).
//!
//! Inputs come from the `bschema-workload` generators with fixed RNG
//! seeds, so every case is reproducible: organisation-shaped directories
//! (legal and with injected violations), randomly generated schemas
//! (checked both against their consistency witnesses and against
//! mismatched org directories), and random update transactions whose
//! batched Δ-checks are compared with the paper-literal per-step check
//! and against full rechecks. Together the suite runs well over 256
//! cases.
//!
//! Verdict before copy: every certify of a legal directory decides a
//! transaction on (D, ∆D) and copies the instance only to apply a legal
//! one. Over generated transactions it must refuse exactly as the
//! clone-and-check oracle (`apply_and_check_probed` on a copy) does —
//! same code, same wording, the same entry ids in the same order — and
//! commit exactly what the oracle's copy holds.
//!
//! Legal but for `◇c`: a directory that starts empty, or is recovered onto
//! a base missing a required class, decides every write the same way —
//! and must refuse exactly what the full §3 check of the applied copy
//! finds, commit exactly that copy, and call itself legal exactly when
//! that check does.

use std::collections::{BTreeMap, BTreeSet};

use bschema_core::consistency::build_witness;
use bschema_core::legality::{LegalityChecker, LegalityReport, Violation};
use bschema_core::managed::{ManagedDirectory, ManagedError};
use bschema_core::paper::{white_pages_schema, white_pages_schema_builder};
use bschema_core::schema::{DirectorySchema, ForbidKind, RelKind};
use bschema_core::updates::{
    apply_and_check, apply_and_check_probed, apply_mods, Mod, Transaction, TxError,
};
use bschema_core::{checkpoint::recover_with_checkpoint, Journal, Op};
use bschema_directory::{AttributeRegistry, DirectoryInstance, Entry, EntryId, Rdn};
use bschema_obs::names;
use bschema_workload::{
    OrgGenerator, OrgParams, SchemaGenerator, SchemaParams, TxGenerator, TxParams,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Asserts every route produces the same report for (schema, dir) — with
/// and without an instrumentation probe attached. Returns the agreed
/// verdict.
fn engines_agree(schema: &DirectorySchema, dir: &DirectoryInstance, label: &str) -> bool {
    let derived = LegalityChecker::new(schema).check(dir);
    // Attaching a recording probe must not perturb the report.
    let recorder = bschema_obs::Recorder::new();
    let probed = LegalityChecker::new(schema).with_probe(&recorder).check(dir);
    assert_eq!(derived, probed, "{label}: instrumented report differs from no-op-probe report");
    let naive = LegalityChecker::new(schema).check_naive(dir).normalized();
    let normalized = derived.clone().normalized();
    assert_eq!(
        normalized, naive,
        "{label}: naive baseline disagrees.\nfast: {normalized}\nnaive: {naive}"
    );
    derived.is_legal()
}

/// 168 cases: org directories across sizes, seeds, and injected-violation
/// counts. Covers the legal fast path and mixed content + structure
/// violation reports.
#[test]
fn org_directories_all_engines_agree() {
    let schema = white_pages_schema();
    let mut legal_cases = 0;
    let mut illegal_cases = 0;
    for case in 0..168u64 {
        let size = 40 + (case as usize % 7) * 60;
        let violations = match case % 4 {
            0 => 0,
            1 => 1,
            2 => 4,
            _ => 9,
        };
        let params = OrgParams {
            target_entries: size,
            violations,
            seed: 1000 + case,
            ..OrgParams::default()
        };
        let org = OrgGenerator::new(params).generate();
        let legal = engines_agree(&schema, &org.dir, &format!("org case {case}"));
        if legal {
            legal_cases += 1;
        } else {
            illegal_cases += 1;
        }
        // Injected violations must actually be detected (oracle sanity:
        // agreeing on "everything is legal" would be vacuous).
        if violations > 0 {
            assert!(!legal, "case {case}: {violations} injected violations went undetected");
        }
    }
    assert!(legal_cases >= 40, "suite must exercise the legal path (got {legal_cases})");
    assert!(illegal_cases >= 40, "suite must exercise violation reporting (got {illegal_cases})");
}

/// 60 cases: randomly generated schemas checked against their own
/// consistency witnesses (legal) and against a mismatched org directory
/// (dense unknown-class / structure violations).
#[test]
fn generated_schemas_all_engines_agree() {
    let org =
        OrgGenerator::new(OrgParams { target_entries: 120, seed: 77, ..OrgParams::default() })
            .generate();
    let mut cases = 0;
    for seed in 0..30u64 {
        let mut generator = SchemaGenerator::new(SchemaParams { seed, ..SchemaParams::default() });
        let schema = if seed % 2 == 0 { generator.consistent() } else { generator.unconstrained() };

        // Against the schema's own witness, when one exists.
        if let Ok(witness) = build_witness(&schema) {
            engines_agree(&schema, &witness, &format!("schema {seed} vs witness"));
            cases += 1;
        }

        // Against the (mismatched) org directory: every entry violates the
        // generated content schema somehow; all engines must report the
        // same flood of violations.
        engines_agree(&schema, &org.dir, &format!("schema {seed} vs org"));
        cases += 1;
    }
    assert!(cases >= 45, "expected ≥45 generated-schema cases, ran {cases}");
}

/// Builds one transaction inserting `k` independent orgUnit subtrees under
/// distinct existing units — the multi-subtree shape the batched Δ-check
/// fans out over.
fn multi_subtree_insertion(
    gen: &mut TxGenerator,
    org: &bschema_workload::org::GeneratedOrg,
    k: usize,
) -> Transaction {
    let mut tx = Transaction::new();
    for _ in 0..k {
        // Merge each generated single-subtree tx into ours by replaying its
        // ops with shifted op indices. (TxGenerator only produces
        // insert_under + insert_under_new chains.)
        let single = gen.legal_insertion(org);
        merge_insertion(&mut tx, &single);
    }
    tx
}

/// Replays the insertion ops of `src` into `dst` (op indices shift).
fn merge_insertion(dst: &mut Transaction, src: &Transaction) {
    use bschema_core::updates::{NodeRef, TxOp};
    let offset = dst.len();
    for op in src.ops() {
        match op {
            TxOp::Insert { parent: Some(NodeRef::Existing(id)), rdn, entry } => {
                match rdn {
                    Some(r) => dst.insert_under_named(*id, r.clone(), entry.clone()),
                    None => dst.insert_under(*id, entry.clone()),
                };
            }
            TxOp::Insert { parent: Some(NodeRef::New(op_idx)), rdn, entry } => {
                match rdn {
                    Some(r) => {
                        dst.insert_under_new_named(op_idx + offset, r.clone(), entry.clone())
                    }
                    None => dst.insert_under_new(op_idx + offset, entry.clone()),
                };
            }
            TxOp::Insert { parent: None, rdn, entry } => {
                match rdn {
                    Some(r) => dst.insert_root_named(r.clone(), entry.clone()),
                    None => dst.insert_root(entry.clone()),
                };
            }
            TxOp::Delete { target } => dst.delete(*target),
        }
    }
}

/// 64 cases: random transactions (single- and multi-subtree insertions,
/// deletions, violating insertions) applied with the paper-literal
/// per-step checker and with the batched checker the write path runs —
/// bare and under a recording probe. The probe must not perturb the
/// batched report, all verdicts must agree with a full recheck of the
/// resulting instance, and legal workloads must keep the running
/// directory legal.
#[test]
fn transactions_all_engines_agree() {
    let schema = white_pages_schema();
    let full = LegalityChecker::new(&schema);
    let mut org =
        OrgGenerator::new(OrgParams { target_entries: 260, seed: 5, ..OrgParams::default() })
            .generate();
    let mut gen = TxGenerator::new(TxParams { seed: 31, ..TxParams::default() });

    let mut cases = 0;
    for round in 0..64u32 {
        let (tx, violating) = match round % 4 {
            0 => (gen.legal_insertion(&org), false),
            1 => (multi_subtree_insertion(&mut gen, &org, 2 + (round as usize % 3)), false),
            2 => match gen.legal_deletion(&org, &org.dir) {
                Some(tx) => (tx, false),
                None => continue,
            },
            _ => match gen.violating_insertion(&org, &org.dir) {
                Some(tx) => (tx, true),
                None => continue,
            },
        };

        // Apply to three clones, one per route.
        let mut d_steps = org.dir.clone();
        let mut d_batch = org.dir.clone();
        let mut d_probed = org.dir.clone();
        let a_steps = apply_and_check(&schema, &mut d_steps, &tx).expect("valid tx");
        let a_batch = apply_and_check_probed(&schema, &mut d_batch, &tx, bschema_obs::noop())
            .expect("valid tx");
        let recorder = bschema_obs::Recorder::new();
        let a_probed =
            apply_and_check_probed(&schema, &mut d_probed, &tx, &recorder).expect("valid tx");

        // The probe changes nothing, and every insertion is checked in
        // one wave.
        assert_eq!(a_batch.report, a_probed.report, "round {round}: probe perturbed the report");
        assert_eq!(a_batch.inserted_roots, a_probed.inserted_roots, "round {round}");
        assert_eq!(a_batch.removed.len(), a_probed.removed.len(), "round {round}");
        assert_eq!(a_steps.inserted_roots, a_batch.inserted_roots, "round {round}");
        let tree = recorder.tracer().tree();
        let waves = tree.iter().filter(|root| root.name == "incremental.check_insertions").count();
        assert_eq!(
            waves,
            usize::from(!a_batch.inserted_roots.is_empty()),
            "round {round}: insertion waves"
        );

        // Every route's verdict equals a from-scratch recheck.
        let ground_truth = full.check(&d_batch).is_legal();
        assert_eq!(a_batch.report.is_legal(), ground_truth, "round {round}: batched verdict");
        assert_eq!(
            a_steps.report.is_legal(),
            ground_truth,
            "round {round}: per-step verdict (single-root txs match the final instance)"
        );
        assert_eq!(violating, !ground_truth, "round {round}: generator contract");

        // All three clones hold the same final instance.
        assert_eq!(d_steps.len(), d_probed.len(), "round {round}");
        engines_agree(&schema, &d_probed, &format!("tx round {round} post-state"));

        // Keep the running directory legal by committing only legal txs.
        if !violating {
            org.dir = d_batch;
        }
        cases += 1;
    }
    assert!(cases >= 56, "expected ≥56 transaction cases, ran {cases}");
}

/// Every Figure 5 row live — the paper's schema plus `orgUnit →ch person`
/// and `organization ↛de organization` — with two keys: `uid`, which the
/// index posts by value, and `telephoneNumber`, which it does not.
fn keyed_schema() -> DirectorySchema {
    white_pages_schema_builder()
        .require_rel("orgUnit", RelKind::Child, "person")
        .and_then(|b| b.forbid_rel("organization", ForbidKind::Descendant, "organization"))
        .map(|b| b.unique_attrs(["uid", "telephoneNumber"]).build())
        .expect("well-formed")
}

fn person(uid: &str, named: bool, phone: Option<String>) -> Entry {
    let mut entry = Entry::builder().classes(["researcher", "person", "top"]).attr("uid", uid);
    if named {
        entry = entry.attr("name", format!("{uid} tester"));
    }
    if let Some(phone) = phone {
        entry = entry.attr("telephoneNumber", phone);
    }
    entry.build()
}

fn unit(ou: &str) -> Entry {
    Entry::builder().classes(["orgUnit", "orgGroup", "top"]).attr("ou", ou).build()
}

fn organization(o: &str) -> Entry {
    Entry::builder().classes(["organization", "orgGroup", "top"]).attr("o", o).build()
}

/// A legal base under [`keyed_schema`]: two organizations of two to four
/// units, some nested, each unit with one to three persons; then some of
/// the later persons deleted again, so the free stack holds slots the
/// next insertions reuse.
fn keyed_base(rng: &mut StdRng) -> DirectoryInstance {
    let mut dir = DirectoryInstance::white_pages();
    let (mut n, mut spare) = (0, Vec::new());
    for o in 0..2 {
        let name = format!("org{o}");
        let org = dir.add_named_root(Rdn::single("o", &name), organization(&name)).expect("fresh");
        let mut units = Vec::new();
        for _ in 0..rng.random_range(2..5) {
            n += 1;
            let parent = match units.len() {
                0 => org,
                k if rng.random_bool(0.5) => units[rng.random_range(0..k)],
                _ => org,
            };
            let ou = format!("u{n}");
            let id = dir.add_named_child(parent, Rdn::single("ou", &ou), unit(&ou)).expect("fresh");
            units.push(id);
            for p in 0..rng.random_range(1..4) {
                n += 1;
                let uid = format!("p{n}");
                let phone = rng.random_bool(0.3).then(|| format!("+1 555 {n}"));
                let rdn = Rdn::single("uid", &uid);
                let id =
                    dir.add_named_child(units[units.len() - 1], rdn, person(&uid, true, phone));
                if p > 0 && rng.random_bool(0.4) {
                    spare.push(id.expect("fresh"));
                }
            }
        }
    }
    dir.prepare();
    for id in spare {
        dir.remove_subtree(id).expect("a leaf");
    }
    dir.prepare();
    dir
}

/// What a generated transaction is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Shape {
    InsertOnly,
    DeleteOnly,
    Mixed,
    Empty,
}

/// Random transactions against the live state of a keyed directory:
/// subtree insertions of persons, units and organizations anywhere
/// (under an entry the same transaction deletes now and then), with
/// names and keys that are fresh, taken in D, or taken earlier in the
/// transaction; deletions of random subtrees, now and then of every
/// organization at once; and insertions re-using a deleted sibling's
/// name. Every other transaction is `tame` — persons and units with fresh
/// names and keys under units, a person deleted beside another — so that
/// about as many commit as are refused.
struct TxMaker {
    rng: StdRng,
    n: usize,
    tame: bool,
}

impl TxMaker {
    fn fresh(&mut self, prefix: &str) -> String {
        self.n += 1;
        format!("{prefix}x{}", self.n)
    }

    /// A value of `attr` some live entry of `dir` holds, if any.
    fn taken(&mut self, dir: &DirectoryInstance, attr: &str) -> Option<String> {
        let holders: Vec<&str> = dir.iter().filter_map(|(_, e)| e.first_value(attr)).collect();
        (!holders.is_empty()).then(|| holders[self.rng.random_range(0..holders.len())].to_owned())
    }

    /// A uid or phone number: fresh, one `dir` holds, or one this
    /// transaction used before.
    fn key(&mut self, dir: &DirectoryInstance, attr: &str, used: &mut Vec<String>) -> String {
        let roll = if self.tame { 9 } else { self.rng.random_range(0..10) };
        let value = match roll {
            0..=1 => self.taken(dir, attr),
            2 if !used.is_empty() => Some(used[self.rng.random_range(0..used.len())].clone()),
            _ => None,
        };
        let value =
            value.unwrap_or_else(|| self.fresh(if attr == "uid" { "w" } else { "+1 556 " }));
        used.push(value.clone());
        value
    }

    fn person(
        &mut self,
        dir: &DirectoryInstance,
        uids: &mut Vec<String>,
        phones: &mut Vec<String>,
    ) -> (Option<Rdn>, Entry) {
        let uid = self.key(dir, "uid", uids);
        let phone = self.rng.random_bool(0.3).then(|| self.key(dir, "telephoneNumber", phones));
        let named = self.tame || self.rng.random_bool(0.9);
        let rdn = (self.tame || self.rng.random_bool(0.9)).then(|| Rdn::single("uid", &uid));
        (rdn, person(&uid, named, phone))
    }

    fn generate(&mut self, dir: &DirectoryInstance) -> (Transaction, Shape, bool) {
        let forest = dir.forest();
        let live: Vec<EntryId> = forest.iter().collect();
        let of = |class: &str| -> Vec<EntryId> {
            live.iter()
                .copied()
                .filter(|&id| dir.entry(id).is_some_and(|e| e.has_class(class)))
                .collect()
        };
        let (units, persons) = (of("orgUnit"), of("person"));
        self.tame = self.rng.random_bool(0.5);
        let shape = match self.rng.random_range(0..20) {
            0..=6 => Shape::InsertOnly,
            7..=11 => Shape::DeleteOnly,
            12..=18 => Shape::Mixed,
            _ => Shape::Empty,
        };
        let mut tx = Transaction::new();
        let mut deleted: BTreeSet<EntryId> = BTreeSet::new();
        let mut doomed_roots = Vec::new();
        if matches!(shape, Shape::DeleteOnly | Shape::Mixed) && !live.is_empty() {
            // A person beside another person keeps every row served.
            let spare: Vec<EntryId> = persons
                .iter()
                .copied()
                .filter(|&p| {
                    forest.parent(p).is_some_and(|u| {
                        forest.children(u).filter(|c| persons.contains(c)).count() > 1
                    })
                })
                .collect();
            let roots: Vec<EntryId> = if self.tame {
                spare
                    .get(self.rng.random_range(0..spare.len().max(1)))
                    .copied()
                    .into_iter()
                    .collect()
            } else if self.rng.random_bool(0.15) {
                forest.roots().collect()
            } else {
                (0..self.rng.random_range(1..4))
                    .map(|_| live[self.rng.random_range(0..live.len())])
                    .collect()
            };
            for root in roots {
                if deleted.insert(root) {
                    deleted.extend(forest.descendants(root));
                }
            }
            doomed_roots = deleted
                .iter()
                .copied()
                .filter(|&d| forest.parent(d).is_none_or(|p| !deleted.contains(&p)))
                .collect();
            for &d in &deleted {
                tx.delete(d);
            }
        }
        let mut renamed_a_doomed_sibling = false;
        if matches!(shape, Shape::InsertOnly | Shape::Mixed) {
            let (mut uids, mut phones) = (Vec::new(), Vec::new());
            for _ in 0..self.rng.random_range(1..4) {
                let survivors: Vec<EntryId> =
                    live.iter().copied().filter(|id| !deleted.contains(id)).collect();
                // A doomed entry's name, re-used beside it: the apply
                // inserts before it deletes, so the names collide.
                if !self.tame && !doomed_roots.is_empty() && self.rng.random_bool(0.25) {
                    let d = doomed_roots[self.rng.random_range(0..doomed_roots.len())];
                    if let Some(rdn) = dir.rdn(d).cloned() {
                        let mut entry = dir.entry(d).expect("live").clone();
                        entry.remove_attribute("telephoneNumber");
                        match forest.parent(d) {
                            Some(p) => tx.insert_under_named(p, rdn, entry),
                            None => tx.insert_root_named(rdn, entry),
                        };
                        renamed_a_doomed_sibling = true;
                        continue;
                    }
                }
                let homes: Vec<EntryId> =
                    units.iter().copied().filter(|id| !deleted.contains(id)).collect();
                let parent = match self.rng.random_range(0..20) {
                    _ if self.tame && !homes.is_empty() => {
                        Some(homes[self.rng.random_range(0..homes.len())])
                    }
                    0 if !deleted.is_empty() => deleted.iter().next().copied(),
                    1..=2 => None,
                    _ if !survivors.is_empty() => {
                        Some(survivors[self.rng.random_range(0..survivors.len())])
                    }
                    _ => None,
                };
                match self.rng.random_range(0..if self.tame { 8 } else { 10 }) {
                    0..=4 => {
                        let (rdn, entry) = self.person(dir, &mut uids, &mut phones);
                        self.insert(&mut tx, parent, rdn, entry);
                    }
                    5..=7 => {
                        // A unit — fresh, or named after a child of its
                        // parent — with up to three persons below it,
                        // two of them sometimes alike.
                        let existing: Vec<String> = parent
                            .into_iter()
                            .flat_map(|p| forest.children(p))
                            .filter_map(|c| {
                                dir.entry(c).and_then(|e| e.first_value("ou")).map(str::to_owned)
                            })
                            .collect();
                        let ou = match self.tame || existing.is_empty() || self.rng.random_bool(0.8)
                        {
                            true => self.fresh("u"),
                            false => existing[self.rng.random_range(0..existing.len())].clone(),
                        };
                        let top =
                            self.insert(&mut tx, parent, Some(Rdn::single("ou", &ou)), unit(&ou));
                        let mut kids: Vec<String> = Vec::new();
                        for _ in 0..self.rng.random_range(usize::from(self.tame)..4) {
                            let (rdn, entry) = match kids.last() {
                                Some(twin) if !self.tame && self.rng.random_bool(0.15) => {
                                    (Some(Rdn::single("uid", twin)), person(twin, true, None))
                                }
                                _ => self.person(dir, &mut uids, &mut phones),
                            };
                            if let Some(uid) = entry.first_value("uid") {
                                kids.push(uid.to_owned());
                            }
                            match rdn {
                                Some(rdn) => tx.insert_under_new_named(top, rdn, entry),
                                None => tx.insert_under_new(top, entry),
                            };
                        }
                    }
                    _ => {
                        // A whole organization: legal as a new root,
                        // refused below another organization.
                        let o = self.fresh("o");
                        let top = self.insert(
                            &mut tx,
                            parent,
                            Some(Rdn::single("o", &o)),
                            organization(&o),
                        );
                        let ou = self.fresh("u");
                        let mid = tx.insert_under_new_named(top, Rdn::single("ou", &ou), unit(&ou));
                        let (rdn, entry) = self.person(dir, &mut uids, &mut phones);
                        match rdn {
                            Some(rdn) => tx.insert_under_new_named(mid, rdn, entry),
                            None => tx.insert_under_new(mid, entry),
                        };
                    }
                }
            }
        }
        (tx, shape, renamed_a_doomed_sibling)
    }

    fn insert(
        &mut self,
        tx: &mut Transaction,
        parent: Option<EntryId>,
        rdn: Option<Rdn>,
        entry: Entry,
    ) -> usize {
        match (parent, rdn) {
            (Some(p), Some(rdn)) => tx.insert_under_named(p, rdn, entry),
            (Some(p), None) => tx.insert_under(p, entry),
            (None, Some(rdn)) => tx.insert_root_named(rdn, entry),
            (None, None) => tx.insert_root(entry),
        }
    }
}

/// What the oracle says of `tx` on a copy of `managed`'s instance — the
/// refusal the engine must give, or the instance it must commit.
fn oracle(managed: &ManagedDirectory, tx: &Transaction) -> Result<DirectoryInstance, ManagedError> {
    let mut copy = managed.instance().clone();
    match apply_and_check_probed(managed.schema(), &mut copy, tx, bschema_obs::noop()) {
        Err(e) => Err(ManagedError::Transaction(e)),
        Ok(applied) if !applied.report.is_legal() => Err(ManagedError::RolledBack(applied.report)),
        Ok(_) => Ok(copy),
    }
}

/// The rows, columns and conflicts a refusal exercised.
fn refused_for(refusal: &ManagedError, before: &DirectoryInstance) -> Vec<String> {
    match refusal {
        ManagedError::Transaction(TxError::DuplicateRdn { .. }) => vec!["duplicate-rdn".to_owned()],
        ManagedError::Transaction(_) => vec!["invalid-tx".to_owned()],
        ManagedError::RolledBack(report) => report
            .violations()
            .iter()
            .map(|v| match v {
                Violation::RequiredRelViolation { kind, .. } => format!("require {kind:?}"),
                Violation::ForbiddenRelViolation { kind, .. } => format!("forbid {kind:?}"),
                Violation::DuplicateKey { first, .. } if before.contains(*first) => {
                    "key new-vs-old".to_owned()
                }
                Violation::DuplicateKey { .. } => "key new-vs-new".to_owned(),
                other => other.kind_name().to_owned(),
            })
            .collect(),
        other => panic!("no generated transaction is refused this way: {other}"),
    }
}

/// The verdict-first certify against the clone-and-check oracle, over
/// 8 seeds × 60 generated transactions on a keyed directory whose free
/// stack is never empty for long: every refusal byte-identical (code and
/// wording, entry ids included), every commit the oracle's instance, a
/// refusal copying nothing and a commit copying the instance once.
#[test]
fn verdict_before_copy_refuses_and_commits_as_the_applied_copy_does() {
    let schema = keyed_schema();
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    let mut shapes: BTreeMap<(Shape, bool), usize> = BTreeMap::new();
    let mut count = |key: String| *seen.entry(key).or_default() += 1;
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0x5EED ^ seed);
        let base = keyed_base(&mut rng);
        let mut managed =
            ManagedDirectory::with_instance(schema.clone(), base).expect("legal base");
        let mut maker = TxMaker { rng, n: 0, tame: false };
        for round in 0..60 {
            let label = format!("seed {seed} round {round}");
            let (tx, shape, renamed) = maker.generate(managed.instance());
            let before = managed.shared_instance();
            let free: BTreeSet<EntryId> = before
                .forest()
                .free_slots()
                .iter()
                .map(|&s| EntryId::from_index(s as usize))
                .collect();
            let want = oracle(&managed, &tx);
            let recorder = bschema_obs::Recorder::new();
            let mut engine = managed.clone();
            let got = engine.apply_op(Op::Tx { tx: &tx, global: None }, &recorder).map(drop);
            let cloned = recorder.metrics().counter(names::INSTANCE_CLONED);
            shapes.entry((shape, got.is_ok())).and_modify(|n| *n += 1).or_insert(1);
            match (want, got) {
                (Ok(copy), Ok(())) => {
                    assert_eq!(cloned, 1, "{label}: a commit copies the instance once");
                    assert_eq!(
                        engine.instance().canonical_bytes(),
                        copy.canonical_bytes(),
                        "{label}"
                    );
                    engine.instance().check_prepared().expect("the successor is maintained");
                    if free.iter().any(|&slot| engine.instance().contains(slot)) {
                        count("commit into reused slots".to_owned());
                    }
                    managed = engine;
                }
                (Err(want), Err(got)) => {
                    assert_eq!(
                        (got.code(), got.to_string()),
                        (want.code(), want.to_string()),
                        "{label}: the verdict differs from the applied copy's\n{tx:?}"
                    );
                    assert_eq!(cloned, 0, "{label}: a refusal copied the instance");
                    assert_eq!(
                        recorder.metrics().counter(names::INDEX_CHUNKS_UNSHARED),
                        0,
                        "{label}"
                    );
                    assert_eq!(engine.instance().canonical_bytes(), before.canonical_bytes());
                    let names = refused_for(&got, &before);
                    if renamed && names.iter().any(|n| n == "duplicate-rdn") {
                        count("duplicate-rdn of a doomed sibling".to_owned());
                    }
                    if let ManagedError::RolledBack(report) = &got {
                        if report
                            .violations()
                            .iter()
                            .any(|v| v.entry().is_some_and(|e| free.contains(&e)))
                        {
                            count("refusal naming a reused slot".to_owned());
                        }
                    }
                    for name in names {
                        count(name);
                    }
                }
                (want, got) => panic!("{label}: oracle {want:?}, engine {got:?}\n{tx:?}"),
            }
        }
    }
    for shape in [Shape::InsertOnly, Shape::DeleteOnly, Shape::Mixed] {
        for committed in [true, false] {
            assert!(
                shapes.get(&(shape, committed)).is_some_and(|&n| n >= 5),
                "{shape:?} committed={committed}: {shapes:?}"
            );
        }
    }
    for row in [
        "require Child",
        "require Parent",
        "require Descendant",
        "require Ancestor",
        "forbid Child",
        "forbid Descendant",
        "missing-required-class",
        "key new-vs-old",
        "key new-vs-new",
        "duplicate-rdn",
        "duplicate-rdn of a doomed sibling",
        "missing-required-attribute",
        "refusal naming a reused slot",
        "commit into reused slots",
    ] {
        assert!(seen.get(row).is_some_and(|&n| n > 0), "never exercised: {row}\n{seen:?}");
    }
}

/// One write of the `◇c` differential.
enum Write {
    Tx(Transaction),
    Modify(EntryId, Vec<Mod>),
}

/// A MODIFY of a random live entry: a class change into or out of
/// `staffMember` (the class a recovered base lacks), into `orgUnit`, a
/// dropped required attribute, or a harmless added value.
fn generated_modify(rng: &mut StdRng, dir: &DirectoryInstance) -> Option<Write> {
    let live: Vec<EntryId> = dir.forest().iter().collect();
    let target = *live.get(rng.random_range(0..live.len().max(1)))?;
    let classes = |names: [&str; 3]| Mod::Replace {
        attribute: "objectClass".into(),
        values: names.map(str::to_owned).to_vec(),
    };
    let m = match rng.random_range(0..5) {
        0 | 1 => classes(["staffMember", "person", "top"]),
        2 => classes(["researcher", "person", "top"]),
        3 if rng.random_bool(0.5) => classes(["orgUnit", "orgGroup", "top"]),
        3 => Mod::DeleteAttribute { attribute: "name".into() },
        _ => Mod::Add { attribute: "description".into(), value: "seen".into() },
    };
    Some(Write::Modify(target, vec![m]))
}

/// A report as the entries it names: every violation but the key clashes,
/// normalised, and per clashing `(attribute, value)` the entries holding
/// it. The two checks name a clash differently: the incremental one from
/// each new entry against every earlier holder, the full one from each
/// later entry in document order against the first.
type Named = (LegalityReport, BTreeMap<(String, String), BTreeSet<EntryId>>);

fn named(report: LegalityReport) -> Named {
    let (mut others, mut clashes) = (Vec::new(), BTreeMap::new());
    for v in report {
        match v {
            Violation::DuplicateKey { entry, attribute, value, first } => {
                let holders: &mut BTreeSet<EntryId> =
                    clashes.entry((attribute, value)).or_default();
                holders.extend([entry, first]);
            }
            other => others.push(other),
        }
    }
    (LegalityReport::from_violations(others).normalized(), clashes)
}

/// What the full §3 check says of `write` applied to a copy of `dir`:
/// the copy, or the apply's refusal, and the violations. Keys (§6.1) are
/// read off the instance the insertions make, before the deletions: a
/// TXN is decided in Theorem 4.1's order, so re-inserting a value the
/// same TXN deletes clashes — as it does in the clone-and-check oracle.
fn full_check(
    full: &LegalityChecker<'_>,
    dir: &DirectoryInstance,
    write: &Write,
) -> Result<(DirectoryInstance, Named), TxError> {
    let is_key = |v: &Violation| matches!(v, Violation::DuplicateKey { .. });
    let mut copy = dir.clone();
    let mut inserted = None;
    match write {
        Write::Tx(tx) => {
            let normalized = tx.normalize(&copy)?;
            let mut keyed = copy.clone();
            for subtree in &normalized.insertions {
                subtree.apply(&mut keyed)?;
            }
            keyed.prepare();
            inserted = Some(keyed);
            normalized.apply(&mut copy)?;
        }
        Write::Modify(target, mods) => {
            apply_mods(&mut copy, *target, mods).expect("a live target");
        }
    }
    copy.prepare();
    let mut found: Vec<Violation> = full.check(&copy).into_iter().filter(|v| !is_key(v)).collect();
    found.extend(full.check(inserted.as_ref().unwrap_or(&copy)).into_iter().filter(is_key));
    Ok((copy, named(LegalityReport::from_violations(found))))
}

/// Runs `rounds` generated writes on `managed`, holding every verdict to
/// the full §3 check of the applied copy ([`full_check`]): a refusal's
/// report names what that check names ([`named`]); a commit is that
/// copy, byte for byte; `is_legal()` is that check's verdict on the live
/// instance after every step. Returns how many writes committed and how
/// many refusals named a `◇c`.
fn full_check_differential(
    mut managed: ManagedDirectory,
    rng: StdRng,
    modifies: bool,
    rounds: usize,
    label: &str,
) -> (usize, usize) {
    let schema = managed.schema().clone();
    let full = LegalityChecker::new(&schema);
    let mut maker = TxMaker { rng, n: 0, tame: false };
    let (mut committed, mut unmet) = (0, 0);
    for round in 0..rounds {
        let label = format!("{label} round {round}");
        let write = match modifies && maker.rng.random_bool(0.4) {
            true => generated_modify(&mut maker.rng, managed.instance()),
            false => None,
        };
        let write = write.unwrap_or_else(|| Write::Tx(maker.generate(managed.instance()).0));
        let want = full_check(&full, managed.instance(), &write);
        let got = match &write {
            Write::Tx(tx) => managed.apply(tx),
            Write::Modify(target, mods) => managed.modify_entry(*target, mods),
        };
        match (want, got) {
            (Err(want), Err(ManagedError::Transaction(got))) => {
                assert_eq!(got.to_string(), want.to_string(), "{label}");
            }
            (Ok((copy, (report, clashes))), Ok(())) if report.is_legal() && clashes.is_empty() => {
                assert_eq!(managed.instance().canonical_bytes(), copy.canonical_bytes(), "{label}");
                committed += 1;
            }
            (Ok((_, want)), Err(ManagedError::RolledBack(got))) => {
                let missing = |v: &Violation| matches!(v, Violation::MissingRequiredClass { .. });
                unmet += usize::from(got.violations().iter().any(missing));
                assert_eq!(named(got), want, "{label}");
            }
            (want, got) => panic!("{label}: full check {want:?}, engine {got:?}"),
        }
        assert_eq!(managed.is_legal(), full.check(managed.instance()).is_legal(), "{label}");
    }
    (committed, unmet)
}

/// A directory that starts empty under `◇organization`, `◇orgUnit` and
/// `◇person` refuses every generated TXN that leaves one of them unmet,
/// the way the full check of the applied copy does, and commits the
/// first that populates them all — then goes on as any legal directory.
#[test]
fn an_empty_directory_decides_a_bootstrap_as_the_full_check_does() {
    let (mut commits, mut unmet) = (0, 0);
    for seed in 0..6u64 {
        let rng = StdRng::seed_from_u64(0xB007 ^ seed);
        let registry = AttributeRegistry::white_pages();
        let managed = ManagedDirectory::new(keyed_schema(), registry).expect("consistent");
        assert!(!managed.is_legal());
        let (c, u) = full_check_differential(managed, rng, false, 60, &format!("seed {seed}"));
        (commits, unmet) = (commits + c, unmet + u);
    }
    assert!(commits > 0, "no generated TXN bootstrapped an empty directory");
    assert!(unmet > 0, "no refusal named a required class");
}

/// A base missing `◇staffMember`, recovered with an empty journal, takes
/// generated TXNs and MODIFYs: each is decided as the full check of the
/// applied copy decides it, until a MODIFY makes a staff member and the
/// directory is legal.
#[test]
fn a_recovered_base_missing_a_class_decides_writes_as_the_full_check_does() {
    let schema = keyed_schema().to_builder().require_class("staffMember").expect("a class").build();
    let (mut commits, mut unmet) = (0, 0);
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0x5AFF ^ seed);
        let base = keyed_base(&mut rng);
        let recovered = recover_with_checkpoint(schema.clone(), base, None, &Journal::parse(""))
            .expect("a base missing only a required class recovers");
        assert!(!recovered.managed.is_legal());
        let label = format!("seed {seed}");
        let (c, u) = full_check_differential(recovered.managed, rng, true, 60, &label);
        (commits, unmet) = (commits + c, unmet + u);
    }
    assert!(commits > 0, "nothing committed on a base missing a class");
    assert!(unmet > 0, "no refusal named a required class");
}
