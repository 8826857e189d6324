//! Chaos campaign for the sharded 2-phase write path.
//!
//! A deterministic multi-organization LDIF workload is replayed through
//! a [`ShardedDirectory`] instrumented with a [`FaultPlan`]:
//!
//! 1. an observer pass records the census of probe events — including
//!    the 2-phase sites `sharded.prepare.shard<k>`, `sharded.prepared`
//!    (the gap between prepare and commit), `sharded.commit.shard<k>`,
//!    and `sharded.rollback`;
//! 2. one run per event injects a one-shot panic at exactly that event
//!    and asserts the failed transaction left every shard byte-identical
//!    to its pre-transaction state (all-shards rollback), while a
//!    fault-free mirror engine tracks what committed;
//! 3. after each run, recovery
//!    ([`ShardedDirectory::recover_with_checkpoints`], no checkpoints)
//!    is driven from the per-shard journals — in-memory sinks stand in
//!    for the files — and must converge to the live engine's state, in
//!    particular for commits torn between peers.
//!
//! `injected == census` is asserted: every event really took its panic.
//! `CHAOS_SEED` reseeds the workload; `SHARDED_CHAOS_PREFIX` narrows the
//! site-matrix test to one 2-phase site family per CI job.

use std::sync::Arc;

use bschema_core::engine::MemoryJournal;
use bschema_core::journal::Journal;
use bschema_core::paper::white_pages_schema;
use bschema_core::sharded::{partition, ShardedDirectory};
use bschema_directory::ldif::parse_ldif;
use bschema_directory::DirectoryInstance;
use bschema_faults::{silence_injected_panics, FaultPlan};
use bschema_workload::{GeneratedTx, LdifWorkload, LdifWorkloadParams};

const SHARDS: usize = 3;

fn seed() -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(v) => v.parse().expect("CHAOS_SEED must be a u64"),
        Err(_) => 0x5A4D,
    }
}

fn workload() -> (DirectoryInstance, Vec<GeneratedTx>) {
    let (base, mut txs) = LdifWorkload::generate(LdifWorkloadParams {
        orgs: 4,
        entries_per_org: 30,
        transactions: 16,
        seed: seed(),
    });
    // Whatever the seed generates, the campaign must drive the 2-phase
    // path both to commit and to rollback: pin one legal and one
    // illegal transaction across two org roots on distinct shards.
    // (Org names are fixed `org0..org3`, so the routing is seed-free.)
    let by_shard = |name: &str| {
        bschema_core::sharded::shard_of_root_rdn(&bschema_directory::Rdn::single("o", name), SHARDS)
    };
    let a = "org0";
    let b = (1..4)
        .map(|i| format!("org{i}"))
        .find(|name| by_shard(name) != by_shard(a))
        .expect("four fixed org names cannot all hash to one of three shards here");
    let person = |uid: &str, org: &str, with_name: bool| {
        let mut text =
            format!("dn: uid={uid},o={org}\nobjectClass: person\nobjectClass: top\nuid: {uid}\n");
        if with_name {
            text.push_str(&format!("name: {uid}\n"));
        }
        text
    };
    txs.push(GeneratedTx {
        ldif: format!("{}\n{}", person("pin1", a, true), person("pin2", &b, true)),
        multi_subtree: true,
        expect_commit: true,
        kind: "pinned-cross",
    });
    txs.push(GeneratedTx {
        ldif: format!("{}\n{}", person("pin3", a, true), person("pin4", &b, false)),
        multi_subtree: true,
        expect_commit: false,
        kind: "pinned-reject-cross",
    });
    (base, txs)
}

fn engine(base: &DirectoryInstance, plan: Option<Arc<FaultPlan>>) -> ShardedDirectory {
    let sharded = ShardedDirectory::with_instance(white_pages_schema(), base.clone(), SHARDS)
        .expect("generated base is legal");
    match plan {
        Some(plan) => sharded.with_probe(plan),
        None => sharded,
    }
}

/// Replays the workload on a (possibly fault-injected) engine next to a
/// fault-free mirror, asserting per-transaction atomicity; then drives
/// recovery from the chaotic engine's journals and asserts convergence.
/// Returns the number of transactions that committed.
fn replay_and_check(
    base: &DirectoryInstance,
    txs: &[GeneratedTx],
    plan: Option<Arc<FaultPlan>>,
    context: &str,
) -> usize {
    let chaotic = engine(base, plan);
    let disks: Vec<MemoryJournal> = (0..SHARDS).map(|_| MemoryJournal::default()).collect();
    for (k, disk) in disks.iter().enumerate() {
        chaotic.set_sink(k, disk.sink());
    }
    let mirror = engine(base, None);
    let mut committed = 0usize;
    for (i, tx) in txs.iter().enumerate() {
        let records = parse_ldif(&tx.ldif).expect("generated ldif parses");
        let before = chaotic.merged_instance().expect("merge").canonical_bytes();
        match chaotic.apply_ldif(records) {
            Ok(_) => {
                committed += 1;
                let mirrored = parse_ldif(&tx.ldif).expect("generated ldif parses");
                mirror
                    .apply_ldif(mirrored)
                    .unwrap_or_else(|e| panic!("{context}: mirror rejected tx {i} ({e})"));
            }
            Err(_) => {
                let after = chaotic.merged_instance().expect("merge").canonical_bytes();
                assert_eq!(
                    before, after,
                    "{context}: failed tx {i} ({}) left shard residue",
                    tx.kind
                );
            }
        }
        let live = chaotic.merged_instance().expect("merge").canonical_bytes();
        let expected = mirror.merged_instance().expect("merge").canonical_bytes();
        assert_eq!(live, expected, "{context}: tx {i} ({}) diverged from mirror", tx.kind);
    }

    // Post-crash convergence: recover from the per-shard journals onto
    // the pristine partition of the base and compare to the live state.
    let journals: Vec<Journal> = disks.iter().map(|disk| Journal::parse(&disk.take())).collect();
    let bases = partition(base, SHARDS).expect("partition");
    let (recovered, _reports) = ShardedDirectory::recover_with_checkpoints(
        white_pages_schema(),
        bases,
        &vec![None; SHARDS],
        &journals,
    )
    .unwrap_or_else(|e| panic!("{context}: recovery failed ({e})"));
    let live = chaotic.merged_instance().expect("merge").canonical_bytes();
    let recovered_bytes = recovered.merged_instance().expect("merge").canonical_bytes();
    assert_eq!(recovered_bytes, live, "{context}: recovery diverges from live state");
    committed
}

#[test]
fn every_site_injection_rolls_back_all_shards_and_recovers() {
    silence_injected_panics();
    let (base, txs) = workload();

    // Observer pass: the census, and a baseline commit count.
    let observer = Arc::new(FaultPlan::observer());
    let baseline = replay_and_check(&base, &txs, Some(observer.clone()), "observer");
    assert!(baseline > 0, "workload committed nothing");
    let census = observer.sites();
    assert!(observer.events() > 0, "no probe events to inject at");
    for site in ["sharded.prepared", "sharded.rollback"] {
        assert!(census.contains_key(site), "census is missing {site}: {census:?}");
    }
    for family in ["sharded.prepare.shard", "sharded.commit.shard"] {
        let hit = census.keys().filter(|s| s.starts_with(family)).count();
        assert!(hit >= 2, "census has {hit} {family}* sites (want ≥2 of {SHARDS}): {census:?}");
    }

    // Injection campaign. The 2-phase `sharded.*` sites are this
    // suite's new surface: every occurrence takes a panic — including
    // each "between prepare and commit on shard k of m" gap
    // (`sharded.prepared`, and the k-th `sharded.commit.shard*` visit).
    // The engine-internal sites below them are already event-exhausted
    // by the `chaos_atomicity` campaign, so one injection per site
    // keeps this suite's runtime proportional to the new code.
    let mut runs: Vec<(String, u64)> = Vec::new();
    for (site, &occurrences) in &census {
        if site.starts_with("sharded.") {
            runs.extend((0..occurrences).map(|o| (site.clone(), o)));
        } else {
            runs.push((site.clone(), 0));
        }
    }
    let mut injected = 0u64;
    for (site, occurrence) in &runs {
        let plan = Arc::new(FaultPlan::fail_at_site(site.clone(), *occurrence));
        replay_and_check(
            &base,
            &txs,
            Some(plan.clone()),
            &format!("site {site} occurrence {occurrence}"),
        );
        assert_eq!(plan.injected(), 1, "site {site}#{occurrence} did not take its injection");
        injected += plan.injected();
    }
    assert_eq!(injected, runs.len() as u64, "injected != census");
}

#[test]
fn targeted_2pc_site_matrix() {
    // One 2-phase site family per CI matrix row:
    // SHARDED_CHAOS_PREFIX=prepare|commit|rollback. Without the
    // variable this is a no-op — the full campaign above covers all
    // families — so plain `cargo test` does not pay for the run twice.
    let prefix = match std::env::var("SHARDED_CHAOS_PREFIX") {
        Ok(p) => format!("sharded.{p}"),
        Err(_) => return,
    };
    silence_injected_panics();
    let (base, txs) = workload();

    let observer = Arc::new(FaultPlan::observer());
    replay_and_check(&base, &txs, Some(observer.clone()), "observer");
    let census = observer.sites();

    let mut covered = 0usize;
    for (site, &occurrences) in &census {
        if !site.starts_with(prefix.as_str()) {
            continue;
        }
        for occurrence in 0..occurrences {
            let plan = Arc::new(FaultPlan::fail_at_site(site.clone(), occurrence));
            replay_and_check(
                &base,
                &txs,
                Some(plan.clone()),
                &format!("site {site} occurrence {occurrence}"),
            );
            assert_eq!(plan.injected(), 1, "site {site}#{occurrence} was not injected");
            covered += 1;
        }
    }
    assert!(covered > 0, "no 2-phase sites matched {prefix:?}; census: {census:?}");
}

/// A shard whose sink accepts begin batches and refuses commit batches:
/// the engine counts every failed commit flush
/// (`server.journal_commit_io_error`, as on the single backend) and the
/// verdict stands.
#[test]
fn a_failed_commit_flush_on_a_shard_is_counted_and_the_verdict_stands() {
    use bschema_core::engine::SITE_COMMIT_IO_ERROR;
    use bschema_core::updates::Mod;
    use bschema_directory::{Dn, Rdn};

    let (base, _) = workload();
    let recorder = Arc::new(bschema_obs::Recorder::new());
    let sharded = ShardedDirectory::with_instance(white_pages_schema(), base, SHARDS)
        .expect("generated base is legal")
        .with_probe(recorder.clone());
    for k in 0..SHARDS {
        sharded.set_sink(
            k,
            Box::new(|text: &str| match text.contains("jrntype: commit") {
                true => Err(std::io::Error::other("disk full")),
                false => Ok(()),
            }),
        );
    }
    let counted =
        || recorder.metrics().snapshot().counters.get(SITE_COMMIT_IO_ERROR).copied().unwrap_or(0);
    let person = |uid: &str, org: &str| {
        format!("dn: uid={uid},o={org}\nobjectClass: person\nobjectClass: top\nuid: {uid}\nname: {uid}\n")
    };
    let shard =
        |org: &str| bschema_core::sharded::shard_of_root_rdn(&Rdn::single("o", org), SHARDS);
    let other = (1..4).map(|i| format!("org{i}")).find(|o| shard(o) != shard("org0")).expect("org");

    // A single-shard TXN and a MODIFY flush one commit each, a
    // cross-shard TXN one per participant.
    sharded.apply_ldif(parse_ldif(&person("f1", "org0")).expect("ldif")).expect("verdict stands");
    assert_eq!(counted(), 1);
    sharded
        .modify_dn(
            &Dn::parse("uid=f1,o=org0").expect("dn"),
            &[Mod::Add { attribute: "telephoneNumber".into(), value: "+1".into() }],
        )
        .expect("verdict stands");
    assert_eq!(counted(), 2);
    let cross = format!("{}\n{}", person("f2", "org0"), person("f3", &other));
    let outcome = sharded.apply_ldif(parse_ldif(&cross).expect("ldif")).expect("verdict stands");
    assert_eq!(outcome.shards.len(), 2);
    assert_eq!(counted(), 4);
    assert!(sharded.is_legal());
}
