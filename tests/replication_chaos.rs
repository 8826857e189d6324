//! Checkpoint + replication chaos campaign.
//!
//! Three surfaces under test, all over real TCP sessions:
//!
//! 1. **Checkpoint compaction** — a journaled primary checkpoints (via
//!    the `CHECKPOINT` verb and the `--checkpoint-every` trigger),
//!    truncates its journal, and a restart recovers from checkpoint +
//!    tail to a byte-identical instance.
//! 2. **Read replicas** — a [`Follower`] bootstraps from a shipped
//!    checkpoint, streams committed journal records over `SHIP`,
//!    re-bootstraps across compaction-induced `ship-gap`s, and refuses
//!    client writes with the stable `read-only` code.
//! 3. **Crash consistency** — a fault-injection matrix over the new
//!    sites (`checkpoint.write`, `checkpoint.truncate`, `ship.serve`,
//!    `ship.apply`): after every injected panic the campaign must end
//!    with primary ≡ replica ≡ disk-recovered state, compared by
//!    [`DirectoryInstance::canonical_bytes`].
//!
//! `CHAOS_SEED` reseeds the workload; `REPLICATION_CHAOS_SITE` narrows
//! the matrix to one site per CI job.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

use bschema_core::checkpoint::checkpoint_path;
use bschema_core::paper::white_pages_schema;
use bschema_core::schema::DirectorySchema;
use bschema_core::ManagedDirectory;
use bschema_directory::DirectoryInstance;
use bschema_faults::{silence_injected_panics, FaultPlan};
use bschema_server::{
    Client, DirectoryService, Follower, ReplicationState, Server, ServerConfig, ServerHandle,
};
use bschema_workload::{GeneratedTx, LdifWorkload, LdifWorkloadParams};

fn seed() -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(v) => v.parse().expect("CHAOS_SEED must be a u64"),
        Err(_) => 0xC4C7,
    }
}

/// A seeded workload plus pinned known-legal insertions, so every run —
/// whatever the seed — commits enough to exercise tail shipping.
fn workload() -> (DirectoryInstance, Vec<GeneratedTx>) {
    let (base, mut txs) = LdifWorkload::generate(LdifWorkloadParams {
        orgs: 2,
        entries_per_org: 12,
        transactions: 10,
        seed: seed(),
    });
    let person = |uid: &str| GeneratedTx {
        ldif: format!(
            "dn: uid={uid},o=org0\nobjectClass: person\nobjectClass: top\nuid: {uid}\nname: {uid}\n"
        ),
        multi_subtree: false,
        expect_commit: true,
        kind: "pinned-legal",
    };
    txs.insert(0, person("ship1"));
    txs.insert(2, person("ship2"));
    txs.push(person("ship3"));
    (base, txs)
}

fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bschema-repl-{tag}-{}.journal", std::process::id()))
}

fn scrub(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let ckpt = checkpoint_path(path);
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(ckpt.with_file_name(format!(
        "{}.tmp",
        ckpt.file_name().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default()
    )));
    let _ = std::fs::remove_file(path.with_file_name(format!(
        "{}.tmp",
        path.file_name().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default()
    )));
}

/// Spawns a journaled primary over `base`, optionally fault-injected,
/// checkpointing every 4 commits.
fn spawn_primary(
    schema: &DirectorySchema,
    base: &DirectoryInstance,
    path: &PathBuf,
    plan: Option<Arc<FaultPlan>>,
) -> (Arc<DirectoryService>, ServerHandle) {
    let managed = ManagedDirectory::with_instance(schema.clone(), base.clone())
        .expect("workload base is legal");
    let mut service = DirectoryService::new(managed);
    if let Some(plan) = plan {
        service = service.with_probe(plan);
    }
    let (service, _replayed) = service.with_journal(path).expect("journal attaches");
    let service = Arc::new(service.with_checkpoint_every(4));
    let config = ServerConfig { threads: 2, ..ServerConfig::default() };
    let handle = Server::spawn(service.clone(), config).expect("bind loopback");
    (service, handle)
}

/// Bootstraps a follower replica off the primary at `addr`.
fn spawn_follower(
    addr: &str,
    schema: &DirectorySchema,
    plan: Option<Arc<FaultPlan>>,
) -> (Arc<DirectoryService>, Follower) {
    let (managed, cursor) =
        Follower::bootstrap_state(addr, schema).expect("primary serves a bootstrap checkpoint");
    let replication = Arc::new(ReplicationState::default());
    let mut service = DirectoryService::new(managed).with_replication(replication.clone());
    if let Some(plan) = plan {
        service = service.with_probe(plan);
    }
    let service = Arc::new(service);
    let follower = Follower::attach(addr, schema.clone(), service.clone(), replication, cursor);
    (service, follower)
}

/// One follower sync that tolerates injected panics (`ship.apply`) and
/// server-side injected panics surfacing as `panicked` refusals
/// (`ship.serve`).
fn sync_tolerant(follower: &mut Follower) {
    let _ = catch_unwind(AssertUnwindSafe(|| follower.sync_once()));
}

/// Syncs until the follower reports caught-up **and** byte-equality
/// with the primary holds. Panics if 20 passes do not converge.
fn sync_until_converged(follower: &mut Follower, primary: &Arc<DirectoryService>, context: &str) {
    for _ in 0..20 {
        let outcome = catch_unwind(AssertUnwindSafe(|| follower.sync_once()));
        if let Ok(Ok(report)) = outcome {
            if report.applied == 0
                && !report.bootstrapped
                && follower.service().snapshot().canonical_bytes()
                    == primary.snapshot().canonical_bytes()
            {
                return;
            }
        }
    }
    panic!("{context}: follower failed to converge with the primary");
}

/// Drives the whole campaign once: workload through a (possibly
/// fault-injected) primary with a live follower, explicit checkpoints
/// interleaved so compaction races shipping, then convergence checks:
/// follower ≡ primary, and a from-disk recovery ≡ primary.
fn run_campaign(
    tag: &str,
    primary_plan: Option<Arc<FaultPlan>>,
    follower_plan: Option<Arc<FaultPlan>>,
) {
    let schema = white_pages_schema();
    let (base, txs) = workload();
    let path = journal_path(tag);
    scrub(&path);

    let (primary, handle) = spawn_primary(&schema, &base, &path, primary_plan);
    let addr = handle.addr().to_string();
    let (_replica_svc, mut follower) = spawn_follower(&addr, &schema, follower_plan);

    let mut client = Client::connect(&addr).expect("connect workload client");
    for (i, tx) in txs.iter().enumerate() {
        // Every refusal is fine here — illegal workload txs reject, and
        // an injected checkpoint fault after a commit surfaces as
        // `panicked` (outcome unknown). The convergence checks below
        // are what the campaign asserts.
        if client.apply_ldif(&tx.ldif).is_err() {
            // An injected panic may also have dropped nothing — but a
            // transport-level failure needs a fresh connection.
            if client.ping().is_err() {
                client = Client::connect(&addr).expect("reconnect workload client");
            }
        }
        if i % 2 == 0 {
            // Tail-ship path: the follower streams what just committed.
            sync_tolerant(&mut follower);
        }
        if i % 3 == 2 {
            // Compaction racing the follower: txs committed since its
            // last sync get truncated into the checkpoint, forcing the
            // ship-gap → re-bootstrap path on the next sync.
            let _ = client.checkpoint();
        }
    }
    let _ = client.checkpoint();

    sync_until_converged(&mut follower, &primary, tag);
    let live = primary.snapshot().canonical_bytes();
    assert_eq!(
        follower.service().snapshot().canonical_bytes(),
        live,
        "{tag}: replica diverged from primary"
    );

    // "kill -9": drop the server, recover purely from the on-disk
    // checkpoint + journal tail onto a pristine seed. Connections are
    // dropped first so the drain does not sit out a read timeout.
    drop(client);
    drop(follower);
    handle.shutdown();
    handle.wait();
    let managed = ManagedDirectory::with_instance(schema.clone(), base.clone())
        .expect("workload base is legal");
    let (recovered, _replayed) =
        DirectoryService::new(managed).with_journal(&path).expect("post-crash recovery");
    assert_eq!(
        recovered.snapshot().canonical_bytes(),
        live,
        "{tag}: disk recovery diverged from the live primary"
    );
    scrub(&path);
}

#[test]
fn checkpoint_compacts_journal_and_restart_replays_tail_only() {
    let schema = white_pages_schema();
    let (base, txs) = workload();
    let path = journal_path("compact");
    scrub(&path);

    let (primary, handle) = spawn_primary(&schema, &base, &path, None);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut committed = 0usize;
    for tx in &txs {
        if client.apply_ldif(&tx.ldif).is_ok() {
            committed += 1;
        }
    }
    assert!(committed >= 3, "workload must commit (seed {})", seed());

    let seqs = client.checkpoint().expect("CHECKPOINT succeeds");
    assert_eq!(seqs.len(), 1, "single backend checkpoints one shard");
    let journal_after = std::fs::read_to_string(&path).unwrap_or_default();
    assert!(
        journal_after.is_empty(),
        "checkpoint must truncate the journal, found {} bytes",
        journal_after.len()
    );
    assert!(checkpoint_path(&path).exists(), "checkpoint file must exist");

    // One more commit after the checkpoint becomes the tail.
    client
        .apply_ldif("dn: uid=tail1,o=org0\nobjectClass: person\nobjectClass: top\nuid: tail1\nname: tail1\n")
        .expect("post-checkpoint commit");
    let live = primary.snapshot().canonical_bytes();
    drop(client);
    handle.shutdown();
    handle.wait();

    let managed =
        ManagedDirectory::with_instance(schema.clone(), base.clone()).expect("base is legal");
    let (recovered, replayed) =
        DirectoryService::new(managed).with_journal(&path).expect("checkpoint-aware recovery");
    assert_eq!(replayed, 1, "only the post-checkpoint tail replays");
    assert_eq!(recovered.snapshot().canonical_bytes(), live);
    scrub(&path);
}

#[test]
fn follower_streams_rebootstraps_and_refuses_writes() {
    let schema = white_pages_schema();
    let (base, _txs) = workload();
    let path = journal_path("follow");
    scrub(&path);

    let (primary, handle) = spawn_primary(&schema, &base, &path, None);
    let addr = handle.addr().to_string();
    let (replica_svc, mut follower) = spawn_follower(&addr, &schema, None);
    assert_eq!(
        replica_svc.snapshot().canonical_bytes(),
        primary.snapshot().canonical_bytes(),
        "bootstrap state must match the primary"
    );

    // Tail shipping: commit, sync, converge.
    let mut client = Client::connect(&addr).expect("connect");
    client
        .apply_ldif("dn: uid=s1,o=org0\nobjectClass: person\nobjectClass: top\nuid: s1\nname: s1\n")
        .expect("legal commit");
    let report = follower.sync_once().expect("tail sync");
    assert_eq!(report.applied, 1);
    assert!(!report.bootstrapped);
    assert_eq!(replica_svc.snapshot().canonical_bytes(), primary.snapshot().canonical_bytes());

    // Compaction while the follower is behind forces a re-bootstrap.
    client
        .apply_ldif("dn: uid=s2,o=org0\nobjectClass: person\nobjectClass: top\nuid: s2\nname: s2\n")
        .expect("legal commit");
    client.checkpoint().expect("checkpoint");
    let report = follower.sync_once().expect("gap sync");
    assert!(report.bootstrapped, "compaction behind the cursor must re-bootstrap");
    assert_eq!(replica_svc.snapshot().canonical_bytes(), primary.snapshot().canonical_bytes());

    // The replica refuses writes with the stable code, on the service
    // API and over its own wire.
    let err = replica_svc.apply_ldif_tx("dn: o=nope\nobjectClass: top\n").unwrap_err();
    assert_eq!(err.code, "read-only");
    let replica_handle =
        Server::spawn(replica_svc.clone(), ServerConfig { threads: 1, ..ServerConfig::default() })
            .expect("bind replica");
    let mut rclient = Client::connect(replica_handle.addr()).expect("connect replica");
    let refusal =
        rclient.apply_ldif("dn: o=nope\nobjectClass: top\n").expect_err("replica must refuse TXN");
    assert_eq!(refusal.server_code(), Some("read-only"));
    let refusal =
        rclient.modify_lines("dn: o=org0\nadd: description: x\n").expect_err("refuse MODIFY");
    assert_eq!(refusal.server_code(), Some("read-only"));
    // Reads still serve.
    let hits = rclient.search(None, "sub", "(uid=s2)", None).expect("replica search");
    assert!(hits.contains("uid: s2"), "replica must serve replicated entries: {hits}");

    // Replication gauges surfaced: lag 0 after convergence, ≥2
    // bootstraps (attach + gap).
    let replication = replica_svc.replication().expect("follower carries gauges");
    assert_eq!(replication.lag(), 0);
    assert!(replication.bootstraps() >= 2, "attach + ship-gap: {}", replication.bootstraps());

    drop(rclient);
    replica_handle.shutdown();
    replica_handle.wait();
    drop(client);
    drop(follower);
    handle.shutdown();
    handle.wait();
    scrub(&path);
}

/// The injection matrix: `(site, occurrences, on_follower)`. Occurrence
/// counts are conservative floors — the driver guarantees at least that
/// many visits (4+ checkpoint cycles, a sync every other tx, pinned
/// legal commits), and each run asserts its injection actually fired.
const MATRIX: [(&str, u64, bool); 4] = [
    ("checkpoint.write", 3, false),
    ("checkpoint.truncate", 3, false),
    ("ship.serve", 3, false),
    ("ship.apply", 2, true),
];

#[test]
fn injected_faults_never_break_convergence() {
    silence_injected_panics();
    let only = std::env::var("REPLICATION_CHAOS_SITE").ok();
    let mut ran = 0usize;
    for (site, occurrences, on_follower) in MATRIX {
        if let Some(only) = &only {
            if only != site {
                continue;
            }
        }
        for occurrence in 0..occurrences {
            let plan = Arc::new(FaultPlan::fail_at_site(site, occurrence));
            let tag = format!("{site}#{occurrence}");
            let (primary_plan, follower_plan) =
                if on_follower { (None, Some(plan.clone())) } else { (Some(plan.clone()), None) };
            run_campaign(&tag, primary_plan, follower_plan);
            assert_eq!(plan.injected(), 1, "site {tag} did not take its injection");
            ran += 1;
        }
    }
    assert!(ran > 0, "REPLICATION_CHAOS_SITE={only:?} matched no matrix row");
}
