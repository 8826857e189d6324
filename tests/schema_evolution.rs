//! Live schema-evolution plane, exercised over real TCP sessions: the
//! `SCHEMA` verb family (PROPOSE / CHECK / STATUS / COMMIT / ABORT)
//! driving incremental cutovers while TXN traffic flows.
//!
//! The invariants under test:
//!
//! 1. **Rolling tighten** — a restricting proposal commits against a
//!    4-shard backend under concurrent writers, and no legal write is
//!    ever rejected because a cutover was in flight.
//! 2. **Refused tighten** — a proposal the instance violates is refused
//!    with the stable `schema-violates` code and an EXPLAIN-style
//!    report naming the offending entries; the old epoch stays live.
//! 3. **Widen-then-migrate** — the operator loop for an unsatisfiable
//!    tighten: relax (instant, Definition 2.7), migrate the data over
//!    the wire, then tighten.
//! 4. **Torn cutover** — a panic injected at the `schema.cutover` site
//!    (between the journalled schema record and the engine swap) leaves
//!    the old epoch live, the proposal staged, and a retry succeeds;
//!    crash recovery discards the uncommitted record.
//! 5. **Replication** — a follower streams the schema record over
//!    `SHIP` and converges byte-identically across the evolution.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bschema_core::checkpoint::{checkpoint_path, schema_hash};
use bschema_core::legality::LegalityChecker;
use bschema_core::paper::{white_pages_instance, white_pages_schema};
use bschema_core::ManagedDirectory;
use bschema_directory::{ldif, DirectoryInstance};
use bschema_faults::{silence_injected_panics, FaultPlan};
use bschema_obs::json::Value;
use bschema_server::{Client, DirectoryService, Follower, ReplicationState, Server, ServerConfig};

/// A multi-org base whose every person already carries `title`, so the
/// rolling tighten `require-attr person title` is satisfiable from the
/// start — the test measures the cutover machinery, not a migration.
fn titled_base(orgs: usize, persons_per_org: usize) -> DirectoryInstance {
    let mut text = String::new();
    for o in 0..orgs {
        text.push_str(&format!(
            "dn: o=org{o}\nobjectClass: organization\nobjectClass: orgGroup\n\
             objectClass: top\no: org{o}\n\n\
             dn: ou=unit,o=org{o}\nobjectClass: orgUnit\nobjectClass: orgGroup\n\
             objectClass: top\nou: unit\n\n"
        ));
        for p in 0..persons_per_org {
            text.push_str(&format!(
                "dn: uid=base{o}x{p},ou=unit,o=org{o}\nobjectClass: person\n\
                 objectClass: top\nuid: base{o}x{p}\nname: base {o} {p}\ntitle: staff\n\n"
            ));
        }
    }
    let mut dir = ldif::load(&text).expect("hand-built base parses");
    dir.prepare();
    let report = LegalityChecker::new(&white_pages_schema()).check(&dir);
    assert!(report.is_legal(), "titled base must be legal:\n{report}");
    dir
}

/// A person insertion that satisfies the *tightened* schema too.
fn titled_person_ldif(uid: &str, org: usize) -> String {
    format!(
        "dn: uid={uid},ou=unit,o=org{org}\nobjectClass: person\nobjectClass: top\n\
         uid: {uid}\nname: {uid}\ntitle: staff\n"
    )
}

fn json(body: &str) -> Value {
    Value::parse(body).unwrap_or_else(|| panic!("bad JSON: {body:?}"))
}

fn status_epoch(client: &mut Client) -> u64 {
    let v = json(&client.schema_status().expect("STATUS answers"));
    v.get("epoch").and_then(Value::as_u64).expect("status carries epoch")
}

/// Invariant 1: the rolling tighten. Four shards, four concurrent
/// writers inserting already-conforming persons the whole time; the
/// operator stages, checks, and commits `require-attr person title`
/// mid-traffic. Every writer transaction must commit — zero legal
/// writes rejected — and afterwards the tightened bound is enforced.
#[test]
fn rolling_tighten_commits_on_a_sharded_server_under_live_traffic() {
    const SHARDS: usize = 4;
    let base = titled_base(SHARDS, 6);
    let service = DirectoryService::new_sharded(white_pages_schema(), base, SHARDS)
        .expect("titled base is legal");
    let handle =
        Server::spawn(Arc::new(service), ServerConfig { threads: 4, ..ServerConfig::default() })
            .expect("bind sharded loopback");
    let addr = handle.addr();
    let initial_len = handle.service().len();

    // Writers: keep committing conforming persons before, during, and
    // after the cutover. Any rejection fails the test.
    let cutover_done = Arc::new(AtomicBool::new(false));
    let mut writers = Vec::new();
    for w in 0..4usize {
        let done = cutover_done.clone();
        writers.push(thread::spawn(move || {
            let mut client = Client::connect(addr).expect("writer connects");
            let mut inserted = 0usize;
            let mut i = 0usize;
            // Run until the cutover landed, then a few more to prove the
            // new epoch accepts conforming traffic; floor of 12 so every
            // writer overlaps the cutover window.
            while !done.load(Ordering::SeqCst) || i < 12 {
                let receipt = client
                    .apply_ldif(&titled_person_ldif(&format!("w{w}i{i}"), (w + i) % 4))
                    .unwrap_or_else(|e| {
                        panic!("legal write w{w}i{i} rejected during cutover: {e}")
                    });
                assert_eq!(receipt.ops, 1);
                inserted += 1;
                i += 1;
                thread::sleep(Duration::from_millis(1));
            }
            client.unbind().expect("clean unbind");
            inserted
        }));
    }

    // The operator session: propose → check (off the write path) →
    // commit, all while the writers hammer the shards.
    let mut operator = Client::connect(addr).expect("operator connects");
    assert_eq!(status_epoch(&mut operator), 0);
    thread::sleep(Duration::from_millis(10)); // let traffic build

    let body = operator.schema_propose("require-attr person title").expect("propose stages");
    let v = json(&body);
    assert_eq!(v.get("staged"), Some(&Value::Bool(true)), "{body}");
    assert_eq!(v.get("restricting").and_then(Value::as_u64), Some(1), "{body}");
    assert_eq!(v.get("requires_recheck"), Some(&Value::Bool(true)), "{body}");

    // A second proposal while one is staged is refused.
    let err = operator.schema_propose("allow-attr person mail").expect_err("must refuse");
    assert_eq!(err.server_code(), Some("schema-pending"), "{err}");

    let check = operator.schema_check().expect("every entry is titled");
    assert_eq!(json(&check).get("ok"), Some(&Value::Bool(true)), "{check}");

    let commit = operator.schema_commit().expect("cutover commits under traffic");
    let v = json(&commit);
    assert_eq!(v.get("committed"), Some(&Value::Bool(true)), "{commit}");
    assert_eq!(v.get("epoch").and_then(Value::as_u64), Some(1), "{commit}");

    cutover_done.store(true, Ordering::SeqCst);
    let mut committed = 0usize;
    for t in writers {
        committed += t.join().expect("writer thread — zero rejected legal writes");
    }
    assert!(committed >= 48, "writers only landed {committed} commits");

    // The new epoch is live: STATUS reports it, the tightened bound is
    // enforced, and conforming writes still commit.
    let status = operator.schema_status().expect("STATUS answers");
    let v = json(&status);
    assert_eq!(v.get("epoch").and_then(Value::as_u64), Some(1), "{status}");
    assert_eq!(v.get("pending"), Some(&Value::Null), "{status}");
    let titleless = "dn: uid=untitled,ou=unit,o=org0\nobjectClass: person\nobjectClass: top\n\
                     uid: untitled\nname: untitled\n";
    let err = operator.apply_ldif(titleless).expect_err("titleless person now illegal");
    assert_eq!(err.server_code(), Some("rolled-back"), "{err}");
    operator.apply_ldif(&titled_person_ldif("posttighten", 1)).expect("conforming write commits");

    // Client-side proof: the full wire dump is legal under the
    // *evolved* schema.
    let text = operator.search(None, "sub", "(objectClass=top)", None).expect("dump");
    let mut dump = ldif::load(&text).expect("loadable dump");
    dump.prepare();
    let evolved = bschema_core::evolution::plan::parse_proposal(
        &white_pages_schema(),
        "require-attr person title",
    )
    .expect("proposal parses")
    .target;
    let report = LegalityChecker::new(&evolved).check(&dump);
    assert!(report.is_legal(), "wire dump illegal under the evolved schema:\n{report}");
    assert_eq!(dump.len(), initial_len + committed + 1);

    operator.shutdown_server().expect("shutdown");
    handle.wait();
}

/// Invariants 2 and 3 on a single-engine server: a violating tighten is
/// refused with a report naming the offenders (old epoch stays live),
/// then the widen → migrate → tighten loop lands the same bound.
#[test]
fn refused_tighten_then_widen_migrate_tighten_over_the_wire() {
    let (dir, _) = white_pages_instance();
    let managed =
        ManagedDirectory::with_instance(white_pages_schema(), dir).expect("figure 1 is legal");
    let handle = Server::spawn(
        Arc::new(DirectoryService::new(managed)),
        ServerConfig { threads: 2, ..ServerConfig::default() },
    )
    .expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Lifecycle refusals: nothing staged yet.
    for (result, what) in [
        (client.schema_check(), "CHECK"),
        (client.schema_commit(), "COMMIT"),
        (client.schema_abort(), "ABORT"),
    ] {
        let err = result.expect_err("nothing staged");
        assert_eq!(err.server_code(), Some("schema-none"), "{what}: {err}");
    }

    // Refused tighten: no figure-1 person has `mail` (it is not even an
    // allowed person attribute), so the recheck names every person.
    client.schema_propose("allow-attr person mail\nrequire-attr person mail").expect("stages");
    let err = client.schema_check().expect_err("violating tighten refused");
    assert_eq!(err.server_code(), Some("schema-violates"), "{err}");
    let detail = format!("{err}");
    assert!(detail.contains("violation"), "report lacks a count: {detail}");
    assert!(detail.contains("uid="), "report must name offending DNs: {detail}");
    // COMMIT is equally refused — CHECK failing left no freshness token.
    let err = client.schema_commit().expect_err("commit of a violating plan refused");
    assert_eq!(err.server_code(), Some("schema-violates"), "{err}");
    assert_eq!(status_epoch(&mut client), 0, "old epoch must stay live");
    json(&client.schema_abort().expect("abort discards"));

    // Widen: allow the attribute. Relaxing-only — commits with no check.
    let body = client.schema_propose("allow-attr person mail").expect("widen stages");
    assert_eq!(json(&body).get("requires_recheck"), Some(&Value::Bool(false)), "{body}");
    let commit = client.schema_commit().expect("relaxing cutover needs no recheck");
    assert_eq!(json(&commit).get("epoch").and_then(Value::as_u64), Some(1), "{commit}");

    // Migrate over the wire: backfill `mail` on every person via MODIFY.
    let text = client.search(None, "sub", "(objectClass=person)", None).expect("person dump");
    let mut persons = 0usize;
    for line in text.lines() {
        let Some(dn) = line.strip_prefix("dn: ") else { continue };
        let uid = dn.strip_prefix("uid=").and_then(|r| r.split(',').next()).unwrap_or("person");
        client
            .modify_lines(&format!("dn: {dn}\nadd: mail: {uid}@example.org\n"))
            .unwrap_or_else(|e| panic!("migration modify for {dn} failed: {e}"));
        persons += 1;
    }
    assert!(persons >= 2, "figure 1 has multiple persons, migrated {persons}");

    // Tighten: the same bound now checks clean and commits.
    client.schema_propose("require-attr person mail").expect("tighten stages");
    let check = client.schema_check().expect("after migration the recheck passes");
    assert_eq!(json(&check).get("ok"), Some(&Value::Bool(true)), "{check}");
    let commit = client.schema_commit().expect("tighten commits");
    assert_eq!(json(&commit).get("epoch").and_then(Value::as_u64), Some(2), "{commit}");

    // The bound bites: a mailless person is refused, a mailed one lands.
    let mailless = "dn: uid=nomail,ou=databases,ou=attLabs,o=att\nobjectClass: person\n\
                    objectClass: top\nuid: nomail\nname: nomail\n";
    let err = client.apply_ldif(mailless).expect_err("mailless person now illegal");
    assert_eq!(err.server_code(), Some("rolled-back"), "{err}");
    let mailed = "dn: uid=hasmail,ou=databases,ou=attLabs,o=att\nobjectClass: person\n\
                  objectClass: top\nuid: hasmail\nname: hasmail\nmail: hasmail@example.org\n";
    client.apply_ldif(mailed).expect("conforming person commits");

    client.shutdown_server().expect("shutdown");
    handle.wait();
}

/// Invariant 4: chaos at the `schema.cutover` site. The panic lands
/// between the journalled schema record (prepare) and the engine swap;
/// the session answers `ERR panicked`, the old epoch stays live, the
/// proposal stays staged, and a retry commits. A crash *without* the
/// retry recovers to the old epoch — the uncommitted record is
/// discarded — and the epoch journalled by the successful cutover
/// replays into the next generation.
#[test]
fn torn_cutover_leaves_the_old_epoch_and_recovery_converges() {
    silence_injected_panics();
    let path = std::env::temp_dir()
        .join(format!("bschema-evolution-chaos-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(checkpoint_path(&path));

    // Generation 1: panic the first cutover attempt mid-flight.
    let (dir, _) = white_pages_instance();
    let managed =
        ManagedDirectory::with_instance(white_pages_schema(), dir).expect("figure 1 is legal");
    let plan = Arc::new(FaultPlan::fail_at_site("schema.cutover", 0));
    let service = DirectoryService::new(managed).with_probe(plan.clone());
    let (service, replayed) = service.with_journal(&path).expect("journal attaches");
    assert_eq!(replayed, 0);
    let handle =
        Server::spawn(Arc::new(service), ServerConfig { threads: 2, ..ServerConfig::default() })
            .expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    client.schema_propose("allow-attr person mail").expect("stages");
    let err = client.schema_commit().expect_err("injected panic mid-cutover");
    assert_eq!(err.server_code(), Some("panicked"), "{err}");
    assert_eq!(plan.injected(), 1, "the fault fired at schema.cutover");

    // Old epoch live, proposal still staged: a mailed person is illegal
    // (mail is not yet an allowed attribute) and STATUS shows pending.
    let mailed = "dn: uid=early,ou=databases,ou=attLabs,o=att\nobjectClass: person\n\
                  objectClass: top\nuid: early\nname: early\nmail: early@example.org\n";
    let err = client.apply_ldif(mailed).expect_err("old epoch still refuses mail");
    assert_eq!(err.server_code(), Some("rolled-back"), "{err}");
    let status = client.schema_status().expect("STATUS answers");
    let v = json(&status);
    assert_eq!(v.get("epoch").and_then(Value::as_u64), Some(0), "{status}");
    assert_ne!(v.get("pending"), Some(&Value::Null), "proposal must survive the panic: {status}");
    client.shutdown_server().expect("shutdown");
    handle.wait();

    // Generation 2: the torn (uncommitted) schema record is discarded —
    // the recovered server still runs the boot schema.
    let (dir, _) = white_pages_instance();
    let managed =
        ManagedDirectory::with_instance(white_pages_schema(), dir).expect("figure 1 is legal");
    let (service, _) = DirectoryService::new(managed).with_journal(&path).expect("reattach");
    let handle =
        Server::spawn(Arc::new(service), ServerConfig { threads: 2, ..ServerConfig::default() })
            .expect("bind recovered");
    let mut client = Client::connect(handle.addr()).expect("connect recovered");
    let err = client.apply_ldif(mailed).expect_err("torn cutover must not half-apply");
    assert_eq!(err.server_code(), Some("rolled-back"), "{err}");

    // Retry on the recovered generation: propose again (the staged slot
    // was in-memory) and commit — no fault this time.
    client.schema_propose("allow-attr person mail").expect("stages again");
    let commit = client.schema_commit().expect("retry commits");
    assert_eq!(json(&commit).get("epoch").and_then(Value::as_u64), Some(1), "{commit}");
    client.apply_ldif(mailed).expect("evolved epoch accepts mail");
    let len_before = client.ping().expect("size");
    client.shutdown_server().expect("shutdown");
    handle.wait();

    // Generation 3: the committed schema record replays — the evolved
    // epoch survives the crash, byte-identically.
    let (dir, _) = white_pages_instance();
    let managed =
        ManagedDirectory::with_instance(white_pages_schema(), dir).expect("figure 1 is legal");
    let (service, _) = DirectoryService::new(managed).with_journal(&path).expect("reattach");
    assert_eq!(service.len(), len_before, "committed tx replays");
    let expected = bschema_core::evolution::plan::parse_proposal(
        &white_pages_schema(),
        "allow-attr person mail",
    )
    .expect("proposal parses")
    .target;
    assert_eq!(
        schema_hash(&service.current_schema()),
        schema_hash(&expected),
        "recovery must land on the evolved epoch"
    );
    assert_eq!(service.schema_epoch(), 1, "the replayed schema record counts as an epoch");
    let handle =
        Server::spawn(Arc::new(service), ServerConfig { threads: 2, ..ServerConfig::default() })
            .expect("bind generation 3");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mailed2 = "dn: uid=late,ou=databases,ou=attLabs,o=att\nobjectClass: person\n\
                   objectClass: top\nuid: late\nname: late\nmail: late@example.org\n";
    client.apply_ldif(mailed2).expect("replayed epoch accepts mail");
    client.shutdown_server().expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(checkpoint_path(&path));
}

/// Invariant 5: a live replica crosses the evolution with its primary.
/// The schema record ships over `SHIP` like any committed transaction;
/// the follower applies it (instead of fataling on an unknown record)
/// and converges to byte-identical state under the evolved schema.
#[test]
fn replica_converges_byte_identically_across_an_evolution() {
    let path = std::env::temp_dir()
        .join(format!("bschema-evolution-replica-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(checkpoint_path(&path));

    let (dir, _) = white_pages_instance();
    let schema = white_pages_schema();
    let managed = ManagedDirectory::with_instance(schema.clone(), dir).expect("figure 1 is legal");
    let (service, _) = DirectoryService::new(managed).with_journal(&path).expect("journal");
    let primary = Arc::new(service);
    let handle = Server::spawn(primary.clone(), ServerConfig { threads: 2, ..Default::default() })
        .expect("bind primary");
    let addr = handle.addr().to_string();

    // Follower bootstraps pre-evolution.
    let (managed, cursor) = Follower::bootstrap_state(&addr, &schema).expect("bootstrap");
    let replication = Arc::new(ReplicationState::default());
    let replica = Arc::new(DirectoryService::new(managed).with_replication(replication.clone()));
    let mut follower =
        Follower::attach(&addr, schema.clone(), replica.clone(), replication, cursor);

    // Pre-evolution commit, then the cutover, then a commit only legal
    // under the evolved schema.
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .apply_ldif(
            "dn: uid=pre,ou=databases,ou=attLabs,o=att\nobjectClass: person\n\
             objectClass: top\nuid: pre\nname: pre\n",
        )
        .expect("pre-evolution commit");
    client.schema_propose("allow-attr person mail").expect("stages");
    let commit = client.schema_commit().expect("cutover commits");
    assert_eq!(json(&commit).get("epoch").and_then(Value::as_u64), Some(1), "{commit}");
    client
        .apply_ldif(
            "dn: uid=post,ou=databases,ou=attLabs,o=att\nobjectClass: person\n\
             objectClass: top\nuid: post\nname: post\nmail: post@example.org\n",
        )
        .expect("post-evolution commit");

    // The follower streams everything — including the schema record —
    // and converges byte-identically, on the evolved epoch.
    for _ in 0..20 {
        let report = follower.sync_once().expect("sync passes");
        if report.applied == 0 && !report.bootstrapped {
            break;
        }
    }
    assert_eq!(
        replica.snapshot().canonical_bytes(),
        primary.snapshot().canonical_bytes(),
        "replica must converge byte-identically across the evolution"
    );
    assert_eq!(
        schema_hash(&replica.current_schema()),
        schema_hash(&primary.current_schema()),
        "replica must adopt the shipped epoch"
    );
    assert_eq!(replica.schema_epoch(), 1, "the shipped schema record bumps the replica epoch");

    // A post-evolution re-bootstrap also works: the primary's fresh
    // checkpoint now hashes under the evolved schema, which the
    // follower adopts from the embedded DSL instead of fataling.
    // (Drop the follower first — its cached SHIP connection would
    // otherwise pin one of the primary's worker threads.)
    drop(follower);
    let (managed2, _cursor2) =
        Follower::bootstrap_state(&addr, &schema).expect("re-bootstrap with a stale boot schema");
    assert_eq!(
        schema_hash(managed2.schema()),
        schema_hash(&primary.current_schema()),
        "bootstrap must adopt the primary's evolved schema"
    );

    client.shutdown_server().expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(checkpoint_path(&path));
}
