//! Loopback integration suite for `bschema-server`: the schema-on-the-wire
//! guarantees, exercised over real TCP connections.
//!
//! The invariants under test are the server's whole reason to exist:
//!
//! 1. **Every committed transaction leaves a legal instance** (§3 checked
//!    via the §4 incremental engine inside the guarded path).
//! 2. **Every rejected transaction leaves the instance byte-identical**
//!    (`DirectoryInstance::canonical_bytes`) and reports a stable,
//!    machine-readable code.
//! 3. **Concurrent clients never observe a torn instance** — searches run
//!    on immutable snapshots, so a reader sees the old or the new legal
//!    directory, never a half-applied transaction. This holds even when a
//!    fault plan panics a worker mid-request.
//! 4. **Sharding is invisible to correctness** — on a `--shards N`
//!    backend, racing single-shard and cross-shard transactions commit
//!    or roll back atomically across every shard they touch, and the
//!    fan-out merge a reader sees is always §3-legal.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use bschema_core::legality::LegalityChecker;
use bschema_core::paper::{white_pages_instance, white_pages_schema};
use bschema_core::sharded::shard_of_root_rdn;
use bschema_core::ManagedDirectory;
use bschema_directory::{ldif, Rdn};
use bschema_faults::{silence_injected_panics, site_from_seed, FaultPlan};
use bschema_obs::json::Value;
use bschema_obs::{names, MetricsRegistry, SloPolicy};
use bschema_server::{Client, ClientError, DirectoryService, Server, ServerConfig, ServiceLimits};
use bschema_workload::multi_org_base;

fn white_pages_service() -> DirectoryService {
    let (dir, _) = white_pages_instance();
    let managed =
        ManagedDirectory::with_instance(white_pages_schema(), dir).expect("figure 1 is legal");
    DirectoryService::new(managed)
}

fn spawn_white_pages(threads: usize) -> bschema_server::ServerHandle {
    let config = ServerConfig { threads, ..ServerConfig::default() };
    Server::spawn(Arc::new(white_pages_service()), config).expect("bind loopback")
}

/// A legal person insertion under `ou=databases,ou=attLabs,o=att`.
fn person_ldif(uid: &str) -> String {
    format!(
        "dn: uid={uid},ou=databases,ou=attLabs,o=att\n\
         objectClass: person\nobjectClass: top\nuid: {uid}\nname: {uid} tester\n"
    )
}

/// An insertion that violates the structure schema: a person may not have
/// children (`forbid_rel(person, Child, top)`).
fn illegal_ldif() -> &'static str {
    "dn: uid=intruder,uid=suciu,ou=databases,ou=attLabs,o=att\n\
     objectClass: person\nobjectClass: top\nuid: intruder\nname: intruder\n"
}

/// Dumps the whole directory over the wire and checks §3 legality
/// client-side — the server's word is not taken for it.
fn assert_wire_instance_legal(addr: std::net::SocketAddr) -> usize {
    let mut client = Client::connect(addr).expect("connect for legality dump");
    let text = client.search(None, "sub", "(objectClass=top)", None).expect("dump search");
    let mut dir = ldif::load(&text).expect("server emitted loadable LDIF");
    dir.prepare();
    let schema = white_pages_schema();
    let report = LegalityChecker::new(&schema).check(&dir);
    assert!(report.is_legal(), "wire-visible instance is illegal:\n{report}");
    dir.len()
}

/// The headline test: ≥8 concurrent clients mixing searches with
/// transactions that race pairwise for the same RDN. Exactly one of each
/// racing pair may commit; the loser must see a structured `invalid-tx`
/// rejection; illegal insertions must see `rolled-back`; and the final
/// instance must be legal with exactly the winners present.
#[test]
fn concurrent_clients_mix_searches_and_conflicting_transactions() {
    let handle = spawn_white_pages(4);
    let addr = handle.addr();
    let initial_len = handle.service().len();

    let mut threads = Vec::new();

    // 4 searcher clients: alternate subtree and one-level searches and
    // require every result to be parseable, legal LDIF.
    for s in 0..4 {
        threads.push(thread::spawn(move || {
            let mut client = Client::connect(addr).expect("searcher connects");
            for i in 0..25 {
                let (scope, base, filter) = if (s + i) % 2 == 0 {
                    ("sub", None, "(objectClass=person)")
                } else {
                    ("one", Some("ou=attLabs,o=att"), "(objectClass=top)")
                };
                let text = client.search(base, scope, filter, None).expect("search succeeds");
                let dir = ldif::load(&text).expect("search results are loadable LDIF");
                assert!(dir.len() >= 2, "scope {scope} returned only {} entries", dir.len());
            }
            client.unbind().expect("clean unbind");
        }));
    }

    // 8 writer clients in 4 racing pairs: both members of pair `p` insert
    // `uid=conc<p>` under the same parent. The apply-time duplicate-RDN
    // check makes the race outcome exact: one commit, one `invalid-tx`.
    // Each writer also fires one illegal insertion, which must always be
    // `rolled-back`.
    let mut writer_handles = Vec::new();
    for w in 0..8 {
        writer_handles.push(thread::spawn(move || {
            let mut client = Client::connect(addr).expect("writer connects");
            let won = match client.apply_ldif(&person_ldif(&format!("conc{}", w / 2))) {
                Ok(receipt) => {
                    assert_eq!(receipt.ops, 1);
                    true
                }
                Err(e) => {
                    assert_eq!(
                        e.server_code(),
                        Some("invalid-tx"),
                        "RDN-race loser got unexpected rejection: {e}"
                    );
                    false
                }
            };
            let err = client.apply_ldif(illegal_ldif()).expect_err("illegal tx must be refused");
            assert_eq!(err.server_code(), Some("rolled-back"), "{err}");
            // The session survives its rejections.
            assert!(client.ping().expect("ping after rejection") >= initial_len);
            client.unbind().expect("clean unbind");
            won
        }));
    }

    let mut wins = [0usize; 4];
    for (w, t) in writer_handles.into_iter().enumerate() {
        if t.join().expect("writer thread") {
            wins[w / 2] += 1;
        }
    }
    for t in threads {
        t.join().expect("searcher thread");
    }
    assert_eq!(wins, [1, 1, 1, 1], "each RDN race must have exactly one winner");

    let final_len = assert_wire_instance_legal(addr);
    assert_eq!(final_len, initial_len + 4, "winners and only winners are present");
    let mut client = Client::connect(addr).expect("final check client");
    for p in 0..4 {
        let text =
            client.search(None, "sub", &format!("(uid=conc{p})"), None).expect("winner lookup");
        assert_eq!(
            ldif::load(&text).expect("loadable").len(),
            1,
            "uid=conc{p} must exist exactly once"
        );
    }
    client.shutdown_server().expect("shutdown");
    handle.wait();
}

/// Invariant 2, measured at the byte level: every rejection code leaves
/// `canonical_bytes` untouched.
#[test]
fn rejected_transactions_leave_the_instance_byte_identical() {
    let handle = spawn_white_pages(2);
    let addr = handle.addr();
    let before = handle.service().snapshot().canonical_bytes();

    let mut client = Client::connect(addr).expect("connect");
    let cases: &[(&str, &str)] = &[
        (illegal_ldif(), "rolled-back"),
        ("dn: uid=ghost,o=att\nchangetype: delete\n", "invalid-tx"),
        ("dn: uid=orphan,ou=nowhere,o=att\nobjectClass: person\n", "invalid-tx"),
        ("this is not ldif at all\n", "bad-ldif"),
    ];
    for (ldif_body, want_code) in cases {
        let err = client.apply_ldif(ldif_body).expect_err("must be refused");
        assert_eq!(err.server_code(), Some(*want_code), "{err}");
        assert_eq!(
            handle.service().snapshot().canonical_bytes(),
            before,
            "rejection {want_code} disturbed the instance"
        );
    }
    client.shutdown_server().expect("shutdown");
    handle.wait();
}

/// One refusal, one wording: an undecodable TXN and a MODIFY of a
/// missing DN are answered with the same `ERR` code and the same detail
/// bytes by a single engine and by a 4-shard router over the same base —
/// partitioning (Theorem 4.1) changes no verdict and no word of it.
#[test]
fn both_backends_word_a_refused_write_the_same_way() {
    let base = || multi_org_base(4, 12, 0xC0FFEE);
    let single = DirectoryService::new(
        ManagedDirectory::with_instance(white_pages_schema(), base()).expect("legal base"),
    );
    let sharded =
        DirectoryService::new_sharded(white_pages_schema(), base(), 4).expect("legal base");
    let refusals: Vec<Vec<(String, String)>> = [single, sharded]
        .into_iter()
        .map(|service| {
            let handle = Server::spawn(Arc::new(service), ServerConfig::default()).expect("bind");
            let mut client = Client::connect(handle.addr()).expect("connect");
            let refused = |e: ClientError| match e {
                ClientError::Server { code, detail } => (code, detail),
                other => panic!("expected a refusal, got {other}"),
            };
            let txn = client
                .apply_ldif("dn: uid=ghost,o=org0\nchangetype: delete\n")
                .map(|_| ())
                .map_err(refused)
                .expect_err("undecodable TXN refused");
            let modify = client
                .modify_lines("dn: uid=ghost,o=org1\nreplace: name: x\n")
                .map(|_| ())
                .map_err(refused)
                .expect_err("MODIFY of a missing DN refused");
            client.shutdown_server().expect("shutdown");
            handle.wait();
            vec![txn, modify]
        })
        .collect();
    assert_eq!(refusals[0][0].0, "invalid-tx", "{:?}", refusals[0]);
    assert_eq!(refusals[0][1].0, "no-such-entry", "{:?}", refusals[0]);
    assert_eq!(refusals[0], refusals[1], "single engine vs 4 shards");
}

/// Wire limits hold on the server socket: an oversized `TXN` payload is
/// answered `ERR limit` and the connection is cut, while a fresh,
/// well-behaved client is unaffected.
#[test]
fn oversized_frames_are_refused_at_the_wire() {
    let service = white_pages_service().with_limits(ServiceLimits {
        wire: bschema_server::WireLimits { max_payload_len: 256, ..Default::default() },
        ..Default::default()
    });
    let handle =
        Server::spawn(Arc::new(service), ServerConfig { threads: 2, ..Default::default() })
            .expect("bind");
    let addr = handle.addr();

    let mut client = Client::connect(addr).expect("connect");
    let huge = person_ldif(&"x".repeat(600));
    let err = client.apply_ldif(&huge).expect_err("oversized payload refused");
    assert_eq!(err.server_code(), Some("limit"), "{err}");

    let mut fresh = Client::connect(addr).expect("fresh client");
    assert_eq!(fresh.ping().expect("server still serves"), 6);
    fresh.shutdown_server().expect("shutdown");
    handle.wait();
}

/// Backpressure edge: with one worker and a depth-1 queue, holding the
/// worker with an open session makes further connections bounce with a
/// structured `busy` — the server refuses loudly instead of buffering
/// without bound.
#[test]
fn overloaded_server_answers_busy() {
    let config = ServerConfig { threads: 1, queue_depth: 1, ..ServerConfig::default() };
    let handle = Server::spawn(Arc::new(white_pages_service()), config).expect("bind");
    let addr = handle.addr();

    // Occupy the only worker, then park one connection in the queue.
    let mut holder = Client::connect(addr).expect("holder connects");
    holder.ping().expect("holder owns the worker");
    let _queued = Client::connect(addr).expect("queued connection");

    let mut saw_busy = false;
    for _ in 0..20 {
        thread::sleep(Duration::from_millis(25));
        let Ok(mut probe_client) = Client::connect(addr) else { continue };
        match probe_client.ping() {
            Err(ref e) if e.server_code() == Some("busy") => {
                saw_busy = true;
                break;
            }
            // The acceptor may not have processed earlier sockets yet, or
            // the refused connection died before the reply: retry.
            _ => continue,
        }
    }
    assert!(saw_busy, "full queue never produced ERR busy");

    holder.shutdown_server().expect("shutdown");
    handle.wait();
}

/// Runs a fixed client workload against `addr`, tolerating per-request
/// failures (a chaos run may panic any single request), and returns the
/// uids whose insertion the server *positively confirmed* committed.
fn tolerant_workload(addr: std::net::SocketAddr, tag: &str) -> Vec<String> {
    let mut committed = Vec::new();
    for step in 0..6 {
        let Ok(mut client) = Client::connect(addr) else { continue };
        let _ = client.ping();
        let _ = client.search(None, "sub", "(objectClass=person)", None);
        let uid = format!("{tag}{step}");
        if client.apply_ldif(&person_ldif(&uid)).is_ok() {
            committed.push(uid);
        }
        let _ = client.apply_ldif(illegal_ldif());
        let _ = client.search(Some("ou=attLabs,o=att"), "one", "(objectClass=top)", Some(10));
    }
    committed
}

/// Chaos: enumerate the `server.*` probe sites with an observer plan,
/// then — per seed — panic a worker at one seed-chosen site while a
/// concurrent reader hammers searches. Whatever the fault hits, readers
/// must only ever see loadable, *legal* instances (old or new, never
/// torn), every positively-confirmed commit must survive, and the final
/// instance must be legal.
#[test]
fn injected_worker_panics_never_tear_the_instance() {
    silence_injected_panics();

    // Census pass: which server-path sites does this workload visit?
    let census_plan = Arc::new(FaultPlan::observer());
    let service = white_pages_service().with_probe(census_plan.clone());
    let handle =
        Server::spawn(Arc::new(service), ServerConfig { threads: 3, ..Default::default() })
            .expect("bind census server");
    tolerant_workload(handle.addr(), "census");
    handle.shutdown();
    handle.wait();
    let census = census_plan.sites();
    assert!(
        census.keys().any(|site| site.starts_with("server.")),
        "census found no server-path sites: {census:?}"
    );

    let mut fired = 0u64;
    for seed in 0..6u64 {
        let (site, occurrence) =
            site_from_seed(&census, "server.", seed).expect("census has server sites");
        let plan = Arc::new(FaultPlan::fail_at_site(&site, occurrence));
        let service = white_pages_service().with_probe(plan.clone());
        let handle =
            Server::spawn(Arc::new(service), ServerConfig { threads: 3, ..Default::default() })
                .expect("bind chaos server");
        let addr = handle.addr();

        // Concurrent reader: every search that succeeds must return a
        // loadable, legal instance — the torn-state detector.
        let stop = Arc::new(AtomicBool::new(false));
        let reader_stop = stop.clone();
        let reader = thread::spawn(move || {
            let schema = white_pages_schema();
            let checker = LegalityChecker::new(&schema);
            while !reader_stop.load(Ordering::SeqCst) {
                let Ok(mut client) = Client::connect(addr) else { continue };
                if let Ok(text) = client.search(None, "sub", "(objectClass=top)", None) {
                    let mut dir = ldif::load(&text).expect("reader got unloadable LDIF");
                    dir.prepare();
                    let report = checker.check(&dir);
                    assert!(report.is_legal(), "reader saw an illegal instance:\n{report}");
                }
                thread::sleep(Duration::from_millis(5));
            }
        });

        let committed = tolerant_workload(addr, &format!("chaos{seed}x"));
        stop.store(true, Ordering::SeqCst);
        reader.join().expect("reader saw only legal instances");

        // Consistency after the storm: the service's own instance is
        // legal and every confirmed commit is present.
        let snapshot = handle.service().snapshot();
        let schema = white_pages_schema();
        let report = LegalityChecker::new(&schema).check(&snapshot);
        assert!(
            report.is_legal(),
            "seed {seed} fault at {site}:{occurrence} left an illegal instance:\n{report}"
        );
        for uid in &committed {
            assert!(
                snapshot.iter().any(|(_, e)| e.first_value("uid") == Some(uid)),
                "seed {seed} fault at {site}:{occurrence}: confirmed commit uid={uid} vanished"
            );
        }
        assert!(plan.injected() <= 1, "a plan injects at most one fault");
        fired += plan.injected();
        handle.shutdown();
        handle.wait();
    }
    assert!(fired >= 1, "no seed ever reached its injection point");
}

/// Crash-recovery over the wire: commits journaled by one server
/// generation are replayed into the next; rejected transactions are not.
#[test]
fn journal_restart_recovers_wire_commits() {
    let path = std::env::temp_dir()
        .join(format!("bschema-server-loopback-{}-journal.ldif", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let (service, replayed) =
        white_pages_service().with_journal(&path).expect("attach fresh journal");
    assert_eq!(replayed, 0);
    let handle =
        Server::spawn(Arc::new(service), ServerConfig { threads: 2, ..Default::default() })
            .expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.apply_ldif(&person_ldif("jrn1")).expect("first commit");
    client.apply_ldif(&person_ldif("jrn2")).expect("second commit");
    let err = client.apply_ldif(illegal_ldif()).expect_err("refused");
    assert_eq!(err.server_code(), Some("rolled-back"));
    let len_before = client.ping().expect("size");
    client.shutdown_server().expect("shutdown");
    handle.wait();

    // Next generation: a fresh figure-1 instance plus the journal.
    let (service, replayed) = white_pages_service().with_journal(&path).expect("reattach journal");
    assert_eq!(replayed, 2, "exactly the committed transactions replay");
    assert_eq!(service.len(), len_before);
    let handle =
        Server::spawn(Arc::new(service), ServerConfig { threads: 2, ..Default::default() })
            .expect("bind recovered");
    let final_len = assert_wire_instance_legal(handle.addr());
    assert_eq!(final_len, len_before);
    let mut client = Client::connect(handle.addr()).expect("connect recovered");
    for uid in ["jrn1", "jrn2"] {
        let text = client.search(None, "sub", &format!("(uid={uid})"), None).expect("lookup");
        assert_eq!(ldif::load(&text).expect("loadable").len(), 1, "uid={uid} recovered");
    }
    client.shutdown_server().expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_file(&path);
}

/// A refused write is certified on a copy before anything is journalled,
/// so it appends nothing — on either backend, for TXN and MODIFY alike.
/// (It used to leave its begin records behind as an uncommitted tail;
/// checkpoints are triggered by commits only, so a client looping on an
/// illegal request grew the journal without bound.)
#[test]
fn refused_writes_append_nothing_on_either_backend() {
    use bschema_core::journal::shard_journal_path;
    use bschema_core::updates::Mod;

    let dir = std::env::temp_dir().join(format!("bschema-refusals-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let drop_name = [Mod::DeleteAttribute { attribute: "name".into() }];

    let single_path = dir.join("single.wal");
    let (single, _) = white_pages_service().with_journal(&single_path).expect("fresh journal");
    let family_path = dir.join("family.wal");
    let (sharded, _) =
        DirectoryService::new_sharded(white_pages_schema(), multi_org_base(4, 12, 0xC0FFEE), 2)
            .expect("multi-org base is legal")
            .with_journal(&family_path)
            .expect("fresh journal family");
    let family_files = (0..2).map(|k| shard_journal_path(&family_path, k)).collect();

    // (service, its journal files, a legal TXN and a person it creates,
    //  a TXN the schema refuses: a person under that person)
    let cases: [(&DirectoryService, Vec<std::path::PathBuf>, String, String, String); 2] = [
        (
            &single,
            vec![single_path],
            person_ldif("keeper"),
            "uid=keeper,ou=databases,ou=attLabs,o=att".to_owned(),
            illegal_ldif().to_owned(),
        ),
        (
            &sharded,
            family_files,
            org_person_ldif("keeper", "org0"),
            "uid=keeper,o=org0".to_owned(),
            org_person_ldif("intruder", "org0").replace(",o=org0", ",uid=keeper,o=org0"),
        ),
    ];
    for (service, files, legal, person_dn, illegal) in cases {
        service.apply_ldif_tx(&legal).expect("a commit, so there is a journal to grow");
        let lengths = || -> Vec<u64> {
            files.iter().map(|f| std::fs::metadata(f).map_or(0, |m| m.len())).collect()
        };
        let (before, entries) = (lengths(), service.len());
        assert!(before.iter().sum::<u64>() > 0, "{files:?} hold the commit");
        for _ in 0..1_000 {
            let err = service.apply_ldif_tx(&illegal).expect_err("refused TXN");
            assert_eq!(err.code, "rolled-back", "{err:?}");
            let err = service.modify(&person_dn, &drop_name).expect_err("refused MODIFY");
            assert_eq!(err.code, "rolled-back", "{err:?}");
        }
        assert_eq!(lengths(), before, "refusals grew a journal file of {files:?}");
        assert_eq!(service.len(), entries);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A begin flush that fails refuses the write with `ERR io` on either
/// backend, for a `TXN` and a `SCHEMA COMMIT` alike, and changes nothing.
/// Every journal file is swapped for a directory after the journal was
/// opened, so the engine's append cannot open it.
#[test]
fn a_failed_begin_flush_answers_io_on_either_backend() {
    use bschema_core::journal::shard_journal_path;

    let dir = std::env::temp_dir().join(format!("bschema-begin-flush-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let single_path = dir.join("single.wal");
    let (single, _) = white_pages_service().with_journal(&single_path).expect("fresh journal");
    let family_path = dir.join("family.wal");
    let (sharded, _) =
        DirectoryService::new_sharded(white_pages_schema(), multi_org_base(4, 12, 0xC0FFEE), 2)
            .expect("multi-org base is legal")
            .with_journal(&family_path)
            .expect("fresh journal family");
    let family_files = (0..2).map(|k| shard_journal_path(&family_path, k)).collect();

    let cases: [(DirectoryService, Vec<std::path::PathBuf>, String); 2] = [
        (single, vec![single_path], person_ldif("blocked")),
        (sharded, family_files, org_person_ldif("blocked", "org0")),
    ];
    for (service, files, legal) in cases {
        for file in &files {
            let _ = std::fs::remove_file(file);
            std::fs::create_dir(file).expect("the journal path becomes a directory");
        }
        let handle =
            Server::spawn(Arc::new(service), ServerConfig { threads: 2, ..Default::default() })
                .expect("bind");
        let mut client = Client::connect(handle.addr()).expect("connect");
        let entries = client.ping().expect("size");
        let err = client.apply_ldif(&legal).expect_err("the begin flush fails");
        assert_eq!(err.server_code(), Some("io"), "{files:?}: {err}");
        client.schema_propose("allow-attr person mail").expect("stages");
        let err = client.schema_commit().expect_err("the begin flush fails");
        assert_eq!(err.server_code(), Some("io"), "{files:?}: {err}");
        assert_eq!(client.ping().expect("size"), entries, "{files:?}: a refusal changed |D|");
        let status = client.schema_status().expect("STATUS answers");
        assert!(status.contains("\"epoch\":0"), "{files:?}: a refused cutover counted: {status}");
        client.shutdown_server().expect("shutdown");
        handle.wait();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The running server's tripwire for the O(|ΔD|) write: 200 served
/// TXN / MODIFY requests on either backend post exactly the entries they
/// insert or modify to the maintained index (`managed.index_posted`) and
/// never renumber or rebuild it (`managed.index_rebuilt`).
#[test]
fn served_writes_post_their_delta_and_never_rebuild_the_index() {
    const ORGS: usize = 8;
    // Every shard holds at least one org of ≈120 entries, so a write of
    // |ΔD| ≤ 2 stays under the `len / 32` rebuild bound wherever it lands.
    let base = || multi_org_base(ORGS, 120, 0xD1FF);
    for shards in [1, 2] {
        let recorder = Arc::new(bschema_obs::Recorder::new());
        let service = match shards {
            1 => DirectoryService::new(
                ManagedDirectory::with_instance(white_pages_schema(), base()).expect("legal base"),
            ),
            n => {
                DirectoryService::new_sharded(white_pages_schema(), base(), n).expect("legal base")
            }
        };
        let service = Arc::new(service.with_probe(recorder.clone()));
        let handle = Server::spawn(service.clone(), ServerConfig::default()).expect("bind");
        let mut client = Client::connect(handle.addr()).expect("connect");

        let (mut requests, mut posted, entries) = (0, 0, service.len());
        for i in 0..50 {
            let org = format!("org{}", i % ORGS);
            // An insertion — every tenth one of two entries under two
            // organizations, which two shards may own.
            let mut ldif = org_person_ldif(&format!("w{i}"), &org);
            posted += 1;
            if i % 10 == 0 {
                ldif.push('\n');
                ldif.push_str(&org_person_ldif(
                    &format!("x{i}"),
                    &format!("org{}", (i + 1) % ORGS),
                ));
                posted += 1;
            }
            client.apply_ldif(&ldif).expect("legal TXN");
            // Two modifications of the entry just inserted.
            for mods in
                [format!("add: telephoneNumber: +1 555 {i}"), format!("replace: name: w{i}")]
            {
                client.modify_lines(&format!("dn: uid=w{i},o={org}\n{mods}\n")).expect("MODIFY");
                posted += 1;
            }
            // A deletion posts nothing; un-posting is not counted.
            client
                .apply_ldif(&format!("dn: uid=w{i},o={org}\nchangetype: delete\n"))
                .expect("delete");
            requests += 4;
        }
        assert_eq!((requests, service.len()), (200, entries + 5), "{shards} shard(s)");
        let metrics = recorder.metrics();
        // One guarded apply per request and shard it touches.
        assert!(metrics.counter("managed.tx_applied") >= 200, "{shards} shard(s)");
        assert_eq!(metrics.counter("managed.index_rebuilt"), 0, "{shards} shard(s)");
        assert_eq!(metrics.counter("managed.index_posted"), posted, "{shards} shard(s)");
        for k in 0..shards {
            service.shard_snapshot(k).check_prepared().expect("published snapshots are maintained");
        }
        client.shutdown_server().expect("shutdown");
        handle.wait();
    }
}

/// The running server's tripwire for Figure 5′: 200 served requests on
/// either backend — subtree deletions deep in an organization, every
/// tenth one across two organizations (which two shards may own), and
/// class-changing MODIFYs, one of them refused — never evaluate a
/// whole-instance query (`incremental.recheck.*`, which only the Figure 5
/// oracle emits) and look at no more entries than the deleted subtrees'
/// ancestor chains hold (`incremental.scoped_entries`). Each insertion
/// wave (`incremental.check_insertions`, one per TXN and shard it
/// touches) is Figure 5′'s: content, keys and the scoped structure rows,
/// three leaves. And what the readers are given is the version the
/// engine installed, not a copy.
#[test]
fn served_deletes_recheck_their_ancestor_chain_and_publish_without_copying() {
    const ORGS: usize = 8;
    let base = || multi_org_base(ORGS, 120, 0xD1FF);
    for shards in [1, 2] {
        let recorder = Arc::new(bschema_obs::Recorder::new());
        let service = match shards {
            1 => DirectoryService::new(
                ManagedDirectory::with_instance(white_pages_schema(), base()).expect("legal base"),
            ),
            n => {
                DirectoryService::new_sharded(white_pages_schema(), base(), n).expect("legal base")
            }
        };
        let service = Arc::new(service.with_probe(recorder.clone()));
        let handle = Server::spawn(service.clone(), ServerConfig::default()).expect("bind");
        let mut client = Client::connect(handle.addr()).expect("connect");

        // The deepest unit of each organization: (DN, DN depth, children).
        let snapshot = service.snapshot();
        let forest = snapshot.forest();
        let anchors: Vec<(String, usize, usize)> = forest
            .roots()
            .map(|org| {
                let deepest = forest
                    .descendants(org)
                    .filter(|&e| snapshot.entry(e).is_some_and(|e| e.has_class("orgUnit")))
                    .max_by_key(|&e| forest.depth(e))
                    .expect("generated organizations have units");
                let dn = snapshot.dn(deepest).expect("named").to_string();
                (dn, forest.depth(deepest) + 1, forest.child_count(deepest))
            })
            .collect();
        assert_eq!(anchors.len(), ORGS);
        let depth = anchors.iter().map(|a| a.1).max().expect("orgs") + 2;
        let fan_out = anchors.iter().map(|a| a.2).max().expect("orgs") + 1;
        assert!(depth >= 4, "the chain above a deletion is worth walking: {anchors:?}");

        let (mut requests, mut roots, entries) = (0, 0, service.len());
        for i in 0..50 {
            let anchor = &anchors[i % ORGS].0;
            let other = format!("org{}", (i + 1) % ORGS);
            let unit = format!("ou=t{i},{anchor}");
            let mut insert = format!(
                "dn: {unit}\nobjectClass: orgUnit\nobjectClass: orgGroup\nobjectClass: top\n\
                 ou: t{i}\n\n{}",
                org_person_ldif(&format!("t{i}"), "_").replace("o=_", &unit)
            );
            let mut delete = format!(
                "dn: uid=t{i},{unit}\nchangetype: delete\n\ndn: {unit}\nchangetype: delete\n"
            );
            roots += 1;
            if i % 10 == 0 {
                insert.push('\n');
                insert.push_str(&org_person_ldif(&format!("x{i}"), &other));
                delete.push_str(&format!("\ndn: uid=x{i},o={other}\nchangetype: delete\n"));
                roots += 1;
            }
            client.apply_ldif(&insert).expect("legal TXN");
            client
                .modify_lines(&format!("dn: uid=t{i},{unit}\nadd: telephoneNumber: +1 555 {i}\n"))
                .expect("MODIFY");
            // A class-changing MODIFY — once, one the schema refuses: an
            // entry that stops being a person starves nobody here, but
            // keeps a person's attributes.
            let change = if i == 7 {
                "deletevalue: objectClass: person"
            } else {
                "add: objectClass: researcher"
            };
            let changed = client.modify_lines(&format!("dn: uid=t{i},{unit}\n{change}\n"));
            assert_eq!(changed.is_ok(), i != 7, "{changed:?}");
            client.apply_ldif(&delete).expect("delete");
            requests += 4;
        }
        assert_eq!((requests, service.len()), (200, entries), "{shards} shard(s)");

        let counters = recorder.metrics().counters();
        let family = |prefix: &str| -> u64 {
            counters.iter().filter(|(key, _)| key.starts_with(prefix)).map(|(_, n)| n).sum()
        };
        assert_eq!(family("incremental.recheck."), 0, "{shards} shard(s): {counters:?}");
        assert_eq!(family("managed.index_rebuilt"), 0, "{shards} shard(s)");
        // Every insertion wave is Figure 5′'s three checks and nothing
        // under them: no Δ-query row, no nested span.
        let tree = recorder.tracer().tree();
        let waves: Vec<_> =
            tree.iter().filter(|root| root.name == "incremental.check_insertions").collect();
        assert!(waves.len() >= 50 && (shards > 1 || waves.len() == 50), "{}", waves.len());
        for wave in &waves {
            let checks: Vec<_> = wave.children.iter().map(|c| c.name).collect();
            assert_eq!(checks, ["content_delta", "keys", "structure_scoped"], "{}", wave.shape());
            assert!(wave.children.iter().all(|c| c.children.is_empty()), "{}", wave.shape());
        }
        // Every deleted subtree had the orgGroups above it re-tested, up to
        // the first that kept a person …
        assert!(family("incremental.scoped.require_descendant") >= roots as u64, "{counters:?}");
        // … each by one look at the entry and one at the posting list;
        // the refused class change looked at its chain and its children.
        let examined = family("incremental.scoped_entries");
        let bound = (roots * 2 * depth + 2 * depth + fan_out) as u64;
        assert!(
            (1..=bound).contains(&examined),
            "{shards} shard(s): {examined} entries examined for {roots} deleted subtrees at \
             depth ≤ {depth}, fan-out ≤ {fan_out}"
        );

        // The last request committed: the readers' snapshot of every
        // shard is the allocation its engine holds live.
        for k in 0..shards {
            let (served, live) = (service.shard_snapshot(k), service.live_instance(k));
            assert!(Arc::ptr_eq(&served, &live), "{shards} shard(s): shard {k} was copied");
        }
        if shards == 1 {
            assert!(Arc::ptr_eq(&service.snapshot(), &service.live_instance(0)));
        }
        client.shutdown_server().expect("shutdown");
        handle.wait();
    }
}

/// Number of generated organizations in the sharded loopback base.
const SHARDED_ORGS: usize = 4;

/// A legal person insertion directly under a generated org root.
fn org_person_ldif(uid: &str, org: &str) -> String {
    format!(
        "dn: uid={uid},o={org}\n\
         objectClass: person\nobjectClass: top\nuid: {uid}\nname: {uid} tester\n"
    )
}

/// Invariant 4: 8 clients race single-shard and cross-shard transactions
/// against a 4-shard backend while a live reader dumps the fan-out merge
/// and checks §3 legality client-side. Then two deterministic same-RDN
/// races: on a single shard (one winner, losers `invalid-tx`) and across
/// shards (the loser's *other-shard* half must leave no residue — the
/// 2-phase rollback observed over the wire).
#[test]
fn sharded_server_survives_racing_single_and_cross_shard_writers() {
    const SHARDS: usize = 4;
    let base = multi_org_base(SHARDED_ORGS, 12, 0xC0FFEE);
    let service = DirectoryService::new_sharded(white_pages_schema(), base, SHARDS)
        .expect("multi-org base is legal");
    let handle =
        Server::spawn(Arc::new(service), ServerConfig { threads: 4, ..ServerConfig::default() })
            .expect("bind sharded loopback");
    let addr = handle.addr();
    assert_eq!(handle.service().shards(), SHARDS);
    let initial_len = handle.service().len();

    // Two org roots guaranteed to live on distinct shards, so the
    // cross-shard bodies below really take the 2-phase path.
    let shard_of = |name: &str| shard_of_root_rdn(&Rdn::single("o", name), SHARDS);
    let org_a = "org0".to_string();
    let org_b = (1..SHARDED_ORGS)
        .map(|i| format!("org{i}"))
        .find(|n| shard_of(n) != shard_of(&org_a))
        .expect("four fixed org names cannot all hash to one of four shards here");

    // Live reader: every dump that succeeds during the race is the
    // fan-out merge of the per-shard snapshots — it must be loadable
    // and legal at every instant, or a cross-shard commit was torn.
    let stop = Arc::new(AtomicBool::new(false));
    let reader_stop = stop.clone();
    let reader = thread::spawn(move || {
        let schema = white_pages_schema();
        let checker = LegalityChecker::new(&schema);
        let mut dumps = 0usize;
        while !reader_stop.load(Ordering::SeqCst) {
            let Ok(mut client) = Client::connect(addr) else { continue };
            if let Ok(text) = client.search(None, "sub", "(objectClass=top)", None) {
                let mut dir = ldif::load(&text).expect("reader got unloadable LDIF");
                dir.prepare();
                let report = checker.check(&dir);
                assert!(report.is_legal(), "reader saw an illegal merged instance:\n{report}");
                dumps += 1;
            }
            thread::sleep(Duration::from_millis(2));
        }
        dumps
    });

    // 8 writers: evens insert single-org persons (single-shard route),
    // odds insert pairs spanning both orgs (cross-shard 2-phase). Each
    // also fires one nameless cross-shard body that must be rolled back
    // on every shard it touched.
    let mut writers = Vec::new();
    for w in 0..8usize {
        let (org_a, org_b) = (org_a.clone(), org_b.clone());
        writers.push(thread::spawn(move || {
            let mut client = Client::connect(addr).expect("writer connects");
            let mut inserted = 0usize;
            for i in 0..6 {
                if w % 2 == 0 {
                    let org = if i % 2 == 0 { &org_a } else { &org_b };
                    let receipt = client
                        .apply_ldif(&org_person_ldif(&format!("w{w}s{i}"), org))
                        .expect("single-shard insert commits");
                    assert_eq!(receipt.ops, 1);
                    assert_eq!(receipt.shards, 1, "single-subtree tx crossed shards");
                    inserted += 1;
                } else {
                    let body = format!(
                        "{}\n{}",
                        org_person_ldif(&format!("w{w}x{i}a"), &org_a),
                        org_person_ldif(&format!("w{w}x{i}b"), &org_b),
                    );
                    let receipt = client.apply_ldif(&body).expect("cross-shard insert commits");
                    assert_eq!(receipt.ops, 2);
                    assert_eq!(receipt.shards, 2, "pair must span exactly two shards");
                    inserted += 2;
                }
            }
            // A nameless person is content-illegal: the cross-shard body
            // must report `rolled-back` and add nothing anywhere.
            let bad = format!(
                "dn: uid=bad{w},o={org_a}\n\
                 objectClass: person\nobjectClass: top\nuid: bad{w}\n\n{}",
                org_person_ldif(&format!("bad{w}b"), &org_b)
            );
            let err = client.apply_ldif(&bad).expect_err("illegal cross-shard tx refused");
            assert_eq!(err.server_code(), Some("rolled-back"), "{err}");
            client.unbind().expect("clean unbind");
            inserted
        }));
    }
    let mut expected_new = 0usize;
    for t in writers {
        expected_new += t.join().expect("writer thread");
    }

    // Same-RDN race on one shard: all four clients insert `uid=race` at
    // the same DN. Exactly one commits; losers see `invalid-tx`.
    let mut racers = Vec::new();
    for _ in 0..4 {
        let org_a = org_a.clone();
        racers.push(thread::spawn(move || {
            let mut client = Client::connect(addr).expect("racer connects");
            match client.apply_ldif(&org_person_ldif("race", &org_a)) {
                Ok(receipt) => {
                    assert_eq!(receipt.shards, 1);
                    true
                }
                Err(e) => {
                    assert_eq!(e.server_code(), Some("invalid-tx"), "{e}");
                    false
                }
            }
        }));
    }
    let single_winners =
        racers.into_iter().map(|t| t.join().expect("racer")).filter(|&w| w).count();
    assert_eq!(single_winners, 1, "single-shard RDN race must have exactly one winner");
    expected_new += 1;

    // Same-RDN race across shards: each client pairs the *conflicting*
    // `uid=xrace` on org_a's shard with a *unique* person on org_b's
    // shard. Exactly one pair commits; every loser's org_b half must
    // have been rolled back on the non-conflicting shard too.
    let mut racers = Vec::new();
    for w in 0..4usize {
        let (org_a, org_b) = (org_a.clone(), org_b.clone());
        racers.push(thread::spawn(move || {
            let mut client = Client::connect(addr).expect("cross racer connects");
            let body = format!(
                "{}\n{}",
                org_person_ldif("xrace", &org_a),
                org_person_ldif(&format!("xr{w}"), &org_b),
            );
            match client.apply_ldif(&body) {
                Ok(receipt) => {
                    assert_eq!(receipt.shards, 2);
                    Some(w)
                }
                Err(e) => {
                    assert_eq!(e.server_code(), Some("invalid-tx"), "{e}");
                    None
                }
            }
        }));
    }
    let cross_winners: Vec<usize> =
        racers.into_iter().filter_map(|t| t.join().expect("cross racer")).collect();
    assert_eq!(cross_winners.len(), 1, "cross-shard RDN race must have exactly one winner");
    expected_new += 2;

    stop.store(true, Ordering::SeqCst);
    let dumps = reader.join().expect("reader saw only legal merges");
    assert!(dumps > 0, "the live reader never completed a dump");

    // Final state over the wire: legal, exactly the winners present.
    let final_len = assert_wire_instance_legal(addr);
    assert_eq!(final_len, initial_len + expected_new, "exactly the committed entries persist");
    let mut client = Client::connect(addr).expect("final check client");
    let count = |client: &mut Client, filter: &str| {
        let text = client.search(None, "sub", filter, None).expect("final lookup");
        ldif::load(&text).expect("loadable").len()
    };
    assert_eq!(count(&mut client, "(uid=race)"), 1, "uid=race must exist exactly once");
    assert_eq!(count(&mut client, "(uid=xrace)"), 1, "uid=xrace must exist exactly once");
    for w in 0..4usize {
        let present = count(&mut client, &format!("(uid=xr{w})"));
        let want = usize::from(cross_winners.contains(&w));
        assert_eq!(
            present, want,
            "cross-race half uid=xr{w}: loser halves must be rolled back off org_b's shard"
        );
    }
    assert_eq!(count(&mut client, "(uid=bad0)"), 0, "rolled-back tx left residue");
    // Base-scoped search routes to org_b's shard alone and still sees
    // every committed entry under that root.
    let scoped = client
        .search(Some(&format!("o={org_b}")), "sub", "(objectClass=person)", None)
        .expect("base-scoped search");
    assert!(
        ldif::load(&scoped).expect("loadable").len() >= 6,
        "base-scoped search missed committed entries under o={org_b}"
    );
    client.shutdown_server().expect("shutdown");
    handle.wait();
}

// ---------------------------------------------------------------------------
// The health plane: HEALTH shape, WATCH streaming, SLO burn alerting.
// ---------------------------------------------------------------------------

/// The pinned per-shard signal set — dashboards and the CI lint key on
/// these names, so a rename here is an API break.
const SHARD_SIGNALS: [&str; 6] =
    ["entries", "journal_records", "journal_bytes", "snapshot_age_s", "prepares", "commits"];

/// Meters `service` — what `bschema serve` does to every directory it
/// serves — with an optional SLO and audit trail (`--slo`, `--audit`).
/// Returns the registry beside it.
fn metered(
    service: DirectoryService,
    slo: Option<&str>,
    audit: Option<std::path::PathBuf>,
) -> (DirectoryService, Arc<MetricsRegistry>) {
    let registry = Arc::new(MetricsRegistry::new());
    let mut service = service.with_metrics(registry.clone());
    if let Some(slo) = slo {
        service = service.with_slo(SloPolicy::parse(slo).expect("test SLO spec parses"), audit);
    }
    (service, registry)
}

fn signal_names(container: &Value) -> Vec<String> {
    container
        .get("signals")
        .and_then(Value::items)
        .unwrap_or(&[])
        .iter()
        .map(|s| s.get("name").and_then(Value::as_str).unwrap_or("?").to_owned())
        .collect()
}

/// The HEALTH surface is pinned: same sections and signal names at one
/// shard (no SLO differences aside) and at four, with the sharded-only
/// extras (◇c ledger, 2PC rollback gauge) appearing exactly when the
/// backend is sharded. The window and fitness sections report the
/// traffic sent, once a sampler tick has taken it in.
#[test]
fn health_shape_is_pinned_at_one_and_four_shards() {
    // --- 1 shard, with an SLO so the slo section and slo_burn signal exist.
    let (service, _) = metered(white_pages_service(), Some("p99=500ms,err=50%"), None);
    let handle =
        Server::spawn(Arc::new(service), ServerConfig { threads: 2, ..ServerConfig::default() })
            .expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.ping().expect("ping");
    client.apply_ldif(&person_ldif("healthy")).expect("legal insert commits");
    client.apply_ldif(illegal_ldif()).expect_err("illegal insert refused");
    handle.service().monitor_tick().expect("a metered service samples");
    let json = client.health_json().expect("HEALTH answers");
    let v = Value::parse(&json).expect("HEALTH is valid JSON");
    assert_eq!(v.get("shards_total").and_then(Value::as_u64), Some(1), "{json}");
    assert!(
        matches!(v.get("verdict").and_then(Value::as_str), Some("ok" | "warn" | "crit")),
        "{json}"
    );
    for key in ["ticks", "window", "fitness"] {
        assert!(v.get(key).is_some(), "missing section {key}: {json}");
    }
    assert_eq!(v.path("slo.policy.p99_us").and_then(Value::as_u64), Some(500_000), "{json}");
    assert_eq!(v.get("ledger"), Some(&Value::Null), "single backend has no ◇c ledger: {json}");
    // PING + two TXNs, one of them refused.
    assert_eq!(v.path("window.requests").and_then(Value::as_u64), Some(3), "{json}");
    assert_eq!(v.path("fitness.committed").and_then(Value::as_u64), Some(1), "{json}");
    assert_eq!(v.path("fitness.rejected.rolled-back").and_then(Value::as_u64), Some(1), "{json}");
    assert_eq!(v.path("fitness.legal_rate").and_then(Value::as_f64), Some(0.5), "{json}");
    let global = signal_names(&v);
    for name in ["request_p99_us", "err_rate", "queue_depth_max", "rollback_rate", "slo_burn"] {
        assert!(global.iter().any(|g| g == name), "missing global signal {name}: {global:?}");
    }
    assert!(!global.iter().any(|g| g == "ledger_min"), "ledger_min on a single backend");
    let shards = v.get("shards").and_then(Value::items).expect("shards array");
    assert_eq!(shards.len(), 1, "{json}");
    assert_eq!(signal_names(&shards[0]), SHARD_SIGNALS, "{json}");
    client.shutdown_server().expect("shutdown");
    handle.wait();

    // --- 4 shards, no SLO: per-shard shape ×4 plus the ledger extras.
    let base = multi_org_base(4, 20, 0xA11CE);
    let sharded = DirectoryService::new_sharded(white_pages_schema(), base, 4)
        .expect("multi-org base is legal");
    let (service, _) = metered(sharded, None, None);
    let handle =
        Server::spawn(Arc::new(service), ServerConfig { threads: 2, ..ServerConfig::default() })
            .expect("bind sharded");
    let mut client = Client::connect(handle.addr()).expect("connect");
    // One committed write so fitness/journal signals have something
    // real, taken into the window by one tick.
    client.apply_ldif(&org_person_ldif("healthprobe", "org0")).expect("probe insert commits");
    handle.service().monitor_tick().expect("a metered service samples");
    let json = client.health_json().expect("HEALTH answers");
    let v = Value::parse(&json).expect("HEALTH is valid JSON");
    assert_eq!(v.path("fitness.committed").and_then(Value::as_u64), Some(1), "{json}");
    assert_eq!(v.get("shards_total").and_then(Value::as_u64), Some(4), "{json}");
    assert_eq!(v.get("slo"), Some(&Value::Null), "no SLO configured: {json}");
    assert!(
        v.path("ledger.min").and_then(Value::as_u64).expect("sharded ◇c ledger present") >= 1,
        "{json}"
    );
    let global = signal_names(&v);
    assert!(global.iter().any(|g| g == "ledger_min"), "{global:?}");
    assert!(!global.iter().any(|g| g == "slo_burn"), "slo_burn without an SLO: {global:?}");
    let shards = v.get("shards").and_then(Value::items).expect("shards array");
    assert_eq!(shards.len(), 4, "{json}");
    for shard in shards {
        assert_eq!(signal_names(shard), SHARD_SIGNALS, "{json}");
    }
    client.shutdown_server().expect("shutdown");
    handle.wait();
}

/// WATCH streams sampler ticks as they are published: at least three,
/// strictly ordered, each a valid JSON frame carrying the burn rate and
/// the windowed delta, with a clean `watch-end` close. The test
/// publishes the ticks itself.
#[test]
fn watch_streams_at_least_three_ordered_ticks() {
    let (service, _) = metered(white_pages_service(), Some("p99=500ms"), None);
    let handle =
        Server::spawn(Arc::new(service), ServerConfig { threads: 2, ..ServerConfig::default() })
            .expect("bind");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");

    let watcher = thread::spawn(move || {
        let client = Client::connect(addr).expect("watcher connects");
        let mut frames = Vec::new();
        let streamed = client
            .watch(3, |seq, json| {
                frames.push((seq, json.to_owned()));
                true
            })
            .expect("watch stream completes");
        (streamed, frames)
    });
    // Traffic between ticks so the frames have deltas to carry; the
    // watcher sees only ticks published after it subscribed.
    while !watcher.is_finished() {
        client.ping().expect("ping");
        handle.service().monitor_tick().expect("a metered service samples");
        thread::sleep(Duration::from_millis(1));
    }
    let (streamed, frames) = watcher.join().expect("watcher thread");
    assert_eq!(streamed, 3);
    assert_eq!(frames.len(), 3);
    assert!(frames.windows(2).all(|w| w[0].0 < w[1].0), "ticks out of order: {frames:?}");
    for (_, json) in &frames {
        let v = Value::parse(json).expect("tick frame is valid JSON");
        assert!(v.get("burn").and_then(Value::as_f64).is_some(), "{json}");
        assert!(v.path("delta.counters").is_some(), "{json}");
    }

    client.shutdown_server().expect("shutdown");
    handle.wait();
}

/// The burn alert is edge-triggered: a run in which every transaction
/// violates the error budget raises exactly one alert however many
/// ticks burn, and the alert lands in all three sinks (metrics counter,
/// flight recorder via TRACE, audit trail).
#[test]
fn slo_burn_alert_fires_exactly_once_per_excursion() {
    let audit =
        std::env::temp_dir().join(format!("bschema-audit-{}-{}.log", std::process::id(), line!()));
    let _ = std::fs::remove_file(&audit);
    let flight = Arc::new(bschema_obs::FlightRecorder::new(16));
    // A 1% error budget: the all-rejections workload below burns it
    // instantly, and keeps burning for every subsequent tick.
    let (service, registry) = metered(white_pages_service(), Some("err=1%"), Some(audit.clone()));
    let service = service.with_flight_recorder(flight.clone());
    let handle =
        Server::spawn(Arc::new(service), ServerConfig { threads: 2, ..ServerConfig::default() })
            .expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    for _ in 0..5 {
        let err = client.apply_ldif(illegal_ldif()).expect_err("illegal tx refused");
        assert_eq!(err.server_code(), Some("rolled-back"), "{err}");
    }
    // Several burning ticks; the latch must hold the edge.
    for _ in 0..4 {
        let tick = handle.service().monitor_tick().expect("a metered service samples");
        let v = Value::parse(&tick).expect("tick frame is valid JSON");
        assert!(v.get("burn").and_then(Value::as_f64).is_some_and(|b| b >= 1.0), "{tick}");
        assert_eq!(v.get("alerts").and_then(Value::as_u64), Some(1), "{tick}");
    }

    let json = client.health_json().expect("HEALTH answers");
    let v = Value::parse(&json).expect("valid JSON");
    assert_eq!(v.path("slo.burning").map(|b| b == &Value::Bool(true)), Some(true), "{json}");
    assert_eq!(v.path("slo.alerts").and_then(Value::as_u64), Some(1), "alert re-fired: {json}");

    assert_eq!(registry.counter("server.slo_burn_alert"), 1, "counter edge re-fired");
    let alert = flight
        .recent()
        .into_iter()
        .find(|r| r.verb == "ALERT")
        .expect("alert flight-recorded for TRACE");
    assert_eq!(alert.status, "slo-burn");
    assert_eq!(alert.root.shape(), "monitor.slo_burn");

    let trail = std::fs::read_to_string(&audit).expect("audit trail written");
    let fired: Vec<&str> = trail.lines().filter(|l| l.contains(" slo-burn ")).collect();
    assert_eq!(fired.len(), 1, "audit trail:\n{trail}");
    assert!(fired[0].starts_with("AUDIT "), "{trail}");
    let detail = fired[0].splitn(4, ' ').nth(3).expect("detail json");
    assert!(bschema_obs::json::is_valid(detail), "{detail}");

    client.shutdown_server().expect("shutdown");
    handle.wait();
    let _ = std::fs::remove_file(&audit);
}

/// A probe a caller attaches to a metered service — a fault plan, here
/// one that never fires — sits in front of the registry: the registry
/// goes on counting every request, on either backend.
#[test]
fn an_attached_probe_does_not_stop_the_registry_counting() {
    let sharded = DirectoryService::new_sharded(white_pages_schema(), multi_org_base(4, 10, 5), 2)
        .expect("multi-org base is legal");
    for (service, ldif) in [
        (white_pages_service(), person_ldif("counted")),
        (sharded, org_person_ldif("counted", "org0")),
    ] {
        let plan = Arc::new(FaultPlan::observer());
        let (service, registry) = metered(service, None, None);
        let service = service.with_probe(plan.clone());
        let handle = Server::spawn(Arc::new(service), ServerConfig::default()).expect("bind");
        let mut client = Client::connect(handle.addr()).expect("connect");
        client.apply_ldif(&ldif).expect("legal insert commits");
        let json = client.metrics_json().expect("METRICS answers");
        assert!(json.contains(&format!("\"{}\":1", names::TX_COMMITTED)), "{json}");
        assert_eq!(registry.counter(names::TX_COMMITTED), 1);
        assert_eq!(plan.sites().get(names::TX_COMMITTED), Some(&1), "the plan sees it too");
        client.shutdown_server().expect("shutdown");
        handle.wait();
    }
}

/// A service built without a registry keeps none and starts no sampler:
/// every telemetry verb gets the one refusal, and a tick is a no-op.
#[test]
fn an_unmetered_service_refuses_every_telemetry_verb_alike() {
    let handle = spawn_white_pages(2);
    assert_eq!(handle.service().monitor_tick(), None);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let refusals = [
        client.metrics_json().expect_err("METRICS refused"),
        client.metrics_prom().expect_err("METRICS prom refused"),
        client.health_json().expect_err("HEALTH refused"),
        Client::connect(handle.addr()).expect("connect").watch(1, |_, _| true).expect_err("WATCH"),
    ];
    for err in refusals {
        assert_eq!(err.server_code(), Some("unsupported"), "{err}");
        assert_eq!(
            err.to_string(),
            "server refused: unsupported: this service keeps no metrics registry"
        );
    }
    client.shutdown_server().expect("shutdown");
    handle.wait();
}
