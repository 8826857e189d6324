//! End-to-end request-telemetry suite: wire-propagated trace context,
//! the flight recorder, span-tree determinism across worker counts, and
//! the verb set (`STATS` is gone: a delta is a `WATCH` tick).
//!
//! The headline invariant: one `TXN` yields **one** connected span tree
//! — from `server.request` through queue wait, parse, journal write,
//! and the legality engine's per-Figure-5 Δ-queries — attributed to the
//! trace id the *client* stamped on the frame, and the tree's shape is
//! identical whether the server runs 1 worker or 8.

use std::sync::Arc;

use bschema_core::paper::{white_pages_instance, white_pages_schema};
use bschema_core::sharded::shard_of_root_rdn;
use bschema_core::ManagedDirectory;
use bschema_directory::Rdn;
use bschema_obs::{json, FlightRecorder, MetricsRegistry};
use bschema_server::{Client, DirectoryService, Server, ServerConfig, ServiceLimits, WireLimits};
use bschema_workload::multi_org_base;

/// The complete span tree of a committed single-insertion `TXN`, as
/// pinned below. Engine roots open at
/// `NO_SPAN` and are re-parented under `server.request`, so the managed
/// guard (`managed.apply`), the index's `prepare()` and the incremental
/// check land as siblings of the `service.*` stages, in recording order.
/// The check is Figure 5′'s: the structure rows are answered from the
/// new entry's neighbourhood, with no Figure 4 Δ-query. It runs on the
/// published instance, before anything is copied: only the legal
/// verdict's copy is `prepare()`d.
const TXN_SHAPE: &str = "server.request(server.queue_wait,service.parse_ldif,service.tx_build,\
                         managed.apply,incremental.check_insertions(content_delta,keys,\
                         structure_scoped),instance.prepare,journal.begin,journal.commit,\
                         service.publish)";

/// The span tree of a committed `MODIFY` adding one attribute value: the
/// same engine sequence as a `TXN`, with the per-entry modification
/// check in place of the insertion column.
const MODIFY_SHAPE: &str = "server.request(server.queue_wait,managed.apply,instance.prepare,\
                            incremental.check_modification,journal.begin,journal.commit,\
                            service.publish)";

/// The span tree of a committed single-shard `TXN` on a sharded
/// backend: the router decodes the shard's part (`service.tx_build`, as
/// on the single backend) and runs the same engine sequence, on the
/// request's probe, inside `service.apply_sharded`, and publishes the cut
/// before it releases the shard's lock.
const SHARDED_TXN_SHAPE: &str = "server.request(server.queue_wait,service.parse_ldif,\
                                 service.apply_sharded,service.tx_build,managed.apply,\
                                 incremental.check_insertions(content_delta,keys,structure_scoped),\
                                 instance.prepare,journal.begin,journal.commit,service.publish)";

/// The span tree of a committed cross-shard `TXN`: each shard's part is
/// decoded, then each is certified and begun, then each commits, then
/// the one cut is published.
const CROSS_TXN_SHAPE: &str = "server.request(server.queue_wait,service.parse_ldif,\
                               service.apply_sharded,service.tx_build,service.tx_build,\
                               managed.apply,incremental.check_insertions(content_delta,keys,\
                               structure_scoped),instance.prepare,journal.begin,managed.apply,\
                               incremental.check_insertions(content_delta,keys,structure_scoped),\
                               instance.prepare,journal.begin,journal.commit,journal.commit,\
                               service.publish)";

/// A traced white-pages service: metered into one registry, one flight
/// recorder for span trees.
fn traced_service() -> (Arc<DirectoryService>, Arc<FlightRecorder>, Arc<MetricsRegistry>) {
    let (dir, _) = white_pages_instance();
    let managed =
        ManagedDirectory::with_instance(white_pages_schema(), dir).expect("figure 1 is legal");
    let recorder = Arc::new(MetricsRegistry::new());
    let flight = Arc::new(FlightRecorder::new(8));
    let service = DirectoryService::new(managed)
        .with_metrics(recorder.clone())
        .with_flight_recorder(flight.clone());
    (Arc::new(service), flight, recorder)
}

fn person_ldif(uid: &str) -> String {
    format!(
        "dn: uid={uid},ou=databases,ou=attLabs,o=att\n\
         objectClass: person\nobjectClass: top\nuid: {uid}\nname: {uid} tester\n"
    )
}

/// A person under a person violates `forbid person child top`.
fn illegal_ldif() -> &'static str {
    "dn: uid=intruder,uid=suciu,ou=databases,ou=attLabs,o=att\n\
     objectClass: person\nobjectClass: top\nuid: intruder\nname: intruder\n"
}

#[test]
fn one_txn_yields_one_span_tree_under_the_client_trace_id() {
    let (service, flight, _recorder) = traced_service();
    let handle =
        Server::spawn(service, ServerConfig { threads: 2, ..Default::default() }).expect("bind");

    let mut client = Client::connect(handle.addr()).expect("connect").with_trace_label("loop");
    assert_eq!(client.next_trace_id().as_deref(), Some("loop-0"));
    client.apply_ldif(&person_ldif("tele1")).expect("commit");

    // The id the client derived from its connection sequence — never a
    // clock — crossed the wire and is what the server reports back.
    let text = client.trace_json().expect("TRACE verb");
    assert!(json::is_valid(&text), "{text}");
    assert!(text.contains("\"trace_id\":\"loop-0\""), "{text}");
    assert!(text.contains("\"verb\":\"TXN\""), "{text}");

    // Exactly one TXN record, carrying the full deterministic tree.
    let records = flight.recent();
    let txns: Vec<_> = records.iter().filter(|r| r.verb == "TXN").collect();
    assert_eq!(txns.len(), 1, "one TXN, one record");
    let txn = txns[0];
    assert_eq!(txn.trace_id, "loop-0");
    assert_eq!(txn.status, "ok");
    assert_eq!(txn.root.shape(), TXN_SHAPE);
    assert!(txn.root.dur_us.is_some(), "root span closed");

    client.shutdown_server().expect("shutdown");
    handle.wait();
}

#[test]
fn a_traced_modify_records_its_span_tree() {
    let (service, flight, _recorder) = traced_service();
    let handle =
        Server::spawn(service, ServerConfig { threads: 2, ..Default::default() }).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect").with_trace_label("mod");
    client
        .modify_lines("dn: uid=suciu,ou=databases,ou=attLabs,o=att\nadd: telephoneNumber: +1 973\n")
        .expect("modified");

    let records = flight.recent();
    let modify = records.iter().find(|r| r.verb == "MODIFY").expect("MODIFY record");
    assert_eq!(modify.trace_id, "mod-0");
    assert_eq!(modify.status, "ok");
    assert_eq!(modify.root.shape(), MODIFY_SHAPE);

    client.shutdown_server().expect("shutdown");
    handle.wait();
}

#[test]
fn a_traced_sharded_txn_hangs_its_engine_spans_under_the_request() {
    const SHARDS: usize = 4;
    let base = multi_org_base(4, 12, 7);
    let flight = Arc::new(FlightRecorder::new(8));
    let service = DirectoryService::new_sharded(white_pages_schema(), base, SHARDS)
        .expect("legal base")
        .with_metrics(Arc::new(MetricsRegistry::new()))
        .with_flight_recorder(flight.clone());
    let handle =
        Server::spawn(Arc::new(service), ServerConfig { threads: 2, ..Default::default() })
            .expect("bind");
    let shard_of = |org: &str| shard_of_root_rdn(&Rdn::single("o", org), SHARDS);
    let other = (1..4).map(|i| format!("org{i}")).find(|org| shard_of(org) != shard_of("org0"));
    let other = other.expect("four roots cannot all collide");
    let person = |uid: &str, org: &str| {
        format!(
            "dn: uid={uid},o={org}\nobjectClass: person\nobjectClass: top\nuid: {uid}\nname: {uid}\n"
        )
    };

    // One connection each, so each TXN is its connection's first request.
    let mut client = Client::connect(handle.addr()).expect("connect").with_trace_label("shard");
    assert_eq!(client.apply_ldif(&person("one", "org0")).expect("commit").shards, 1);
    let mut client = Client::connect(handle.addr()).expect("connect").with_trace_label("cross");
    let pair = format!("{}\n{}", person("two", "org0"), person("three", &other));
    assert_eq!(client.apply_ldif(&pair).expect("commit").shards, 2);
    let records = flight.recent();
    let shapes: Vec<_> = records
        .iter()
        .filter(|r| r.verb == "TXN")
        .map(|r| (r.trace_id.as_str(), r.root.shape()))
        .collect();
    assert_eq!(
        shapes,
        [("shard-0", SHARDED_TXN_SHAPE.to_owned()), ("cross-0", CROSS_TXN_SHAPE.to_owned())]
    );

    client.shutdown_server().expect("shutdown");
    handle.wait();
}

#[test]
fn span_tree_shape_is_identical_at_1_and_8_workers() {
    let mut shapes = Vec::new();
    for threads in [1usize, 8] {
        let (service, flight, _recorder) = traced_service();
        let handle =
            Server::spawn(service, ServerConfig { threads, ..Default::default() }).expect("bind");
        let mut client = Client::connect(handle.addr()).expect("connect").with_trace_label("w");
        client.apply_ldif(&person_ldif("workers")).expect("commit");
        client.shutdown_server().expect("shutdown");
        handle.wait();
        let records = flight.recent();
        let txn = records.iter().find(|r| r.verb == "TXN").expect("TXN record");
        assert_eq!(txn.trace_id, "w-0");
        shapes.push(txn.root.shape());
    }
    assert_eq!(shapes[0], shapes[1], "span tree depends on worker count");
    assert_eq!(shapes[0], TXN_SHAPE);
}

#[test]
fn rejections_land_in_the_flight_recorder_with_their_code() {
    // (a) A frame the codec refuses — payload beyond the wire limit —
    // never becomes a request, but still leaves a terminated span with
    // the rejection code attached.
    let (dir, _) = white_pages_instance();
    let managed =
        ManagedDirectory::with_instance(white_pages_schema(), dir).expect("figure 1 is legal");
    let recorder = Arc::new(MetricsRegistry::new());
    let flight = Arc::new(FlightRecorder::new(8));
    let service = DirectoryService::new(managed)
        .with_limits(ServiceLimits {
            wire: WireLimits { max_payload_len: 256, ..Default::default() },
            ..Default::default()
        })
        .with_metrics(recorder.clone())
        .with_flight_recorder(flight.clone());
    let handle =
        Server::spawn(Arc::new(service), ServerConfig { threads: 2, ..Default::default() })
            .expect("bind");

    let mut client = Client::connect(handle.addr()).expect("connect").with_trace_label("big");
    let err = client.apply_ldif(&person_ldif(&"x".repeat(600))).expect_err("refused");
    assert_eq!(err.server_code(), Some("limit"), "{err}");
    let limited = flight
        .recent()
        .into_iter()
        .find(|r| r.status == "limit")
        .expect("wire-limit violation flight-recorded");
    // The oversized frame's tokens were discarded with it, so the
    // record is unstamped and verb-less — but the span terminated.
    assert_eq!(limited.verb, "-");
    assert_eq!(limited.trace_id, "unstamped");
    assert_eq!(limited.root.shape(), "server.request");
    assert!(limited.root.dur_us.is_some(), "rejected span still closed");

    // (b) A parsed-but-rolled-back TXN keeps its stamp and its full
    // tree, with the stable code as its status and a latency sample in
    // the per-rejection-code series.
    let mut client = Client::connect(handle.addr()).expect("connect").with_trace_label("bad");
    let err = client.apply_ldif(illegal_ldif()).expect_err("illegal tx refused");
    assert_eq!(err.server_code(), Some("rolled-back"), "{err}");
    let rolled = flight
        .recent()
        .into_iter()
        .find(|r| r.status == "rolled-back")
        .expect("rollback flight-recorded");
    assert_eq!(rolled.trace_id, "bad-0");
    assert_eq!(rolled.verb, "TXN");
    let shape = rolled.root.shape();
    assert!(shape.starts_with("server.request("), "{shape}");
    assert!(shape.contains("managed.apply"), "{shape}");
    assert!(!shape.contains("service.publish"), "rolled back yet published: {shape}");
    let rejected = recorder
        .histogram("server.rejected_us.rolled-back")
        .expect("rejection-code latency series");
    assert_eq!(rejected.count(), 1);

    client.shutdown_server().expect("shutdown");
    handle.wait();
}

/// `STATS` kept one server-wide delta baseline, so two scrapers split
/// each other's deltas. It is gone: the cumulative view is `METRICS`, a
/// per-interval delta is a `WATCH` tick, and the word is an unknown verb.
#[test]
fn stats_answers_err_proto() {
    use std::io::{BufRead, BufReader, Write};

    let (service, _flight, _recorder) = traced_service();
    let handle =
        Server::spawn(service, ServerConfig { threads: 2, ..Default::default() }).expect("bind");
    let mut sock = std::net::TcpStream::connect(handle.addr()).expect("connect raw");
    sock.write_all(b"STATS\n").expect("write frame");
    let mut reply = String::new();
    BufReader::new(sock).read_line(&mut reply).expect("read reply");
    assert!(reply.starts_with("ERR proto"), "{reply}");

    let mut client = Client::connect(handle.addr()).expect("connect");
    client.shutdown_server().expect("shutdown");
    handle.wait();
}

/// Hostile `tc=` tokens arriving over the wire — overlong bodies,
/// non-numeric span ids — are never adopted as trace context and never
/// poison the session: the request is answered, the connection stays
/// usable, and the flight recorder holds no attacker-controlled ids.
#[test]
fn hostile_trace_tokens_never_poison_the_session() {
    use std::io::{BufRead, BufReader, Write};

    let (service, flight, _recorder) = traced_service();
    let handle =
        Server::spawn(service, ServerConfig { threads: 2, ..Default::default() }).expect("bind");

    let mut sock = std::net::TcpStream::connect(handle.addr()).expect("connect raw");
    let mut reader = BufReader::new(sock.try_clone().expect("clone socket"));
    let mut answer = |req: &str| -> String {
        sock.write_all(req.as_bytes()).expect("write frame");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read reply");
        line
    };

    // A 300-char token body: past the parser cap, so it stays a plain
    // (unknown) argument — the verb refuses it, the session survives.
    let long = format!("PING tc={}.7\n", "z".repeat(300));
    let reply = answer(&long);
    assert!(reply.starts_with("OK") || reply.starts_with("ERR usage"), "{reply}");
    // A non-numeric span id is equally inert.
    let reply = answer("PING tc=evil.99999999999999999999999\n");
    assert!(reply.starts_with("OK") || reply.starts_with("ERR usage"), "{reply}");
    // The same socket still serves a well-stamped request.
    let reply = answer("PING tc=good.0\n");
    assert!(reply.starts_with("OK"), "session poisoned: {reply}");

    let ids: Vec<String> = flight.recent().into_iter().map(|r| r.trace_id).collect();
    assert!(ids.iter().any(|id| id == "good"), "{ids:?}");
    assert!(
        ids.iter().all(|id| !id.contains("zzz") && !id.contains("evil")),
        "hostile token adopted as trace id: {ids:?}"
    );

    let mut client = Client::connect(handle.addr()).expect("connect");
    client.shutdown_server().expect("shutdown");
    handle.wait();
}
