//! The benchmark's fixed vocabulary: workloads and metrics. `dirbench
//! list`, the README, `BENCHMARK.json` and `compare` all read these
//! tables; names are permanent.

/// One workload: a base size and a backend.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists — which layers it stresses.
    pub why: &'static str,
    /// Organisations of 250 entries each in the base.
    pub orgs: usize,
    /// Backend shards; 1 is the single-engine backend.
    pub shards: usize,
    /// `with_checkpoint_every`, when the workload sets it.
    pub checkpoint_every: Option<u64>,
    /// What the mem and the load witness (`calib.rs`) take on this
    /// workload's base on a quiet host, in µs: the host speed calibrated
    /// times are reported at.
    pub nominal_mem_us: f64,
    pub nominal_load_us: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "small-2k",
        why: "8 orgs, single backend, fits in CPU cache: per-request fixed costs (codec, hand-off, LDIF parse, two journal appends + sync_data, delta-queries) are as large a share of a write as they get",
        orgs: 8,
        shards: 1,
        checkpoint_every: None,
        nominal_mem_us: 3_500.0,
        nominal_load_us: 3_600.0,
    },
    Workload {
        name: "large-50k",
        why: "200 orgs, single backend, same script: O(|D|) work (rollback clone, renumber + index rebuild, publish clone, unindexed uid scans) dominates and the working set leaves CPU cache",
        orgs: 200,
        shards: 1,
        checkpoint_every: None,
        nominal_mem_us: 166_000.0,
        nominal_load_us: 197_000.0,
    },
    Workload {
        name: "sharded-20k",
        why: "80 orgs on 4 shards, checkpoint every 64 commits: DN routing, per-shard journals and snapshots, 2-phase cross-shard apply, fan-out search and all-shard checkpoint stalls",
        orgs: 80,
        shards: 4,
        checkpoint_every: Some(64),
        nominal_mem_us: 34_000.0,
        nominal_load_us: 36_500.0,
    },
];

/// The workload named `name`.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One metric: its unit, which direction is better, and its definition.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
    /// The exact definition (end-to-end) or the timed call (per-layer).
    pub def: &'static str,
    /// Per-layer only: the end-to-end metric it should move, and where.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    def: &'static str,
) -> Metric {
    Metric { name, unit, better, bound, def, moves: "" }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    def: &'static str,
    moves: &'static str,
) -> Metric {
    Metric { name, unit, better, bound: 0.0, def, moves }
}

/// What a user of the served directory sees. Latencies are the p50 over
/// all of a class's samples in the measured rounds, client-observed on
/// the wire; rates are the median over the rounds of count ÷ Σ latencies.
/// Every time is *calibrated*: divided, sample by sample, by how much
/// slower than nominal the host ran a witness of the same kind of work
/// right beside it (`calib.rs`), so a figure reads as on the nominal
/// host whatever the neighbours were doing during the run.
pub const END_TO_END: [Metric; 15] = [
    e2e("setup_s", "s", "lower", 0.25, "median of the cold boots on fresh journals after the rounds, 3 and as many more as fit into a second (the boot of the served instance is the discarded one), each calibrated by the load witness run before and after it: ldif::load of the base LDIF text, ManagedDirectory::with_instance / new_sharded (consistency + full legality check), with_journal, Server::spawn, first PING; generating and dumping the base is excluded"),
    e2e("txn_per_s", "1/s", "higher", 0.25, "committed TXN + MODIFY per second of their own calibrated service time: median over the 10 rounds of count / sum of latencies in the round"),
    e2e("txn_insert_p50_ms", "ms", "lower", 0.25, "p50 of TXN adding one orgUnit with two persons (3 entries)"),
    e2e("txn_delete_p50_ms", "ms", "lower", 0.25, "p50 of TXN removing the oldest inserted subtree still live (3 entries)"),
    e2e("txn_cross_p50_ms", "ms", "lower", 0.25, "p50 of TXN adding one person under units of two different orgs (two shards on sharded-20k); cross inserts only"),
    e2e("txn_reject_p50_ms", "ms", "lower", 0.25, "p50 of TXN adding a person-less orgUnit, refused `rolled-back` by the delta-query"),
    e2e("modify_p50_ms", "ms", "lower", 0.25, "p50 of MODIFY replacing telephoneNumber on a base person"),
    e2e("search_per_s", "1/s", "higher", 0.25, "all five searches of a cycle per second of their own calibrated service time: median over the 10 rounds of count / sum of latencies in the round"),
    e2e("search_eq_p50_ms", "ms", "lower", 0.25, "p50 of unscoped (uid=<live uid>), 80% of draws from a hot 5% of uids"),
    e2e("search_subtree_p50_ms", "ms", "lower", 0.25, "p50 of (objectClass=person) scoped sub under a unit with 90-110 persons below it: a reply the size of a page reply"),
    e2e("search_page_p50_ms", "ms", "lower", 0.25, "p50 of unscoped (objectClass=person) limit 100"),
    e2e("search_after_write_p50_ms", "ms", "lower", 0.25, "p50 of the eq search on what the preceding write created, removed, changed or was refused"),
    e2e("restart_s", "s", "lower", 0.25, "after the rounds the served instance takes a CHECKPOINT and exactly 16 committed writes and shuts down; median of the restarts from what it left (2 and as many more as fit into a second; each calibrated by the load witness), through the service's own recovery path (with_journal: checkpoint restore + 16-tx tail replay), to first PING"),
    e2e("rss_peak_mb", "MB", "lower", 0.10, "VmHWM of the process (server + load generator) at the end of the measured rounds; the peak counter is reset after the boot"),
    e2e("journal_bytes_per_tx", "B", "lower", 0.01, "sum of the positive journal-file length deltas over the measured rounds / committed writes"),
];

/// Single layers, measured from outside by timing their public
/// functions in a `--trace 1` run. Medians; never gated.
pub const PER_LAYER: [Metric; 54] = [
    layer("server.codec.req_us", "us", "lower", "read_frame on a TXN insert frame", "all p50s @ small-2k"),
    layer("server.codec.resp_us", "us", "lower", "write_frame on a 100-entry SEARCH reply", "search_page_p50_ms"),
    layer("server.codec.resp_bytes", "B", "lower", "size of that 100-entry reply frame", "search_page_p50_ms"),
    layer("server.server.ping_rtt_us", "us", "lower", "wire PING p50: socket + queue + worker hand-off", "every p50 @ small-2k; nothing @ large-50k"),
    layer("server.service.txn_us", "us", "lower", "DirectoryService::apply_ldif_tx in process, insert TXNs", "txn_insert_p50_ms minus ping_rtt_us"),
    layer("server.service.modify_us", "us", "lower", "DirectoryService::modify in process", "modify_p50_ms minus ping_rtt_us"),
    layer("server.service.search_us", "us", "lower", "DirectoryService::search in process, eq searches", "search_eq_p50_ms minus ping_rtt_us"),
    layer("server.service.txn_unattributed_pct", "%", "lower", "median over insert TXNs of 100 * (service time - sum of the rows of the same request on the copy of the served write path) / service time", "none; >20 means a layer is missing from this table"),
    layer("server.service.search_unattributed_pct", "%", "lower", "median over eq searches of 100 * (service time - sum of the rows of the same search on the copy) / service time", "none; >20 means a layer is missing from this table"),
    layer("directory.ldif.parse_tx_us", "us", "lower", "parse_ldif_limited on a TXN insert body", "txn_* @ small-2k"),
    layer("directory.ldif.load_ms", "ms", "lower", "ldif::load of the base LDIF text", "setup_s, restart_s"),
    layer("directory.ldif.write_record_us", "us", "lower", "write_record x 100 person entries", "search_page_p50_ms"),
    layer("directory.instance.clone_us", "us", "lower", "DirectoryInstance::clone of the live instance", "txn_*, modify_p50_ms, txn_per_s, rss_peak_mb @ large-50k (2 clones per commit)"),
    layer("directory.instance.drop_us", "us", "lower", "dropping one instance copy", "txn_* @ large-50k"),
    layer("directory.instance.prepare_us", "us", "lower", "prepare() after one insertion: renumber + InstanceIndex::build", "txn_*, modify_p50_ms @ large-50k"),
    layer("directory.instance.dn_us", "us", "lower", "DirectoryInstance::dn of one person", "search_page_p50_ms"),
    layer("query.filter_parser.parse_us", "us", "lower", "parse_filter_limited on an eq filter", "search_* @ small-2k"),
    layer("query.eval.eq_us", "us", "lower", "search() of (uid=x) on the snapshot", "search_eq_p50_ms, search_per_s @ large-50k"),
    layer("query.eval.subtree_us", "us", "lower", "search() of (objectClass=person) under one unit", "search_subtree_p50_ms"),
    layer("query.eval.page_us", "us", "lower", "search() of (objectClass=person) limit 100", "search_page_p50_ms"),
    layer("query.eval.scanned_per_hit.eq", "count", "lower", "entries scanned / matched for the eq filter, from explain (exact)", "search_eq_p50_ms @ large-50k"),
    layer("core.updates.tx_build_us", "us", "lower", "transaction_from_ldif on an insert body", "txn_* @ small-2k"),
    layer("core.updates.delta_check_insert_us", "us", "lower", "IncrementalChecker::check_insertion of the inserted subtree; flat from 2k to 50k or Theorem 4.2 is broken in the engine", "txn_insert_p50_ms @ small-2k"),
    layer("core.updates.delta_check_delete_us", "us", "lower", "IncrementalChecker::check_deletion; rechecks the child/descendant rows on D - dD, so O(|D|) by Figure 5", "txn_delete_p50_ms"),
    layer("core.updates.delta_queries_per_tx", "count", "lower", "Figure-5 delta-queries per insert TXN, counted by a probe (exact)", "txn_insert_p50_ms @ small-2k"),
    layer("core.managed.apply_insert_us", "us", "lower", "ManagedDirectory::apply of an insert TXN", "txn_insert_p50_ms @ large-50k"),
    layer("core.managed.apply_delete_us", "us", "lower", "ManagedDirectory::apply of a delete TXN", "txn_delete_p50_ms @ large-50k"),
    layer("core.managed.apply_reject_us", "us", "lower", "ManagedDirectory::apply of a refused TXN (rollback path)", "txn_reject_p50_ms @ large-50k"),
    layer("core.managed.modify_us", "us", "lower", "ManagedDirectory::modify_entry", "modify_p50_ms @ large-50k"),
    layer("core.journal.encode_us", "us", "lower", "JournalWriter::begin + commit + take_pending for an insert TXN", "txn_* @ small-2k"),
    layer("core.journal.bytes_per_tx", "B", "lower", "journal text an insert TXN emits", "journal_bytes_per_tx"),
    layer("core.journal.replay_ms_per_tx", "ms", "lower", "recover_with_checkpoint with a 16-tx tail minus with an empty tail, / 16", "restart_s @ large-50k"),
    layer("fs.append_sync_us", "us", "lower", "open-append-sync_data of one journal batch in --dir", "txn_per_s @ small-2k (group commit)"),
    layer("fs.syncs_per_tx", "count", "lower", "journal batches (take_pending) per committed TXN", "txn_per_s @ small-2k"),
    layer("core.checkpoint.capture_encode_ms", "ms", "lower", "Checkpoint::capture + encode", "restart_s; txn_per_s @ sharded-20k"),
    layer("core.checkpoint.write_ms", "ms", "lower", "write_checkpoint (temp file + rename)", "txn_per_s @ sharded-20k"),
    layer("core.checkpoint.decode_restore_ms", "ms", "lower", "Checkpoint::decode + restore", "restart_s"),
    layer("core.checkpoint.bytes_per_entry", "B", "lower", "encoded checkpoint bytes / entries", "restart_s"),
    layer("core.sharded.apply_local_us", "us", "lower", "ShardedDirectory::apply_ldif on a one-shard body, journal sinks syncing", "txn_insert_p50_ms @ sharded-20k only"),
    layer("core.sharded.apply_cross_us", "us", "lower", "ShardedDirectory::apply_ldif on a two-shard body (2-phase)", "txn_cross_p50_ms @ sharded-20k only"),
    layer("core.sharded.publish_us", "us", "lower", "shard_instance(k) for the touched shard + dropping the old snapshot", "txn_* @ sharded-20k only"),
    layer("core.sharded.checkpoint_all_ms", "ms", "lower", "ShardedDirectory::checkpoint_all", "txn_per_s @ sharded-20k only"),
    layer("core.legality.full_check_ms", "ms", "lower", "LegalityChecker::check of the whole instance (Theorem 3.1)", "setup_s"),
    layer("core.consistency.check_us", "us", "lower", "ConsistencyChecker::check of the schema", "setup_s"),
    layer("wire.txn_insert_p95_ms", "ms", "lower", "p95 of wire insert TXNs", "tails a p50 hides"),
    layer("wire.txn_insert_max_ms", "ms", "lower", "slowest wire insert TXN", "tails a p50 hides"),
    layer("wire.search_eq_p99_ms", "ms", "lower", "p99 of wire eq searches", "tails a p50 hides"),
    layer("wire.txn_cross_delete_p50_ms", "ms", "lower", "p50 of wire cross-delete TXNs", "txn_per_s"),
    layer("wire.checkpoint_stall_max_ms", "ms", "lower", "longest foreground stall by a checkpoint: the CHECKPOINT verb, or a write's excess over its class p50 when a campaign ran inside it", "txn_per_s @ sharded-20k"),
    layer("bench.trace_overhead_pct", "%", "lower", "100 * spans per insert TXN on the copy * cost of an empty span / txn_us", "instrument health"),
    layer("bench.cycles", "count", "higher", "script cycles run, wire and lock-step phases together", "instrument health"),
    layer("bench.entries_end", "count", "lower", "final |D| of the served directory", "instrument health"),
    layer("bench.host_cpu_slowdown", "x", "lower", "median over the wire round of the cpu witness's time / its nominal time (calib.rs); the rows above are as measured, so read them against this", "every row above; no end-to-end metric (those are calibrated)"),
    layer("bench.host_mem_slowdown", "x", "lower", "median over the wire round of the mem witness's time / its nominal time on this workload's base", "every O(|D|) row above; no end-to-end metric"),
];

/// The end-to-end metric named `name`.
pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}
