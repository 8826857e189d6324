//! The traced run (`--trace 1`): per-layer numbers, measured from
//! outside by timing calls into each layer's public functions.
//!
//! The phases share the `--seconds` budget:
//!
//! 1. **wire** — one recorded round of the untraced client loop of
//!    [`crate::wire`]: tails and stalls a p50 hides, and the PING round
//!    trip.
//! 2. **lock-step** — the listener goes away and the script continues
//!    *in process*. Every cycle is applied three times, one after the
//!    other, to three copies of the same state: to the very service the
//!    server was serving (what a request costs without socket, queue and
//!    hand-off), and to hand-assembled copies of the single-backend and
//!    of the sharded write path, one span around each call into a
//!    layer's public functions. The single-backend copy is followed by
//!    the cycle's searches and by side probes (Δ-checks, codec,
//!    clone/prepare/drop) at the state the write leaves. Because the
//!    service and the copy of its path run the same request on the same
//!    state within the same fraction of a second, the share of the
//!    service's time the rows leave unexplained is taken per request and
//!    the host's mood cancels; and at the end all three states must be
//!    byte-identical, so a copy that has drifted from the service's
//!    write path fails the run instead of describing code nobody runs.
//! 3. **one-shots** — base load and full check, checkpoint
//!    capture/write/restore, tail replay through the public recovery
//!    entry, `checkpoint_all`.
//!
//! State is built by the main thread, as a boot builds it, and worked on
//! by a thread of its own, as a request runs on a server worker (see
//! [`on_worker`]). Spans `{name, req, parent, start_ns, end_ns}` stay in
//! memory and are written to `<dir>/trace-<workload>.json` at the end; a
//! metric is the median over its spans. The single-backend copy runs on
//! an *unsharded* copy of the whole directory on every workload, so a
//! `core.managed.*` or `directory.instance.*` row is comparable across
//! workloads by |D|; on `sharded-20k` the served path runs those layers
//! per shard, which the `core.sharded.*` rows measure in situ.

use std::io::{Cursor, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bschema_core::checkpoint::{
    checkpoint_path, recover_with_checkpoint, write_checkpoint, Checkpoint,
};
use bschema_core::journal::{Journal, JournalWriter};
use bschema_core::legality::LegalityChecker;
use bschema_core::paper::white_pages_schema;
use bschema_core::schema::DirectorySchema;
use bschema_core::sharded::{canonical_merge, ShardedDirectory};
use bschema_core::updates::{transaction_from_ldif, IncrementalChecker, Mod};
use bschema_core::{ConsistencyChecker, ManagedDirectory};
use bschema_directory::ldif::{self, parse_ldif_limited, write_record, LdifLimits};
use bschema_directory::{DirectoryInstance, Dn, Entry, EntryId, Rdn};
use bschema_obs::Probe;
use bschema_query::{
    explain, parse_filter_limited, search, EvalContext, Query, SearchRequest, SearchScope,
    DEFAULT_FILTER_DEPTH,
};
use bschema_server::codec::{read_frame, write_frame};
use bschema_server::{DirectoryService, WireLimits};

use crate::calib::Witness;
use crate::gen::{fnv1a, Base, Cycle, Script, SearchKind, WriteKind, WriteOp, GROUP};
use crate::spec::PER_LAYER;
use crate::stats::{max, median, quantile};
use crate::wire::{
    boot, in_scratch_dir, Booted, Class, Driver, Recording, Reported, RunConfig, RunResult, Tally,
    FINGERPRINT_CYCLES, TAIL_WRITES,
};

/// The shares of `--seconds` the wire phase and the lock-step phase
/// get; the one-shots take what they take.
const WIRE_SHARE: f64 = 0.3;
const LOCKSTEP_SHARE: f64 = 0.6;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    /// The request (script cycle) the span belongs to.
    req: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// The in-memory span recorder.
#[derive(Debug)]
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    req: u64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), req: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    fn start(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, req: self.req, parent, start_ns, end_ns: start_ns });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// One leaf span around `f`.
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.start(name);
        let out = f();
        self.end(id);
        out
    }

    fn us(span: &Span) -> f64 {
        (span.end_ns - span.start_ns) as f64 / 1e3
    }

    /// Median duration in µs of the spans named `name`.
    fn median_us(&self, name: &str) -> f64 {
        let durations: Vec<f64> =
            self.spans.iter().filter(|s| s.name == name).map(Self::us).collect();
        median(&durations)
    }

    /// Summed duration (µs) and count of the direct children of span
    /// `root`, which must be closed: what the rows explain of it.
    fn children(&self, root: usize) -> (f64, usize) {
        let children = || self.spans[root + 1..].iter().filter(|s| s.parent == Some(root));
        (children().map(Self::us).sum(), children().count())
    }

    /// Over the spans named `root`: the median summed duration (µs) and
    /// the median count of their direct children that `pick` selects. (A
    /// span's self time is its duration minus the sum over all its
    /// children.)
    fn median_children(&self, root: &str, pick: impl Fn(&str) -> bool) -> (f64, f64) {
        let roots: Vec<usize> =
            (0..self.spans.len()).filter(|&i| self.spans[i].name == root).collect();
        let mut sums = vec![(0.0, 0.0); roots.len()];
        for span in self.spans.iter().filter(|s| pick(s.name)) {
            if let Some(at) = span.parent.and_then(|p| roots.binary_search(&p).ok()) {
                sums[at].0 += Self::us(span);
                sums[at].1 += 1.0;
            }
        }
        let column = |f: fn(&(f64, f64)) -> f64| median(&sums.iter().map(f).collect::<Vec<_>>());
        (column(|s| s.0), column(|s| s.1))
    }

    /// Writes every span as one JSON array.
    fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.req,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.write_all(b"\n]\n")?;
        out.flush()
    }
}

/// Counts the Figure-5 Δ-queries an incremental check issues.
#[derive(Debug, Default)]
struct DeltaQueryCounter(AtomicU64);

impl Probe for DeltaQueryCounter {
    fn enabled(&self) -> bool {
        true
    }

    fn add_labeled(&self, key: &str, _label: &str, by: u64) {
        if key == "incremental.delta_query" {
            self.0.fetch_add(by, Ordering::Relaxed);
        }
    }
}

/// The service's flush policy: open, append, `sync_data`.
fn append_sync(path: &Path, text: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(text.as_bytes())?;
    f.sync_data()
}

/// The `Mod` list a script `Modify` op stands for.
fn mods_of(op: &WriteOp) -> Vec<Mod> {
    let (attribute, value) = op.replacement().expect("a Modify op replaces one attribute");
    vec![Mod::Replace { attribute: attribute.to_owned(), values: vec![value.to_owned()] }]
}

fn replica_root(kind: WriteKind) -> &'static str {
    match kind {
        WriteKind::Insert => "replica.txn.insert",
        WriteKind::Delete => "replica.txn.delete",
        WriteKind::Cross => "replica.txn.cross",
        WriteKind::CrossDelete => "replica.txn.cross_delete",
        WriteKind::Modify => "replica.modify",
        WriteKind::Reject => "replica.txn.reject",
    }
}

/// A hand-assembled copy of the single-backend write path
/// (`DirectoryService::apply_ldif_tx` / `modify`), one span per public
/// call into a layer.
struct Replica {
    managed: ManagedDirectory,
    writer: JournalWriter,
    journal: PathBuf,
    snapshot: Arc<DirectoryInstance>,
    /// Journal bytes each insert TXN emitted.
    insert_bytes: Vec<f64>,
}

impl Replica {
    fn new(managed: ManagedDirectory, journal: PathBuf) -> Replica {
        let snapshot = Arc::new(managed.instance().clone());
        Replica {
            managed,
            writer: JournalWriter::new(),
            journal,
            snapshot,
            insert_bytes: Vec::new(),
        }
    }

    fn flush(&mut self, tr: &mut Tracer) -> Result<usize, String> {
        let pending = tr.timed("core.journal.take_pending", || self.writer.take_pending());
        tr.timed("fs.append_sync", || append_sync(&self.journal, &pending))
            .map_err(|e| format!("replica journal: {e}"))?;
        Ok(pending.len())
    }

    fn publish(&mut self, tr: &mut Tracer) {
        let next =
            tr.timed("directory.instance.clone", || Arc::new(self.managed.instance().clone()));
        let old = std::mem::replace(&mut self.snapshot, next);
        tr.timed("directory.instance.drop", || drop(old));
    }

    /// Applies one script write, which must commit or be refused as the
    /// script expects. Returns the request's root span.
    fn write(&mut self, tr: &mut Tracer, op: &WriteOp) -> Result<usize, String> {
        let root = tr.start(replica_root(op.kind));
        let committed = if op.kind == WriteKind::Modify {
            let dn = Dn::parse(op.dns().next().unwrap_or("")).map_err(|e| e.to_string())?;
            let mods = mods_of(op);
            let id = self.managed.instance().lookup_dn(&dn).ok_or("replica: no such entry")?;
            let tx_id = tr.timed("core.journal.begin", || self.writer.begin_modify(id, &mods));
            self.flush(tr)?;
            let applied = tr.timed("core.managed.modify", || self.managed.modify_entry(id, &mods));
            if applied.is_ok() {
                tr.timed("core.journal.commit", || self.writer.commit(tx_id));
                self.flush(tr)?;
                self.publish(tr);
            }
            applied.is_ok()
        } else {
            let records = tr
                .timed("directory.ldif.parse_tx", || {
                    parse_ldif_limited(&op.body, &LdifLimits::strict())
                })
                .map_err(|e| format!("replica parse: {e}"))?;
            let tx = tr
                .timed("core.updates.tx_build", || {
                    transaction_from_ldif(self.managed.instance(), records)
                })
                .map_err(|e| format!("replica tx build: {e}"))?;
            let tx_id = tr.timed("core.journal.begin", || self.writer.begin(&tx));
            let mut bytes = self.flush(tr)?;
            let apply = match op.kind {
                WriteKind::Insert => "core.managed.apply_insert",
                WriteKind::Delete => "core.managed.apply_delete",
                WriteKind::Reject => "core.managed.apply_reject",
                _ => "core.managed.apply_cross",
            };
            let applied = tr.timed(apply, || self.managed.apply(&tx));
            if applied.is_ok() {
                tr.timed("core.journal.commit", || self.writer.commit(tx_id));
                bytes += self.flush(tr)?;
                self.publish(tr);
                if op.kind == WriteKind::Insert {
                    self.insert_bytes.push(bytes as f64);
                }
            }
            applied.is_ok()
        };
        tr.end(root);
        if committed != op.commits() {
            return Err(format!("replica {:?} committed={committed}", op.kind));
        }
        Ok(root)
    }

    /// The replica's directory in canonical form.
    fn canonical(&self) -> Result<Vec<u8>, String> {
        canonical_of([self.managed.instance()])
    }
}

/// `canonical_bytes` of the canonical merge of `parts`: equal for any
/// two partitions of the same directory, whatever their slot numbering.
fn canonical_of<'a>(
    parts: impl IntoIterator<Item = &'a DirectoryInstance>,
) -> Result<Vec<u8>, String> {
    Ok(canonical_merge(parts).map_err(|e| format!("merging shards: {e}"))?.canonical_bytes())
}

/// The sharded write path (`DirectoryService::apply_sharded`): route +
/// journal + apply inside `ShardedDirectory`, then republish the touched
/// shards. The journal sinks keep the service's flush policy.
struct ShardedReplica {
    sharded: ShardedDirectory,
    snapshots: Vec<Arc<DirectoryInstance>>,
}

impl ShardedReplica {
    fn new(sharded: ShardedDirectory, journal: &Path) -> ShardedReplica {
        for k in 0..sharded.shards() {
            let path = bschema_core::journal::shard_journal_path(journal, k);
            sharded.set_sink(k, Box::new(move |text: &str| append_sync(&path, text)));
        }
        let snapshots =
            (0..sharded.shards()).map(|k| Arc::new(sharded.shard_instance(k))).collect();
        ShardedReplica { sharded, snapshots }
    }

    /// Applies one script write, which must commit or be refused as the
    /// script expects. Returns the request's root span.
    fn write(&mut self, tr: &mut Tracer, op: &WriteOp) -> Result<usize, String> {
        let root = tr.start("sharded.write");
        let applied = if op.kind == WriteKind::Modify {
            let dn = Dn::parse(op.dns().next().unwrap_or("")).map_err(|e| e.to_string())?;
            let mods = mods_of(op);
            tr.timed("core.sharded.modify", || self.sharded.modify_dn(&dn, &mods))
        } else {
            let records = tr
                .timed("directory.ldif.parse_tx", || {
                    parse_ldif_limited(&op.body, &LdifLimits::strict())
                })
                .map_err(|e| format!("sharded replica parse: {e}"))?;
            let span = tr.start("core.sharded.apply");
            let applied = self.sharded.apply_ldif(records);
            // Named by what the router did with it, not by what the
            // script meant: on a single-backend workload the script's
            // cross writes may land in one shard.
            tr.spans[span].name = match &applied {
                Ok(outcome) if outcome.shards.len() > 1 => "core.sharded.apply_cross",
                Ok(_) => "core.sharded.apply_local",
                Err(_) => "core.sharded.apply_reject",
            };
            tr.end(span);
            applied
        };
        if applied.is_ok() != op.commits() {
            return Err(format!("sharded replica {:?}: {:?}", op.kind, applied.map(|o| o.shards)));
        }
        if let Ok(outcome) = applied {
            tr.timed("core.sharded.publish", || {
                for &k in &outcome.shards {
                    self.snapshots[k] = Arc::new(self.sharded.shard_instance(k));
                }
            });
        }
        tr.end(root);
        Ok(root)
    }

    /// The replica's directory in canonical form.
    fn canonical(&self) -> Result<Vec<u8>, String> {
        let parts: Vec<DirectoryInstance> =
            (0..self.sharded.shards()).map(|k| self.sharded.shard_instance(k)).collect();
        canonical_of(&parts)
    }
}

/// Exact counts the replica phase collects beside its spans.
#[derive(Default)]
struct Counts {
    scanned_per_hit: Vec<f64>,
    delta_queries: Vec<f64>,
    resp_bytes: Vec<f64>,
}

/// The read-side and side probes, run on the snapshot a cycle leaves.
/// Returns, per search of the cycle, the time (µs) the rows explain.
fn probe_cycle(
    tr: &mut Tracer,
    counts: &mut Counts,
    schema: &DirectorySchema,
    snapshot: &DirectoryInstance,
    cycle: &Cycle,
    removed: &[Entry],
    clone_probe: bool,
) -> Result<Vec<f64>, String> {
    let mut explained = Vec::new();
    // The searches come first, as they follow the write in the served
    // cycle: the snapshot they scan is the one the commit just wrote.
    for op in &cycle.searches {
        let root = tr.start(match op.kind {
            SearchKind::Eq | SearchKind::AfterWrite => "replica.search.eq",
            SearchKind::Subtree => "replica.search.subtree",
            SearchKind::Page => "replica.search.page",
        });
        let filter = tr
            .timed("query.filter_parser.parse", || {
                parse_filter_limited(&op.filter, DEFAULT_FILTER_DEPTH)
            })
            .map_err(|e| e.to_string())?;
        let (name, request) = match (&op.base, op.kind) {
            (Some(base), _) => {
                let dn = Dn::parse(base).map_err(|e| e.to_string())?;
                let id = tr
                    .timed("directory.instance.lookup_dn", || snapshot.lookup_dn(&dn))
                    .ok_or("subtree base is not in the snapshot")?;
                (
                    "query.eval.subtree",
                    SearchRequest::under(id, SearchScope::Subtree, filter.clone()),
                )
            }
            (None, SearchKind::Page) => (
                "query.eval.page",
                SearchRequest::whole_directory(filter.clone()).with_size_limit(100),
            ),
            (None, _) => ("query.eval.eq", SearchRequest::whole_directory(filter.clone())),
        };
        let ids = tr.timed(name, || search(snapshot, &request));
        if ids.len() != op.expect_hits {
            return Err(format!(
                "replica {} found {}, expected {}",
                op.filter,
                ids.len(),
                op.expect_hits
            ));
        }
        let dns: Vec<String> = tr
            .timed("directory.instance.dn_all", || {
                ids.iter()
                    .map(|&id| snapshot.dn(id).map(|dn| dn.to_string()))
                    .collect::<Result<_, _>>()
            })
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        tr.timed("directory.ldif.write_record_all", || {
            for (&id, dn) in ids.iter().zip(&dns) {
                write_record(&mut reply, dn, snapshot.entry(id).expect("hit is live"));
            }
        });
        tr.end(root);
        explained.push(tr.children(root).0);
        match op.kind {
            SearchKind::Eq => {
                let plan = explain(&EvalContext::new(snapshot), &Query::select(filter));
                counts.scanned_per_hit.push(plan.scanned() as f64 / plan.matched().max(1) as f64);
            }
            SearchKind::Page => {
                // Exactly 100 entries: the per-100 figures and the reply frame.
                tr.timed("directory.instance.dn_x100", || {
                    for &id in &ids {
                        std::hint::black_box(snapshot.dn(id).ok());
                    }
                });
                let mut again = String::new();
                tr.timed("directory.ldif.write_record_x100", || {
                    for (&id, dn) in ids.iter().zip(&dns) {
                        write_record(&mut again, dn, snapshot.entry(id).expect("hit is live"));
                    }
                });
                let mut frame = Vec::new();
                tr.timed("server.codec.resp", || {
                    write_frame(&mut frame, &["OK", "entries", "100"], reply.as_bytes())
                })
                .map_err(|e| e.to_string())?;
                counts.resp_bytes.push(frame.len() as f64);
            }
            _ => {}
        }
    }
    // Codec: the TXN request frame (the 100-entry reply frame is above).
    if cycle.write.kind == WriteKind::Insert {
        let mut frame = Vec::new();
        write_frame(&mut frame, &["TXN"], cycle.write.body.as_bytes())
            .map_err(|e| e.to_string())?;
        let limits = WireLimits::default();
        tr.timed("server.codec.req", || read_frame(&mut Cursor::new(&frame), &limits))
            .map_err(|e| e.to_string())?;
        // The Δ-check of what the replica just inserted, on its own.
        let unit = Dn::parse(cycle.write.dns().next().unwrap_or("")).map_err(|e| e.to_string())?;
        let root = snapshot.lookup_dn(&unit).ok_or("inserted unit is not in the snapshot")?;
        let checker = IncrementalChecker::new(schema);
        let report =
            tr.timed("core.updates.delta_check_insert", || checker.check_insertion(snapshot, root));
        if !report.is_legal() {
            return Err(format!("delta check refused a committed insert:\n{report}"));
        }
        let counter = DeltaQueryCounter::default();
        IncrementalChecker::new(schema).with_probe(&counter).check_insertion(snapshot, root);
        counts.delta_queries.push(counter.0.load(Ordering::Relaxed) as f64);
    }
    if cycle.write.kind == WriteKind::Delete {
        let checker = IncrementalChecker::new(schema);
        tr.timed("core.updates.delta_check_delete", || checker.check_deletion(snapshot, removed));
    }
    if clone_probe {
        // What a commit does twice (rollback pre-image, publish) and
        // what any mutation then forces: renumber + index rebuild.
        let mut copy = tr.timed("directory.instance.clone", || snapshot.clone());
        let parent: EntryId = copy.forest().roots().next().ok_or("empty snapshot")?;
        let entry =
            Entry::builder().classes(["orgUnit", "orgGroup", "top"]).attr("ou", "probe").build();
        copy.add_named_child(parent, Rdn::single("ou", "probe"), entry)
            .map_err(|e| e.to_string())?;
        tr.timed("directory.instance.prepare", || copy.prepare());
        tr.timed("directory.instance.drop", || drop(copy));
    }
    Ok(explained)
}

/// What the lock-step phase collects beside its spans.
#[derive(Default)]
struct Paired {
    /// `apply_ldif_tx` of insert TXNs, `modify`, and `search` of eq
    /// searches on the real service, µs.
    txn_us: Vec<f64>,
    modify_us: Vec<f64>,
    search_us: Vec<f64>,
    /// Per insert TXN / eq search: the share (%) of the service's time
    /// that the rows of the same request on the copy leave unexplained.
    txn_unattributed: Vec<f64>,
    search_unattributed: Vec<f64>,
    /// Spans under each insert TXN on the copy of the served write path.
    insert_spans: Vec<f64>,
}

/// The three copies of one state that the lock-step phase drives.
struct Lockstep<'a> {
    service: &'a DirectoryService,
    script: Script,
    replica: Replica,
    sharded_replica: ShardedReplica,
    /// Whether the served backend is the sharded one, so that the
    /// sharded copy is the one the service's time is held against.
    served_sharded: bool,
    schema: &'a DirectorySchema,
    tally: Tally,
    counts: Counts,
    paired: Paired,
}

impl Lockstep<'_> {
    /// One script cycle: into the service's public calls, then through
    /// the single-backend copy with its probes, then the sharded copy.
    fn cycle(&mut self, tr: &mut Tracer) -> Result<(), String> {
        let clone_probe = self.script.cycles() % 4 == 0;
        let cycle = self.script.next_cycle();
        tr.req = self.script.cycles();
        let op = &cycle.write;

        let started = Instant::now();
        let outcome = if op.kind == WriteKind::Modify {
            self.service.modify(op.dns().next().unwrap_or(""), &mods_of(op))
        } else {
            self.service.apply_ldif_tx(&op.body)
        };
        let write_us = started.elapsed().as_secs_f64() * 1e6;
        self.tally.check(match (&outcome, op.commits()) {
            (Ok(_), true) => Ok(()),
            (Err(e), false) if e.code == "rolled-back" => Ok(()),
            (other, _) => Err(format!("in-process {:?}: {other:?}", op.kind)),
        });
        let mut searches_us = Vec::new();
        for search_op in &cycle.searches {
            let started = Instant::now();
            let reply = self.service.search(
                search_op.base.as_deref(),
                SearchScope::Subtree,
                &search_op.filter,
                search_op.limit,
            );
            searches_us.push(started.elapsed().as_secs_f64() * 1e6);
            self.tally.check(match reply {
                Ok((hits, _)) if hits == search_op.expect_hits => Ok(()),
                other => Err(format!("in-process {}: {:?}", search_op.filter, other.map(|r| r.0))),
            });
        }

        let removed: Vec<Entry> = if op.kind == WriteKind::Delete {
            let live = self.replica.managed.instance();
            op.dns()
                .filter_map(|dn| {
                    live.lookup_dn(&Dn::parse(dn).ok()?).and_then(|id| live.entry(id)).cloned()
                })
                .collect()
        } else {
            Vec::new()
        };
        let single = self.replica.write(tr, op)?;
        let snapshot = self.replica.snapshot.clone();
        let explained = probe_cycle(
            tr,
            &mut self.counts,
            self.schema,
            &snapshot,
            &cycle,
            &removed,
            clone_probe,
        )?;
        let sharded = self.sharded_replica.write(tr, op)?;

        let unexplained = |whole: f64, rows: f64| 100.0 * (whole - rows) / whole;
        match op.kind {
            WriteKind::Insert => {
                let (rows, spans) = tr.children(if self.served_sharded { sharded } else { single });
                self.paired.txn_us.push(write_us);
                self.paired.txn_unattributed.push(unexplained(write_us, rows));
                self.paired.insert_spans.push(spans as f64);
            }
            WriteKind::Modify => self.paired.modify_us.push(write_us),
            _ => {}
        }
        for (i, search_op) in cycle.searches.iter().enumerate() {
            if search_op.kind == SearchKind::Eq {
                self.paired.search_us.push(searches_us[i]);
                self.paired.search_unattributed.push(unexplained(searches_us[i], explained[i]));
            }
        }
        Ok(())
    }
}

/// Runs `f` `times` times; the median wall time in ms.
fn median_ms<T>(times: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..times)
        .map(|_| {
            let started = Instant::now();
            std::hint::black_box(f());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Runs `f` on a thread of its own, as a request runs on a server
/// worker while the state it works on was built by the booting thread.
/// It matters: a fresh thread gets a fresh malloc arena, and a
/// whole-instance clone allocated there is walked up to twice as fast as
/// one allocated in the arena that already holds what the clone copies.
fn on_worker<T: Send>(f: impl FnOnce() -> T + Send) -> Result<T, String> {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("dirbench-worker".to_owned())
            .spawn_scoped(scope, f)
            .map_err(|e| format!("spawning a worker thread: {e}"))?
            .join()
            .map_err(|_| "a worker thread panicked".to_owned())
    })
}

/// The traced run.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    in_scratch_dir(cfg, || measure_layers(cfg))
}

fn measure_layers(cfg: &RunConfig) -> Result<RunResult, String> {
    let wl = cfg.workload;
    let schema = white_pages_schema();
    let base = Base::generate(wl.orgs);
    let mut tr = Tracer::new();
    let mut values: Vec<(&'static str, f64)> = Vec::new();

    // Phase 1: the wire — one group to warm up, one recorded round.
    let journal = cfg.dir.join("wire.journal");
    let Booted { handle, client, .. } = boot(wl, &base.ldif, &journal)?;
    let witness = Witness::new(&base.ldif, wl.nominal_mem_us);
    let script = Script::new(&base, wl.shards, cfg.seed);
    let mut driver = Driver::new(client, script, witness, cfg, &journal);
    driver.round(0.0, None);
    let mut rec = Recording::default();
    driver.round(cfg.seconds * WIRE_SHARE, Some(&mut rec));
    let pings: Vec<f64> = (0..300)
        .map(|_| {
            let started = Instant::now();
            driver.tally.check(driver.client.ping().map(|_| ()).map_err(|e| e.to_string()));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let started = Instant::now();
    driver.tally.check(driver.client.checkpoint().map(|_| ()).map_err(|e| e.to_string()));
    let mut stalls = vec![started.elapsed().as_secs_f64() * 1e3];
    for (class, ms) in &driver.campaign_writes {
        stalls.push(ms - median(&rec.all(*class)));
    }
    values.push(("server.server.ping_rtt_us", median(&pings)));
    values.push(("wire.txn_insert_p95_ms", quantile(&rec.all(Class::Insert), 0.95)));
    values.push(("wire.txn_insert_max_ms", max(&rec.all(Class::Insert))));
    values.push(("wire.search_eq_p99_ms", quantile(&rec.all(Class::Eq), 0.99)));
    values.push(("wire.txn_cross_delete_p50_ms", median(&rec.all(Class::CrossDelete))));
    values.push(("wire.checkpoint_stall_max_ms", max(&stalls)));
    let (cpu, mem) = rec.slowdown();
    values.push(("bench.host_cpu_slowdown", cpu));
    values.push(("bench.host_mem_slowdown", mem));

    // Phase 2: the listener goes away; the service and the script's
    // mirror of it carry on in process, beside two copies of the state
    // the service is in — built here as a boot builds them, worked on by
    // a worker.
    let service = handle.service().clone();
    let Driver { client, script, tally, .. } = driver;
    Booted { handle, client, boot_s: 0.0 }.shutdown();
    let state = service.snapshot();
    let managed = ManagedDirectory::with_instance(schema.clone(), (*state).clone())
        .map_err(|e| format!("copying the served state: {e}"))?;
    // The sharded copy needs shards to route between whatever the
    // served backend is.
    let probe_shards = if wl.shards > 1 { wl.shards } else { 4 };
    let sharded = ShardedDirectory::with_instance(schema.clone(), (*state).clone(), probe_shards)
        .map_err(|e| format!("sharding the served state: {e}"))?;
    drop(state);
    let mut lockstep = Lockstep {
        service: &service,
        script,
        replica: Replica::new(managed, cfg.dir.join("replica.journal")),
        sharded_replica: ShardedReplica::new(sharded, &cfg.dir.join("sharded.journal")),
        served_sharded: wl.shards > 1,
        schema: &schema,
        tally,
        counts: Counts::default(),
        paired: Paired::default(),
    };
    let served_journal_before = std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0);
    on_worker(|| {
        let started = Instant::now();
        let mut groups = 0;
        while groups < 2 || started.elapsed().as_secs_f64() < cfg.seconds * LOCKSTEP_SHARE {
            for _ in 0..GROUP {
                lockstep.cycle(&mut tr)?;
            }
            groups += 1;
        }
        Ok::<_, String>(())
    })??;
    let Lockstep { script, mut replica, sharded_replica, mut tally, counts, paired, .. } = lockstep;

    // The copies are copies only while they end where the service ends.
    let entries_end = service.len();
    tally.check(if entries_end == script.entries() {
        Ok(())
    } else {
        Err(format!("|D| is {entries_end}, the mirror says {}", script.entries()))
    });
    let served = canonical_of([&*service.snapshot()])?;
    tally.check(if replica.canonical()? == served {
        Ok(())
    } else {
        Err("the copy of the single-backend write path left another directory".to_owned())
    });
    tally.check(if sharded_replica.canonical()? == served {
        Ok(())
    } else {
        Err("the copy of the sharded write path left another directory".to_owned())
    });
    if wl.shards == 1 {
        // Same requests, same records: only the digits of the sequence
        // numbers differ (the service's writer began at the boot), a few
        // bytes in a hundred. A missing record would be a sixth.
        let served_bytes =
            std::fs::metadata(&journal).map(|m| m.len()).unwrap_or(0) - served_journal_before;
        let copied_bytes = std::fs::metadata(&replica.journal).map(|m| m.len()).unwrap_or(0);
        tally.check(if served_bytes.abs_diff(copied_bytes) * 10 <= served_bytes {
            Ok(())
        } else {
            Err(format!("the service journalled {served_bytes} B, its copy {copied_bytes} B"))
        });
    }
    drop(service);
    let txn_us = median(&paired.txn_us);
    values.push(("server.service.txn_us", txn_us));
    values.push(("server.service.modify_us", median(&paired.modify_us)));
    values.push(("server.service.search_us", median(&paired.search_us)));
    values.push(("server.service.txn_unattributed_pct", median(&paired.txn_unattributed)));
    values.push(("server.service.search_unattributed_pct", median(&paired.search_unattributed)));
    // What tracing costs an insert TXN on the copy: its spans times what
    // an empty span costs, against what the service takes untraced.
    let mut scratch = Tracer::new();
    // (ms per thousand spans is µs per span.)
    let empty_span_us = median_ms(5, || (0..1000).for_each(|_| scratch.timed("empty", || ())));
    values.push((
        "bench.trace_overhead_pct",
        100.0 * (median(&paired.insert_spans) + 1.0) * empty_span_us / txn_us,
    ));

    // Phase 3: one-shots. The base as a boot meets it.
    let mut copy = tr
        .timed("directory.ldif.load", || ldif::load(&base.ldif))
        .map_err(|e| format!("loading the base: {e}"))?;
    copy.prepare();
    values.push((
        "core.consistency.check_us",
        median_ms(50, || ConsistencyChecker::new(&schema).check().is_consistent()) * 1e3,
    ));
    values.push((
        "core.legality.full_check_ms",
        median_ms(3, || LegalityChecker::new(&schema).check(&copy).is_legal()),
    ));
    drop(copy);

    // A checkpoint of the single-backend copy (a request-path job:
    // CHECKPOINT), then the journal tail a recovery will replay.
    let mut tail_script = script.clone();
    let (ckpt_text, tail_from) = on_worker(|| {
        let live = replica.managed.instance();
        let capture = || {
            let writer = &replica.writer;
            Checkpoint::capture(live, &schema, writer.records_emitted(), writer.next_tx(), None)
        };
        values.push(("core.checkpoint.capture_encode_ms", median_ms(2, || capture().encode())));
        let ckpt_text = capture().encode();
        let ckpt_file = checkpoint_path(&replica.journal);
        values.push((
            "core.checkpoint.write_ms",
            median_ms(2, || write_checkpoint(&ckpt_file, &ckpt_text, bschema_obs::noop())),
        ));
        values
            .push(("core.checkpoint.bytes_per_entry", ckpt_text.len() as f64 / live.len() as f64));
        let tail_from = std::fs::metadata(&replica.journal).map(|m| m.len()).unwrap_or(0);
        let mut committed = 0;
        while committed < TAIL_WRITES {
            let op = tail_script.next_cycle().write;
            tr.req = tail_script.cycles();
            replica.write(&mut tr, &op)?;
            committed += usize::from(op.commits());
        }
        Ok::<_, String>((ckpt_text, tail_from as usize))
    })??;

    // Recovery, a boot-path job — restore alone, and restore plus the
    // tail through the public recovery entry. On a thread of its own
    // too: a restarting process boots into a clean heap, which this
    // process's main thread no longer has.
    let journal_text = std::fs::read_to_string(&replica.journal).map_err(|e| e.to_string())?;
    let tail = Journal::parse(&journal_text[tail_from..]);
    let recover = |journal: &Journal| {
        let started = Instant::now();
        let recovered = recover_with_checkpoint(
            schema.clone(),
            DirectoryInstance::white_pages(),
            Some(&ckpt_text),
            journal,
        )
        .map_err(|e| format!("replaying the tail: {e}"))?;
        Ok::<_, String>((started.elapsed().as_secs_f64() * 1e3, recovered))
    };
    let (restore_ms, bare_ms, tail_ms, reproduced) = on_worker(|| {
        let registry = replica.managed.instance().registry().clone();
        let restore_ms = median_ms(2, || {
            Checkpoint::decode(&ckpt_text).ok().and_then(|c| c.restore(registry.clone()).ok())
        });
        let (bare_ms, _) = recover(&Journal::empty())?;
        let (tail_ms, recovered) = recover(&tail)?;
        let reproduced = recovered.managed.instance().canonical_bytes()
            == replica.managed.instance().canonical_bytes();
        Ok::<_, String>((restore_ms, bare_ms, tail_ms, reproduced))
    })??;
    tally.check(if reproduced {
        Ok(())
    } else {
        Err("tail replay did not reproduce the replica".to_owned())
    });
    values.push(("core.checkpoint.decode_restore_ms", restore_ms));
    values.push(("core.journal.replay_ms_per_tx", (tail_ms - bare_ms) / TAIL_WRITES as f64));
    let insert_bytes = median(&replica.insert_bytes);
    drop(replica);
    values.push((
        "core.sharded.checkpoint_all_ms",
        on_worker(|| median_ms(2, || sharded_replica.sharded.checkpoint_all().len()))?,
    ));
    drop(sharded_replica);

    // Span medians.
    let us = |name: &str| tr.median_us(name);
    let of_insert = |pick: fn(&str) -> bool| tr.median_children("replica.txn.insert", pick);
    for (name, value) in [
        ("server.codec.req_us", us("server.codec.req")),
        ("server.codec.resp_us", us("server.codec.resp")),
        ("server.codec.resp_bytes", median(&counts.resp_bytes)),
        ("directory.ldif.parse_tx_us", of_insert(|n| n == "directory.ldif.parse_tx").0),
        ("directory.ldif.load_ms", us("directory.ldif.load") / 1e3),
        ("directory.ldif.write_record_us", us("directory.ldif.write_record_x100")),
        ("directory.instance.clone_us", us("directory.instance.clone")),
        ("directory.instance.drop_us", us("directory.instance.drop")),
        ("directory.instance.prepare_us", us("directory.instance.prepare")),
        ("directory.instance.dn_us", us("directory.instance.dn_x100") / 100.0),
        ("query.filter_parser.parse_us", us("query.filter_parser.parse")),
        ("query.eval.eq_us", us("query.eval.eq")),
        ("query.eval.subtree_us", us("query.eval.subtree")),
        ("query.eval.page_us", us("query.eval.page")),
        ("query.eval.scanned_per_hit.eq", median(&counts.scanned_per_hit)),
        ("core.updates.tx_build_us", of_insert(|n| n == "core.updates.tx_build").0),
        ("core.updates.delta_check_insert_us", us("core.updates.delta_check_insert")),
        ("core.updates.delta_check_delete_us", us("core.updates.delta_check_delete")),
        ("core.updates.delta_queries_per_tx", median(&counts.delta_queries)),
        ("core.managed.apply_insert_us", us("core.managed.apply_insert")),
        ("core.managed.apply_delete_us", us("core.managed.apply_delete")),
        ("core.managed.apply_reject_us", us("core.managed.apply_reject")),
        ("core.managed.modify_us", us("core.managed.modify")),
        ("core.journal.encode_us", of_insert(|n| n.starts_with("core.journal.")).0),
        ("core.journal.bytes_per_tx", insert_bytes),
        ("fs.append_sync_us", us("fs.append_sync")),
        ("fs.syncs_per_tx", of_insert(|n| n == "fs.append_sync").1),
        ("core.sharded.apply_local_us", us("core.sharded.apply_local")),
        ("core.sharded.apply_cross_us", us("core.sharded.apply_cross")),
        ("core.sharded.publish_us", us("core.sharded.publish")),
    ] {
        values.push((name, value));
    }
    values.push(("bench.cycles", script.cycles() as f64));
    values.push(("bench.entries_end", entries_end as f64));

    let trace_file = cfg.dir.parent().unwrap_or(&cfg.dir).join(format!("trace-{}.json", wl.name));
    tr.write_json(&trace_file).map_err(|e| format!("writing {trace_file:?}: {e}"))?;

    // Report in the table's order; a row nobody measured is a bug here.
    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            let value = values.iter().find(|(name, _)| *name == m.name).map(|(_, v)| *v);
            let value =
                value.ok_or_else(|| format!("per-layer metric {} was not measured", m.name))?;
            tally.check(if value.is_finite() {
                Ok(())
            } else {
                Err(format!("{} is {value}", m.name))
            });
            Ok(Reported { name: m.name, value, unit: m.unit, samples: 0, measured: None })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        base_fnv: fnv1a(base.ldif.as_bytes()),
        script_fnv: Script::fingerprint(&base, wl.shards, cfg.seed, FINGERPRINT_CYCLES),
    })
}
