//! `bschema serve`: the wire server, as a primary or a read replica.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use bschema_core::managed::ManagedDirectory;
use bschema_directory::ldif::LdifLimits;
use bschema_directory::DirectoryInstance;
use bschema_faults::{silence_injected_panics, FaultPlan};
use bschema_obs::{FlightRecorder, MetricsRegistry, SloPolicy};
use bschema_server::{
    DirectoryService, Follower, ReplicationState, Server, ServerConfig, ServiceLimits, WireLimits,
};

use crate::args::{number, Args};
use crate::{filter_depth, ldif_limits, load_ldif, load_schema, usage_error, CliError, ObsOpts};
use crate::{LIMITS, OBS};

/// The value flags of `serve`, beside [`LIMITS`].
const SERVE_FLAGS: &[&str] = &[
    "--addr",
    "--port-file",
    "--threads",
    "--queue-depth",
    "--shards",
    "--journal",
    "--checkpoint-every",
    "--follow",
    "--ship-interval",
    "--slo",
    "--audit",
    "--inject-fault-site",
];

/// `bschema serve <schema.bs> [data.ldif] [flags]` — runs the wire
/// server until a client sends `SHUTDOWN`. The listening address is
/// announced on **stderr** immediately (stdout is buffered until exit)
/// and optionally written to `--port-file` for scripts. A served
/// directory is always metered: `METRICS`, `HEALTH`, `WATCH` and `top`
/// answer, and the request metrics land in the buffered output after the
/// drain when `--metrics[=json]` is given.
pub(crate) fn serve(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let args = Args::read(args, OBS, &[LIMITS, SERVE_FLAGS].concat())?;
    let (schema_path, data_path) = match *args.positional() {
        [schema] => (schema, None),
        [schema, data] => (schema, Some(data)),
        _ => return Err(usage_error("serve takes <schema.bs> [data.ldif]")),
    };
    let obs = ObsOpts::new(&args);
    let addr = args.value("--addr").unwrap_or("127.0.0.1:0");
    let threads = args.number("--threads")?.unwrap_or(4usize);
    let queue_depth = args.number("--queue-depth")?.unwrap_or(64usize);
    let shards = args.number("--shards")?.unwrap_or(1usize);
    let journal_path = args.value("--journal");
    let checkpoint_every = args.number::<u64>("--checkpoint-every")?.map(|n| n.max(1));
    let follow = args.value("--follow");
    let ship_interval_ms = args.number::<u64>("--ship-interval")?.map_or(250, |ms| ms.max(10));
    let slo = args
        .value("--slo")
        .map(SloPolicy::parse)
        .transpose()
        .map_err(|e| usage_error(format!("--slo: {e}")))?;
    let audit_path = args.value("--audit");
    let inject_site = match args.value("--inject-fault-site") {
        Some(word) => Some(match word.rsplit_once(':') {
            Some((site, occ)) if occ.chars().all(|c| c.is_ascii_digit()) => {
                (site, number::<u64>("--inject-fault-site", occ)?)
            }
            _ => (word, 0),
        }),
        None => None,
    };
    // Flag combinations that cannot work are refused before any file is
    // read, any instance checked or any peer contacted.
    if follow.is_some() && (journal_path.is_some() || shards > 1 || data_path.is_some()) {
        return Err(usage_error(
            "--follow replicas bootstrap from the primary; drop data.ldif, --journal, and --shards",
        ));
    }
    // Only SLO alert edges are audited: without an SLO the file would
    // never get a line.
    if audit_path.is_some() && slo.is_none() {
        return Err(usage_error("--audit needs --slo"));
    }
    if checkpoint_every.is_some() && journal_path.is_none() {
        return Err(usage_error("--checkpoint-every needs --journal"));
    }
    // Socket bytes are untrusted: unset limit flags tighten to strict.
    let limits = ServiceLimits {
        ldif: ldif_limits(&args, LdifLimits::strict())?,
        filter_depth: filter_depth(&args)?,
        wire: WireLimits::default(),
    };
    let parsed = load_schema(schema_path)?;
    let dir = match data_path {
        Some(path) => load_ldif(path, Some(&parsed), &limits.ldif)?,
        None => DirectoryInstance::new(parsed.registry.clone()),
    };
    // `--follow <addr>` turns this process into a read replica: the
    // initial state bootstraps from the primary's checkpoint, writes
    // are refused with the stable `read-only` code, and a ship loop
    // keeps the replica fed from the primary's journal.
    let mut follow_ctx = None;
    let base_service = if let Some(primary) = follow {
        let (managed, cursor) =
            Follower::bootstrap_state(primary, &parsed.schema).map_err(|e| CliError {
                message: format!("cannot bootstrap from primary {primary:?}: {e}"),
                code: 1,
            })?;
        let replication = Arc::new(ReplicationState::default());
        // Track the schema the bootstrap actually restored under — the
        // primary may have evolved past the schema file this replica
        // was launched with.
        follow_ctx = Some((primary, replication.clone(), cursor, managed.schema().clone()));
        DirectoryService::new(managed).with_replication(replication)
    } else if shards > 1 {
        // `--shards N` partitions the forest by top-level subtree (the
        // Theorem 4.1 transaction unit): writes to distinct shards commit
        // concurrently, cross-shard transactions take the 2-phase path.
        DirectoryService::new_sharded(parsed.schema.clone(), dir, shards)
            .map_err(|e| CliError { message: e.to_string(), code: 1 })?
    } else {
        let managed = ManagedDirectory::with_instance(parsed.schema.clone(), dir)
            .map_err(|e| CliError { message: e.to_string(), code: 1 })?;
        DirectoryService::new(managed)
    };

    // Every served directory is metered: the registry keeps counters
    // and histograms only — a request's spans live in its own trace
    // (`--trace`) or nowhere, so nothing the server holds grows with the
    // requests it has served — and the sampler behind `HEALTH`, `WATCH`
    // and `top` ticks it once a second.
    let metrics = Arc::new(MetricsRegistry::new());
    let mut service = base_service.with_limits(limits).with_metrics(metrics.clone());
    let plan = inject_site.map(|(site, occurrence)| {
        silence_injected_panics();
        Arc::new(FaultPlan::fail_at_site(site, occurrence))
    });
    if let Some(plan) = &plan {
        service = service.with_probe(plan.clone());
    }
    // `--trace` turns on the flight recorder: the server retains the 16
    // most recent and 16 slowest completed request span trees, queryable
    // over the wire with `bschema client <addr> trace`.
    if obs.trace {
        service = service.with_flight_recorder(Arc::new(FlightRecorder::new(16)));
    }
    // `--slo` folds each tick's window into an error-budget burn rate
    // with edge-triggered alerts, which `--audit` appends to a file.
    if let Some(slo) = slo {
        service = service.with_slo(slo, audit_path.map(PathBuf::from));
    }
    if let Some(path) = journal_path {
        let (recovered, replayed) = service
            .with_journal(path)
            .map_err(|e| usage_error(format!("journal {path:?}: {e}")))?;
        service = recovered;
        if replayed > 0 {
            let _ = writeln!(out, "journal: replayed {replayed} committed tx(s)");
        }
    }
    if let Some(every) = checkpoint_every {
        service = service.with_checkpoint_every(every);
    }

    let config = ServerConfig { addr: addr.to_owned(), threads, queue_depth };
    let service = Arc::new(service);
    let handle = Server::spawn(service.clone(), config)
        .map_err(|e| usage_error(format!("cannot serve on {addr:?}: {e}")))?;
    let bound = handle.addr();
    match follow {
        Some(primary) => eprintln!(
            "SERVING {bound} (read replica of {primary}, {threads} worker(s), queue depth {queue_depth})"
        ),
        None => eprintln!(
            "SERVING {bound} ({threads} worker(s), queue depth {queue_depth}, {shards} shard(s))"
        ),
    }
    if let Some(path) = args.value("--port-file") {
        std::fs::write(path, format!("{bound}\n"))
            .map_err(|e| usage_error(format!("cannot write port file {path:?}: {e}")))?;
    }
    // The ship loop runs beside the acceptor and stops with it.
    let follower_thread = follow_ctx.map(|(primary, replication, cursor, follower_schema)| {
        let mut follower =
            Follower::attach(primary, follower_schema, service.clone(), replication, cursor);
        let stop = handle.signal();
        let interval = Duration::from_millis(ship_interval_ms);
        std::thread::spawn(move || follower.run(interval, &stop))
    });
    handle.wait();
    if let Some(thread) = follower_thread {
        let _ = thread.join();
    }
    let _ = writeln!(out, "STOPPED {bound}");
    if let Some(plan) = &plan {
        let _ = writeln!(
            out,
            "fault plan: {} probe event(s), {} injected",
            plan.events(),
            plan.injected()
        );
    }
    obs.emit(out, &metrics, None);
    Ok(0)
}
