//! # bschema-cli
//!
//! The `bschema` command-line tool: bounding-schema administration from the
//! shell. All command logic lives here (writer-parameterised) so it is unit
//! testable; `main.rs` is a thin shim.
//!
//! ```text
//! bschema check-schema <schema.bs>                  consistency + ◇∅ proof
//! bschema validate <schema.bs> <data.ldif>          legality report with DNs
//! bschema check <data.ldif> <schema.bs>             legality with --trace/--metrics
//! bschema apply <schema.bs> <data.ldif> <tx.ldif>   managed transaction, rollback on illegal
//! bschema recover <schema.bs> <base.ldif> <journal> replay a write-ahead journal
//! bschema consistency <schema.bs>                   consistency with --trace/--metrics
//! bschema witness <schema.bs>                       construct a legal example instance
//! bschema search <data.ldif> --filter F [--base DN] [--scope base|one|sub] [--schema S]
//! bschema print-schema <schema.bs>                  parse + normalise the DSL
//! bschema evolve <schema.bs> <data.ldif> <step...>  try a schema-evolution step
//! bschema suggest-schema <data.ldif>                mine a schema from data (§6.2)
//! bschema discover <data.ldif>                      mine a schema as pure DSL (SCHEMA PROPOSE input)
//! ```
//!
//! The instrumented commands (`check`, `apply`, `consistency`, `recover`)
//! accept `--trace` (hierarchical span tree of the check) and `--metrics` /
//! `--metrics=json` (engine counters and timing histograms; the JSON form
//! is emitted as the **last** output line so scripts can `tail -n 1`).
//!
//! `apply` additionally supports `--journal <path>` (write-ahead journal:
//! the transaction is durably recorded before it mutates anything, and
//! committed only after it is certified legal — `recover` replays exactly
//! the committed prefix after a crash) and `--inject-fault <n>`
//! (deterministic fault injection: the nth probe event panics mid-apply;
//! the `faults.injected` / `faults.survived` counters land in `--metrics`).
//!
//! Exit codes: 0 success / legal / consistent; 1 illegal or inconsistent;
//! 2 usage or input error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::sync::Arc;

use bschema_core::checkpoint::{checkpoint_path, RecoveryPlan};
use bschema_core::consistency::{build_witness, ConsistencyChecker};
use bschema_core::engine::{JournalFiles, JournaledDirectory, Op, OpenError};
use bschema_core::evolution::{self, Evolution};
use bschema_core::journal::Journal;
use bschema_core::legality::{translate, LegalityChecker};
use bschema_core::managed::{ManagedDirectory, ManagedError};
use bschema_core::schema::dsl::{parse_schema, print_schema, ParsedSchema};
use bschema_core::updates::{transaction_from_ldif, Transaction};
use bschema_directory::ldif::LdifLimits;
use bschema_directory::{ldif, DirectoryInstance};
use bschema_faults::{silence_injected_panics, FaultPlan};
use bschema_obs::{json::Value, FlightRecorder, Probe, Recorder, SloPolicy};
use bschema_query::{
    explain, parse_filter_limited, search, EvalContext, SearchRequest, SearchScope,
    DEFAULT_FILTER_DEPTH,
};
use bschema_server::{
    Client, ClientError, DirectoryService, Follower, Monitor, MonitorConfig, ReplicationState,
    Server, ServerConfig, ServiceLimits,
};

/// A CLI failure: message plus process exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Suggested process exit code (2 = usage/input, 1 = negative verdict).
    pub code: i32,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn usage_error(message: impl Into<String>) -> CliError {
    CliError { message: message.into(), code: 2 }
}

/// Dispatches a command line (without the program name). Writes output to
/// `out`; returns the exit code.
pub fn run(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let Some(command) = args.first() else {
        return Err(usage_error(USAGE));
    };
    match command.as_str() {
        "check-schema" => check_schema(&args[1..], out),
        "validate" => validate(&args[1..], out),
        "check" => cmd_check(&args[1..], out),
        "apply" => cmd_apply(&args[1..], out),
        "recover" => cmd_recover(&args[1..], out),
        "checkpoint" => cmd_checkpoint(&args[1..], out),
        "consistency" => cmd_consistency(&args[1..], out),
        "witness" => witness(&args[1..], out),
        "search" => cmd_search(&args[1..], out),
        "print-schema" => cmd_print_schema(&args[1..], out),
        "evolve" => cmd_evolve(&args[1..], out),
        "suggest-schema" => cmd_suggest(&args[1..], out),
        "discover" => cmd_discover(&args[1..], out),
        "serve" => cmd_serve(&args[1..], out),
        "client" => cmd_client(&args[1..], out),
        "top" => cmd_top(&args[1..], out),
        "help" | "--help" | "-h" => {
            out.push_str(USAGE);
            Ok(0)
        }
        other => Err(usage_error(format!("unknown command {other:?}\n{USAGE}"))),
    }
}

/// The usage text.
pub const USAGE: &str = "\
bschema — bounding-schemas for LDAP directories (EDBT 2000)

usage:
  bschema check-schema <schema.bs>
  bschema validate <schema.bs> <data.ldif>
  bschema check <data.ldif> <schema.bs> [--explain] [--trace] [--metrics[=json]]
  bschema apply <schema.bs> <data.ldif> <tx.ldif> [--journal <path>] [--inject-fault <n>] [--trace] [--metrics[=json]]
  bschema recover <schema.bs> <base.ldif> <journal> [--verify] [--trace] [--metrics[=json]]
  bschema checkpoint <schema.bs> <base.ldif> <journal>
  bschema consistency <schema.bs> [--trace] [--metrics[=json]]
  bschema witness <schema.bs>
  bschema search <data.ldif> --filter <rfc2254> [--base <dn>] [--scope base|one|sub] [--schema <schema.bs>]
  bschema print-schema <schema.bs>
  bschema evolve <schema.bs> <data.ldif> require-attr <class> <attr>
  bschema evolve <schema.bs> <data.ldif> allow-attr <class> <attr>
  bschema evolve <schema.bs> <data.ldif> require-class <class>
  bschema evolve <schema.bs> <data.ldif> require-rel <src> <ch|de|pa|an> <tgt>
  bschema evolve <schema.bs> <data.ldif> forbid-rel <upper> <ch|de> <lower>
  bschema evolve <schema.bs> <data.ldif> add-class <name> [parent]
  bschema evolve <schema.bs> <data.ldif> add-aux <name>
  bschema evolve <schema.bs> <data.ldif> allow-aux <core> <aux>
  bschema suggest-schema <data.ldif> [--forbidden] [--required-classes]
  bschema discover <data.ldif> [--forbidden] [--required-classes]
  bschema serve <schema.bs> [data.ldif] [--addr <ip:port>] [--port-file <path>]
          [--threads <n>] [--queue-depth <n>] [--shards <n>] [--journal <path>]
          [--checkpoint-every <n>] [--follow <addr>] [--ship-interval <ms>]
          [--trace] [--metrics[=json]]
          [--monitor-interval <ms>] [--slo p99=<dur>,err=<rate>] [--audit <path>]
          [--inject-fault-site <site>[:<occurrence>]]
  bschema client <addr> ping
  bschema client <addr> search --filter <rfc2254> [--base <dn>] [--scope base|one|sub] [--limit <n>] [--explain]
  bschema client <addr> apply <tx.ldif>
  bschema client <addr> modify <mods.txt>
  bschema client <addr> metrics | prom | stats | trace | health | checkpoint | shutdown
  bschema client <addr> schema propose <payload-file> | --step <word>...
  bschema client <addr> schema check | status | commit | abort
  bschema client <addr> watch [--ticks <n>]
  bschema top <addr> [--once] [--ticks <n>]

input limits (check, validate, apply, search, serve):
  --max-line-len <bytes>  --max-records <n>  --max-filter-depth <n>
";

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| usage_error(format!("cannot read {path:?}: {e}")))
}

fn load_schema(path: &str) -> Result<ParsedSchema, CliError> {
    parse_schema(&read_file(path)?).map_err(|e| usage_error(format!("{path}: {e}")))
}

fn load_ldif(path: &str, parsed: Option<&ParsedSchema>) -> Result<DirectoryInstance, CliError> {
    load_ldif_limited(path, parsed, &LdifLimits::default())
}

fn load_ldif_limited(
    path: &str,
    parsed: Option<&ParsedSchema>,
    limits: &LdifLimits,
) -> Result<DirectoryInstance, CliError> {
    let text = read_file(path)?;
    let mut dir = match parsed {
        Some(p) => DirectoryInstance::new(p.registry.clone()),
        None => DirectoryInstance::white_pages(),
    };
    ldif::load_into_limited(&mut dir, &text, limits)
        .map_err(|e| usage_error(format!("{path}: {e}")))?;
    dir.prepare();
    Ok(dir)
}

fn check_schema(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let [path] = args else {
        return Err(usage_error("check-schema takes exactly one schema file"));
    };
    let parsed = load_schema(path)?;
    let verdict = ConsistencyChecker::new(&parsed.schema).check();
    let _ = writeln!(
        out,
        "schema {:?}: {} classes, {} structure elements, closure {} elements",
        parsed.schema.name().unwrap_or("unnamed"),
        parsed.schema.classes().len(),
        parsed.schema.structure().len(),
        verdict.closure_size()
    );
    if verdict.is_consistent() {
        let _ = writeln!(out, "CONSISTENT: at least one legal directory instance exists");
        Ok(0)
    } else {
        let _ = writeln!(out, "INCONSISTENT: no legal directory instance can exist");
        let _ = writeln!(out, "{}", verdict.explain_inconsistency().unwrap_or_default());
        Ok(1)
    }
}

fn validate(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut limits = LimitOpts::default();
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if limits.accept(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            path if !path.starts_with("--") => positional.push(path),
            other => return Err(usage_error(format!("unknown option {other:?}"))),
        }
    }
    let [schema_path, ldif_path] = positional[..] else {
        return Err(usage_error("validate takes <schema.bs> <data.ldif>"));
    };
    let parsed = load_schema(schema_path)?;
    let dir =
        load_ldif_limited(ldif_path, Some(&parsed), &limits.ldif_limits(LdifLimits::default()))?;
    let report = LegalityChecker::new(&parsed.schema).with_value_validation(true).check(&dir);
    let _ = writeln!(
        out,
        "{} entries checked against {:?}",
        dir.len(),
        parsed.schema.name().unwrap_or("unnamed")
    );
    if report.is_legal() {
        let _ = writeln!(out, "LEGAL");
        Ok(0)
    } else {
        let _ = writeln!(out, "ILLEGAL: {} violation(s)", report.len());
        for v in report.violations() {
            let location = v
                .entry()
                .and_then(|id| dir.dn(id).ok())
                .map(|dn| format!(" [dn: {dn}]"))
                .unwrap_or_default();
            let _ = writeln!(out, "  - {v}{location}");
        }
        Ok(1)
    }
}

/// How `--metrics` output should be rendered.
#[derive(Clone, Copy)]
enum MetricsFormat {
    Text,
    Json,
}

/// Observability flags shared by `check`, `apply`, and `consistency`.
#[derive(Default)]
struct ObsOpts {
    trace: bool,
    metrics: Option<MetricsFormat>,
}

impl ObsOpts {
    /// Consumes `arg` if it is an observability flag.
    fn accept(&mut self, arg: &str) -> bool {
        match arg {
            "--trace" => self.trace = true,
            "--metrics" => self.metrics = Some(MetricsFormat::Text),
            "--metrics=json" => self.metrics = Some(MetricsFormat::Json),
            _ => return false,
        }
        true
    }

    fn wanted(&self) -> bool {
        self.trace || self.metrics.is_some()
    }

    /// Emits the collected trace and metrics. The JSON form goes last so
    /// the final output line is always the one machine-readable object.
    fn emit(&self, recorder: &Recorder, out: &mut String) {
        if self.trace {
            out.push_str(&recorder.trace_text());
        }
        match self.metrics {
            Some(MetricsFormat::Text) => out.push_str(&recorder.metrics_text()),
            Some(MetricsFormat::Json) => {
                let _ = writeln!(out, "{}", recorder.to_json());
            }
            None => {}
        }
    }
}

/// Input resource-limit flags shared by `check`, `validate`, `apply`,
/// `search`, and `serve`. Unset fields keep [`LdifLimits::default`] /
/// [`DEFAULT_FILTER_DEPTH`]; `serve` tightens the unset LDIF fields to
/// [`LdifLimits::strict`] because socket bytes are untrusted.
#[derive(Default)]
struct LimitOpts {
    max_line_len: Option<usize>,
    max_records: Option<usize>,
    max_filter_depth: Option<usize>,
}

impl LimitOpts {
    /// Consumes `arg` (pulling its value from `it`) if it is a limit
    /// flag.
    fn accept(
        &mut self,
        arg: &str,
        it: &mut std::slice::Iter<'_, String>,
    ) -> Result<bool, CliError> {
        let parse = |flag: &str, it: &mut std::slice::Iter<'_, String>| {
            let word = next_value(it, flag)?;
            word.parse::<usize>()
                .map_err(|_| usage_error(format!("{flag} needs a number, got {word:?}")))
        };
        match arg {
            "--max-line-len" => self.max_line_len = Some(parse("--max-line-len", it)?),
            "--max-records" => self.max_records = Some(parse("--max-records", it)?),
            "--max-filter-depth" => self.max_filter_depth = Some(parse("--max-filter-depth", it)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn ldif_limits(&self, base: LdifLimits) -> LdifLimits {
        LdifLimits {
            max_line_len: self.max_line_len.unwrap_or(base.max_line_len),
            max_records: self.max_records.unwrap_or(base.max_records),
            ..base
        }
    }

    fn filter_depth(&self) -> usize {
        self.max_filter_depth.unwrap_or(DEFAULT_FILTER_DEPTH)
    }
}

fn cmd_check(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut obs = ObsOpts::default();
    let mut limits = LimitOpts::default();
    let mut explain_plan = false;
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if obs.accept(arg) || limits.accept(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--explain" => explain_plan = true,
            path if !path.starts_with("--") => positional.push(path),
            other => return Err(usage_error(format!("unknown option {other:?}"))),
        }
    }
    let [ldif_path, schema_path] = positional[..] else {
        return Err(usage_error("check takes <data.ldif> <schema.bs>"));
    };
    let parsed = load_schema(schema_path)?;
    let dir =
        load_ldif_limited(ldif_path, Some(&parsed), &limits.ldif_limits(LdifLimits::default()))?;
    let recorder = Recorder::new();
    let report = LegalityChecker::new(&parsed.schema).with_probe(&recorder).check(&dir);
    let _ = writeln!(
        out,
        "{} entries checked against {:?}",
        dir.len(),
        parsed.schema.name().unwrap_or("unnamed")
    );
    let code = if report.is_legal() {
        let _ = writeln!(out, "LEGAL");
        0
    } else {
        let _ = writeln!(out, "ILLEGAL: {} violation(s)", report.len());
        for v in report.violations() {
            let location = v
                .entry()
                .and_then(|id| dir.dn(id).ok())
                .map(|dn| format!(" [dn: {dn}]"))
                .unwrap_or_default();
            let _ = writeln!(out, "  - {v}{location}");
        }
        1
    };
    if explain_plan {
        explain_structure_queries(&parsed.schema, &dir, out);
    }
    obs.emit(&recorder, out);
    Ok(code)
}

/// `check --explain`: renders the evaluation plan of every structure
/// query (the Figure 4 translation, in engine order) against the loaded
/// instance — which index each step reused or seeded, candidate-set
/// sizes, and entries scanned vs. matched — then a totals line.
fn explain_structure_queries(
    schema: &bschema_core::schema::DirectorySchema,
    dir: &DirectoryInstance,
    out: &mut String,
) {
    let structure = schema.structure();
    let mut queries = Vec::new();
    for class in structure.required_classes() {
        queries.push(translate::required_class_query(schema, class));
    }
    for rel in structure.required_rels() {
        queries.push(translate::required_rel_query(schema, rel));
    }
    for rel in structure.forbidden_rels() {
        queries.push(translate::forbidden_rel_query(schema, rel));
    }
    let _ =
        writeln!(out, "EXPLAIN: {} structure queries (the Figure 4 translation)", queries.len());
    let ctx = EvalContext::new(dir);
    let (mut scanned, mut matched) = (0usize, 0usize);
    for query in &queries {
        let report = explain(&ctx, query);
        scanned += report.scanned();
        matched += report.matched();
        out.push_str(&report.render_text());
    }
    let _ = writeln!(
        out,
        "EXPLAIN totals: {} queries, scanned={scanned}, matched={matched}",
        queries.len()
    );
}

/// Builds an insertion/deletion transaction from LDIF text — the shared
/// [`transaction_from_ldif`] decoder, so the CLI and the wire server
/// accept exactly the same change format.
fn build_transaction(
    dir: &DirectoryInstance,
    text: &str,
    limits: &LdifLimits,
) -> Result<Transaction, CliError> {
    let records = ldif::parse_ldif_limited(text, limits)
        .map_err(|e| usage_error(format!("transaction: {e}")))?;
    transaction_from_ldif(dir, records).map_err(|e| usage_error(format!("transaction: {e}")))
}

fn cmd_apply(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut obs = ObsOpts::default();
    let mut limits = LimitOpts::default();
    let mut journal_path: Option<&str> = None;
    let mut inject_fault: Option<u64> = None;
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if obs.accept(arg) || limits.accept(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--journal" => journal_path = Some(next_value(&mut it, "--journal")?),
            "--inject-fault" => {
                let word = next_value(&mut it, "--inject-fault")?;
                let n = word.parse().map_err(|_| {
                    usage_error(format!("--inject-fault needs an event number, got {word:?}"))
                })?;
                inject_fault = Some(n);
            }
            path if !path.starts_with("--") => positional.push(path),
            other => return Err(usage_error(format!("unknown option {other:?}"))),
        }
    }
    let [schema_path, ldif_path, tx_path] = positional[..] else {
        return Err(usage_error("apply takes <schema.bs> <data.ldif> <tx.ldif>"));
    };
    let parsed = load_schema(schema_path)?;
    let ldif_limits = limits.ldif_limits(LdifLimits::default());
    let dir = load_ldif_limited(ldif_path, Some(&parsed), &ldif_limits)?;
    let recorder = Arc::new(Recorder::new());
    let plan = inject_fault.map(|n| {
        silence_injected_panics();
        Arc::new(FaultPlan::fail_nth(n).with_inner(recorder.clone()))
    });
    let mut managed = ManagedDirectory::with_instance(parsed.schema.clone(), dir)
        .map_err(|e| CliError { message: e.to_string(), code: 1 })?;
    if let Some(plan) = &plan {
        managed = managed.with_probe(plan.clone());
    } else if obs.wanted() {
        managed = managed.with_probe(recorder.clone());
    }

    // With `--journal` the file is opened through the one recovery path:
    // torn tail repaired in place, checkpoint + history replayed onto the
    // data file, writer resumed past both cursors. The transaction is
    // then built and checked against the *recovered* state.
    let mut engine = match journal_path {
        None => JournaledDirectory::new(managed),
        Some(path) => {
            let (engine, report) =
                JournaledDirectory::open(managed, path).map_err(|e| match e {
                    OpenError::Io(e) => usage_error(format!("journal {path:?}: {e}")),
                    OpenError::Recovery(e) => CliError { message: e.to_string(), code: 1 },
                })?;
            if report.truncated {
                let _ = writeln!(
                    out,
                    "journal: repaired torn tail ({} damaged record(s) dropped)",
                    report.dropped_records
                );
            }
            engine
        }
    };

    let tx = build_transaction(engine.instance(), &read_file(tx_path)?, &ldif_limits)?;
    // WAL discipline, owned by the engine: the transaction is certified
    // legal on a copy first, the begin record (with the full transaction
    // payload) is synced to the file before the instance changes, then
    // the commit record. A rolled-back transaction writes nothing; a
    // crash in between leaves an uncommitted record that `recover`
    // discards.
    let journal_error =
        |e: std::io::Error| usage_error(format!("cannot write journal {journal_path:?}: {e}"));
    let code = match engine.certify(Op::Tx { tx: &tx, global: None }) {
        Ok(certified) => {
            let begun = engine.begin(certified).map_err(journal_error)?;
            // Unlike a server, the process ends here: a commit record
            // that did not reach the file means the change is lost.
            let (committed, flushed) = engine.commit(begun);
            flushed.map_err(journal_error)?;
            engine.install(committed);
            let _ = writeln!(
                out,
                "APPLIED: {} op(s); directory now has {} entries (legal)",
                tx.len(),
                engine.managed().len()
            );
            0
        }
        Err(ManagedError::RolledBack(report)) => {
            let _ = writeln!(out, "ROLLED BACK: {} violation(s)", report.len());
            for v in report.violations() {
                let _ = writeln!(out, "  - {v}");
            }
            1
        }
        Err(ManagedError::Panicked { reason }) => {
            let _ = writeln!(out, "PANICKED (rolled back, instance unchanged): {reason}");
            1
        }
        Err(e) => return Err(CliError { message: e.to_string(), code: 2 }),
    };
    if let Some(plan) = &plan {
        let outcome = if plan.injected() == 0 {
            "none fired"
        } else if code == 0 {
            "survived"
        } else {
            "rolled back"
        };
        let _ = writeln!(
            out,
            "fault plan: {} probe event(s), {} injected ({outcome})",
            plan.events(),
            plan.injected()
        );
        if plan.injected() > 0 && code == 0 {
            recorder.add("faults.survived", 1);
        }
    }
    obs.emit(&recorder, out);
    Ok(code)
}

fn cmd_recover(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut obs = ObsOpts::default();
    let mut verify = false;
    let mut positional: Vec<&str> = Vec::new();
    for arg in args {
        if obs.accept(arg) {
            continue;
        }
        match arg.as_str() {
            "--verify" => verify = true,
            path if !path.starts_with("--") => positional.push(path),
            other => return Err(usage_error(format!("unknown option {other:?}"))),
        }
    }
    let [schema_path, base_path, journal_path] = positional[..] else {
        return Err(usage_error("recover takes <schema.bs> <base.ldif> <journal> [--verify]"));
    };
    let parsed = load_schema(schema_path)?;
    let JournalFiles { journal, ckpt_text, .. } = read_journal_files(journal_path)?;
    let plan = RecoveryPlan::new(parsed.schema.clone(), ckpt_text.as_deref(), &journal);
    if verify {
        return cmd_recover_verify(&journal, &plan, out);
    }
    let base = load_ldif(base_path, Some(&parsed))?;
    if journal.truncated {
        let _ = writeln!(
            out,
            "journal: torn tail, {} damaged record(s) dropped",
            journal.dropped_records
        );
    }
    match plan.execute(base, &journal) {
        Ok(recovery) => {
            let (managed, report) = (recovery.managed, recovery.report);
            if let Some(seq) = recovery.checkpoint_seq {
                let _ = writeln!(out, "checkpoint: restored snapshot covering seq {seq}");
            } else if ckpt_text.is_some() {
                let _ = writeln!(out, "checkpoint: unusable, fell back to full replay");
            }
            let _ = writeln!(
                out,
                "RECOVERED: replayed {} committed tx(s), discarded {} uncommitted; directory has {} entries",
                report.replayed,
                report.discarded,
                managed.len()
            );
            let recorder = Recorder::new();
            let legal = if obs.wanted() {
                LegalityChecker::new(&parsed.schema)
                    .with_probe(&recorder)
                    .check(managed.instance())
                    .is_legal()
            } else {
                managed.is_legal()
            };
            let code = if legal {
                let _ = writeln!(out, "LEGAL");
                0
            } else {
                let _ = writeln!(out, "ILLEGAL");
                1
            };
            obs.emit(&recorder, out);
            Ok(code)
        }
        Err(e) => {
            let _ = writeln!(out, "RECOVERY FAILED: {e}");
            Ok(1)
        }
    }
}

/// `recover --verify`: the dry run. Reports what recovery *would* do —
/// intact/torn record counts and the [`RecoveryPlan`] `recover` itself
/// executes (checkpoint usability, the recovery point) — without
/// mutating the journal, the checkpoint, or anything else on disk.
fn cmd_recover_verify(
    journal: &Journal,
    plan: &RecoveryPlan,
    out: &mut String,
) -> Result<i32, CliError> {
    let (start, next, committed) =
        (journal.start_seq, journal.next_seq(), journal.committed().count());
    let (records, uncommitted) = (next - start, journal.txs.len() - committed);
    let _ = writeln!(
        out,
        "journal: {records} intact record(s) (seq {start}..{next}), {committed} committed tx(s), {uncommitted} uncommitted",
    );
    if journal.truncated {
        let _ = writeln!(
            out,
            "journal: TORN tail — {} damaged record(s) would be dropped, file would shrink to {} byte(s)",
            journal.dropped_records, journal.intact_len
        );
    } else {
        let _ = writeln!(out, "journal: tail intact");
    }
    let code = match plan {
        RecoveryPlan::Restore { ckpt, adopted, tail, .. } => {
            let (entries, seq) = (ckpt.rows.len(), ckpt.seq);
            let adoption = match adopted {
                true => " (schema evolved since boot: adopting the checkpoint's embedded schema)",
                false => "",
            };
            let _ =
                writeln!(out, "checkpoint: intact, {entries} entries covering seq {seq}{adoption}");
            let _ = writeln!(
                out,
                "recovery point: checkpoint seq {seq} + {tail} tail tx(s) would replay"
            );
            0
        }
        RecoveryPlan::FullReplay { ignored, txs, .. } => {
            let ckpt =
                ignored.as_ref().map_or("none".to_owned(), |why| format!("UNUSABLE — {why}"));
            let _ = writeln!(out, "checkpoint: {ckpt}");
            let _ = writeln!(
                out,
                "recovery point: full replay, {txs} committed tx(s) from the seed base"
            );
            0
        }
        RecoveryPlan::Fatal(why) => {
            let _ = writeln!(out, "VERIFY FAILED: {why} — recovery would be refused");
            1
        }
    };
    let _ = writeln!(out, "VERIFY ONLY: no files were modified");
    Ok(code)
}

/// `bschema checkpoint` — offline compaction: recover the directory
/// (checkpoint + tail, or full replay), certify it legal, snapshot it
/// into `<journal>.ckpt`, and truncate the journal. The write order
/// (checkpoint renamed into place before the journal shrinks) means a
/// crash mid-command never loses history.
fn cmd_checkpoint(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut positional: Vec<&str> = Vec::new();
    for arg in args {
        match arg.as_str() {
            path if !path.starts_with("--") => positional.push(path),
            other => return Err(usage_error(format!("unknown option {other:?}"))),
        }
    }
    let [schema_path, base_path, journal_path] = positional[..] else {
        return Err(usage_error("checkpoint takes <schema.bs> <base.ldif> <journal>"));
    };
    let parsed = load_schema(schema_path)?;
    let base = load_ldif(base_path, Some(&parsed))?;
    let JournalFiles { journal, ckpt_text, .. } = read_journal_files(journal_path)?;
    if journal.truncated {
        let _ = writeln!(
            out,
            "journal: torn tail, {} damaged record(s) discarded",
            journal.dropped_records
        );
    }
    let plan = RecoveryPlan::new(parsed.schema.clone(), ckpt_text.as_deref(), &journal);
    let recovery = match plan.execute(base, &journal) {
        Ok(recovery) => recovery,
        Err(e) => {
            let _ = writeln!(out, "RECOVERY FAILED: {e}");
            return Ok(1);
        }
    };
    let folded = recovery.report.replayed;
    let mut engine = JournaledDirectory::from_recovery(recovery);
    engine.attach_file(journal_path.into());
    let seq = engine
        .checkpoint(&Recorder::new())
        .map_err(|e| usage_error(format!("checkpointing {journal_path:?}: {e}")))?;
    let _ = writeln!(
        out,
        "CHECKPOINTED: {} entries at seq {seq} -> {}; journal truncated ({folded} committed tx(s) folded in)",
        engine.managed().len(),
        checkpoint_path(std::path::Path::new(journal_path)).display(),
    );
    Ok(0)
}

/// Reads a journal file (which must exist) and its checkpoint sibling,
/// writing nothing.
fn read_journal_files(journal_path: &str) -> Result<JournalFiles, CliError> {
    let path = std::path::Path::new(journal_path);
    if !path.exists() {
        return Err(usage_error(format!("cannot read {journal_path:?}: no such file")));
    }
    JournalFiles::read(path).map_err(|e| usage_error(format!("{journal_path:?}: {e}")))
}

fn cmd_consistency(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut obs = ObsOpts::default();
    let mut positional: Vec<&str> = Vec::new();
    for arg in args {
        if obs.accept(arg) {
            continue;
        }
        match arg.as_str() {
            path if !path.starts_with("--") => positional.push(path),
            other => return Err(usage_error(format!("unknown option {other:?}"))),
        }
    }
    let [path] = positional[..] else {
        return Err(usage_error("consistency takes exactly one schema file"));
    };
    let parsed = load_schema(path)?;
    let recorder = Recorder::new();
    let verdict = ConsistencyChecker::new(&parsed.schema).with_probe(&recorder).check();
    let _ = writeln!(
        out,
        "schema {:?}: closure {} elements",
        parsed.schema.name().unwrap_or("unnamed"),
        verdict.closure_size()
    );
    let code = if verdict.is_consistent() {
        let _ = writeln!(out, "CONSISTENT");
        0
    } else {
        let _ = writeln!(out, "INCONSISTENT");
        let _ = writeln!(out, "{}", verdict.explain_inconsistency().unwrap_or_default());
        1
    };
    obs.emit(&recorder, out);
    Ok(code)
}

fn witness(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let [path] = args else {
        return Err(usage_error("witness takes exactly one schema file"));
    };
    let parsed = load_schema(path)?;
    let verdict = ConsistencyChecker::new(&parsed.schema).check();
    if !verdict.is_consistent() {
        let _ = writeln!(out, "INCONSISTENT — no witness exists:");
        let _ = writeln!(out, "{}", verdict.explain_inconsistency().unwrap_or_default());
        return Ok(1);
    }
    match build_witness(&parsed.schema) {
        Ok(instance) => {
            let _ = writeln!(out, "witness with {} entries (verified legal):", instance.len());
            for (id, entry) in instance.iter() {
                let depth = instance.forest().depth(id);
                let _ = writeln!(out, "{}- {}", "  ".repeat(depth), entry.classes().join(","));
            }
            Ok(0)
        }
        Err(e) => Err(CliError { message: format!("witness construction failed: {e}"), code: 1 }),
    }
}

fn cmd_search(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut limits = LimitOpts::default();
    let mut ldif_path: Option<&str> = None;
    let mut filter_text: Option<&str> = None;
    let mut base_dn: Option<&str> = None;
    let mut scope = SearchScope::Subtree;
    let mut schema_path: Option<&str> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if limits.accept(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--filter" => filter_text = Some(next_value(&mut it, "--filter")?),
            "--base" => base_dn = Some(next_value(&mut it, "--base")?),
            "--schema" => schema_path = Some(next_value(&mut it, "--schema")?),
            "--scope" => {
                scope = match next_value(&mut it, "--scope")? {
                    "base" => SearchScope::Base,
                    "one" | "onelevel" => SearchScope::OneLevel,
                    "sub" | "subtree" => SearchScope::Subtree,
                    other => return Err(usage_error(format!("unknown scope {other:?}"))),
                }
            }
            path if !path.starts_with("--") => ldif_path = Some(path),
            other => return Err(usage_error(format!("unknown option {other:?}"))),
        }
    }
    let ldif_path = ldif_path.ok_or_else(|| usage_error("search needs a data.ldif argument"))?;
    let filter_text = filter_text.ok_or_else(|| usage_error("search needs --filter"))?;
    let filter = parse_filter_limited(filter_text, limits.filter_depth())
        .map_err(|e| usage_error(format!("bad filter: {e}")))?;

    let parsed = schema_path.map(load_schema).transpose()?;
    let dir =
        load_ldif_limited(ldif_path, parsed.as_ref(), &limits.ldif_limits(LdifLimits::default()))?;

    let base = match base_dn {
        Some(text) => {
            let dn = text.parse().map_err(|e| usage_error(format!("bad base DN: {e}")))?;
            Some(
                dir.lookup_dn(&dn)
                    .ok_or_else(|| usage_error(format!("base DN {text:?} not found")))?,
            )
        }
        None => None,
    };
    let request = SearchRequest { base, scope, filter, size_limit: None };
    let hits = search(&dir, &request);
    let _ = writeln!(out, "{} entries match", hits.len());
    for id in hits {
        match dir.dn(id) {
            Ok(dn) => {
                let _ = writeln!(out, "dn: {dn}");
            }
            Err(_) => {
                let _ = writeln!(out, "entry {id}");
            }
        }
    }
    Ok(0)
}

fn next_value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, CliError> {
    it.next().map(String::as_str).ok_or_else(|| usage_error(format!("{flag} needs a value")))
}

fn cmd_print_schema(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let [path] = args else {
        return Err(usage_error("print-schema takes exactly one schema file"));
    };
    let parsed = load_schema(path)?;
    out.push_str(&print_schema(&parsed.schema, Some(&parsed.registry)));
    Ok(0)
}

fn cmd_evolve(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let [schema_path, ldif_path, rest @ ..] = args else {
        return Err(usage_error("evolve takes <schema.bs> <data.ldif> <step...>"));
    };
    let step = parse_step(rest)?;
    let parsed = load_schema(schema_path)?;
    let dir = load_ldif(ldif_path, Some(&parsed))?;
    // The instance must be legal for the targeted recheck to be meaningful.
    let before = LegalityChecker::new(&parsed.schema).check(&dir);
    if !before.is_legal() {
        let _ = writeln!(
            out,
            "directory is not legal under the current schema; fix it first:\n{before}"
        );
        return Ok(1);
    }
    match evolution::evolve(&parsed.schema, &step, &dir) {
        Ok(evolved) => {
            let _ = writeln!(
                out,
                "OK: {step} is safe ({} kind)",
                if step.is_relaxing() {
                    "relaxing — no recheck needed"
                } else {
                    "restricting — new element verified"
                }
            );
            let _ = writeln!(out, "evolved schema:\n");
            out.push_str(&print_schema(&evolved, None));
            Ok(0)
        }
        Err(e) => {
            let _ = writeln!(out, "REFUSED: {e}");
            Ok(1)
        }
    }
}

fn cmd_suggest(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut ldif_path: Option<&str> = None;
    let mut options = bschema_core::discover::DiscoveryOptions::default();
    for arg in args {
        match arg.as_str() {
            "--forbidden" => options.forbidden = true,
            "--required-classes" => options.required_classes = true,
            path if !path.starts_with("--") => ldif_path = Some(path),
            other => return Err(usage_error(format!("unknown option {other:?}"))),
        }
    }
    let ldif_path = ldif_path.ok_or_else(|| usage_error("suggest-schema needs a data.ldif"))?;
    let dir = load_ldif(ldif_path, None)?;
    let suggested = bschema_core::discover::suggest_schema(&dir, &options);
    // Sanity: the suggestion must accept its own source.
    let report = LegalityChecker::new(&suggested).check(&dir);
    debug_assert!(report.is_legal(), "discovery invariant: {report}");
    let _ = writeln!(
        out,
        "# mined from {} entries; prune before adopting as a prescriptive schema",
        dir.len()
    );
    out.push_str(&print_schema(&suggested, None));
    Ok(0)
}

/// `bschema discover <data.ldif>` — mines a bounding-schema from the
/// instance (§6.2) and emits it as **pure schema DSL**, nothing else:
/// the output is directly valid as a `SCHEMA PROPOSE` payload
/// (`bschema discover data.ldif | bschema client <addr> schema propose
/// /dev/stdin`) or a `bschema serve` schema file. `suggest-schema` is
/// the human-facing variant with a provenance header.
fn cmd_discover(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut ldif_path: Option<&str> = None;
    let mut options = bschema_core::discover::DiscoveryOptions::default();
    for arg in args {
        match arg.as_str() {
            "--forbidden" => options.forbidden = true,
            "--required-classes" => options.required_classes = true,
            path if !path.starts_with("--") => ldif_path = Some(path),
            other => return Err(usage_error(format!("unknown option {other:?}"))),
        }
    }
    let ldif_path = ldif_path.ok_or_else(|| usage_error("discover needs a data.ldif"))?;
    let dir = load_ldif(ldif_path, None)?;
    let suggested = bschema_core::discover::suggest_schema(&dir, &options);
    // The emitted DSL must round-trip: parse back and accept its own
    // source instance, or it would be refused as a PROPOSE payload.
    let report = LegalityChecker::new(&suggested).check(&dir);
    debug_assert!(report.is_legal(), "discovery invariant: {report}");
    out.push_str(&print_schema(&suggested, None));
    Ok(0)
}

/// One grammar for evolution steps everywhere: `bschema evolve`
/// arguments parse through the same [`plan::parse_step_words`] the
/// server's `SCHEMA PROPOSE` step lines go through, so anything the
/// CLI accepts offline is also a valid online proposal (and vice
/// versa) — including the relaxing `add-class` / `add-aux` /
/// `allow-aux` forms.
fn parse_step(words: &[String]) -> Result<Evolution, CliError> {
    let words: Vec<&str> = words.iter().map(String::as_str).collect();
    bschema_core::evolution::plan::parse_step_words(&words)
        .map_err(|e| usage_error(format!("{e}; see `bschema help`")))
}

/// `bschema serve <schema.bs> [data.ldif] [flags]` — runs the wire
/// server until a client sends `SHUTDOWN`. The listening address is
/// announced on **stderr** immediately (stdout is buffered until exit)
/// and optionally written to `--port-file` for scripts; request metrics
/// land in the buffered output after the drain when `--metrics[=json]`
/// is given.
fn cmd_serve(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let mut obs = ObsOpts::default();
    let mut limits = LimitOpts::default();
    let mut addr = "127.0.0.1:0".to_owned();
    let mut port_file: Option<&str> = None;
    let mut threads = 4usize;
    let mut queue_depth = 64usize;
    let mut shards = 1usize;
    let mut journal_path: Option<&str> = None;
    let mut checkpoint_every: Option<u64> = None;
    let mut follow: Option<String> = None;
    let mut ship_interval_ms = 250u64;
    let mut monitor_interval_ms: Option<u64> = None;
    let mut slo_spec: Option<&str> = None;
    let mut audit_path: Option<&str> = None;
    let mut inject_site: Option<(String, u64)> = None;
    let mut positional: Vec<&str> = Vec::new();
    let mut it = args.iter();
    let parse_num = |flag: &str, word: &str| {
        word.parse::<usize>()
            .map_err(|_| usage_error(format!("{flag} needs a number, got {word:?}")))
    };
    while let Some(arg) = it.next() {
        if obs.accept(arg) || limits.accept(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--addr" => addr = next_value(&mut it, "--addr")?.to_owned(),
            "--port-file" => port_file = Some(next_value(&mut it, "--port-file")?),
            "--threads" => threads = parse_num("--threads", next_value(&mut it, "--threads")?)?,
            "--queue-depth" => {
                queue_depth = parse_num("--queue-depth", next_value(&mut it, "--queue-depth")?)?
            }
            "--shards" => shards = parse_num("--shards", next_value(&mut it, "--shards")?)?,
            "--journal" => journal_path = Some(next_value(&mut it, "--journal")?),
            "--checkpoint-every" => {
                let word = next_value(&mut it, "--checkpoint-every")?;
                let n = word.parse::<u64>().map_err(|_| {
                    usage_error(format!("--checkpoint-every needs a commit count, got {word:?}"))
                })?;
                checkpoint_every = Some(n.max(1));
            }
            "--follow" => follow = Some(next_value(&mut it, "--follow")?.to_owned()),
            "--ship-interval" => {
                let word = next_value(&mut it, "--ship-interval")?;
                let ms = word.parse::<u64>().map_err(|_| {
                    usage_error(format!("--ship-interval needs milliseconds, got {word:?}"))
                })?;
                ship_interval_ms = ms.max(10);
            }
            "--monitor-interval" => {
                let word = next_value(&mut it, "--monitor-interval")?;
                let ms = word.parse::<u64>().map_err(|_| {
                    usage_error(format!("--monitor-interval needs milliseconds, got {word:?}"))
                })?;
                monitor_interval_ms = Some(ms.max(10));
            }
            "--slo" => slo_spec = Some(next_value(&mut it, "--slo")?),
            "--audit" => audit_path = Some(next_value(&mut it, "--audit")?),
            "--inject-fault-site" => {
                let word = next_value(&mut it, "--inject-fault-site")?;
                let (site, occurrence) = match word.rsplit_once(':') {
                    Some((site, occ)) if occ.chars().all(|c| c.is_ascii_digit()) => (
                        site.to_owned(),
                        occ.parse()
                            .map_err(|_| usage_error(format!("bad occurrence in {word:?}")))?,
                    ),
                    _ => (word.to_owned(), 0),
                };
                inject_site = Some((site, occurrence));
            }
            path if !path.starts_with("--") => positional.push(path),
            other => return Err(usage_error(format!("unknown option {other:?}"))),
        }
    }
    let (schema_path, data_path) = match positional[..] {
        [schema] => (schema, None),
        [schema, data] => (schema, Some(data)),
        _ => return Err(usage_error("serve takes <schema.bs> [data.ldif]")),
    };
    // Flag combinations that cannot work are refused before any file is
    // read, any instance checked or any peer contacted.
    if follow.is_some() && (journal_path.is_some() || shards > 1 || data_path.is_some()) {
        return Err(usage_error(
            "--follow replicas bootstrap from the primary; drop data.ldif, --journal, and --shards",
        ));
    }
    if audit_path.is_some() && monitor_interval_ms.is_none() && slo_spec.is_none() {
        return Err(usage_error("--audit needs --monitor-interval or --slo"));
    }
    if checkpoint_every.is_some() && journal_path.is_none() {
        return Err(usage_error("--checkpoint-every needs --journal"));
    }
    let parsed = load_schema(schema_path)?;
    // Socket bytes are untrusted: unset limit flags tighten to strict.
    let ldif_limits = limits.ldif_limits(LdifLimits::strict());
    let dir = match data_path {
        Some(path) => load_ldif_limited(path, Some(&parsed), &ldif_limits)?,
        None => DirectoryInstance::new(parsed.registry.clone()),
    };
    // `--follow <addr>` turns this process into a read replica: the
    // initial state bootstraps from the primary's checkpoint, writes
    // are refused with the stable `read-only` code, and a ship loop
    // keeps the replica fed from the primary's journal.
    let mut follow_ctx: Option<(
        Arc<ReplicationState>,
        u64,
        bschema_core::schema::DirectorySchema,
    )> = None;
    let base_service = if let Some(primary) = &follow {
        let (managed, cursor) =
            Follower::bootstrap_state(primary, &parsed.schema).map_err(|e| CliError {
                message: format!("cannot bootstrap from primary {primary:?}: {e}"),
                code: 1,
            })?;
        let replication = Arc::new(ReplicationState::default());
        // Track the schema the bootstrap actually restored under — the
        // primary may have evolved past the schema file this replica
        // was launched with.
        follow_ctx = Some((replication.clone(), cursor, managed.schema().clone()));
        DirectoryService::new(managed).with_read_only().with_replication(replication)
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

    let recorder = Arc::new(Recorder::new());
    let plan = inject_site.map(|(site, occurrence)| {
        silence_injected_panics();
        Arc::new(FaultPlan::fail_at_site(site, occurrence).with_inner(recorder.clone()))
    });
    let probe: Arc<dyn Probe + Send + Sync> = match &plan {
        Some(plan) => plan.clone(),
        None => recorder.clone(),
    };
    // `--trace` turns on the flight recorder: the server retains the 16
    // most recent and 16 slowest completed request span trees, queryable
    // over the wire with `bschema client <addr> trace`.
    let flight = obs.trace.then(|| Arc::new(FlightRecorder::new(16)));
    let mut service = base_service
        .with_limits(ServiceLimits {
            ldif: ldif_limits,
            filter_depth: limits.filter_depth(),
            wire: bschema_server::WireLimits::default(),
        })
        .with_probe(probe)
        .with_recorder(recorder.clone());
    if let Some(flight) = &flight {
        service = service.with_flight_recorder(flight.clone());
    }
    // `--monitor-interval` / `--slo` switch on the health plane: a
    // sampler thread ticks the registry into a ring (`HEALTH`, `WATCH`,
    // `bschema top`), and with an SLO attached each tick folds the
    // window into an error-budget burn rate with edge-triggered alerts.
    if monitor_interval_ms.is_some() || slo_spec.is_some() {
        let slo = slo_spec
            .map(SloPolicy::parse)
            .transpose()
            .map_err(|e| usage_error(format!("--slo: {e}")))?;
        let monitor = Arc::new(Monitor::new(MonitorConfig {
            interval: std::time::Duration::from_millis(monitor_interval_ms.unwrap_or(1000)),
            slo,
            audit_path: audit_path.map(std::path::PathBuf::from),
            ..MonitorConfig::default()
        }));
        service = service.with_monitor(monitor);
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

    let config =
        ServerConfig { addr: addr.clone(), threads, queue_depth, ..ServerConfig::default() };
    let service = Arc::new(service);
    let handle = Server::spawn(service.clone(), config)
        .map_err(|e| usage_error(format!("cannot serve on {addr:?}: {e}")))?;
    let bound = handle.addr();
    match &follow {
        Some(primary) => eprintln!(
            "SERVING {bound} (read replica of {primary}, {threads} worker(s), queue depth {queue_depth})"
        ),
        None => eprintln!(
            "SERVING {bound} ({threads} worker(s), queue depth {queue_depth}, {shards} shard(s))"
        ),
    }
    if let Some(path) = port_file {
        std::fs::write(path, format!("{bound}\n"))
            .map_err(|e| usage_error(format!("cannot write port file {path:?}: {e}")))?;
    }
    // The ship loop runs beside the acceptor until the server drains.
    let follower_thread = match (follow, follow_ctx) {
        (Some(primary), Some((replication, cursor, follower_schema))) => {
            let mut follower =
                Follower::attach(primary, follower_schema, service.clone(), replication, cursor);
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let stop_in = stop.clone();
            let interval = std::time::Duration::from_millis(ship_interval_ms);
            let thread = std::thread::spawn(move || follower.run(interval, &stop_in));
            Some((stop, thread))
        }
        _ => None,
    };
    handle.wait();
    if let Some((stop, thread)) = follower_thread {
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
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
    obs.emit(&recorder, out);
    Ok(0)
}

/// `bschema client <addr> <action> ...` — one wire request against a
/// running server. Server refusals exit 1 with the stable code; local
/// usage problems exit 2.
fn cmd_client(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let [addr, action, rest @ ..] = args else {
        return Err(usage_error(
            "client takes <addr> ping|search|apply|modify|schema|metrics|prom|stats|trace|health|checkpoint|watch|shutdown [args]",
        ));
    };
    let connect_error =
        |e: ClientError| usage_error(format!("cannot talk to server at {addr}: {e}"));
    // Every CLI request is trace-stamped `cli-<seq>`; a traced server
    // reports the id back through `bschema client <addr> trace`, an
    // untraced (or older) one strips and ignores the token.
    let mut client = Client::connect(addr.as_str()).map_err(connect_error)?.with_trace_label("cli");
    match action.as_str() {
        "ping" => {
            let len = client.ping().map_err(connect_error)?;
            let _ = writeln!(out, "PONG: {len} entries");
            Ok(0)
        }
        "search" => {
            let mut filter: Option<&str> = None;
            let mut base: Option<&str> = None;
            let mut scope = "sub";
            let mut limit: Option<usize> = None;
            let mut explain_plan = false;
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--filter" => filter = Some(next_value(&mut it, "--filter")?),
                    "--base" => base = Some(next_value(&mut it, "--base")?),
                    "--scope" => scope = next_value(&mut it, "--scope")?,
                    "--explain" => explain_plan = true,
                    "--limit" => {
                        let word = next_value(&mut it, "--limit")?;
                        limit = Some(word.parse().map_err(|_| {
                            usage_error(format!("--limit needs a number, got {word:?}"))
                        })?);
                    }
                    other => return Err(usage_error(format!("unknown option {other:?}"))),
                }
            }
            let filter = filter.ok_or_else(|| usage_error("client search needs --filter"))?;
            if explain_plan {
                return match client.search_explain(base, scope, filter, limit) {
                    Ok((count, json)) => {
                        let _ = writeln!(out, "EXPLAIN: {count} entries match");
                        let _ = writeln!(out, "{json}");
                        Ok(0)
                    }
                    Err(ClientError::Server { code, detail }) => {
                        let _ = writeln!(out, "REFUSED ({code}): {detail}");
                        Ok(1)
                    }
                    Err(e) => Err(connect_error(e)),
                };
            }
            match client.search(base, scope, filter, limit) {
                Ok(ldif) => {
                    let _ = writeln!(out, "{} entries match", ldif.matches("dn: ").count());
                    out.push_str(&ldif);
                    Ok(0)
                }
                Err(ClientError::Server { code, detail }) => {
                    let _ = writeln!(out, "REFUSED ({code}): {detail}");
                    Ok(1)
                }
                Err(e) => Err(connect_error(e)),
            }
        }
        "apply" => {
            let [tx_path] = rest else {
                return Err(usage_error("client apply takes <tx.ldif>"));
            };
            match client.apply_ldif(&read_file(tx_path)?) {
                Ok(receipt) => {
                    let _ = writeln!(
                        out,
                        "APPLIED: {} op(s); directory now has {} entries (legal)",
                        receipt.ops, receipt.len
                    );
                    Ok(0)
                }
                Err(ClientError::Server { code, detail }) => {
                    let _ = writeln!(out, "REJECTED ({code}): {detail}");
                    Ok(1)
                }
                Err(e) => Err(connect_error(e)),
            }
        }
        "modify" => {
            let [mods_path] = rest else {
                return Err(usage_error("client modify takes <mods.txt>"));
            };
            match client.modify_lines(&read_file(mods_path)?) {
                Ok(len) => {
                    let _ = writeln!(out, "MODIFIED: directory has {len} entries (legal)");
                    Ok(0)
                }
                Err(ClientError::Server { code, detail }) => {
                    let _ = writeln!(out, "REJECTED ({code}): {detail}");
                    Ok(1)
                }
                Err(e) => Err(connect_error(e)),
            }
        }
        "checkpoint" => match client.checkpoint() {
            Ok(seqs) => {
                let joined = seqs.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
                let _ = writeln!(out, "CHECKPOINTED: journal truncated, covered seq(s) {joined}");
                Ok(0)
            }
            Err(ClientError::Server { code, detail }) => {
                let _ = writeln!(out, "REFUSED ({code}): {detail}");
                Ok(1)
            }
            Err(e) => Err(connect_error(e)),
        },
        "metrics" => {
            let json = client.metrics_json().map_err(connect_error)?;
            let _ = writeln!(out, "{json}");
            Ok(0)
        }
        "prom" => {
            let text = client.metrics_prom().map_err(connect_error)?;
            out.push_str(&text);
            Ok(0)
        }
        "health" => match client.health_json() {
            Ok(json) => {
                let _ = writeln!(out, "{json}");
                Ok(0)
            }
            Err(ClientError::Server { code, detail }) => {
                let _ = writeln!(out, "REFUSED ({code}): {detail}");
                Ok(1)
            }
            Err(e) => Err(connect_error(e)),
        },
        "watch" => {
            let mut ticks = 5u64;
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--ticks" => {
                        let word = next_value(&mut it, "--ticks")?;
                        ticks = word.parse().map_err(|_| {
                            usage_error(format!("--ticks needs a number, got {word:?}"))
                        })?;
                    }
                    other => return Err(usage_error(format!("unknown option {other:?}"))),
                }
            }
            match client.watch(ticks, |seq, json| {
                println!("TICK {seq} {json}");
                true
            }) {
                Ok(streamed) => {
                    let _ = writeln!(out, "watch: {streamed} tick(s)");
                    Ok(0)
                }
                Err(ClientError::Server { code, detail }) => {
                    let _ = writeln!(out, "REFUSED ({code}): {detail}");
                    Ok(1)
                }
                Err(e) => Err(connect_error(e)),
            }
        }
        "stats" => match client.stats_json() {
            Ok(json) => {
                let _ = writeln!(out, "{json}");
                Ok(0)
            }
            Err(ClientError::Server { code, detail }) => {
                let _ = writeln!(out, "REFUSED ({code}): {detail}");
                Ok(1)
            }
            Err(e) => Err(connect_error(e)),
        },
        "trace" => match client.trace_json() {
            Ok(json) => {
                let _ = writeln!(out, "{json}");
                Ok(0)
            }
            Err(ClientError::Server { code, detail }) => {
                let _ = writeln!(out, "REFUSED ({code}): {detail}");
                Ok(1)
            }
            Err(e) => Err(connect_error(e)),
        },
        "shutdown" => {
            client.shutdown_server().map_err(connect_error)?;
            let _ = writeln!(out, "server draining");
            Ok(0)
        }
        "schema" => {
            let report = |out: &mut String, result: Result<String, ClientError>| match result {
                Ok(json) => {
                    let _ = writeln!(out, "{json}");
                    Ok(0)
                }
                Err(ClientError::Server { code, detail }) => {
                    let _ = writeln!(out, "REFUSED ({code}): {detail}");
                    Ok(1)
                }
                Err(e) => Err(connect_error(e)),
            };
            match rest {
                [sub, args @ ..] if sub == "propose" => {
                    let payload = match args {
                        [flag, words @ ..] if flag == "--step" && !words.is_empty() => {
                            words.join(" ")
                        }
                        [path] => read_file(path)?,
                        _ => {
                            return Err(usage_error(
                                "client schema propose takes <payload-file> or --step <word>...",
                            ))
                        }
                    };
                    report(out, client.schema_propose(&payload))
                }
                [sub] if sub == "check" => report(out, client.schema_check()),
                [sub] if sub == "status" => report(out, client.schema_status()),
                [sub] if sub == "commit" => report(out, client.schema_commit()),
                [sub] if sub == "abort" => report(out, client.schema_abort()),
                _ => Err(usage_error(
                    "client schema takes propose <payload-file>|--step <word>... | check | status | commit | abort",
                )),
            }
        }
        other => Err(usage_error(format!("unknown client action {other:?}"))),
    }
}

/// `bschema top <addr> [--once] [--ticks <n>]` — the operator view: a
/// `HEALTH` header (verdict, window, per-shard signals) followed by a
/// live per-verb latency table fed from the server's `WATCH` stream.
/// `--once` renders a single tick into the buffered output for
/// scripting; live mode prints each tick as it lands.
fn cmd_top(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let [addr, rest @ ..] = args else {
        return Err(usage_error("top takes <addr> [--once] [--ticks <n>]"));
    };
    let mut once = false;
    let mut ticks: Option<u64> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--ticks" => {
                let word = next_value(&mut it, "--ticks")?;
                ticks =
                    Some(word.parse().map_err(|_| {
                        usage_error(format!("--ticks needs a number, got {word:?}"))
                    })?);
            }
            other => return Err(usage_error(format!("unknown option {other:?}"))),
        }
    }
    let want = ticks.unwrap_or(if once { 1 } else { 30 }).max(1);
    let connect_error =
        |e: ClientError| usage_error(format!("cannot talk to server at {addr}: {e}"));
    let mut client = Client::connect(addr.as_str()).map_err(connect_error)?.with_trace_label("top");
    let health = match client.health_json() {
        Ok(json) => json,
        Err(ClientError::Server { code, detail }) => {
            let _ = writeln!(out, "REFUSED ({code}): {detail}");
            return Ok(1);
        }
        Err(e) => return Err(connect_error(e)),
    };
    let header = render_health(&health);
    if once {
        out.push_str(&header);
    } else {
        print!("{header}");
        let _ = std::io::Write::flush(&mut std::io::stdout());
    }
    let mut rendered = String::new();
    let streamed = match client.watch(want, |seq, json| {
        let frame = render_tick(seq, json);
        if once {
            rendered.push_str(&frame);
        } else {
            print!("{frame}");
            let _ = std::io::Write::flush(&mut std::io::stdout());
        }
        true
    }) {
        Ok(streamed) => streamed,
        Err(ClientError::Server { code, detail }) => {
            let _ = writeln!(out, "REFUSED ({code}): {detail}");
            return Ok(1);
        }
        Err(e) => return Err(connect_error(e)),
    };
    out.push_str(&rendered);
    let _ = writeln!(out, "top: {streamed} tick(s)");
    Ok(0)
}

/// A number already validated as JSON: integral values print without
/// the trailing `.000000` the wire format carries for rates.
fn fmt_top_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// Renders a `HEALTH` snapshot as the `top` header. Falls back to the
/// raw JSON if the payload does not parse (older server, truncation).
fn render_health(json: &str) -> String {
    let Some(v) = Value::parse(json) else {
        return format!("{json}\n");
    };
    let mut s = String::new();
    let verdict = v.get("verdict").and_then(Value::as_str).unwrap_or("?");
    let shards = v.get("shards_total").and_then(Value::as_u64).unwrap_or(0);
    let ticks = v.get("ticks").and_then(Value::as_u64).unwrap_or(0);
    let _ = writeln!(
        s,
        "health: {} ({shards} shard(s), {ticks} tick(s) retained)",
        verdict.to_uppercase()
    );
    let requests = v.path("window.requests").and_then(Value::as_u64).unwrap_or(0);
    let req_per_s = v.path("window.req_per_s").and_then(Value::as_f64).unwrap_or(0.0);
    let p99 = v.path("window.p99_us").and_then(Value::as_u64).unwrap_or(0);
    let err = v.path("window.err_rate").and_then(Value::as_f64).unwrap_or(0.0);
    let _ = writeln!(
        s,
        "window: {requests} request(s) ({}/s), p99 {p99}us, err-rate {}",
        fmt_top_num(req_per_s),
        fmt_top_num(err),
    );
    if let Some(burn) = v.path("slo.burn").and_then(Value::as_f64) {
        let alerts = v.path("slo.alerts").and_then(Value::as_u64).unwrap_or(0);
        let _ = writeln!(s, "slo: burn {} ({alerts} alert(s) fired)", fmt_top_num(burn));
    }
    if let Some(fit) = v.get("fitness") {
        let legal = fit.get("legal_rate").and_then(Value::as_f64).unwrap_or(1.0);
        let committed = fit.get("committed").and_then(Value::as_u64).unwrap_or(0);
        let _ = writeln!(s, "fitness: legal-rate {} ({committed} committed)", fmt_top_num(legal));
    }
    if let Some(signals) = v.get("signals").and_then(Value::items) {
        let _ = writeln!(
            s,
            "{:<18} {:>12} {:>12} {:>12} {:>6}",
            "signal", "value", "warn", "crit", "status"
        );
        for sig in signals {
            let name = sig.get("name").and_then(Value::as_str).unwrap_or("?");
            let value = sig.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            let warn = sig.get("warn").and_then(Value::as_f64).unwrap_or(0.0);
            let crit = sig.get("crit").and_then(Value::as_f64).unwrap_or(0.0);
            let status = sig.get("status").and_then(Value::as_str).unwrap_or("?");
            let _ = writeln!(
                s,
                "{name:<18} {:>12} {:>12} {:>12} {status:>6}",
                fmt_top_num(value),
                fmt_top_num(warn),
                fmt_top_num(crit),
            );
        }
    }
    if let Some(shards) = v.get("shards").and_then(Value::items) {
        for shard in shards {
            let k = shard.get("shard").and_then(Value::as_u64).unwrap_or(0);
            let status = shard.get("status").and_then(Value::as_str).unwrap_or("?");
            let mut parts = Vec::new();
            if let Some(signals) = shard.get("signals").and_then(Value::items) {
                for sig in signals {
                    let name = sig.get("name").and_then(Value::as_str).unwrap_or("?");
                    let value = sig.get("value").and_then(Value::as_f64).unwrap_or(0.0);
                    parts.push(format!("{name}={}", fmt_top_num(value)));
                }
            }
            let _ = writeln!(s, "shard {k} [{status}] {}", parts.join(" "));
        }
    }
    s
}

/// Renders one `WATCH` tick: the burn line plus a per-verb latency
/// table and per-shard 2PC counters from the tick's metric delta.
fn render_tick(seq: u64, json: &str) -> String {
    let Some(v) = Value::parse(json) else {
        return format!("TICK {seq} {json}\n");
    };
    let mut s = String::new();
    let burn = v.get("burn").and_then(Value::as_f64).unwrap_or(0.0);
    let alerts = v.get("alerts").and_then(Value::as_u64).unwrap_or(0);
    let dur = v.get("dur_us").and_then(Value::as_u64).unwrap_or(0);
    let _ =
        writeln!(s, "tick {seq}: interval {dur}us, burn {}, {alerts} alert(s)", fmt_top_num(burn));
    let mut verb_rows = Vec::new();
    if let Some(hists) = v.path("delta.histograms").and_then(Value::entries) {
        for (name, h) in hists {
            if let Some(verb) = name.strip_prefix("server.request_us.") {
                let count = h.get("count").and_then(Value::as_u64).unwrap_or(0);
                let p50 = h.get("p50").and_then(Value::as_u64).unwrap_or(0);
                let p99 = h.get("p99").and_then(Value::as_u64).unwrap_or(0);
                let max = h.get("max").and_then(Value::as_u64).unwrap_or(0);
                verb_rows.push(format!("  {verb:<10} {count:>8} {p50:>10} {p99:>10} {max:>10}"));
            }
        }
    }
    if !verb_rows.is_empty() {
        let _ = writeln!(
            s,
            "  {:<10} {:>8} {:>10} {:>10} {:>10}",
            "verb", "count", "p50_us", "p99_us", "max_us"
        );
        for row in verb_rows {
            let _ = writeln!(s, "{row}");
        }
    }
    let mut shard_2pc: std::collections::BTreeMap<String, (u64, u64)> =
        std::collections::BTreeMap::new();
    if let Some(counters) = v.path("delta.counters").and_then(Value::entries) {
        for (name, value) in counters {
            let n = value.as_u64().unwrap_or(0);
            if let Some(k) = name.strip_prefix("sharded.prepare.shard") {
                shard_2pc.entry(k.to_owned()).or_default().0 += n;
            } else if let Some(k) = name.strip_prefix("sharded.commit.shard") {
                shard_2pc.entry(k.to_owned()).or_default().1 += n;
            }
        }
    }
    for (k, (prepares, commits)) in &shard_2pc {
        let _ = writeln!(s, "  shard {k}: prepares={prepares} commits={commits}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: &str = "\
schema \"t\"
class orgGroup extends top
class organization extends orgGroup
class orgUnit extends orgGroup
class person extends top
  require uid name
require-class person
require orgGroup descendant person
forbid person child top
";

    const LDIF: &str = "\
dn: o=acme
objectClass: organization
objectClass: orgGroup
objectClass: top

dn: uid=a,o=acme
objectClass: person
objectClass: top
uid: a
name: a
";

    fn write_tmp(name: &str, content: &str) -> String {
        let path =
            std::env::temp_dir().join(format!("bschema-cli-test-{}-{name}", std::process::id()));
        std::fs::write(&path, content).unwrap();
        path.to_string_lossy().into_owned()
    }

    fn run_ok(args: &[&str]) -> (i32, String) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = String::new();
        let code = run(&args, &mut out).unwrap_or_else(|e| panic!("cli error: {e}"));
        (code, out)
    }

    #[test]
    fn check_schema_consistent() {
        let schema = write_tmp("s1.bs", SCHEMA);
        let (code, out) = run_ok(&["check-schema", &schema]);
        assert_eq!(code, 0);
        assert!(out.contains("CONSISTENT"));
    }

    #[test]
    fn check_schema_inconsistent() {
        let schema = write_tmp(
            "s2.bs",
            "class a extends top\nclass b extends top\nrequire-class a\nrequire a child b\nrequire b descendant a\n",
        );
        let (code, out) = run_ok(&["check-schema", &schema]);
        assert_eq!(code, 1);
        assert!(out.contains("INCONSISTENT"));
        assert!(out.contains("◇∅"));
    }

    #[test]
    fn validate_legal_and_illegal() {
        let schema = write_tmp("s3.bs", SCHEMA);
        let data = write_tmp("d3.ldif", LDIF);
        let (code, out) = run_ok(&["validate", &schema, &data]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("LEGAL"));

        let bad = LDIF.replace("name: a\n", "");
        let data = write_tmp("d3b.ldif", &bad);
        let (code, out) = run_ok(&["validate", &schema, &data]);
        assert_eq!(code, 1);
        assert!(out.contains("ILLEGAL"));
        assert!(out.contains("dn: uid=a,o=acme"), "{out}");
    }

    #[test]
    fn witness_output() {
        let schema = write_tmp("s4.bs", SCHEMA);
        let (code, out) = run_ok(&["witness", &schema]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("verified legal"));
        assert!(out.contains("person"));
    }

    #[test]
    fn search_with_filter_and_scope() {
        let schema = write_tmp("s5.bs", SCHEMA);
        let data = write_tmp("d5.ldif", LDIF);
        let (code, out) =
            run_ok(&["search", &data, "--schema", &schema, "--filter", "(objectClass=person)"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("1 entries match"));
        assert!(out.contains("dn: uid=a,o=acme"));

        let (code, out) = run_ok(&[
            "search",
            &data,
            "--filter",
            "(objectClass=person)",
            "--base",
            "o=acme",
            "--scope",
            "one",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("dn: uid=a,o=acme"));
    }

    #[test]
    fn print_schema_normalises() {
        let schema = write_tmp("s6.bs", SCHEMA);
        let (code, out) = run_ok(&["print-schema", &schema]);
        assert_eq!(code, 0);
        assert!(out.contains("require orgGroup descendant person"));
        // Output reparses.
        assert!(parse_schema(&out).is_ok());
    }

    #[test]
    fn evolve_accepts_and_refuses() {
        let schema = write_tmp("s7.bs", SCHEMA);
        let data = write_tmp("d7.ldif", LDIF);
        let (code, out) = run_ok(&["evolve", &schema, &data, "allow-attr", "person", "mail"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("relaxing"));

        let (code, out) = run_ok(&["evolve", &schema, &data, "require-attr", "person", "mail"]);
        assert_eq!(code, 1);
        assert!(out.contains("REFUSED"));
    }

    #[test]
    fn suggest_schema_output_reparses() {
        let data = write_tmp("d8.ldif", LDIF);
        let (code, out) = run_ok(&["suggest-schema", &data, "--forbidden"]);
        assert_eq!(code, 0, "{out}");
        let body: String =
            out.lines().filter(|l| !l.starts_with('#')).collect::<Vec<_>>().join("\n");
        let parsed = parse_schema(&body).expect("suggested schema reparses");
        assert!(parsed.schema.classes().len() > 1);
        // Mined regularity: the person under the org needs its org ancestor.
        assert!(body.contains("require person"), "{body}");
    }

    #[test]
    fn check_emits_trace_and_json_metrics() {
        let schema = write_tmp("s9.bs", SCHEMA);
        let data = write_tmp("d9.ldif", LDIF);
        let (code, out) = run_ok(&["check", &data, &schema, "--trace", "--metrics=json"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("LEGAL"));
        assert!(out.contains("legality.check"), "span tree missing: {out}");
        let last = out.lines().last().unwrap();
        assert!(bschema_obs::json::is_valid(last), "last line is not JSON: {last}");
        assert!(last.contains("\"legality.entries_content_checked\":2"), "{last}");
        assert!(last.contains("\"legality.structure_queries\""), "{last}");
        assert!(last.contains("\"spans\""), "{last}");
    }

    #[test]
    fn check_explain_census_on_the_quickstart_example() {
        // The shipped quickstart pair IS Figures 1–3, so the EXPLAIN
        // census is the paper's: 9 Figure 4 queries, the three ◇-class
        // queries matching 1 + 2 + 3 = 6 entries, every violation query
        // empty (the same totals tests/observability.rs pins).
        let schema = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/quickstart.bs");
        let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/quickstart.ldif");
        let (code, out) = run_ok(&["check", data, schema, "--explain"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("LEGAL"), "{out}");
        assert!(out.contains("EXPLAIN: 9 structure queries"), "{out}");
        // Per-query plan lines show the access path and the counts.
        assert!(out.contains("index-reused"), "{out}");
        assert!(out.contains("scanned="), "{out}");
        let totals = out.lines().find(|l| l.starts_with("EXPLAIN totals:")).expect("totals line");
        assert!(totals.contains("9 queries"), "{totals}");
        assert!(totals.ends_with("matched=6"), "{totals}");
    }

    #[test]
    fn check_metrics_text() {
        let schema = write_tmp("s10.bs", SCHEMA);
        let data = write_tmp("d10.ldif", LDIF);
        let (code, out) = run_ok(&["check", &data, &schema, "--metrics"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("legality.entries_content_checked"), "{out}");
    }

    /// The flag that picked a legality engine until there was one engine
    /// (on `serve` it meant three different things by backend). A script
    /// that still passes it is told so, exit 2, rather than run with a
    /// meaning it did not ask for. Spelled in two pieces so that
    /// `ci/one_engine.sh` can grep the tree for the flag and find nothing.
    #[test]
    fn removed_engine_flag_is_a_usage_error() {
        let flag = concat!("--", "sequential");
        let schema = write_tmp("s27.bs", SCHEMA);
        let data = write_tmp("d27.ldif", LDIF);
        let tx = write_tmp("t27.ldif", "dn: uid=b,o=acme\nobjectClass: person\nuid: b\n");
        for args in [
            vec!["check", &data, &schema, flag],
            vec!["apply", &schema, &data, &tx, flag],
            vec!["serve", &schema, &data, flag],
            vec!["serve", &schema, &data, "--shards", "2", flag],
            vec!["serve", &schema, "--follow", "127.0.0.1:1", flag],
        ] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let err = run(&args, &mut String::new()).expect_err("flag must be refused");
            assert_eq!(err.code, 2, "{args:?}: {err}");
            assert!(err.message.contains(&format!("unknown option {flag:?}")), "{err}");
        }
        assert!(!USAGE.contains(flag));
    }

    #[test]
    fn apply_reports_delta_queries_and_rollback() {
        let schema = write_tmp("s11.bs", SCHEMA);
        let data = write_tmp("d11.ldif", LDIF);
        // Legal insertion: a second person under the org.
        let tx = write_tmp(
            "t11.ldif",
            "dn: uid=b,o=acme\nobjectClass: person\nobjectClass: top\nuid: b\nname: b\n",
        );
        let (code, out) = run_ok(&["apply", &schema, &data, &tx, "--metrics=json"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("APPLIED"), "{out}");
        let last = out.lines().last().unwrap();
        assert!(bschema_obs::json::is_valid(last), "{last}");
        assert!(last.contains("incremental.delta_query."), "{last}");
        assert!(last.contains("\"managed.tx_applied\":1"), "{last}");

        // Illegal insertion (person under person) rolls back with diagnostics.
        let bad = write_tmp(
            "t11b.ldif",
            "dn: uid=c,uid=a,o=acme\nobjectClass: person\nobjectClass: top\nuid: c\nname: c\n",
        );
        let (code, out) = run_ok(&["apply", &schema, &data, &bad, "--metrics=json"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("ROLLED BACK"), "{out}");
        assert!(out.contains("forbidden"), "diagnostics survived rollback: {out}");
        let last = out.lines().last().unwrap();
        assert!(last.contains("\"managed.tx_rolled_back\":1"), "{last}");
    }

    #[test]
    fn apply_supports_changetype_delete() {
        let schema = write_tmp("s12.bs", SCHEMA);
        let data = write_tmp("d12.ldif", LDIF);
        // Deleting the only person violates require-class person → rollback.
        let tx = write_tmp("t12.ldif", "dn: uid=a,o=acme\nchangetype: delete\n");
        let (code, out) = run_ok(&["apply", &schema, &data, &tx]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("ROLLED BACK"), "{out}");
    }

    #[test]
    fn journaled_apply_then_recover_replays_committed_prefix() {
        let schema = write_tmp("s14.bs", SCHEMA);
        let data = write_tmp("d14.ldif", LDIF);
        let journal = write_tmp("j14.jrn", "");

        // Legal transaction: begin + ops + commit land in the journal.
        let good = write_tmp(
            "t14.ldif",
            "dn: uid=b,o=acme\nobjectClass: person\nobjectClass: top\nuid: b\nname: b\n",
        );
        let (code, out) = run_ok(&["apply", &schema, &data, &good, "--journal", &journal]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("APPLIED"), "{out}");

        // Illegal transaction: rolled back before anything is
        // journalled, so the file does not grow.
        let committed = std::fs::read_to_string(&journal).unwrap();
        let bad = write_tmp(
            "t14b.ldif",
            "dn: uid=c,uid=a,o=acme\nobjectClass: person\nobjectClass: top\nuid: c\nname: c\n",
        );
        let (code, out) = run_ok(&["apply", &schema, &data, &bad, "--journal", &journal]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("ROLLED BACK"), "{out}");
        assert_eq!(std::fs::read_to_string(&journal).unwrap(), committed);

        // A crash between begin and commit: the begin records are
        // durable, the commit record never lands. Recovery must discard
        // them.
        let parsed = Journal::parse(&committed);
        let mut writer =
            bschema_core::journal::JournalWriter::resume_at(parsed.next_seq(), parsed.next_tx());
        let mut tx = Transaction::new();
        tx.insert_root(bschema_directory::Entry::builder().classes(["person", "top"]).build());
        writer.begin(&tx);
        std::fs::write(&journal, committed + &writer.take_pending()).unwrap();

        let (code, out) = run_ok(&["recover", &schema, &data, &journal]);
        assert_eq!(code, 0, "{out}");
        assert!(
            out.contains("RECOVERED: replayed 1 committed tx(s), discarded 1 uncommitted"),
            "{out}"
        );
        assert!(out.contains("directory has 3 entries"), "{out}");
        assert!(out.contains("LEGAL"), "{out}");
    }

    #[test]
    fn recover_repairs_a_torn_journal_tail() {
        let schema = write_tmp("s15.bs", SCHEMA);
        let data = write_tmp("d15.ldif", LDIF);
        let journal = write_tmp("j15.jrn", "");
        let good = write_tmp(
            "t15.ldif",
            "dn: uid=b,o=acme\nobjectClass: person\nobjectClass: top\nuid: b\nname: b\n",
        );
        let (code, out) = run_ok(&["apply", &schema, &data, &good, "--journal", &journal]);
        assert_eq!(code, 0, "{out}");

        // Simulate a crash mid-write: chop the tail off the commit record.
        let text = std::fs::read_to_string(&journal).unwrap();
        std::fs::write(&journal, &text[..text.len() - 3]).unwrap();

        // The commit record is torn, so its transaction is uncommitted.
        let (code, out) = run_ok(&["recover", &schema, &data, &journal]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("torn tail"), "{out}");
        assert!(out.contains("replayed 0 committed tx(s), discarded 1 uncommitted"), "{out}");

        // A journaled apply on the torn file repairs it in place, then a
        // fresh transaction commits and recovery replays exactly it.
        let (code, out) = run_ok(&["apply", &schema, &data, &good, "--journal", &journal]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("repaired torn tail"), "{out}");
        let (code, out) = run_ok(&["recover", &schema, &data, &journal]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("replayed 1 committed tx(s)"), "{out}");
    }

    #[test]
    fn injected_fault_rolls_back_and_lands_in_metrics() {
        let schema = write_tmp("s16.bs", SCHEMA);
        let data = write_tmp("d16.ldif", LDIF);
        let tx = write_tmp(
            "t16.ldif",
            "dn: uid=b,o=acme\nobjectClass: person\nobjectClass: top\nuid: b\nname: b\n",
        );
        let (code, out) =
            run_ok(&["apply", &schema, &data, &tx, "--inject-fault", "0", "--metrics=json"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("PANICKED (rolled back, instance unchanged)"), "{out}");
        assert!(out.contains("1 injected (rolled back)"), "{out}");
        let last = out.lines().last().unwrap();
        assert!(last.contains("\"faults.injected\":1"), "{last}");
    }

    #[test]
    fn far_future_fault_never_fires_and_apply_survives() {
        let schema = write_tmp("s17.bs", SCHEMA);
        let data = write_tmp("d17.ldif", LDIF);
        let tx = write_tmp(
            "t17.ldif",
            "dn: uid=b,o=acme\nobjectClass: person\nobjectClass: top\nuid: b\nname: b\n",
        );
        let (code, out) =
            run_ok(&["apply", &schema, &data, &tx, "--inject-fault", "9999999", "--metrics=json"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("APPLIED"), "{out}");
        assert!(out.contains("0 injected (none fired)"), "{out}");
    }

    #[test]
    fn consistency_emits_rule_counters() {
        let schema = write_tmp("s13.bs", SCHEMA);
        let (code, out) = run_ok(&["consistency", &schema, "--trace", "--metrics=json"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("CONSISTENT"));
        assert!(out.contains("consistency.check"), "{out}");
        let last = out.lines().last().unwrap();
        assert!(bschema_obs::json::is_valid(last), "{last}");
        assert!(last.contains("\"consistency.rule.schema\":3"), "{last}");
        assert!(last.contains("\"consistency.closure_size\""), "{last}");
    }

    #[test]
    fn serve_and_client_roundtrip() {
        let schema = write_tmp("s18.bs", SCHEMA);
        let data = write_tmp("d18.ldif", LDIF);
        let port_file = write_tmp("p18.port", "");
        std::fs::remove_file(&port_file).unwrap();

        let server = {
            let schema = schema.clone();
            let data = data.clone();
            let port_file = port_file.clone();
            std::thread::spawn(move || {
                run_ok(&[
                    "serve",
                    &schema,
                    &data,
                    "--threads",
                    "2",
                    "--port-file",
                    &port_file,
                    "--metrics=json",
                ])
            })
        };
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.ends_with('\n') {
                    break text.trim().to_owned();
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };

        let (code, out) = run_ok(&["client", &addr, "ping"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("PONG: 2 entries"), "{out}");

        let tx = write_tmp(
            "t18.ldif",
            "dn: uid=b,o=acme\nobjectClass: person\nobjectClass: top\nuid: b\nname: b\n",
        );
        let (code, out) = run_ok(&["client", &addr, "apply", &tx]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("directory now has 3 entries"), "{out}");

        // An illegal transaction is refused with the stable code.
        let bad = write_tmp(
            "t18b.ldif",
            "dn: uid=c,uid=a,o=acme\nobjectClass: person\nobjectClass: top\nuid: c\nname: c\n",
        );
        let (code, out) = run_ok(&["client", &addr, "apply", &bad]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("REJECTED (rolled-back)"), "{out}");

        let (code, out) = run_ok(&["client", &addr, "search", "--filter", "(objectClass=person)"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("2 entries match"), "{out}");
        assert!(out.contains("dn: uid=b,o=acme"), "{out}");

        let (code, out) = run_ok(&["client", &addr, "metrics"]);
        assert_eq!(code, 0, "{out}");
        assert!(bschema_obs::json::is_valid(out.trim()), "{out}");
        assert!(out.contains("\"server.tx_committed\":1"), "{out}");

        let (code, _) = run_ok(&["client", &addr, "shutdown"]);
        assert_eq!(code, 0);
        let (code, out) = server.join().unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("STOPPED"), "{out}");
        let last = out.lines().last().unwrap();
        assert!(bschema_obs::json::is_valid(last), "{last}");
    }

    #[test]
    fn traced_serve_answers_stats_trace_and_search_explain() {
        let schema = write_tmp("s20.bs", SCHEMA);
        let data = write_tmp("d20.ldif", LDIF);
        let port_file = write_tmp("p20.port", "");
        std::fs::remove_file(&port_file).unwrap();

        let server = {
            let schema = schema.clone();
            let data = data.clone();
            let port_file = port_file.clone();
            std::thread::spawn(move || {
                run_ok(&["serve", &schema, &data, "--port-file", &port_file, "--trace"])
            })
        };
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.ends_with('\n') {
                    break text.trim().to_owned();
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };

        // A committed transaction, stamped `cli-0` by the client CLI…
        let tx = write_tmp(
            "t20.ldif",
            "dn: uid=b,o=acme\nobjectClass: person\nobjectClass: top\nuid: b\nname: b\n",
        );
        let (code, out) = run_ok(&["client", &addr, "apply", &tx]);
        assert_eq!(code, 0, "{out}");

        // …shows up in the flight recorder with its span tree.
        let (code, out) = run_ok(&["client", &addr, "trace"]);
        assert_eq!(code, 0, "{out}");
        assert!(bschema_obs::json::is_valid(out.trim()), "{out}");
        assert!(out.contains("\"trace_id\":\"cli-0\""), "{out}");
        assert!(out.contains("\"verb\":\"TXN\""), "{out}");
        assert!(out.contains("service.journal_commit"), "{out}");

        // STATS returns deltas: a second scrape with no traffic in
        // between (beyond the scrape itself) must not repeat the TXN.
        let (code, out) = run_ok(&["client", &addr, "stats"]);
        assert_eq!(code, 0, "{out}");
        assert!(bschema_obs::json::is_valid(out.trim()), "{out}");
        assert!(out.contains("\"server.tx_committed\":1"), "{out}");
        let (code, out) = run_ok(&["client", &addr, "stats"]);
        assert_eq!(code, 0, "{out}");
        assert!(!out.contains("server.tx_committed"), "delta repeated: {out}");

        // SEARCH --explain returns the count plus the plan JSON.
        let (code, out) =
            run_ok(&["client", &addr, "search", "--filter", "(objectClass=person)", "--explain"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("EXPLAIN: 2 entries match"), "{out}");
        let json = out.lines().nth(1).expect("plan line");
        assert!(bschema_obs::json::is_valid(json), "{json}");
        assert!(json.contains("\"access\":\"index-reused\""), "{json}");

        let (code, _) = run_ok(&["client", &addr, "shutdown"]);
        assert_eq!(code, 0);
        let (code, out) = server.join().unwrap();
        assert_eq!(code, 0, "{out}");
    }

    #[test]
    fn monitored_serve_answers_health_prom_watch_and_top() {
        let schema = write_tmp("s22.bs", SCHEMA);
        let data = write_tmp("d22.ldif", LDIF);
        let port_file = write_tmp("p22.port", "");
        std::fs::remove_file(&port_file).unwrap();

        let server = {
            let schema = schema.clone();
            let data = data.clone();
            let port_file = port_file.clone();
            std::thread::spawn(move || {
                run_ok(&[
                    "serve",
                    &schema,
                    &data,
                    "--trace",
                    "--port-file",
                    &port_file,
                    "--monitor-interval",
                    "25",
                    "--slo",
                    "p99=50ms,err=50%",
                ])
            })
        };
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.ends_with('\n') {
                    break text.trim().to_owned();
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };

        // Traffic so the evaluation window has something to say.
        for _ in 0..3 {
            let (code, _) = run_ok(&["client", &addr, "ping"]);
            assert_eq!(code, 0);
        }

        let (code, out) = run_ok(&["client", &addr, "health"]);
        assert_eq!(code, 0, "{out}");
        assert!(bschema_obs::json::is_valid(out.trim()), "{out}");
        assert!(out.contains("\"verdict\""), "{out}");
        assert!(out.contains("\"slo\":{\"policy\""), "{out}");

        let (code, out) = run_ok(&["client", &addr, "prom"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("# TYPE"), "{out}");
        assert!(out.contains("bschema_server_request"), "{out}");

        // WATCH streams the asked-for number of ticks, then ends.
        let (code, out) = run_ok(&["client", &addr, "watch", "--ticks", "2"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("watch: 2 tick(s)"), "{out}");

        // `top --once` renders the health header plus one tick.
        let (code, out) = run_ok(&["top", &addr, "--once"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("health: "), "{out}");
        assert!(out.contains("slo: burn "), "{out}");
        assert!(out.contains("request_p99_us"), "{out}");
        assert!(out.contains("top: 1 tick(s)"), "{out}");

        let (code, _) = run_ok(&["client", &addr, "shutdown"]);
        assert_eq!(code, 0);
        let (code, out) = server.join().unwrap();
        assert_eq!(code, 0, "{out}");
    }

    #[test]
    fn top_without_monitor_is_refused() {
        let schema = write_tmp("s23.bs", SCHEMA);
        let data = write_tmp("d23.ldif", LDIF);
        let port_file = write_tmp("p23.port", "");
        std::fs::remove_file(&port_file).unwrap();

        let server = {
            let schema = schema.clone();
            let data = data.clone();
            let port_file = port_file.clone();
            std::thread::spawn(move || {
                run_ok(&["serve", &schema, &data, "--port-file", &port_file])
            })
        };
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.ends_with('\n') {
                    break text.trim().to_owned();
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };

        let (code, out) = run_ok(&["top", &addr, "--once"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("REFUSED (unsupported)"), "{out}");

        let (code, out) = run_ok(&["client", &addr, "health"]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("REFUSED (unsupported)"), "{out}");

        let (code, _) = run_ok(&["client", &addr, "shutdown"]);
        assert_eq!(code, 0);
        server.join().unwrap();
    }

    #[test]
    fn limit_flags_gate_inputs() {
        let schema = write_tmp("s19.bs", SCHEMA);
        let data = write_tmp("d19.ldif", LDIF);
        // Two records but --max-records 1.
        let args: Vec<String> = ["validate", &schema, &data, "--max-records", "1"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let err = run(&args, &mut String::new()).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("records"), "{}", err.message);

        // A filter two levels deep but --max-filter-depth 1.
        let args: Vec<String> = [
            "search",
            &data,
            "--filter",
            "(&(uid=a)(objectClass=person))",
            "--max-filter-depth",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = run(&args, &mut String::new()).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("filter"), "{}", err.message);
    }

    #[test]
    fn usage_errors() {
        let mut out = String::new();
        assert!(run(&[], &mut out).is_err());
        let args = vec!["bogus".to_owned()];
        assert!(run(&args, &mut out).is_err());
        let args = vec!["help".to_owned()];
        assert_eq!(run(&args, &mut out).unwrap(), 0);
        assert!(out.contains("usage"));

        // `serve` refuses flag combinations that cannot work before it
        // reads anything: the schema path does not exist, and the error
        // still names the flag.
        let missing = "/nonexistent/bschema-usage.bs";
        for (flag, args) in [
            ("--follow", vec!["serve", missing, "data.ldif", "--follow", "127.0.0.1:1"]),
            ("--follow", vec!["serve", missing, "--follow", "127.0.0.1:1", "--journal", "j.jrn"]),
            ("--follow", vec!["serve", missing, "--follow", "127.0.0.1:1", "--shards", "2"]),
            ("--audit", vec!["serve", missing, "--audit", "a.log"]),
            ("--checkpoint-every", vec!["serve", missing, "--checkpoint-every", "8"]),
        ] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let err = run(&args, &mut out).expect_err("combination must be refused");
            assert_eq!(err.code, 2, "{args:?}: {err}");
            assert!(err.message.contains(flag), "{args:?}: {err}");
            assert!(!err.message.contains(missing), "{args:?}: {err}");
        }
    }

    #[test]
    fn recover_verify_is_a_pure_dry_run() {
        let schema = write_tmp("s24.bs", SCHEMA);
        let data = write_tmp("d24.ldif", LDIF);
        let journal = write_tmp("j24.jrn", "");
        let tx = write_tmp(
            "t24.ldif",
            "dn: uid=b,o=acme\nobjectClass: person\nobjectClass: top\nuid: b\nname: b\n",
        );
        let (code, out) = run_ok(&["apply", &schema, &data, &tx, "--journal", &journal]);
        assert_eq!(code, 0, "{out}");

        let intact = std::fs::read_to_string(&journal).unwrap();
        let (code, out) = run_ok(&["recover", &schema, &data, &journal, "--verify"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("1 committed tx(s), 0 uncommitted"), "{out}");
        assert!(out.contains("checkpoint: none"), "{out}");
        assert!(out.contains("recovery point: full replay, 1 committed tx(s)"), "{out}");
        assert!(out.contains("VERIFY ONLY: no files were modified"), "{out}");
        assert_eq!(std::fs::read_to_string(&journal).unwrap(), intact, "verify must not mutate");

        // Tear the tail: verify reports the damage, still without repairing.
        let torn = &intact[..intact.len() - 3];
        std::fs::write(&journal, torn).unwrap();
        let (code, out) = run_ok(&["recover", &schema, &data, &journal, "--verify"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("TORN tail"), "{out}");
        assert!(out.contains("0 committed tx(s), 1 uncommitted"), "{out}");
        assert_eq!(std::fs::read_to_string(&journal).unwrap(), torn, "verify must not repair");
    }

    #[test]
    fn checkpoint_command_compacts_and_recover_replays_the_tail() {
        let schema = write_tmp("s25.bs", SCHEMA);
        let data = write_tmp("d25.ldif", LDIF);
        let journal = write_tmp("j25.jrn", "");
        let ckpt = format!("{journal}.ckpt");
        let _ = std::fs::remove_file(&ckpt);
        let tx_b = write_tmp(
            "t25b.ldif",
            "dn: uid=b,o=acme\nobjectClass: person\nobjectClass: top\nuid: b\nname: b\n",
        );
        let (code, out) = run_ok(&["apply", &schema, &data, &tx_b, "--journal", &journal]);
        assert_eq!(code, 0, "{out}");

        let (code, out) = run_ok(&["checkpoint", &schema, &data, &journal]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("CHECKPOINTED: 3 entries"), "{out}");
        assert_eq!(std::fs::read_to_string(&journal).unwrap(), "", "journal truncated");
        assert!(std::fs::read_to_string(&ckpt).unwrap().starts_with("bschema-ckpt"));

        // One more journaled tx becomes the tail past the checkpoint.
        let tx_c = write_tmp(
            "t25c.ldif",
            "dn: uid=c,o=acme\nobjectClass: person\nobjectClass: top\nuid: c\nname: c\n",
        );
        let (code, out) = run_ok(&["apply", &schema, &data, &tx_c, "--journal", &journal]);
        assert_eq!(code, 0, "{out}");

        let (code, out) = run_ok(&["recover", &schema, &data, &journal, "--verify"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("checkpoint: intact, 3 entries"), "{out}");
        assert!(out.contains("+ 1 tail tx(s) would replay"), "{out}");

        let (code, out) = run_ok(&["recover", &schema, &data, &journal]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("checkpoint: restored snapshot"), "{out}");
        assert!(out.contains("replayed 1 committed tx(s)"), "{out}");
        assert!(out.contains("4 entries"), "{out}");
        assert!(out.contains("LEGAL"), "{out}");
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn serve_follow_runs_a_read_replica() {
        let schema = write_tmp("s26.bs", SCHEMA);
        let data = write_tmp("d26.ldif", LDIF);
        let journal = write_tmp("j26.jrn", "");
        let _ = std::fs::remove_file(format!("{journal}.ckpt"));
        let pport = write_tmp("p26a.port", "");
        let rport = write_tmp("p26b.port", "");
        std::fs::remove_file(&pport).unwrap();
        std::fs::remove_file(&rport).unwrap();

        let wait_addr = |port_file: &str| loop {
            if let Ok(text) = std::fs::read_to_string(port_file) {
                if text.ends_with('\n') {
                    break text.trim().to_owned();
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };
        let primary = {
            let (schema, data, journal, pport) =
                (schema.clone(), data.clone(), journal.clone(), pport.clone());
            std::thread::spawn(move || {
                run_ok(&[
                    "serve",
                    &schema,
                    &data,
                    "--journal",
                    &journal,
                    "--checkpoint-every",
                    "2",
                    "--port-file",
                    &pport,
                ])
            })
        };
        let paddr = wait_addr(&pport);

        let replica = {
            let (schema, paddr, rport) = (schema.clone(), paddr.clone(), rport.clone());
            std::thread::spawn(move || {
                run_ok(&[
                    "serve",
                    &schema,
                    "--follow",
                    &paddr,
                    "--ship-interval",
                    "20",
                    "--port-file",
                    &rport,
                ])
            })
        };
        let raddr = wait_addr(&rport);

        // The bootstrap alone carries the seed data.
        let (code, out) = run_ok(&["client", &raddr, "ping"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("PONG: 2 entries"), "{out}");

        // A write on the primary ships to the replica within a few polls.
        let tx = write_tmp(
            "t26.ldif",
            "dn: uid=b,o=acme\nobjectClass: person\nobjectClass: top\nuid: b\nname: b\n",
        );
        let (code, out) = run_ok(&["client", &paddr, "apply", &tx]);
        assert_eq!(code, 0, "{out}");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let (_, out) = run_ok(&["client", &raddr, "search", "--filter", "(uid=b)"]);
            if out.contains("1 entries match") {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "replica never caught up: {out}");
            std::thread::sleep(std::time::Duration::from_millis(20));
        }

        // The replica refuses writes with the stable code.
        let (code, out) = run_ok(&["client", &raddr, "apply", &tx]);
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("REJECTED (read-only)"), "{out}");

        let (code, _) = run_ok(&["client", &raddr, "shutdown"]);
        assert_eq!(code, 0);
        replica.join().unwrap();
        let (code, _) = run_ok(&["client", &paddr, "shutdown"]);
        assert_eq!(code, 0);
        primary.join().unwrap();
        let _ = std::fs::remove_file(&journal);
        let _ = std::fs::remove_file(format!("{journal}.ckpt"));
    }
}
