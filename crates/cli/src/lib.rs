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
//!
//! One module per command family, all reading argv through [`args`]:
//! `offline` (the checks and schema tools run against files), `journal`
//! (`apply`, `recover`, `checkpoint`), `serve`, and `client` (`client`
//! and `top`, and the one printer of a server reply).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod client;
mod journal;
mod offline;
mod serve;

use std::fmt::Write as _;

use bschema_core::schema::dsl::{parse_schema, ParsedSchema};
use bschema_directory::ldif::LdifLimits;
use bschema_directory::{ldif, DirectoryInstance};
use bschema_obs::{MetricsRegistry, Recorder};
use bschema_query::DEFAULT_FILTER_DEPTH;

use args::Args;

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
    let Some((command, args)) = args.split_first() else {
        return Err(usage_error(USAGE));
    };
    match command.as_str() {
        "check-schema" => offline::consistency(args, out, true),
        "validate" => offline::validate(args, out),
        "check" => offline::check(args, out),
        "apply" => journal::apply(args, out),
        "recover" => journal::recover(args, out),
        "checkpoint" => journal::checkpoint(args, out),
        "consistency" => offline::consistency(args, out, false),
        "witness" => offline::witness(args, out),
        "search" => offline::search(args, out),
        "print-schema" => offline::print_schema_file(args, out),
        "evolve" => offline::evolve(args, out),
        "suggest-schema" => offline::discover(args, out, true),
        "discover" => offline::discover(args, out, false),
        "serve" => serve::serve(args, out),
        "client" => client::client(args, out),
        "top" => client::top(args, out),
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
          [--trace] [--metrics[=json]] [--slo p99=<dur>,err=<rate> [--audit <path>]]
          [--inject-fault-site <site>[:<occurrence>]]
  bschema client <addr> ping
  bschema client <addr> search --filter <rfc2254> [--base <dn>] [--scope base|one|sub] [--limit <n>] [--explain]
  bschema client <addr> apply <tx.ldif>
  bschema client <addr> modify <mods.txt>
  bschema client <addr> metrics | prom | trace | health | checkpoint | shutdown
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

fn load_ldif(
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

/// The observability switches of `check`, `apply`, `recover`,
/// `consistency` and `serve`.
const OBS: &[&str] = &["--trace", "--metrics", "--metrics=json"];

/// The input-limit flags of `check`, `validate`, `apply`, `search` and
/// `serve`. Unset ones keep [`LdifLimits::default`] /
/// [`DEFAULT_FILTER_DEPTH`]; `serve` tightens the unset LDIF ones to
/// [`LdifLimits::strict`] because socket bytes are untrusted.
const LIMITS: &[&str] = &["--max-line-len", "--max-records", "--max-filter-depth"];

fn ldif_limits(args: &Args, base: LdifLimits) -> Result<LdifLimits, CliError> {
    Ok(LdifLimits {
        max_line_len: args.number("--max-line-len")?.unwrap_or(base.max_line_len),
        max_records: args.number("--max-records")?.unwrap_or(base.max_records),
        ..base
    })
}

fn filter_depth(args: &Args) -> Result<usize, CliError> {
    Ok(args.number("--max-filter-depth")?.unwrap_or(DEFAULT_FILTER_DEPTH))
}

/// How `--metrics` output should be rendered.
#[derive(Clone, Copy)]
enum MetricsFormat {
    Text,
    Json,
}

/// What the [`OBS`] switches asked for.
struct ObsOpts {
    trace: bool,
    metrics: Option<MetricsFormat>,
}

impl ObsOpts {
    fn new(args: &Args) -> Self {
        let metrics = match (args.has("--metrics=json"), args.has("--metrics")) {
            (true, _) => Some(MetricsFormat::Json),
            (false, true) => Some(MetricsFormat::Text),
            (false, false) => None,
        };
        ObsOpts { trace: args.has("--trace"), metrics }
    }

    fn wanted(&self) -> bool {
        self.trace || self.metrics.is_some()
    }

    /// Emits the span tree (when the command kept one in `spans`) and
    /// the registry. The JSON form goes last so the final output line is
    /// always the one machine-readable object.
    fn emit(&self, out: &mut String, metrics: &MetricsRegistry, spans: Option<&Recorder>) {
        if let Some(recorder) = spans.filter(|_| self.trace) {
            out.push_str(&recorder.trace_text());
        }
        match self.metrics {
            Some(MetricsFormat::Text) => out.push_str(&metrics.render_text()),
            Some(MetricsFormat::Json) => {
                let json = spans.map_or_else(|| metrics.to_json(), Recorder::to_json);
                let _ = writeln!(out, "{json}");
            }
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bschema_core::journal::Journal;
    use bschema_core::updates::Transaction;
    use bschema_obs::json::Value;

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

    fn run_err(args: &[&str]) -> CliError {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        run(&args, &mut String::new()).expect_err("a usage error")
    }

    /// Runs `bschema serve <args> --port-file <tmp>` on a thread and
    /// returns the address it listens on, once it does, and the thread.
    fn spawn_serve(tag: &str, args: &[&str]) -> (String, std::thread::JoinHandle<(i32, String)>) {
        let port_file = write_tmp(&format!("{tag}.port"), "");
        std::fs::remove_file(&port_file).unwrap();
        let mut argv = vec!["serve".to_owned()];
        argv.extend(args.iter().map(|s| s.to_string()));
        argv.extend(["--port-file".to_owned(), port_file.clone()]);
        let server = std::thread::spawn(move || {
            let mut out = String::new();
            let code = run(&argv, &mut out).unwrap_or_else(|e| panic!("cli error: {e}"));
            (code, out)
        });
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if text.ends_with('\n') {
                    return (text.trim().to_owned(), server);
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }

    /// One argv reader: every subcommand and every `client` action
    /// refuses a flag it does not take, a value flag with nothing after
    /// it and a number that is not one, each in one wording, exit 2 —
    /// before any file is read or any server contacted (nothing listens
    /// on the address below).
    #[test]
    fn every_command_reads_its_words_through_one_reader() {
        let client = |action| vec!["client", "127.0.0.1:1", action];
        let mut commands: Vec<Vec<&str>> = [
            "check-schema",
            "validate",
            "check",
            "apply",
            "recover",
            "checkpoint",
            "consistency",
            "witness",
            "search",
            "print-schema",
            "evolve",
            "suggest-schema",
            "discover",
            "serve",
            "client",
            "top",
        ]
        .iter()
        .map(|command| vec![*command])
        .collect();
        assert_eq!(commands.len(), 16);
        for action in [
            "ping",
            "search",
            "apply",
            "modify",
            "metrics",
            "prom",
            "trace",
            "health",
            "checkpoint",
            "watch",
            "shutdown",
            "schema",
        ] {
            commands.push(client(action));
        }
        for command in &commands {
            let err = run_err(&[&command[..], &["--bogus"]].concat());
            assert_eq!(err.code, 2, "{command:?}: {err}");
            assert_eq!(err.message, "unknown option \"--bogus\"", "{command:?}");
        }
        for (command, flag) in [
            (vec!["validate"], "--max-records"),
            (vec!["check"], "--max-line-len"),
            (vec!["apply"], "--journal"),
            (vec!["search"], "--filter"),
            (vec!["serve"], "--addr"),
            (vec!["top"], "--ticks"),
            (client("search"), "--filter"),
            (client("watch"), "--ticks"),
        ] {
            let err = run_err(&[&command[..], &[flag]].concat());
            assert_eq!(err.code, 2, "{command:?}: {err}");
            assert_eq!(err.message, format!("{flag} needs a value"), "{command:?}");
        }
        for (command, flag) in [
            (vec!["validate", "s.bs", "d.ldif"], "--max-records"),
            (vec!["apply", "s.bs", "d.ldif", "t.ldif"], "--inject-fault"),
            (vec!["serve", "s.bs"], "--threads"),
            (vec!["serve", "s.bs"], "--checkpoint-every"),
            (vec!["serve", "s.bs"], "--ship-interval"),
            (vec!["top", "127.0.0.1:1"], "--ticks"),
            (client("search"), "--limit"),
            (client("watch"), "--ticks"),
        ] {
            let err = run_err(&[&command[..], &[flag, "many"]].concat());
            assert_eq!(err.code, 2, "{command:?}: {err}");
            assert_eq!(err.message, format!("{flag} needs a number, got \"many\""), "{command:?}");
        }
        let err = run_err(&["serve", "s.bs", "--inject-fault-site", "a:99999999999999999999"]);
        assert_eq!(err.message, "--inject-fault-site needs a number, got \"99999999999999999999\"");
    }

    /// A scope word means the same offline and over the wire: `subtree`
    /// and `onelevel` answer exactly as `sub` and `one` do, and EXPLAIN
    /// spells the scope the short way.
    #[test]
    fn client_scope_words_are_the_offline_ones() {
        let schema = write_tmp("s28.bs", SCHEMA);
        let data = write_tmp("d28.ldif", LDIF);
        let (addr, server) = spawn_serve("p28", &[&schema, &data]);
        let filter = "(objectClass=person)";
        for (short, long) in [("sub", "subtree"), ("one", "onelevel")] {
            let online = |scope| {
                run_ok(&[
                    "client", &addr, "search", "--filter", filter, "--base", "o=acme", "--scope",
                    scope,
                ])
            };
            let (code, out) = online(long);
            assert_eq!((code, &out), (0, &online(short).1), "--scope {long}");
            assert!(out.starts_with("1 entries match\n"), "{out}");
            let offline = |scope| {
                run_ok(&["search", &data, "--filter", filter, "--base", "o=acme", "--scope", scope])
            };
            assert_eq!(offline(long), offline(short), "--scope {long}");
        }
        let (code, out) = run_ok(&[
            "client",
            &addr,
            "search",
            "--filter",
            filter,
            "--scope",
            "subtree",
            "--explain",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"scope\":\"sub\""), "{out}");
        let (code, _) = run_ok(&["client", &addr, "shutdown"]);
        assert_eq!(code, 0);
        server.join().unwrap();
    }

    /// `serve` shares a probe that keeps counters and histograms only: a
    /// request's spans live in its own trace or nowhere, so `METRICS`
    /// holds no span and does not grow with the requests served.
    #[test]
    fn serve_keeps_no_span_outside_a_request_trace() {
        let schema = write_tmp("s29.bs", SCHEMA);
        let data = write_tmp("d29.ldif", LDIF);
        let (addr, server) = spawn_serve("p29", &[&schema, &data]);
        let mut client = bschema_server::Client::connect(addr.as_str()).unwrap();
        let request = |client: &mut bschema_server::Client, i: usize| match i % 100 {
            0 => {
                let uid = format!("n{i}");
                let tx = format!(
                    "dn: uid={uid},o=acme\nobjectClass: person\nobjectClass: top\nuid: {uid}\nname: {uid}\n"
                );
                client.apply_ldif(&tx).map(drop).unwrap();
            }
            _ => client.search(None, "sub", "(uid=a)", None).map(drop).unwrap(),
        };
        // Every series (METRICS' own included) exists before the count.
        (0..2).for_each(|i| request(&mut client, i));
        client.metrics_json().unwrap();
        let mut sizes = Vec::new();
        for round in 1..=2 {
            (round * 1000..(round + 1) * 1000).for_each(|i| request(&mut client, i));
            let json = client.metrics_json().unwrap();
            let metrics = Value::parse(&json).expect("METRICS is JSON");
            assert_eq!(metrics.get("spans"), None, "a shared span arena: {json}");
            sizes.push(json.len());
        }
        assert!(sizes[1] - sizes[0] < 64, "METRICS grew with the requests: {sizes:?}");
        client.shutdown_server().unwrap();
        let (code, out) = server.join().unwrap();
        assert_eq!(code, 0, "{out}");
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
    fn apply_reports_the_index_work_and_rollback() {
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
        // Figure 5′ certifies the write, with no Figure 4 query.
        assert!(last.contains("\"name\":\"structure_scoped\""), "{last}");
        assert!(!last.contains("incremental.delta_query."), "{last}");
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
    fn traced_serve_answers_trace_and_search_explain() {
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
        assert!(out.contains("journal.commit"), "{out}");

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
        let (addr, server) =
            spawn_serve("p22", &[&schema, &data, "--trace", "--slo", "p99=50ms,err=50%"]);

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

    /// `serve` always meters, so it always samples: a plain server, no
    /// telemetry flag given, answers the whole health plane.
    #[test]
    fn plain_serve_answers_health_watch_and_top() {
        let schema = write_tmp("s23.bs", SCHEMA);
        let data = write_tmp("d23.ldif", LDIF);
        let (addr, server) = spawn_serve("p23", &[&schema, &data]);

        let (code, out) = run_ok(&["client", &addr, "health"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("\"verdict\""), "{out}");
        assert!(out.contains("\"slo\":null"), "{out}");

        let (code, out) = run_ok(&["client", &addr, "watch", "--ticks", "1"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("watch: 1 tick(s)"), "{out}");

        let (code, out) = run_ok(&["top", &addr, "--once"]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("health: "), "{out}");
        assert!(out.contains("top: 1 tick(s)"), "{out}");

        let (code, _) = run_ok(&["client", &addr, "shutdown"]);
        assert_eq!(code, 0);
        let (code, out) = server.join().unwrap();
        assert_eq!(code, 0, "{out}");
    }

    /// Only SLO alert edges are audited, so `--audit` without `--slo`
    /// would never write a line: it is refused, and the tick interval is
    /// no longer a flag.
    #[test]
    fn audit_needs_an_slo_and_the_interval_flag_is_gone() {
        let missing = "/nonexistent/bschema-audit.bs";
        let err = run_err(&["serve", missing, "--audit", "a.log"]);
        assert_eq!((err.code, err.message.as_str()), (2, "--audit needs --slo"));
        // Spelled in two pieces, so `ci/one_switch.sh` finds no use of it.
        let flag = ["--monitor", "interval"].join("-");
        let err = run_err(&["serve", missing, "--audit", "a.log", &flag, "100"]);
        assert_eq!((err.code, err.message), (2, format!("unknown option \"{flag}\"")));
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
