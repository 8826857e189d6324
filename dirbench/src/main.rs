//! `dirbench` — command line. See `README.md`.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use bschema_obs::json::Value;
use dirbench::report::{compare, render_comparison, result_line, table, Set, WorkloadSet};
use dirbench::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use dirbench::stats::{median, spread};
use dirbench::wire::RunConfig;
use dirbench::{layers, wire};

const USAGE: &str = "\
usage: dirbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--dir <path>]
       dirbench all --seed <n> --out <set.json> [--runs <r>] [--seconds <s>] [--trace] [--dir <path>]
       dirbench compare <a.json> <b.json>
       dirbench list";

/// Where journals, checkpoints and trace files go unless `--dir` says
/// otherwise: inside the benchmark's own directory.
const DEFAULT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/scratch");

/// `--flag value` pairs and bare words of a command line.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(args: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut out = Args { flags: Vec::new(), words: Vec::new() };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if switches.contains(&arg.as_str()) {
                out.flags.push((arg.clone(), String::new()));
            } else if arg.starts_with("--") {
                let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                out.flags.push((arg.clone(), value.clone()));
            } else {
                out.words.push(arg.clone());
            }
        }
        Ok(out)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags.iter().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: Option<T>) -> Result<T, String> {
        match (self.get(flag), default) {
            (Some(text), _) => {
                text.parse().map_err(|_| format!("{flag}: {text:?} is not a number"))
            }
            (None, Some(default)) => Ok(default),
            (None, None) => Err(format!("{flag} is required")),
        }
    }
}

/// One run in this process: prints the fingerprints, the table (stderr)
/// and the result line (last line of stdout).
fn run(args: &Args) -> Result<ExitCode, String> {
    let name = args.get("--workload").ok_or("--workload is required")?;
    let workload = spec::workload(name)
        .ok_or_else(|| format!("unknown workload {name:?}; see `dirbench list`"))?;
    let seed: u64 = args.number("--seed", Some(1))?;
    let seconds: f64 = args.number("--seconds", Some(45.0))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let traced = match args.get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let dir = PathBuf::from(args.get("--dir").unwrap_or(DEFAULT_DIR))
        .join(format!("{name}-{}", std::process::id()));
    let cfg = RunConfig { workload, seed, seconds, dir, corrupt_cycle: None };
    let result = if traced { layers::run(&cfg) } else { wire::run(&cfg) }?;
    eprint!("{}", table(&result));
    let samples: Vec<String> = result
        .metrics
        .iter()
        .filter(|m| m.samples > 0)
        .map(|m| format!("\"{}\":{}", m.name, m.samples))
        .collect();
    println!("dirbench samples {{{}}}", samples.join(","));
    println!(
        "dirbench workload={name} seed={seed} seconds={seconds} trace={} base_fnv={:016x} script_fnv={:016x}",
        u8::from(traced),
        result.base_fnv,
        result.script_fnv
    );
    println!("{}", result_line(&result));
    Ok(if result.correct { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn list() {
    println!("workloads (one script shape: 1 write then 5 searches per cycle, one closed-loop connection):");
    for w in &WORKLOADS {
        println!("  {:<12} {}", w.name, w.why);
    }
    println!("\nend-to-end metrics (--trace 0; gated):");
    for m in &END_TO_END {
        println!(
            "  {:<26} {:<5} {:<6} better, bound {:>3.0}%  {}",
            m.name,
            m.unit,
            m.better,
            m.bound * 100.0,
            m.def
        );
    }
    println!("\nper-layer metrics (--trace 1; medians, never gated):");
    for m in &PER_LAYER {
        println!("  {:<40} {:<5} {}  -> {}", m.name, m.unit, m.def, m.moves);
    }
}

/// What one child run reported.
struct ChildResult {
    correct: bool,
    failed: u64,
    metrics: Vec<(String, f64)>,
    samples: Vec<(String, usize)>,
}

/// Runs one workload once in a child process and parses its result line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: Option<&str>,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if let Some(dir) = dir {
        command.args(["--dir", dir]);
    }
    let output = command.output().map_err(|e| format!("spawning a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or_else(|| format!("{workload} seed {seed}: no result"))?;
    let root =
        Value::parse(line).ok_or_else(|| format!("{workload} seed {seed}: bad result {line:?}"))?;
    let metrics = root.get("metrics").and_then(Value::entries).ok_or("result has no metrics")?;
    let samples = stdout
        .lines()
        .find_map(|l| l.strip_prefix("dirbench samples "))
        .and_then(Value::parse)
        .and_then(|v| v.entries().map(<[_]>::to_vec))
        .unwrap_or_default();
    Ok(ChildResult {
        correct: root.get("correct") == Some(&Value::Bool(true)),
        failed: root.get("failed").and_then(Value::as_u64).unwrap_or(0),
        metrics: metrics
            .iter()
            .map(|(name, m)| {
                (name.clone(), m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN))
            })
            .collect(),
        samples: samples
            .into_iter()
            .filter_map(|(name, n)| Some((name, n.as_u64()? as usize)))
            .collect(),
    })
}

/// One full set: every workload `--runs` times, each run in its own
/// process, seeds `--seed`, `--seed`+1, … Writes the set file and prints
/// the medians and the Theorem 4.2 flatness ratios.
fn all(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.number("--seed", Some(1))?;
    let seconds: f64 = args.number("--seconds", Some(45.0))?;
    let runs: u64 = args.number("--runs", Some(1))?;
    let out = args.get("--out").ok_or("--out is required")?;
    let mut set = Set { seconds, ..Set::default() };
    let mut correct = true;
    for w in &WORKLOADS {
        let mut wl = WorkloadSet::default();
        for r in 0..runs {
            eprintln!("dirbench: {} seed {} ...", w.name, seed + r);
            let run = child(w.name, seed + r, seconds, false, args.get("--dir"))?;
            correct &= run.correct;
            wl.failed += run.failed;
            wl.seeds.push(seed + r);
            for (name, value) in run.metrics {
                wl.end_to_end.entry(name).or_default().push(value);
            }
            for (name, n) in run.samples {
                wl.samples.entry(name).or_insert(n);
            }
        }
        if args.get("--trace").is_some() {
            eprintln!("dirbench: {} seed {seed} traced ...", w.name);
            let run = child(w.name, seed, seconds, true, args.get("--dir"))?;
            correct &= run.correct;
            wl.failed += run.failed;
            wl.per_layer = run.metrics.into_iter().collect();
        }
        set.workloads.insert(w.name.to_owned(), wl);
    }
    std::fs::write(out, set.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
    let row = |label: &str, cell: &dyn Fn(&str) -> String| {
        let cells: Vec<String> =
            WORKLOADS.iter().map(|w| format!("{:>16}", cell(w.name))).collect();
        println!("{label:<26}{}", cells.concat());
    };
    row("median (spread)", &|w| w.to_owned());
    for m in &END_TO_END {
        row(m.name, &|w| {
            let values = &set.workloads[w].end_to_end[m.name];
            match spread(values) {
                Some(s) => format!("{:.4} ({:.1}%)", median(values), s * 100.0),
                None => format!("{:.4}", median(values)),
            }
        });
    }
    for metric in ["txn_insert_p50_ms", "core.updates.delta_check_insert_us"] {
        if let Some(ratio) = set.flatness(metric) {
            println!("flatness {metric}: large-50k is {ratio:.2}x of small-2k (25x the entries)");
        }
    }
    println!("wrote {out}; correct={correct}");
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::from(1) })
}

fn compare_files(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = &args.words[..] else {
        return Err("compare takes two set files".to_owned());
    };
    let read = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Set::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let rows = compare(&read(a)?, &read(b)?);
    print!("{}", render_comparison(&rows));
    let count = |v: &str| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} worse, {} unresolved, {} missing",
        count("ok"),
        count("worse"),
        count("unresolved"),
        count("missing")
    );
    // `worse` fails a gate; `unresolved` and `missing` fail an agreement
    // check, which asks for every pair to be resolved (exit 2).
    Ok(if count("worse") > 0 {
        ExitCode::from(1)
    } else if count("unresolved") + count("missing") > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `--trace` takes 0|1 for a run and is a bare switch for `all`.
    let switches: &[&str] =
        if raw.first().is_some_and(|w| w == "all") { &["--trace"] } else { &[] };
    let outcome =
        Args::parse(&raw, switches).and_then(|args| match args.words.first().map(String::as_str) {
            Some("list") => {
                list();
                Ok(ExitCode::SUCCESS)
            }
            Some("all") => all(&args),
            Some("compare") => compare_files(&args),
            Some("run") | None if args.get("--workload").is_some() => run(&args),
            _ => Err(USAGE.to_owned()),
        });
    outcome.unwrap_or_else(|why| {
        eprintln!("dirbench: {why}");
        ExitCode::from(2)
    })
}
