//! The harness is run, not just compiled: `run_experiments all --quick`
//! must reach its end, and what it writes must stay a small file of
//! scalars and counters.

use std::process::{Command, Output};

fn run_experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_run_experiments"))
        .args(args)
        .output()
        .expect("run_experiments starts")
}

/// The experiment names of the usage line an unknown experiment prints.
fn usage_names() -> Vec<String> {
    let out = run_experiments(&["rec"]);
    assert_eq!(out.status.code(), Some(2), "an unknown experiment is a usage error");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains("unknown experiment \"rec\""), "{stderr}");
    let (_, names) = stderr.trim_end().rsplit_once("use ").expect("a usage line");
    names.split('|').map(str::to_owned).collect()
}

#[test]
fn rec_is_no_longer_an_experiment() {
    let names = usage_names();
    assert!(!names.iter().any(|n| n == "rec"), "{names:?}");
    assert_eq!(names.last().map(String::as_str), Some("all"), "{names:?}");
}

#[test]
fn all_quick_runs_to_the_end_and_writes_scalars() {
    let path = std::env::temp_dir().join(format!("bschema-smoke-{}.json", std::process::id()));
    let out = run_experiments(&["all", "--quick", "--out", path.to_str().expect("utf-8 path")]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "exit {:?}\n{stdout}\n{stderr}", out.status.code());

    // `== T3.1: …` is the header of `t31`, `== F1-F3: …` that of `f1`.
    let headers: Vec<String> = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("== "))
        .filter_map(|l| l.split_once(':'))
        .map(|(tag, _)| tag.replace('.', "").to_lowercase())
        .collect();
    for name in usage_names().iter().filter(|n| *n != "all") {
        assert!(headers.iter().any(|h| h.starts_with(name)), "no header for {name}: {headers:?}");
    }

    let payloads: Vec<&str> =
        stdout.lines().filter_map(|l| l.strip_prefix("BENCH_JSON ")).collect();
    assert!(!payloads.is_empty(), "{stdout}");
    for payload in &payloads {
        assert!(bschema_obs::json::is_valid(payload), "{payload}");
    }

    let file = std::fs::read_to_string(&path).expect("--out file written");
    let _ = std::fs::remove_file(&path);
    assert!(bschema_obs::json::is_valid(&file), "{file}");
    assert!(file.len() < 64 * 1024, "--out is {} bytes", file.len());
    for payload in &payloads {
        assert!(file.contains(payload), "--out lacks {payload}");
    }
    for key in ["\"spans\"", "\"histograms\""] {
        assert!(!file.contains(key), "--out carries {key}");
    }
}
