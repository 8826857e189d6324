//! `bschema client <addr> <action>` (one wire request) and `bschema
//! top <addr>` (the operator view), and [`reply`], the one place a
//! server reply becomes output and an exit code.

use std::fmt::Write as _;

use bschema_obs::json::Value;
use bschema_server::{Client, ClientError};

use crate::args::Args;
use crate::{read_file, usage_error, CliError};

/// Prints one server reply: `ok` renders the answer (exit 0); a refusal
/// prints its stable code and detail — as `REJECTED` when a `write` was
/// refused — and exits 1; a broken conversation is a usage error naming
/// the server (exit 2).
fn reply<T>(
    out: &mut String,
    addr: &str,
    write: bool,
    result: Result<T, ClientError>,
    ok: impl FnOnce(&mut String, T) -> std::fmt::Result,
) -> Result<i32, CliError> {
    let refusal = match result {
        Ok(answer) => {
            let _ = ok(out, answer);
            return Ok(0);
        }
        Err(ClientError::Server { code, detail }) if write => {
            format!("REJECTED ({code}): {detail}")
        }
        Err(ClientError::Server { code, detail }) => format!("REFUSED ({code}): {detail}"),
        Err(e) => return Err(lost(addr, e)),
    };
    let _ = writeln!(out, "{refusal}");
    Ok(1)
}

fn lost(addr: &str, e: ClientError) -> CliError {
    usage_error(format!("cannot talk to server at {addr}: {e}"))
}

/// Connects to `addr`. Every request is trace-stamped `<label>-<seq>`;
/// a traced server reports the id back through `bschema client <addr>
/// trace`, an untraced (or older) one strips and ignores the token.
fn connect(addr: &str, label: &str) -> Result<Client, CliError> {
    Ok(Client::connect(addr).map_err(|e| lost(addr, e))?.with_trace_label(label))
}

/// `bschema client <addr> <action> ...` — one wire request against a
/// running server. Its words are read before the server is contacted;
/// server refusals exit 1 with the stable code, local usage problems
/// exit 2.
pub(crate) fn client(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let (head, rest) = args.split_at(args.len().min(2));
    let [addr, action] = Args::read(head, &[], &[])?.exactly(
        "client takes <addr> ping|search|apply|modify|schema|metrics|prom|stats|trace|health|checkpoint|watch|shutdown [args]",
    )?;
    let (switches, values): (&[&str], &[&str]) = match action {
        "search" => (&["--explain"], &["--filter", "--base", "--scope", "--limit"]),
        "watch" => (&[], &["--ticks"]),
        "schema" => (&["--step"], &[]),
        "ping" | "apply" | "modify" | "metrics" | "prom" | "stats" | "trace" | "health"
        | "checkpoint" | "shutdown" => (&[], &[]),
        other => return Err(usage_error(format!("unknown client action {other:?}"))),
    };
    let args = Args::read(rest, switches, values)?;
    if !matches!(action, "apply" | "modify" | "schema") {
        args.exactly::<0>(&format!("client {action} takes no arguments"))?;
    }
    let (limit, ticks) = (args.number("--limit")?, args.number("--ticks")?);
    let mut client = connect(addr, "cli")?;
    let json = |out: &mut String, json: String| writeln!(out, "{json}");
    match action {
        "ping" => {
            reply(out, addr, false, client.ping(), |out, len| writeln!(out, "PONG: {len} entries"))
        }
        "search" => {
            let filter = args
                .value("--filter")
                .ok_or_else(|| usage_error("client search needs --filter"))?;
            let base = args.value("--base");
            // The server reads the scope word (`SearchScope`'s spellings).
            let scope = args.value("--scope").unwrap_or("sub");
            if args.has("--explain") {
                let explained = client.search_explain(base, scope, filter, limit);
                return reply(out, addr, false, explained, |out, (count, json)| {
                    writeln!(out, "EXPLAIN: {count} entries match\n{json}")
                });
            }
            reply(out, addr, false, client.search(base, scope, filter, limit), |out, ldif| {
                writeln!(out, "{} entries match", ldif.matches("dn: ").count())?;
                out.write_str(&ldif)
            })
        }
        "apply" => {
            let [tx_path] = args.exactly("client apply takes <tx.ldif>")?;
            reply(out, addr, true, client.apply_ldif(&read_file(tx_path)?), |out, receipt| {
                writeln!(
                    out,
                    "APPLIED: {} op(s); directory now has {} entries (legal)",
                    receipt.ops, receipt.len
                )
            })
        }
        "modify" => {
            let [mods_path] = args.exactly("client modify takes <mods.txt>")?;
            reply(out, addr, true, client.modify_lines(&read_file(mods_path)?), |out, len| {
                writeln!(out, "MODIFIED: directory has {len} entries (legal)")
            })
        }
        "checkpoint" => reply(out, addr, false, client.checkpoint(), |out, seqs| {
            let joined = seqs.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
            writeln!(out, "CHECKPOINTED: journal truncated, covered seq(s) {joined}")
        }),
        "metrics" => reply(out, addr, false, client.metrics_json(), json),
        "prom" => reply(out, addr, false, client.metrics_prom(), |out, text| out.write_str(&text)),
        "health" => reply(out, addr, false, client.health_json(), json),
        "stats" => reply(out, addr, false, client.stats_json(), json),
        "trace" => reply(out, addr, false, client.trace_json(), json),
        "watch" => {
            let ticks = client.watch(ticks.unwrap_or(5), |seq, json| {
                println!("TICK {seq} {json}");
                true
            });
            reply(out, addr, false, ticks, |out, streamed| {
                writeln!(out, "watch: {streamed} tick(s)")
            })
        }
        "shutdown" => reply(out, addr, false, client.shutdown_server(), |out, ()| {
            writeln!(out, "server draining")
        }),
        "schema" => {
            let answer = match (args.positional(), args.has("--step")) {
                (["propose", words @ ..], true) if !words.is_empty() => {
                    client.schema_propose(&words.join(" "))
                }
                (["propose", path], false) => client.schema_propose(&read_file(path)?),
                (["propose", ..], _) => {
                    return Err(usage_error(
                        "client schema propose takes <payload-file> or --step <word>...",
                    ))
                }
                (["check"], false) => client.schema_check(),
                (["status"], false) => client.schema_status(),
                (["commit"], false) => client.schema_commit(),
                (["abort"], false) => client.schema_abort(),
                _ => {
                    return Err(usage_error(
                        "client schema takes propose <payload-file>|--step <word>... | check | status | commit | abort",
                    ))
                }
            };
            reply(out, addr, false, answer, json)
        }
        other => unreachable!("client action {other:?} was vetted above"),
    }
}

/// `bschema top <addr> [--once] [--ticks <n>]` — the operator view: a
/// `HEALTH` header (verdict, window, per-shard signals) followed by a
/// live per-verb latency table fed from the server's `WATCH` stream.
/// `--once` renders a single tick into the buffered output for
/// scripting; live mode prints each frame as it lands.
pub(crate) fn top(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let args = Args::read(args, &["--once"], &["--ticks"])?;
    let [addr] = args.exactly("top takes <addr> [--once] [--ticks <n>]")?;
    let once = args.has("--once");
    let want = args.number("--ticks")?.unwrap_or(if once { 1 } else { 30 }).max(1);
    let mut client = connect(addr, "top")?;
    let show = |out: &mut String, frame: String| {
        if once {
            out.push_str(&frame);
        } else {
            print!("{frame}");
            let _ = std::io::Write::flush(&mut std::io::stdout());
        }
        Ok(())
    };
    let code =
        reply(out, addr, false, client.health_json(), |out, json| show(out, render_health(&json)))?;
    if code != 0 {
        return Ok(code);
    }
    let mut frames = String::new();
    let watched = client.watch(want, |seq, json| show(&mut frames, render_tick(seq, json)).is_ok());
    reply(out, addr, false, watched, |out, streamed| {
        out.push_str(&frames);
        writeln!(out, "top: {streamed} tick(s)")
    })
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
