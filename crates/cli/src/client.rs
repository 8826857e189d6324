//! `bschema client <addr> <action>` (one wire request) and `bschema
//! top <addr>` (the operator view), and [`reply`], the one place a
//! server reply becomes output and an exit code.

use std::fmt::Write as _;

use bschema_obs::json::Value;
use bschema_obs::names;
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
        "client takes <addr> ping|search|apply|modify|schema|metrics|prom|trace|health|checkpoint|watch|shutdown [args]",
    )?;
    let (switches, values): (&[&str], &[&str]) = match action {
        "search" => (&["--explain"], &["--filter", "--base", "--scope", "--limit"]),
        "watch" => (&[], &["--ticks"]),
        "schema" => (&["--step"], &[]),
        "ping" | "apply" | "modify" | "metrics" | "prom" | "trace" | "health" | "checkpoint"
        | "shutdown" => (&[], &[]),
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

/// Field `path` of a reply as `top` prints a number: integral values
/// without the trailing `.000000` the wire format carries for rates, 0
/// when absent.
fn num(v: &Value, path: &str) -> String {
    let n = v.path(path).and_then(Value::as_f64).unwrap_or(0.0);
    if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n:.4}")
    }
}

/// Field `key` of a reply as a word, `?` when absent.
fn word<'v>(v: &'v Value, key: &str) -> &'v str {
    v.get(key).and_then(Value::as_str).unwrap_or("?")
}

/// Renders a `HEALTH` snapshot as the `top` header. Falls back to the
/// raw JSON if the payload does not parse (older server, truncation).
fn render_health(json: &str) -> String {
    let Some(v) = Value::parse(json) else {
        return format!("{json}\n");
    };
    let mut s = String::new();
    let _ = writeln!(
        s,
        "health: {} ({} shard(s), {} tick(s) retained)",
        word(&v, "verdict").to_uppercase(),
        num(&v, "shards_total"),
        num(&v, "ticks"),
    );
    let _ = writeln!(
        s,
        "window: {} request(s) ({}/s), p99 {}us, err-rate {}",
        num(&v, "window.requests"),
        num(&v, "window.req_per_s"),
        num(&v, "window.p99_us"),
        num(&v, "window.err_rate"),
    );
    if v.path("slo.burn").is_some() {
        let (burn, alerts) = (num(&v, "slo.burn"), num(&v, "slo.alerts"));
        let _ = writeln!(s, "slo: burn {burn} ({alerts} alert(s) fired)");
    }
    if v.get("fitness").is_some() {
        let (legal, committed) = (num(&v, "fitness.legal_rate"), num(&v, "fitness.committed"));
        let _ = writeln!(s, "fitness: legal-rate {legal} ({committed} committed)");
    }
    if let Some(signals) = v.get("signals").and_then(Value::items) {
        let _ = writeln!(
            s,
            "{:<18} {:>12} {:>12} {:>12} {:>6}",
            "signal", "value", "warn", "crit", "status"
        );
        for sig in signals {
            let _ = writeln!(
                s,
                "{:<18} {:>12} {:>12} {:>12} {:>6}",
                word(sig, "name"),
                num(sig, "value"),
                num(sig, "warn"),
                num(sig, "crit"),
                word(sig, "status"),
            );
        }
    }
    for shard in v.get("shards").and_then(Value::items).unwrap_or(&[]) {
        let signals = shard.get("signals").and_then(Value::items).unwrap_or(&[]);
        let parts: Vec<String> = signals
            .iter()
            .map(|sig| format!("{}={}", word(sig, "name"), num(sig, "value")))
            .collect();
        let (k, status) = (num(shard, "shard"), word(shard, "status"));
        let _ = writeln!(s, "shard {k} [{status}] {}", parts.join(" "));
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
    let (dur, burn, alerts) = (num(&v, "dur_us"), num(&v, "burn"), num(&v, "alerts"));
    let _ = writeln!(s, "tick {seq}: interval {dur}us, burn {burn}, {alerts} alert(s)");
    let histograms = v.path("delta.histograms").and_then(Value::entries).unwrap_or(&[]);
    let verbs: Vec<_> = histograms
        .iter()
        .filter_map(|(name, h)| Some((names::label(name, names::REQUEST_US)?, h)))
        .collect();
    if !verbs.is_empty() {
        let _ = writeln!(
            s,
            "  {:<10} {:>8} {:>10} {:>10} {:>10}",
            "verb", "count", "p50_us", "p99_us", "max_us"
        );
    }
    for (verb, h) in verbs {
        let (count, p50, p99, max) = (num(h, "count"), num(h, "p50"), num(h, "p99"), num(h, "max"));
        let _ = writeln!(s, "  {verb:<10} {count:>8} {p50:>10} {p99:>10} {max:>10}");
    }
    let counters = v.path("delta.counters").and_then(Value::entries).unwrap_or(&[]);
    let mut shards: std::collections::BTreeMap<&str, [u64; 2]> = Default::default();
    for (name, value) in counters {
        for (i, family) in [names::SHARD_PREPARE, names::SHARD_COMMIT].into_iter().enumerate() {
            if let Some(shard) = names::label(name, family) {
                shards.entry(shard).or_default()[i] += value.as_u64().unwrap_or(0);
            }
        }
    }
    for (shard, [prepares, commits]) in &shards {
        let _ = writeln!(s, "  {shard}: prepares={prepares} commits={commits}");
    }
    s
}
