//! A small synchronous client for the wire protocol — the counterpart
//! of [`crate::server`], used by the loopback test-suite, the
//! `bschema client` CLI subcommand, and the throughput benchmark.
//!
//! Every method is one request/response exchange on the connection;
//! server-side refusals come back as [`ClientError::Server`] with the
//! stable wire code, so callers can distinguish "the transaction was
//! rejected as illegal" from "the socket broke".

use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::codec::{read_frame, write_frame, Frame, WireError, WireLimits};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(io::Error),
    /// A frame could not be read or written.
    Wire(WireError),
    /// The server answered `ERR <code>`.
    Server {
        /// The stable wire code (`busy`, `illegal-instance`, …).
        code: String,
        /// The human-readable detail payload.
        detail: String,
    },
    /// The server answered something the client cannot interpret.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server { code, detail } if detail.is_empty() => {
                write!(f, "server refused: {code}")
            }
            ClientError::Server { code, detail } => write!(f, "server refused: {code}: {detail}"),
            ClientError::Protocol(why) => write!(f, "protocol confusion: {why}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl ClientError {
    /// The server's refusal code, when this is a refusal.
    pub fn server_code(&self) -> Option<&str> {
        match self {
            ClientError::Server { code, .. } => Some(code),
            _ => None,
        }
    }
}

/// What a committed `TXN` reported back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxReceipt {
    /// Operations applied.
    pub ops: usize,
    /// Directory size after the commit.
    pub len: usize,
    /// Shards the commit touched — 1 on a single-engine server (and
    /// when talking to an older server that omits the token), > 1 when
    /// the transaction took the cross-shard 2-phase path.
    pub shards: usize,
}

/// One connection to a bschema server.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    limits: WireLimits,
    trace_label: Option<String>,
    trace_seq: u64,
}

impl Client {
    /// Connects, with sensible read/write timeouts (5s each).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.set_write_timeout(Some(Duration::from_secs(5)))?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: stream,
            limits: WireLimits::default(),
            trace_label: None,
            trace_seq: 0,
        })
    }

    /// Enables trace-context stamping: every subsequent request carries
    /// a `tc=<label>-<seq>.0` header token, with `seq` a per-connection
    /// counter — deterministic, so tests can pin the exact ids a traced
    /// server will report back through its `TRACE` verb.
    pub fn with_trace_label(mut self, label: impl Into<String>) -> Self {
        self.trace_label = Some(label.into());
        self
    }

    /// The trace id the **next** stamped request will carry, or `None`
    /// when stamping is off.
    pub fn next_trace_id(&self) -> Option<String> {
        self.trace_label.as_ref().map(|label| format!("{label}-{}", self.trace_seq))
    }

    /// One request/response round trip. Returns the whole `OK` frame;
    /// `ERR` frames become [`ClientError::Server`].
    fn exchange(&mut self, tokens: &[&str], payload: &[u8]) -> Result<Frame, ClientError> {
        let stamp = self.next_trace_id().map(|id| bschema_obs::TraceContext::new(id).wire_token());
        let mut stamped: Vec<&str> = tokens.to_vec();
        if let Some(token) = &stamp {
            self.trace_seq += 1;
            stamped.push(token.as_str());
        }
        write_frame(&mut self.writer, &stamped, payload)?;
        let frame = read_frame(&mut self.reader, &self.limits)?
            .ok_or_else(|| ClientError::Protocol("server closed without responding".to_owned()))?;
        match frame.verb() {
            "OK" => Ok(frame),
            "ERR" => Err(ClientError::Server {
                code: frame.arg(1).unwrap_or("unknown").to_owned(),
                detail: frame.payload_str().unwrap_or("").to_owned(),
            }),
            other => Err(ClientError::Protocol(format!("unexpected status {other:?}"))),
        }
    }

    /// `BIND <name>`.
    pub fn bind(&mut self, name: &str) -> Result<(), ClientError> {
        self.exchange(&["BIND", name], b"").map(|_| ())
    }

    /// `PING` — returns the directory size.
    pub fn ping(&mut self) -> Result<usize, ClientError> {
        let frame = self.exchange(&["PING"], b"")?;
        parse_count(&frame, 2, "pong")
    }

    /// `SEARCH` — returns the matching entries as LDIF text.
    pub fn search(
        &mut self,
        base: Option<&str>,
        scope: &str,
        filter: &str,
        limit: Option<usize>,
    ) -> Result<String, ClientError> {
        let mut body = String::new();
        if let Some(base) = base {
            body.push_str(&format!("base: {base}\n"));
        }
        body.push_str(&format!("filter: {filter}\n"));
        if let Some(limit) = limit {
            body.push_str(&format!("limit: {limit}\n"));
        }
        let frame = self.exchange(&["SEARCH", scope], body.as_bytes())?;
        Ok(frame.payload_str()?.to_owned())
    }

    /// `TXN` — submits an LDIF change body as one atomic transaction.
    pub fn apply_ldif(&mut self, ldif: &str) -> Result<TxReceipt, ClientError> {
        let frame = self.exchange(&["TXN"], ldif.as_bytes())?;
        Ok(TxReceipt {
            ops: parse_count(&frame, 2, "committed")?,
            len: parse_count(&frame, 3, "committed")?,
            shards: frame.arg(4).and_then(|s| s.parse().ok()).unwrap_or(1),
        })
    }

    /// `MODIFY` — submits a pre-formatted modification body (`dn:` plus
    /// `add:`/`deletevalue:`/`deleteattr:`/`replace:` lines). Returns
    /// the directory size.
    pub fn modify_lines(&mut self, body: &str) -> Result<usize, ClientError> {
        let frame = self.exchange(&["MODIFY"], body.as_bytes())?;
        parse_count(&frame, 2, "modified")
    }

    /// `SEARCH ... explain` — EXPLAIN for a search: returns the result
    /// count and the evaluation-plan JSON instead of the entries.
    pub fn search_explain(
        &mut self,
        base: Option<&str>,
        scope: &str,
        filter: &str,
        limit: Option<usize>,
    ) -> Result<(usize, String), ClientError> {
        let mut body = String::new();
        if let Some(base) = base {
            body.push_str(&format!("base: {base}\n"));
        }
        body.push_str(&format!("filter: {filter}\n"));
        if let Some(limit) = limit {
            body.push_str(&format!("limit: {limit}\n"));
        }
        let frame = self.exchange(&["SEARCH", scope, "explain"], body.as_bytes())?;
        Ok((parse_count(&frame, 2, "explain")?, frame.payload_str()?.to_owned()))
    }

    /// `METRICS` — the server's registry (counters and histograms) as
    /// one JSON line.
    pub fn metrics_json(&mut self) -> Result<String, ClientError> {
        let frame = self.exchange(&["METRICS"], b"")?;
        Ok(frame.payload_str()?.to_owned())
    }

    /// `TRACE` — the server's flight-recorder buffer (most recent +
    /// slowest completed request span trees) as one JSON line.
    pub fn trace_json(&mut self) -> Result<String, ClientError> {
        let frame = self.exchange(&["TRACE"], b"")?;
        Ok(frame.payload_str()?.to_owned())
    }

    /// `METRICS prom` — the registry in Prometheus-style text
    /// exposition.
    pub fn metrics_prom(&mut self) -> Result<String, ClientError> {
        let frame = self.exchange(&["METRICS", "prom"], b"")?;
        Ok(frame.payload_str()?.to_owned())
    }

    /// `HEALTH` — the server's aggregated health verdict as one JSON
    /// object.
    pub fn health_json(&mut self) -> Result<String, ClientError> {
        let frame = self.exchange(&["HEALTH"], b"")?;
        Ok(frame.payload_str()?.to_owned())
    }

    /// `CHECKPOINT` — forces a checkpoint + journal-truncate cycle.
    /// Returns the covered journal seq per shard.
    pub fn checkpoint(&mut self) -> Result<Vec<u64>, ClientError> {
        let frame = self.exchange(&["CHECKPOINT"], b"")?;
        let list = frame.arg(2).ok_or_else(|| {
            ClientError::Protocol(format!("malformed checkpoint response: {:?}", frame.tokens))
        })?;
        list.split(',')
            .map(|s| {
                s.parse::<u64>().map_err(|_| {
                    ClientError::Protocol(format!("bad checkpoint seq {s:?} in {list:?}"))
                })
            })
            .collect()
    }

    /// `SHIP` — bootstraps replication: returns the primary's fresh
    /// checkpoint as `(covered_seq, next_tx, encoded checkpoint)`.
    pub fn ship_bootstrap(&mut self) -> Result<(u64, u64, String), ClientError> {
        let frame = self.exchange(&["SHIP"], b"")?;
        let seq = parse_count(&frame, 2, "ship-ckpt")? as u64;
        let next_tx = parse_count(&frame, 3, "ship-ckpt")? as u64;
        Ok((seq, next_tx, frame.payload_str()?.to_owned()))
    }

    /// `SHIP <from-seq>` — ships the committed journal records from
    /// `from_seq` to the primary's cursor. Returns `(cursor, records)`;
    /// an empty record text means the follower is caught up. A server
    /// refusal with code `ship-gap` means the records were already
    /// compacted away — re-bootstrap.
    pub fn ship_tail(&mut self, from_seq: u64) -> Result<(u64, String), ClientError> {
        let frame = self.exchange(&["SHIP", &from_seq.to_string()], b"")?;
        let next = parse_count(&frame, 3, "ship")? as u64;
        Ok((next, frame.payload_str()?.to_owned()))
    }

    /// `WATCH <count>` — subscribes to the server's sampler stream and
    /// feeds each `TICK` frame `(seq, json)` to `on_tick` as it
    /// arrives. Returns the number of ticks received. `on_tick`
    /// returning `false` cancels the stream early (the connection is
    /// dropped — the server treats the hang-up as cancellation), so
    /// after an early cancel this client is consumed.
    pub fn watch(
        mut self,
        count: u64,
        mut on_tick: impl FnMut(u64, &str) -> bool,
    ) -> Result<usize, ClientError> {
        // Multi-frame verb: bypass `exchange` (one request, one reply).
        write_frame(&mut self.writer, &["WATCH", &count.to_string()], b"")?;
        let opening = read_frame(&mut self.reader, &self.limits)?
            .ok_or_else(|| ClientError::Protocol("server closed without responding".to_owned()))?;
        match (opening.verb(), opening.arg(1)) {
            ("OK", Some("watch")) => {}
            ("ERR", _) => {
                return Err(ClientError::Server {
                    code: opening.arg(1).unwrap_or("unknown").to_owned(),
                    detail: opening.payload_str().unwrap_or("").to_owned(),
                });
            }
            _ => {
                return Err(ClientError::Protocol(format!(
                    "unexpected watch opening: {:?}",
                    opening.tokens
                )))
            }
        }
        let mut received = 0usize;
        loop {
            // Ticks arrive once a second, well inside the connection's
            // 5s read budget per frame.
            let frame = read_frame(&mut self.reader, &self.limits)?
                .ok_or_else(|| ClientError::Protocol("server closed mid-watch".to_owned()))?;
            match frame.verb() {
                "TICK" => {
                    let seq =
                        frame.arg(1).and_then(|s| s.parse::<u64>().ok()).ok_or_else(|| {
                            ClientError::Protocol(format!("malformed TICK: {:?}", frame.tokens))
                        })?;
                    received += 1;
                    if !on_tick(seq, frame.payload_str()?) {
                        // Dropping the connection cancels server-side.
                        return Ok(received);
                    }
                }
                "OK" => return Ok(received),
                "ERR" => {
                    return Err(ClientError::Server {
                        code: frame.arg(1).unwrap_or("unknown").to_owned(),
                        detail: frame.payload_str().unwrap_or("").to_owned(),
                    })
                }
                other => {
                    return Err(ClientError::Protocol(format!("unexpected watch frame {other:?}")))
                }
            }
        }
    }

    /// `SCHEMA PROPOSE` — stages an evolution proposal. The payload is
    /// either a full schema-DSL replacement or a single
    /// `Evolution-step: <words>` line. Returns the proposal JSON.
    pub fn schema_propose(&mut self, payload: &str) -> Result<String, ClientError> {
        let frame = self.exchange(&["SCHEMA", "PROPOSE"], payload.as_bytes())?;
        Ok(frame.payload_str()?.to_owned())
    }

    /// `SCHEMA CHECK` — rechecks the staged proposal against a live
    /// snapshot, off the write path. Returns the recheck JSON; a
    /// refusal with code `schema-violates` carries the violation
    /// report naming the offending entries.
    pub fn schema_check(&mut self) -> Result<String, ClientError> {
        let frame = self.exchange(&["SCHEMA", "CHECK"], b"")?;
        Ok(frame.payload_str()?.to_owned())
    }

    /// `SCHEMA STATUS` — the current schema epoch, hash, and staged
    /// proposal (if any) as one JSON object.
    pub fn schema_status(&mut self) -> Result<String, ClientError> {
        let frame = self.exchange(&["SCHEMA", "STATUS"], b"")?;
        Ok(frame.payload_str()?.to_owned())
    }

    /// `SCHEMA COMMIT` — revalidates the staged proposal under the
    /// write lock and atomically cuts over to the new schema epoch.
    /// Returns the cutover JSON.
    pub fn schema_commit(&mut self) -> Result<String, ClientError> {
        let frame = self.exchange(&["SCHEMA", "COMMIT"], b"")?;
        Ok(frame.payload_str()?.to_owned())
    }

    /// `SCHEMA ABORT` — discards the staged proposal.
    pub fn schema_abort(&mut self) -> Result<String, ClientError> {
        let frame = self.exchange(&["SCHEMA", "ABORT"], b"")?;
        Ok(frame.payload_str()?.to_owned())
    }

    /// `SHUTDOWN` — asks the server to drain and exit.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.exchange(&["SHUTDOWN"], b"").map(|_| ())
    }

    /// `UNBIND` — closes the session politely.
    pub fn unbind(mut self) -> Result<(), ClientError> {
        self.exchange(&["UNBIND"], b"").map(|_| ())
    }
}

fn parse_count(frame: &Frame, arg: usize, what: &str) -> Result<usize, ClientError> {
    frame.arg(arg).and_then(|s| s.parse::<usize>().ok()).ok_or_else(|| {
        ClientError::Protocol(format!("malformed {what} response: {:?}", frame.tokens))
    })
}
