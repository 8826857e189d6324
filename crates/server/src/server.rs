//! The session/worker subsystem: TCP acceptor, bounded connection
//! queue, worker pool, and the per-session request loop.
//!
//! ## Verb table
//!
//! | request                                   | response                          |
//! |-------------------------------------------|-----------------------------------|
//! | `BIND <name>`                             | `OK bound <name>`                 |
//! | `PING`                                    | `OK pong <len>`                   |
//! | `SEARCH [base\|one\|sub] #n` + body       | `OK entries <n> #m` + LDIF        |
//! | `SEARCH [base\|one\|sub] explain #n` + body | `OK explain <n> #m` + plan JSON |
//! | `TXN #n` + LDIF changes                   | `OK committed <ops> <len> <shards>` |
//! | `MODIFY #n` + mod lines                   | `OK modified <len>`               |
//! | `METRICS`                                 | `OK metrics #n` + JSON            |
//! | `METRICS prom`                            | `OK metrics #n` + text exposition |
//! | `TRACE`                                   | `OK trace #n` + flight JSON       |
//! | `HEALTH`                                  | `OK health #n` + verdict JSON     |
//! | `WATCH [count]`                           | `OK watch <count> <interval_ms>`, then `TICK <seq> #n` frames, then `OK watch-end <streamed>` |
//! | `SCHEMA PROPOSE #n` + DSL or step         | `OK schema #m` + proposal JSON    |
//! | `SCHEMA CHECK`                            | `OK schema #m` + recheck JSON     |
//! | `SCHEMA STATUS`                           | `OK schema #m` + epoch JSON       |
//! | `SCHEMA COMMIT`                           | `OK schema #m` + cutover JSON     |
//! | `SCHEMA ABORT`                            | `OK schema #m` + abort JSON       |
//! | `CHECKPOINT`                              | `OK checkpointed <seq,...>`       |
//! | `SHIP`                                    | `OK ship-ckpt <seq> <next_tx> #n` + checkpoint text |
//! | `SHIP <from-seq>`                         | `OK ship <from> <next> #n` + journal records |
//! | `SHUTDOWN`                                | `OK bye` (then server drains)     |
//! | `UNBIND`                                  | `OK bye` (closes the session)     |
//!
//! `SEARCH` bodies are `key: value` lines — `filter:` (required),
//! `base:` and `limit:` (optional). `MODIFY` bodies are a `dn:` line
//! followed by `add:`/`deletevalue:`/`deleteattr:`/`replace:` lines.
//! Failures are `ERR <code> [#n]` with the detail as payload; codes are
//! stable (see [`crate::service::ServiceError`]).
//!
//! `CHECKPOINT` forces a checkpoint + journal-truncate cycle and
//! answers with the covered seq per shard. `SHIP` is the replication
//! protocol (journaled single-engine primaries only): with no argument
//! it captures and returns a fresh checkpoint for a follower to
//! bootstrap from; with a `from-seq` it returns the committed journal
//! records from that seq to the primary's cursor (possibly empty when
//! the follower is caught up). `ERR ship-gap` tells the follower its
//! cursor predates the retained journal — it must re-bootstrap.
//!
//! Any request may additionally carry a `tc=<trace-id>.<parent-span>`
//! header token (see [`bschema_obs::TraceContext`]): on a server started
//! with a flight recorder, the whole request — queue wait, journal
//! write, legality check, per-Δ-query spans — is collected as one span
//! tree under that id, retrievable via `TRACE`. `METRICS` dumps the
//! cumulative registry (counters **and** quantile histograms); the
//! activity of one interval is a `WATCH` tick.
//!
//! `SCHEMA` is the online evolution plane (see
//! [`crate::service::DirectoryService::schema_propose`]): `PROPOSE`
//! stages a full schema-DSL replacement or a single `Evolution-step:`
//! payload, `CHECK` rechecks a restricting proposal against a live
//! snapshot off the write path, `COMMIT` revalidates under the write
//! lock and atomically swaps the schema epoch (journaled as a schema
//! record on every shard), and `ABORT` discards the staged proposal.
//! Relaxing-only proposals (Definition 2.7) skip the recheck entirely.
//!
//! `METRICS`, `HEALTH` and `WATCH` need a metered service (see
//! [`DirectoryService::with_metrics`]); an unmetered one answers all
//! three `ERR unsupported`. `HEALTH` returns the aggregated per-shard
//! verdict JSON (see [`DirectoryService::health_json`]), and `WATCH`
//! turns the session into a bounded server-push stream — one `TICK`
//! frame per sampler tick until `count` frames have been streamed, the
//! client hangs up (cancellation), or the server shuts down. `METRICS
//! prom` renders the same registry in Prometheus-style text exposition
//! for scrape pipelines.
//!
//! ## Backpressure and shutdown
//!
//! The acceptor never blocks on workers: accepted sockets go into a
//! bounded queue, and when it is full the connection is answered
//! `ERR busy` and closed immediately — overload is visible to clients,
//! not an unbounded backlog. Shutdown is one [`Shutdown`] signal, fired
//! by [`ServerHandle::shutdown`] or the `SHUTDOWN` verb: the acceptor
//! (blocked in `accept`), the sampler, every `WATCH` stream and a
//! replica's ship loop wake on it. In-flight requests run to completion
//! (a committing transaction is never interrupted), queued-but-unserved
//! connections are answered `ERR shutting-down`, and the workers drain
//! and exit.
//!
//! A worker panic inside a request (including an injected fault) is
//! caught per-request: the session answers `ERR panicked` and carries
//! on. The directory itself is protected a layer below — see
//! [`crate::service`].

use std::collections::VecDeque;
use std::io::{self, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bschema_core::updates::Mod;
use bschema_obs::{names, MetricsRegistry, Probe};
use bschema_query::SearchScope;

use crate::codec::{read_frame, write_frame, Frame, WireError};
use crate::monitor::TICK;
use crate::service::{DirectoryService, ServiceError};

/// How long a session may sit silent, or stall a reply, before it is
/// disconnected — the read and the write timeout of every connection.
const SESSION_TIMEOUT: Duration = Duration::from_secs(10);

/// Tuning knobs for [`Server::spawn`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads serving sessions.
    pub threads: usize,
    /// Bounded depth of the accepted-connection queue; beyond it new
    /// connections are answered `ERR busy`.
    pub queue_depth: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { addr: "127.0.0.1:0".to_owned(), threads: 4, queue_depth: 64 }
    }
}

/// A bounded MPMC queue: non-blocking reject-on-full push (the
/// backpressure edge), blocking pop, and a close signal that wakes all
/// poppers once the remaining items drain.
#[derive(Debug)]
struct BoundedQueue<T> {
    inner: Mutex<QueueState<T>>,
    available: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueState { items: VecDeque::new(), closed: false }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues, or returns the item when the queue is full or closed.
    fn push(&self, item: T) -> Result<usize, T> {
        let mut state = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed || state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        let depth = state.items.len();
        self.available.notify_one();
        Ok(depth)
    }

    /// Blocks until an item is available or the queue is closed *and*
    /// drained.
    fn pop(&self) -> Option<T> {
        let mut state = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.available.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn close(&self) {
        let mut state = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        self.available.notify_all();
    }
}

/// A server's one shutdown signal. [`ServerHandle::shutdown`] and the
/// `SHUTDOWN` verb fire it; the acceptor, the sampler, every `WATCH`
/// stream and a replica's ship loop ([`crate::Follower::run`]) wait on
/// it instead of polling a flag.
#[derive(Debug)]
pub struct Shutdown {
    fired: AtomicBool,
    lock: Mutex<()>,
    changed: Condvar,
    /// The listener a fire connects to once, to wake an acceptor
    /// blocked in `accept`.
    wake: Option<SocketAddr>,
}

impl Shutdown {
    pub(crate) fn new(wake: Option<SocketAddr>) -> Self {
        Shutdown {
            fired: AtomicBool::new(false),
            lock: Mutex::new(()),
            changed: Condvar::new(),
            wake,
        }
    }

    /// Whether the signal has fired.
    pub fn is_fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// Blocks until the signal fires or `timeout` elapses; returns
    /// whether it has fired.
    pub fn wait(&self, timeout: Duration) -> bool {
        let held = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        let _held = self
            .changed
            .wait_timeout_while(held, timeout, |_| !self.is_fired())
            .unwrap_or_else(|e| e.into_inner());
        self.is_fired()
    }

    /// Fires the signal (once; later calls do nothing) and wakes every
    /// waiter, the acceptor included.
    pub(crate) fn fire(&self) {
        {
            let _held = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            if self.fired.swap(true, Ordering::SeqCst) {
                return;
            }
            self.changed.notify_all();
        }
        if let Some(wake) = self.wake {
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        }
    }
}

/// A running server. Obtained from [`Server::spawn`]; shut down via
/// [`ServerHandle::shutdown`] + [`ServerHandle::wait`] or remotely with
/// the `SHUTDOWN` verb.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<Shutdown>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    sampler: Option<JoinHandle<()>>,
    service: Arc<DirectoryService>,
}

impl ServerHandle {
    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service behind the server.
    pub fn service(&self) -> &Arc<DirectoryService> {
        &self.service
    }

    /// The shutdown signal, for threads that should stop with the server.
    pub fn signal(&self) -> Arc<Shutdown> {
        self.shutdown.clone()
    }

    /// Signals shutdown: the acceptor stops, workers drain. Does not
    /// block; follow with [`wait`](ServerHandle::wait).
    pub fn shutdown(&self) {
        self.shutdown.fire();
    }

    /// Joins the acceptor, every worker and the sampler, consuming the
    /// handle. The acceptor wakes on the shutdown signal and closes the
    /// queue, which releases the workers.
    pub fn wait(mut self) {
        let threads = self.acceptor.take().into_iter().chain(self.workers.drain(..));
        for thread in threads.chain(self.sampler.take()) {
            let _ = thread.join();
        }
    }
}

/// The server entry point.
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Binds `config.addr` and spawns the acceptor plus
    /// `config.threads` workers over `service`. Returns immediately.
    pub fn spawn(service: Arc<DirectoryService>, config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(Shutdown::new(Some(wake_addr(addr))));
        let queue = Arc::new(BoundedQueue::<(TcpStream, Instant)>::new(config.queue_depth));

        let mut workers = Vec::with_capacity(config.threads.max(1));
        for i in 0..config.threads.max(1) {
            let queue = queue.clone();
            let service = service.clone();
            let shutdown = shutdown.clone();
            workers.push(
                thread::Builder::new()
                    .name(format!("bschema-worker-{i}"))
                    .spawn(move || worker_loop(&queue, &service, &shutdown))?,
            );
        }

        let acceptor = {
            let queue = queue.clone();
            let service = service.clone();
            let shutdown = shutdown.clone();
            thread::Builder::new().name("bschema-acceptor".to_owned()).spawn(move || {
                accept_loop(&listener, &queue, &service, &shutdown);
                queue.close();
            })?
        };

        // The sampler behind `HEALTH`/`WATCH`, on a metered service
        // only: one tick per `TICK` until the shutdown signal fires, then
        // every watcher is woken to see it. A probe/fault panic inside a
        // tick must not kill the plane — the next tick simply runs.
        let sampler = match service.monitor() {
            Some(_) => {
                let service = service.clone();
                let shutdown = shutdown.clone();
                Some(thread::Builder::new().name("bschema-monitor".to_owned()).spawn(
                    move || {
                        loop {
                            let _ = catch_unwind(AssertUnwindSafe(|| service.monitor_tick()));
                            if shutdown.wait(TICK) {
                                break;
                            }
                        }
                        if let Some(monitor) = service.monitor() {
                            monitor.wake_watchers();
                        }
                    },
                )?)
            }
            None => None,
        };

        Ok(ServerHandle { addr, shutdown, acceptor: Some(acceptor), workers, sampler, service })
    }
}

/// Where a shutdown connects to wake the acceptor: the bound address,
/// with a wildcard IP replaced by the loopback of its family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

fn accept_loop(
    listener: &TcpListener,
    queue: &BoundedQueue<(TcpStream, Instant)>,
    service: &DirectoryService,
    shutdown: &Shutdown,
) {
    loop {
        // Blocks until a client connects; a shutdown wakes it with a
        // connection of its own.
        let accepted = listener.accept();
        if shutdown.is_fired() {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let _ = stream.set_read_timeout(Some(SESSION_TIMEOUT));
                let _ = stream.set_write_timeout(Some(SESSION_TIMEOUT));
                let _ = stream.set_nodelay(true);
                // Instrumentation faults must not kill the acceptor:
                // a dead acceptor turns a probe panic into a silent
                // refusal of all future connections.
                match queue.push((stream, Instant::now())) {
                    Ok(depth) => {
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            service.probe().observe(names::QUEUE_DEPTH, depth as u64);
                        }));
                    }
                    Err((mut stream, _)) => {
                        // Backpressure edge: refuse loudly, don't buffer.
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            service.probe().add("server.rejected_busy", 1);
                        }));
                        let _ = write_frame(&mut stream, &["ERR", "busy"], b"");
                    }
                }
            }
            // A failed accept (descriptors exhausted, say) is retried
            // after a pause that the shutdown signal cuts short.
            Err(_) => {
                shutdown.wait(Duration::from_millis(2));
            }
        }
    }
}

fn worker_loop(
    queue: &BoundedQueue<(TcpStream, Instant)>,
    service: &DirectoryService,
    shutdown: &Shutdown,
) {
    while let Some((stream, queued_at)) = queue.pop() {
        if shutdown.is_fired() {
            // Queued but never served: tell the client why.
            let mut stream = stream;
            let _ = write_frame(&mut stream, &["ERR", "shutting-down"], b"");
            continue;
        }
        // How long the connection sat in the accept queue before a
        // worker picked it up — attributed to the first request's trace.
        let queue_wait_us = queued_at.elapsed().as_micros() as u64;
        serve_session(stream, service, shutdown, queue_wait_us);
    }
}

/// What a handled frame asks the session loop to do next.
enum Control {
    Continue,
    CloseSession,
    ShutdownServer,
}

fn serve_session(
    stream: TcpStream,
    service: &DirectoryService,
    shutdown: &Shutdown,
    queue_wait_us: u64,
) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let wire = service.limits().wire;
    let mut queue_wait = Some(queue_wait_us);

    loop {
        // Drain in-flight work, then refuse new frames during shutdown.
        if shutdown.is_fired() {
            let _ = write_frame(&mut writer, &["ERR", "shutting-down"], b"");
            return;
        }
        let mut frame = match read_frame(&mut reader, &wire) {
            Ok(Some(frame)) => frame,
            Ok(None) => return,
            Err(e) if e.is_timeout() => {
                let _ = write_frame(&mut writer, &["ERR", "timeout"], b"");
                return;
            }
            Err(WireError::Io(_)) | Err(WireError::Truncated) => return,
            Err(e @ WireError::HeaderTooLong { .. })
            | Err(e @ WireError::PayloadTooLarge { .. }) => {
                // The oversize bytes are still in flight; reply and cut
                // the connection rather than resynchronise. The refusal
                // still shows up in the flight recorder: a terminated
                // request span carrying the rejection code.
                record_rejected_frame(service, "limit");
                let _ = write_frame(&mut writer, &["ERR", "limit"], e.to_string().as_bytes());
                return;
            }
            Err(e @ WireError::Malformed(_)) => {
                record_rejected_frame(service, "proto");
                let _ = write_frame(&mut writer, &["ERR", "proto"], e.to_string().as_bytes());
                return;
            }
        };

        // WATCH turns the session into a server-push stream; it needs
        // the writer, which handle_frame never sees, so it is dispatched
        // here ahead of the one-request/one-response path.
        if frame.verb() == "WATCH" {
            service.probe().add_labeled("server.request", "WATCH", 1);
            if handle_watch(service, &mut frame, &mut writer, shutdown) {
                continue;
            }
            return;
        }

        let started = Instant::now();
        let verb = frame.verb().to_owned();
        service.probe().add_labeled("server.request", &verb, 1);

        // Traced mode (flight recorder attached): open the request's
        // span root and attribute the connection's accept-queue wait to
        // its first request.
        let ctx = frame.take_trace_context();
        let trace = service.begin_trace("server.request");
        if let (Some(trace), Some(wait)) = (&trace, queue_wait.take()) {
            trace.note_wait("server.queue_wait", wait);
        }

        // The request's probe: its trace when traced, else the
        // service's own.
        let probe: &dyn Probe = match &trace {
            Some(trace) => trace.as_ref(),
            None => service.probe(),
        };

        // Per-request blast-radius: a panic (real bug or injected
        // fault) poisons nothing — the service's guarded paths have
        // already restored their state — so the session apologises and
        // keeps going.
        let outcome = catch_unwind(AssertUnwindSafe(|| handle_frame(service, &frame, probe)));
        let (response, control) = match outcome {
            Ok((response, control)) => (response, control),
            Err(payload) => {
                service.probe().add("server.request_panicked", 1);
                let detail = bschema_faults::panic_message(&payload).unwrap_or("worker panicked");
                (Response::err("panicked", detail), Control::Continue)
            }
        };

        // Request telemetry: the all-verbs histogram (scrape loops and
        // the bench harness key off it), a per-verb latency series, and
        // a per-rejection-code series for everything that wasn't OK.
        let status = match response.tokens.first().map(String::as_str) {
            Some("ERR") => response.tokens.get(1).map_or("error", String::as_str).to_owned(),
            _ => "ok".to_owned(),
        };
        let elapsed_us = started.elapsed().as_micros() as u64;
        service.probe().observe(names::REQUEST_MICROS, elapsed_us);
        service.probe().observe(&names::labeled(names::REQUEST_US, &verb), elapsed_us);
        if status != "ok" {
            service.probe().observe(&names::labeled(names::REJECTED_US, &status), elapsed_us);
        }
        if let (Some(trace), Some(flight)) = (&trace, service.flight()) {
            let (root, dur_us) = trace.finish();
            let trace_id = ctx.as_ref().map_or("unstamped", |c| c.trace_id.as_str());
            flight.record(trace_id, &verb, &status, dur_us, root);
        }

        if !response.write_to(&mut writer) {
            return;
        }

        match control {
            Control::Continue => {}
            Control::CloseSession => return,
            Control::ShutdownServer => {
                shutdown.fire();
                return;
            }
        }
    }
}

/// Flight-records a frame the codec refused before it ever became a
/// request: a terminated `server.request` span with the rejection code
/// as its status, so wire-limit violations are visible in `TRACE`
/// output and not just as a closed socket.
fn record_rejected_frame(service: &DirectoryService, code: &str) {
    let (Some(trace), Some(flight)) = (service.begin_trace("server.request"), service.flight())
    else {
        return;
    };
    let (root, dur_us) = trace.finish();
    flight.record("unstamped", "-", code, dur_us, root);
}

struct Response {
    tokens: Vec<String>,
    payload: Vec<u8>,
}

impl Response {
    fn ok(tokens: &[&str]) -> Self {
        let mut all = vec!["OK".to_owned()];
        all.extend(tokens.iter().map(|s| (*s).to_owned()));
        Response { tokens: all, payload: Vec::new() }
    }

    fn ok_payload(tokens: &[&str], payload: impl Into<Vec<u8>>) -> Self {
        let mut r = Response::ok(tokens);
        r.payload = payload.into();
        r
    }

    fn err(code: &str, detail: &str) -> Self {
        Response {
            tokens: vec!["ERR".to_owned(), code.to_owned()],
            payload: detail.as_bytes().to_vec(),
        }
    }

    /// The one refusal of a telemetry verb (`METRICS`, `HEALTH`,
    /// `WATCH`) on a service built without
    /// [`with_metrics`](DirectoryService::with_metrics).
    fn unmetered() -> Self {
        Response::err("unsupported", "this service keeps no metrics registry")
    }

    /// Writes the response as one frame; `false` when the peer is gone.
    fn write_to(&self, writer: &mut impl Write) -> bool {
        let tokens: Vec<&str> = self.tokens.iter().map(String::as_str).collect();
        write_frame(writer, &tokens, &self.payload).is_ok()
    }
}

impl From<ServiceError> for Response {
    fn from(e: ServiceError) -> Self {
        Response::err(e.code, &e.detail)
    }
}

fn handle_frame(
    service: &DirectoryService,
    frame: &Frame,
    probe: &dyn Probe,
) -> (Response, Control) {
    match frame.verb() {
        "BIND" => {
            let who = frame.arg(1).unwrap_or("anonymous");
            (Response::ok(&["bound", who]), Control::Continue)
        }
        "PING" => {
            let len = service.len().to_string();
            (Response::ok(&["pong", &len]), Control::Continue)
        }
        "SEARCH" => (handle_search(service, frame, probe), Control::Continue),
        "TXN" => {
            let response = match frame.payload_str() {
                Ok(ldif) => match service.apply_ldif_tx_traced(ldif, probe) {
                    // The trailing token is the shard count the commit
                    // touched (1 on a single-engine server); older
                    // clients ignore it.
                    Ok(outcome) => Response::ok(&[
                        "committed",
                        &outcome.ops.to_string(),
                        &outcome.len.to_string(),
                        &outcome.shards.to_string(),
                    ]),
                    Err(e) => e.into(),
                },
                Err(e) => Response::err("proto", &e.to_string()),
            };
            (response, Control::Continue)
        }
        "MODIFY" => (handle_modify(service, frame, probe), Control::Continue),
        "SCHEMA" => (handle_schema(service, frame), Control::Continue),
        "CHECKPOINT" => (handle_checkpoint(service), Control::Continue),
        "SHIP" => (handle_ship(service, frame), Control::Continue),
        "METRICS" => (handle_metrics(service, frame), Control::Continue),
        "TRACE" => (handle_trace(service), Control::Continue),
        "HEALTH" => {
            let health = service.health_json().map(|json| Response::ok_payload(&["health"], json));
            (health.unwrap_or_else(Response::unmetered), Control::Continue)
        }
        "SHUTDOWN" => (Response::ok(&["bye"]), Control::ShutdownServer),
        "UNBIND" => (Response::ok(&["bye"]), Control::CloseSession),
        other => {
            (Response::err("proto", &format!("unknown verb {other:?}")), Control::CloseSession)
        }
    }
}

fn handle_search(service: &DirectoryService, frame: &Frame, probe: &dyn Probe) -> Response {
    let scope = match frame.arg(1).map_or(Ok(SearchScope::Subtree), str::parse::<SearchScope>) {
        Ok(scope) => scope,
        Err(e) => return Response::err("usage", &e),
    };
    let explain = match frame.arg(2) {
        None => false,
        Some("explain") => true,
        Some(other) => return Response::err("usage", &format!("unknown search flag {other:?}")),
    };
    let body = match frame.payload_str() {
        Ok(body) => body,
        Err(e) => return Response::err("proto", &e.to_string()),
    };
    let mut base = None;
    let mut filter = None;
    let mut limit = None;
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some((key, value)) = line.split_once(':') else {
            return Response::err("usage", &format!("expected `key: value`, got {line:?}"));
        };
        let value = value.trim();
        match key.trim() {
            "base" => base = Some(value.to_owned()),
            "filter" => filter = Some(value.to_owned()),
            "limit" => match value.parse::<usize>() {
                Ok(n) => limit = Some(n),
                Err(_) => return Response::err("usage", &format!("bad limit {value:?}")),
            },
            other => return Response::err("usage", &format!("unknown search key {other:?}")),
        }
    }
    let Some(filter) = filter else {
        return Response::err("usage", "search body needs a `filter:` line");
    };
    if explain {
        return match service.search_explain(base.as_deref(), scope, &filter, limit) {
            Ok((n, json)) => Response::ok_payload(&["explain", &n.to_string()], json.into_bytes()),
            Err(e) => e.into(),
        };
    }
    match service.search_traced(base.as_deref(), scope, &filter, limit, probe) {
        Ok((n, ldif)) => Response::ok_payload(&["entries", &n.to_string()], ldif.into_bytes()),
        Err(e) => e.into(),
    }
}

fn handle_modify(service: &DirectoryService, frame: &Frame, probe: &dyn Probe) -> Response {
    let body = match frame.payload_str() {
        Ok(body) => body,
        Err(e) => return Response::err("proto", &e.to_string()),
    };
    let mut dn = None;
    let mut mods: Vec<Mod> = Vec::new();
    // `replace:` lines for the same attribute accumulate into one
    // multi-valued Replace.
    let mut replacing: Option<(String, Vec<String>)> = None;
    let flush_replace = |replacing: &mut Option<(String, Vec<String>)>, mods: &mut Vec<Mod>| {
        if let Some((attribute, values)) = replacing.take() {
            mods.push(Mod::Replace { attribute, values });
        }
    };
    for line in body.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Some((op, rest)) = line.split_once(':') else {
            return Response::err("usage", &format!("expected `op: ...`, got {line:?}"));
        };
        let rest = rest.trim();
        let attr_value = || -> Option<(String, String)> {
            rest.split_once(':').map(|(a, v)| (a.trim().to_owned(), v.trim().to_owned()))
        };
        match op.trim() {
            "dn" => dn = Some(rest.to_owned()),
            "add" => {
                flush_replace(&mut replacing, &mut mods);
                let Some((attribute, value)) = attr_value() else {
                    return Response::err("usage", &format!("add needs `attr: value`: {line:?}"));
                };
                mods.push(Mod::Add { attribute, value });
            }
            "deletevalue" => {
                flush_replace(&mut replacing, &mut mods);
                let Some((attribute, value)) = attr_value() else {
                    return Response::err(
                        "usage",
                        &format!("deletevalue needs `attr: value`: {line:?}"),
                    );
                };
                mods.push(Mod::DeleteValue { attribute, value });
            }
            "deleteattr" => {
                flush_replace(&mut replacing, &mut mods);
                mods.push(Mod::DeleteAttribute { attribute: rest.to_owned() });
            }
            "replace" => {
                let Some((attribute, value)) = attr_value() else {
                    return Response::err(
                        "usage",
                        &format!("replace needs `attr: value`: {line:?}"),
                    );
                };
                match &mut replacing {
                    Some((current, values)) if *current == attribute => {
                        values.push(value);
                    }
                    _ => {
                        flush_replace(&mut replacing, &mut mods);
                        replacing = Some((attribute, vec![value]));
                    }
                }
            }
            other => return Response::err("usage", &format!("unknown modify op {other:?}")),
        }
    }
    flush_replace(&mut replacing, &mut mods);
    let Some(dn) = dn else {
        return Response::err("usage", "modify body needs a `dn:` line");
    };
    if mods.is_empty() {
        return Response::err("usage", "modify body has no modification lines");
    }
    match service.modify_traced(&dn, &mods, probe) {
        Ok(outcome) => Response::ok(&["modified", &outcome.len.to_string()]),
        Err(e) => e.into(),
    }
}

/// `SCHEMA <PROPOSE|CHECK|STATUS|COMMIT|ABORT>` — the online schema
/// evolution plane. `PROPOSE` carries the proposal in the payload
/// (evolution steps or a full schema-DSL document); the other
/// subcommands take no payload. Every response carries a JSON body.
fn handle_schema(service: &DirectoryService, frame: &Frame) -> Response {
    let sub = frame.arg(1).unwrap_or("");
    let result = match sub.to_ascii_uppercase().as_str() {
        "PROPOSE" => match frame.payload_str() {
            Ok(payload) => service.schema_propose(payload),
            Err(e) => return Response::err("proto", &e.to_string()),
        },
        "CHECK" => service.schema_check(),
        "STATUS" => Ok(service.schema_status()),
        "COMMIT" => service.schema_commit(),
        "ABORT" => service.schema_abort(),
        other => {
            return Response::err(
                "usage",
                &format!("unknown SCHEMA subcommand {other:?}; expected PROPOSE, CHECK, STATUS, COMMIT or ABORT"),
            )
        }
    };
    match result {
        Ok(body) => Response::ok_payload(&["schema"], body.into_bytes()),
        Err(e) => e.into(),
    }
}

fn handle_checkpoint(service: &DirectoryService) -> Response {
    match service.checkpoint_now() {
        Ok(seqs) => {
            let list = seqs.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
            Response::ok(&["checkpointed", &list])
        }
        Err(e) => e.into(),
    }
}

fn handle_ship(service: &DirectoryService, frame: &Frame) -> Response {
    match frame.arg(1) {
        // Bootstrap: a fresh checkpoint of the committed state.
        None => match service.ship_bootstrap() {
            Ok((seq, next_tx, text)) => Response::ok_payload(
                &["ship-ckpt", &seq.to_string(), &next_tx.to_string()],
                text.into_bytes(),
            ),
            Err(e) => e.into(),
        },
        // Tail: the committed journal records from the follower's cursor.
        Some(arg) => {
            let from_seq = match arg.parse::<u64>() {
                Ok(n) => n,
                Err(_) => return Response::err("usage", &format!("bad from-seq {arg:?}")),
            };
            match service.ship_tail(from_seq) {
                Ok((next, text)) => Response::ok_payload(
                    &["ship", &from_seq.to_string(), &next.to_string()],
                    text.into_bytes(),
                ),
                Err(e) => e.into(),
            }
        }
    }
}

fn handle_metrics(service: &DirectoryService, frame: &Frame) -> Response {
    let render = match frame.arg(1) {
        None => MetricsRegistry::to_json,
        Some("prom") => MetricsRegistry::render_prom,
        Some(other) => return Response::err("usage", &format!("unknown metrics mode {other:?}")),
    };
    match service.metrics() {
        Some(registry) => Response::ok_payload(&["metrics"], render(registry)),
        None => Response::unmetered(),
    }
}

/// Serves a `WATCH` stream: `OK watch <count> <interval_ms>`, then one
/// `TICK <seq>` frame per sampler tick, then `OK watch-end <streamed>`.
/// Every watcher reads the same published ticks, so one tick's delta
/// reaches each of them once. Returns whether the session survives. A
/// failed `TICK` write means the watcher hung up — that is how a stream
/// is cancelled — and a watcher too slow to drain its socket is cut by
/// the write timeout, so a stalled client never wedges a worker or
/// buffers unboundedly.
fn handle_watch(
    service: &DirectoryService,
    frame: &mut Frame,
    writer: &mut TcpStream,
    shutdown: &Shutdown,
) -> bool {
    // A stamped trace token would otherwise be mistaken for the count.
    let _ = frame.take_trace_context();
    let Some(monitor) = service.monitor() else {
        return Response::unmetered().write_to(writer);
    };
    let count = match frame.arg(1) {
        None => 60u64,
        Some(raw) => match raw.parse::<u64>() {
            Ok(n) if (1..=100_000).contains(&n) => n,
            _ => {
                let detail = format!("bad watch count {raw:?} (1..=100000)");
                return Response::err("usage", &detail).write_to(writer);
            }
        },
    };
    let interval_ms = TICK.as_millis().to_string();
    if !Response::ok(&["watch", &count.to_string(), &interval_ms]).write_to(writer) {
        return false;
    }
    // Stream only ticks published after the subscription started.
    let mut last_seq = monitor.latest_seq();
    let mut streamed = 0u64;
    while streamed < count {
        let Some((seq, json)) = monitor.wait_for_tick(last_seq, shutdown) else {
            let _ = write_frame(writer, &["ERR", "shutting-down"], b"");
            return false;
        };
        last_seq = seq;
        if write_frame(writer, &["TICK", &seq.to_string()], json.as_bytes()).is_err() {
            service.probe().add("server.watch_cancelled", 1);
            return false;
        }
        streamed += 1;
    }
    Response::ok(&["watch-end", &streamed.to_string()]).write_to(writer)
}

fn handle_trace(service: &DirectoryService) -> Response {
    match service.trace_json() {
        Some(json) => Response::ok_payload(&["trace"], json.into_bytes()),
        None => Response::err("unsupported", "server started without --trace"),
    }
}
