//! The untraced run: boots the real server, drives it over loopback TCP
//! from one closed-loop client connection, checks every reply against
//! the mirror model, and derives the end-to-end metrics.
//!
//! One connection, closed loop, on purpose: writes serialise on one
//! mutex, so a single connection already measures service time, and a
//! reader thread beside a writer thread on two shared vCPUs is what made
//! an earlier attempt at this benchmark unrepeatable. Concurrent clients
//! and an open-loop generator belong with request-level scheduling.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bschema_core::journal::shard_journal_path;
use bschema_core::legality::LegalityChecker;
use bschema_core::paper::white_pages_schema;
use bschema_core::ManagedDirectory;
use bschema_directory::ldif;
use bschema_server::{Client, ClientError, DirectoryService, Server, ServerConfig, ServerHandle};

use crate::calib::{self, Kind, Slowdown, Witness};
use crate::gen::{
    fnv1a, Base, Script, SearchKind, SearchOp, WriteExpect, WriteKind, WriteOp, GROUP,
};
use crate::spec::Workload;
use crate::stats::median;

/// Measured rounds per run, each `--seconds / ROUNDS` long, after one
/// warm-up round of the same length.
pub const ROUNDS: usize = 10;
/// A measured round never ends before this many [`GROUP`]s of cycles.
/// A group holds one write of each of the rarer classes, so the ten
/// rounds collect at least [`MIN_SAMPLES`] samples of every latency
/// however slow a cycle is. On `large-50k` (≈0.25 s per cycle) this
/// floor, not `--seconds`, sets a round's length below `--seconds 20`.
/// More would cost `large-50k` 2 s per sample and run, which the 70 runs
/// of the driver's budget do not have on a slow day (see the README).
pub const MIN_ROUND_GROUPS: u64 = 1;
/// Samples every end-to-end latency is taken over, at least.
pub const MIN_SAMPLES: usize = ROUNDS * MIN_ROUND_GROUPS as usize;
/// Cold boots timed per run, at least; `setup_s` is their median.
pub const BOOTS: usize = 3;
/// Restarts timed per run, at least (6 s each on `large-50k`).
pub const RESTARTS: usize = 2;
/// … and as many more of either as fit into this many seconds: a
/// `small-2k` boot takes 40 ms and a `sharded-20k` restart 1.3 s, and
/// the median of seventy or of three of them costs less than one boot of
/// `large-50k`.
pub const BOOT_SECONDS: f64 = 3.0;
/// Committed writes between the CHECKPOINT and the shutdown: the
/// journal tail every restart replays.
pub const TAIL_WRITES: usize = 16;
/// Script cycles hashed into the reported script fingerprint.
pub const FINGERPRINT_CYCLES: usize = 256;

/// A request class: one latency series each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Insert,
    Delete,
    Cross,
    CrossDelete,
    Modify,
    Reject,
    AfterWrite,
    Eq,
    Subtree,
    Page,
}

const CLASSES: usize = 10;

impl Class {
    fn of_write(kind: WriteKind) -> Class {
        match kind {
            WriteKind::Insert => Class::Insert,
            WriteKind::Delete => Class::Delete,
            WriteKind::Cross => Class::Cross,
            WriteKind::CrossDelete => Class::CrossDelete,
            WriteKind::Modify => Class::Modify,
            WriteKind::Reject => Class::Reject,
        }
    }

    fn of_search(kind: SearchKind) -> Class {
        match kind {
            SearchKind::AfterWrite => Class::AfterWrite,
            SearchKind::Eq => Class::Eq,
            SearchKind::Subtree => Class::Subtree,
            SearchKind::Page => Class::Page,
        }
    }

    /// The witness the class is calibrated against: what a hundred-entry
    /// reply costs is building and framing it (cpu); everything else is
    /// O(|D|) work on the directory — copies, renumbering, unindexed
    /// scans (mem).
    fn witness(self) -> Kind {
        match self {
            Class::Subtree | Class::Page => Kind::Cpu,
            _ => Kind::Mem,
        }
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Length of the measured rounds together.
    pub seconds: f64,
    /// Scratch directory for journals, checkpoints and the trace file.
    pub dir: PathBuf,
    /// Test hook: expect one hit too many from the first search of this
    /// cycle, so the accounting can be shown to notice a wrong answer.
    pub corrupt_cycle: Option<u64>,
}

/// Running count of checked requests.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one checked outcome; unexpected ones are reported once each
    /// on stderr (the first few) and counted as failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("dirbench: unexpected outcome: {why}");
            }
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Reported {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value; 0 when not counted (per-layer rows).
    pub samples: usize,
    /// For a calibrated time: the same statistic of the samples as the
    /// clock gave them.
    pub measured: Option<f64>,
}

/// The result of one run, traced or not.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Reported>,
    pub base_fnv: u64,
    pub script_fnv: u64,
}

/// A booted server with its one client connection.
pub struct Booted {
    pub handle: ServerHandle,
    pub client: Client,
    /// `ldif::load` to first PING.
    pub boot_s: f64,
}

/// Boots the service exactly as `bschema serve` does — load the base
/// LDIF, build the (sharded) managed directory with its consistency and
/// full legality check, attach the journal (recovering whatever it and
/// its checkpoint hold), spawn the server — and pings it once. Monitor,
/// trace and recorder stay off; the journal keeps the service's own
/// flush policy (`sync_data` per append, two appends per commit).
pub fn boot(workload: &Workload, base_ldif: &str, journal: &Path) -> Result<Booted, String> {
    let started = Instant::now();
    let instance = ldif::load(base_ldif).map_err(|e| format!("loading the base: {e}"))?;
    let schema = white_pages_schema();
    let service = if workload.shards > 1 {
        DirectoryService::new_sharded(schema, instance, workload.shards)
            .map_err(|e| format!("sharding the base: {e}"))?
    } else {
        let managed = ManagedDirectory::with_instance(schema, instance)
            .map_err(|e| format!("checking the base: {e}"))?;
        DirectoryService::new(managed)
    };
    let (mut service, _) =
        service.with_journal(journal).map_err(|e| format!("attaching the journal: {e}"))?;
    if let Some(every) = workload.checkpoint_every {
        service = service.with_checkpoint_every(every);
    }
    let config = ServerConfig { threads: 2, ..ServerConfig::default() };
    let handle = Server::spawn(Arc::new(service), config)
        .map_err(|e| format!("spawning the server: {e}"))?;
    let mut client = Client::connect(handle.addr()).map_err(|e| format!("connecting: {e}"))?;
    client.ping().map_err(|e| format!("first PING: {e}"))?;
    Ok(Booted { handle, client, boot_s: started.elapsed().as_secs_f64() })
}

impl Booted {
    /// Closes the connection, stops the server and joins its threads.
    pub fn shutdown(self) {
        let _ = self.client.unbind();
        self.handle.shutdown();
        self.handle.wait();
    }
}

/// The journal files behind `journal` for this workload's backend.
fn journal_files(workload: &Workload, journal: &Path) -> Vec<PathBuf> {
    if workload.shards > 1 {
        (0..workload.shards).map(|k| shard_journal_path(journal, k)).collect()
    } else {
        vec![journal.to_owned()]
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map(|m| m.len()).unwrap_or(0)
}

/// Checks a write's reply against what the mirror expects.
fn check_write(
    op: &WriteOp,
    reply: &Result<(usize, usize, usize), ClientError>,
) -> Result<(), String> {
    let what = || format!("{:?} {:?}", op.kind, op.body.lines().next().unwrap_or(""));
    match (&op.expect, reply) {
        (WriteExpect::Committed { ops, len, shards }, Ok(got)) => {
            if (*ops, *len, *shards) == *got {
                Ok(())
            } else {
                Err(format!("{}: receipt {got:?}, expected ({ops}, {len}, {shards})", what()))
            }
        }
        (WriteExpect::Modified { len }, Ok((_, got, _))) => {
            if len == got {
                Ok(())
            } else {
                Err(format!("{}: modified len {got}, expected {len}", what()))
            }
        }
        (WriteExpect::Rejected { code }, Err(e)) if e.server_code() == Some(code) => Ok(()),
        (expect, Ok(got)) => Err(format!("{}: got {got:?}, expected {expect:?}", what())),
        (expect, Err(e)) => Err(format!("{}: {e}, expected {expect:?}", what())),
    }
}

/// Checks a search reply: hit count, and the line a MODIFY just wrote.
fn check_search(
    op: &SearchOp,
    expect_hits: usize,
    reply: &Result<String, ClientError>,
) -> Result<(), String> {
    let ldif = reply.as_ref().map_err(|e| format!("{:?} {}: {e}", op.kind, op.filter))?;
    let hits = ldif.lines().filter(|l| l.starts_with("dn: ")).count();
    if hits != expect_hits {
        return Err(format!("{:?} {}: {hits} hits, expected {expect_hits}", op.kind, op.filter));
    }
    match &op.expect_line {
        Some(line) if !ldif.lines().any(|l| l == line) => {
            Err(format!("{:?} {}: reply lacks {line:?}", op.kind, op.filter))
        }
        _ => Ok(()),
    }
}

/// Latency samples of the measured rounds.
#[derive(Debug, Default)]
pub struct Recording {
    /// Per measured round, per class: calibrated latencies in ms.
    rounds: Vec<[Vec<f64>; CLASSES]>,
    /// Per class: the same samples as measured, in ms.
    measured: [Vec<f64>; CLASSES],
    /// The samples of the group in progress, as measured.
    group: Vec<(Class, f64)>,
    /// The host's slowdown after every group.
    slowdowns: Vec<Slowdown>,
}

impl Recording {
    fn add(&mut self, class: Class, ms: f64) {
        self.group.push((class, ms));
    }

    /// Ends a group: every sample of it is divided by the host's
    /// slowdown — the mean of the class's witness `before` and `after`
    /// the group, a tenth of a second apart on `small-2k` — and filed.
    fn close_group(&mut self, before: Slowdown, after: Slowdown) {
        let round = self.rounds.last_mut().expect("a round is open");
        for (class, ms) in self.group.drain(..) {
            let slowdown = (before.of(class.witness()) + after.of(class.witness())) / 2.0;
            round[class as usize].push(ms / slowdown);
            self.measured[class as usize].push(ms);
        }
        self.slowdowns.push(after);
    }

    /// The medians of the cpu and the mem witness's slowdown over the
    /// recorded groups.
    pub fn slowdown(&self) -> (f64, f64) {
        let of = |kind| median(&self.slowdowns.iter().map(|s| s.of(kind)).collect::<Vec<_>>());
        (of(Kind::Cpu), of(Kind::Mem))
    }

    /// All samples of `class` over the measured rounds as measured, in ms.
    pub fn all(&self, class: Class) -> Vec<f64> {
        self.measured[class as usize].clone()
    }

    /// The p50 of `class` over all calibrated samples.
    fn p50(&self, name: &'static str, class: Class) -> Reported {
        let all: Vec<f64> =
            self.rounds.iter().flat_map(|r| r[class as usize].iter().copied()).collect();
        Reported {
            name,
            value: median(&all),
            unit: "ms",
            samples: all.len(),
            measured: Some(median(&self.measured[class as usize])),
        }
    }

    /// Requests of `classes` per second of their own calibrated service
    /// time: the median over the rounds of count ÷ Σ latencies in the
    /// round, and the requests counted. Service time, not wall time, so the
    /// generator's own work between requests does not dilute it; every
    /// round holds whole [`GROUP`]s, so every round mixes the classes
    /// alike.
    fn rate(&self, name: &'static str, classes: &[Class]) -> Reported {
        let of_round = |round: &[Vec<f64>; CLASSES]| {
            let picked = || classes.iter().flat_map(|c| round[*c as usize].iter());
            (picked().count(), picked().sum::<f64>() / 1e3)
        };
        let per_round: Vec<f64> = self
            .rounds
            .iter()
            .map(of_round)
            .map(|(count, seconds)| count as f64 / seconds)
            .collect();
        Reported {
            name,
            value: median(&per_round),
            unit: "1/s",
            samples: self.rounds.iter().map(|r| of_round(r).0).sum(),
            measured: None,
        }
    }
}

/// The classes behind `txn_per_s` (committed TXN + MODIFY) and
/// `search_per_s` (all five searches of a cycle).
const COMMITTED: [Class; 5] =
    [Class::Insert, Class::Delete, Class::Cross, Class::CrossDelete, Class::Modify];
const SEARCHES: [Class; 4] = [Class::AfterWrite, Class::Eq, Class::Subtree, Class::Page];

/// The load generator: one connection, the script, and the accounting.
pub struct Driver {
    pub client: Client,
    pub script: Script,
    pub tally: Tally,
    journals: Vec<PathBuf>,
    journal_lens: Vec<u64>,
    /// While recording: Σ positive journal-file length deltas, and the
    /// committed writes they are spread over.
    journal_growth: (u64, u64),
    /// Writes during which a journal file shrank — a checkpoint campaign
    /// ran inside the request — with their latency in ms.
    pub campaign_writes: Vec<(Class, f64)>,
    corrupt_cycle: Option<u64>,
    witness: Witness,
    /// The last witness sample and the script cycle it was taken at.
    last_slowdown: Option<(u64, Slowdown)>,
}

impl Driver {
    pub fn new(
        client: Client,
        script: Script,
        witness: Witness,
        cfg: &RunConfig,
        journal: &Path,
    ) -> Driver {
        let journals = journal_files(cfg.workload, journal);
        let journal_lens = journals.iter().map(|p| file_len(p)).collect();
        Driver {
            client,
            script,
            tally: Tally::default(),
            journals,
            journal_lens,
            journal_growth: (0, 0),
            campaign_writes: Vec::new(),
            corrupt_cycle: cfg.corrupt_cycle,
            witness,
            last_slowdown: None,
        }
    }

    /// Sends one write and checks its reply. Returns its latency in ms.
    fn write(&mut self, op: &WriteOp) -> f64 {
        let started = Instant::now();
        let reply = if op.kind == WriteKind::Modify {
            self.client.modify_lines(&op.body).map(|len| (0, len, 0))
        } else {
            self.client.apply_ldif(&op.body).map(|r| (r.ops, r.len, r.shards))
        };
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.tally.check(check_write(op, &reply));
        ms
    }

    /// Runs one cycle; with `rec`, its latencies are recorded.
    fn cycle(&mut self, mut rec: Option<&mut Recording>) {
        let corrupt = self.corrupt_cycle == Some(self.script.cycles());
        let cycle = self.script.next_cycle();
        let ms = self.write(&cycle.write);
        let class = Class::of_write(cycle.write.kind);
        if let Some(rec) = rec.as_deref_mut() {
            rec.add(class, ms);
        }
        if cycle.write.commits() {
            // Outside the timed section: how much journal the commit
            // wrote. A file that shrank was truncated by a checkpoint
            // campaign that ran inside this very request.
            let (mut grew, mut shrank) = (0, false);
            for (path, before) in self.journals.iter().zip(&mut self.journal_lens) {
                let now = file_len(path);
                grew += now.saturating_sub(*before);
                shrank |= now < *before;
                *before = now;
            }
            if shrank {
                self.campaign_writes.push((class, ms));
            }
            if rec.is_some() {
                self.journal_growth.0 += grew;
                self.journal_growth.1 += 1;
            }
        }
        for (i, search) in cycle.searches.iter().enumerate() {
            let started = Instant::now();
            let reply =
                self.client.search(search.base.as_deref(), "sub", &search.filter, search.limit);
            let ms = started.elapsed().as_secs_f64() * 1e3;
            let expect_hits = search.expect_hits + usize::from(corrupt && i == 0);
            self.tally.check(check_search(search, expect_hits, &reply));
            if let Some(rec) = rec.as_deref_mut() {
                rec.add(Class::of_search(search.kind), ms);
            }
        }
    }

    /// Runs one round: whole [`GROUP`]s of cycles until `seconds` have
    /// passed. With `rec`, the round is recorded as a new round of it,
    /// does not end before [`MIN_ROUND_GROUPS`] are done, and the
    /// witnesses run between the groups (outside every timed request).
    pub fn round(&mut self, seconds: f64, mut rec: Option<&mut Recording>) {
        if let Some(rec) = rec.as_deref_mut() {
            rec.rounds.push(Default::default());
        }
        let min_groups = if rec.is_some() { MIN_ROUND_GROUPS } else { 1 };
        let started = Instant::now();
        let mut groups = 0;
        while groups < min_groups || started.elapsed().as_secs_f64() < seconds {
            // The sample that ended the previous group, unless requests
            // have run since.
            let before = match (rec.is_some(), self.last_slowdown) {
                (false, _) => None,
                (true, Some((at, slowdown))) if at == self.script.cycles() => Some(slowdown),
                (true, _) => Some(self.witness.sample()),
            };
            for _ in 0..GROUP {
                self.cycle(rec.as_deref_mut());
            }
            groups += 1;
            if let (Some(rec), Some(before)) = (rec.as_deref_mut(), before) {
                let after = self.witness.sample();
                rec.close_group(before, after);
                self.last_slowdown = Some((self.script.cycles(), after));
            }
        }
    }

    /// One warm-up round, then [`ROUNDS`] recorded ones, `seconds`
    /// together.
    pub fn measure(&mut self, seconds: f64) -> Recording {
        let round = seconds / ROUNDS as f64;
        self.round(round, None);
        let mut rec = Recording::default();
        for _ in 0..ROUNDS {
            self.round(round, Some(&mut rec));
        }
        rec
    }

    /// Sends the script's next writes, without their searches, until
    /// `commits` of them have committed.
    fn commit_writes(&mut self, commits: usize) {
        let mut committed = 0;
        while committed < commits {
            let op = self.script.next_cycle().write;
            self.write(&op);
            committed += usize::from(op.commits());
        }
    }
}

/// Resets the process's peak-RSS counter, so `VmHWM` afterwards is the
/// peak of what follows (base generation and the boot excluded). Needs
/// Linux ≥ 4.0; elsewhere the peak simply covers the whole process.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `body` with `cfg.dir` created, and removes it afterwards
/// whatever the outcome.
pub fn in_scratch_dir<T>(
    cfg: &RunConfig,
    body: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    std::fs::create_dir_all(&cfg.dir).map_err(|e| format!("creating {:?}: {e}", cfg.dir))?;
    let outcome = body();
    let _ = std::fs::remove_dir_all(&cfg.dir);
    outcome
}

/// Boots on `journal_of(i)` and shuts down again, `at_least` times and
/// then until [`BOOT_SECONDS`] have passed, the load witness running
/// before the first boot and after every one; `inspect` sees each
/// booted instance after its boot was timed. Reports the median of the
/// boot times in s, each divided by the mean slowdown of the load
/// witness either side of it, and the median of those slowdowns.
fn timed_boots(
    name: &'static str,
    wl: &Workload,
    base_ldif: &str,
    at_least: usize,
    journal_of: impl Fn(usize) -> PathBuf,
    mut inspect: impl FnMut(usize, &Booted),
) -> Result<(Reported, f64), String> {
    let slowdown = || calib::load_us(base_ldif) / wl.nominal_load_us;
    let started = Instant::now();
    let (mut calibrated, mut measured, mut slowdowns) = (Vec::new(), Vec::new(), Vec::new());
    let mut before = slowdown();
    while measured.len() < at_least || started.elapsed().as_secs_f64() < BOOT_SECONDS {
        let booted = boot(wl, base_ldif, &journal_of(measured.len()))?;
        inspect(measured.len(), &booted);
        let boot_s = booted.boot_s;
        booted.shutdown();
        let after = slowdown();
        slowdowns.push((before + after) / 2.0);
        calibrated.push(boot_s / ((before + after) / 2.0));
        measured.push(boot_s);
        before = after;
    }
    let reported = Reported {
        name,
        value: median(&calibrated),
        unit: "s",
        samples: measured.len(),
        measured: Some(median(&measured)),
    };
    Ok((reported, median(&slowdowns)))
}

/// The untraced run. Fails (without a result) only when the benchmark
/// itself cannot run — a boot or the socket failing; wrong answers are
/// counted, not fatal.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    in_scratch_dir(cfg, || measure_end_to_end(cfg))
}

fn measure_end_to_end(cfg: &RunConfig) -> Result<RunResult, String> {
    let wl = cfg.workload;
    let base = Base::generate(wl.orgs);
    let base_fnv = fnv1a(base.ldif.as_bytes());
    let script_fnv = Script::fingerprint(&base, wl.shards, cfg.seed, FINGERPRINT_CYCLES);

    // The served instance. Its boot is the discarded one: the first in
    // the process, it alone pays for fetching the heap from the system.
    let journal = cfg.dir.join("served.journal");
    let Booted { handle, client, boot_s: first_boot_s } = boot(wl, &base.ldif, &journal)?;
    let witness = Witness::new(&base.ldif, wl.nominal_mem_us);
    let script = Script::new(&base, wl.shards, cfg.seed);
    let mut driver = Driver::new(client, script, witness, cfg, &journal);
    reset_peak_rss();
    let rec = driver.measure(cfg.seconds);
    let rss_peak_mb = peak_rss_mb();
    let (journal_bytes, journal_commits) = driver.journal_growth;

    // What a restart recovers from: a checkpoint and a journal tail of
    // `TAIL_WRITES` commits (refused writes in between leave the
    // uncommitted records a recovery must discard).
    driver
        .tally
        .check(driver.client.checkpoint().map(|_| ()).map_err(|e| format!("CHECKPOINT: {e}")));
    driver.commit_writes(TAIL_WRITES);
    let Driver { client, script, mut tally, .. } = driver;
    let shut_down = handle.service().snapshot().canonical_bytes();
    tally.check(if script.entries() == handle.service().len() {
        Ok(())
    } else {
        Err(format!("|D| is {}, the mirror says {}", handle.service().len(), script.entries()))
    });
    Booted { handle, client, boot_s: 0.0 }.shutdown();

    // Restarts through the service's own recovery path (`with_journal`:
    // checkpoint restore + tail replay), then cold boots on fresh
    // journals. Both after the rounds, so what they leave on the heap
    // cannot touch a measured request.
    let (restart_s, load_restarts) = timed_boots(
        "restart_s",
        wl,
        &base.ldif,
        RESTARTS,
        |_| journal.clone(),
        |i, restarted| {
            if i > 0 {
                return;
            }
            let recovered = restarted.handle.service().snapshot();
            tally.check(if recovered.canonical_bytes() == shut_down {
                Ok(())
            } else {
                Err("the recovered directory differs from the one shut down".to_owned())
            });
            let report = LegalityChecker::new(&white_pages_schema()).check(&recovered);
            tally.check(if report.is_legal() {
                Ok(())
            } else {
                Err(format!("the recovered directory is illegal:\n{report}"))
            });
        },
    )?;
    let (setup_s, load_boots) = timed_boots(
        "setup_s",
        wl,
        &base.ldif,
        BOOTS,
        |i| cfg.dir.join(format!("cold{i}.journal")),
        |_, _| (),
    )?;
    let (cpu, mem) = rec.slowdown();
    eprintln!(
        "dirbench: first boot {first_boot_s:.3} s; witness time / nominal: cpu x{cpu:.3} and mem x{mem:.3} over the rounds, load x{load_restarts:.3} over the restarts and x{load_boots:.3} over the cold boots"
    );

    let metrics = vec![
        setup_s,
        rec.rate("txn_per_s", &COMMITTED),
        rec.p50("txn_insert_p50_ms", Class::Insert),
        rec.p50("txn_delete_p50_ms", Class::Delete),
        rec.p50("txn_cross_p50_ms", Class::Cross),
        rec.p50("txn_reject_p50_ms", Class::Reject),
        rec.p50("modify_p50_ms", Class::Modify),
        rec.rate("search_per_s", &SEARCHES),
        rec.p50("search_eq_p50_ms", Class::Eq),
        rec.p50("search_subtree_p50_ms", Class::Subtree),
        rec.p50("search_page_p50_ms", Class::Page),
        rec.p50("search_after_write_p50_ms", Class::AfterWrite),
        restart_s,
        Reported {
            name: "rss_peak_mb",
            value: rss_peak_mb,
            unit: "MB",
            samples: 1,
            measured: None,
        },
        Reported {
            name: "journal_bytes_per_tx",
            value: journal_bytes as f64 / journal_commits as f64,
            unit: "B",
            samples: journal_commits as usize,
            measured: None,
        },
    ];
    Ok(RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        base_fnv,
        script_fnv,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_group_is_calibrated_by_its_class_witness_either_side_of_it() {
        let mut rec = Recording::default();
        rec.rounds.push(Default::default());
        rec.add(Class::Insert, 9.0);
        rec.add(Class::Page, 3.0);
        rec.close_group(Slowdown { cpu: 1.0, mem: 2.0 }, Slowdown { cpu: 2.0, mem: 4.0 });
        let insert = rec.p50("txn_insert_p50_ms", Class::Insert);
        assert_eq!((insert.value, insert.measured, insert.samples), (3.0, Some(9.0), 1));
        let page = rec.p50("search_page_p50_ms", Class::Page);
        assert_eq!((page.value, page.measured), (2.0, Some(3.0)));
        // Rates are of calibrated service time: 1 write in 3 ms.
        assert_eq!(rec.rate("txn_per_s", &COMMITTED).value, 1e3 / 3.0);
        assert_eq!(rec.all(Class::Insert), [9.0]);
        assert_eq!(rec.slowdown(), (2.0, 4.0));
    }
}
