//! # bschema-faults
//!
//! Deterministic fault injection for the bounding-schema engines.
//!
//! The instrumentation sites PR 2 threaded through the legality,
//! consistency, query, and managed-update engines double as *fault
//! sites*: every `Probe` call marks a point where real deployments can
//! fail (an allocation inside a content check, a worker thread dying
//! mid-chunk, a crash between mutation and verdict). [`FaultPlan`]
//! wraps any inner [`Probe`] and panics at a chosen site, which lets
//! the chaos suite in `crates/workload` drive every reachable site to
//! failure and assert the atomicity invariant behind Theorem 4.1: a
//! transaction either commits to a certified-legal state or leaves the
//! instance byte-identical to its pre-transaction snapshot.
//!
//! Plans are deterministic: [`FaultPlan::fail_nth`] fires at the Nth
//! probe event (events are counted in program order wherever the
//! legality engine runs inline — every check of fewer than two
//! `bschema_parallel::GRAIN`s of entries), [`FaultPlan::fail_at_site`]
//! fires at the k-th visit of a named site, and [`nth_from_seed`] maps
//! an arbitrary seed to an event ordinal so CI can replay a failure from
//! its logged seed (within one build: ordinals move when the events an
//! engine emits change). Every plan
//! fires **at most once** — after the injected panic is caught and the
//! operation retried (a fanned-out check degrades a dead worker's chunk
//! to a retry on the caller's thread), the same site passes, modelling a
//! transient fault.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once};

use bschema_obs::{Probe, SpanId, NO_SPAN};

/// Marker embedded in every injected panic payload. [`is_injected_panic`]
/// and the panic-hook silencer key off it.
pub const INJECTED_FAULT_MARKER: &str = "injected fault";

/// When a [`FaultPlan`] fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultMode {
    /// Never fire — count events and sites only (dry run / site census).
    Observe,
    /// Panic at the Nth probe event, zero-based, at most once.
    Nth(u64),
    /// Panic at the `occurrence`-th visit (zero-based) of the named
    /// site, at most once.
    AtSite {
        /// Site name, e.g. `managed.tx_applied` or `span:legality.check`.
        site: String,
        /// Zero-based visit index at which to fire.
        occurrence: u64,
    },
}

/// A deterministic fault-injection probe.
///
/// `FaultPlan` implements [`Probe`]; hand it to any engine that accepts
/// one (`with_probe`) and it panics with a payload containing
/// [`INJECTED_FAULT_MARKER`] when its [`FaultMode`] matches. All other
/// traffic is forwarded to the optional inner probe, so a run can be
/// traced *and* faulted at once.
///
/// Site naming: counter and histogram sites use their metric key
/// (labeled counters use `key.label`), span-open sites use
/// `span:<name>`. `span_end` is intentionally not a fault site — it
/// does not count as an event and never fires — so injected panics
/// always unwind *out of* open spans, matching how real faults strike
/// mid-operation.
pub struct FaultPlan {
    mode: FaultMode,
    armed: AtomicBool,
    events: AtomicU64,
    injected: AtomicU64,
    sites: Mutex<BTreeMap<String, u64>>,
    inner: Option<Arc<dyn Probe + Send + Sync>>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("mode", &self.mode)
            .field("events", &self.events.load(Ordering::SeqCst))
            .field("injected", &self.injected.load(Ordering::SeqCst))
            .field("has_inner", &self.inner.is_some())
            .finish()
    }
}

impl FaultPlan {
    fn with_mode(mode: FaultMode) -> Self {
        FaultPlan {
            mode,
            armed: AtomicBool::new(true),
            events: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            sites: Mutex::new(BTreeMap::new()),
            inner: None,
        }
    }

    /// A plan that never fires: counts events and sites, so a dry run
    /// enumerates every injectable site of a workload.
    pub fn observer() -> Self {
        FaultPlan::with_mode(FaultMode::Observe)
    }

    /// A plan that panics at the `n`-th probe event (zero-based).
    pub fn fail_nth(n: u64) -> Self {
        FaultPlan::with_mode(FaultMode::Nth(n))
    }

    /// A plan that panics the `occurrence`-th time the named site is
    /// visited (zero-based).
    pub fn fail_at_site(site: impl Into<String>, occurrence: u64) -> Self {
        FaultPlan::with_mode(FaultMode::AtSite { site: site.into(), occurrence })
    }

    /// Forward all probe traffic to `inner` as well (e.g. a
    /// `bschema_obs::Recorder`, so a faulted run still produces metrics;
    /// the `faults.injected` counter is forwarded before the panic).
    pub fn with_inner(mut self, inner: Arc<dyn Probe + Send + Sync>) -> Self {
        self.inner = Some(inner);
        self
    }

    /// The plan's mode.
    pub fn mode(&self) -> &FaultMode {
        &self.mode
    }

    /// Total probe events seen so far (spans opened + counters +
    /// histogram observations; `span_end` excluded).
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::SeqCst)
    }

    /// How many faults this plan has injected (0 or 1).
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    /// Per-site visit counts, deterministically ordered by site name.
    pub fn sites(&self) -> BTreeMap<String, u64> {
        self.sites.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Counts one event at `site` and panics if the plan says so.
    fn touch(&self, site: &str) {
        let event = self.events.fetch_add(1, Ordering::SeqCst);
        let occurrence = {
            let mut sites = self.sites.lock().unwrap_or_else(|e| e.into_inner());
            let count = sites.entry(site.to_string()).or_insert(0);
            *count += 1;
            *count - 1
        };
        let matches = match &self.mode {
            FaultMode::Observe => false,
            FaultMode::Nth(n) => event == *n,
            FaultMode::AtSite { site: wanted, occurrence: wanted_occ } => {
                site == wanted && occurrence == *wanted_occ
            }
        };
        if matches && self.armed.swap(false, Ordering::SeqCst) {
            self.injected.fetch_add(1, Ordering::SeqCst);
            if let Some(inner) = &self.inner {
                inner.add("faults.injected", 1);
            }
            panic!("{INJECTED_FAULT_MARKER} #{event} at {site}");
        }
    }
}

impl Probe for FaultPlan {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, key: &str, by: u64) {
        self.touch(key);
        if let Some(inner) = &self.inner {
            inner.add(key, by);
        }
    }

    fn add_labeled(&self, key: &str, label: &str, by: u64) {
        self.touch(&format!("{key}.{label}"));
        if let Some(inner) = &self.inner {
            inner.add_labeled(key, label, by);
        }
    }

    fn observe(&self, key: &str, value: u64) {
        self.touch(key);
        if let Some(inner) = &self.inner {
            inner.observe(key, value);
        }
    }

    fn span_start(&self, parent: SpanId, name: &'static str, ord: u64) -> SpanId {
        self.touch(&format!("span:{name}"));
        match &self.inner {
            Some(inner) => inner.span_start(parent, name, ord),
            None => NO_SPAN,
        }
    }

    fn span_end(&self, span: SpanId) {
        if let Some(inner) = &self.inner {
            inner.span_end(span);
        }
    }
}

/// Whether a caught panic payload came from a [`FaultPlan`].
pub fn is_injected_panic(payload: &(dyn std::any::Any + Send)) -> bool {
    panic_message(payload).is_some_and(|m| m.contains(INJECTED_FAULT_MARKER))
}

/// Extracts the human-readable message from a panic payload, if it is a
/// string (all `panic!("...")` payloads are).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> Option<&str> {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        Some(s)
    } else {
        payload.downcast_ref::<String>().map(String::as_str)
    }
}

/// Maps an arbitrary seed to an event ordinal in `[0, horizon)` with a
/// splitmix64 step — so a chaos run can derive its injection point from
/// a logged CI seed and be replayed exactly.
pub fn nth_from_seed(seed: u64, horizon: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    if horizon == 0 {
        0
    } else {
        z % horizon
    }
}

/// Picks one `(site, occurrence)` injection point from an
/// [`FaultPlan::observer`] census, deterministically from `seed`,
/// restricted to sites whose name starts with `prefix` (`""` for all).
/// Both the site and the visit index are seed-derived, so a CI job that
/// logs its seed can replay the exact injection. Returns `None` when no
/// site matches the prefix.
pub fn site_from_seed(
    sites: &BTreeMap<String, u64>,
    prefix: &str,
    seed: u64,
) -> Option<(String, u64)> {
    let matching: Vec<(&String, &u64)> =
        sites.iter().filter(|(name, _)| name.starts_with(prefix)).collect();
    if matching.is_empty() {
        return None;
    }
    let (site, &visits) = matching[nth_from_seed(seed, matching.len() as u64) as usize];
    let occurrence = nth_from_seed(seed.wrapping_add(1), visits.max(1));
    Some((site.clone(), occurrence))
}

static SILENCE: Once = Once::new();

/// Installs (once per process) a panic hook that suppresses the default
/// "thread panicked" stderr spam for *injected* panics while leaving
/// every other panic's output untouched. Chaos suites inject hundreds
/// of panics; without this the test log is unreadable.
pub fn silence_injected_panics() {
    SILENCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected =
                panic_message(info.payload()).is_some_and(|m| m.contains(INJECTED_FAULT_MARKER));
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn observer_counts_events_and_sites() {
        let plan = FaultPlan::observer();
        plan.add("a", 1);
        plan.add("a", 1);
        plan.observe("h", 7);
        plan.add_labeled("rule", "path", 1);
        let s = plan.span_start(NO_SPAN, "root", 0);
        plan.span_end(s);
        assert_eq!(plan.events(), 5);
        assert_eq!(plan.injected(), 0);
        let sites = plan.sites();
        assert_eq!(sites.get("a"), Some(&2));
        assert_eq!(sites.get("h"), Some(&1));
        assert_eq!(sites.get("rule.path"), Some(&1));
        assert_eq!(sites.get("span:root"), Some(&1));
    }

    #[test]
    fn nth_fires_exactly_once_then_passes() {
        silence_injected_panics();
        let plan = FaultPlan::fail_nth(1);
        plan.add("a", 1); // event 0: passes
        let err = catch_unwind(AssertUnwindSafe(|| plan.add("b", 1))).unwrap_err();
        assert!(is_injected_panic(err.as_ref()));
        assert_eq!(plan.injected(), 1);
        // Retry: same site, plan disarmed — must pass.
        plan.add("b", 1);
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn at_site_fires_on_requested_occurrence() {
        silence_injected_panics();
        let plan = FaultPlan::fail_at_site("span:check", 1);
        plan.span_start(NO_SPAN, "check", 0); // occurrence 0: passes
        let err =
            catch_unwind(AssertUnwindSafe(|| plan.span_start(NO_SPAN, "check", 1))).unwrap_err();
        assert!(is_injected_panic(err.as_ref()));
        let msg = panic_message(err.as_ref()).unwrap();
        assert!(msg.contains("span:check"), "{msg}");
    }

    #[test]
    fn forwards_to_inner_probe_including_injected_counter() {
        silence_injected_panics();
        let recorder = Arc::new(bschema_obs::Recorder::new());
        let plan = FaultPlan::fail_nth(2).with_inner(recorder.clone());
        plan.add("a", 3);
        plan.observe("h", 5);
        let _ = catch_unwind(AssertUnwindSafe(|| plan.add("boom", 1)));
        assert_eq!(recorder.metrics().counter("a"), 3);
        assert_eq!(recorder.metrics().counter("faults.injected"), 1);
        // The faulted event itself is recorded only after the fault
        // check — the panic preempts the forward, like a real crash.
        assert_eq!(recorder.metrics().counter("boom"), 0);
    }

    #[test]
    fn site_from_seed_is_deterministic_and_prefix_scoped() {
        let mut sites = BTreeMap::new();
        sites.insert("server.request".to_owned(), 10);
        sites.insert("server.tx_admitted".to_owned(), 4);
        sites.insert("legality.entries_content_checked".to_owned(), 7);
        for seed in [0u64, 1, 42, 803845] {
            let (site, occ) = site_from_seed(&sites, "server.", seed).expect("prefix matches");
            assert!(site.starts_with("server."), "{site}");
            assert!(occ < sites[&site]);
            assert_eq!(site_from_seed(&sites, "server.", seed), Some((site, occ)));
        }
        assert!(site_from_seed(&sites, "nothing.", 7).is_none());
        assert!(site_from_seed(&BTreeMap::new(), "", 7).is_none());
    }

    #[test]
    fn seed_mapping_is_deterministic_and_in_range() {
        for seed in [0u64, 1, 42, u64::MAX] {
            let a = nth_from_seed(seed, 100);
            let b = nth_from_seed(seed, 100);
            assert_eq!(a, b);
            assert!(a < 100);
        }
        assert_eq!(nth_from_seed(7, 0), 0);
    }
}
