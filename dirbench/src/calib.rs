//! Calibrated time: how fast the host is running *right now*, measured
//! beside every group of requests and every boot, so that a latency can
//! be reported at the host's nominal speed.
//!
//! The benchmark runs on two vCPUs of a shared host whose speed moves by
//! 30–50% for seconds to minutes at a time — pure-CPU code and
//! memory-bound code alike, not always together. Wall-clock figures of
//! the *same* build then spread by 15–45% over ten runs, more than any
//! bound a gate could use. A run cannot wait the neighbours out, but it
//! can time a fixed piece of work of its own next to each piece of the
//! server's: both slow down together, their ratio does not.
//!
//! Three witnesses, each a frozen miniature of one kind of work the
//! served directory does, on data of the workload's own size:
//!
//! * **cpu** — formats a hundred LDIF records into a buffer, splits them
//!   into lines and hashes keys and values: cache-resident, allocation
//!   free after the first call. What building and framing a reply costs
//!   (`subtree`, `page`).
//! * **mem** — clones and drops a *shadow* of the base directory: one
//!   heap node per entry holding its DN, children and attribute strings,
//!   |D| of them. What every write does several times over (rollback
//!   copy, publish copy) and what an unindexed scan walks: O(|D|)
//!   pointer-chasing through the allocator, in cache at 2k entries and
//!   in DRAM at 50k.
//! * **load** — parses the base LDIF text into such a shadow: what a
//!   boot does before anything else.
//!
//! This file is the benchmark's yardstick. Changing what a witness does
//! changes every calibrated figure: treat it as frozen, and re-record the
//! nominal times in `spec.rs` and the baseline if it ever must change.

use std::fmt::Write as _;
use std::time::Instant;

use crate::gen::fnv1a;

/// The cpu witness's time on a quiet host, in µs (the mem and load
/// witnesses scale with |D|; their nominal times are per workload).
pub const NOMINAL_CPU_US: f64 = 380.0;

/// One entry of the shadow directory. Only ever built, copied and
/// dropped: nothing reads the fields.
#[derive(Clone)]
#[allow(dead_code)]
struct Node {
    dn: String,
    children: Vec<u32>,
    attrs: Vec<(String, Vec<String>)>,
}

/// Parses LDIF text into shadow nodes, four children to a node.
fn shadow(ldif: &str) -> Vec<Node> {
    let mut nodes: Vec<Node> = Vec::new();
    for record in ldif.split("\n\n") {
        let mut lines = record.lines();
        let Some(dn) = lines.next().and_then(|l| l.strip_prefix("dn: ")) else { continue };
        let mut attrs: Vec<(String, Vec<String>)> = Vec::new();
        for line in lines {
            let Some((name, value)) = line.split_once(": ") else { continue };
            match attrs.iter_mut().find(|(n, _)| n == name) {
                Some((_, values)) => values.push(value.to_owned()),
                None => attrs.push((name.to_owned(), vec![value.to_owned()])),
            }
        }
        let id = nodes.len();
        if id > 0 {
            nodes[(id - 1) / 4].children.push(id as u32);
        }
        nodes.push(Node { dn: dn.to_owned(), children: Vec::new(), attrs });
    }
    nodes
}

fn us_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6
}

/// Which witness a request class is calibrated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cpu,
    Mem,
}

/// The witnesses' times at one moment, as shares of their nominal times:
/// 1.0 is the nominal host, 1.4 a host running 40% slower.
#[derive(Debug, Clone, Copy)]
pub struct Slowdown {
    pub cpu: f64,
    pub mem: f64,
}

impl Slowdown {
    pub fn of(self, kind: Kind) -> f64 {
        match kind {
            Kind::Cpu => self.cpu,
            Kind::Mem => self.mem,
        }
    }
}

/// The cpu and mem witnesses of one run.
pub struct Witness {
    nodes: Vec<Node>,
    buf: String,
    nominal_mem_us: f64,
}

impl Witness {
    /// Builds the shadow of `base_ldif`.
    pub fn new(base_ldif: &str, nominal_mem_us: f64) -> Witness {
        Witness { nodes: shadow(base_ldif), buf: String::new(), nominal_mem_us }
    }

    /// Runs the cpu witness; µs.
    pub fn cpu_us(&mut self) -> f64 {
        let started = Instant::now();
        let mut hash = 0u64;
        for rep in 0..10u64 {
            self.buf.clear();
            for i in 0..100u64 {
                let _ = write!(
                    self.buf,
                    "dn: uid=user{i},ou=unit{},o=org{rep}\nobjectClass: person\ncn: User {i}\nsn: Name{}\ntelephoneNumber: +1 555 {:04}\n\n",
                    i % 7,
                    i * 31 % 97,
                    i * 37 % 10000
                );
            }
            for line in self.buf.lines() {
                if let Some((name, value)) = line.split_once(": ") {
                    hash = hash.rotate_left(5) ^ fnv1a(name.as_bytes()) ^ fnv1a(value.as_bytes());
                }
            }
        }
        std::hint::black_box(hash);
        us_since(started)
    }

    /// Runs the mem witness; µs.
    pub fn mem_us(&self) -> f64 {
        let started = Instant::now();
        let copy = self.nodes.clone();
        drop(std::hint::black_box(copy));
        us_since(started)
    }

    /// Runs both witnesses.
    pub fn sample(&mut self) -> Slowdown {
        Slowdown { cpu: self.cpu_us() / NOMINAL_CPU_US, mem: self.mem_us() / self.nominal_mem_us }
    }
}

/// Runs the load witness on `base_ldif`; µs.
pub fn load_us(base_ldif: &str) -> f64 {
    let started = Instant::now();
    std::hint::black_box(shadow(base_ldif).len());
    us_since(started)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_shadow_holds_every_record_and_its_values() {
        let ldif = "dn: o=a\nobjectClass: organization\no: a\n\ndn: ou=b,o=a\nobjectClass: orgUnit\nobjectClass: top\nou: b\n";
        let nodes = shadow(ldif);
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].children, [1]);
        assert_eq!(nodes[1].dn, "ou=b,o=a");
        assert_eq!(
            nodes[1].attrs[0],
            ("objectClass".to_owned(), vec!["orgUnit".into(), "top".into()])
        );
        let mut witness = Witness::new(ldif, 1.0);
        assert!(witness.cpu_us() > 0.0 && witness.mem_us() > 0.0 && load_us(ldif) > 0.0);
    }
}
