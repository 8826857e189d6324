//! The deterministic input generator: the base directory, a mirror model
//! of the expected directory state, and the streamed op script.
//!
//! Every workload uses the same script shape. A *cycle* is one write
//! followed by five searches (`after_write`, `eq`, `subtree`, `page`,
//! `eq`); writes rotate through the 16 [`SLOTS`]. The script keeps a
//! mirror of what the directory must contain, so every op carries the
//! exact response the server owes it. Ops are produced one cycle at a
//! time — the generator's own memory stays small and constant however
//! long a run lasts.

use std::collections::{HashMap, VecDeque};

use bschema_core::sharded::shard_of_root_rdn;
use bschema_directory::{ldif, DirectoryInstance, Rdn};
use bschema_workload::multi_org_base;

/// Entries per generated organisation. Many small orgs, never one big
/// one: a single `OrgGenerator` org grows a chain whose depth is linear
/// in its size (its frontier is a stack) and passes the LDIF DN-depth
/// limit of 256 at ≈6k entries; 250-entry orgs stay at depth ≈22.
pub const ENTRIES_PER_ORG: usize = 250;

/// Persons (inclusive range) in the subtree of a unit that a `subtree`
/// search may be based at: about as many as a `page` search returns.
/// Between a leaf unit with one person and an org's top unit with 200
/// the reply size spans two orders of magnitude, and a p50 that sits on
/// so wide a distribution moves with the seed; and a reply of a dozen
/// entries takes 0.2 ms, of which the host adds or removes 0.05 ms to
/// 0.15 ms from one quarter of an hour to the next.
pub const SUBTREE_PERSONS: (usize, usize) = (90, 110);

/// SplitMix64 — small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a over bytes — the fingerprint printed for the base LDIF and the
/// op script so two runs can be shown to have had identical inputs.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[derive(Debug, Clone)]
struct Unit {
    dn: String,
    parent: Option<usize>,
    /// Person entries in this unit's subtree — the expected hit count of
    /// a `subtree` search based here.
    persons_below: usize,
}

#[derive(Debug, Clone)]
struct Person {
    dn: String,
    uid: String,
    /// Base persons carrying this uid (generated uids repeat across
    /// orgs) — the expected hit count of an `eq` search on it.
    uid_hits: usize,
}

/// The mirror: what the served directory must contain right now.
#[derive(Debug, Clone)]
pub struct Model {
    units: Vec<Unit>,
    persons: Vec<Person>,
    /// Per org: its name (`o=<name>` roots its subtree) and unit indices.
    orgs: Vec<(String, Vec<usize>)>,
    /// Expected directory size.
    pub entries: usize,
}

/// The generated base: its LDIF text (what a boot loads) and the mirror.
#[derive(Debug, Clone)]
pub struct Base {
    pub ldif: String,
    pub model: Model,
}

/// The seed of every base directory. The base is the benchmark's
/// dataset and is the same in every run; `--seed` varies the traffic.
/// (Bases drawn from the run seed differ in unit depths, subtree sizes
/// and uid multiplicity, and moved search latencies by 10–20% from one
/// seed to the next at |D|=2k — input variance, not measurement.)
pub const BASE_SEED: u64 = 0xD1B5;

impl Base {
    /// Generates `orgs` organisations of [`ENTRIES_PER_ORG`] entries.
    pub fn generate(orgs: usize) -> Base {
        let dir = multi_org_base(orgs, ENTRIES_PER_ORG, BASE_SEED);
        let ldif = ldif::dump(&dir).expect("generated entries are all named");
        let model = Model::from_instance(&dir);
        Base { ldif, model }
    }
}

impl Model {
    fn from_instance(dir: &DirectoryInstance) -> Model {
        let mut units: Vec<Unit> = Vec::new();
        let mut persons: Vec<Person> = Vec::new();
        let mut orgs: Vec<(String, Vec<usize>)> = Vec::new();
        let mut unit_of_dn: HashMap<String, usize> = HashMap::new();
        let mut uid_hits: HashMap<String, usize> = HashMap::new();
        // Preorder: an org precedes its units, a unit its persons.
        for (id, entry) in dir.iter() {
            let dn = dir.dn(id).expect("generated entries are all named");
            let parent = dn.parent().map(|p| p.to_string());
            if entry.has_class("organization") {
                orgs.push((entry.first_value("o").expect("org has o").to_owned(), Vec::new()));
            } else if entry.has_class("orgUnit") {
                let org = orgs.len() - 1;
                let parent = parent.and_then(|p| unit_of_dn.get(&p).copied());
                unit_of_dn.insert(dn.to_string(), units.len());
                orgs[org].1.push(units.len());
                units.push(Unit { dn: dn.to_string(), parent, persons_below: 0 });
            } else if entry.has_class("person") {
                let unit = unit_of_dn[&parent.expect("persons are never roots")];
                let uid = entry.first_value("uid").expect("person has uid").to_owned();
                *uid_hits.entry(uid.clone()).or_insert(0) += 1;
                persons.push(Person { dn: dn.to_string(), uid, uid_hits: 0 });
                let mut cur = Some(unit);
                while let Some(u) = cur {
                    units[u].persons_below += 1;
                    cur = units[u].parent;
                }
            }
        }
        for p in &mut persons {
            p.uid_hits = uid_hits[&p.uid];
        }
        Model { units, persons, orgs, entries: dir.len() }
    }

    fn add_persons_under(&mut self, unit: usize, by: isize) {
        let mut cur = Some(unit);
        while let Some(u) = cur {
            self.units[u].persons_below = (self.units[u].persons_below as isize + by) as usize;
            cur = self.units[u].parent;
        }
    }
}

/// The kinds of write, in [`SLOTS`] rotation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// TXN adding one orgUnit with two persons under an existing unit.
    Insert,
    /// TXN removing the oldest such subtree still live.
    Delete,
    /// TXN adding one person under units of two different orgs.
    Cross,
    /// TXN removing the oldest such pair still live.
    CrossDelete,
    /// MODIFY replacing `telephoneNumber` on a base person.
    Modify,
    /// TXN adding an orgUnit with no person beneath it — refused.
    Reject,
}

use WriteKind::{Cross, CrossDelete, Delete, Insert, Modify, Reject};

/// Cycles in a group: half a rotation of [`SLOTS`].
pub const GROUP: usize = 8;

/// One rotation of writes: 4 inserts, 4 deletes, 2 cross inserts, 2
/// cross deletes, 2 modifies, 2 rejects. Both [`GROUP`]s of it hold the
/// same writes in the same order, so any run of whole groups mixes the
/// classes alike; every delete finds a live subtree, and the directory
/// is back at its nominal size at the end of each group.
pub const SLOTS: [WriteKind; 16] = [
    Insert,
    Insert,
    Cross,
    Modify,
    Delete,
    Reject,
    CrossDelete,
    Delete,
    Insert,
    Insert,
    Cross,
    Modify,
    Delete,
    Reject,
    CrossDelete,
    Delete,
];

/// What the server owes a write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WriteExpect {
    /// `OK committed <ops> <len> <shards>`.
    Committed { ops: usize, len: usize, shards: usize },
    /// `OK modified <len>`.
    Modified { len: usize },
    /// `ERR <code>`, the directory unchanged.
    Rejected { code: &'static str },
}

/// One write request: a `TXN` LDIF body or a `MODIFY` body.
#[derive(Debug, Clone)]
pub struct WriteOp {
    pub kind: WriteKind,
    pub body: String,
    pub expect: WriteExpect,
}

impl WriteOp {
    /// Whether the write is expected to commit (everything but `Reject`).
    pub fn commits(&self) -> bool {
        !matches!(self.expect, WriteExpect::Rejected { .. })
    }

    /// The DNs the body names, in order.
    pub fn dns(&self) -> impl Iterator<Item = &str> {
        self.body.lines().filter_map(|l| l.strip_prefix("dn: "))
    }

    /// For a `Modify`: the attribute replaced and its new value.
    pub fn replacement(&self) -> Option<(&str, &str)> {
        self.body.lines().find_map(|l| l.strip_prefix("replace: "))?.split_once(": ")
    }
}

/// The kinds of search in a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchKind {
    /// Read-your-writes probe on what the preceding write touched.
    AfterWrite,
    /// Unscoped `(uid=<live uid>)`; 80% of draws from a hot 5% of uids.
    Eq,
    /// `(objectClass=person)` scoped `sub` under one unit.
    Subtree,
    /// Unscoped `(objectClass=person)` limit 100.
    Page,
}

/// One search request with its expected answer.
#[derive(Debug, Clone)]
pub struct SearchOp {
    pub kind: SearchKind,
    pub base: Option<String>,
    pub filter: String,
    pub limit: Option<usize>,
    pub expect_hits: usize,
    /// A line the reply must contain (the value a MODIFY just wrote).
    pub expect_line: Option<String>,
}

/// One write and the five searches that follow it.
#[derive(Debug, Clone)]
pub struct Cycle {
    pub write: WriteOp,
    pub searches: [SearchOp; 5],
}

impl Cycle {
    /// The cycle as text — what [`Script::fingerprint`] hashes.
    pub fn render(&self) -> String {
        let mut out =
            format!("{:?}\n{}\n{:?}\n", self.write.kind, self.write.body, self.write.expect);
        for s in &self.searches {
            out.push_str(&format!(
                "{:?} {:?} {} {:?} {} {:?}\n",
                s.kind, s.base, s.filter, s.limit, s.expect_hits, s.expect_line
            ));
        }
        out
    }
}

#[derive(Debug, Clone)]
struct LiveSubtree {
    unit_dn: String,
    parent_unit: usize,
    serial: u64,
}

#[derive(Debug, Clone)]
struct LivePair {
    dns: [String; 2],
    units: [usize; 2],
    serial: u64,
}

/// The op script: a deterministic, endless stream of [`Cycle`]s.
#[derive(Debug, Clone)]
pub struct Script {
    model: Model,
    rng: Rng,
    shards: usize,
    /// Per org, the shard owning its subtree.
    org_shard: Vec<usize>,
    cycles: u64,
    hot: Vec<usize>,
    /// Units a `subtree` search may be based at.
    subtree_bases: Vec<usize>,
    subtrees: VecDeque<LiveSubtree>,
    pairs: VecDeque<LivePair>,
}

impl Script {
    /// A script over `base` for a backend of `shards` shards (1 =
    /// single), deterministic in `seed`.
    pub fn new(base: &Base, shards: usize, seed: u64) -> Script {
        let model = base.model.clone();
        let mut rng = Rng::new(seed);
        // The hot set: a seeded sample of 5% of the base persons.
        let mut order: Vec<usize> = (0..model.persons.len()).collect();
        let hot_len = (order.len() / 20).max(1);
        for i in 0..hot_len {
            let j = i + rng.below(order.len() - i);
            order.swap(i, j);
        }
        order.truncate(hot_len);
        let org_shard = model
            .orgs
            .iter()
            .map(|(name, _)| shard_of_root_rdn(&Rdn::single("o", name.as_str()), shards))
            .collect();
        let subtree_bases: Vec<usize> = (0..model.units.len())
            .filter(|&u| {
                (SUBTREE_PERSONS.0..=SUBTREE_PERSONS.1).contains(&model.units[u].persons_below)
            })
            .collect();
        assert!(!subtree_bases.is_empty(), "the base has units of that size");
        Script {
            model,
            rng,
            shards,
            org_shard,
            cycles: 0,
            hot: order,
            subtree_bases,
            subtrees: VecDeque::new(),
            pairs: VecDeque::new(),
        }
    }

    /// The mirror's expected directory size.
    pub fn entries(&self) -> usize {
        self.model.entries
    }

    /// Cycles generated so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// FNV-1a over the first `cycles` cycles of a fresh script — equal
    /// for equal `(base, shards, seed)`, whatever the run length.
    pub fn fingerprint(base: &Base, shards: usize, seed: u64, cycles: usize) -> u64 {
        let mut script = Script::new(base, shards, seed);
        let mut text = String::new();
        for _ in 0..cycles {
            text.push_str(&script.next_cycle().render());
        }
        fnv1a(text.as_bytes())
    }

    fn random_unit(&mut self) -> usize {
        self.rng.below(self.model.units.len())
    }

    fn person_record(dn: &str, uid: &str) -> String {
        format!(
            "dn: {dn}\nobjectClass: staffMember\nobjectClass: person\nobjectClass: top\n\
             uid: {uid}\nname: name of {uid}\n"
        )
    }

    fn unit_record(dn: &str, ou: &str) -> String {
        format!(
            "dn: {dn}\nobjectClass: orgUnit\nobjectClass: orgGroup\nobjectClass: top\nou: {ou}\n"
        )
    }

    fn eq_on(filter: String, kind: SearchKind, hits: usize, line: Option<String>) -> SearchOp {
        SearchOp { kind, base: None, filter, limit: None, expect_hits: hits, expect_line: line }
    }

    /// The write in this cycle's slot, with its read-your-writes probe.
    /// The mirror is updated as if the server answers as expected.
    fn next_write(&mut self) -> (WriteOp, SearchOp) {
        let kind = SLOTS[(self.cycles % SLOTS.len() as u64) as usize];
        let serial = self.cycles;
        let after = SearchKind::AfterWrite;
        match kind {
            Insert => {
                let parent_unit = self.random_unit();
                let parent = &self.model.units[parent_unit].dn;
                let unit_dn = format!("ou=bu{serial},{parent}");
                let body = format!(
                    "{}\n{}\n{}",
                    Self::unit_record(&unit_dn, &format!("bu{serial}")),
                    Self::person_record(
                        &format!("uid=bp{serial}a,{unit_dn}"),
                        &format!("bp{serial}a")
                    ),
                    Self::person_record(
                        &format!("uid=bp{serial}b,{unit_dn}"),
                        &format!("bp{serial}b")
                    ),
                );
                self.model.entries += 3;
                self.model.add_persons_under(parent_unit, 2);
                self.subtrees.push_back(LiveSubtree { unit_dn, parent_unit, serial });
                let expect = WriteExpect::Committed { ops: 3, len: self.model.entries, shards: 1 };
                let probe = Self::eq_on(format!("(uid=bp{serial}a)"), after, 1, None);
                (WriteOp { kind, body, expect }, probe)
            }
            Delete => {
                let gone = self.subtrees.pop_front().expect("SLOTS keeps a subtree live");
                let (unit_dn, s) = (&gone.unit_dn, gone.serial);
                // Leaves first: LDAP deletes leaf entries only.
                let body = format!(
                    "dn: uid=bp{s}a,{unit_dn}\nchangetype: delete\n\n\
                     dn: uid=bp{s}b,{unit_dn}\nchangetype: delete\n\n\
                     dn: {unit_dn}\nchangetype: delete\n"
                );
                self.model.entries -= 3;
                self.model.add_persons_under(gone.parent_unit, -2);
                let expect = WriteExpect::Committed { ops: 3, len: self.model.entries, shards: 1 };
                let probe = Self::eq_on(format!("(uid=bp{s}a)"), after, 0, None);
                (WriteOp { kind, body, expect }, probe)
            }
            Cross => {
                // Two different orgs; on a sharded backend, two that
                // hash to different shards, so the 2-phase path runs.
                let a = self.rng.below(self.model.orgs.len());
                let others: Vec<usize> = (0..self.model.orgs.len())
                    .filter(|&o| {
                        o != a && (self.shards == 1 || self.org_shard[o] != self.org_shard[a])
                    })
                    .collect();
                let b = others[self.rng.below(others.len())];
                let units = [a, b].map(|o| {
                    let of_org = &self.model.orgs[o].1;
                    of_org[self.rng.below(of_org.len())]
                });
                let dns = ["a", "b"].map(|side| {
                    let unit = units[usize::from(side == "b")];
                    format!("uid=bc{serial}{side},{}", self.model.units[unit].dn)
                });
                let body = format!(
                    "{}\n{}",
                    Self::person_record(&dns[0], &format!("bc{serial}a")),
                    Self::person_record(&dns[1], &format!("bc{serial}b")),
                );
                self.model.entries += 2;
                for unit in units {
                    self.model.add_persons_under(unit, 1);
                }
                self.pairs.push_back(LivePair { dns, units, serial });
                let shards = if self.shards == 1 { 1 } else { 2 };
                let expect = WriteExpect::Committed { ops: 2, len: self.model.entries, shards };
                // The second person lives on the other shard: seeing it
                // proves both shards published.
                let probe = Self::eq_on(format!("(uid=bc{serial}b)"), after, 1, None);
                (WriteOp { kind, body, expect }, probe)
            }
            CrossDelete => {
                let gone = self.pairs.pop_front().expect("SLOTS keeps a pair live");
                let body = format!(
                    "dn: {}\nchangetype: delete\n\ndn: {}\nchangetype: delete\n",
                    gone.dns[0], gone.dns[1]
                );
                self.model.entries -= 2;
                for unit in gone.units {
                    self.model.add_persons_under(unit, -1);
                }
                let shards = if self.shards == 1 { 1 } else { 2 };
                let expect = WriteExpect::Committed { ops: 2, len: self.model.entries, shards };
                let probe = Self::eq_on(format!("(uid=bc{}b)", gone.serial), after, 0, None);
                (WriteOp { kind, body, expect }, probe)
            }
            Modify => {
                let person = &self.model.persons[self.rng.below(self.model.persons.len())];
                let phone =
                    format!("+1 555 {:03} {:04}", (serial / 10_000) % 1000, serial % 10_000);
                let body = format!("dn: {}\nreplace: telephoneNumber: {phone}\n", person.dn);
                let expect = WriteExpect::Modified { len: self.model.entries };
                let probe = Self::eq_on(
                    format!("(uid={})", person.uid),
                    after,
                    person.uid_hits,
                    // Entries store attribute names lowercased.
                    Some(format!("telephonenumber: {phone}")),
                );
                (WriteOp { kind, body, expect }, probe)
            }
            Reject => {
                // An orgUnit with no person beneath it violates
                // `orgGroup ⇒⇒ person`: the Δ-query finds it and the
                // rollback path runs.
                let parent_unit = self.random_unit();
                let dn = format!("ou=br{serial},{}", self.model.units[parent_unit].dn);
                let body = Self::unit_record(&dn, &format!("br{serial}"));
                let expect = WriteExpect::Rejected { code: "rolled-back" };
                let probe = Self::eq_on(format!("(ou=br{serial})"), after, 0, None);
                (WriteOp { kind, body, expect }, probe)
            }
        }
    }

    fn next_eq(&mut self) -> SearchOp {
        let person = if self.rng.below(10) < 8 {
            self.hot[self.rng.below(self.hot.len())]
        } else {
            self.rng.below(self.model.persons.len())
        };
        let person = &self.model.persons[person];
        Self::eq_on(format!("(uid={})", person.uid), SearchKind::Eq, person.uid_hits, None)
    }

    /// The next cycle of the stream.
    pub fn next_cycle(&mut self) -> Cycle {
        let (write, after_write) = self.next_write();
        let first_eq = self.next_eq();
        let unit = self.subtree_bases[self.rng.below(self.subtree_bases.len())];
        let subtree = SearchOp {
            kind: SearchKind::Subtree,
            base: Some(self.model.units[unit].dn.clone()),
            filter: "(objectClass=person)".to_owned(),
            limit: None,
            expect_hits: self.model.units[unit].persons_below,
            expect_line: None,
        };
        let page = SearchOp {
            kind: SearchKind::Page,
            base: None,
            filter: "(objectClass=person)".to_owned(),
            limit: Some(100),
            expect_hits: 100,
            expect_line: None,
        };
        let second_eq = self.next_eq();
        self.cycles += 1;
        Cycle { write, searches: [after_write, first_eq, subtree, page, second_eq] }
    }
}
