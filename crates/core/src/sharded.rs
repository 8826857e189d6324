//! [`ShardedDirectory`]: the write path partitioned on Theorem 4.1
//! subtree boundaries.
//!
//! The paper's modularity theorem normalises every transaction into
//! independent subtree insertions and deletions, and the Figure 5
//! Δ-queries that certify them are *subtree-local*: a constraint on an
//! entry only inspects the entry's own subtree (children, descendants,
//! parents, ancestors all stay inside the top-level subtree the entry
//! lives in). The one exception is `◇c ∈ Cr`, which demands at least one
//! `c` entry *somewhere* in the instance.
//!
//! That split is the sharding contract:
//!
//! * Entries are routed by the **root RDN of their DN** — every entry of
//!   a top-level subtree, and hence every constraint that mentions it,
//!   lands on one shard. Each shard runs a full [`ManagedDirectory`]
//!   over the schema *minus `Cr`*
//!   ([`DirectorySchema::without_required_classes`]), with its own
//!   write-ahead journal (`op=<seq>,shard=<k>,cn=journal` records).
//! * `◇c` is enforced here, with a global ledger counting live entries
//!   per required class. The count mirrors the Figure 5 query
//!   `(objectClass=c)` exactly: entries list all their classes
//!   explicitly (the checker reports `MissingSuperclass` otherwise), so
//!   "count of entries whose class list contains `c`" and "the `◇c`
//!   query is non-empty" agree on every legal instance.
//!
//! Single-shard transactions lock one shard and never contend.
//! Cross-shard transactions and schema cutovers run a 2-phase apply:
//! *prepare* certifies every involved shard's part on a structurally
//! shared copy and flushes its journal `begin` (carrying a global id +
//! peer count), *commit* flushes the per-shard commit records, and only
//! then is every copy installed. A failure or panic before that drops
//! the copies: no shard's live state has moved. A crash or panic between
//! two commit flushes leaves commit records on a strict subset of the
//! peers; [`ShardedDirectory::recover_with_checkpoints`] reconciles by
//! keeping a global transaction only when its commit is intact in
//! **all** peer journals, so recovery converges to the same state the
//! live engine kept.
//!
//! Every shard is a journaled [`ManagedDirectory`]: the router decides
//! *which* shards and in *what order*, and the one write-ahead driver
//! runs the sequence across them — the same driver a one-directory write
//! runs — with every site on the caller's probe, and hands the caller the
//! installed versions before the shard locks are released.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

use bschema_directory::ldif::LdifRecord;
use bschema_directory::{DirectoryInstance, Dn, Entry, Rdn};
use bschema_obs::{scoped, Probe};

use crate::checkpoint::{Checkpoint, RecoveryPlan};
use crate::consistency::ConsistencyChecker;
pub use crate::engine::JournalSink;
use crate::engine::{JournalFiles, Op};
use crate::journal::{shard_journal_path, Journal, Payload, RecoveryReport};
use crate::legality::report::Violation;
use crate::legality::{LegalityChecker, LegalityReport};
use crate::managed::{inconsistency_error, refusing_panics, ManagedDirectory, ManagedError};
use crate::schema::DirectorySchema;
use crate::updates::{is_delete_record, transaction_from_ldif, Mod, Transaction};

/// Receipt for an applied sharded transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedTxOutcome {
    /// The shards the transaction touched, ascending.
    pub shards: Vec<usize>,
    /// The global transaction id, when the apply was cross-shard.
    pub gid: Option<u64>,
    /// Total LDIF records applied across all shards.
    pub ops: usize,
}

/// The shard owning the top-level subtree rooted at `rdn`: FNV-1a over
/// the normalised (lowercased, whitespace-canonical) root RDN. Stable
/// across runs and platforms, so shard layouts are reproducible and
/// journals recover onto the same partition.
pub fn shard_of_root_rdn(rdn: &Rdn, shards: usize) -> usize {
    let normalized = Dn::from_rdns(vec![rdn.clone()]).to_normalized_string();
    (bschema_directory::fnv1a(normalized.as_bytes()) % shards.max(1) as u64) as usize
}

/// Splits `dir` into `shards` disjoint instances, each holding the
/// top-level subtrees its shard owns (grafted in forest order, so the
/// split is deterministic). Unnamed roots route to shard 0.
pub fn partition(
    dir: &DirectoryInstance,
    shards: usize,
) -> Result<Vec<DirectoryInstance>, ManagedError> {
    let mut bases: Vec<DirectoryInstance> =
        (0..shards.max(1)).map(|_| DirectoryInstance::new(dir.registry().clone())).collect();
    for root in dir.forest().roots() {
        let k = match dir.rdn(root) {
            Some(rdn) => shard_of_root_rdn(rdn, shards),
            None => 0,
        };
        bases[k]
            .graft_subtree(dir, root)
            .map_err(|e| ManagedError::Internal(format!("partitioning root {root}: {e}")))?;
    }
    for base in &mut bases {
        base.prepare();
    }
    Ok(bases)
}

/// Merges shard instances back into one canonical instance: top-level
/// subtrees are grafted in sorted normalised-root-RDN order, so any two
/// partitions of the same forest — including the degenerate 1-"shard"
/// partition of an unsharded directory — rebuild byte-identical
/// [`canonical_bytes`](DirectoryInstance::canonical_bytes). This is the
/// equality the differential oracle checks.
pub fn canonical_merge<'a>(
    parts: impl IntoIterator<Item = &'a DirectoryInstance>,
) -> Result<DirectoryInstance, ManagedError> {
    let parts: Vec<&DirectoryInstance> = parts.into_iter().collect();
    let registry = match parts.first() {
        Some(part) => part.registry().clone(),
        None => return Ok(DirectoryInstance::new(bschema_directory::AttributeRegistry::default())),
    };
    let mut roots: Vec<(String, usize, bschema_directory::EntryId)> = Vec::new();
    for (i, part) in parts.iter().enumerate() {
        for root in part.forest().roots() {
            let key = match part.rdn(root) {
                Some(rdn) => Dn::from_rdns(vec![rdn.clone()]).to_normalized_string(),
                None => String::new(),
            };
            roots.push((key, i, root));
        }
    }
    // Stable sort on (name, part) keeps forest order for any equal keys.
    roots.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    let mut merged = DirectoryInstance::new(registry);
    for (_, i, root) in roots {
        merged
            .graft_subtree(parts[i], root)
            .map_err(|e| ManagedError::Internal(format!("merging shard {i} root {root}: {e}")))?;
    }
    merged.prepare();
    Ok(merged)
}

/// §6.1 keys are directory-wide uniqueness constraints — the one other
/// instance-global element besides `◇c`, and one the per-shard checkers
/// cannot see across shards. The sharded engine does not support them;
/// refusing up front keeps the sharded≡unsharded equivalence honest.
fn reject_global_keys(schema: &DirectorySchema) -> Result<(), ManagedError> {
    if let Some(attr) = schema.attributes().unique_attributes().next() {
        return Err(ManagedError::Internal(format!(
            "schema declares key attribute {attr:?}: directory-wide keys are not subtree-local, \
             so this schema cannot be sharded"
        )));
    }
    Ok(())
}

/// What every schema a sharded directory runs under must pass: the
/// Figures 6–7 consistency closure, and no global keys.
fn shardable(schema: &DirectorySchema) -> Result<(), ManagedError> {
    let result = ConsistencyChecker::new(schema).check();
    if !result.is_consistent() {
        return Err(inconsistency_error(&result));
    }
    reject_global_keys(schema)
}

/// Names of the schema's required classes (`Cr`), the ledger's keys.
fn required_class_names(schema: &DirectorySchema) -> Vec<String> {
    schema.structure().required_classes().map(|c| schema.classes().name(c).to_owned()).collect()
}

/// Adds `by` to `counts` for every required class `entry` lists — the
/// one place an entry is counted against the `◇c` ledger.
fn tally(required: &[String], entry: &Entry, by: i64, counts: &mut BTreeMap<String, i64>) {
    for name in required.iter().filter(|name| entry.has_class(name)) {
        *counts.entry(name.clone()).or_insert(0) += by;
    }
}

/// Counts live entries per required class across `parts`.
fn count_required(required: &[String], parts: &[&DirectoryInstance]) -> BTreeMap<String, i64> {
    let mut counts: BTreeMap<String, i64> = required.iter().map(|name| (name.clone(), 0)).collect();
    for (_, entry) in parts.iter().flat_map(|part| part.iter()) {
        tally(required, entry, 1, &mut counts);
    }
    counts
}

/// Accumulates a transaction's net effect on the `◇c` ledger under the
/// given `Cr` key set: +1 per required class listed by an inserted
/// entry, −1 per required class listed by a deleted one. Deletes name
/// exactly one existing entry each (the leaf-only discipline rejects
/// anything else later, with no mutation), so summing per record is
/// exact.
fn ledger_delta(
    required: &[String],
    dir: &DirectoryInstance,
    records: &[LdifRecord],
    delta: &mut BTreeMap<String, i64>,
) {
    if required.is_empty() {
        return;
    }
    for rec in records {
        if !is_delete_record(rec) {
            tally(required, &rec.entry, 1, delta);
        } else if let Some(entry) = dir.lookup_dn(&rec.dn).and_then(|id| dir.entry(id)) {
            tally(required, entry, -1, delta);
        }
    }
}

/// The full schema a recovered sharded directory converges to. Every
/// cutover journals an identical full-schema record on all shards under
/// one `gid`, so after cross-shard reconciliation the newest surviving
/// schema record (max `gid`, any journal) names the final schema; with
/// no surviving record, the embedded schema of a checkpoint a shard
/// restores covers cutovers the truncated journals no longer show (every
/// checkpoint of a campaign snapshots the same epoch, so any shard's will
/// do; a decodable one its shard does not restore either embeds no
/// schema that verifies or fails that shard's recovery); with neither,
/// the boot schema stands.
fn final_full_schema<'c>(
    boot: &DirectorySchema,
    journals: &[Journal],
    commits: &BTreeMap<u64, u64>,
    checkpoints: impl IntoIterator<Item = &'c Checkpoint>,
) -> Result<DirectorySchema, ManagedError> {
    let mut best: Option<(u64, &crate::journal::JournalSchema)> = None;
    for journal in journals {
        for jtx in &journal.txs {
            let (Payload::Schema(schema), true) = (&jtx.payload, jtx.committed) else { continue };
            let intact = match (jtx.gid, jtx.peers) {
                (Some(gid), Some(peers)) => commits.get(&gid).copied().unwrap_or(0) >= peers,
                _ => true,
            };
            let rank = jtx.gid.unwrap_or(0);
            if intact && best.is_none_or(|(prev, _)| rank >= prev) {
                best = Some((rank, schema));
            }
        }
    }
    if let Some((_, schema)) = best {
        return schema.full_schema().map_err(ManagedError::Recovery);
    }
    for ckpt in checkpoints {
        if let Some(full) = ckpt.embedded_full_schema() {
            return Ok(full);
        }
    }
    Ok(boot.clone())
}

/// One schema generation: the full bounding-schema, its `Cr`-stripped
/// per-shard projection, and the `◇c` ledger's key set. All three swap
/// together — atomically, under every shard lock — when
/// [`ShardedDirectory::swap_schema_validated`] cuts over to an evolved schema.
struct SchemaEpoch {
    schema: DirectorySchema,
    local: DirectorySchema,
    /// `Cr` class names, the ledger's key set.
    required: Vec<String>,
}

impl SchemaEpoch {
    fn new(schema: DirectorySchema) -> Self {
        let local = schema.without_required_classes();
        let required = required_class_names(&schema);
        SchemaEpoch { schema, local, required }
    }
}

/// A directory sharded on top-level subtrees, safe to share across
/// threads (`&self` write API): each shard sits behind its own lock, so
/// single-shard transactions on different shards commit concurrently.
pub struct ShardedDirectory {
    /// The current schema generation. Lock order: epoch before any
    /// shard lock (writers hold the epoch write lock across the whole
    /// cutover; the data path takes a brief read and releases it before
    /// or while acquiring shard locks in ascending order).
    epoch: RwLock<SchemaEpoch>,
    /// One journaled engine per shard, over the `Cr`-stripped schema.
    slots: Vec<Mutex<ManagedDirectory>>,
    /// Live-entry count per required class — the global `◇c` ledger.
    /// Locked only while the involved shard locks are already held
    /// (shards-then-ledger order), and only for short critical sections.
    counts: Mutex<BTreeMap<String, i64>>,
    next_gid: AtomicU64,
    probe: Option<Arc<dyn Probe + Send + Sync>>,
}

impl fmt::Debug for ShardedDirectory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let required = self.epoch.read().unwrap_or_else(|e| e.into_inner()).required.clone();
        f.debug_struct("ShardedDirectory")
            .field("shards", &self.slots.len())
            .field("required", &required)
            .finish_non_exhaustive()
    }
}

impl ShardedDirectory {
    /// Partitions `dir` into `shards` shards after verifying schema
    /// consistency and whole-instance legality, exactly like
    /// [`ManagedDirectory::with_instance`].
    pub fn with_instance(
        schema: DirectorySchema,
        mut dir: DirectoryInstance,
        shards: usize,
    ) -> Result<Self, ManagedError> {
        shardable(&schema)?;
        dir.prepare();
        let report = LegalityChecker::new(&schema).check(&dir);
        if !report.is_legal() {
            return Err(ManagedError::IllegalInstance(report));
        }
        let bases = partition(&dir, shards)?;
        Self::from_parts(schema, bases)
    }

    /// Rebuilds a sharded directory from per-shard bases, journals and
    /// (optional) checkpoint texts. Global transactions are first
    /// reconciled — a `gid` counts as committed only when a commit
    /// record for it is intact in all `peers` journals, so a torn
    /// 2-phase commit is discarded everywhere — then each shard goes
    /// through the one recovery ladder ([`RecoveryPlan`], its checkpoint
    /// decoded once), where a checkpoint's snapshot absorbs the
    /// truncated part of its journal. Reconciliation runs over the
    /// *visible* journals only — sound
    /// because a checkpoint campaign writes every shard's checkpoint
    /// before truncating any journal, so a global transaction's commit
    /// records are either all still in journals or all covered by
    /// checkpoints (and then skipped by the `first_seq >= ckpt.seq`
    /// replay rule before the reconciled commit flag is consulted).
    pub fn recover_with_checkpoints(
        schema: DirectorySchema,
        bases: Vec<DirectoryInstance>,
        checkpoints: &[Option<String>],
        journals: &[Journal],
    ) -> Result<(Self, Vec<RecoveryReport>), ManagedError> {
        if bases.len() != journals.len() || checkpoints.len() != journals.len() {
            return Err(ManagedError::Recovery(format!(
                "{} shard bases, {} checkpoints, {} journals",
                bases.len(),
                checkpoints.len(),
                journals.len()
            )));
        }
        shardable(&schema)?;
        let mut commits: BTreeMap<u64, u64> = BTreeMap::new();
        for journal in journals {
            for jtx in &journal.txs {
                if jtx.committed {
                    if let Some(gid) = jtx.gid {
                        *commits.entry(gid).or_insert(0) += 1;
                    }
                }
            }
        }
        // Plan every shard first, decoding each checkpoint once: schema
        // derivation reads the embedded schemas off the plans that
        // restore one, and each plan then moves its own rows into its
        // shard.
        let local_schema = schema.without_required_classes();
        let mut next_gid = 0u64;
        let mut plans = Vec::with_capacity(journals.len());
        for (journal, ckpt_text) in journals.iter().zip(checkpoints) {
            let mut reconciled = journal.clone();
            for jtx in &mut reconciled.txs {
                if let (Some(gid), Some(peers)) = (jtx.gid, jtx.peers) {
                    next_gid = next_gid.max(gid + 1);
                    if commits.get(&gid).copied().unwrap_or(0) < peers {
                        jtx.committed = false;
                    }
                }
            }
            let plan =
                RecoveryPlan::decode(local_schema.clone(), ckpt_text.as_deref(), &reconciled);
            plans.push((plan, reconciled));
        }
        let restored = plans.iter().filter_map(|(plan, _)| plan.checkpoint());
        let final_schema = final_full_schema(&schema, journals, &commits, restored)?;
        reject_global_keys(&final_schema)?;
        let mut slots = Vec::with_capacity(bases.len());
        let mut reports = Vec::with_capacity(bases.len());
        for (k, ((plan, journal), base)) in plans.into_iter().zip(bases).enumerate() {
            let recovery = plan
                .execute(base, &journal)
                .map_err(|e| ManagedError::Recovery(format!("shard {k}: {e}")))?;
            reports.push(recovery.report.clone());
            slots.push(Mutex::new(recovery.managed.with_shard(k)));
        }
        let epoch = SchemaEpoch::new(final_schema);
        let sharded = ShardedDirectory {
            epoch: RwLock::new(epoch),
            slots,
            counts: Mutex::new(BTreeMap::new()),
            next_gid: AtomicU64::new(next_gid),
            probe: None,
        };
        let required = sharded.required();
        sharded.recount(&sharded.lock_all(), &required);
        Ok((sharded, reports))
    }

    /// Opens the journal family `<base>.shard<k>` onto this directory
    /// (the seed state the journals' history starts from): every file
    /// is read and its torn tail repaired in place, the family recovers
    /// through [`recover_with_checkpoints`](Self::recover_with_checkpoints)
    /// with each shard's sibling checkpoint, and every shard resumes
    /// appending to its own file. The router probe carries over.
    pub fn open(self, base: &Path) -> Result<(Self, Vec<RecoveryReport>), ManagedError> {
        let paths: Vec<_> = (0..self.shards()).map(|k| shard_journal_path(base, k)).collect();
        let mut journals = Vec::with_capacity(paths.len());
        let mut checkpoints = Vec::with_capacity(paths.len());
        for path in &paths {
            let files = JournalFiles::read_repaired(path)?;
            journals.push(files.journal);
            checkpoints.push(files.ckpt_text);
        }
        let schema = self.schema();
        let seeds = self
            .slots
            .into_iter()
            .map(|slot| slot.into_inner().unwrap_or_else(|e| e.into_inner()).into_parts().1);
        let (mut recovered, reports) =
            Self::recover_with_checkpoints(schema, seeds.collect(), &checkpoints, &journals)?;
        recovered.probe = self.probe;
        for (slot, path) in recovered.slots.iter_mut().zip(paths) {
            slot.get_mut().unwrap_or_else(|e| e.into_inner()).attach_file(path);
        }
        Ok((recovered, reports))
    }

    /// Re-derives the `◇c` ledger from the (locked) shards.
    fn recount(&self, guards: &[MutexGuard<'_, ManagedDirectory>], required: &[String]) {
        let parts: Vec<&DirectoryInstance> =
            guards.iter().map(|engine| engine.instance()).collect();
        *self.counts.lock().unwrap_or_else(|e| e.into_inner()) = count_required(required, &parts);
    }

    /// Locks every shard, ascending — the global lock order.
    fn lock_all(&self) -> Vec<MutexGuard<'_, ManagedDirectory>> {
        (0..self.slots.len()).map(|k| self.lock_slot(k)).collect()
    }

    /// Snapshots every shard at one quiescent point: all shard locks are
    /// taken before any capture, so a cross-shard transaction is in
    /// every returned checkpoint or in none. Each checkpoint covers its
    /// shard's full journal (seq = the writer's cursor, the tail after
    /// truncation is empty), is hashed against the *shard-local* schema
    /// — the one [`recover_with_checkpoints`](Self::recover_with_checkpoints)
    /// verifies against — and embeds the *full* schema so recovery can
    /// rebuild the epoch (and `Cr`) once the journal prefix is gone.
    pub fn checkpoint_all(&self) -> Vec<Checkpoint> {
        let epoch = self.epoch.read().unwrap_or_else(|e| e.into_inner());
        let full_dsl = crate::schema::dsl::print_schema(&epoch.schema, None);
        self.lock_all().iter().map(|engine| engine.capture(Some(&full_dsl))).collect()
    }

    /// Runs a full checkpoint campaign to disk: under all shard locks
    /// (held for the whole campaign, so no commit can slip between a
    /// capture and its truncation), every shard's checkpoint is written
    /// next to its journal file, and — only after **every** shard's
    /// checkpoint landed — each journal file truncated to empty. The
    /// write-all-then-truncate-all order is what keeps cross-shard
    /// reconciliation sound on recovery: a `gid`'s commit records are
    /// either all still in journals or all covered by checkpoints.
    /// Returns the covered sequence number per shard; fails with
    /// [`Unsupported`](std::io::ErrorKind::Unsupported) when the shards
    /// journal to no file.
    pub fn checkpoint(&self, probe: &dyn Probe) -> std::io::Result<Vec<u64>> {
        let epoch = self.epoch.read().unwrap_or_else(|e| e.into_inner());
        let full_dsl = crate::schema::dsl::print_schema(&epoch.schema, None);
        let guards = self.lock_all();
        let seqs = guards
            .iter()
            .map(|engine| engine.write_checkpoint(Some(&full_dsl), probe))
            .collect::<std::io::Result<Vec<u64>>>()?;
        for engine in &guards {
            engine.truncate_journal(probe)?;
        }
        Ok(seqs)
    }

    /// Assembles shards from already-partitioned, already-validated
    /// bases (callers: [`with_instance`](Self::with_instance) and tests).
    fn from_parts(
        schema: DirectorySchema,
        bases: Vec<DirectoryInstance>,
    ) -> Result<Self, ManagedError> {
        let epoch = SchemaEpoch::new(schema);
        let refs: Vec<&DirectoryInstance> = bases.iter().collect();
        let counts = count_required(&epoch.required, &refs);
        let mut slots = Vec::with_capacity(bases.len());
        for (k, base) in bases.into_iter().enumerate() {
            let managed = ManagedDirectory::with_instance(epoch.local.clone(), base)?;
            slots.push(Mutex::new(managed.with_shard(k)));
        }
        Ok(ShardedDirectory {
            epoch: RwLock::new(epoch),
            slots,
            counts: Mutex::new(counts),
            next_gid: AtomicU64::new(0),
            probe: None,
        })
    }

    /// Attaches `probe` to the router: every write it drives reports
    /// there, the shards' checks and flushes included.
    pub fn with_probe(mut self, probe: Arc<dyn Probe + Send + Sync>) -> Self {
        self.probe = Some(probe);
        self
    }

    /// Installs the durability sink for shard `k`'s journal. Without
    /// one the shard journals nothing.
    pub fn set_sink(&self, k: usize, sink: JournalSink) {
        self.lock_slot(k).set_sink(sink);
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.slots.len()
    }

    /// The full bounding-schema (with `Cr`) of the current epoch.
    /// Returned by value: the epoch can be swapped out from under a
    /// borrow by [`swap_schema_validated`](Self::swap_schema_validated).
    pub fn schema(&self) -> DirectorySchema {
        self.epoch.read().unwrap_or_else(|e| e.into_inner()).schema.clone()
    }

    /// The current epoch's `Cr` class names.
    fn required(&self) -> Vec<String> {
        self.epoch.read().unwrap_or_else(|e| e.into_inner()).required.clone()
    }

    /// Total entry count across shards, read under every shard lock so
    /// a cross-shard commit is counted whole or not at all.
    pub fn len(&self) -> usize {
        self.lock_all().iter().map(|engine| engine.len()).sum()
    }

    /// True when every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whole-directory §3 legality: every shard legal under the local
    /// schema, plus a positive ledger count for every `◇c ∈ Cr` — one
    /// cut, the ledger read after every shard lock (shards-then-ledger).
    pub fn is_legal(&self) -> bool {
        let required = self.required();
        let guards = self.lock_all();
        let counts = self.counts.lock().unwrap_or_else(|e| e.into_inner());
        required.iter().all(|name| counts.get(name).copied().unwrap_or(0) > 0)
            && guards.iter().all(|engine| engine.is_legal())
    }

    /// Runs `f` on shard `k`'s engine under that shard's lock — a
    /// consistent read of its instance, schema or journal cursor.
    pub fn with_shard<R>(&self, k: usize, f: impl FnOnce(&ManagedDirectory) -> R) -> R {
        f(&self.lock_slot(k))
    }

    /// A clone of shard `k`'s current instance.
    pub fn shard_instance(&self, k: usize) -> DirectoryInstance {
        self.with_shard(k, |engine| engine.instance().clone())
    }

    /// A snapshot of the `◇c` ledger: committed entry count per
    /// required class. Empty when the schema has no `Cr`.
    pub fn ledger(&self) -> BTreeMap<String, i64> {
        self.counts.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The canonical merge of all shards (see [`canonical_merge`]),
    /// taken under a consistent cut (all shard locks held).
    pub fn merged_instance(&self) -> Result<DirectoryInstance, ManagedError> {
        canonical_merge(self.lock_all().iter().map(|engine| engine.instance()))
    }

    /// The shard owning `dn`'s top-level subtree.
    pub fn shard_of_dn(&self, dn: &Dn) -> usize {
        match dn.rdns().last() {
            Some(root) => shard_of_root_rdn(root, self.slots.len()),
            None => 0,
        }
    }

    fn lock_slot(&self, k: usize) -> MutexGuard<'_, ManagedDirectory> {
        self.slots[k].lock().unwrap_or_else(|e| e.into_inner())
    }

    fn probe(&self) -> &dyn Probe {
        match &self.probe {
            Some(p) => p.as_ref(),
            None => bschema_obs::noop(),
        }
    }

    /// [`commit_ldif`](Self::commit_ldif) on the router's probe, publishing nowhere.
    pub fn apply_ldif(&self, records: Vec<LdifRecord>) -> Result<ShardedTxOutcome, ManagedError> {
        self.commit_ldif(records, self.probe(), |_| {})
    }

    /// Applies one LDIF transaction: records are routed per shard by
    /// root RDN, decoded into per-shard transactions, vetted against
    /// the `◇c` ledger, and applied on `probe` — one locked shard on the
    /// fast path, a 2-phase apply across all involved shards otherwise.
    /// A commit hands `publish` each touched shard's new version while
    /// their locks are held (lock order: shards, then what it takes).
    pub fn commit_ldif(
        &self,
        records: Vec<LdifRecord>,
        probe: &dyn Probe,
        publish: impl FnOnce(&[(usize, Arc<DirectoryInstance>)]),
    ) -> Result<ShardedTxOutcome, ManagedError> {
        // Pin this transaction's `Cr` view before taking shard locks
        // (the epoch-before-shards lock order): a concurrent cutover
        // holds every shard lock, so the epoch cannot change while this
        // transaction's shard locks are held.
        let required = self.required();
        let n = self.slots.len();
        let ops = records.len();
        let mut groups: Vec<Vec<LdifRecord>> = (0..n).map(|_| Vec::new()).collect();
        for rec in records {
            let k = self.shard_of_dn(&rec.dn);
            groups[k].push(rec);
        }
        let mut involved: Vec<usize> = (0..n).filter(|&k| !groups[k].is_empty()).collect();
        if involved.is_empty() {
            // An empty transaction is a legal no-op in the unsharded
            // engine; route it through shard 0 for an identical verdict.
            involved.push(0);
        }
        // Lock the involved shards in ascending index order (the global
        // lock order) and hold them through the apply.
        let mut guards: Vec<(usize, MutexGuard<'_, ManagedDirectory>)> =
            involved.iter().map(|&k| (k, self.lock_slot(k))).collect();

        // Decode and pre-normalise every shard's sub-transaction before
        // touching anything, so structural errors surface with the same
        // invalid-tx verdict (and zero mutation) as the unsharded path.
        let mut subtxs: Vec<Transaction> = Vec::with_capacity(guards.len());
        let mut delta: BTreeMap<String, i64> = BTreeMap::new();
        for (k, guard) in &guards {
            let group = std::mem::take(&mut groups[*k]);
            ledger_delta(&required, guard.instance(), &group, &mut delta);
            let tx = refusing_panics(|| {
                scoped(probe, "service.tx_build", || {
                    let tx = transaction_from_ldif(guard.instance(), group)?;
                    tx.normalize(guard.instance())?;
                    Ok(tx)
                })
            })?;
            subtxs.push(tx);
        }

        let outcome = self.admitted(&delta, || {
            // One shard is the ordinary journaled apply; more, the 2-phase
            // apply, each part stamped with one fresh global id and the peer
            // count for recovery's all-peers reconciliation of a torn commit.
            let shards = guards.iter().map(|(k, _)| *k).collect();
            let peers = guards.len() as u64;
            let gid = (peers > 1).then(|| self.next_gid.fetch_add(1, Ordering::Relaxed));
            let global = gid.map(|gid| (gid, peers));
            let mut parts: Vec<_> = guards
                .iter_mut()
                .zip(&subtxs)
                .map(|((_, engine), tx)| (&mut **engine, Op::Tx { tx, global }))
                .collect();
            let _counted = ManagedDirectory::apply_all(&mut parts, probe)?;
            Ok(ShardedTxOutcome { shards, gid, ops })
        })?;
        publish(
            &guards.iter().map(|(k, engine)| (*k, engine.shared_instance())).collect::<Vec<_>>(),
        );
        Ok(outcome)
    }

    /// `◇c` admission around an apply: reject any transaction that would
    /// empty a required class, pre-deduct the negative side so racing
    /// transactions on other shards see the reservation, then settle the
    /// positive side on commit or return the reservation on failure.
    fn admitted(
        &self,
        delta: &BTreeMap<String, i64>,
        apply: impl FnOnce() -> Result<ShardedTxOutcome, ManagedError>,
    ) -> Result<ShardedTxOutcome, ManagedError> {
        self.reserve(delta)?;
        let outcome = apply();
        match outcome {
            Ok(_) => self.settle(delta),
            Err(_) => self.unreserve(delta),
        }
        outcome
    }

    /// [`commit_modify`](Self::commit_modify) on the router's probe, publishing nowhere.
    pub fn modify_dn(&self, dn: &Dn, mods: &[Mod]) -> Result<ShardedTxOutcome, ManagedError> {
        self.commit_modify(dn, mods, self.probe(), |_| {})
    }

    /// Applies an LDAP Modify to the entry named `dn`. A Modify targets
    /// exactly one DN, and the target's top-level subtree pins it — and
    /// every structural consequence (Theorem 4.1 locality) — to one
    /// shard, so this is always a single-shard operation: the shard is
    /// locked and the mod list goes through its engine's journaled
    /// apply as one `modify` transaction (`begin`, one record per
    /// [`Mod`], `commit`). A modification can move
    /// the entry in or out of a required class via its `objectClass`
    /// values, so the `◇c` ledger sees the simulated class delta before
    /// admission, exactly like insert/delete routing. `probe` and
    /// `publish` as for [`commit_ldif`](Self::commit_ldif).
    pub fn commit_modify(
        &self,
        dn: &Dn,
        mods: &[Mod],
        probe: &dyn Probe,
        publish: impl FnOnce(&[(usize, Arc<DirectoryInstance>)]),
    ) -> Result<ShardedTxOutcome, ManagedError> {
        let required = self.required();
        let k = self.shard_of_dn(dn);
        let mut engine = self.lock_slot(k);
        let target = engine.lookup(dn)?;
        let mut delta: BTreeMap<String, i64> = BTreeMap::new();
        if !required.is_empty() {
            // The entry as it would look after `mods`: the dry run the
            // ledger admission needs before anything is journalled.
            let entry = engine.instance().entry(target).expect("looked-up entry exists");
            let mut simulated = entry.clone();
            for m in mods {
                m.apply_to(&mut simulated);
            }
            tally(&required, entry, -1, &mut delta);
            tally(&required, &simulated, 1, &mut delta);
            // A class the entry keeps must not reserve anything.
            delta.retain(|_, net| *net != 0);
        }
        let outcome = self.admitted(&delta, || {
            let _counted = engine.apply_op(Op::Modify { target, mods }, probe)?;
            Ok(ShardedTxOutcome { shards: vec![k], gid: None, ops: mods.len() })
        })?;
        publish(&[(k, engine.shared_instance())]);
        Ok(outcome)
    }

    /// Atomically cuts every shard over to the evolved `target` schema.
    /// `dsl` is the target's full-schema document, journalled verbatim.
    ///
    /// The caller is responsible for §3 legality of the live instance
    /// under `target` (the evolution plane rechecks before calling);
    /// this method owns the mechanics: under the epoch write lock and
    /// every shard lock (ascending — no transaction can interleave), the
    /// cutover runs as a 2-phase apply like any cross-shard transaction
    /// (the engine's one write driver): a schema record carrying one
    /// global id is flushed on every shard (write-ahead, `jrnlocal` so
    /// replay strips `Cr`), the `schema.cutover` site, every shard's
    /// commit record, and each shard engine swaps to the `Cr`-stripped
    /// target. Then the `◇c` ledger is re-derived from scratch under the
    /// new `Cr` key set and the epoch is published. An error or panic
    /// before the swaps — a begin flush, a fault site — comes back as an
    /// `Err` with the old epoch live on every shard. A crash between the
    /// phases tears the cutover; recovery's all-peers reconciliation then
    /// discards it on every shard, so the directory converges to the
    /// pre-cutover epoch.
    ///
    /// `validate` runs first, against the canonical merge of all shards
    /// while every shard lock is held — no transaction can commit
    /// between the validation and the epoch swap, which is exactly the
    /// window the §6.2 incremental recheck must close. An `Err` aborts
    /// the cutover with nothing journalled and nothing swapped.
    pub fn swap_schema_validated(
        &self,
        target: DirectorySchema,
        dsl: &str,
        validate: impl FnOnce(&DirectoryInstance) -> Result<(), ManagedError>,
    ) -> Result<(), ManagedError> {
        shardable(&target)?;
        let mut epoch = self.epoch.write().unwrap_or_else(|e| e.into_inner());
        let mut guards = self.lock_all();
        // Validation runs under every shard lock, against the same
        // frozen state the swap will publish.
        validate(&canonical_merge(guards.iter().map(|engine| engine.instance()))?)?;
        let gid = self.next_gid.fetch_add(1, Ordering::Relaxed);
        let local = target.without_required_classes();
        let global = Some((gid, guards.len() as u64));
        let cutover = Op::Schema { schema: &local, dsl, local: true, global };
        let mut parts: Vec<_> = guards.iter_mut().map(|engine| (&mut **engine, cutover)).collect();
        let _counted = ManagedDirectory::apply_all(&mut parts, self.probe())?;
        // Re-derive the `◇c` ledger under the new `Cr` key set.
        let required = required_class_names(&target);
        self.recount(&guards, &required);
        *epoch = SchemaEpoch { schema: target, local, required };
        Ok(())
    }

    /// Admission check + negative-side reservation, one short ledger
    /// critical section (taken with the involved shard locks held, per
    /// the shards-then-ledger order).
    fn reserve(&self, delta: &BTreeMap<String, i64>) -> Result<(), ManagedError> {
        let mut counts = self.counts.lock().unwrap_or_else(|e| e.into_inner());
        let mut missing: Vec<Violation> = Vec::new();
        for (name, net) in delta {
            let count = counts.get(name).copied().unwrap_or(0);
            if count + net <= 0 {
                missing.push(Violation::MissingRequiredClass { class: name.clone() });
            }
        }
        if !missing.is_empty() {
            return Err(ManagedError::RolledBack(LegalityReport::from_violations(missing)));
        }
        for (name, net) in delta {
            if *net < 0 {
                *counts.entry(name.clone()).or_insert(0) += net;
            }
        }
        Ok(())
    }

    /// Adds the positive side of a committed transaction's delta.
    fn settle(&self, delta: &BTreeMap<String, i64>) {
        let mut counts = self.counts.lock().unwrap_or_else(|e| e.into_inner());
        for (name, net) in delta {
            if *net > 0 {
                *counts.entry(name.clone()).or_insert(0) += net;
            }
        }
    }

    /// Returns a failed transaction's negative-side reservation.
    fn unreserve(&self, delta: &BTreeMap<String, i64>) {
        let mut counts = self.counts.lock().unwrap_or_else(|e| e.into_inner());
        for (name, net) in delta {
            if *net < 0 {
                *counts.entry(name.clone()).or_insert(0) -= net;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MemoryJournal;
    use crate::paper::{white_pages_instance, white_pages_schema};
    use bschema_directory::ldif::parse_ldif;

    /// Journals every shard into memory; index `k` reads shard `k`'s
    /// record text back.
    fn journal_in_memory(sharded: &ShardedDirectory) -> Vec<MemoryJournal> {
        (0..sharded.shards())
            .map(|k| {
                let mem = MemoryJournal::default();
                sharded.set_sink(k, mem.sink());
                mem
            })
            .collect()
    }

    /// Recovery from journals alone: the ladder with no checkpoints.
    fn recover(
        schema: DirectorySchema,
        bases: Vec<DirectoryInstance>,
        journals: &[Journal],
    ) -> Result<(ShardedDirectory, Vec<RecoveryReport>), ManagedError> {
        let none = vec![None; journals.len()];
        ShardedDirectory::recover_with_checkpoints(schema, bases, &none, journals)
    }

    fn records(text: &str) -> Vec<LdifRecord> {
        parse_ldif(text).expect("ldif")
    }

    fn sharded(n: usize) -> ShardedDirectory {
        let (dir, _) = white_pages_instance();
        ShardedDirectory::with_instance(white_pages_schema(), dir, n).expect("legal seed")
    }

    /// A root-RDN value `orgN` that hashes to `target` under `shards`.
    fn name_on_shard(target: usize, shards: usize) -> String {
        (0..1024)
            .map(|i| format!("org{i}"))
            .find(|name| shard_of_root_rdn(&Rdn::single("o", name.clone()), shards) == target)
            .expect("some name hashes to every shard")
    }

    fn two_names_on_distinct_shards(shards: usize) -> (String, String) {
        let first = name_on_shard(0, shards);
        let second = name_on_shard(1, shards);
        (first, second)
    }

    /// A legal three-entry organization subtree rooted at `o=<name>`.
    fn org_ldif(name: &str) -> String {
        format!(
            "dn: o={name}\nobjectClass: organization\nobjectClass: orgGroup\nobjectClass: online\nobjectClass: top\no: {name}\nuri: https://{name}.example\n\ndn: ou=u,o={name}\nobjectClass: orgUnit\nobjectClass: orgGroup\nobjectClass: top\nou: u\n\ndn: uid=p,ou=u,o={name}\nobjectClass: person\nobjectClass: top\nuid: p\nname: p\n"
        )
    }

    #[test]
    fn partition_and_merge_are_inverse_for_any_shard_count() {
        let (dir, _) = white_pages_instance();
        let canonical =
            canonical_merge(partition(&dir, 1).expect("partition").iter()).expect("merge");
        for n in [1usize, 2, 4, 8] {
            let parts = partition(&dir, n).expect("partition");
            let merged = canonical_merge(parts.iter()).expect("merge");
            assert_eq!(
                merged.canonical_bytes(),
                canonical.canonical_bytes(),
                "partition/merge at {n} shards is not canonical"
            );
        }
    }

    #[test]
    fn routing_is_stable_and_groups_whole_subtrees() {
        let sharded = sharded(4);
        let root = Dn::parse("o=att").expect("dn");
        let deep = Dn::parse("uid=suciu,ou=databases,ou=attLabs,o=att").expect("dn");
        assert_eq!(sharded.shard_of_dn(&root), sharded.shard_of_dn(&deep));
        // Case and spacing differences in the root RDN do not reroute.
        let shouty = Dn::parse("uid=x,O=ATT").expect("dn");
        assert_eq!(sharded.shard_of_dn(&root), sharded.shard_of_dn(&shouty));
    }

    #[test]
    fn single_shard_apply_matches_unsharded_and_updates_ledger() {
        let sharded = sharded(4);
        let before = sharded.len();
        let outcome = sharded
            .apply_ldif(records(
                "dn: uid=newbie,ou=databases,ou=attLabs,o=att\nobjectClass: researcher\nobjectClass: person\nobjectClass: top\nuid: newbie\nname: newbie\n",
            ))
            .expect("legal insert");
        assert_eq!(outcome.shards.len(), 1);
        assert_eq!(outcome.gid, None);
        assert_eq!(sharded.len(), before + 1);
        assert!(sharded.is_legal());
    }

    #[test]
    fn emptying_a_required_class_is_rolled_back_with_the_unsharded_code() {
        let (dir, _) = white_pages_instance();
        // Unsharded verdict for deleting the only organization's leaf
        // chain is "rolled-back"; the sharded ledger must agree when a
        // delete would empty ◇organization. Delete every person, then
        // every unit, then the org — the org delete is the ◇ breaker,
        // but earlier deletes already violate local required rels, so
        // build a minimal two-record case instead: delete a leaf person
        // that is the only `de person` witness? Simpler: check the
        // ledger path directly with a delete of the lone organization
        // subtree bottom-up in one transaction.
        let sharded = ShardedDirectory::with_instance(white_pages_schema(), dir.clone(), 2)
            .expect("legal seed");
        let mut text = String::new();
        // Bottom-up whole-subtree delete of o=att: every entry listed
        // leaf-first so the leaf-only discipline is satisfied and the
        // verdict is the ◇-class rollback, not invalid-tx.
        let mut dns: Vec<(usize, String)> = Vec::new();
        for (id, _) in dir.iter() {
            let dn = dir.dn(id).expect("dn");
            dns.push((dn.rdns().len(), dn.to_string()));
        }
        dns.sort_by_key(|d| std::cmp::Reverse(d.0));
        for (_, dn) in &dns {
            text.push_str(&format!("dn: {dn}\nchangetype: delete\n\n"));
        }
        let err = sharded.apply_ldif(records(&text)).expect_err("must roll back");
        assert_eq!(err.code(), "rolled-back", "{err}");
        // Nothing changed, ledger included.
        assert_eq!(sharded.len(), dir.len());
        assert!(sharded.is_legal());
    }

    #[test]
    fn cross_shard_apply_is_atomic_under_a_failing_shard() {
        let sharded = sharded(8);
        let mems = journal_in_memory(&sharded);
        let shard_bytes = |k: usize| sharded.shard_instance(k).canonical_bytes();
        let parts_before: Vec<Vec<u8>> = (0..8).map(shard_bytes).collect();
        let before = sharded.merged_instance().expect("merge").canonical_bytes();
        // Two new top-level orgs on provably different shards in one
        // transaction; the second is illegal (an organization with an
        // organization child is forbidden by Ef, and it lacks the
        // required person descendant).
        let (good, bad) = two_names_on_distinct_shards(8);
        let text = format!(
            "dn: o={good}\nobjectClass: organization\nobjectClass: orgGroup\nobjectClass: online\nobjectClass: top\no: {good}\nuri: https://good.example\n\ndn: ou=grp,o={good}\nobjectClass: orgUnit\nobjectClass: orgGroup\nobjectClass: top\nou: grp\n\ndn: uid=p,ou=grp,o={good}\nobjectClass: person\nobjectClass: top\nuid: p\nname: p\n\ndn: o={bad}\nobjectClass: organization\nobjectClass: orgGroup\nobjectClass: online\nobjectClass: top\no: {bad}\nuri: https://bad.example\n\ndn: o=worse,o={bad}\nobjectClass: organization\nobjectClass: orgGroup\nobjectClass: online\nobjectClass: top\no: worse\nuri: https://worse.example\n"
        );
        let err = sharded.apply_ldif(records(&text)).expect_err("one shard must fail");
        assert_eq!(err.code(), "rolled-back", "{err}");
        let after = sharded.merged_instance().expect("merge").canonical_bytes();
        assert_eq!(before, after, "failed cross-shard tx left residue");
        assert!(sharded.is_legal());
        // No shard's instance moved, slot for slot — the refusal came
        // before anything was installed anywhere.
        assert_eq!((0..8).map(shard_bytes).collect::<Vec<_>>(), parts_before);
        // The shard certified first (shard 0) had flushed its begin
        // records when shard 1 refused; the refusing shard journalled
        // nothing. Recovery discards that one uncommitted tail.
        let journals: Vec<Journal> = mems.iter().map(|m| Journal::parse(&m.take())).collect();
        let tails: Vec<usize> = journals.iter().map(|j| j.txs.len()).collect();
        assert_eq!(tails, [1, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!(journals[0].committed().count(), 0);
        let (dir, _) = white_pages_instance();
        let bases = partition(&dir, 8).expect("partition");
        let (recovered, reports) =
            recover(white_pages_schema(), bases, &journals).expect("recover");
        assert_eq!(reports.iter().map(|r| (r.replayed, r.discarded)).max(), Some((0, 1)));
        assert_eq!(recovered.merged_instance().expect("merge").canonical_bytes(), before);
    }

    #[test]
    fn torn_cross_shard_commit_reconciles_to_the_rolled_back_state() {
        // Drive a 2-phase apply that panics after shard A's commit was
        // flushed but before shard B's: live state rolls back; recovery
        // from the two journals must agree with the rollback.
        use bschema_faults::FaultPlan;

        let (dir, _) = white_pages_instance();
        let schema = white_pages_schema();
        let bases = partition(&dir, 2).expect("partition");
        let sharded = ShardedDirectory::with_instance(schema.clone(), dir.clone(), 2)
            .expect("legal seed")
            .with_probe(Arc::new(FaultPlan::fail_at_site("sharded.commit.shard1", 0)));
        let mems = journal_in_memory(&sharded);

        let (name0, name1) = two_names_on_distinct_shards(2);
        let text = format!("{}\n{}", org_ldif(&name0), org_ldif(&name1));

        bschema_faults::silence_injected_panics();
        let err = sharded.apply_ldif(records(&text)).expect_err("injected panic");
        assert_eq!(err.code(), "panicked", "{err}");

        let live = sharded.merged_instance().expect("merge").canonical_bytes();
        let seeded = canonical_merge(partition(&dir, 1).expect("partition").iter()).expect("merge");
        assert_eq!(live, seeded.canonical_bytes(), "rollback incomplete");

        // Shard 0's journal holds a committed half of the global tx;
        // shard 1's only the begin records. Reconciled recovery must
        // discard the tx on both shards.
        let journals = [Journal::parse(&mems[0].take()), Journal::parse(&mems[1].take())];
        let has_commit = |j: &Journal| j.txs.iter().any(|t| t.committed && t.gid.is_some());
        assert!(has_commit(&journals[0]) ^ has_commit(&journals[1]), "expected a torn commit");
        let (recovered, reports) = recover(schema, bases, &journals).expect("recover");
        assert_eq!(reports.iter().map(|r| r.replayed).sum::<usize>(), 0);
        assert_eq!(reports.iter().map(|r| r.discarded).sum::<usize>(), 2);
        let recovered_bytes = recovered.merged_instance().expect("merge").canonical_bytes();
        assert_eq!(recovered_bytes, live, "recovery disagrees with live rollback");
        assert!(recovered.is_legal());
    }

    #[test]
    fn committed_cross_shard_tx_survives_recovery() {
        let (dir, _) = white_pages_instance();
        let schema = white_pages_schema();
        let bases = partition(&dir, 2).expect("partition");
        let sharded = ShardedDirectory::with_instance(schema.clone(), dir, 2).expect("legal seed");
        let mems = journal_in_memory(&sharded);
        let (name0, name1) = two_names_on_distinct_shards(2);
        let text = format!("{}\n{}", org_ldif(&name0), org_ldif(&name1));
        let outcome = sharded.apply_ldif(records(&text)).expect("legal cross-shard tx");
        assert_eq!(outcome.shards, vec![0, 1]);
        assert!(outcome.gid.is_some());

        let live = sharded.merged_instance().expect("merge").canonical_bytes();
        let journals = [Journal::parse(&mems[0].take()), Journal::parse(&mems[1].take())];
        let (recovered, reports) = recover(schema, bases, &journals).expect("recover");
        assert_eq!(reports.iter().map(|r| r.replayed).sum::<usize>(), 2);
        assert_eq!(
            recovered.merged_instance().expect("merge").canonical_bytes(),
            live,
            "committed cross-shard tx lost in recovery"
        );
    }

    #[test]
    fn single_shard_modify_routes_journals_and_recovers() {
        let (dir, _) = white_pages_instance();
        let schema = white_pages_schema();
        let bases = partition(&dir, 2).expect("partition");
        let sharded = ShardedDirectory::with_instance(schema.clone(), dir, 2).expect("legal seed");
        let mems = journal_in_memory(&sharded);
        let name = name_on_shard(0, 2);
        sharded.apply_ldif(records(&org_ldif(&name))).expect("subtree inserts");

        let dn = Dn::parse(&format!("uid=p,ou=u,o={name}")).expect("dn");
        let mods = [
            Mod::Add { attribute: "title".into(), value: "tester".into() },
            Mod::Replace { attribute: "name".into(), values: vec!["p. tester".into()] },
        ];
        let outcome = sharded.modify_dn(&dn, &mods).expect("modify applies");
        assert_eq!(outcome.shards, vec![0]);
        assert_eq!(outcome.gid, None);
        let after = sharded.shard_instance(0);
        let id = after.lookup_dn(&dn).expect("entry still there");
        assert_eq!(after.entry(id).expect("entry").values("title"), ["tester"]);
        assert_eq!(after.entry(id).expect("entry").values("name"), ["p. tester"]);

        // The modify is journalled: recovery replays it.
        let live = sharded.merged_instance().expect("merge").canonical_bytes();
        let journals = [Journal::parse(&mems[0].take()), Journal::parse(&mems[1].take())];
        assert!(
            journals[0].committed().any(|tx| matches!(tx.payload, Payload::Modify(_))),
            "modify tx missing from shard 0 journal"
        );
        let (recovered, _) = recover(schema, bases, &journals).expect("recover");
        assert_eq!(recovered.merged_instance().expect("merge").canonical_bytes(), live);
    }

    #[test]
    fn modify_respects_the_required_class_ledger() {
        let sharded = sharded(2);
        let mems = journal_in_memory(&sharded);
        // o=att is the only organization; a modify dropping its class
        // would empty ◇organization — refused at admission, before any
        // journal record or mutation.
        let dn = Dn::parse("o=att").expect("dn");
        let err = sharded
            .modify_dn(
                &dn,
                &[Mod::DeleteValue {
                    attribute: "objectClass".into(),
                    value: "organization".into(),
                }],
            )
            .expect_err("must not empty a required class");
        assert_eq!(err.code(), "rolled-back", "{err}");
        let k = sharded.shard_of_dn(&dn);
        assert_eq!(mems[k].take(), "", "refused modify must not journal");

        // Unknown targets report no-such-entry.
        let ghost = Dn::parse("o=nowhere").expect("dn");
        let err = sharded
            .modify_dn(&ghost, &[Mod::DeleteAttribute { attribute: "description".into() }])
            .expect_err("ghost target");
        assert_eq!(err.code(), "no-such-entry");
    }

    #[test]
    fn checkpointed_sharded_recovery_matches_live_state() {
        let (dir, _) = white_pages_instance();
        let schema = white_pages_schema();
        let bases = partition(&dir, 2).expect("partition");
        let sharded = ShardedDirectory::with_instance(schema.clone(), dir, 2).expect("legal seed");
        let mems = journal_in_memory(&sharded);

        // History before the checkpoint: one committed cross-shard tx.
        let (name0, name1) = two_names_on_distinct_shards(2);
        let text = format!("{}\n{}", org_ldif(&name0), org_ldif(&name1));
        sharded.apply_ldif(records(&text)).expect("cross-shard tx");
        let hist: Vec<String> = mems.iter().map(MemoryJournal::take).collect();

        let ckpts = sharded.checkpoint_all();
        assert_eq!(ckpts.len(), 2);
        let ckpt_texts: Vec<Option<String>> = ckpts.iter().map(|c| Some(c.encode())).collect();

        // Tail after the checkpoint: a fresh subtree and a modify.
        let extra = (0..2048)
            .map(|i| format!("x{i}"))
            .find(|n| shard_of_root_rdn(&Rdn::single("o", n.clone()), 2) == 1)
            .expect("some name hashes to shard 1");
        sharded.apply_ldif(records(&org_ldif(&extra))).expect("tail insert");
        let dn = Dn::parse(&format!("uid=p,ou=u,o={name0}")).expect("dn");
        sharded
            .modify_dn(&dn, &[Mod::Add { attribute: "title".into(), value: "tail".into() }])
            .expect("tail modify");
        let tails: Vec<String> = mems.iter().map(MemoryJournal::take).collect();
        let live = sharded.merged_instance().expect("merge").canonical_bytes();

        // Steady state: checkpoint + short tail per shard.
        let journals = [Journal::parse(&tails[0]), Journal::parse(&tails[1])];
        for (k, journal) in journals.iter().enumerate() {
            assert_eq!(journal.start_seq, ckpts[k].seq, "tail must start at the checkpoint");
        }
        let (recovered, reports) = ShardedDirectory::recover_with_checkpoints(
            schema.clone(),
            bases.clone(),
            &ckpt_texts,
            &journals,
        )
        .expect("checkpoint + tail recovers");
        assert_eq!(reports.iter().map(|r| r.replayed).sum::<usize>(), 2);
        assert_eq!(recovered.merged_instance().expect("merge").canonical_bytes(), live);

        // Crash before truncation: checkpoint + full journal. The
        // replay rule must not double-apply the checkpointed prefix.
        let fulls = [format!("{}{}", hist[0], tails[0]), format!("{}{}", hist[1], tails[1])];
        let journals = [Journal::parse(&fulls[0]), Journal::parse(&fulls[1])];
        let (recovered, reports) = ShardedDirectory::recover_with_checkpoints(
            schema.clone(),
            bases.clone(),
            &ckpt_texts,
            &journals,
        )
        .expect("checkpoint + full journal recovers");
        assert_eq!(reports.iter().map(|r| r.replayed).sum::<usize>(), 2);
        assert_eq!(recovered.merged_instance().expect("merge").canonical_bytes(), live);

        // No checkpoints at all: plain full replay still converges.
        let no_ckpts = vec![None, None];
        let (recovered, _) =
            ShardedDirectory::recover_with_checkpoints(schema, bases, &no_ckpts, &journals)
                .expect("full replay recovers");
        assert_eq!(recovered.merged_instance().expect("merge").canonical_bytes(), live);
    }

    /// The white-pages schema evolved by one relaxing step, plus its
    /// canonical DSL document.
    fn relaxed_schema() -> (DirectorySchema, String) {
        let step = crate::evolution::Evolution::AllowAttribute {
            class: "person".into(),
            attribute: "nickname".into(),
        };
        let target = crate::evolution::apply(&white_pages_schema(), &step).expect("relaxing step");
        let dsl = crate::schema::dsl::print_schema(&target, None);
        (target, dsl)
    }

    #[test]
    fn schema_swap_is_journalled_on_every_shard_and_recovers() {
        let (dir, _) = white_pages_instance();
        let schema = white_pages_schema();
        let bases = partition(&dir, 2).expect("partition");
        let sharded = ShardedDirectory::with_instance(schema.clone(), dir, 2).expect("legal seed");
        let mems = journal_in_memory(&sharded);

        let (target, dsl) = relaxed_schema();
        sharded.swap_schema_validated(target.clone(), &dsl, |_| Ok(())).expect("relaxing cutover");
        assert_eq!(
            crate::schema::dsl::print_schema(&sharded.schema(), None),
            dsl,
            "live epoch must be the evolved schema"
        );
        // A write only legal under the evolved schema now commits.
        sharded
            .apply_ldif(records(
                "dn: uid=nick,ou=databases,ou=attLabs,o=att\nobjectClass: person\nobjectClass: top\nuid: nick\nname: nick\nnickname: nn\n",
            ))
            .expect("evolved-schema insert");
        assert!(sharded.is_legal());

        // Recovery from the boot schema replays the cutover and the
        // post-cutover write, converging on the evolved epoch.
        let live = sharded.merged_instance().expect("merge").canonical_bytes();
        let journals = [Journal::parse(&mems[0].take()), Journal::parse(&mems[1].take())];
        for (k, journal) in journals.iter().enumerate() {
            assert!(
                journal.committed().any(|tx| matches!(tx.payload, Payload::Schema(_))),
                "shard {k} journal is missing the schema record"
            );
        }
        let (recovered, _) = recover(schema, bases, &journals).expect("recover across cutover");
        assert_eq!(crate::schema::dsl::print_schema(&recovered.schema(), None), dsl);
        assert_eq!(recovered.merged_instance().expect("merge").canonical_bytes(), live);
        assert!(recovered.is_legal());
    }

    #[test]
    fn torn_schema_swap_reconciles_to_the_old_epoch() {
        let (dir, _) = white_pages_instance();
        let schema = white_pages_schema();
        let bases = partition(&dir, 2).expect("partition");
        let sharded = ShardedDirectory::with_instance(schema.clone(), dir, 2).expect("legal seed");
        let mems = journal_in_memory(&sharded);
        let (target, dsl) = relaxed_schema();
        sharded.swap_schema_validated(target, &dsl, |_| Ok(())).expect("cutover");

        // Simulate a crash between the commit flushes: shard 1 keeps
        // only its begin+schema records (strip the trailing commit
        // paragraph). The all-peers rule must discard the cutover on
        // both shards.
        let full = mems[1].take();
        let cut = full.rfind("\ndn: op=").expect("commit record present");
        let torn = &full[..cut + 1];
        let journals = [Journal::parse(&mems[0].take()), Journal::parse(torn)];
        let cutover =
            |j: &Journal| j.committed().any(|tx| matches!(tx.payload, Payload::Schema(_)));
        assert!(cutover(&journals[0]) && !cutover(&journals[1]));
        let (recovered, _) = recover(schema.clone(), bases, &journals).expect("recover");
        assert_eq!(
            crate::schema::dsl::print_schema(&recovered.schema(), None),
            crate::schema::dsl::print_schema(&schema, None),
            "a torn cutover must roll back to the boot epoch"
        );
    }

    /// A cutover on two shards that panics at `site`'s `occurrence`:
    /// the call returns `panicked` with the epoch, every shard and the
    /// `◇c` ledger as they were, recovery from the journals lands on the
    /// old epoch, and the same call without the fault commits.
    fn panicking_cutover_returns_and_retries(site: &str, occurrence: u64) {
        use bschema_faults::{silence_injected_panics, FaultPlan};

        silence_injected_panics();
        let (dir, _) = white_pages_instance();
        let schema = white_pages_schema();
        let plan = Arc::new(FaultPlan::fail_at_site(site, occurrence));
        let sharded = ShardedDirectory::with_instance(schema.clone(), dir.clone(), 2)
            .expect("legal seed")
            .with_probe(plan.clone());
        let mems = journal_in_memory(&sharded);
        let state = |s: &ShardedDirectory| {
            let shards: Vec<Vec<u8>> =
                (0..s.shards()).map(|k| s.shard_instance(k).canonical_bytes()).collect();
            (crate::schema::dsl::print_schema(&s.schema(), None), shards, s.ledger())
        };
        let before = state(&sharded);

        let (target, dsl) = relaxed_schema();
        let err = sharded
            .swap_schema_validated(target.clone(), &dsl, |_| Ok(()))
            .expect_err("injected panic");
        assert_eq!(err.code(), "panicked", "{site}: {err}");
        assert_eq!(plan.injected(), 1, "{site}");
        assert_eq!(state(&sharded), before, "{site}: a shard moved");

        let journals: Vec<Journal> = mems.iter().map(|m| Journal::parse(&m.take())).collect();
        let bases = partition(&dir, 2).expect("partition");
        let (recovered, _) = recover(schema, bases, &journals).expect("recover");
        assert_eq!(state(&recovered), before, "{site}: recovery left the old epoch");

        sharded.swap_schema_validated(target, &dsl, |_| Ok(())).expect("the retry commits");
        assert_eq!(crate::schema::dsl::print_schema(&sharded.schema(), None), dsl);
    }

    #[test]
    fn a_panic_at_the_cutover_site_returns_with_the_old_epoch() {
        panicking_cutover_returns_and_retries(crate::engine::SITE_SCHEMA_CUTOVER, 0);
    }

    #[test]
    fn a_panic_between_two_cutover_commit_flushes_returns_with_the_old_epoch() {
        // The second commit span is shard 1's, after shard 0's commit
        // record was flushed.
        panicking_cutover_returns_and_retries("span:journal.commit", 1);
    }

    #[test]
    fn checkpoints_after_a_swap_embed_and_restore_the_evolved_epoch() {
        let (dir, _) = white_pages_instance();
        let schema = white_pages_schema();
        let bases = partition(&dir, 2).expect("partition");
        let sharded = ShardedDirectory::with_instance(schema.clone(), dir, 2).expect("legal seed");
        let _mems = journal_in_memory(&sharded);
        let (target, dsl) = relaxed_schema();
        sharded.swap_schema_validated(target, &dsl, |_| Ok(())).expect("cutover");

        // Checkpoints taken after the cutover embed the full evolved
        // schema; recovery from them (journals truncated, boot schema
        // pre-evolution) must land on the evolved epoch.
        let ckpts = sharded.checkpoint_all();
        let ckpt_texts: Vec<Option<String>> = ckpts.iter().map(|c| Some(c.encode())).collect();
        let empties = [Journal::parse(""), Journal::parse("")];
        let (recovered, _) =
            ShardedDirectory::recover_with_checkpoints(schema, bases, &ckpt_texts, &empties)
                .expect("checkpointed recovery across cutover");
        assert_eq!(crate::schema::dsl::print_schema(&recovered.schema(), None), dsl);
        assert_eq!(
            recovered.merged_instance().expect("merge").canonical_bytes(),
            sharded.merged_instance().expect("merge").canonical_bytes()
        );
    }
}
