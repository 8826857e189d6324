//! The write plane: `TXN` and `MODIFY`, routed to the backend, certified
//! and journalled by the engine, then published to the readers.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use bschema_core::engine::Op;
use bschema_core::managed::ManagedError;
use bschema_core::sharded::ShardedDirectory;
use bschema_core::updates::{transaction_from_ldif, Mod};
use bschema_core::ManagedDirectory;
use bschema_directory::ldif::{parse_ldif_limited, LdifRecord};
use bschema_directory::{DirectoryInstance, Dn};
use bschema_obs::{names, scoped, Probe};

use super::{lock_unpoisoned, Backend, DirectoryService, ServiceError};

/// What a committed write changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxOutcome {
    /// Operations in the transaction (insertions + deletions; 1 for a
    /// `MODIFY`).
    pub ops: usize,
    /// Directory size after the commit.
    pub len: usize,
    /// Shards the transaction touched (always 1 on the single-engine
    /// backend; > 1 means the 2-phase cross-shard path committed it).
    pub shards: usize,
}

/// A write verb, parsed but not yet routed.
enum Write<'a> {
    Txn(Vec<LdifRecord>),
    Modify { dn: &'a Dn, mods: &'a [Mod] },
}

impl DirectoryService {
    /// Applies an LDIF transaction body atomically: parse (bounded),
    /// build the transaction against the current instance, checked apply
    /// on a copy, write-ahead `begin`, `commit`, install, snapshot swap.
    /// On any rejection the instance — and the snapshot — are exactly
    /// what they were.
    pub fn apply_ldif_tx(&self, ldif: &str) -> Result<TxOutcome, ServiceError> {
        self.apply_ldif_tx_traced(ldif, &*self.probe)
    }

    /// [`apply_ldif_tx`](DirectoryService::apply_ldif_tx) reporting to
    /// `probe`, the request's own (its trace, on a traced server). Each
    /// service stage of the write path opens a `service.*` span, and the
    /// engine runs its whole apply with the same probe, so the legality
    /// engine's span tree (down to each Figure 5 Δ-query) and both
    /// journal flushes land under this request's root.
    pub(crate) fn apply_ldif_tx_traced(
        &self,
        ldif: &str,
        probe: &dyn Probe,
    ) -> Result<TxOutcome, ServiceError> {
        self.writable(probe)?;
        let records = scoped(probe, "service.parse_ldif", || {
            parse_ldif_limited(ldif, &self.limits.ldif)
                .map_err(|e| ServiceError::new("bad-ldif", e.to_string()))
        })?;
        self.write(Write::Txn(records), probe)
    }

    /// Applies an attribute-level modification to the entry named `dn`,
    /// atomically through the same write path as `TXN`. On a journaled
    /// server the modification is write-ahead logged as a `modify`
    /// record, so recovery replays it; on the sharded backend it routes
    /// to the single shard owning the DN's top-level subtree — MODIFY
    /// never crosses a Theorem 4.1 boundary, so the 2-phase path is
    /// never needed.
    pub fn modify(&self, dn_src: &str, mods: &[Mod]) -> Result<TxOutcome, ServiceError> {
        self.modify_traced(dn_src, mods, &*self.probe)
    }

    /// [`modify`](DirectoryService::modify) reporting to the request's
    /// `probe`, threaded exactly as a `TXN`'s.
    pub(crate) fn modify_traced(
        &self,
        dn_src: &str,
        mods: &[Mod],
        probe: &dyn Probe,
    ) -> Result<TxOutcome, ServiceError> {
        self.writable(probe)?;
        let dn = Dn::parse(dn_src).map_err(|e| ServiceError::new("bad-dn", e.to_string()))?;
        self.write(Write::Modify { dn: &dn, mods }, probe)
    }

    /// Routes a write verb to its backend — the one place the write
    /// side dispatches — and settles it: a commit is counted and may
    /// trip the `--checkpoint-every` trigger, a refusal is counted
    /// under its code.
    fn write(&self, write: Write<'_>, probe: &dyn Probe) -> Result<TxOutcome, ServiceError> {
        // Fault site: a worker dying here has changed nothing.
        probe.add("server.tx_admitted", 1);
        let applied = match &self.backend {
            Backend::Single(engine) => {
                self.write_single(&mut lock_unpoisoned(engine), write, probe)
            }
            Backend::Sharded(sharded) => self.write_sharded(sharded, write, probe),
        };
        match applied {
            Ok(outcome) => {
                // Fault site: a worker dying here has already committed;
                // the client sees "panicked" (outcome unknown), readers
                // see the new legal instance.
                probe.add(names::TX_COMMITTED, 1);
                self.after_commit();
                Ok(outcome)
            }
            Err(e) => {
                probe.add_labeled(names::TX_REJECTED, e.code, 1);
                Err(e)
            }
        }
    }

    /// The single-engine write path, under the held write mutex: build
    /// the operation against the current instance, then the directory's
    /// write-ahead sequence ([`ManagedDirectory::apply_op`], reporting to
    /// the request's probe), then publish. On any rejection the
    /// instance, the snapshot and the journal's committed prefix are
    /// exactly what they were.
    fn write_single(
        &self,
        engine: &mut ManagedDirectory,
        write: Write<'_>,
        probe: &dyn Probe,
    ) -> Result<TxOutcome, ServiceError> {
        let tx;
        let (op, ops) = match write {
            Write::Txn(records) => {
                tx = scoped(probe, "service.tx_build", || {
                    transaction_from_ldif(engine.instance(), records).map_err(ManagedError::from)
                })?;
                (Op::Tx { tx: &tx, global: None }, tx.len())
            }
            Write::Modify { dn, mods } => {
                (Op::Modify { target: engine.lookup(dn)?, mods }, mods.len())
            }
        };
        // A failed commit flush does not revoke the verdict; only
        // durability degraded, and the engine counts it
        // (`server.journal_commit_io_error`) instead of failing the
        // certified request.
        let _counted = engine.apply_op(op, probe)?;
        scoped(probe, "service.publish", || self.publish(0, engine.shared_instance(), probe));
        Ok(TxOutcome { ops, len: engine.len(), shards: 1 })
    }

    /// The sharded write path: the router decodes, vets (◇c ledger),
    /// journals and applies the write on exactly the shards its DN
    /// prefixes route to — one locked shard on the fast path (always,
    /// for a MODIFY), the 2-phase apply across all involved shards
    /// otherwise — then each touched shard republishes its own
    /// snapshot. Untouched shards keep serving reads and committing
    /// concurrently throughout.
    fn write_sharded(
        &self,
        sharded: &ShardedDirectory,
        write: Write<'_>,
        probe: &dyn Probe,
    ) -> Result<TxOutcome, ServiceError> {
        let outcome = scoped(probe, "service.apply_sharded", || match write {
            Write::Txn(records) => sharded.apply_ldif(records),
            Write::Modify { dn, mods } => sharded.modify_dn(dn, mods),
        })?;
        scoped(probe, "service.publish", || {
            for &k in &outcome.shards {
                sharded.with_shard(k, |engine| self.publish(k, engine.shared_instance(), probe));
            }
        });
        let route = if outcome.shards.len() > 1 { "cross" } else { "single" };
        probe.add_labeled("server.tx_route", route, 1);
        Ok(TxOutcome { ops: outcome.ops, len: self.len(), shards: outcome.shards.len().max(1) })
    }

    /// The gate every write verb passes first: a read replica refuses
    /// it with the stable `read-only` code, counted under that code.
    pub(super) fn writable(&self, probe: &dyn Probe) -> Result<(), ServiceError> {
        if self.replication.is_none() {
            return Ok(());
        }
        probe.add_labeled(names::TX_REJECTED, "read-only", 1);
        Err(ServiceError::new(
            "read-only",
            "this server is a read replica; send writes to the primary",
        ))
    }

    /// Publishes `live` — the version shard `k`'s engine just installed
    /// — as its read snapshot: the one place a committed state becomes
    /// visible to readers, called with the lock that serialises shard
    /// `k`'s writes still held, so snapshots appear in commit order.
    /// Nothing is copied. The superseded version is released last and
    /// outside the slot's lock, so no reader waits on its drop.
    pub(super) fn publish(&self, k: usize, live: Arc<DirectoryInstance>, probe: &dyn Probe) {
        let _superseded = std::mem::replace(
            &mut *self.snapshots[k].write().unwrap_or_else(|e| e.into_inner()),
            live,
        );
        self.last_swap_us[k].store(self.uptime_us(), Ordering::Relaxed);
        match self.sharded() {
            None => probe.add("server.snapshot_swap", 1),
            Some(_) => probe.add_labeled("server.shard_snapshot_swap", &names::shard(k), 1),
        }
    }

    /// The `--checkpoint-every` trigger, called after every commit once
    /// its locks are released. A failed checkpoint surfaces through the
    /// probe, never by failing the already-committed request; the
    /// counter stays saturated so the next commit retries.
    fn after_commit(&self) {
        let Some(every) = self.checkpoint_every else { return };
        if self.journaled && self.since_checkpoint.fetch_add(1, Ordering::Relaxed) + 1 >= every {
            if let Err(e) = self.checkpoint_now() {
                self.probe.add_labeled("server.checkpoint_error", e.code, 1);
            }
        }
    }
}
