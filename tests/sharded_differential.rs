//! The sharded≡unsharded differential oracle.
//!
//! Replays one generated multi-organization LDIF workload (legal and
//! illegal, single- and cross-subtree transactions) through the
//! unsharded [`ManagedDirectory`] and through [`ShardedDirectory`] at
//! 1, 2, 4, and 8 shards, asserting:
//!
//! * the per-transaction verdict (commit, or the exact rejection code)
//!   is identical on every engine, and
//! * the final instances are byte-identical under the canonical merge
//!   ([`bschema_core::sharded::canonical_merge`]), which rebuilds any
//!   partition — including the 1-part "partition" of the unsharded
//!   engine — into the same canonical entry order.
//!
//! Every commit on either engine is also held against the paper's own
//! deletion recheck: what the scoped check of the write path let through,
//! Figure 5's whole-instance evaluation lets through too. And every
//! verdict — reached on (D, ∆D) before anything is copied — is held
//! against the clone-and-check oracle, `apply_and_check_probed` on a copy
//! of the engine's instance: the same refusal byte for byte, or the same
//! committed instance. On the sharded backend the oracle runs per shard,
//! on each shard's part of the transaction.
//!
//! A seed override (`CHAOS_SEED`) lets CI run fresh workloads nightly
//! while the default stays reproducible.

use bschema_core::managed::{ManagedDirectory, ManagedError};
use bschema_core::paper::white_pages_schema;
use bschema_core::schema::DirectorySchema;
use bschema_core::sharded::{canonical_merge, partition, ShardedDirectory};
use bschema_core::updates::{apply_and_check_probed, transaction_from_ldif, Transaction};
use bschema_core::Violation;
use bschema_directory::ldif::{parse_ldif, LdifRecord};
use bschema_directory::DirectoryInstance;
use bschema_workload::oracle::scoped_deletion_matches_figure5;
use bschema_workload::{GeneratedTx, LdifWorkload, LdifWorkloadParams};

/// Workload seed: `CHAOS_SEED` env override for CI freshness, fixed
/// default for reproducibility.
fn seed() -> u64 {
    match std::env::var("CHAOS_SEED") {
        Ok(v) => v.parse().expect("CHAOS_SEED must be a u64"),
        Err(_) => 0xD1FF,
    }
}

fn workload() -> (bschema_directory::DirectoryInstance, Vec<GeneratedTx>) {
    LdifWorkload::generate(LdifWorkloadParams {
        orgs: 6,
        entries_per_org: 60,
        transactions: 220,
        seed: seed(),
    })
}

/// The clone-and-check oracle: `tx` applied to a copy of `dir` and
/// checked there — the refusal, or the instance to commit.
fn oracle(
    schema: &DirectorySchema,
    dir: &DirectoryInstance,
    tx: &Transaction,
) -> Result<DirectoryInstance, ManagedError> {
    let mut copy = dir.clone();
    match apply_and_check_probed(schema, &mut copy, tx, bschema_obs::noop()) {
        Err(e) => Err(ManagedError::Transaction(e)),
        Ok(applied) if !applied.report.is_legal() => Err(ManagedError::RolledBack(applied.report)),
        Ok(_) => Ok(copy),
    }
}

/// A refusal as the oracle compares it: code and wording.
fn said(e: &ManagedError) -> (&'static str, String) {
    (e.code(), e.to_string())
}

/// Replays `txs` through an unsharded managed directory; returns the
/// verdict per transaction ("committed" or the rejection code) and the
/// canonical bytes of the final state.
fn replay_unsharded(
    base: &bschema_directory::DirectoryInstance,
    txs: &[GeneratedTx],
) -> (Vec<&'static str>, Vec<u8>) {
    let mut managed = ManagedDirectory::with_instance(white_pages_schema(), base.clone())
        .expect("generated base is legal");
    let mut verdicts = Vec::with_capacity(txs.len());
    for tx in txs {
        let records = parse_ldif(&tx.ldif).expect("generated ldif parses");
        let before = managed.shared_instance();
        let verdict = match transaction_from_ldif(managed.instance(), records) {
            Err(e) => ManagedError::from(e).code(),
            Ok(tx) => {
                let want = oracle(managed.schema(), managed.instance(), &tx);
                match (managed.apply(&tx), want) {
                    (Ok(()), Ok(copy)) => {
                        assert_eq!(managed.instance().canonical_bytes(), copy.canonical_bytes());
                        "committed"
                    }
                    (Err(e), Err(want)) => {
                        assert_eq!(said(&e), said(&want), "the verdict differs from the copy's");
                        e.code()
                    }
                    (got, want) => panic!("engine {got:?}, oracle {want:?}:\n{tx:?}"),
                }
            }
        };
        managed.instance().check_prepared().expect("numbering and index are maintained");
        scoped_deletion_matches_figure5(managed.schema(), &before, managed.instance())
            .expect("the scoped deletion check agrees with Figure 5");
        verdicts.push(verdict);
    }
    let merged = canonical_merge(partition(managed.instance(), 1).expect("partition").iter())
        .expect("merge");
    (verdicts, merged.canonical_bytes())
}

/// What the oracle expects of the sharded router on `records`, as far as
/// the shards decide it: the first decoding or normalisation refusal of
/// any shard's part, else the first refusal of a part checked on a copy
/// of its shard (ascending shard order, as the 2-phase apply certifies),
/// else each involved shard's committed instance. `None` for a refusal
/// leaves the verdict to the `◇c` ledger, which admits first.
fn sharded_oracle(
    sharded: &ShardedDirectory,
    records: &[LdifRecord],
) -> Result<Vec<(usize, DirectoryInstance)>, Option<ManagedError>> {
    let mut groups: Vec<Vec<LdifRecord>> = (0..sharded.shards()).map(|_| Vec::new()).collect();
    for rec in records {
        groups[sharded.shard_of_dn(&rec.dn)].push(rec.clone());
    }
    let mut parts = Vec::new();
    for (k, group) in groups.into_iter().enumerate().filter(|(_, g)| !g.is_empty()) {
        let (schema, dir) = sharded.with_shard(k, |e| (e.schema().clone(), e.shared_instance()));
        let tx = transaction_from_ldif(&dir, group).map_err(|e| Some(e.into()))?;
        tx.normalize(&dir).map_err(|e| Some(e.into()))?;
        parts.push((k, schema, dir, tx));
    }
    let mut committed = Vec::new();
    let mut refusal = None;
    for (k, schema, dir, tx) in parts {
        match oracle(&schema, &dir, &tx) {
            Ok(copy) => committed.push((k, copy)),
            Err(e) => {
                refusal = refusal.or(Some(e));
            }
        }
    }
    match refusal {
        Some(e) => Err(Some(e)),
        None => Ok(committed),
    }
}

/// A refusal the `◇c` ledger gave: nothing but unmet required classes.
fn from_the_ledger(e: &ManagedError) -> bool {
    matches!(e, ManagedError::RolledBack(report)
        if report.violations().iter().all(|v| matches!(v, Violation::MissingRequiredClass { .. })))
}

/// Replays `txs` through a sharded directory; returns per-transaction
/// verdicts and the canonical merge of the final shards.
fn replay_sharded(
    base: &bschema_directory::DirectoryInstance,
    txs: &[GeneratedTx],
    shards: usize,
) -> (Vec<&'static str>, Vec<u8>, usize) {
    let sharded = ShardedDirectory::with_instance(white_pages_schema(), base.clone(), shards)
        .expect("generated base is legal");
    let mut verdicts = Vec::with_capacity(txs.len());
    let mut cross_shard_commits = 0usize;
    for tx in txs {
        let records = parse_ldif(&tx.ldif).expect("generated ldif parses");
        let before: Vec<_> =
            (0..shards).map(|k| sharded.with_shard(k, |engine| engine.shared_instance())).collect();
        let want = sharded_oracle(&sharded, &records);
        let verdict = match (sharded.apply_ldif(records), want) {
            (Ok(outcome), Ok(copies)) => {
                for (k, copy) in copies {
                    let bytes = sharded.with_shard(k, |e| e.instance().canonical_bytes());
                    assert_eq!(bytes, copy.canonical_bytes(), "shard {k} committed otherwise");
                }
                if outcome.shards.len() > 1 {
                    cross_shard_commits += 1;
                }
                "committed"
            }
            (Err(e), Err(Some(want))) if said(&e) != said(&want) => {
                assert!(from_the_ledger(&e), "{e} differs from the copy's refusal {want}");
                e.code()
            }
            (Err(e), Err(_)) => e.code(),
            (Err(e), Ok(_)) if from_the_ledger(&e) => e.code(),
            (got, want) => panic!("router {got:?}, per-shard oracle {want:?}:\n{}", tx.ldif),
        };
        for (k, before) in before.iter().enumerate() {
            sharded
                .with_shard(k, |engine| {
                    engine.instance().check_prepared()?;
                    let local = engine.schema();
                    scoped_deletion_matches_figure5(local, before, engine.instance())
                })
                .expect("numbering, index and the scoped deletion check hold on every shard");
        }
        verdicts.push(verdict);
    }
    let merged = sharded.merged_instance().expect("merge");
    (verdicts, merged.canonical_bytes(), cross_shard_commits)
}

#[test]
fn sharded_matches_unsharded_at_every_shard_count() {
    let (base, txs) = workload();
    assert!(txs.len() >= 200, "oracle needs ≥200 transactions, got {}", txs.len());
    let committed_multi = txs.iter().filter(|t| t.multi_subtree && t.expect_commit).count();
    let rejected = txs.iter().filter(|t| !t.expect_commit).count();
    assert!(committed_multi >= 10, "workload has too few cross-subtree commits");
    assert!(rejected >= 20, "workload has too few rejections");

    let (expected_verdicts, expected_bytes) = replay_unsharded(&base, &txs);
    // Sanity: the generator's intent matches the reference engine.
    for (tx, verdict) in txs.iter().zip(&expected_verdicts) {
        assert_eq!(
            tx.expect_commit,
            *verdict == "committed",
            "generator intent diverges from engine on {} (verdict {verdict}):\n{}",
            tx.kind,
            tx.ldif
        );
    }

    for shards in [1usize, 2, 4, 8] {
        let (verdicts, bytes, cross_commits) = replay_sharded(&base, &txs, shards);
        for (i, (expected, got)) in expected_verdicts.iter().zip(&verdicts).enumerate() {
            assert_eq!(
                expected, got,
                "verdict diverges at {shards} shards on tx {i} ({}):\n{}",
                txs[i].kind, txs[i].ldif
            );
        }
        assert_eq!(bytes, expected_bytes, "final state diverges from unsharded at {shards} shards");
        if shards > 1 {
            assert!(
                cross_commits > 0,
                "no committed transaction spanned several shards at {shards} shards"
            );
        }
    }
}

#[test]
fn differential_states_agree_between_shard_counts_mid_stream() {
    // Byte-identity must hold at every prefix, not just the end: replay
    // the first half on 2 and 8 shards and compare the merges.
    let (base, txs) = workload();
    let half = &txs[..txs.len() / 2];
    let (_, bytes2, _) = replay_sharded(&base, half, 2);
    let (_, bytes8, _) = replay_sharded(&base, half, 8);
    assert_eq!(bytes2, bytes8, "2-shard and 8-shard states diverge mid-stream");
}
