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
//! Figure 5's whole-instance evaluation lets through too.
//!
//! A seed override (`CHAOS_SEED`) lets CI run fresh workloads nightly
//! while the default stays reproducible.

use bschema_core::managed::ManagedDirectory;
use bschema_core::paper::white_pages_schema;
use bschema_core::sharded::{canonical_merge, partition, ShardedDirectory};
use bschema_core::updates::transaction_from_ldif;
use bschema_directory::ldif::parse_ldif;
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
            Err(_) => "invalid-tx",
            Ok(tx) => match managed.apply(&tx) {
                Ok(()) => "committed",
                Err(e) => e.code(),
            },
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
        let verdict = match sharded.apply_ldif(records) {
            Ok(outcome) => {
                if outcome.shards.len() > 1 {
                    cross_shard_commits += 1;
                }
                "committed"
            }
            Err(e) => e.code(),
        };
        for (k, before) in before.iter().enumerate() {
            sharded
                .with_shard(k, |engine| {
                    engine.instance().check_prepared()?;
                    let local = engine.managed().schema();
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
