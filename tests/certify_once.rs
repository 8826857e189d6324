//! Theorem 3.1's full check, counted: every instance a boot or a restart
//! brings in is certified exactly once.
//!
//! `legality::entries_checked` counts the entries `LegalityChecker::check`
//! examined on this thread. A cold boot certifies its base once, whatever
//! the backend: the sharded one shard by shard (Theorem 4.1), with no
//! check of a merged copy, and `open`'s full replay starts from that
//! certified seed without checking it again. A restart over a checkpoint
//! certifies the seed and what it restores, nothing more.

use std::path::{Path, PathBuf};

use bschema_core::legality::entries_checked;
use bschema_core::managed::ManagedDirectory;
use bschema_core::paper::white_pages_schema;
use bschema_core::sharded::ShardedDirectory;
use bschema_core::updates::transaction_from_ldif;
use bschema_directory::ldif::parse_ldif;
use bschema_directory::DirectoryInstance;
use bschema_workload::{GeneratedTx, LdifWorkload, LdifWorkloadParams};

fn workload() -> (DirectoryInstance, Vec<GeneratedTx>) {
    LdifWorkload::generate(LdifWorkloadParams {
        orgs: 8,
        entries_per_org: 60,
        transactions: 24,
        seed: 0xCE27,
    })
}

/// A fresh directory for one test's journal files.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bschema-certify-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// The entries `f` checked on this thread, and what it returned.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = entries_checked();
    let out = f();
    (entries_checked() - before, out)
}

/// Applies every transaction to a single engine; returns how many
/// committed.
fn apply_single(engine: &mut ManagedDirectory, txs: &[GeneratedTx]) -> usize {
    let mut committed = 0;
    for tx in txs {
        let records = parse_ldif(&tx.ldif).expect("generated ldif parses");
        let Ok(tx) = transaction_from_ldif(engine.instance(), records) else { continue };
        committed += usize::from(engine.apply(&tx).is_ok());
    }
    committed
}

/// Applies every transaction through the router; returns how many
/// committed.
fn apply_sharded(sharded: &ShardedDirectory, txs: &[GeneratedTx]) -> usize {
    let records = |tx: &GeneratedTx| parse_ldif(&tx.ldif).expect("generated ldif parses");
    txs.iter().filter(|tx| sharded.apply_ldif(records(tx)).is_ok()).count()
}

fn cold_sharded(base: &DirectoryInstance, journal: &Path) -> ShardedDirectory {
    let sharded = ShardedDirectory::with_instance(white_pages_schema(), base.clone(), 4)
        .expect("generated base is legal");
    sharded.open(journal).expect("opens").0
}

#[test]
fn a_single_backend_cold_boot_checks_each_entry_once() {
    let (base, _) = workload();
    let dir = scratch("single-cold");
    let (checked, opened) = counted(|| {
        let seed = ManagedDirectory::with_instance(white_pages_schema(), base.clone()).unwrap();
        ManagedDirectory::open(seed, dir.join("wal")).expect("opens").0
    });
    assert_eq!(checked, base.len() as u64, "N, not 2N");
    assert_eq!(opened.instance().canonical_bytes(), base.canonical_bytes());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_four_shard_cold_boot_checks_each_entry_once() {
    let (base, _) = workload();
    let dir = scratch("sharded-cold");
    let (checked, opened) = counted(|| cold_sharded(&base, &dir.join("wal")));
    assert_eq!(checked, base.len() as u64, "N, not 3N");
    assert_eq!(opened.len(), base.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_four_shard_restart_over_a_checkpoint_checks_the_seed_and_what_it_restores() {
    let (base, txs) = workload();
    let dir = scratch("sharded-restart");
    let journal = dir.join("wal");
    let (before_ckpt, tail) = txs.split_at(txs.len() - 4);
    let live = cold_sharded(&base, &journal);
    assert!(apply_sharded(&live, before_ckpt) > 0, "the workload commits before the checkpoint");
    live.checkpoint(bschema_obs::noop()).expect("checkpoint campaign");
    let restored = live.len() as u64;
    apply_sharded(&live, tail);
    let expected = live.merged_instance().expect("merge").canonical_bytes();
    drop(live);

    let (checked, reopened) = counted(|| cold_sharded(&base, &journal));
    assert_eq!(checked, base.len() as u64 + restored, "seed + restored, not 3N");
    assert_eq!(reopened.merged_instance().expect("merge").canonical_bytes(), expected);
    std::fs::remove_dir_all(&dir).ok();
}

/// `RecoveryPlan::new` sends a torn checkpoint beside a journal that was
/// never truncated (`start_seq` 0) to full replay: the seed the boot
/// certified is where that replay starts, unchecked, on both backends.
#[test]
fn a_torn_checkpoint_beside_an_untruncated_journal_replays_from_the_certified_seed() {
    let (base, txs) = workload();
    let dir = scratch("torn");
    let tear = |ckpt: PathBuf| {
        let text = std::fs::read(&ckpt).expect("checkpoint written");
        std::fs::write(&ckpt, &text[..text.len() / 2]).expect("torn");
    };

    let single = dir.join("single.wal");
    let seed = ManagedDirectory::with_instance(white_pages_schema(), base.clone()).unwrap();
    let mut live = ManagedDirectory::open(seed, &single).expect("opens").0;
    let committed = apply_single(&mut live, &txs);
    assert!(committed > 0, "the workload commits");
    live.write_checkpoint(None, bschema_obs::noop()).expect("checkpoint lands");
    tear(bschema_core::checkpoint::checkpoint_path(&single));
    let seed = ManagedDirectory::with_instance(white_pages_schema(), base.clone()).unwrap();
    let (checked, (reopened, report)) =
        counted(|| ManagedDirectory::open(seed, &single).expect("full replay"));
    assert_eq!(checked, 0, "the certified seed is not checked again");
    assert_eq!(report.replayed, committed, "the whole journal replays");
    assert_eq!(reopened.instance().canonical_bytes(), live.instance().canonical_bytes());

    let sharded = dir.join("sharded.wal");
    let live = cold_sharded(&base, &sharded);
    let committed = apply_sharded(&live, &txs);
    for k in 0..live.shards() {
        live.with_shard(k, |engine| engine.write_checkpoint(None, bschema_obs::noop()))
            .expect("checkpoint lands");
        let path = bschema_core::journal::shard_journal_path(&sharded, k);
        tear(bschema_core::checkpoint::checkpoint_path(&path));
    }
    let seed = ShardedDirectory::with_instance(white_pages_schema(), base.clone(), 4).unwrap();
    let (checked, (reopened, reports)) = counted(|| seed.open(&sharded).expect("full replay"));
    assert_eq!(checked, 0, "no certified shard is checked again");
    let replayed: usize = reports.iter().map(|r| r.replayed).sum();
    assert!(replayed >= committed, "every shard replays its whole journal");
    assert_eq!(
        reopened.merged_instance().expect("merge").canonical_bytes(),
        live.merged_instance().expect("merge").canonical_bytes()
    );
    std::fs::remove_dir_all(&dir).ok();
}
