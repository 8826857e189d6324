//! On-disk compatibility tripwire for the journal and checkpoint formats.
//!
//! `tests/fixtures/wal/` holds the files three fixed scripts left behind
//! when they were run by the commit *before* the journaled engine was
//! unified (PR 12, `271d1dc`), plus the hash of the directory each
//! script ended on. Two things are pinned against them:
//!
//! 1. **Writing** — the same scripts, run by this build, must produce
//!    byte-identical journal and checkpoint files. A change to what a
//!    commit appends (`journal_bytes_per_tx` in `BENCHMARK.json`, bound
//!    1%) fails here, in tier-1, before any benchmark runs.
//! 2. **Reading** — recovery by this build from the old files must land
//!    on the pinned directory.
//!
//! The scripts only use API both sides of that commit share. To
//! regenerate after a *deliberate* format change:
//! `WAL_FIXTURES_WRITE=1 cargo test -p bschema-server --test wal_fixtures`
//! and say so in the PR.
//!
//! Two deliberate changes so far, each with the files the older builds
//! wrote kept under `with-jrnop/` and held against what replaced them:
//!
//! 1. Since a write is certified before it is journalled, the refused
//!    TXN that ends the `single` script appends nothing. `single.wal`
//!    was re-recorded for that alone; the file the builds before that
//!    wrote is `with-jrnop/single.refused-tail.wal`, the re-recorded one
//!    must be a strict prefix of it — every committed record
//!    byte-identical, the difference exactly the refused TXN's records —
//!    and recovery from it must still discard that tail.
//! 2. A payload record no longer spells out its op index (`jrnop: <i>`):
//!    the parser takes it from the record's position. The four journal
//!    files were re-recorded; each must equal the file of the same name
//!    under `with-jrnop/` with exactly its `jrnop` lines removed, and
//!    recovery from the older files must land on the same pinned
//!    directory. `ckpt.wal.ckpt` and `canonical.txt` did not change.
//!    (Old → new is what is pinned: a journal written by this build does
//!    not parse on a build that demands the field.)

use std::path::{Path, PathBuf};

use bschema_core::journal::{Journal, Payload};
use bschema_core::paper::{white_pages_instance, white_pages_schema};
use bschema_core::sharded::shard_of_root_rdn;
use bschema_core::updates::Mod;
use bschema_core::ManagedDirectory;
use bschema_directory::Rdn;
use bschema_server::DirectoryService;

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/wal")
}

/// `file` as an older build wrote it: every journal file has changed
/// since, the checkpoint format has not.
fn older(file: &str) -> PathBuf {
    match file.ends_with(".ckpt") {
        true => fixtures().join(file),
        false => fixtures().join("with-jrnop").join(file),
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn person(uid: &str, parent: &str) -> String {
    format!(
        "dn: uid={uid},{parent}\nobjectClass: staffMember\nobjectClass: person\nobjectClass: top\nuid: {uid}\nname: {uid}\n"
    )
}

fn single(journal: &Path) -> (DirectoryService, usize) {
    let (dir, _) = white_pages_instance();
    let managed = ManagedDirectory::with_instance(white_pages_schema(), dir).expect("figure 1");
    DirectoryService::new(managed).with_journal(journal).expect("journal opens")
}

/// TXN + MODIFY + SCHEMA record + TXN under the evolved schema + a
/// rejected TXN (which journals nothing), on the single backend.
fn script_single(dir: &Path) -> DirectoryService {
    let (svc, _) = single(&dir.join("single.wal"));
    let labs = "ou=attLabs,o=att";
    svc.apply_ldif_tx(&person("pat", labs)).expect("txn");
    svc.modify(
        &format!("uid=pat,{labs}"),
        &[
            Mod::Add { attribute: "telephoneNumber".into(), value: "+1 201".into() },
            Mod::Replace { attribute: "name".into(), values: vec!["pat, p.".into()] },
        ],
    )
    .expect("modify");
    svc.schema_propose("allow-attr person nickname\n").expect("propose");
    svc.schema_commit().expect("cutover");
    svc.apply_ldif_tx(&format!("{}nickname: kimmie\n", person("kim", labs))).expect("evolved txn");
    let err = svc.apply_ldif_tx(&person("x", &format!("uid=pat,{labs}"))).expect_err("rejected");
    assert_eq!(err.code, "rolled-back");
    svc
}

fn family(journal: &Path) -> (DirectoryService, usize) {
    let base = bschema_workload::multi_org_base(4, 8, 11);
    DirectoryService::new_sharded(white_pages_schema(), base, 2)
        .expect("legal base")
        .with_journal(journal)
        .expect("journal family opens")
}

/// A single-shard TXN, one cross-shard TXN (one `gid`) and a MODIFY on
/// a 2-shard family.
fn script_family(dir: &Path) -> DirectoryService {
    let (svc, _) = family(&dir.join("family.wal"));
    let shard = |name: &str| shard_of_root_rdn(&Rdn::single("o", name), 2);
    let a = "org0".to_owned();
    let b = (1..4).map(|i| format!("org{i}")).find(|n| shard(n) != shard(&a)).expect("two shards");
    svc.apply_ldif_tx(&person("solo", &format!("o={a}"))).expect("single-shard txn");
    let cross = svc
        .apply_ldif_tx(&format!(
            "{}\n{}",
            person("left", &format!("o={a}")),
            person("right", &format!("o={b}"))
        ))
        .expect("cross-shard txn");
    assert_eq!(cross.shards, 2);
    svc.modify(
        &format!("uid=right,o={b}"),
        &[Mod::Add { attribute: "telephoneNumber".into(), value: "+1 973".into() }],
    )
    .expect("modify");
    svc
}

/// Two TXNs, a CHECKPOINT, then a three-transaction tail.
fn script_ckpt(dir: &Path) -> DirectoryService {
    let (svc, _) = single(&dir.join("ckpt.wal"));
    let labs = "ou=attLabs,o=att";
    svc.apply_ldif_tx(&person("a1", labs)).expect("txn");
    svc.apply_ldif_tx(&person("a2", labs)).expect("txn");
    svc.checkpoint_now().expect("checkpoint");
    svc.apply_ldif_tx(&person("a3", labs)).expect("tail txn");
    svc.apply_ldif_tx(&format!("dn: uid=a1,{labs}\nchangetype: delete\n")).expect("tail delete");
    svc.modify(
        &format!("uid=a2,{labs}"),
        &[Mod::Add { attribute: "telephoneNumber".into(), value: "+1 908".into() }],
    )
    .expect("tail modify");
    svc
}

type Script = fn(&Path) -> DirectoryService;
type Reopen = fn(&Path) -> (DirectoryService, usize);

/// `(name, script, the files it leaves, how a restart reopens them,
/// transactions that restart replays)`.
const SCRIPTS: [(&str, Script, &[&str], Reopen, usize); 3] = [
    ("single", script_single, &["single.wal"], |d| single(&d.join("single.wal")), 4),
    (
        "family",
        script_family,
        &["family.wal.shard0", "family.wal.shard1"],
        |d| family(&d.join("family.wal")),
        4,
    ),
    ("ckpt", script_ckpt, &["ckpt.wal", "ckpt.wal.ckpt"], |d| single(&d.join("ckpt.wal")), 3),
];

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("bschema-wal-fixtures-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn pinned_hashes() -> Vec<(String, u64)> {
    std::fs::read_to_string(fixtures().join("canonical.txt"))
        .expect("tests/fixtures/wal/canonical.txt")
        .lines()
        .filter_map(|line| {
            let (name, hash) = line.split_once(' ')?;
            Some((name.to_owned(), u64::from_str_radix(hash, 16).ok()?))
        })
        .collect()
}

#[test]
fn scripts_write_the_pinned_bytes_and_old_files_recover_to_the_pinned_state() {
    if std::env::var_os("WAL_FIXTURES_WRITE").is_some() {
        let dir = fixtures();
        std::fs::create_dir_all(&dir).expect("fixture dir");
        let mut canonical = String::new();
        for (name, script, files, _, _) in SCRIPTS {
            for file in files {
                let _ = std::fs::remove_file(dir.join(file));
            }
            let live = script(&dir).snapshot().canonical_bytes();
            canonical.push_str(&format!("{name} {:016x}\n", fnv1a(&live)));
        }
        std::fs::write(dir.join("canonical.txt"), canonical).expect("canonical.txt");
        return;
    }

    let pinned = pinned_hashes();
    for (name, script, files, reopen, replays) in SCRIPTS {
        let want = pinned.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("{name} pin")).1;

        // Writing: this build's files are the old build's files.
        let fresh = scratch(&format!("{name}-write"));
        let live = script(&fresh).snapshot().canonical_bytes();
        assert_eq!(fnv1a(&live), want, "{name}: the script ends on a different directory");
        for file in files {
            let old = std::fs::read(fixtures().join(file)).expect("fixture file");
            let new = std::fs::read(fresh.join(file)).expect("script output");
            assert!(
                old == new,
                "{name}: {file} differs from the pinned bytes ({} vs {} pinned) — the on-disk \
                 format or what a commit appends changed",
                new.len(),
                old.len()
            );
        }

        // The format relation: a journal file is the older build's file
        // minus its `jrnop` lines, and nothing else.
        for file in files.iter().filter(|file| !file.ends_with(".ckpt")) {
            let old = std::fs::read_to_string(older(file)).expect("older fixture file");
            let new = std::fs::read_to_string(fixtures().join(file)).expect("fixture file");
            let (op_indices, rest): (Vec<&str>, Vec<&str>) =
                old.split_inclusive('\n').partition(|line| {
                    line.trim_end()
                        .strip_prefix("jrnop: ")
                        .is_some_and(|i| i.parse::<u64>().is_ok())
                });
            assert!(
                !op_indices.is_empty() && rest.concat() == new,
                "{name}: {file} is not the older file minus its jrnop lines"
            );
        }

        // Reading: the pinned files, and the files older builds wrote,
        // recover to the pinned directory.
        for source in [|file: &str| fixtures().join(file), older] {
            let restart = scratch(&format!("{name}-read"));
            for file in files {
                std::fs::copy(source(file), restart.join(file)).expect("copy fixture");
            }
            let (recovered, replayed) = reopen(&restart);
            assert_eq!(replayed, replays, "{name}: replayed transactions");
            assert_eq!(
                fnv1a(&recovered.snapshot().canonical_bytes()),
                want,
                "{name}: recovery from the pinned files lands elsewhere"
            );
            let _ = std::fs::remove_dir_all(&restart);
        }
        let _ = std::fs::remove_dir_all(&fresh);
    }

    // What the builds before PR 19 wrote for the `single` script is what
    // the builds after it wrote plus one uncommitted transaction: the
    // refused TXN.
    let new = std::fs::read(older("single.wal")).expect("fixture file");
    let old = std::fs::read(older("single.refused-tail.wal")).expect("fixture file");
    assert!(old.len() > new.len() && old.starts_with(&new), "single.wal is not a strict prefix");
    let tail = Journal::parse(std::str::from_utf8(&old[new.len()..]).expect("journals are text"));
    assert_eq!((tail.txs.len(), tail.committed().count(), tail.truncated), (1, 0, false));
    let refused = matches!(&tail.txs[0].payload, Payload::Tx(tx) if tx.len() == 1);
    assert!(refused, "the refused single-insert TXN");
    // And recovery from the older file discards it.
    let restart = scratch("single-refused-tail");
    std::fs::copy(older("single.refused-tail.wal"), restart.join("single.wal"))
        .expect("copy fixture");
    let (recovered, replayed) = single(&restart.join("single.wal"));
    let want = pinned.iter().find(|(n, _)| n == "single").expect("single pin").1;
    assert_eq!(replayed, 4, "the refused tail is not replayed");
    assert_eq!(fnv1a(&recovered.snapshot().canonical_bytes()), want);
    let _ = std::fs::remove_dir_all(&restart);
}
