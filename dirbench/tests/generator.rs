//! The input generator: determinism, size stability, shard routing, and
//! how many samples a run collects.

use bschema_core::paper::white_pages_schema;
use bschema_server::DirectoryService;
use dirbench::gen::{fnv1a, Base, Script, WriteExpect, WriteKind, GROUP, SLOTS};
use dirbench::spec;
use dirbench::wire::{MIN_ROUND_GROUPS, MIN_SAMPLES, ROUNDS};

#[test]
fn same_seed_gives_byte_identical_inputs_and_seeds_differ() {
    let small = spec::workload("small-2k").unwrap();
    let (a, b) = (Base::generate(small.orgs), Base::generate(small.orgs));
    assert_eq!(fnv1a(a.ldif.as_bytes()), fnv1a(b.ldif.as_bytes()));
    assert_eq!(a.ldif, b.ldif);
    let print = |seed| Script::fingerprint(&a, small.shards, seed, 512);
    assert_eq!(print(7), print(7));
    assert_ne!(print(7), print(8));
    // The backend shapes the script too: cross receipts expect two shards.
    assert_ne!(print(7), Script::fingerprint(&a, 4, 7, 512));
}

#[test]
fn directory_size_stays_within_one_percent_over_2000_cycles() {
    let base = Base::generate(spec::workload("small-2k").unwrap().orgs);
    let nominal = base.model.entries as f64;
    let mut script = Script::new(&base, 1, 42);
    for _ in 0..2000 {
        script.next_cycle();
        let drift = (script.entries() as f64 - nominal).abs() / nominal;
        assert!(drift <= 0.01, "|D| drifted {:.2}% at cycle {}", drift * 100.0, script.cycles());
    }
    // 2000 cycles is 250 whole groups: every insert was deleted again.
    assert_eq!(script.entries(), base.model.entries);
}

#[test]
fn every_group_mixes_the_writes_alike_and_the_floor_gives_every_latency_its_samples() {
    // 4 inserts, 4 deletes, 2 of each other kind per rotation, and both
    // groups of a rotation hold the same writes in the same order: a
    // round of whole groups mixes the classes as any other does.
    let (first, second) = SLOTS.split_at(GROUP);
    assert_eq!(first, second);
    let in_group = |kind| first.iter().filter(|k| **k == kind).count();
    assert_eq!((in_group(WriteKind::Insert), in_group(WriteKind::Delete)), (2, 2));
    for kind in [WriteKind::Cross, WriteKind::CrossDelete, WriteKind::Modify, WriteKind::Reject] {
        assert_eq!(in_group(kind), 1, "{kind:?}");
    }
    // A measured round never ends before MIN_ROUND_GROUPS groups, so the
    // rarest classes collect MIN_SAMPLES whatever `--seconds` is and
    // however slow a cycle; `tests/runs.rs` counts them in real runs.
    assert_eq!(ROUNDS * MIN_ROUND_GROUPS as usize * in_group(WriteKind::Modify), MIN_SAMPLES);
}

#[test]
fn cross_inserts_touch_two_shards_and_every_reply_matches_the_mirror() {
    let wl = spec::workload("sharded-20k").unwrap();
    let base = Base::generate(wl.orgs);
    let dir = bschema_directory::ldif::load(&base.ldif).unwrap();
    let service = DirectoryService::new_sharded(white_pages_schema(), dir, wl.shards).unwrap();
    let mut script = Script::new(&base, wl.shards, 3);
    let mut crosses = 0;
    for _ in 0..48 {
        let cycle = script.next_cycle();
        let op = &cycle.write;
        if op.kind == WriteKind::Modify {
            continue;
        }
        match (service.apply_ldif_tx(&op.body), &op.expect) {
            (Ok(outcome), WriteExpect::Committed { ops, len, shards }) => {
                assert_eq!(
                    (outcome.ops, outcome.len, outcome.shards),
                    (*ops, *len, *shards),
                    "{:?}",
                    op.kind
                );
                if op.kind == WriteKind::Cross {
                    assert_eq!(outcome.shards, 2);
                    crosses += 1;
                }
            }
            (Err(e), WriteExpect::Rejected { code }) => assert_eq!(e.code, *code),
            (got, expect) => panic!("{:?}: got {got:?}, expected {expect:?}", op.kind),
        }
        for search in &cycle.searches {
            // MODIFYs were skipped, so their read-back line is not there.
            let (hits, _) = service
                .search(search.base.as_deref(), Default::default(), &search.filter, search.limit)
                .unwrap();
            assert_eq!(hits, search.expect_hits, "{}", search.filter);
        }
    }
    assert_eq!(crosses, 6, "one cross insert per group of 8 cycles");
}
