//! Differential testing: the interval-merge evaluator must agree with the
//! naive direct-semantics evaluator on arbitrary instances and queries.
//!
//! This is the correctness backbone for Theorem 3.1's reduction — if the
//! efficient evaluator is wrong, legality checking is wrong.

use bschema_directory::{AttributeDef, DirectoryInstance, Entry, EntryId, Syntax};
use bschema_query::{evaluate, evaluate_naive, explain, Binding, EvalContext, Filter, Query};
use proptest::prelude::*;

const CLASSES: [&str; 4] = ["alpha", "beta", "gamma", "delta"];

/// Attribute values, several spellings per domain value: `uid` and
/// `employeeNumber` are single-valued in the white-pages namespace (so
/// they carry equality postings), `mail` is multi-valued, `nick` is not
/// registered at all.
const VALUES: [(&str, &str); 12] = [
    ("uid", "k1"),
    ("uid", " K1 "),
    ("uid", "k  2"),
    ("uid", "K 2"),
    ("uid", "é"),
    ("employeeNumber", "7"),
    ("employeeNumber", "007"),
    ("employeeNumber", "8"),
    ("mail", "a@x"),
    ("mail", "A@X"),
    ("nick", "bee"),
    ("nick", "BEE"),
];

/// A compact recipe for a random forest: for each entry, `None` = new root,
/// `Some(k)` = child of the k-th previously created entry (mod count).
fn instance_strategy() -> impl Strategy<Value = (DirectoryInstance, Vec<EntryId>)> {
    // Three value picks an entry: one in four entries holds none, and
    // some hold two spellings — or two values — of a single-valued
    // attribute, which the postings have to survive.
    let value_picks = proptest::collection::vec(0usize..4 * VALUES.len(), 3..4);
    let node = (any::<Option<u8>>(), proptest::bits::u8::ANY, value_picks);
    proptest::collection::vec(node, 1..40).prop_map(|recipe| {
        let mut dir = DirectoryInstance::white_pages();
        let mut ids: Vec<EntryId> = Vec::new();
        for (parent_choice, class_bits, value_picks) in recipe {
            let mut builder = Entry::builder().class("top");
            for (i, class) in CLASSES.iter().enumerate() {
                if class_bits & (1 << i) != 0 {
                    builder = builder.class(*class);
                }
            }
            for (attr, value) in value_picks.iter().filter_map(|&pick| VALUES.get(pick)) {
                builder = builder.attr(attr, *value);
            }
            let entry = builder.build();
            let id = match parent_choice {
                Some(k) if !ids.is_empty() => {
                    let parent = ids[k as usize % ids.len()];
                    dir.add_child_entry(parent, entry).expect("parent is live")
                }
                _ => dir.add_root_entry(entry),
            };
            ids.push(id);
        }
        dir.prepare();
        (dir, ids)
    })
}

/// Random query trees over the class atoms, depth-bounded.
fn query_strategy() -> impl Strategy<Value = Query> {
    let equality = proptest::sample::select(&VALUES[..]).prop_map(|(attr, v)| Filter::eq(attr, v));
    let leaf = prop_oneof![
        3 => proptest::sample::select(&CLASSES[..]).prop_map(Query::object_class),
        1 => Just(Query::object_class("top")),
        1 => Just(Query::select(Filter::True)),
        1 => Just(Query::object_class("absent")),
        3 => equality.clone().prop_map(Query::select),
        1 => equality.clone().prop_map(|f| Query::select(f.not())),
        1 => equality.clone().prop_map(|f| Query::select(Filter::object_class("alpha").and(f))),
        1 => (equality.clone(), equality).prop_map(|(f, g)| Query::select(f.or(g))),
        1 => Just(Query::select(Filter::eq("UID", "k 2"))),
        1 => Just(Query::select(Filter::eq("cn", "nobody"))),
        1 => Just(Query::select(Filter::present("employeeNumber"))),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        (inner.clone(), inner).prop_flat_map(|(a, b)| {
            prop_oneof![
                Just(a.clone().with_child(b.clone())),
                Just(a.clone().with_parent(b.clone())),
                Just(a.clone().with_descendant(b.clone())),
                Just(a.clone().with_ancestor(b.clone())),
                Just(a.clone().minus(b.clone())),
                Just(a.clone().union(b.clone())),
                Just(a.intersect(b)),
            ]
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn evaluators_agree((dir, _ids) in instance_strategy(), query in query_strategy()) {
        let ctx = EvalContext::new(&dir);
        let fast = evaluate(&ctx, &query);
        let naive = evaluate_naive(&ctx, &query);
        prop_assert_eq!(fast, naive, "query {}", query);
    }

    /// Which attributes carry equality postings follows the registry: an
    /// attribute registered single-valued *after* the index was built is
    /// answered from postings too, and still agrees with the scan.
    #[test]
    fn postings_follow_the_registry(
        (mut dir, _ids) in instance_strategy(),
        needle in proptest::sample::select(&["bee", " BEE", "wasp"][..]),
    ) {
        let query = Query::select(Filter::eq("nick", needle));
        let scan = evaluate_naive(&EvalContext::new(&dir), &query);
        let unposted = explain(&EvalContext::new(&dir), &query);
        prop_assert_eq!(&unposted.result, &scan);
        dir.registry_mut()
            .register(AttributeDef::new("nick", Syntax::DirectoryString).single_valued())
            .expect("nick is new to the namespace");
        prop_assert!(!dir.is_prepared(), "a registry change must invalidate the index");
        dir.prepare();
        let posted = explain(&EvalContext::new(&dir), &query);
        prop_assert_eq!(&posted.result, &scan);
        if !scan.is_empty() {
            prop_assert_eq!(posted.plan.access, "index-reused");
            prop_assert_eq!(posted.scanned(), scan.len(), "postings scan what they hit");
            prop_assert!(unposted.scanned() >= scan.len());
            prop_assert_eq!(unposted.plan.access, "index-seeded");
        }
    }

    #[test]
    fn evaluators_agree_with_delta(
        (dir, ids) in instance_strategy(),
        query in query_strategy(),
        delta_pick in any::<prop::sample::Index>(),
    ) {
        let delta_root = ids[delta_pick.index(ids.len())];
        let query = query.map_bindings(&|_| Binding::Delta);
        let ctx = EvalContext::with_delta(&dir, delta_root);
        let fast = evaluate(&ctx, &query);
        let naive = evaluate_naive(&ctx, &query);
        prop_assert_eq!(fast, naive, "query {}", query);
    }

    #[test]
    fn results_are_preorder_sorted((dir, _ids) in instance_strategy(), query in query_strategy()) {
        let ctx = EvalContext::new(&dir);
        let fast = evaluate(&ctx, &query);
        let forest = dir.forest();
        prop_assert!(bschema_query::result::is_preorder_sorted(forest, &fast));
    }

    #[test]
    fn hierarchical_results_are_subsets_of_first_argument(
        (dir, _ids) in instance_strategy(),
        a in query_strategy(),
        b in query_strategy(),
    ) {
        let ctx = EvalContext::new(&dir);
        let r1 = evaluate(&ctx, &a);
        for q in [
            a.clone().with_child(b.clone()),
            a.clone().with_parent(b.clone()),
            a.clone().with_descendant(b.clone()),
            a.clone().with_ancestor(b.clone()),
            a.clone().minus(b.clone()),
        ] {
            let r = evaluate(&ctx, &q);
            prop_assert!(r.iter().all(|id| r1.contains(id)), "query {} escaped its first argument", q);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The optimizer preserves semantics: simplified queries return the
    /// same entries on arbitrary instances.
    #[test]
    fn simplify_preserves_semantics((dir, _ids) in instance_strategy(), query in query_strategy()) {
        let ctx = EvalContext::new(&dir);
        let simplified = bschema_query::optimize::simplify(query.clone());
        prop_assert_eq!(
            evaluate(&ctx, &query),
            evaluate(&ctx, &simplified),
            "simplify changed semantics: {} vs {}", query, simplified
        );
    }

    /// Simplification with Empty bindings stamped in agrees with direct
    /// evaluation of the bound query.
    #[test]
    fn simplify_preserves_semantics_with_empty_bindings(
        (dir, _ids) in instance_strategy(),
        query in query_strategy(),
    ) {
        let bound = query.map_bindings(&|_| Binding::Empty);
        let ctx = EvalContext::new(&dir);
        let simplified = bschema_query::optimize::simplify(bound.clone());
        prop_assert_eq!(evaluate(&ctx, &bound), evaluate(&ctx, &simplified));
    }
}
