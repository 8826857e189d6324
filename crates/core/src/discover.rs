//! Schema discovery: proposing a bounding-schema from an existing directory.
//!
//! §6.2 observes that in the semi-structured world "the challenge is to
//! discover the schema from observed instances" (descriptive schemas, after
//! Nestorov–Abiteboul–Motwani), while directory schemas are prescriptive.
//! This module closes the loop for directories: given an instance, it mines
//! the tightest structure- and attribute-schema elements the instance
//! satisfies, as a *starting point* an administrator can prune into a
//! prescriptive bounding-schema (`bschema suggest-schema` in the CLI).
//!
//! Everything mined is sound for the source instance by construction —
//! checking the suggested schema against it always passes (tested). Mining
//! runs the same Figure 4 queries legality checking uses, so it is
//! O(|classes|² · |D|).

use std::collections::{BTreeMap, BTreeSet};

use bschema_directory::DirectoryInstance;
use bschema_query::{evaluate, EvalContext, Query};

use crate::schema::{DirectorySchema, ForbidKind, RelKind, SchemaBuilder};

/// What to mine.
#[derive(Debug, Clone)]
pub struct DiscoveryOptions {
    /// Mine required relationships (`a →ch/de/pa/an b` holding for every
    /// `a` entry).
    pub required: bool,
    /// Mine forbidden relationships (`a ↛ch/de b` with no witness pair).
    /// Over-fits sparse instances; off by default.
    pub forbidden: bool,
    /// Mine required attributes (present on every member of a class) and
    /// allowed attributes (observed on some member).
    pub attributes: bool,
    /// Mark every observed class required (`◇c`).
    pub required_classes: bool,
}

impl Default for DiscoveryOptions {
    fn default() -> Self {
        DiscoveryOptions {
            required: true,
            forbidden: false,
            attributes: true,
            required_classes: false,
        }
    }
}

/// The observed class structure, reconstructed from co-occurrence.
///
/// Without an existing class schema we cannot know the intended inheritance
/// tree, so discovery infers a conservative one from membership containment:
/// `a ⇒ b` when every entry holding `a` also holds `b`. A class is usable as
/// **core** when every class it co-occurs with is containment-comparable to
/// it (so every entry's core classes form a chain, as single inheritance
/// demands); the rest become **auxiliaries**, allowed on the core classes
/// they were observed with. Parent links follow the minimal strict superset.
struct ObservedClasses {
    /// Core classes with their chosen parent (`None` = `top`), ordered so
    /// parents precede children.
    core: Vec<(String, Option<String>)>,
    /// Auxiliary classes with the core classes they may accompany.
    auxiliary: Vec<(String, BTreeSet<String>)>,
}

fn observe_classes(dir: &DirectoryInstance) -> ObservedClasses {
    // Member sets per (lowercased) class.
    let mut members: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
    let mut cooccur: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (id, entry) in dir.iter() {
        let classes: Vec<String> =
            entry.classes().iter().map(|c| c.to_ascii_lowercase()).filter(|c| c != "top").collect();
        for c in &classes {
            members.entry(c.clone()).or_default().insert(id.index());
            for other in &classes {
                if other != c {
                    cooccur.entry(c.clone()).or_default().insert(other.clone());
                }
            }
        }
    }
    let contains = |sup: &str, sub: &str| -> bool {
        let (a, b) = (&members[sub], &members[sup]);
        a.is_subset(b)
    };
    let comparable = |a: &str, b: &str| -> bool { contains(a, b) || contains(b, a) };

    // Core candidates: start from everything, then greedily demote the
    // class with the most incomparable co-occurrences to auxiliary until
    // the remainder is chain-compatible. (In Figure 1, `online` co-occurs
    // incomparably with orgGroup, person and researcher, so one demotion
    // fixes all three.)
    let mut core_names: Vec<&String> = members.keys().collect();
    let mut aux_names: Vec<&String> = Vec::new();
    loop {
        let conflicts = |class: &String| -> usize {
            cooccur
                .get(class)
                .into_iter()
                .flatten()
                .filter(|o| core_names.contains(o) && !comparable(class, o))
                .count()
        };
        let worst = core_names
            .iter()
            .map(|c| (conflicts(c), *c))
            .max_by_key(|(n, c)| (*n, std::cmp::Reverse((*c).clone())))
            .filter(|(n, _)| *n > 0);
        match worst {
            Some((_, class)) => {
                core_names.retain(|c| *c != class);
                aux_names.push(class);
            }
            None => break,
        }
    }
    aux_names.sort();

    // Parent: the minimal strict superset among core classes; ties broken by
    // (size, name) so the result is deterministic. Equal member sets order
    // lexicographically (first = superclass).
    let strictly_above = |class: &str, candidate: &str| -> bool {
        let (m, c) = (&members[class], &members[candidate]);
        m.is_subset(c) && (m.len() < c.len() || class > candidate)
    };
    let mut core: Vec<(String, Option<String>)> = Vec::new();
    for class in &core_names {
        let parent = core_names
            .iter()
            .filter(|c| *c != class && strictly_above(class, c))
            .min_by_key(|c| (members[**c].len(), (**c).clone()))
            .map(|c| (*c).clone());
        core.push(((*class).clone(), parent));
    }
    // Parents must be declared first: order by member-set size descending
    // (supersets are at least as large), then name.
    core.sort_by(|(a, _), (b, _)| members[b].len().cmp(&members[a].len()).then_with(|| a.cmp(b)));

    let auxiliary = aux_names
        .into_iter()
        .map(|aux| {
            let with: BTreeSet<String> = cooccur
                .get(aux)
                .into_iter()
                .flatten()
                .filter(|c| core_names.contains(c))
                .cloned()
                .collect();
            (aux.clone(), with)
        })
        .collect();
    ObservedClasses { core, auxiliary }
}

/// Mines a suggested bounding-schema from `dir` (which must be prepared).
pub fn suggest_schema(dir: &DirectoryInstance, options: &DiscoveryOptions) -> DirectorySchema {
    let observed = observe_classes(dir);
    let mut builder = DirectorySchema::builder().named("suggested by discovery");
    for (class, parent) in &observed.core {
        builder = builder
            .core_class(class, parent.as_deref().unwrap_or("top"))
            .expect("observed classes are distinct and parents precede children");
    }
    for (aux, with) in &observed.auxiliary {
        builder = builder.auxiliary(aux).expect("observed classes are distinct");
        for core in with {
            builder = builder.allow_aux(core, aux).expect("core declared above");
        }
    }
    // Structure elements range over core classes only (Definition 2.4), with
    // `top` included as a relationship endpoint.
    let mut classes: Vec<String> = observed.core.iter().map(|(c, _)| c.clone()).collect();
    classes.push("top".to_owned());
    // Attribute mining covers aux classes too.
    let attr_classes: Vec<String> = classes
        .iter()
        .filter(|c| *c != "top")
        .cloned()
        .chain(observed.auxiliary.iter().map(|(a, _)| a.clone()))
        .collect();

    if options.attributes {
        builder = mine_attributes(dir, &attr_classes, builder);
    }

    let ctx = EvalContext::new(dir);
    if options.required_classes {
        for (class, _) in &observed.core {
            builder = builder.require_class(class).expect("class declared above");
        }
    }

    for a in &classes {
        for b in &classes {
            if options.required && a != b && a != "top" {
                for kind in RelKind::ALL {
                    // Prefer the strongest form per axis: ch subsumes de,
                    // pa subsumes an.
                    let subsumed = match kind {
                        RelKind::Descendant => holds_for_all(&ctx, a, RelKind::Child, b),
                        RelKind::Ancestor => holds_for_all(&ctx, a, RelKind::Parent, b),
                        _ => false,
                    };
                    if !subsumed && holds_for_all(&ctx, a, kind, b) {
                        builder = builder.require_rel(a, kind, b).expect("classes declared");
                    }
                }
            }
            if options.forbidden {
                if never_holds(&ctx, a, ForbidKind::Descendant, b) {
                    builder =
                        builder.forbid_rel(a, ForbidKind::Descendant, b).expect("classes declared");
                } else if never_holds(&ctx, a, ForbidKind::Child, b) {
                    builder =
                        builder.forbid_rel(a, ForbidKind::Child, b).expect("classes declared");
                }
            }
        }
    }
    builder.build()
}

fn mine_attributes(
    dir: &DirectoryInstance,
    classes: &[String],
    mut builder: SchemaBuilder,
) -> SchemaBuilder {
    // For each class: attributes present on every member (required) and on
    // any member (allowed).
    let mut present_on_all: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    let mut present_on_any: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for class in classes {
        let members = dir.index().entries_with_class(class);
        let mut all: Option<BTreeSet<String>> = None;
        let mut any: BTreeSet<String> = BTreeSet::new();
        for id in members.iter() {
            let entry = dir.entry(id).expect("indexed entries are live");
            let attrs: BTreeSet<String> = entry
                .attributes()
                .map(|(k, _)| k.to_owned())
                .filter(|k| k != bschema_directory::OBJECT_CLASS)
                .collect();
            any.extend(attrs.iter().cloned());
            all = Some(match all {
                None => attrs,
                Some(prev) => prev.intersection(&attrs).cloned().collect(),
            });
        }
        present_on_all.insert(class, all.unwrap_or_default());
        present_on_any.insert(class, any);
    }
    // An attribute required by every class a co-occurring class also
    // requires would be redundant, but builders tolerate repeats; keep the
    // direct mapping for readability.
    for class in classes {
        let required = &present_on_all[class.as_str()];
        let allowed = &present_on_any[class.as_str()];
        builder = builder
            .require_attrs(class, required.iter().map(String::as_str))
            .and_then(|b| b.allow_attrs(class, allowed.iter().map(String::as_str)))
            .expect("class declared");
    }
    builder
}

fn holds_for_all(ctx: &EvalContext<'_>, a: &str, kind: RelKind, b: &str) -> bool {
    let base = Query::object_class(a);
    let inner = match kind {
        RelKind::Child => base.clone().with_child(Query::object_class(b)),
        RelKind::Descendant => base.clone().with_descendant(Query::object_class(b)),
        RelKind::Parent => base.clone().with_parent(Query::object_class(b)),
        RelKind::Ancestor => base.clone().with_ancestor(Query::object_class(b)),
    };
    // Non-vacuous: at least one member exists, and none lacks the relative.
    !evaluate(ctx, &base).is_empty() && evaluate(ctx, &base.minus(inner)).is_empty()
}

fn never_holds(ctx: &EvalContext<'_>, a: &str, kind: ForbidKind, b: &str) -> bool {
    let q = match kind {
        ForbidKind::Child => Query::object_class(a).with_child(Query::object_class(b)),
        ForbidKind::Descendant => Query::object_class(a).with_descendant(Query::object_class(b)),
    };
    evaluate(ctx, &q).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legality::LegalityChecker;
    use crate::paper::white_pages_instance;

    #[test]
    fn suggested_schema_accepts_its_source() {
        let (dir, _) = white_pages_instance();
        for options in [
            DiscoveryOptions::default(),
            DiscoveryOptions { forbidden: true, ..Default::default() },
            DiscoveryOptions { required_classes: true, forbidden: true, ..Default::default() },
        ] {
            let schema = suggest_schema(&dir, &options);
            let report = LegalityChecker::new(&schema).check(&dir);
            assert!(report.is_legal(), "mined schema must accept its source:\n{report}");
        }
    }

    #[test]
    fn figure1_regularities_are_discovered() {
        let (dir, _) = white_pages_instance();
        let schema =
            suggest_schema(&dir, &DiscoveryOptions { forbidden: true, ..Default::default() });
        let s = schema.structure();
        let classes = schema.classes();
        let has_req = |src: &str, kind: RelKind, tgt: &str| {
            s.required_rels().iter().any(|r| {
                classes.name(r.source).eq_ignore_ascii_case(src)
                    && r.kind == kind
                    && classes.name(r.target).eq_ignore_ascii_case(tgt)
            })
        };
        let has_forb = |up: &str, kind: ForbidKind, lo: &str| {
            s.forbidden_rels().iter().any(|r| {
                classes.name(r.upper).eq_ignore_ascii_case(up)
                    && r.kind == kind
                    && classes.name(r.lower).eq_ignore_ascii_case(lo)
            })
        };
        // Figure 3's real rules resurface from the data alone:
        assert!(has_req("orggroup", RelKind::Descendant, "person"));
        assert!(has_req("orgunit", RelKind::Parent, "orggroup"));
        assert!(has_req("person", RelKind::Parent, "orgunit"));
        assert!(has_forb("person", ForbidKind::Descendant, "top"));
        // Attribute regularities too: every person carries uid and name.
        let person = classes.resolve("person").unwrap();
        assert!(schema.attributes().is_required(person, "uid"));
        assert!(schema.attributes().is_required(person, "name"));
        assert!(!schema.attributes().is_required(person, "mail")); // suciu has none
        assert!(schema.attributes().is_allowed(person, "mail")); // laks does
    }

    #[test]
    fn strongest_form_subsumption() {
        let (dir, _) = white_pages_instance();
        let schema = suggest_schema(&dir, &DiscoveryOptions::default());
        let s = schema.structure();
        let classes = schema.classes();
        // person →pa orgUnit holds, so person →an orgUnit must be
        // suppressed as implied.
        let pa = s.required_rels().iter().any(|r| {
            classes.name(r.source) == "person"
                && r.kind == RelKind::Parent
                && classes.name(r.target) == "orgunit"
        });
        let an = s.required_rels().iter().any(|r| {
            classes.name(r.source) == "person"
                && r.kind == RelKind::Ancestor
                && classes.name(r.target) == "orgunit"
        });
        assert!(pa);
        assert!(!an, "pa subsumes an");
    }

    #[test]
    fn empty_instance_yields_empty_suggestion() {
        let mut dir = DirectoryInstance::white_pages();
        dir.prepare();
        let schema = suggest_schema(&dir, &DiscoveryOptions::default());
        assert_eq!(schema.classes().len(), 1); // just top
        assert_eq!(schema.structure().len(), 0);
    }
}
