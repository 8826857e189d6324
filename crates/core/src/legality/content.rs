//! Content-schema legality: the per-entry checks of Definition 2.7
//! (attribute schema + class schema blocks), §3.1.
//!
//! These checks are local to each entry — the key property §4.2 exploits for
//! incremental checking ("legality w.r.t. the content schema can be tested
//! by independently checking each entry in the instance").

use std::collections::{HashMap, HashSet};

use bschema_directory::{DirectoryInstance, Entry, EntryId, OBJECT_CLASS};

use super::report::Violation;
use crate::schema::{ClassId, DirectorySchema};

/// Checks one entry against the content schema, appending violations.
///
/// Runs in `O(|class(e)| · depth(H) + |class(e)| · max|Aux| + |val(e)| +
/// Σ_c |α(c)|)` — the §3.1 per-entry bound.
pub fn check_entry(
    schema: &DirectorySchema,
    entry_id: EntryId,
    entry: &Entry,
    out: &mut Vec<Violation>,
) {
    let classes = schema.classes();

    // Resolve the entry's classes; unknown ones are violations
    // ("only object classes mentioned in the schema may be present").
    let mut known: Vec<ClassId> = Vec::with_capacity(entry.class_count());
    for name in entry.classes() {
        match classes.lookup(name) {
            Some(id) => known.push(id),
            None => out.push(Violation::UnknownClass { entry: entry_id, class: name.clone() }),
        }
    }

    let cores: Vec<ClassId> = known.iter().copied().filter(|&c| classes.is_core(c)).collect();

    // "class(e) must contain at least one (core) object class from Cc."
    if cores.is_empty() {
        out.push(Violation::NoCoreClass { entry: entry_id });
    } else {
        // Single inheritance (the ⇒ / ⇏ elements): the core classes must be
        // exactly a chain. Take the deepest; everything else must lie on its
        // superclass chain, and the whole chain must be present.
        let deepest = *cores.iter().max_by_key(|&&c| classes.depth(c)).expect("cores is non-empty");
        for &c in &cores {
            if !classes.is_subclass(deepest, c) {
                out.push(Violation::ExclusiveClasses {
                    entry: entry_id,
                    first: classes.name(deepest).to_owned(),
                    second: classes.name(c).to_owned(),
                });
            }
        }
        for &sup in classes.superclass_chain(deepest).iter().skip(1) {
            if !cores.contains(&sup) {
                out.push(Violation::MissingSuperclass {
                    entry: entry_id,
                    class: classes.name(deepest).to_owned(),
                    superclass: classes.name(sup).to_owned(),
                });
            }
        }
    }

    // Auxiliary admissibility: "only allowed auxiliary classes may be
    // present" — each auxiliary must be in Aux(c) of some core class of e.
    for &aux in known.iter().filter(|&&c| !classes.is_core(c)) {
        let admitted = cores.iter().any(|&core| classes.aux_allowed(core, aux));
        if !admitted {
            out.push(Violation::AuxiliaryNotAllowed {
                entry: entry_id,
                auxiliary: classes.name(aux).to_owned(),
            });
        }
    }

    // Attribute schema, lower bound: every required attribute of every class
    // the entry belongs to must be present.
    let attrs = schema.attributes();
    for &c in &known {
        for required in attrs.required(c) {
            if !entry.has_attribute(required) {
                out.push(Violation::MissingRequiredAttribute {
                    entry: entry_id,
                    class: classes.name(c).to_owned(),
                    attribute: required.to_owned(),
                });
            }
        }
    }

    // Attribute schema, upper bound: every present attribute must be allowed
    // by at least one of the entry's classes. `objectClass` is implicitly
    // allowed (it is how class membership is represented at all).
    for (attr, _) in entry.attributes() {
        if attr == OBJECT_CLASS {
            continue;
        }
        let allowed = known.iter().any(|&c| attrs.is_allowed(c, attr));
        if !allowed {
            out.push(Violation::AttributeNotAllowed {
                entry: entry_id,
                attribute: attr.to_owned(),
            });
        }
    }
}

/// Which attributes a class-set signature admits.
#[derive(Debug)]
enum AllowedAttrs {
    /// Some class of the signature is extensible: everything is allowed.
    All,
    /// The union `⋃ α(c)` over the signature's known classes (lowercase
    /// keys, as entries store them).
    Union(HashSet<String>),
}

/// What the content check derives from an entry's (ordered) class list
/// alone. Entries in a real directory fall into a handful of distinct
/// class-set signatures, so caching this per signature turns the
/// per-entry work into attribute-presence probes.
#[derive(Debug)]
struct SignatureChecks {
    /// Class-level violations with a placeholder entry id, in
    /// [`check_entry`]'s emission order (unknown classes, core-chain
    /// checks, auxiliary admissibility).
    template: Vec<Violation>,
    /// `(class name, required attribute)` pairs, in emission order.
    required: Vec<(String, String)>,
    allowed: AllowedAttrs,
}

impl SignatureChecks {
    fn build(schema: &DirectorySchema, entry: &Entry) -> SignatureChecks {
        // Run the class-dependent half of `check_entry` once against a
        // classes-only probe entry; its violations are the template.
        let probe = Entry::builder().classes(entry.classes().iter().map(String::as_str)).build();
        let mut template = Vec::new();
        check_entry(schema, EntryId::from_index(0), &probe, &mut template);

        let classes = schema.classes();
        let attrs = schema.attributes();
        let known: Vec<ClassId> =
            entry.classes().iter().filter_map(|name| classes.lookup(name)).collect();

        let mut required = Vec::new();
        for &c in &known {
            // The probe entry has no attributes, so the template ends with
            // exactly these MissingRequiredAttribute violations; drop them
            // from the template and keep them as presence probes instead.
            for attr in attrs.required(c) {
                required.push((classes.name(c).to_owned(), attr.to_owned()));
            }
        }
        template.truncate(template.len() - required.len());

        let allowed = if known.iter().any(|&c| attrs.is_extensible(c)) {
            AllowedAttrs::All
        } else {
            AllowedAttrs::Union(
                known.iter().flat_map(|&c| attrs.allowed(c)).map(str::to_owned).collect(),
            )
        };
        SignatureChecks { template, required, allowed }
    }

    /// Emits the violations `check_entry` would produce for `entry`, in
    /// the same order.
    fn check(&self, entry_id: EntryId, entry: &Entry, out: &mut Vec<Violation>) {
        for v in &self.template {
            out.push(reanchor(v, entry_id));
        }
        for (class, attribute) in &self.required {
            if !entry.has_attribute(attribute) {
                out.push(Violation::MissingRequiredAttribute {
                    entry: entry_id,
                    class: class.clone(),
                    attribute: attribute.clone(),
                });
            }
        }
        if let AllowedAttrs::Union(allowed) = &self.allowed {
            for (attr, _) in entry.attributes() {
                if attr == OBJECT_CLASS {
                    continue;
                }
                if !allowed.contains(attr) {
                    out.push(Violation::AttributeNotAllowed {
                        entry: entry_id,
                        attribute: attr.to_owned(),
                    });
                }
            }
        }
    }
}

/// Rebinds a template violation to a concrete entry.
fn reanchor(v: &Violation, entry: EntryId) -> Violation {
    match v.clone() {
        Violation::UnknownClass { class, .. } => Violation::UnknownClass { entry, class },
        Violation::NoCoreClass { .. } => Violation::NoCoreClass { entry },
        Violation::MissingSuperclass { class, superclass, .. } => {
            Violation::MissingSuperclass { entry, class, superclass }
        }
        Violation::ExclusiveClasses { first, second, .. } => {
            Violation::ExclusiveClasses { entry, first, second }
        }
        Violation::AuxiliaryNotAllowed { auxiliary, .. } => {
            Violation::AuxiliaryNotAllowed { entry, auxiliary }
        }
        other => unreachable!("non-template violation cached: {other:?}"),
    }
}

/// Checks every entry of `dir` against the content schema, with a
/// per-class-set signature cache so shared class lists are analysed
/// once. Optionally also validates value syntaxes / single-value
/// restrictions (Definition 2.1(3a)).
///
/// Produces the violation list of [`check_entry`] applied entry by entry
/// in document order.
pub fn check_instance(
    schema: &DirectorySchema,
    dir: &DirectoryInstance,
    validate_values: bool,
    probe: &dyn bschema_obs::Probe,
    out: &mut Vec<Violation>,
) {
    // The preorder walk runs to completion before the checks: interleaved
    // with them, the full check read 10–30% slower at 20k–50k entries
    // (EXPERIMENTS.md "ONE THREAD · PR 40").
    let entries: Vec<(EntryId, &Entry)> = dir.iter().collect();
    let mut cache: HashMap<&[String], SignatureChecks> = HashMap::new();
    for &(id, entry) in &entries {
        let sig =
            cache.entry(entry.classes()).or_insert_with(|| SignatureChecks::build(schema, entry));
        sig.check(id, entry, out);
        if validate_values {
            if let Err(e) = dir.validate_entry_values(id) {
                out.push(Violation::ValueViolation { entry: id, message: e.to_string() });
            }
        }
    }
    if probe.enabled() {
        probe.add("legality.entries_content_checked", dir.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::white_pages_schema;
    use bschema_directory::Entry;

    fn violations_for(entry: Entry) -> Vec<Violation> {
        let schema = white_pages_schema();
        let mut out = Vec::new();
        check_entry(&schema, EntryId::from_index(0), &entry, &mut out);
        out
    }

    #[test]
    fn legal_person_passes() {
        let e = Entry::builder()
            .classes(["researcher", "person", "top"])
            .attr("uid", "laks")
            .attr("name", "laks lakshmanan")
            .build();
        assert_eq!(violations_for(e), []);
    }

    #[test]
    fn missing_required_attribute() {
        let e = Entry::builder().classes(["person", "top"]).attr("uid", "x").build();
        let v = violations_for(e);
        assert!(matches!(
            &v[..],
            [Violation::MissingRequiredAttribute { class, attribute, .. }]
                if class == "person" && attribute == "name"
        ));
    }

    #[test]
    fn attribute_not_allowed() {
        // `location` is allowed on orgUnit, not person.
        let e = Entry::builder()
            .classes(["person", "top"])
            .attr("uid", "x")
            .attr("name", "x")
            .attr("location", "FP")
            .build();
        let v = violations_for(e);
        assert!(matches!(
            &v[..],
            [Violation::AttributeNotAllowed { attribute, .. }] if attribute == "location"
        ));
    }

    #[test]
    fn auxiliary_widens_allowed_attributes() {
        // `mail` is allowed via the `online` auxiliary.
        let e = Entry::builder()
            .classes(["person", "top", "online"])
            .attr("uid", "x")
            .attr("name", "x")
            .attr("mail", "x@y.z")
            .build();
        assert_eq!(violations_for(e), []);
        // Without `online`, mail is not allowed for a bare person.
        let e = Entry::builder()
            .classes(["person", "top"])
            .attr("uid", "x")
            .attr("name", "x")
            .attr("mail", "x@y.z")
            .build();
        assert!(matches!(
            &violations_for(e)[..],
            [Violation::AttributeNotAllowed { attribute, .. }] if attribute == "mail"
        ));
    }

    #[test]
    fn unknown_class() {
        let e = Entry::builder()
            .classes(["person", "top", "packetRouter"])
            .attr("uid", "x")
            .attr("name", "x")
            .build();
        assert!(matches!(
            &violations_for(e)[..],
            [Violation::UnknownClass { class, .. }] if class == "packetRouter"
        ));
    }

    #[test]
    fn no_core_class() {
        let e = Entry::builder().classes(["online"]).build();
        let v = violations_for(e);
        assert!(v.contains(&Violation::NoCoreClass { entry: EntryId::from_index(0) }));
        // An entry with no classes at all is also reported.
        let v = violations_for(Entry::new());
        assert!(v.contains(&Violation::NoCoreClass { entry: EntryId::from_index(0) }));
    }

    #[test]
    fn missing_superclass() {
        // researcher without person/top.
        let e = Entry::builder().classes(["researcher"]).attr("uid", "x").attr("name", "x").build();
        let v = violations_for(e);
        let missing: Vec<&str> = v
            .iter()
            .filter_map(|x| match x {
                Violation::MissingSuperclass { superclass, .. } => Some(superclass.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(missing, ["person", "top"]);
    }

    #[test]
    fn required_attrs_of_superclass_apply() {
        // researcher inherits nothing implicitly, but the entry also belongs
        // to person explicitly, whose ρ applies.
        let e = Entry::builder().classes(["researcher", "person", "top"]).build();
        let v = violations_for(e);
        let missing: Vec<&str> = v
            .iter()
            .filter_map(|x| match x {
                Violation::MissingRequiredAttribute { attribute, .. } => Some(attribute.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(missing, ["name", "uid"]);
    }

    #[test]
    fn exclusive_core_classes() {
        // The motivating example: an orgUnit that is also a facultyMember's
        // person — person ⇏ orgUnit.
        let e = Entry::builder()
            .classes(["person", "orgUnit", "orgGroup", "top"])
            .attr("uid", "x")
            .attr("name", "x")
            .attr("ou", "y")
            .build();
        let v = violations_for(e);
        assert!(v.iter().any(|x| matches!(x, Violation::ExclusiveClasses { .. })));
    }

    #[test]
    fn auxiliary_not_allowed() {
        // facultyMember is allowed on researcher, not on staffMember.
        let e = Entry::builder()
            .classes(["staffMember", "person", "top", "facultyMember"])
            .attr("uid", "x")
            .attr("name", "x")
            .build();
        let v = violations_for(e);
        assert!(matches!(
            &v[..],
            [Violation::AuxiliaryNotAllowed { auxiliary, .. }] if auxiliary == "facultyMember"
        ));
    }

    #[test]
    fn figure1_instance_content_is_legal() {
        let schema = white_pages_schema();
        let (dir, _) = crate::paper::white_pages_instance();
        let mut out = Vec::new();
        check_instance(&schema, &dir, true, bschema_obs::noop(), &mut out);
        assert_eq!(out, [], "Figure 1 must satisfy the Figures 2-3 content schema");
    }
}
