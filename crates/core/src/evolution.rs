//! Schema evolution (§6.2).
//!
//! The paper contrasts bounding-schemas with rigid relational/OO schemas:
//! "many kinds of schema evolution, such as adding a new allowed attribute
//! to an object class, or adding a new auxiliary object class … is extremely
//! lightweight, involving no modifications to existing directory entries."
//! This module makes that observation executable. Every evolution step is
//! classified:
//!
//! * **Relaxing** steps widen the bounds. A legal instance stays legal —
//!   provable from Definition 2.7, so no recheck runs at all.
//! * **Restricting** steps tighten the bounds. The key fact making them
//!   cheap anyway: the old elements still hold, so only the *new* element
//!   needs testing against the instance — one per-entry sweep for a content
//!   element, one Figure 4 query for a structure element — plus a schema
//!   consistency re-verification.
//!
//! [`plan`] is the one path that decides a proposal, online (`SCHEMA
//! PROPOSE`) and offline (`bschema evolve`) alike.

pub mod plan;

use std::fmt;

use bschema_directory::DirectoryInstance;
use bschema_query::{evaluate, EvalContext};

use crate::legality::report::{LegalityReport, Violation};
use crate::legality::translate;
use crate::schema::{DirectorySchema, ForbidKind, ForbiddenRel, RelKind, RequiredRel, SchemaError};

/// One schema evolution step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Evolution {
    // ----- relaxing -----
    /// Adds `attr` to `α(class)` — the paper's flagship lightweight change.
    AllowAttribute {
        /// The class gaining the allowance.
        class: String,
        /// The newly allowed attribute.
        attribute: String,
    },
    /// Declares a new auxiliary object class.
    AddAuxiliaryClass {
        /// Its name.
        name: String,
    },
    /// Adds an auxiliary to `Aux(core)` — the paper's second lightweight
    /// example.
    AllowAuxiliaryFor {
        /// The core class.
        core: String,
        /// The auxiliary being admitted.
        auxiliary: String,
    },
    /// Declares a new core class under an existing parent. Relaxing: no
    /// existing entry belongs to it.
    AddCoreClass {
        /// Its name.
        name: String,
        /// Its parent in the single-inheritance tree.
        parent: String,
    },

    // ----- restricting -----
    /// Adds `attr` to `ρ(class)`: every member entry must now carry it.
    RequireAttribute {
        /// The class gaining the requirement.
        class: String,
        /// The newly required attribute.
        attribute: String,
    },
    /// Adds `◇class` to `Cr`.
    RequireClass {
        /// The class that must now be inhabited.
        class: String,
    },
    /// Adds a required structural relationship to `Er`.
    RequireRel {
        /// Source class.
        source: String,
        /// Relationship kind.
        kind: RelKind,
        /// Target class.
        target: String,
    },
    /// Adds a forbidden structural relationship to `Ef`.
    ForbidRel {
        /// Upper class.
        upper: String,
        /// Child or descendant.
        kind: ForbidKind,
        /// Lower class.
        lower: String,
    },
}

impl Evolution {
    /// Whether this step can never invalidate a legal instance.
    pub fn is_relaxing(&self) -> bool {
        matches!(
            self,
            Evolution::AllowAttribute { .. }
                | Evolution::AddAuxiliaryClass { .. }
                | Evolution::AllowAuxiliaryFor { .. }
                | Evolution::AddCoreClass { .. }
        )
    }
}

impl fmt::Display for Evolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Evolution::AllowAttribute { class, attribute } => {
                write!(f, "allow attribute {attribute} on {class}")
            }
            Evolution::AddAuxiliaryClass { name } => write!(f, "add auxiliary class {name}"),
            Evolution::AllowAuxiliaryFor { core, auxiliary } => {
                write!(f, "allow auxiliary {auxiliary} on {core}")
            }
            Evolution::AddCoreClass { name, parent } => {
                write!(f, "add core class {name} under {parent}")
            }
            Evolution::RequireAttribute { class, attribute } => {
                write!(f, "require attribute {attribute} on {class}")
            }
            Evolution::RequireClass { class } => write!(f, "require class ◇{class}"),
            Evolution::RequireRel { source, kind, target } => {
                write!(f, "require {source} →{kind} {target}")
            }
            Evolution::ForbidRel { upper, kind, lower } => {
                write!(f, "forbid {upper} ↛{kind} {lower}")
            }
        }
    }
}

/// Why an evolution step was refused.
#[derive(Debug)]
pub enum EvolutionError {
    /// The step references missing classes or is otherwise ill-formed.
    Schema(SchemaError),
}

impl fmt::Display for EvolutionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvolutionError::Schema(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EvolutionError {}

impl From<SchemaError> for EvolutionError {
    fn from(e: SchemaError) -> Self {
        EvolutionError::Schema(e)
    }
}

/// Applies `step` to `schema`, returning the evolved schema. No instance
/// involved — [`plan::parse_proposal`] checks the result, and
/// [`plan::EvolutionPlan::recheck`] the instance against it.
pub fn apply(
    schema: &DirectorySchema,
    step: &Evolution,
) -> Result<DirectorySchema, EvolutionError> {
    let builder = schema.to_builder();
    let builder = match step {
        Evolution::AllowAttribute { class, attribute } => {
            builder.allow_attrs(class, [attribute.as_str()])?
        }
        Evolution::AddAuxiliaryClass { name } => builder.auxiliary(name)?,
        Evolution::AllowAuxiliaryFor { core, auxiliary } => builder.allow_aux(core, auxiliary)?,
        Evolution::AddCoreClass { name, parent } => builder.core_class(name, parent)?,
        Evolution::RequireAttribute { class, attribute } => {
            builder.require_attrs(class, [attribute.as_str()])?
        }
        Evolution::RequireClass { class } => builder.require_class(class)?,
        Evolution::RequireRel { source, kind, target } => {
            builder.require_rel(source, *kind, target)?
        }
        Evolution::ForbidRel { upper, kind, lower } => builder.forbid_rel(upper, *kind, lower)?,
    };
    Ok(builder.build())
}

/// The targeted recheck for a restricting step: test **only** the new
/// element against the instance (old elements still hold on a legal
/// instance). Returns the violations of the new element.
pub fn recheck_new_element(
    schema: &DirectorySchema,
    step: &Evolution,
    dir: &DirectoryInstance,
) -> LegalityReport {
    let classes = schema.classes();
    let mut out = Vec::new();
    match step {
        _ if step.is_relaxing() => {}
        Evolution::RequireAttribute { class, attribute } => {
            // One per-entry sweep over members of `class`.
            let ctx = EvalContext::new(dir);
            let members = evaluate(&ctx, &bschema_query::Query::object_class(class.clone()));
            for id in members {
                let entry = dir.entry(id).expect("query results are live");
                if !entry.has_attribute(attribute) {
                    out.push(Violation::MissingRequiredAttribute {
                        entry: id,
                        class: class.clone(),
                        attribute: attribute.to_ascii_lowercase(),
                    });
                }
            }
        }
        Evolution::RequireClass { class } => {
            if let Ok(id) = classes.resolve(class) {
                let q = translate::required_class_query(schema, id);
                if evaluate(&EvalContext::new(dir), &q).is_empty() {
                    out.push(Violation::MissingRequiredClass { class: class.clone() });
                }
            }
        }
        Evolution::RequireRel { source, kind, target } => {
            if let (Ok(s), Ok(t)) = (classes.resolve(source), classes.resolve(target)) {
                let rel = RequiredRel { source: s, kind: *kind, target: t };
                let q = translate::required_rel_query(schema, &rel);
                for witness in evaluate(&EvalContext::new(dir), &q) {
                    out.push(Violation::RequiredRelViolation {
                        entry: witness,
                        source: source.clone(),
                        kind: *kind,
                        target: target.clone(),
                    });
                }
            }
        }
        Evolution::ForbidRel { upper, kind, lower } => {
            if let (Ok(u), Ok(l)) = (classes.resolve(upper), classes.resolve(lower)) {
                let rel = ForbiddenRel { upper: u, kind: *kind, lower: l };
                let q = translate::forbidden_rel_query(schema, &rel);
                for witness in evaluate(&EvalContext::new(dir), &q) {
                    out.push(Violation::ForbiddenRelViolation {
                        entry: witness,
                        upper: upper.clone(),
                        kind: *kind,
                        lower: lower.clone(),
                    });
                }
            }
        }
        _ => {}
    }
    LegalityReport::from_violations(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legality::LegalityChecker;
    use crate::paper::{white_pages_instance, white_pages_schema};

    #[test]
    fn to_builder_roundtrip() {
        let schema = white_pages_schema();
        let rebuilt = schema.to_builder().build();
        assert_eq!(rebuilt.size(), schema.size());
        let (dir, _) = white_pages_instance();
        assert!(LegalityChecker::new(&rebuilt).check(&dir).is_legal());
    }

    /// Why the plan refused a step.
    #[derive(Debug)]
    enum Refused {
        Plan(plan::PlanError),
        Recheck(LegalityReport),
    }

    /// The plan's verdict on one step line against `dir`: the evolved
    /// schema, or the refusal.
    fn evolve(
        schema: &DirectorySchema,
        step: &str,
        dir: &DirectoryInstance,
    ) -> Result<DirectorySchema, Refused> {
        let plan = plan::parse_proposal(schema, step).map_err(Refused::Plan)?;
        let report = plan.recheck(dir);
        if report.is_legal() {
            Ok(plan.target)
        } else {
            Err(Refused::Recheck(report))
        }
    }

    #[test]
    fn relaxing_steps_need_no_recheck_and_preserve_legality() {
        let schema = white_pages_schema();
        let (dir, _) = white_pages_instance();
        let steps =
            ["allow-attr person homePage", "add-aux pgpUser", "add-class contractor person"];
        let mut current = schema;
        for step in steps {
            let plan = plan::parse_proposal(&current, step).unwrap();
            assert!(plan.is_relaxing_only(), "{step}");
            current = evolve(&current, step, &dir).unwrap_or_else(|e| panic!("{step}: {e:?}"));
            assert!(
                LegalityChecker::new(&current).check(&dir).is_legal(),
                "relaxing step {step} broke legality"
            );
        }
        // The new auxiliary can then be admitted for a class.
        current = evolve(&current, "allow-aux person pgpUser", &dir).unwrap();
        assert!(LegalityChecker::new(&current).check(&dir).is_legal());
    }

    #[test]
    fn restricting_step_satisfied_by_instance_is_accepted() {
        let schema = white_pages_schema();
        let (dir, _) = white_pages_instance();
        // Every researcher in Figure 1 already has a name.
        let evolved = evolve(&schema, "require-attr researcher name", &dir).unwrap();
        assert!(LegalityChecker::new(&evolved).check(&dir).is_legal());
        // And a structure element that already holds.
        let evolved = evolve(&evolved, "require-rel researcher an organization", &dir).unwrap();
        assert!(LegalityChecker::new(&evolved).check(&dir).is_legal());
    }

    #[test]
    fn restricting_step_violated_by_instance_is_refused() {
        let schema = white_pages_schema();
        let (dir, ids) = white_pages_instance();
        // suciu has no mail: requiring mail on researchers must fail and
        // name the violators.
        match evolve(&schema, "require-attr researcher mail", &dir) {
            Err(Refused::Recheck(report)) => {
                assert!(report.violations().iter().any(|v| v.entry() == Some(ids.suciu)));
            }
            other => panic!("expected the recheck to refuse, got {other:?}"),
        }
        // A forbidden rel the instance violates: orgUnit ↛de researcher
        // (attLabs has laks and suciu below it). The schema itself stays
        // consistent, so the refusal comes from the instance recheck.
        assert!(matches!(
            evolve(&schema, "forbid-rel orgUnit de researcher", &dir),
            Err(Refused::Recheck(_))
        ));
        // Forbidding organization ↛de person, by contrast, is refused one
        // level earlier: it contradicts the (inherited) orgGroup →de person
        // requirement, making the schema itself inconsistent.
        assert!(matches!(
            evolve(&schema, "forbid-rel organization de person", &dir),
            Err(Refused::Plan(plan::PlanError::Inconsistent(_)))
        ));
    }

    #[test]
    fn evolution_into_inconsistency_is_refused() {
        let schema = white_pages_schema();
        let (dir, _) = white_pages_instance();
        // person →de person with ◇person already present ⇒ infinite chains.
        assert!(matches!(
            evolve(&schema, "require-rel person de person", &dir),
            Err(Refused::Plan(plan::PlanError::Inconsistent(_)))
        ));
    }

    #[test]
    fn targeted_recheck_agrees_with_full_recheck() {
        let schema = white_pages_schema();
        let (dir, _) = white_pages_instance();
        let steps = [
            Evolution::RequireAttribute { class: "researcher".into(), attribute: "mail".into() },
            Evolution::RequireAttribute { class: "researcher".into(), attribute: "name".into() },
            Evolution::RequireClass { class: "staffMember".into() },
            Evolution::RequireRel {
                source: "person".into(),
                kind: RelKind::Ancestor,
                target: "orgUnit".into(),
            },
            Evolution::ForbidRel {
                upper: "orgUnit".into(),
                kind: ForbidKind::Child,
                lower: "orgUnit".into(),
            },
        ];
        for step in steps {
            let evolved = apply(&schema, &step).unwrap();
            let targeted = recheck_new_element(&evolved, &step, &dir);
            let full = LegalityChecker::new(&evolved).check(&dir);
            assert_eq!(
                targeted.is_legal(),
                full.is_legal(),
                "targeted recheck diverged for {step}: targeted={targeted} full={full}"
            );
        }
    }

    #[test]
    fn bad_references_are_schema_errors() {
        let schema = white_pages_schema();
        let step = Evolution::AllowAttribute { class: "nosuch".into(), attribute: "x".into() };
        assert!(matches!(apply(&schema, &step), Err(EvolutionError::Schema(_))));
    }
}
