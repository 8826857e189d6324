//! The epoch engine behind the `SCHEMA` verb family: parse an operator
//! proposal, classify its steps, and run the Definition 2.7 / Figures
//! 6–7 checks that gate a live cutover.
//!
//! A proposal arrives in one of two forms:
//!
//! * **Step form** — one evolution step per line (`require-attr person
//!   mail`, `allow-aux person pgpUser`, …), the same grammar as
//!   `bschema evolve`. Steps fold left-to-right over the current
//!   schema; each is classified relaxing or restricting, and the
//!   targeted recheck tests **only** the restricting steps' new
//!   elements against the instance ([`recheck_new_element`]).
//! * **DSL form** — a whole schema document (the `bschema discover`
//!   output, or a hand-edited `.bs` file). No step decomposition
//!   exists, so the recheck degrades to one full §3 legality pass —
//!   still off the write path.
//!
//! Either way the plan carries the evolved schema's canonical DSL — the
//! exact text journalled as a `jrnschema` record and embedded in
//! checkpoints, so recovery and replicas replay the same epoch.
//!
//! [`recheck_new_element`]: crate::evolution::recheck_new_element

use std::fmt;

use bschema_directory::DirectoryInstance;

use crate::consistency::ConsistencyChecker;
use crate::evolution::{self, Evolution, EvolutionError};
use crate::legality::report::LegalityReport;
use crate::legality::LegalityChecker;
use crate::schema::dsl::{parse_schema, print_schema};
use crate::schema::{DirectorySchema, ForbidKind, RelKind};

/// Why a proposal could not become a plan.
#[derive(Debug)]
pub enum PlanError {
    /// The payload parses as neither a step list nor a schema document.
    Parse(String),
    /// A step failed to apply to the current schema (missing class,
    /// duplicate declaration, …).
    Step {
        /// The offending step, as written.
        step: String,
        /// Why it failed.
        message: String,
    },
    /// The evolved schema is inconsistent; payload is the ◇∅ proof.
    Inconsistent(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Parse(msg) => write!(f, "proposal does not parse: {msg}"),
            PlanError::Step { step, message } => write!(f, "step {step:?}: {message}"),
            PlanError::Inconsistent(proof) => {
                write!(f, "evolved schema would be inconsistent:\n{proof}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A checked, stageable evolution proposal.
#[derive(Debug, Clone)]
pub struct EvolutionPlan {
    /// The steps, in application order. Empty for a DSL-form proposal
    /// (no step decomposition — the recheck is a full §3 pass).
    pub steps: Vec<Evolution>,
    /// The evolved schema the cutover swaps in.
    pub target: DirectorySchema,
    /// Canonical DSL of `target` — the journalled/checkpointed form.
    pub dsl: String,
    /// Steps that widen the bounds (no recheck, Definition 2.7).
    pub relaxing: usize,
    /// Steps that tighten them (targeted recheck required).
    pub restricting: usize,
}

impl EvolutionPlan {
    /// Whether the cutover can skip every instance recheck: all steps
    /// are provably relaxing. A DSL-form proposal (no steps) never
    /// qualifies — without a decomposition nothing is provable.
    pub fn is_relaxing_only(&self) -> bool {
        !self.steps.is_empty() && self.restricting == 0
    }

    /// The cutover gate: tests the instance against the *new* elements
    /// only (one [`recheck_new_element`] per restricting step), or a
    /// full §3 pass for a DSL-form proposal; nothing for a relaxing-only
    /// plan. The server runs it against an `Arc` snapshot off the write
    /// path (`SCHEMA CHECK`), and again under the write lock(s) at
    /// `SCHEMA COMMIT`.
    ///
    /// [`recheck_new_element`]: crate::evolution::recheck_new_element
    pub fn recheck(&self, dir: &DirectoryInstance) -> LegalityReport {
        if self.is_relaxing_only() {
            return LegalityReport::default();
        }
        if self.steps.is_empty() {
            return LegalityChecker::new(&self.target).check(dir);
        }
        let mut violations = Vec::new();
        for step in self.steps.iter().filter(|s| !s.is_relaxing()) {
            let report = evolution::recheck_new_element(&self.target, step, dir);
            violations.extend(report.violations().iter().cloned());
        }
        LegalityReport::from_violations(violations)
    }

    /// One-line classification for status output, e.g. `3 steps (2
    /// relaxing, 1 restricting)` or `schema document`.
    pub fn describe(&self) -> String {
        if self.steps.is_empty() {
            "schema document (full recheck)".to_owned()
        } else {
            format!(
                "{} step{} ({} relaxing, {} restricting)",
                self.steps.len(),
                if self.steps.len() == 1 { "" } else { "s" },
                self.relaxing,
                self.restricting
            )
        }
    }
}

/// The step-line verbs — a payload whose every meaningful line starts
/// with one of these is a step-form proposal.
const STEP_VERBS: &[&str] = &[
    "require-attr",
    "allow-attr",
    "require-class",
    "require-rel",
    "forbid-rel",
    "add-class",
    "add-aux",
    "allow-aux",
];

fn meaningful_lines(payload: &str) -> impl Iterator<Item = &str> {
    payload
        .lines()
        .map(|l| match l.find('#') {
            Some(pos) => l[..pos].trim(),
            None => l.trim(),
        })
        .filter(|l| !l.is_empty())
}

/// Whether `payload` is a step-form proposal (vs a schema document).
pub fn is_step_form(payload: &str) -> bool {
    let mut any = false;
    for line in meaningful_lines(payload) {
        let verb = line.split_whitespace().next().unwrap_or("");
        if !STEP_VERBS.contains(&verb) {
            return false;
        }
        any = true;
    }
    any
}

/// Parses one evolution step from pre-split words — the grammar shared
/// by `bschema evolve` arguments and `SCHEMA PROPOSE` step lines.
pub fn parse_step_words(words: &[&str]) -> Result<Evolution, String> {
    let rel_kind = |w: &str| match w {
        "ch" | "child" => Ok(RelKind::Child),
        "de" | "desc" | "descendant" => Ok(RelKind::Descendant),
        "pa" | "parent" => Ok(RelKind::Parent),
        "an" | "anc" | "ancestor" => Ok(RelKind::Ancestor),
        other => Err(format!("unknown relationship kind {other:?}")),
    };
    match words {
        ["require-attr", class, attr] => Ok(Evolution::RequireAttribute {
            class: (*class).to_owned(),
            attribute: (*attr).to_owned(),
        }),
        ["allow-attr", class, attr] => Ok(Evolution::AllowAttribute {
            class: (*class).to_owned(),
            attribute: (*attr).to_owned(),
        }),
        ["require-class", class] => Ok(Evolution::RequireClass { class: (*class).to_owned() }),
        ["require-rel", src, kind, tgt] => Ok(Evolution::RequireRel {
            source: (*src).to_owned(),
            kind: rel_kind(kind)?,
            target: (*tgt).to_owned(),
        }),
        ["forbid-rel", upper, kind, lower] => Ok(Evolution::ForbidRel {
            upper: (*upper).to_owned(),
            kind: match *kind {
                "ch" | "child" => ForbidKind::Child,
                "de" | "desc" | "descendant" => ForbidKind::Descendant,
                other => return Err(format!("forbidden kind must be ch|de, got {other:?}")),
            },
            lower: (*lower).to_owned(),
        }),
        ["add-class", name] => {
            Ok(Evolution::AddCoreClass { name: (*name).to_owned(), parent: "top".to_owned() })
        }
        ["add-class", name, parent] => {
            Ok(Evolution::AddCoreClass { name: (*name).to_owned(), parent: (*parent).to_owned() })
        }
        ["add-aux", name] => Ok(Evolution::AddAuxiliaryClass { name: (*name).to_owned() }),
        ["allow-aux", core, aux] => Ok(Evolution::AllowAuxiliaryFor {
            core: (*core).to_owned(),
            auxiliary: (*aux).to_owned(),
        }),
        _ => Err("unknown evolution step".to_owned()),
    }
}

/// Parses one step line (whitespace-separated words, `#` comments).
pub fn parse_step_line(line: &str) -> Result<Evolution, String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    parse_step_words(&words)
}

/// Parses an operator proposal against the current schema into a
/// checked [`EvolutionPlan`]: step-form payloads fold over `current`,
/// DSL-form payloads parse as a whole document; either way the evolved
/// schema must pass the Figures 6–7 consistency closure. No instance is
/// consulted here — [`EvolutionPlan::recheck`] is the instance gate.
pub fn parse_proposal(
    current: &DirectorySchema,
    payload: &str,
) -> Result<EvolutionPlan, PlanError> {
    if meaningful_lines(payload).next().is_none() {
        // An empty document would otherwise parse as the bare-`top`
        // schema — a proposal to wipe every bound. Refuse it.
        return Err(PlanError::Parse("proposal is empty".to_owned()));
    }
    let (steps, target) = if is_step_form(payload) {
        let mut steps = Vec::new();
        let mut schema = current.clone();
        for line in meaningful_lines(payload) {
            let step = parse_step_line(line)
                .map_err(|message| PlanError::Step { step: line.to_owned(), message })?;
            schema = evolution::apply(&schema, &step).map_err(|EvolutionError::Schema(err)| {
                PlanError::Step { step: line.to_owned(), message: err.to_string() }
            })?;
            steps.push(step);
        }
        if steps.is_empty() {
            return Err(PlanError::Parse("proposal is empty".to_owned()));
        }
        (steps, schema)
    } else {
        let parsed = parse_schema(payload)
            .map_err(|e| PlanError::Parse(format!("not a step list, and as schema DSL: {e}")))?;
        (Vec::new(), parsed.schema)
    };
    let verdict = ConsistencyChecker::new(&target).check();
    if !verdict.is_consistent() {
        return Err(PlanError::Inconsistent(verdict.explain_inconsistency().unwrap_or_default()));
    }
    let relaxing = steps.iter().filter(|s| s.is_relaxing()).count();
    let restricting = steps.len() - relaxing;
    let dsl = print_schema(&target, None);
    Ok(EvolutionPlan { steps, target, dsl, relaxing, restricting })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::schema_hash;
    use crate::paper::{white_pages_instance, white_pages_schema};

    #[test]
    fn step_form_folds_and_classifies() {
        let schema = white_pages_schema();
        let payload = "\
# widen, then tighten
allow-attr person homePage
add-aux pgpUser
allow-aux person pgpUser
require-attr researcher name
";
        assert!(is_step_form(payload));
        let plan = parse_proposal(&schema, payload).expect("plan parses");
        assert_eq!(plan.steps.len(), 4);
        assert_eq!(plan.relaxing, 3);
        assert_eq!(plan.restricting, 1);
        assert!(!plan.is_relaxing_only());
        // The canonical DSL reparses to the same schema.
        let reparsed = parse_schema(&plan.dsl).expect("canonical DSL parses");
        assert_eq!(schema_hash(&reparsed.schema), schema_hash(&plan.target));

        let (dir, _) = white_pages_instance();
        assert!(plan.recheck(&dir).is_legal(), "every researcher already has a name");
    }

    #[test]
    fn relaxing_only_plans_skip_the_recheck() {
        let schema = white_pages_schema();
        let plan = parse_proposal(&schema, "allow-attr person homePage\n").unwrap();
        assert!(plan.is_relaxing_only());
        let (dir, _) = white_pages_instance();
        assert!(plan.recheck(&dir).is_legal());
    }

    #[test]
    fn restricting_violations_name_the_offenders() {
        let schema = white_pages_schema();
        let (dir, ids) = white_pages_instance();
        let plan = parse_proposal(&schema, "require-attr researcher mail\n").unwrap();
        let report = plan.recheck(&dir);
        assert!(!report.is_legal());
        assert!(report.violations().iter().any(|v| v.entry() == Some(ids.suciu)));
    }

    #[test]
    fn dsl_form_takes_the_full_recheck_path() {
        let schema = white_pages_schema();
        let dsl = print_schema(&schema, None);
        assert!(!is_step_form(&dsl));
        let plan = parse_proposal(&schema, &dsl).expect("own DSL reparses");
        assert!(plan.steps.is_empty());
        assert!(!plan.is_relaxing_only());
        let (dir, _) = white_pages_instance();
        assert!(plan.recheck(&dir).is_legal());
    }

    #[test]
    fn bad_proposals_are_refused_with_the_offending_step() {
        let schema = white_pages_schema();
        match parse_proposal(&schema, "require-attr nosuch mail\n") {
            Err(PlanError::Step { step, .. }) => assert!(step.contains("nosuch")),
            other => panic!("expected a step error, got {other:?}"),
        }
        assert!(matches!(parse_proposal(&schema, ""), Err(PlanError::Parse(_))));
        assert!(matches!(
            parse_proposal(&schema, "not a proposal at all"),
            Err(PlanError::Parse(_))
        ));
        // An inconsistent tighten is caught at plan time, before any
        // instance is consulted.
        let err = parse_proposal(&schema, "require-rel person de person\n").unwrap_err();
        assert!(matches!(err, PlanError::Inconsistent(_)), "{err}");
    }
}
