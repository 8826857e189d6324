//! Legality testing (§3): is a directory instance legal w.r.t. a
//! bounding-schema?
//!
//! The checker combines the per-entry content checks (§3.1,
//! [`content`]) with the query-reduction structure checks (§3.2,
//! [`translate`] + [`structure`]), achieving the Theorem 3.1 bound — linear
//! in |D|. The [`naive`] module provides the quadratic pairwise baseline for
//! benchmarking and differential testing.

pub mod content;
pub mod keys;
pub mod naive;
pub mod report;
pub mod structure;
pub mod translate;

pub use report::{LegalityReport, Violation};

use std::cell::Cell;

use bschema_directory::DirectoryInstance;

use crate::schema::DirectorySchema;

/// The legality checker: schema + configuration.
#[derive(Debug, Clone)]
pub struct LegalityChecker<'s> {
    schema: &'s DirectorySchema,
    validate_values: bool,
    probe: &'s dyn bschema_obs::Probe,
}

impl<'s> LegalityChecker<'s> {
    /// A checker for `schema` with value validation off (the paper's
    /// Definition 2.7 checks only).
    pub fn new(schema: &'s DirectorySchema) -> Self {
        LegalityChecker { schema, validate_values: false, probe: bschema_obs::noop() }
    }

    /// Also validate value syntaxes and single-value restrictions
    /// (Definition 2.1(3a) + §6.1 numeric restrictions).
    pub fn with_value_validation(mut self, on: bool) -> Self {
        self.validate_values = on;
        self
    }

    /// Attaches an instrumentation probe (spans + counters). Checking
    /// behaviour and reports are unchanged; the default probe is a
    /// no-op.
    pub fn with_probe(mut self, probe: &'s dyn bschema_obs::Probe) -> Self {
        self.probe = probe;
        self
    }

    /// The schema being checked against.
    pub fn schema(&self) -> &'s DirectorySchema {
        self.schema
    }

    /// Full legality check (Definition 2.7). The instance must be
    /// [`prepare`](DirectoryInstance::prepare)d.
    ///
    /// Runs in the Theorem 3.1 bound: O(|D| · (per-entry content cost +
    /// |S|)) — linear in the instance size — as one pass on the caller's
    /// thread: signature-cached content checks (§3.1), keys (§6.1), then
    /// the Figure 4 structure queries (§3.2), each reading the one
    /// sorted-entry index the instance built in `prepare`.
    pub fn check(&self, dir: &DirectoryInstance) -> LegalityReport {
        CHECKED.with(|n| n.set(n.get() + dir.len() as u64));
        let probe = self.probe;
        let root = probe.span_start(bschema_obs::NO_SPAN, "legality.check", 0);
        let mut out = Vec::new();
        let span = probe.span_start(root, "content", 0);
        content::check_instance(self.schema, dir, self.validate_values, probe, &mut out);
        probe.span_end(span);
        let span = probe.span_start(root, "keys", 1);
        keys::check_instance(self.schema, dir, &mut out);
        probe.span_end(span);
        let span = probe.span_start(root, "structure", 2);
        structure::check_instance(self.schema, dir, probe, &mut out);
        probe.span_end(span);
        probe.span_end(root);
        LegalityReport::from_violations(out)
    }

    /// Definition 2.7's content and key conditions as printed —
    /// [`content::check_entry`] entry by entry, no cache: the
    /// reference half of the two baselines below.
    fn content_as_printed(&self, dir: &DirectoryInstance) -> Vec<Violation> {
        let mut out = Vec::new();
        for (id, entry) in dir.iter() {
            content::check_entry(self.schema, id, entry, &mut out);
            if self.validate_values {
                if let Err(e) = dir.validate_entry_values(id) {
                    out.push(Violation::ValueViolation { entry: id, message: e.to_string() });
                }
            }
        }
        keys::check_instance(self.schema, dir, &mut out);
        out
    }

    /// Like [`check`](Self::check) but using the traversal-based structure
    /// checker (no indexes or queries) — a middle baseline for benchmarks
    /// and a differential oracle.
    pub fn check_naive(&self, dir: &DirectoryInstance) -> LegalityReport {
        let mut out = self.content_as_printed(dir);
        naive::check_instance(self.schema, dir, &mut out);
        LegalityReport::from_violations(out)
    }

    /// Like [`check`](Self::check) but using the literal §3.2 strawman:
    /// every ordered entry pair is compared against the structure schema,
    /// O((|Er|+|Ef|)·|D|²).
    pub fn check_pairwise(&self, dir: &DirectoryInstance) -> LegalityReport {
        let mut out = self.content_as_printed(dir);
        naive::check_instance_pairwise(self.schema, dir, &mut out);
        LegalityReport::from_violations(out)
    }

    /// Boolean-only convenience.
    pub fn is_legal(&self, dir: &DirectoryInstance) -> bool {
        self.check(dir).is_legal()
    }
}

thread_local! {
    static CHECKED: Cell<u64> = const { Cell::new(0) };
}

/// How many entries [`LegalityChecker::check`] has examined on this
/// thread so far: each full §3 check counts the instance's size. The
/// difference across a boot or a restart is how often it certified what
/// it holds — once per entry when every instance is certified once on
/// its way in.
pub fn entries_checked() -> u64 {
    CHECKED.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{white_pages_instance, white_pages_schema};
    use bschema_directory::Entry;

    #[test]
    fn figure1_is_legal_under_figures_2_and_3() {
        // The paper's §2.3 claim: "the fragment of the white pages directory
        // instance depicted in Figure 1 is legal w.r.t. the bounding-schema
        // depicted in Figures 2 and 3".
        let schema = white_pages_schema();
        let (dir, _) = white_pages_instance();
        let checker = LegalityChecker::new(&schema).with_value_validation(true);
        let report = checker.check(&dir);
        assert!(report.is_legal(), "unexpected violations:\n{report}");
        assert!(checker.is_legal(&dir));
        assert!(checker.check_naive(&dir).is_legal());
    }

    #[test]
    fn fast_and_naive_agree_on_mixed_violations() {
        let schema = white_pages_schema();
        let (mut dir, ids) = white_pages_instance();
        // Structure violation.
        dir.add_child_entry(
            ids.laks,
            Entry::builder().classes(["person", "top"]).attr("uid", "x").attr("name", "x").build(),
        )
        .unwrap();
        // Content violation.
        dir.entry_mut(ids.suciu).unwrap().remove_attribute("name");
        dir.prepare();
        let checker = LegalityChecker::new(&schema);
        let fast = checker.check(&dir).normalized();
        let naive = checker.check_naive(&dir).normalized();
        assert_eq!(fast, naive);
        assert!(!fast.is_legal());
    }

    #[test]
    fn report_renders_readably() {
        let schema = white_pages_schema();
        let (mut dir, ids) = white_pages_instance();
        dir.entry_mut(ids.suciu).unwrap().remove_attribute("name");
        dir.prepare();
        let report = LegalityChecker::new(&schema).check(&dir);
        let text = report.to_string();
        assert!(text.contains("ILLEGAL"));
        assert!(text.contains("requires attribute \"name\""));
    }
}
