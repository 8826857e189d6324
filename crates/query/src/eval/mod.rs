//! Query evaluation: the interval-merge evaluator (§3.2's efficient
//! strategy) and a naive nested-loop evaluator used as a differential
//! oracle and benchmark baseline.

pub mod explain;
mod interval;
mod naive;

pub use explain::{explain, Explain, ExplainNode};
pub use interval::evaluate;
pub use naive::evaluate_naive;

use bschema_directory::{DirectoryInstance, EntryId};

/// Evaluation context: a prepared instance plus the optional update-delta
/// subtree that `Binding::Delta` selections range over, and a probe that
/// the evaluator reports per-query counters to (a no-op by default).
#[derive(Debug, Clone, Copy)]
pub struct EvalContext<'a> {
    dir: &'a DirectoryInstance,
    delta: Option<EntryId>,
    probe: &'a dyn bschema_obs::Probe,
}

impl<'a> EvalContext<'a> {
    /// Context over the whole instance.
    ///
    /// # Panics
    /// If the instance is not [`prepare`](DirectoryInstance::prepare)d.
    pub fn new(dir: &'a DirectoryInstance) -> Self {
        assert!(
            dir.is_prepared(),
            "evaluation requires a prepared instance; call DirectoryInstance::prepare()"
        );
        EvalContext { dir, delta: None, probe: bschema_obs::noop() }
    }

    /// Context with an update delta: `Binding::Delta` selections range over
    /// the subtree rooted at `delta_root` (inclusive).
    pub fn with_delta(dir: &'a DirectoryInstance, delta_root: EntryId) -> Self {
        let ctx = EvalContext::new(dir);
        assert!(dir.contains(delta_root), "delta root must be a live entry");
        EvalContext { delta: Some(delta_root), ..ctx }
    }

    /// Attaches an instrumentation probe; evaluation behaviour is
    /// unchanged, only counters/histograms are recorded through it.
    pub fn with_probe(self, probe: &'a dyn bschema_obs::Probe) -> Self {
        EvalContext { probe, ..self }
    }

    /// The instance under evaluation.
    pub fn instance(&self) -> &'a DirectoryInstance {
        self.dir
    }

    /// The delta subtree root, if any.
    pub fn delta(&self) -> Option<EntryId> {
        self.delta
    }

    /// The attached instrumentation probe.
    pub fn probe(&self) -> &'a dyn bschema_obs::Probe {
        self.probe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::{Binding, Query};
    use crate::filter::Filter;
    use bschema_directory::{DirectoryInstance, Entry};

    /// Builds the paper's Figure 1 instance.
    pub(crate) fn figure1() -> (DirectoryInstance, [EntryId; 6]) {
        let mut d = DirectoryInstance::white_pages();
        let att = d.add_root_entry(
            Entry::builder()
                .classes(["organization", "orgGroup", "online", "top"])
                .attr("o", "att")
                .attr("uri", "http://www.att.com/")
                .build(),
        );
        let labs = d
            .add_child_entry(
                att,
                Entry::builder()
                    .classes(["orgUnit", "orgGroup", "top"])
                    .attr("ou", "attLabs")
                    .attr("location", "FP")
                    .build(),
            )
            .unwrap();
        let armstrong = d
            .add_child_entry(
                labs,
                Entry::builder()
                    .classes(["staffMember", "person", "top"])
                    .attr("uid", "armstrong")
                    .attr("name", "m armstrong")
                    .build(),
            )
            .unwrap();
        let db = d
            .add_child_entry(
                labs,
                Entry::builder()
                    .classes(["orgUnit", "orgGroup", "top"])
                    .attr("ou", "databases")
                    .build(),
            )
            .unwrap();
        let laks = d
            .add_child_entry(
                db,
                Entry::builder()
                    .classes(["researcher", "facultyMember", "person", "online", "top"])
                    .attr("uid", "laks")
                    .attr("name", "laks lakshmanan")
                    .attr("mail", "laks@cs.concordia.ca")
                    .attr("mail", "laks@research.att.com")
                    .build(),
            )
            .unwrap();
        let suciu = d
            .add_child_entry(
                db,
                Entry::builder()
                    .classes(["researcher", "person", "top"])
                    .attr("uid", "suciu")
                    .attr("name", "dan suciu")
                    .build(),
            )
            .unwrap();
        d.prepare();
        (d, [att, labs, armstrong, db, laks, suciu])
    }

    /// Both evaluators agree on a battery of queries over Figure 1.
    #[test]
    fn evaluators_agree_on_figure1() {
        let (d, _) = figure1();
        let ctx = EvalContext::new(&d);
        let queries = [
            Query::object_class("person"),
            Query::object_class("orgGroup"),
            Query::object_class("nonexistent"),
            Query::object_class("orgGroup").with_descendant(Query::object_class("person")),
            Query::object_class("orgGroup").minus(
                Query::object_class("orgGroup").with_descendant(Query::object_class("person")),
            ),
            Query::object_class("person").with_ancestor(Query::object_class("organization")),
            Query::object_class("person").with_parent(Query::object_class("orgUnit")),
            Query::object_class("orgUnit").with_child(Query::object_class("person")),
            Query::select(Filter::present("mail")),
            Query::object_class("person").intersect(Query::object_class("online")),
            Query::object_class("orgUnit").union(Query::object_class("organization")),
            Query::select(Filter::object_class("person").and(Filter::present("mail"))),
        ];
        for q in &queries {
            assert_eq!(evaluate(&ctx, q), evaluate_naive(&ctx, q), "query {q}");
        }
    }

    /// The paper's Q1 is empty on the legal Figure 1 instance: every
    /// orgGroup has a person descendant.
    #[test]
    fn paper_q1_is_empty_on_figure1() {
        let (d, _) = figure1();
        let ctx = EvalContext::new(&d);
        let q1 = Query::object_class("orgGroup")
            .minus(Query::object_class("orgGroup").with_descendant(Query::object_class("person")));
        assert!(evaluate(&ctx, &q1).is_empty());
    }

    /// The paper's Q2 `(σc (objectClass=person) (objectClass=top))` is empty:
    /// no person has a child.
    #[test]
    fn paper_q2_is_empty_on_figure1() {
        let (d, _) = figure1();
        let ctx = EvalContext::new(&d);
        let q2 = Query::object_class("person").with_child(Query::object_class("top"));
        assert!(evaluate(&ctx, &q2).is_empty());
    }

    /// The paper's Q3 `(objectClass=orgUnit)` is non-empty.
    #[test]
    fn paper_q3_is_nonempty_on_figure1() {
        let (d, [_, labs, _, db, ..]) = figure1();
        let ctx = EvalContext::new(&d);
        let q3 = Query::object_class("orgUnit");
        assert_eq!(evaluate(&ctx, &q3), vec![labs, db]);
    }

    #[test]
    fn hierarchical_selection_semantics() {
        let (d, [att, labs, armstrong, db, laks, suciu]) = figure1();
        let ctx = EvalContext::new(&d);
        // orgGroups with a person descendant: att, labs, db.
        let q = Query::object_class("orgGroup").with_descendant(Query::object_class("person"));
        assert_eq!(evaluate(&ctx, &q), vec![att, labs, db]);
        // persons with an orgUnit parent: armstrong (labs), laks, suciu (db).
        let q = Query::object_class("person").with_parent(Query::object_class("orgUnit"));
        assert_eq!(evaluate(&ctx, &q), vec![armstrong, laks, suciu]);
        // persons with an organization ancestor: all three.
        let q = Query::object_class("person").with_ancestor(Query::object_class("organization"));
        assert_eq!(evaluate(&ctx, &q), vec![armstrong, laks, suciu]);
        // orgUnits with an orgUnit descendant: only labs.
        let q = Query::object_class("orgUnit").with_descendant(Query::object_class("orgUnit"));
        assert_eq!(evaluate(&ctx, &q), vec![labs]);
        // ancestor/descendant are proper: labs is not its own descendant.
        let q = Query::object_class("top").with_ancestor(Query::object_class("top"));
        assert_eq!(evaluate(&ctx, &q), vec![labs, armstrong, db, laks, suciu]);
    }

    #[test]
    fn delta_binding_restricts_to_subtree() {
        let (d, [_, _, _, db, laks, suciu]) = figure1();
        let ctx = EvalContext::with_delta(&d, db);
        let q = Query::select_bound(Filter::object_class("person"), Binding::Delta);
        assert_eq!(evaluate(&ctx, &q), vec![laks, suciu]);
        assert_eq!(evaluate_naive(&ctx, &q), vec![laks, suciu]);
        let q_top = Query::select_bound(Filter::object_class("top"), Binding::Delta);
        assert_eq!(evaluate(&ctx, &q_top), vec![db, laks, suciu]); // inclusive of root
    }

    #[test]
    fn empty_binding_yields_nothing() {
        let (d, _) = figure1();
        let ctx = EvalContext::new(&d);
        let q = Query::select_bound(Filter::True, Binding::Empty);
        assert!(evaluate(&ctx, &q).is_empty());
        assert!(evaluate_naive(&ctx, &q).is_empty());
    }

    #[test]
    #[should_panic(expected = "prepared")]
    fn unprepared_instance_panics() {
        let d = DirectoryInstance::default();
        let _ = EvalContext::new(&d);
    }

    #[test]
    #[should_panic(expected = "delta root")]
    fn delta_requires_live_root() {
        let mut d = DirectoryInstance::default();
        let r = d.add_root_entry(Entry::builder().class("top").build());
        d.remove_leaf(r).unwrap();
        d.prepare();
        let _ = EvalContext::with_delta(&d, r);
    }
}
