//! Testing legality against updates (§4): transactions, Theorem 4.1
//! normalisation, the Figure 5 incremental checker and its scoped
//! deletion column (Figure 5′).

pub mod incremental;
pub mod ldif_tx;
pub mod modify;
mod scoped;
pub mod transaction;

pub use incremental::{
    deletion_needs_recheck, insertion_delta_query, insertion_delta_query_forbidden,
    IncrementalChecker,
};
pub use ldif_tx::{transaction_from_ldif, LdifTxError};
pub use modify::{apply_mods, check_modification, Mod};
pub use transaction::{NodeRef, NormalizedTx, SubtreeInsertion, Transaction, TxError, TxOp};

use bschema_directory::{DirectoryInstance, Entry, EntryId};

use crate::legality::LegalityReport;
use crate::schema::DirectorySchema;

/// Outcome of applying a transaction with incremental checking.
#[derive(Debug, Clone)]
pub struct AppliedTx {
    /// Roots of the inserted subtrees, in application order.
    pub inserted_roots: Vec<EntryId>,
    /// All entries removed by the deletion phase.
    pub removed: Vec<Entry>,
    /// Accumulated violations across every intermediate instance. By
    /// Theorem 4.1 the final instance is legal iff this is empty.
    pub report: LegalityReport,
}

/// Applies `tx` to `dir` in the Theorem 4.1 order — subtree insertions,
/// then subtree deletions — running the Figure 5 incremental check after
/// each step. The instance is mutated regardless of legality; callers that
/// need atomicity should snapshot first (see
/// [`ManagedDirectory`](crate::managed::ManagedDirectory)).
pub fn apply_and_check(
    schema: &DirectorySchema,
    dir: &mut DirectoryInstance,
    tx: &Transaction,
) -> Result<AppliedTx, TxError> {
    let normalized = tx.normalize(dir)?;
    let checker = IncrementalChecker::new(schema);
    let mut report = LegalityReport::legal();
    let mut inserted_roots = Vec::with_capacity(normalized.insertions.len());

    for subtree in &normalized.insertions {
        let ids = subtree.apply(dir)?;
        let root = ids[0];
        inserted_roots.push(root);
        dir.prepare();
        report.extend(checker.check_insertion(dir, root));
    }

    let mut removed = Vec::new();
    for &root in &normalized.deletion_roots {
        let batch: Vec<Entry> = dir
            .remove_subtree(root)
            .map_err(|e| {
                TxError::Internal(format!("removing validated deletion root {root}: {e}"))
            })?
            .into_iter()
            .map(|(_, e)| e)
            .collect();
        dir.prepare();
        report.extend(checker.check_deletion(dir, &batch));
        removed.extend(batch);
    }

    // A transaction with no mutations still needs a prepared instance for
    // callers that immediately query.
    dir.prepare();

    Ok(AppliedTx { inserted_roots, removed, report })
}

/// `dir.prepare()` on a path that holds a probe: what the call did to
/// the index is attributed there — `managed.index_posted` entries (the
/// |ΔD| of Theorem 4.2, when nothing else is wrong) and
/// `managed.index_rebuilt` from-scratch passes (none, on a served write).
pub(crate) fn prepare_probed(dir: &mut DirectoryInstance, probe: &dyn bschema_obs::Probe) {
    let did = dir.prepare();
    if probe.enabled() {
        if did.posted > 0 {
            probe.add("managed.index_posted", did.posted as u64);
        }
        if did.rebuilt {
            probe.add("managed.index_rebuilt", 1);
        }
    }
}

/// Like [`apply_and_check`] but **batched**: all insertions are applied
/// first and their Figure 5 Δ-queries checked in one wave
/// ([`IncrementalChecker::check_insertions`]), then all deletions are
/// applied and the union of removed entries checked once, at the deleted
/// subtrees' former parents and their ancestors
/// ([`IncrementalChecker::check_deletion_scoped`], Figure 5′).
///
/// Because inserted subtrees are pairwise disjoint, the batched insertion
/// verdict equals the per-subtree one. Batching the deletions
/// additionally checks them against the **final** instance, so a
/// transaction whose later deletion removes the witness of an earlier
/// one is judged by the end state — exactly the atomicity contract
/// [`ManagedDirectory`](crate::managed::ManagedDirectory) exposes, and
/// always in agreement with a full recheck of the final instance.
///
/// `probe` (pass [`bschema_obs::noop`] for none) records the Figure 5
/// Δ-query counters and check spans, and what each `prepare()` cost the
/// index; behaviour and reports do not depend on it.
pub fn apply_and_check_probed(
    schema: &DirectorySchema,
    dir: &mut DirectoryInstance,
    tx: &Transaction,
    probe: &dyn bschema_obs::Probe,
) -> Result<AppliedTx, TxError> {
    let normalized = tx.normalize(dir)?;
    let checker = IncrementalChecker::new(schema).with_probe(probe);
    let mut report = LegalityReport::legal();

    let mut inserted_roots = Vec::with_capacity(normalized.insertions.len());
    for subtree in &normalized.insertions {
        let ids = subtree.apply(dir)?;
        inserted_roots.push(*ids.first().ok_or_else(|| {
            TxError::Internal("normalised subtree insertion has no nodes".to_owned())
        })?);
    }
    if !inserted_roots.is_empty() {
        prepare_probed(dir, probe);
        report.extend(checker.check_insertions(dir, &inserted_roots));
    }

    let mut removed = Vec::new();
    let mut former_parents = Vec::with_capacity(normalized.deletion_roots.len());
    for &root in &normalized.deletion_roots {
        former_parents.push(dir.forest().parent(root));
        removed.extend(
            dir.remove_subtree(root)
                .map_err(|e| {
                    TxError::Internal(format!("removing validated deletion root {root}: {e}"))
                })?
                .into_iter()
                .map(|(_, e)| e),
        );
    }
    if !removed.is_empty() {
        prepare_probed(dir, probe);
        report.extend(checker.check_deletion_scoped(dir, &removed, &former_parents));
    }

    prepare_probed(dir, probe);

    Ok(AppliedTx { inserted_roots, removed, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::legality::LegalityChecker;
    use crate::paper::{white_pages_instance, white_pages_schema};

    fn researcher(uid: &str) -> Entry {
        Entry::builder()
            .classes(["researcher", "person", "top"])
            .attr("uid", uid)
            .attr("name", uid)
            .build()
    }

    fn org_unit(ou: &str) -> Entry {
        Entry::builder().classes(["orgUnit", "orgGroup", "top"]).attr("ou", ou).build()
    }

    #[test]
    fn theorem_4_1_ordering_avoids_spurious_violations() {
        // The §4.1 motivating example: add a new orgUnit under attLabs and
        // persons under it. Checking op-by-op after the orgUnit alone would
        // flag orgGroup ⇒⇒ person; checking at subtree granularity does not.
        let schema = white_pages_schema();
        let (mut dir, ids) = white_pages_instance();
        let mut tx = Transaction::new();
        let unit = tx.insert_under(ids.att_labs, org_unit("voice"));
        tx.insert_under_new(unit, researcher("alice"));
        tx.insert_under_new(unit, researcher("bob"));
        let applied = apply_and_check(&schema, &mut dir, &tx).unwrap();
        assert!(applied.report.is_legal(), "{}", applied.report);
        assert!(LegalityChecker::new(&schema).check(&dir).is_legal());
        assert_eq!(dir.len(), 9);
    }

    #[test]
    fn delete_then_insert_normalises_to_insert_first() {
        // Replace the databases unit wholesale: delete it (with laks and
        // suciu) and add a fresh unit with one researcher. Insert-first
        // ordering keeps every intermediate legal.
        let schema = white_pages_schema();
        let (mut dir, ids) = white_pages_instance();
        let mut tx = Transaction::new();
        tx.delete(ids.laks);
        tx.delete(ids.suciu);
        tx.delete(ids.databases);
        let unit = tx.insert_under(ids.att_labs, org_unit("systems"));
        tx.insert_under_new(unit, researcher("carol"));
        let applied = apply_and_check(&schema, &mut dir, &tx).unwrap();
        assert!(applied.report.is_legal(), "{}", applied.report);
        assert_eq!(applied.removed.len(), 3);
        assert!(LegalityChecker::new(&schema).check(&dir).is_legal());
    }

    #[test]
    fn illegal_transaction_reports_violations() {
        let schema = white_pages_schema();
        let (mut dir, ids) = white_pages_instance();
        let mut tx = Transaction::new();
        tx.insert_under(ids.suciu, org_unit("oops")); // person gains a child
        let applied = apply_and_check(&schema, &mut dir, &tx).unwrap();
        assert!(!applied.report.is_legal());
        assert!(!LegalityChecker::new(&schema).check(&dir).is_legal());
    }

    #[test]
    fn incremental_agrees_with_full_recheck_on_transactions() {
        // Several mixed transactions; for each, the incremental verdict must
        // match a from-scratch full check of the final instance (Theorems
        // 4.1 + 4.2 combined).
        let schema = white_pages_schema();
        let full = LegalityChecker::new(&schema);

        // Legal: add a staff member under attLabs.
        let (mut dir, ids) = white_pages_instance();
        let mut tx = Transaction::new();
        tx.insert_under(
            ids.att_labs,
            Entry::builder()
                .classes(["staffMember", "person", "top"])
                .attr("uid", "pat")
                .attr("name", "pat")
                .build(),
        );
        let applied = apply_and_check(&schema, &mut dir, &tx).unwrap();
        assert_eq!(applied.report.is_legal(), full.check(&dir).is_legal());

        // Illegal: delete every person under databases AND armstrong, so
        // attLabs (an orgGroup) loses all person descendants.
        let (mut dir, ids) = white_pages_instance();
        let mut tx = Transaction::new();
        tx.delete(ids.armstrong);
        tx.delete(ids.laks);
        tx.delete(ids.suciu);
        let applied = apply_and_check(&schema, &mut dir, &tx).unwrap();
        assert!(!applied.report.is_legal());
        assert_eq!(applied.report.is_legal(), full.check(&dir).is_legal());

        // Empty transaction: trivially legal.
        let (mut dir, _) = white_pages_instance();
        let tx = Transaction::new();
        let applied = apply_and_check(&schema, &mut dir, &tx).unwrap();
        assert!(applied.report.is_legal());
    }

    #[test]
    fn a_refused_insert_and_delete_names_each_violation_once() {
        // An empty unit breaks orgGroup ⇒⇒ person where it is inserted; the
        // deletion elsewhere (attLabs keeps laks and suciu) breaks nothing.
        // The whole-instance delete recheck used to find the new unit a
        // second time.
        let schema = white_pages_schema();
        let (mut dir, ids) = white_pages_instance();
        let mut tx = Transaction::new();
        tx.insert_under(ids.att_labs, org_unit("empty"));
        tx.delete(ids.armstrong);
        let applied = apply_and_check_probed(&schema, &mut dir, &tx, bschema_obs::noop()).unwrap();
        let unmet: Vec<_> = applied
            .report
            .violations()
            .iter()
            .filter(|v| matches!(v, crate::legality::Violation::RequiredRelViolation { .. }))
            .collect();
        assert_eq!(unmet.len(), 1, "{}", applied.report);
        assert_eq!(unmet[0].entry(), Some(applied.inserted_roots[0]));
    }
}
