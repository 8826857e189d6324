//! [`ManagedDirectory`]: a directory that *enforces* its bounding-schema.
//!
//! This is the downstream-user API the paper's machinery adds up to: a
//! schema-checked directory server core. Construction verifies the schema
//! is consistent (§5 — a schema nothing can satisfy is rejected up front);
//! every update transaction is applied atomically and checked with the
//! incremental §4 machinery on a structurally shared copy of the
//! instance, swapped in on a legal verdict and dropped otherwise.

use std::fmt;
use std::sync::Arc;

use bschema_directory::{AttributeRegistry, DirectoryInstance, Entry, EntryId};
use bschema_obs::{Probe, NO_SPAN};
use bschema_query::{evaluate, EvalContext, Query};

use crate::consistency::ConsistencyChecker;
use crate::legality::{LegalityChecker, LegalityReport};
use crate::schema::DirectorySchema;
use crate::updates::{apply_and_check_probed, prepare_probed, Transaction, TxError};

/// Errors from managed-directory operations.
#[derive(Debug)]
pub enum ManagedError {
    /// The schema admits no legal instance; the payload is the ◇∅
    /// derivation trace.
    InconsistentSchema(String),
    /// A supplied initial instance was not legal.
    IllegalInstance(LegalityReport),
    /// The transaction was structurally invalid (bad refs, orphaning
    /// deletes, ...).
    Transaction(TxError),
    /// Applying the transaction would leave the directory illegal; it was
    /// rolled back.
    RolledBack(LegalityReport),
    /// The engine panicked mid-transaction (e.g. an injected fault or a
    /// dying worker); the copy it was running on was dropped, so the
    /// directory is unchanged and still legal.
    Panicked {
        /// The panic payload, when it carried a message.
        reason: String,
    },
    /// An internal invariant failed in a way the engine could report
    /// without panicking; the transaction was rolled back.
    Internal(String),
    /// Journal recovery could not replay a committed transaction — the
    /// journal disagrees with the base instance it is replayed onto.
    Recovery(String),
}

impl fmt::Display for ManagedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManagedError::InconsistentSchema(proof) => {
                write!(f, "schema is inconsistent (admits no legal instance):\n{proof}")
            }
            ManagedError::IllegalInstance(report) => {
                write!(f, "initial instance is illegal:\n{report}")
            }
            ManagedError::Transaction(e) => write!(f, "invalid transaction: {e}"),
            ManagedError::RolledBack(report) => {
                write!(f, "transaction rolled back; it would violate the schema:\n{report}")
            }
            ManagedError::Panicked { reason } => {
                write!(f, "transaction rolled back after a mid-apply panic: {reason}")
            }
            ManagedError::Internal(detail) => {
                write!(f, "transaction rolled back after an internal error: {detail}")
            }
            ManagedError::Recovery(detail) => write!(f, "journal recovery failed: {detail}"),
        }
    }
}

impl ManagedError {
    /// A stable machine-readable code naming the error variant. The wire
    /// server sends this as the first token of an `ERR` response so
    /// clients can dispatch without parsing prose.
    pub fn code(&self) -> &'static str {
        match self {
            ManagedError::InconsistentSchema(_) => "inconsistent-schema",
            ManagedError::IllegalInstance(_) => "illegal-instance",
            ManagedError::Transaction(_) => "invalid-tx",
            ManagedError::RolledBack(_) => "rolled-back",
            ManagedError::Panicked { .. } => "panicked",
            ManagedError::Internal(_) => "internal",
            ManagedError::Recovery(_) => "recovery",
        }
    }
}

impl std::error::Error for ManagedError {}

impl From<TxError> for ManagedError {
    fn from(e: TxError) -> Self {
        ManagedError::Transaction(e)
    }
}

/// Shared, clonable probe slot: `None` stands for the no-op probe, so
/// uninstrumented directories carry no allocation at all.
#[derive(Clone, Default)]
struct ProbeHandle(Option<Arc<dyn Probe + Send + Sync>>);

impl ProbeHandle {
    fn get(&self) -> &dyn Probe {
        match &self.0 {
            Some(p) => p.as_ref(),
            None => bschema_obs::noop(),
        }
    }
}

impl fmt::Debug for ProbeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() { "ProbeHandle(set)" } else { "ProbeHandle(noop)" })
    }
}

/// Records the diagnostics of a rolled-back transaction, so a failed
/// transaction still surfaces the violation set that caused the rollback
/// instead of silently dropping it with the rejected state.
fn record_rollback(probe: &dyn Probe, report: &LegalityReport) {
    if !probe.enabled() {
        return;
    }
    probe.add("managed.tx_rolled_back", 1);
    probe.observe("managed.rollback_violations", report.violations().len() as u64);
    for v in report.violations() {
        probe.add_labeled("managed.rollback_violation", v.kind_name(), 1);
    }
}

/// Extracts a human-readable reason from a caught panic payload.
pub(crate) fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs probe-recording code that must never decide an outcome: a fault
/// injected *inside the probe itself* (or any buggy probe impl) is caught
/// and surfaced as the panic reason instead of unwinding out of the
/// apply.
fn guard_probe(f: impl FnOnce()) -> Option<String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .err()
        .map(|payload| panic_reason(payload.as_ref()))
}

/// The verdict on an operation that could not be carried out on `entry`.
fn inapplicable(entry: EntryId, message: String) -> LegalityReport {
    LegalityReport::from_violations(vec![crate::legality::Violation::ValueViolation {
        entry,
        message,
    }])
}

/// Maps an inconsistent consistency-check result to a structured error:
/// a present ◇∅ derivation is the proof, a missing one is an engine bug
/// and says so instead of degrading to an empty string.
pub(crate) fn inconsistency_error(result: &crate::consistency::ConsistencyResult) -> ManagedError {
    match result.explain_inconsistency() {
        Some(proof) => ManagedError::InconsistentSchema(proof),
        None => ManagedError::Internal(
            "consistency checker flagged the schema inconsistent but produced no ◇∅ derivation"
                .to_owned(),
        ),
    }
}

/// A certified successor state, not installed yet: the instance an
/// operation left on its structurally shared copy, or the consistent
/// schema a cutover swaps to. Exists only after a legal verdict.
#[derive(Debug)]
pub(crate) enum Successor {
    Instance(DirectoryInstance),
    Schema(Box<DirectorySchema>),
}

/// A bounding-schema-enforcing directory.
#[derive(Debug, Clone)]
pub struct ManagedDirectory {
    schema: DirectorySchema,
    /// The live version. Shared, not owned: whoever publishes it to
    /// readers clones the `Arc`, and an operation forks its copy from it.
    dir: Arc<DirectoryInstance>,
    /// Whether the current instance is known legal (enables the incremental
    /// §4 checks; until then transactions are fully rechecked).
    known_legal: bool,
    /// Instrumentation probe threaded into every check (no-op by default).
    probe: ProbeHandle,
}

impl ManagedDirectory {
    /// Creates an empty managed directory after verifying schema
    /// consistency. Note an empty instance is itself illegal when the
    /// schema has required classes (`◇c`); the first transaction must
    /// populate them, and is checked with a full legality pass.
    pub fn new(schema: DirectorySchema, registry: AttributeRegistry) -> Result<Self, ManagedError> {
        Self::for_recovery(schema, DirectoryInstance::new(registry))
    }

    /// Wraps an existing instance, verifying schema consistency and
    /// instance legality.
    pub fn with_instance(
        schema: DirectorySchema,
        dir: DirectoryInstance,
    ) -> Result<Self, ManagedError> {
        match Self::checked(schema, dir)? {
            (managed, report) if report.is_legal() => Ok(managed),
            (_, report) => Err(ManagedError::IllegalInstance(report)),
        }
    }

    /// Wraps an existing instance for journal recovery: schema consistency
    /// is still mandatory, but the base may be illegal (e.g. an empty
    /// directory whose journal bootstraps the required classes) — it is
    /// checked and tracked via `known_legal` exactly like
    /// [`new`](ManagedDirectory::new).
    pub(crate) fn for_recovery(
        schema: DirectorySchema,
        dir: DirectoryInstance,
    ) -> Result<Self, ManagedError> {
        Self::checked(schema, dir).map(|(managed, _)| managed)
    }

    /// The one constructor: consistency closure, `prepare()`, one full
    /// §3 check whose verdict seeds `known_legal`.
    fn checked(
        schema: DirectorySchema,
        mut dir: DirectoryInstance,
    ) -> Result<(Self, LegalityReport), ManagedError> {
        let result = ConsistencyChecker::new(&schema).check();
        if !result.is_consistent() {
            return Err(inconsistency_error(&result));
        }
        dir.prepare();
        let report = LegalityChecker::new(&schema).check(&dir);
        let managed = ManagedDirectory {
            schema,
            dir: Arc::new(dir),
            known_legal: report.is_legal(),
            probe: ProbeHandle::default(),
        };
        Ok((managed, report))
    }

    /// Attaches an instrumentation probe recording spans, transaction
    /// outcome counters, and — crucially — the violation set of every
    /// rolled-back transaction. Enforcement behaviour is unchanged.
    pub fn with_probe(mut self, probe: Arc<dyn Probe + Send + Sync>) -> Self {
        self.probe = ProbeHandle(Some(probe));
        self
    }

    /// Swaps the instrumentation probe in place, returning the previous
    /// one (`None` stood for the no-op probe). The wire server uses this
    /// to thread a per-request trace through exactly one `apply` under
    /// the write lock, then restore the per-process probe.
    pub fn swap_probe(
        &mut self,
        probe: Option<Arc<dyn Probe + Send + Sync>>,
    ) -> Option<Arc<dyn Probe + Send + Sync>> {
        std::mem::replace(&mut self.probe, ProbeHandle(probe)).0
    }

    /// The attached probe (the no-op probe when none is).
    pub(crate) fn probe(&self) -> &dyn Probe {
        self.probe.get()
    }

    /// Unwraps into the enforced schema and the instance.
    pub fn into_parts(self) -> (DirectorySchema, DirectoryInstance) {
        (self.schema, Arc::unwrap_or_clone(self.dir))
    }

    /// The full legality checker, reporting to this directory's probe.
    fn checker(&self) -> LegalityChecker<'_> {
        LegalityChecker::new(&self.schema).with_probe(self.probe.get())
    }

    /// The schema being enforced.
    pub fn schema(&self) -> &DirectorySchema {
        &self.schema
    }

    /// Swaps the enforced schema — the epoch cutover of a schema
    /// evolution. Only the Figures 6–7 consistency closure runs here;
    /// the caller attests the instance was already verified legal under
    /// `schema` (the evolution plane's targeted recheck, or a journalled
    /// cutover record that was only committed after one). `known_legal`
    /// is deliberately preserved on the same trust basis as journal
    /// replay trusting committed transactions.
    pub fn set_schema(&mut self, schema: DirectorySchema) -> Result<(), ManagedError> {
        let next = Self::certify_schema(schema)?;
        self.install(next);
        Ok(())
    }

    /// The consistency half of [`set_schema`](Self::set_schema).
    pub(crate) fn certify_schema(schema: DirectorySchema) -> Result<Successor, ManagedError> {
        let result = ConsistencyChecker::new(&schema).check();
        if !result.is_consistent() {
            return Err(inconsistency_error(&result));
        }
        Ok(Successor::Schema(Box::new(schema)))
    }

    /// Makes a certified successor the live state. Infallible: a swap.
    pub(crate) fn install(&mut self, next: Successor) {
        match next {
            Successor::Instance(dir) => {
                self.dir = Arc::new(dir);
                self.known_legal = true;
            }
            Successor::Schema(schema) => self.schema = *schema,
        }
    }

    /// Read access to the underlying instance.
    pub fn instance(&self) -> &DirectoryInstance {
        &self.dir
    }

    /// The live version itself, for a holder that outlives the next
    /// install — a reader's snapshot is this `Arc`, not a copy of it.
    pub fn shared_instance(&self) -> Arc<DirectoryInstance> {
        Arc::clone(&self.dir)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.dir.len()
    }

    /// True when the directory has no entries.
    pub fn is_empty(&self) -> bool {
        self.dir.is_empty()
    }

    /// Whether the current contents satisfy the schema. `false` before the
    /// first successful transaction of a directory that starts with unmet
    /// `◇c` requirements.
    pub fn is_legal(&self) -> bool {
        self.known_legal
    }

    /// The crash-consistency core every mutating operation runs through.
    ///
    /// `body` (mutation + legality verdict) runs under `catch_unwind` on
    /// a structurally shared copy of the instance — a clone shares every
    /// chunk the operation does not write. A legal verdict returns the
    /// copy as the certified successor; a structurally invalid
    /// transaction, an illegal verdict, a typed internal error or a
    /// panic at any instrumented site drops it. The live instance is not
    /// touched either way, so nothing can be half-applied and there is
    /// nothing to restore. Rollback diagnostics are recorded through the
    /// probe before the `managed.apply` span closes, and recording itself
    /// is panic-guarded: instrumentation never decides an outcome.
    fn certify<R>(
        &self,
        body: impl FnOnce(
            &mut DirectoryInstance,
            &dyn Probe,
        ) -> Result<(R, LegalityReport), ManagedError>,
    ) -> Result<(R, Successor), ManagedError> {
        let probe = self.probe.get();
        let mut next = DirectoryInstance::clone(&self.dir);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let span = probe.span_start(NO_SPAN, "managed.apply", 0);
            (span, body(&mut next, probe))
        }));
        let (span, refusal) = match outcome {
            Ok((span, Ok((value, report)))) if report.is_legal() => {
                let _ = guard_probe(|| {
                    if probe.enabled() {
                        probe.add("managed.tx_applied", 1);
                    }
                    probe.span_end(span);
                });
                return Ok((value, Successor::Instance(next)));
            }
            Ok((span, Ok((_, report)))) => (Some(span), ManagedError::RolledBack(report)),
            Ok((span, Err(e))) => (Some(span), e),
            // The span stays open — the tracer renders unclosed spans
            // explicitly, mirroring how the trace of a real crash ends.
            Err(payload) => {
                (None, ManagedError::Panicked { reason: panic_reason(payload.as_ref()) })
            }
        };
        let probe_fault = guard_probe(|| match &refusal {
            ManagedError::RolledBack(report) => record_rollback(probe, report),
            ManagedError::Transaction(_) if probe.enabled() => probe.add("managed.tx_invalid", 1),
            ManagedError::Panicked { .. } if probe.enabled() => {
                probe.add("managed.tx_panicked", 1);
                probe.add_labeled("managed.rollback_reason", "panic", 1);
            }
            _ => {}
        });
        if let Some(span) = span {
            let _ = guard_probe(|| probe.span_end(span));
        }
        Err(match probe_fault {
            Some(reason) => ManagedError::Panicked { reason },
            None => refusal,
        })
    }

    /// Runs `tx` to a verdict without touching the live state: the
    /// inserted subtrees' roots and the successor to
    /// [`install`](Self::install).
    pub(crate) fn certify_tx(
        &self,
        tx: &Transaction,
    ) -> Result<(Vec<EntryId>, Successor), ManagedError> {
        self.certify(|dir, probe| {
            if self.known_legal {
                // D is legal: the Theorem 4.1 + Figure 5 incremental path.
                let applied = apply_and_check_probed(&self.schema, dir, tx, probe)?;
                return Ok((applied.inserted_roots, applied.report));
            }
            // No legality baseline: apply, then full check.
            let normalized = tx.normalize(dir)?;
            let mut roots = Vec::with_capacity(normalized.insertions.len());
            for subtree in &normalized.insertions {
                roots.push(subtree.apply(dir)?[0]);
            }
            for &root in &normalized.deletion_roots {
                dir.remove_subtree(root).map_err(|e| {
                    ManagedError::Internal(format!("removing validated deletion root {root}: {e}"))
                })?;
            }
            prepare_probed(dir, probe);
            Ok((roots, self.checker().check(dir)))
        })
    }

    /// Applies `tx` atomically: if the resulting directory would be
    /// illegal, no change is made and the violations are returned.
    pub fn apply(&mut self, tx: &Transaction) -> Result<(), ManagedError> {
        let (_, next) = self.certify_tx(tx)?;
        self.install(next);
        Ok(())
    }

    /// Single-insert convenience (one-op transaction).
    pub fn insert_under(&mut self, parent: EntryId, entry: Entry) -> Result<EntryId, ManagedError> {
        let mut tx = Transaction::new();
        tx.insert_under(parent, entry);
        self.apply_returning_root(&tx)
    }

    /// Single root-insert convenience.
    pub fn insert_root(&mut self, entry: Entry) -> Result<EntryId, ManagedError> {
        let mut tx = Transaction::new();
        tx.insert_root(entry);
        self.apply_returning_root(&tx)
    }

    fn apply_returning_root(&mut self, tx: &Transaction) -> Result<EntryId, ManagedError> {
        let (roots, next) = self.certify_tx(tx)?;
        let root = roots.first().copied().ok_or_else(|| {
            ManagedError::Internal("single-insert transaction produced no root".to_owned())
        })?;
        self.install(next);
        Ok(root)
    }

    /// Single subtree-delete convenience: deletes `target` and its whole
    /// subtree in one transaction.
    pub fn delete_subtree(&mut self, target: EntryId) -> Result<(), ManagedError> {
        let mut tx = Transaction::new();
        let forest = self.dir.forest();
        // Delete bottom-up so the transaction is a valid leaf-delete
        // sequence.
        for id in forest.postorder_of(target) {
            tx.delete(id);
        }
        self.apply(&tx)
    }

    /// Runs an LDAP Modify of `target` to a verdict without touching the
    /// live state.
    pub(crate) fn certify_modify(
        &self,
        target: EntryId,
        mods: &[crate::updates::Mod],
    ) -> Result<((), Successor), ManagedError> {
        self.certify(|dir, probe| {
            let Some(changed) = crate::updates::apply_mods(dir, target, mods) else {
                return Ok(((), inapplicable(target, "no such entry".to_owned())));
            };
            prepare_probed(dir, probe);
            let report = if self.known_legal {
                crate::updates::check_modification(&self.schema, dir, target, &changed, probe)
            } else {
                self.checker().check(dir)
            };
            Ok(((), report))
        })
    }

    /// Modifies one entry's attributes (LDAP Modify), atomically: no
    /// change is made if the result would be illegal.
    pub fn modify_entry(
        &mut self,
        target: EntryId,
        mods: &[crate::updates::Mod],
    ) -> Result<(), ManagedError> {
        let ((), next) = self.certify_modify(target, mods)?;
        self.install(next);
        Ok(())
    }

    /// Moves the subtree rooted at `target` under `new_parent` (LDAP
    /// ModifyDN), atomically: no change is made if the result would be
    /// illegal.
    pub fn move_subtree(
        &mut self,
        target: EntryId,
        new_parent: EntryId,
    ) -> Result<(), ManagedError> {
        let ((), next) = self.certify(|dir, probe| {
            let former_parent = dir.forest().parent(target);
            if let Err(e) = dir.move_subtree(target, new_parent) {
                return Ok(((), inapplicable(target, e.to_string())));
            }
            prepare_probed(dir, probe);
            let report =
                if self.known_legal {
                    crate::updates::IncrementalChecker::new(&self.schema)
                        .with_probe(probe)
                        .check_move(dir, target, former_parent)
                } else {
                    self.checker().check(dir)
                };
            Ok(((), report))
        })?;
        self.install(next);
        Ok(())
    }

    /// Evaluates a hierarchical selection query against the directory.
    pub fn query(&self, query: &Query) -> Vec<EntryId> {
        evaluate(&EvalContext::new(&self.dir), query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{white_pages_instance, white_pages_schema};
    use crate::schema::RelKind;

    fn researcher(uid: &str) -> Entry {
        Entry::builder()
            .classes(["researcher", "person", "top"])
            .attr("uid", uid)
            .attr("name", uid)
            .build()
    }

    #[test]
    fn wraps_legal_instance() {
        let (dir, ids) = white_pages_instance();
        let mut managed = ManagedDirectory::with_instance(white_pages_schema(), dir).unwrap();
        assert!(managed.is_legal());
        assert_eq!(managed.len(), 6);
        // Legal insert goes through.
        let new = managed.insert_under(ids.databases, researcher("milo")).unwrap();
        assert_eq!(managed.len(), 7);
        assert!(managed.instance().contains(new));
    }

    #[test]
    fn rejects_inconsistent_schema() {
        let schema = DirectorySchema::builder()
            .core_class("a", "top")
            .and_then(|b| b.core_class("b", "top"))
            .and_then(|b| b.require_class("a"))
            .and_then(|b| b.require_rel("a", RelKind::Child, "b"))
            .and_then(|b| b.require_rel("b", RelKind::Descendant, "a"))
            .map(|b| b.build())
            .unwrap();
        let err = ManagedDirectory::new(schema, AttributeRegistry::new()).unwrap_err();
        assert!(matches!(err, ManagedError::InconsistentSchema(_)));
        assert!(err.to_string().contains("◇∅"));
    }

    #[test]
    fn rejects_illegal_instance() {
        let (mut dir, ids) = white_pages_instance();
        dir.entry_mut(ids.suciu).unwrap().remove_attribute("name");
        dir.prepare();
        let err = ManagedDirectory::with_instance(white_pages_schema(), dir).unwrap_err();
        assert!(matches!(err, ManagedError::IllegalInstance(_)));
    }

    #[test]
    fn illegal_transaction_rolls_back() {
        let (dir, ids) = white_pages_instance();
        let mut managed = ManagedDirectory::with_instance(white_pages_schema(), dir).unwrap();
        let err = managed
            .insert_under(
                ids.suciu,
                Entry::builder().classes(["orgUnit", "orgGroup", "top"]).attr("ou", "x").build(),
            )
            .unwrap_err();
        assert!(matches!(err, ManagedError::RolledBack(_)));
        assert_eq!(managed.len(), 6, "rollback must restore the instance");
        assert!(managed.is_legal());
    }

    #[test]
    fn delete_subtree_checks_legality() {
        let (dir, ids) = white_pages_instance();
        let mut managed = ManagedDirectory::with_instance(white_pages_schema(), dir).unwrap();
        // Deleting the whole databases unit removes laks & suciu but keeps
        // armstrong: attLabs still has a person descendant. Legal.
        managed.delete_subtree(ids.databases).unwrap();
        assert_eq!(managed.len(), 3);
        // Deleting armstrong now would leave attLabs with no person
        // descendant (and ◇person unmet): rolled back.
        let err = managed.delete_subtree(ids.armstrong).unwrap_err();
        assert!(matches!(err, ManagedError::RolledBack(_)));
        assert_eq!(managed.len(), 3);
    }

    #[test]
    fn bootstrap_from_empty() {
        // Schema with ◇a: the empty directory is illegal, but a transaction
        // creating an `a` entry fixes it.
        let schema = DirectorySchema::builder()
            .core_class("a", "top")
            .and_then(|b| b.require_class("a"))
            .map(|b| b.build())
            .unwrap();
        let mut managed = ManagedDirectory::new(schema, AttributeRegistry::new()).unwrap();
        assert!(!managed.is_legal());
        // An unrelated insert that leaves ◇a unmet is rejected.
        let err = managed.insert_root(Entry::builder().class("top").build()).unwrap_err();
        assert!(matches!(err, ManagedError::RolledBack(_)));
        // Adding the required entry succeeds.
        managed.insert_root(Entry::builder().classes(["a", "top"]).build()).unwrap();
        assert!(managed.is_legal());
    }

    #[test]
    fn legal_move_is_accepted_and_illegal_move_rolls_back() {
        let (dir, ids) = white_pages_instance();
        let mut managed = ManagedDirectory::with_instance(white_pages_schema(), dir).unwrap();
        // Legal: move the databases unit directly under the organization.
        managed.move_subtree(ids.databases, ids.att).unwrap();
        assert_eq!(managed.instance().forest().parent(ids.databases), Some(ids.att));
        assert!(managed.is_legal());
        // Illegal: moving armstrong under suciu gives a person a child.
        let err = managed.move_subtree(ids.armstrong, ids.suciu).unwrap_err();
        assert!(matches!(err, ManagedError::RolledBack(_)));
        assert_eq!(
            managed.instance().forest().parent(ids.armstrong),
            Some(ids.att_labs),
            "rollback must restore the old location"
        );
        // Illegal: moving databases away would leave attLabs without a
        // person descendant... armstrong is still under attLabs, so that
        // stays legal — instead move attLabs under laks (person child).
        let err = managed.move_subtree(ids.att_labs, ids.laks).unwrap_err();
        assert!(matches!(err, ManagedError::RolledBack(_)));
    }

    #[test]
    fn modify_entry_enforces_schema() {
        use crate::updates::Mod;
        let (dir, ids) = white_pages_instance();
        let mut managed = ManagedDirectory::with_instance(white_pages_schema(), dir).unwrap();
        // Legal modification.
        managed
            .modify_entry(
                ids.suciu,
                &[Mod::Add { attribute: "title".into(), value: "researcher".into() }],
            )
            .unwrap();
        // Illegal: dropping a required attribute rolls back.
        let err = managed
            .modify_entry(ids.suciu, &[Mod::DeleteAttribute { attribute: "name".into() }])
            .unwrap_err();
        assert!(matches!(err, ManagedError::RolledBack(_)));
        assert!(managed.instance().entry(ids.suciu).unwrap().has_attribute("name"));
        assert!(managed.is_legal());
    }

    #[test]
    fn query_through_managed_api() {
        let (dir, _) = white_pages_instance();
        let managed = ManagedDirectory::with_instance(white_pages_schema(), dir).unwrap();
        let persons = managed.query(&Query::object_class("person"));
        assert_eq!(persons.len(), 3);
    }
}
