//! The evolution plane (DESIGN.md §15): `SCHEMA PROPOSE`, `CHECK`,
//! `STATUS`, `ABORT` and the live `COMMIT` cutover.

use std::sync::atomic::Ordering;

use bschema_core::checkpoint::schema_hash;
use bschema_core::engine::Op;
use bschema_core::evolution::plan::{parse_proposal, EvolutionPlan, PlanError};
use bschema_core::legality::LegalityReport;
use bschema_core::managed::ManagedError;
use bschema_core::schema::DirectorySchema;
use bschema_directory::DirectoryInstance;
use bschema_obs::names;

use super::{lock_unpoisoned, Backend, DirectoryService, ServiceError};

/// A staged schema evolution: the parsed [`EvolutionPlan`] and whether
/// the last `SCHEMA CHECK` of it passed (what `STATUS` reports; the
/// commit revalidates regardless).
#[derive(Debug)]
pub(super) struct StagedEvolution {
    plan: EvolutionPlan,
    checked: bool,
}

impl DirectoryService {
    /// The current full bounding-schema (with `Cr`), whatever the
    /// backend.
    pub fn current_schema(&self) -> DirectorySchema {
        match &self.backend {
            Backend::Single(engine) => lock_unpoisoned(engine).schema().clone(),
            Backend::Sharded(sharded) => sharded.schema(),
        }
    }

    /// Completed schema cutovers since this service started.
    pub fn schema_epoch(&self) -> u64 {
        self.schema_epoch.load(Ordering::Relaxed)
    }

    /// `SCHEMA PROPOSE`: parses `payload` (a list of evolution steps or
    /// a full schema-DSL document) against the current schema and
    /// stages the resulting plan. At most one proposal is staged at a
    /// time; a second is refused with `schema-pending` until the first
    /// commits or aborts.
    pub fn schema_propose(&self, payload: &str) -> Result<String, ServiceError> {
        self.writable(&*self.probe)?;
        let mut slot = lock_unpoisoned(&self.evolution);
        if slot.is_some() {
            return Err(ServiceError::new(
                "schema-pending",
                "a schema proposal is already staged; SCHEMA COMMIT or SCHEMA ABORT it first",
            ));
        }
        let current = self.current_schema();
        let plan = parse_proposal(&current, payload).map_err(|e| match &e {
            PlanError::Inconsistent(_) => ServiceError::new("schema-inconsistent", e.to_string()),
            _ => ServiceError::new("schema-invalid", e.to_string()),
        })?;
        self.probe.add("server.schema_propose", 1);
        let body = format!(
            "{{\"staged\":true,\"description\":{},\"relaxing\":{},\"restricting\":{},\"requires_recheck\":{}}}",
            bschema_obs::json::escape(&plan.describe()),
            plan.relaxing,
            plan.restricting,
            !plan.is_relaxing_only(),
        );
        *slot = Some(StagedEvolution { plan, checked: false });
        Ok(body)
    }

    /// `SCHEMA CHECK`: runs the staged plan's targeted recheck (§6.2 —
    /// only the restricting steps' new elements; Definition 2.7 exempts
    /// relaxing ones) against a read snapshot, entirely off the write
    /// path. A failure reports the offending entries and leaves the
    /// proposal staged for inspection or abort; a pass is advisory —
    /// `SCHEMA COMMIT` rechecks under its locks whatever committed in
    /// between.
    pub fn schema_check(&self) -> Result<String, ServiceError> {
        let mut slot = lock_unpoisoned(&self.evolution);
        let Some(staged) = slot.as_mut() else {
            return Err(ServiceError::new("schema-none", "no schema proposal is staged"));
        };
        self.probe.add("server.schema_check", 1);
        let snapshot = self.snapshot();
        let checked = revalidate(&staged.plan, &snapshot);
        staged.checked = checked.is_ok();
        checked.map_err(|(_, detail)| ServiceError::new("schema-violates", detail))?;
        Ok(format!(
            "{{\"ok\":true,\"mode\":{}}}",
            bschema_obs::json::escape(&staged.plan.describe()),
        ))
    }

    /// `SCHEMA STATUS`: the current epoch, schema hash, and the staged
    /// proposal (if any) as one JSON object.
    pub fn schema_status(&self) -> String {
        let slot = lock_unpoisoned(&self.evolution);
        let pending = match slot.as_ref() {
            Some(staged) => format!(
                "{{\"description\":{},\"relaxing\":{},\"restricting\":{},\"checked\":{}}}",
                bschema_obs::json::escape(&staged.plan.describe()),
                staged.plan.relaxing,
                staged.plan.restricting,
                staged.checked,
            ),
            None => "null".to_owned(),
        };
        drop(slot);
        format!(
            "{{\"epoch\":{},\"hash\":\"{:016x}\",\"shards\":{},\"pending\":{pending}}}",
            self.schema_epoch(),
            schema_hash(&self.current_schema()),
            self.shards(),
        )
    }

    /// `SCHEMA ABORT`: drops the staged proposal.
    pub fn schema_abort(&self) -> Result<String, ServiceError> {
        self.writable(&*self.probe)?;
        let mut slot = lock_unpoisoned(&self.evolution);
        if slot.take().is_none() {
            return Err(ServiceError::new("schema-none", "no schema proposal is staged"));
        }
        self.probe.add("server.schema_abort", 1);
        Ok("{\"aborted\":true}".to_owned())
    }

    /// `SCHEMA COMMIT`: the live cutover. Under the write lock (single)
    /// or every shard lock (sharded), the staged plan is revalidated by
    /// [`revalidate`] — a no-op for relaxing-only plans
    /// (Definition 2.7) — then the full-schema record is write-ahead
    /// journalled, the commit record lands, and the engine swaps
    /// schemas — on either backend through the engine's one write-ahead
    /// driver. The `schema.cutover` fault site sits between the prepare
    /// (journalled schema record) and the swap: a panic there answers
    /// `ERR panicked` and leaves an uncommitted record that recovery
    /// discards, the old epoch intact, and the proposal still staged — a
    /// retry simply succeeds.
    pub fn schema_commit(&self) -> Result<String, ServiceError> {
        self.writable(&*self.probe)?;
        let mut slot = lock_unpoisoned(&self.evolution);
        let Some(staged) = slot.as_ref() else {
            return Err(ServiceError::new("schema-none", "no schema proposal is staged"));
        };
        let plan = &staged.plan;
        let refused = |detail: String| {
            self.probe.add_labeled(names::TX_REJECTED, "schema-violates", 1);
            ServiceError::new("schema-violates", detail)
        };
        match &self.backend {
            Backend::Single(engine) => {
                let mut engine = lock_unpoisoned(engine);
                revalidate(plan, engine.instance()).map_err(|(_, detail)| refused(detail))?;
                // Write-ahead: the schema record must be durable before
                // the swap, mirroring the TXN begin/commit discipline.
                let (schema, dsl) = (&plan.target, plan.dsl.as_str());
                let cutover = Op::Schema { schema, dsl, local: false, global: None };
                let _counted = engine.apply_op(cutover, &*self.probe)?;
                self.publish(&[(0, engine.shared_instance())], &*self.probe);
            }
            Backend::Sharded(sharded) => {
                let mut violation = None;
                let result =
                    sharded.swap_schema_validated(plan.target.clone(), &plan.dsl, |merged| {
                        revalidate(plan, merged).map_err(|(report, detail)| {
                            violation = Some(detail);
                            ManagedError::IllegalInstance(report)
                        })
                    });
                if let Some(detail) = violation {
                    return Err(refused(detail));
                }
                result?;
            }
        }
        let epoch = self.schema_epoch.fetch_add(1, Ordering::SeqCst) + 1;
        *slot = None;
        self.probe.add("server.schema_commit", 1);
        Ok(format!(
            "{{\"committed\":true,\"epoch\":{epoch},\"hash\":\"{:016x}\"}}",
            schema_hash(&self.current_schema()),
        ))
    }
}

/// The one SCHEMA revalidation rule — `CHECK` against a snapshot,
/// `COMMIT` under the write lock(s) on either backend: the plan's
/// recheck (nothing to do for a relaxing-only plan, Definition 2.7); a
/// refusal carries the report and its `schema-violates` detail.
fn revalidate(
    plan: &EvolutionPlan,
    dir: &DirectoryInstance,
) -> Result<(), (LegalityReport, String)> {
    let report = plan.recheck(dir);
    if report.is_legal() {
        return Ok(());
    }
    let detail = render_violations(&report, dir);
    Err((report, detail))
}

/// Renders a recheck failure as an EXPLAIN-style report naming the
/// offending entries by DN (first few, with a count of the rest).
fn render_violations(report: &LegalityReport, dir: &DirectoryInstance) -> String {
    let total = report.len();
    let mut parts: Vec<String> = Vec::new();
    for v in report.violations().iter().take(5) {
        match v.entry().and_then(|id| dir.dn(id).ok()) {
            Some(dn) => parts.push(format!("{v} (dn: {dn})")),
            None => parts.push(v.to_string()),
        }
    }
    let more = if total > parts.len() {
        format!("; +{} more", total - parts.len())
    } else {
        String::new()
    };
    format!("{total} violation(s) under the proposed schema: {}{more}", parts.join("; "))
}
