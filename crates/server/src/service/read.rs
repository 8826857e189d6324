//! The read plane: every read verb runs on published snapshots, with no
//! write lock held.

use std::sync::Arc;

use bschema_core::sharded::canonical_merge;
use bschema_directory::ldif::write_record;
use bschema_directory::{DirectoryInstance, Dn};
use bschema_obs::{Probe, NO_SPAN};
use bschema_query::{
    explain, parse_filter_limited, search, EvalContext, Query, SearchRequest, SearchScope,
};

use super::{DirectoryService, ServiceError};

impl DirectoryService {
    /// The current read snapshot — a complete, legal instance. On the
    /// single backend this is cheap (one `Arc` clone under a read
    /// lock). On a sharded backend it is the **canonical merge** of the
    /// per-shard snapshots — an O(n) rebuild, meant for assertions and
    /// diagnostics, not the request path (searches fan out over
    /// [`shard_snapshot`](DirectoryService::shard_snapshot)s instead).
    pub fn snapshot(&self) -> Arc<DirectoryInstance> {
        if self.sharded().is_none() {
            return self.shard_snapshot(0);
        }
        let parts: Vec<Arc<DirectoryInstance>> =
            (0..self.shards()).map(|k| self.shard_snapshot(k)).collect();
        let merged = canonical_merge(parts.iter().map(Arc::as_ref))
            .expect("published shard snapshots merge");
        Arc::new(merged)
    }

    /// Shard `k`'s current read snapshot (`k = 0` on the single
    /// backend). Always cheap: one `Arc` clone under that shard's read
    /// lock.
    pub fn shard_snapshot(&self, k: usize) -> Arc<DirectoryInstance> {
        self.snapshots[k].read().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Directory size, from the read snapshot(s).
    pub fn len(&self) -> usize {
        (0..self.shards()).map(|k| self.shard_snapshot(k).len()).sum()
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serves a search: parses `filter_src` (depth-capped), resolves the
    /// optional base DN against the snapshot, and returns the matching
    /// entries as LDIF text. Runs entirely on the snapshot — no lock
    /// held during evaluation.
    pub fn search(
        &self,
        base: Option<&str>,
        scope: SearchScope,
        filter_src: &str,
        limit: Option<usize>,
    ) -> Result<(usize, String), ServiceError> {
        self.search_traced(base, scope, filter_src, limit, &*self.probe)
    }

    /// [`search`](DirectoryService::search) reporting to the request's
    /// `probe`: the whole evaluation runs inside one `service.search`
    /// span, hung under the request root on a traced server.
    pub(crate) fn search_traced(
        &self,
        base: Option<&str>,
        scope: SearchScope,
        filter_src: &str,
        limit: Option<usize>,
        probe: &dyn Probe,
    ) -> Result<(usize, String), ServiceError> {
        let span = probe.span_start(NO_SPAN, "service.search", 0);
        let mut out = String::new();
        let total = self.walk_targets(base, scope, filter_src, limit, |_, snapshot, request| {
            let ids = search(snapshot, request);
            for &id in &ids {
                let dn =
                    snapshot.dn(id).map_err(|e| ServiceError::new("internal", e.to_string()))?;
                let entry = snapshot
                    .entry(id)
                    .ok_or_else(|| ServiceError::new("internal", format!("dangling id {id}")))?;
                write_record(&mut out, &dn.to_string(), entry);
            }
            Ok(ids.len())
        });
        probe.span_end(span);
        let total = total?;
        probe.add("server.search_entries", total as u64);
        Ok((total, out))
    }

    /// EXPLAIN for a search: runs the filter through the plan-recording
    /// evaluator and returns `(returned, json)` where `json` describes
    /// the evaluation plan — access path per step (index reused, seeded
    /// scan, or full scan), candidate-set sizes, entries scanned vs.
    /// matched — plus the scope restriction and final result count.
    /// The snapshot is not mutated and no counters are emitted.
    pub fn search_explain(
        &self,
        base: Option<&str>,
        scope: SearchScope,
        filter_src: &str,
        limit: Option<usize>,
    ) -> Result<(usize, String), ServiceError> {
        let mut reports: Vec<(usize, String)> = Vec::new();
        let total = self.walk_targets(base, scope, filter_src, limit, |k, snapshot, request| {
            let report =
                explain(&EvalContext::new(snapshot), &Query::select(request.filter.clone()));
            reports.push((k, report.to_json()));
            Ok(search(snapshot, request).len())
        })?;
        let head = format!(
            "{{\"scope\":{},\"base\":{},\"returned\":{total}",
            bschema_obs::json::escape(scope.as_str()),
            base.map_or_else(|| "null".to_owned(), bschema_obs::json::escape),
        );
        let json = match self.sharded() {
            None => {
                let report = reports.pop().map_or_else(|| "null".to_owned(), |(_, json)| json);
                format!("{head},\"explain\":{report}}}")
            }
            // Sharded: one plan per shard the search fanned out to, in
            // shard order, each labeled with its shard index.
            Some(_) => {
                let body: Vec<String> = reports
                    .into_iter()
                    .map(|(k, json)| format!("{{\"shard\":{k},\"explain\":{json}}}"))
                    .collect();
                format!("{head},\"shards\":[{}]}}", body.join(","))
            }
        };
        Ok((total, json))
    }

    /// The read plane's one shard fan-out: visits the search's targets
    /// in shard order, each with the size budget the earlier ones left (a
    /// spent budget stops the walk after the first target). `visit`
    /// returns how many entries its target matched; the sum comes back.
    fn walk_targets(
        &self,
        base: Option<&str>,
        scope: SearchScope,
        filter_src: &str,
        limit: Option<usize>,
        mut visit: impl FnMut(usize, &DirectoryInstance, &SearchRequest) -> Result<usize, ServiceError>,
    ) -> Result<usize, ServiceError> {
        let plan = self.build_search(base, scope, filter_src)?;
        let mut total = 0usize;
        let mut remaining = limit;
        for (i, (k, snapshot, mut request)) in plan.into_iter().enumerate() {
            if let Some(r) = remaining {
                if r == 0 && i > 0 {
                    break;
                }
                request = request.with_size_limit(r);
            }
            let found = visit(k, &snapshot, &request)?;
            total += found;
            if let Some(r) = &mut remaining {
                *r -= found.min(*r);
            }
        }
        Ok(total)
    }

    /// Shared front half of the search paths: parse the filter
    /// (depth-capped) and assemble one `(shard, snapshot, request)`
    /// target per shard the search must visit — exactly one for a
    /// base-scoped search (a base DN's whole subtree lives on the shard
    /// owning its top-level RDN, the Theorem 4.1 boundary) or on the
    /// single backend; every shard in index order for an unscoped
    /// search on the sharded backend. Size limits are applied by
    /// [`walk_targets`](Self::walk_targets), which threads the remaining
    /// budget across targets.
    fn build_search(
        &self,
        base: Option<&str>,
        scope: SearchScope,
        filter_src: &str,
    ) -> Result<Vec<(usize, Arc<DirectoryInstance>, SearchRequest)>, ServiceError> {
        let filter = parse_filter_limited(filter_src, self.limits.filter_depth)
            .map_err(|e| ServiceError::new("bad-filter", e.to_string()))?;
        match base {
            Some(dn_src) => {
                let dn =
                    Dn::parse(dn_src).map_err(|e| ServiceError::new("bad-dn", e.to_string()))?;
                let k = self.sharded().map_or(0, |sharded| sharded.shard_of_dn(&dn));
                let snapshot = self.shard_snapshot(k);
                let id = snapshot.lookup_dn(&dn).ok_or_else(|| {
                    ServiceError::new("no-such-base", format!("no entry named {dn_src}"))
                })?;
                Ok(vec![(k, snapshot, SearchRequest::under(id, scope, filter))])
            }
            None => Ok((0..self.shards())
                .map(|k| {
                    let mut r = SearchRequest::whole_directory(filter.clone());
                    r.scope = scope;
                    (k, self.shard_snapshot(k), r)
                })
                .collect()),
        }
    }
}
