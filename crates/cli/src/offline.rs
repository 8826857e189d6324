//! The offline checks and schema tools, run against files: Theorem 3.1
//! legality (`validate`, `check`), the Figures 6–7 consistency closure
//! (`check-schema`, `consistency`, `witness`), LDAP `search`, and the
//! schema's own life (`print-schema`, `evolve`, `suggest-schema`,
//! `discover`).

use std::fmt::Write as _;

use bschema_core::consistency::{build_witness, ConsistencyChecker};
use bschema_core::discover::{suggest_schema, DiscoveryOptions};
use bschema_core::evolution::plan::{parse_proposal, parse_step_words};
use bschema_core::legality::{translate, LegalityChecker, LegalityReport};
use bschema_core::schema::dsl::print_schema;
use bschema_core::schema::DirectorySchema;
use bschema_directory::ldif::LdifLimits;
use bschema_directory::DirectoryInstance;
use bschema_obs::Recorder;
use bschema_query::{
    explain, parse_filter_limited, search as run_search, EvalContext, SearchRequest, SearchScope,
};

use crate::args::Args;
use crate::{
    filter_depth, ldif_limits, load_ldif, load_schema, usage_error, CliError, ObsOpts, LIMITS, OBS,
};

/// The legality verdict `validate` and `check` print: the entry count,
/// then `LEGAL` (exit 0) or every violation with its entry's DN (exit 1).
fn legality_verdict(
    out: &mut String,
    schema: &DirectorySchema,
    dir: &DirectoryInstance,
    report: &LegalityReport,
) -> i32 {
    let name = schema.name().unwrap_or("unnamed");
    let _ = writeln!(out, "{} entries checked against {name:?}", dir.len());
    if report.is_legal() {
        let _ = writeln!(out, "LEGAL");
        return 0;
    }
    let _ = writeln!(out, "ILLEGAL: {} violation(s)", report.len());
    for v in report.violations() {
        let location = v
            .entry()
            .and_then(|id| dir.dn(id).ok())
            .map(|dn| format!(" [dn: {dn}]"))
            .unwrap_or_default();
        let _ = writeln!(out, "  - {v}{location}");
    }
    1
}

pub(crate) fn validate(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let args = Args::read(args, &[], LIMITS)?;
    let [schema_path, ldif_path] = args.exactly("validate takes <schema.bs> <data.ldif>")?;
    let limits = ldif_limits(&args, LdifLimits::default())?;
    let parsed = load_schema(schema_path)?;
    let dir = load_ldif(ldif_path, Some(&parsed), &limits)?;
    let report = LegalityChecker::new(&parsed.schema).with_value_validation(true).check(&dir);
    Ok(legality_verdict(out, &parsed.schema, &dir, &report))
}

pub(crate) fn check(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let args = Args::read(args, &[OBS, &["--explain"]].concat(), LIMITS)?;
    let [ldif_path, schema_path] = args.exactly("check takes <data.ldif> <schema.bs>")?;
    let limits = ldif_limits(&args, LdifLimits::default())?;
    let parsed = load_schema(schema_path)?;
    let dir = load_ldif(ldif_path, Some(&parsed), &limits)?;
    let recorder = Recorder::new();
    let report = LegalityChecker::new(&parsed.schema).with_probe(&recorder).check(&dir);
    let code = legality_verdict(out, &parsed.schema, &dir, &report);
    if args.has("--explain") {
        explain_structure_queries(&parsed.schema, &dir, out);
    }
    ObsOpts::new(&args).emit(out, recorder.metrics(), Some(&recorder));
    Ok(code)
}

/// `check --explain`: renders the evaluation plan of every structure
/// query (the Figure 4 translation, in engine order) against the loaded
/// instance — which index each step reused or seeded, candidate-set
/// sizes, and entries scanned vs. matched — then a totals line.
fn explain_structure_queries(schema: &DirectorySchema, dir: &DirectoryInstance, out: &mut String) {
    let structure = schema.structure();
    let mut queries = Vec::new();
    for class in structure.required_classes() {
        queries.push(translate::required_class_query(schema, class));
    }
    for rel in structure.required_rels() {
        queries.push(translate::required_rel_query(schema, rel));
    }
    for rel in structure.forbidden_rels() {
        queries.push(translate::forbidden_rel_query(schema, rel));
    }
    let _ =
        writeln!(out, "EXPLAIN: {} structure queries (the Figure 4 translation)", queries.len());
    let ctx = EvalContext::new(dir);
    let (mut scanned, mut matched) = (0usize, 0usize);
    for query in &queries {
        let report = explain(&ctx, query);
        scanned += report.scanned();
        matched += report.matched();
        out.push_str(&report.render_text());
    }
    let _ = writeln!(
        out,
        "EXPLAIN totals: {} queries, scanned={scanned}, matched={matched}",
        queries.len()
    );
}

/// `check-schema` (`census`: class and structure counts, no flags) and
/// `consistency` (`--trace` / `--metrics`): the Figures 6–7 closure and
/// its verdict — consistent (exit 0), or the ◇∅ derivation (exit 1).
pub(crate) fn consistency(
    args: &[String],
    out: &mut String,
    census: bool,
) -> Result<i32, CliError> {
    let (command, switches) = if census { ("check-schema", &[][..]) } else { ("consistency", OBS) };
    let args = Args::read(args, switches, &[])?;
    let [path] = args.exactly(&format!("{command} takes exactly one schema file"))?;
    let parsed = load_schema(path)?;
    let schema = &parsed.schema;
    let recorder = Recorder::new();
    let verdict = ConsistencyChecker::new(schema).with_probe(&recorder).check();
    let (counts, consistent, inconsistent) = if census {
        (
            format!(
                "{} classes, {} structure elements, ",
                schema.classes().len(),
                schema.structure().len()
            ),
            "CONSISTENT: at least one legal directory instance exists",
            "INCONSISTENT: no legal directory instance can exist",
        )
    } else {
        (String::new(), "CONSISTENT", "INCONSISTENT")
    };
    let name = schema.name().unwrap_or("unnamed");
    let _ = writeln!(out, "schema {name:?}: {counts}closure {} elements", verdict.closure_size());
    let code = if verdict.is_consistent() {
        let _ = writeln!(out, "{consistent}");
        0
    } else {
        let _ = writeln!(out, "{inconsistent}");
        let _ = writeln!(out, "{}", verdict.explain_inconsistency().unwrap_or_default());
        1
    };
    ObsOpts::new(&args).emit(out, recorder.metrics(), Some(&recorder));
    Ok(code)
}

pub(crate) fn witness(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let [path] = Args::read(args, &[], &[])?.exactly("witness takes exactly one schema file")?;
    let parsed = load_schema(path)?;
    let verdict = ConsistencyChecker::new(&parsed.schema).check();
    if !verdict.is_consistent() {
        let _ = writeln!(out, "INCONSISTENT — no witness exists:");
        let _ = writeln!(out, "{}", verdict.explain_inconsistency().unwrap_or_default());
        return Ok(1);
    }
    match build_witness(&parsed.schema) {
        Ok(instance) => {
            let _ = writeln!(out, "witness with {} entries (verified legal):", instance.len());
            for (id, entry) in instance.iter() {
                let depth = instance.forest().depth(id);
                let _ = writeln!(out, "{}- {}", "  ".repeat(depth), entry.classes().join(","));
            }
            Ok(0)
        }
        Err(e) => Err(CliError { message: format!("witness construction failed: {e}"), code: 1 }),
    }
}

pub(crate) fn search(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let args =
        Args::read(args, &[], &[&["--filter", "--base", "--scope", "--schema"], LIMITS].concat())?;
    let [ldif_path] = args.exactly("search needs a data.ldif argument")?;
    let filter_text = args.value("--filter").ok_or_else(|| usage_error("search needs --filter"))?;
    let scope = args.value("--scope").map_or(Ok(SearchScope::Subtree), str::parse);
    let scope = scope.map_err(usage_error)?;
    let limits = ldif_limits(&args, LdifLimits::default())?;
    let filter = parse_filter_limited(filter_text, filter_depth(&args)?)
        .map_err(|e| usage_error(format!("bad filter: {e}")))?;
    let parsed = args.value("--schema").map(load_schema).transpose()?;
    let dir = load_ldif(ldif_path, parsed.as_ref(), &limits)?;
    let base = match args.value("--base") {
        Some(text) => {
            let dn = text.parse().map_err(|e| usage_error(format!("bad base DN: {e}")))?;
            Some(
                dir.lookup_dn(&dn)
                    .ok_or_else(|| usage_error(format!("base DN {text:?} not found")))?,
            )
        }
        None => None,
    };
    let hits = run_search(&dir, &SearchRequest { base, scope, filter, size_limit: None });
    let _ = writeln!(out, "{} entries match", hits.len());
    for id in hits {
        let _ = match dir.dn(id) {
            Ok(dn) => writeln!(out, "dn: {dn}"),
            Err(_) => writeln!(out, "entry {id}"),
        };
    }
    Ok(0)
}

pub(crate) fn print_schema_file(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let [path] =
        Args::read(args, &[], &[])?.exactly("print-schema takes exactly one schema file")?;
    let parsed = load_schema(path)?;
    out.push_str(&print_schema(&parsed.schema, Some(&parsed.registry)));
    Ok(0)
}

/// `evolve`: one evolution step, in the grammar the server's `SCHEMA
/// PROPOSE` step lines go through ([`parse_step_words`]), decided by the
/// plan the server stages ([`parse_proposal`], then
/// [`recheck`](bschema_core::evolution::plan::EvolutionPlan::recheck)),
/// so the CLI accepts offline exactly what it would accept online — the
/// relaxing `add-class` / `add-aux` / `allow-aux` forms included.
pub(crate) fn evolve(args: &[String], out: &mut String) -> Result<i32, CliError> {
    let args = Args::read(args, &[], &[])?;
    let [schema_path, ldif_path, words @ ..] = args.positional() else {
        return Err(usage_error("evolve takes <schema.bs> <data.ldif> <step...>"));
    };
    let step =
        parse_step_words(words).map_err(|e| usage_error(format!("{e}; see `bschema help`")))?;
    let parsed = load_schema(schema_path)?;
    let dir = load_ldif(ldif_path, Some(&parsed), &LdifLimits::default())?;
    // The instance must be legal for the targeted recheck to be meaningful.
    let before = LegalityChecker::new(&parsed.schema).check(&dir);
    if !before.is_legal() {
        let _ = writeln!(
            out,
            "directory is not legal under the current schema; fix it first:\n{before}"
        );
        return Ok(1);
    }
    let plan = match parse_proposal(&parsed.schema, &words.join(" ")) {
        Ok(plan) => plan,
        Err(e) => {
            let _ = writeln!(out, "REFUSED: {e}");
            return Ok(1);
        }
    };
    let report = plan.recheck(&dir);
    if !report.is_legal() {
        let _ = writeln!(out, "REFUSED: existing directory violates the new element:\n{report}");
        return Ok(1);
    }
    let _ = writeln!(
        out,
        "OK: {step} is safe ({} kind)",
        if plan.is_relaxing_only() {
            "relaxing — no recheck needed"
        } else {
            "restricting — new element verified"
        }
    );
    let _ = writeln!(out, "evolved schema:\n");
    out.push_str(&plan.dsl);
    Ok(0)
}

/// `suggest-schema` (`header`: the human-facing form, with a provenance
/// line) and `discover` (**pure schema DSL**, nothing else — directly
/// valid as a `SCHEMA PROPOSE` payload, `bschema discover data.ldif |
/// bschema client <addr> schema propose /dev/stdin`, or a `serve` schema
/// file): a bounding-schema mined from the instance (§6.2).
pub(crate) fn discover(args: &[String], out: &mut String, header: bool) -> Result<i32, CliError> {
    let command = if header { "suggest-schema" } else { "discover" };
    let args = Args::read(args, &["--forbidden", "--required-classes"], &[])?;
    let [ldif_path] = args.exactly(&format!("{command} needs a data.ldif"))?;
    let options = DiscoveryOptions {
        forbidden: args.has("--forbidden"),
        required_classes: args.has("--required-classes"),
        ..DiscoveryOptions::default()
    };
    let dir = load_ldif(ldif_path, None, &LdifLimits::default())?;
    let suggested = suggest_schema(&dir, &options);
    // The suggestion must accept its own source, or it would be refused
    // as a PROPOSE payload.
    let report = LegalityChecker::new(&suggested).check(&dir);
    debug_assert!(report.is_legal(), "discovery invariant: {report}");
    if header {
        let _ = writeln!(
            out,
            "# mined from {} entries; prune before adopting as a prescriptive schema",
            dir.len()
        );
    }
    out.push_str(&print_schema(&suggested, None));
    Ok(0)
}
