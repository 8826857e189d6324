#!/usr/bin/env bash
# Grep-gate: Theorem 3.1's check exists once, and nobody configures how
# many threads it runs on.
#
# `LegalityChecker::check` runs one body — signature-cached content
# checks, batched Figure 4 structure queries — and `IncrementalChecker`
# one Δ-wave. How far either fans out is derived from the size of the
# work by `bschema_parallel::workers_for` (|D| for a full check, |ΔD| for
# an incremental one; DESIGN.md §4), so a served write is inline by
# construction. Two things would undo that quietly:
#
# * the fork coming back: the option type, its builders, the twin
#   function, or the CLI flag, by the names they had — anywhere under
#   crates/, tests/ or examples/, comments and tests included (the one
#   test that feeds the flag to the CLI spells it in two pieces);
# * a fan-out site choosing its own worker count: every
#   `bschema_parallel::par_*` call outside `crates/parallel`, and every
#   call of the two functions that wrap one (`legality::fan_out`,
#   `bschema_query::evaluate_batch`), passes as its count either
#   `workers_for(..)` or a plain `workers` binding; in those files every
#   `let workers` is computed by `workers_for(..)` (a function parameter
#   is the only other source) and no struct carries the count
#   (`.workers`).
#   Literals are for test modules, which hold the engine at 1 / 2 / 4 / 5
#   workers through the module-level functions.
#
# Exempt from the second rule: comment/doc lines and test modules — this
# repo keeps exactly one `#[cfg(test)]` marker per file, at the start of
# the trailing tests module.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0

fork=$(grep -rnE 'LegalityOptions|with_options[(]|check_instance_parallel|--sequential' \
    crates tests examples || true)
if [ -n "$fork" ]; then
    echo "$fork"
    echo "error: the sequential/parallel fork of the legality engine, or the option that picked a" >&2
    echo "       branch, is named again; there is one engine (DESIGN.md §4, ci/one_engine.sh)" >&2
    status=1
fi

# The files that fan out: whoever names the helper crate or a wrapper of
# it, bar the crate.
sources=$(grep -rlE --include='*.rs' 'bschema_parallel|fan_out[(]|evaluate_batch[(]' crates/*/src examples \
    | grep -v '^crates/parallel/' | sort)

# Non-test, non-comment code, each `par_*(` call joined with the two
# lines after it so that a call rustfmt broke after `(` is still read
# with its first two arguments.
# shellcheck disable=SC2086
counts=$(awk '
    function check() {
        skip = (call ~ /evaluate_batch[(]/) ? 2 : 1    # arguments before the count
        sub(/^.*(par_(map|flat_map_chunks|flat_map_chunks_indexed)|fan_out|evaluate_batch)[(][[:space:]]*/, "", call)
        while (skip-- > 0) sub(/^[^,]+,[[:space:]]*/, "", call)
        if (call !~ /^(workers[,)]|(bschema_parallel::)?workers_for[(])/)
            print at ": " call
    }
    FNR == 1 { tests = 0; if (pending > 0) check(); pending = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
    tests || /^[[:space:]]*\/\// { next }
    /let (mut )?workers[ :=]/ && !/workers_for[(]/ { print FILENAME ":" FNR ": " $0 }
    /[.]workers([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ": " $0 }
    pending > 0 { call = call " " $0; if (--pending == 0) check(); next }
    /(par_(map|flat_map_chunks|flat_map_chunks_indexed)|[^_]fan_out|[^_]evaluate_batch)[(]/ && !/fn evaluate_batch[(]/ {
        call = $0; at = FILENAME ":" FNR; pending = 2
    }
    END { if (pending > 0) check() }
' $sources)
if [ -n "$counts" ]; then
    echo "$counts"
    echo "error: a fan-out site takes its worker count from somewhere other than" >&2
    echo "       bschema_parallel::workers_for(<size of the work>) or its caller's argument" >&2
    status=1
fi
exit "$status"
