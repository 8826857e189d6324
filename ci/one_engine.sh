#!/usr/bin/env bash
# Grep-gate: Theorem 3.1's check exists once, runs on the caller's
# thread, and nobody configures it.
#
# `LegalityChecker::check` runs one body — signature-cached content
# checks, keys, then the Figure 4 structure queries — and
# `IncrementalChecker` one insertion wave, each a plain loop in the order
# it reports in (DESIGN.md §4). Four things would undo that quietly:
#
# * the fork coming back: the option type, its builders, the twin
#   function, or the CLI flag, by the names they had — anywhere under
#   crates/, tests/ or examples/, comments and tests included (the one
#   test that feeds the flag to the CLI spells it in two pieces);
# * a knob on the incremental checker: value-syntax validation is the
#   full check's option (`LegalityChecker::with_value_validation`, which
#   `check` and `validate` read), and no caller ever set it on the Δ-wave,
#   so `with_value_validation` / `validate_values` may not appear under
#   crates/core/src/updates/, comments and tests included;
# * the deleted data-parallel helper crate (`crates/parallel`) coming
#   back: its package name may not appear under crates/, tests/ or
#   examples/, nor in any Cargo.toml;
# * a check starting threads of its own: no `std::thread` (nor
#   `thread::scope` / `thread::spawn` / `thread::Builder`) under the
#   engine crates' sources, crates/{core,query,directory}/src, comments
#   and tests included. The server owns the threads; an engine call runs
#   on the one it is given.
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

knob=$(grep -rnE 'with_value_validation|validate_values' crates/core/src/updates || true)
if [ -n "$knob" ]; then
    echo "$knob"
    echo "error: the incremental checker grew a value-validation knob again; a served write's" >&2
    echo "       Δ-check has one configuration (ci/one_engine.sh)" >&2
    status=1
fi

manifests=$(find . -name Cargo.toml -not -path '*/target/*' -not -path './.bench_build/*')
# shellcheck disable=SC2086
crate=$(grep -rnE 'bschema[_-]parallel' crates tests examples $manifests || true)
if [ -n "$crate" ]; then
    echo "$crate"
    echo "error: the data-parallel helper crate is named again; every check runs once, on the" >&2
    echo "       caller's thread (DESIGN.md §4, ci/one_engine.sh)" >&2
    status=1
fi

threads=$(grep -rnE 'std::(\{[^}]*)?\bthread\b|\bthread::(scope|spawn|Builder)\b' \
    crates/core/src crates/query/src crates/directory/src || true)
if [ -n "$threads" ]; then
    echo "$threads"
    echo "error: an engine crate starts threads; a check runs on the caller's thread" >&2
    echo "       (DESIGN.md §4, ci/one_engine.sh)" >&2
    status=1
fi
exit "$status"
