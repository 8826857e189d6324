#!/usr/bin/env bash
# Grep-gate: neither O(|D|) term of a served delete can come back
# unnoticed.
#
# A deletion is certified by Figure 5′ — the deleted subtrees' former
# parents and their ancestors re-tested, O(depth · log|D|) — and what a
# commit gives the readers is the version the engine installed, not a
# copy of it (DESIGN.md §4, §11). The paper's own deletion column,
# `IncrementalChecker::check_deletion`, evaluates the two "no" rows over
# all of D − ∆D; it stays as the oracle the scoped paths are tested
# against, so:
#
# * `.check_deletion(` is called only from `apply_and_check` (the
#   paper-literal per-step path, crates/core/src/updates/mod.rs), from
#   `crates/bench` (the T4.2 experiment times it) and from
#   `crates/workload/src/oracle.rs` (the assertion the differential and
#   chaos drivers run after every commit);
# * inside `crates/core/src/updates/` the whole-instance translations
#   `required_rel_query(` / `forbidden_rel_query(` are called only from
#   `check_deletion` itself — a move and a class change go through the
#   scoped tests too;
# * `crates/server/src/service.rs` wraps no clone of an instance in an
#   `Arc`: `publish` is handed the engine's own.
#
# Exempt: comment/doc lines and test modules — this repo keeps exactly
# one `#[cfg(test)]` marker per file, at the start of the trailing tests
# module.
set -euo pipefail
cd "$(dirname "$0")/.."

# calls <pattern> <open> <file>...: non-test, non-comment lines matching
# <pattern> outside the item whose first line matches <open> (and which
# ends at the first line closing a block at that indentation).
calls() {
    local pattern=$1 open=$2
    shift 2
    awk -v pattern="$pattern" -v open="$open" '
        FNR == 1 { tests = 0; inside = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
        tests || /^[[:space:]]*\/\// { next }
        !inside && open != "" && $0 ~ open { inside = 1; match($0, /^ */); close_at = "^" substr($0, 1, RLENGTH) "}" }
        inside && $0 ~ close_at { inside = 0 }
        !inside && $0 ~ pattern { print FILENAME ":" FNR ": " $0 }
    ' "$@"
}

status=0
sources=$(find crates/*/src examples -name '*.rs' \
    ! -path 'crates/bench/*' ! -path 'crates/workload/src/oracle.rs' | sort)

# shellcheck disable=SC2086
oracle=$(calls '[.]check_deletion[(]' '^pub fn apply_and_check[(]' $sources)
if [ -n "$oracle" ]; then
    echo "$oracle"
    echo "error: IncrementalChecker::check_deletion( — Figure 5's O(|D|) recheck — called outside" >&2
    echo "       apply_and_check; certify with check_deletion_scoped (DESIGN.md §4, Figure 5′)" >&2
    status=1
fi

queries=$(calls '(required|forbidden)_rel_query[(]' '^    pub fn check_deletion[(]' \
    crates/core/src/updates/*.rs)
if [ -n "$queries" ]; then
    echo "$queries"
    echo "error: a whole-instance Figure 4 query evaluated under crates/core/src/updates/ outside" >&2
    echo "       check_deletion; test the update's neighbourhood instead (updates/scoped.rs)" >&2
    status=1
fi

copies=$(calls 'Arc::new[(].*[.]clone[(][)][)]|instance[(][)][.]clone[(][)]' '' \
    crates/server/src/service.rs)
if [ -n "$copies" ]; then
    echo "$copies"
    echo "error: crates/server/src/service.rs copies an instance to publish it;" >&2
    echo "       hand publish() the engine's shared_instance() (DESIGN.md §11)" >&2
    status=1
fi
exit "$status"
