#!/usr/bin/env bash
# Grep-gate: no O(|D|) term of a served write's certification can come
# back unnoticed.
#
# A deletion is certified by Figure 5′ — the deleted subtrees' former
# parents and their ancestors re-tested, O(depth · log|D|) — an insertion
# by Figure 5′'s insertion column — ∆D and its root's ancestor chain,
# O(|∆D| · |rows| + depth) — and what a commit gives the readers is the
# version the engine installed, not a copy of it (DESIGN.md §4, §11). The
# paper's own columns, `IncrementalChecker::check_insertions` (Figure 4
# Δ-queries joining ∆D against whole-instance posting lists) and
# `IncrementalChecker::check_deletion` (the two "no" rows over all of
# D − ∆D), stay as the oracles the scoped paths are tested against, so:
#
# * `.check_deletion(` is called only from `apply_and_check` (the
#   paper-literal per-step path, crates/core/src/updates/mod.rs), from
#   `crates/bench` (the T4.2 experiment times it) and from
#   `crates/workload/src/oracle.rs` (the assertion the differential and
#   chaos drivers run after every commit);
# * inside `crates/core/src/updates/` the whole-instance translations
#   `required_rel_query(` / `forbidden_rel_query(` are called only from
#   `check_deletion` itself — a class change goes through the scoped
#   tests too;
# * inside `crates/core/src/updates/` nothing evaluates a query —
#   `evaluate(`, `eval_cow(`, `insertion_delta_query(`,
#   `insertion_delta_query_forbidden(` — outside the oracle functions:
#   the two Δ-query builders themselves, `structure_delta_violations`
#   (the Figure 5 insertion rows) and `check_deletion`;
# * `crates/server/src/service/` wraps no clone of an instance in an
#   `Arc`: `publish` is handed the engine's own;
# * verdict before copy (DESIGN.md §4, §16): in
#   `crates/core/src/managed.rs` the live instance is copied —
#   `DirectoryInstance::clone(`, or a clone through the `Arc` — only in
#   `fn fork(`, which builds the successor; every TXN is decided on
#   (D, ∆D) before it, so a refused one copies nothing;
# * one way to decide a write: a `ManagedDirectory` is legal but
#   possibly for `◇c` from construction on, and every write decides
#   `◇c` by counts, so in `crates/core/src/managed.rs` the full §3
#   checker (`LegalityChecker`) runs only in the constructor,
#   `fn checked(`, and the clone-and-check oracle
#   `apply_and_check_probed(` is not called at all.
#
# Exempt: comment/doc lines and test modules — this repo keeps exactly
# one `#[cfg(test)]` marker per file, at the start of the trailing tests
# module.
set -euo pipefail
cd "$(dirname "$0")/.."

# calls <pattern> <open> <file>...: non-test, non-comment lines matching
# <pattern> outside the items whose first line matches <open> (each ends
# at the first line closing a block at its indentation).
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

oracles='^(pub fn insertion_delta_query(_forbidden)?|    fn structure_delta_violations|    pub fn check_deletion)[(]'
evaluated=$(calls '(evaluate|eval_cow|insertion_delta_query(_forbidden)?)[(]' "$oracles" \
    crates/core/src/updates/*.rs)
if [ -n "$evaluated" ]; then
    echo "$evaluated"
    echo "error: a query evaluated under crates/core/src/updates/ outside the Figure 5 oracles;" >&2
    echo "       certify from the update's neighbourhood instead (updates/scoped.rs, Figure 5′)" >&2
    status=1
fi

forks=$(calls 'DirectoryInstance::clone[(]|[(][*]self[.]dir[)][.]clone[(]|[.]dir[.]as_ref[(][)][.]clone[(]' \
    '^    fn fork[(]' crates/core/src/managed.rs)
if [ -n "$forks" ]; then
    echo "$forks"
    echo "error: crates/core/src/managed.rs copies the instance outside fn fork; decide on (D, ∆D)" >&2
    echo "       first and copy only to build a legal successor (DESIGN.md §4, verdict before copy)" >&2
    status=1
fi

full=$(calls 'LegalityChecker' '^    fn checked[(]' crates/core/src/managed.rs)
if [ -n "$full" ]; then
    echo "$full"
    echo "error: crates/core/src/managed.rs runs the full §3 check outside its constructor" >&2
    echo "       (fn checked); decide a write with updates::verdict or check_modification" >&2
    status=1
fi

rechecks=$(calls 'apply_and_check_probed[(]' '' crates/core/src/managed.rs)
if [ -n "$rechecks" ]; then
    echo "$rechecks"
    echo "error: crates/core/src/managed.rs runs the clone-and-check oracle; certify a TXN" >&2
    echo "       with updates::verdict on (D, ∆D) (DESIGN.md §4, verdict before copy)" >&2
    status=1
fi

copies=$(calls 'Arc::new[(].*[.]clone[(][)][)]|instance[(][)][.]clone[(][)]' '' \
    crates/server/src/service/*.rs)
if [ -n "$copies" ]; then
    echo "$copies"
    echo "error: crates/server/src/service/ copies an instance to publish it;" >&2
    echo "       hand publish() the engine's shared_instance() (DESIGN.md §11)" >&2
    status=1
fi
exit "$status"
