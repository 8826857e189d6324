#!/usr/bin/env bash
# Grep-gate: a refused write travels in one type, and its code is spelled
# once.
#
# `ManagedError` carries every engine refusal from the LDIF decoder
# (`transaction_from_ldif` → `TxError::Ldif`) through the engine, the
# sharded router and the journal opener to the service's one
# `From<ManagedError> for ServiceError` — so both backends answer a
# refused write with the same `ERR` code and the same words (Theorem 4.1:
# partitioning changes no verdict). Two things would undo that quietly:
#
# * a second refusal type coming back by the names the old ones had —
#   `ShardedError`, `LdifTxError`, `OpenError` — anywhere under crates/,
#   tests/ or examples/, comments and tests included;
# * a non-test site outside `crates/core/src/managed.rs` spelling an
#   engine code as a string (`ManagedError::code` is the one place it is
#   spelled; everyone else asks the error for it).
#
# Exempt from the second rule: comment/doc lines and test modules — this
# repo keeps exactly one `#[cfg(test)]` marker per file, at the start of
# the trailing tests module.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0

types=$(grep -rnE 'ShardedError|LdifTxError|OpenError' crates tests examples || true)
if [ -n "$types" ]; then
    echo "$types"
    echo "error: a second refusal type is named again; every refused write is a ManagedError" >&2
    echo "       (DESIGN.md §11, ci/one_refusal.sh)" >&2
    status=1
fi

# shellcheck disable=SC2046
codes=$(awk '
    FNR == 1 { tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
    tests || /^[[:space:]]*\/\// { next }
    /"(invalid-tx|no-such-entry|rolled-back|illegal-instance|inconsistent-schema|recovery)"/ {
        print FILENAME ":" FNR ": " $0
    }
' $(find crates/*/src examples -name '*.rs' ! -path crates/core/src/managed.rs | sort))
if [ -n "$codes" ]; then
    echo "$codes"
    echo "error: an engine refusal code is spelled outside ManagedError::code; take it from" >&2
    echo "       the error (e.code()) or convert the error (ServiceError::from)" >&2
    status=1
fi
exit "$status"
