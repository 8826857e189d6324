#!/usr/bin/env bash
# Grep-gate: the write-ahead sequence exists once.
#
# `JournalWriter::{begin, begin_modify, begin_schema, begin_global,
# commit}` may only be called from `crates/core/src/journal.rs` (the
# writer itself) and `crates/core/src/engine.rs` (`JournaledDirectory`,
# which owns "begin flushed before the mutation, commit only after the
# legal verdict" — DESIGN.md "Durability"). Everything else goes through
# the engine's prepare/apply/commit, so a new write path cannot forget
# the flush, the sync or the ordering.
#
# Listed exception: `crates/bench` builds journal *text* for the `rec`
# experiment without applying anything.
#
# Exempt: comment/doc lines and test modules — this repo keeps exactly
# one `#[cfg(test)]` marker per file, at the start of the trailing tests
# module. The `begin*` names are unique to the writer; `.commit(` is not
# (the engine has one too), so it only counts in files that name
# `JournalWriter`.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for f in $(find crates/*/src examples -name '*.rs' | sort); do
    case "$f" in
        crates/core/src/journal.rs | crates/core/src/engine.rs | crates/bench/*) continue ;;
    esac
    hits=$(awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /JournalWriter/ { writer = 1 }
        /\.begin(_modify|_schema|_global)?\(/ { print FILENAME ":" FNR ": " $0 }
        writer && /\.commit\(/ { print FILENAME ":" FNR ": " $0 }
    ' "$f")
    if [ -n "$hits" ]; then
        echo "$hits"
        status=1
    fi
done

if [ "$status" -ne 0 ]; then
    echo "error: JournalWriter driven by hand outside crates/core/src/{journal,engine}.rs;" >&2
    echo "       go through JournaledDirectory (DESIGN.md \"Durability\")" >&2
fi
exit "$status"
