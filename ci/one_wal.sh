#!/usr/bin/env bash
# Grep-gate: the write-ahead sequence exists once, and so does rollback.
#
# `JournalWriter::{begin, begin_modify, begin_schema, begin_global,
# commit}` may only be called from `crates/core/src/journal.rs` (the
# writer itself) and `crates/core/src/engine.rs` (`JournaledDirectory`,
# which owns "certified before it is journalled, begin flushed before
# the live state changes" — DESIGN.md "Durability"). Everything else
# goes through the engine's certify/begin/commit/install, so a new write
# path cannot forget the flush, the sync or the ordering.
#
# `pre_image(` and `rollback_prepared(` may not come back anywhere: a
# transaction runs on a structurally shared copy that is installed or
# dropped, so a second rollback path — keeping the previous state to
# restore it — has nothing left to do (DESIGN.md §10, §16).
#
# `"jrnop"` may only appear in the decoder (`decode_record`): a record's
# op index is its position in its transaction, which the sequence
# numbers already pin, so the writer does not store it; only journals of
# older builds carry the field (DESIGN.md §16).
#
# Exempt: comment/doc lines and test modules — this repo keeps exactly
# one `#[cfg(test)]` marker per file, at the start of the trailing tests
# module. The `begin_*` names are unique to the writer; `.begin(` and
# `.commit(` are not (the engine has both too), so they only count in
# files that name `JournalWriter`.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for f in $(find crates/*/src examples -name '*.rs' | sort); do
    case "$f" in
        crates/core/src/journal.rs | crates/core/src/engine.rs) continue ;;
    esac
    hits=$(awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /JournalWriter/ { writer = 1 }
        /\.begin_(modify|schema|global)\(/ { print FILENAME ":" FNR ": " $0 }
        writer && /\.(begin|commit)\(/ { print FILENAME ":" FNR ": " $0 }
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

for f in $(find crates/*/src examples -name '*.rs' | sort); do
    hits=$(awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /pre_image\(|rollback_prepared\(/ { print FILENAME ":" FNR ": " $0 }
    ' "$f")
    if [ -n "$hits" ]; then
        echo "$hits"
        echo "error: a pre-image rollback path is back; drop the uninstalled copy instead" >&2
        status=1
    fi
done

for f in $(find crates/*/src examples -name '*.rs' | sort); do
    hits=$(awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /^fn decode_record\(/ { decoder = 1 }
        decoder && /^}/ { decoder = 0 }
        !decoder && /"jrnop"/ { print FILENAME ":" FNR ": " $0 }
    ' "$f")
    if [ -n "$hits" ]; then
        echo "$hits"
        echo "error: \"jrnop\" outside the journal decoder; the op index is derived, not written" >&2
        status=1
    fi
done
exit "$status"
