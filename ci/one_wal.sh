#!/usr/bin/env bash
# Grep-gate: the write-ahead sequence exists once, and so does rollback.
#
# `ManagedDirectory::apply_all` in `crates/core/src/managed.rs` is the
# one driver of a write, to one directory or many: `apply_op` is its
# one-directory case and every `ManagedDirectory` mutator runs it, and
# the router's cross-shard apply and schema cutover each call it once
# (DESIGN.md §16 "Callers"). The token chain it runs (`certify` →
# `Certified` → `begin` → `Begun` → `commit` → `Committed` → `install`)
# is private to `managed.rs`, so outside that file non-test code may not
# name a token type or call `certify(` / `install(`.
#
# `JournalWriter::{begin_op, begin, begin_modify, commit}` may only be
# called from `crates/core/src/journal.rs` (the writer itself) and
# `crates/core/src/managed.rs` (`ManagedDirectory`, which owns
# "certified before it is journalled, begin flushed before the live
# state changes" — DESIGN.md "Durability"). Everything else goes through
# the driver, so a new write path cannot forget the flush, the sync or
# the ordering.
#
# There is one engine type and the probe is an argument of every write:
# `JournaledDirectory`, `ProbeHandle`, `swap_probe(` and `shared_probe(`
# may not come back anywhere under `crates/`, `tests/` or `examples/`,
# comments and tests included.
#
# The writer has one begin encoder and a journal transaction one payload:
# `begin_global(`, `begin_schema(` and `to_transaction(` may not come
# back anywhere under `crates/`, `tests/` or `examples/`, tests included.
#
# `pre_image(` and `rollback_prepared(` may not come back anywhere: a
# transaction runs on a structurally shared copy that is installed or
# dropped, so a second rollback path — keeping the previous state to
# restore it — has nothing left to do (DESIGN.md §10, §16).
#
# `"jrnop"` may only appear in the decoder (`decode_record`,
# `decode_part`): a record's op index is its position in its
# transaction, which the sequence numbers already pin, so the writer does
# not store it; only journals of older builds carry the field
# (DESIGN.md §16).
#
# Exempt, except where said otherwise: comment/doc lines and test
# modules — this repo keeps exactly one `#[cfg(test)]` marker per file,
# at the start of the trailing tests module. The `begin_*` names are
# unique to the writer; `.begin(` and `.commit(` are not, so they only
# count in files that name `JournalWriter`.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
for f in $(find crates/*/src examples -name '*.rs' | sort); do
    case "$f" in
        crates/core/src/journal.rs | crates/core/src/managed.rs) continue ;;
    esac
    hits=$(awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /JournalWriter/ { writer = 1 }
        /\.begin_(op|modify)\(/ { print FILENAME ":" FNR ": " $0 }
        writer && /\.(begin|commit)\(/ { print FILENAME ":" FNR ": " $0 }
    ' "$f")
    if [ -n "$hits" ]; then
        echo "$hits"
        status=1
    fi
done

if [ "$status" -ne 0 ]; then
    echo "error: JournalWriter driven by hand outside crates/core/src/{journal,managed}.rs;" >&2
    echo "       go through ManagedDirectory::apply_op (DESIGN.md \"Durability\")" >&2
fi

for f in $(find crates/*/src examples -name '*.rs' | sort); do
    [ "$f" = crates/core/src/managed.rs ] && continue
    hits=$(awk '
        /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /(^|[^A-Za-z0-9_])(Certified|Begun|Committed)([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ": " $0; next }
        /\.(certify|install)\(/ { print FILENAME ":" FNR ": " $0 }
    ' "$f")
    if [ -n "$hits" ]; then
        echo "$hits"
        echo "error: the write driver's token chain driven outside crates/core/src/managed.rs;" >&2
        echo "       call ManagedDirectory::apply_op or apply_all (DESIGN.md §16 \"Callers\")" >&2
        status=1
    fi
done

hits=$(grep -rnE 'JournaledDirectory|ProbeHandle|(swap|shared)_probe\(' crates tests examples \
    --include='*.rs' || true)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "error: a second engine type or a stored, swapped probe is back; pass the probe to" >&2
    echo "       ManagedDirectory::apply_op (DESIGN.md §9, §16)" >&2
    status=1
fi

hits=$(grep -rnE '(begin_global|begin_schema|to_transaction)\(' crates tests examples \
    --include='*.rs' || true)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "error: a second begin encoder or payload reader is back; use JournalWriter::begin_op" >&2
    echo "       and JournalTx::payload (DESIGN.md §16)" >&2
    status=1
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
        /^fn decode_(record|part)\(/ { decoder = 1 }
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
