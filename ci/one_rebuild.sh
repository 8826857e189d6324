#!/usr/bin/env bash
# Grep-gate: the directory is renumbered and re-indexed from scratch in
# one place.
#
# A write posts |ΔD| entries: the forest labels the nodes it adds from
# the gaps of the numbering and `DirectoryInstance::prepare` posts the
# batch to the index there is (DESIGN.md §4). The from-scratch pass —
# `Forest::ensure_numbered` + `InstanceIndex::build`, O(|D|) — survives
# for boot, restore and moves, and as the oracle the tests compare
# against. A second caller of either would be a second place that can
# put the O(|D|) pass back on the write path unnoticed, so:
#
# * `InstanceIndex::build(` has exactly one caller,
#   `DirectoryInstance::prepare` (crates/directory/src/instance.rs);
# * `ensure_numbered(` is called only inside `crates/directory/src`.
#
# A write also copies no more of the forest than the chunks it touches:
# the link arena is a chunked copy-on-write vector like the entry and
# RDN tables (DESIGN.md §10), so
#
# * `crates/directory/src/forest.rs` declares no `Vec<Node>` field, and
# * defines no `with_capacity` (a chunked arena has nothing to reserve).
#
# Nor more of a posting list than the chunk a label falls in: the class,
# presence and `all` lists are `PostingList`s (crates/directory/src/
# postings.rs, DESIGN.md §4), so
#
# * `crates/directory/src/index.rs` holds no `Arc<Vec<EntryId>>` — a
#   flat list behind one `Arc`, which every post copies whole.
#
# Exempt: comment/doc lines and test modules — this repo keeps exactly
# one `#[cfg(test)]` marker per file, at the start of the trailing tests
# module.
set -euo pipefail
cd "$(dirname "$0")/.."

calls() { # calls <pattern> <file>...: non-test, non-comment lines matching
    local pattern=$1
    shift
    awk -v pattern="$pattern" '
        FNR == 1 { tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
        tests || /^[[:space:]]*\/\// { next }
        $0 ~ pattern { print FILENAME ":" FNR ": " $0 }
    ' "$@"
}

status=0
sources=$(find crates/*/src examples -name '*.rs' | sort)

# shellcheck disable=SC2086
builds=$(calls 'InstanceIndex::build[(]' $sources)
if [ "$(echo "$builds" | grep -c 'crates/directory/src/instance.rs')" -ne 1 ] \
    || [ "$(echo "$builds" | grep -c .)" -ne 1 ]; then
    echo "$builds"
    echo "error: InstanceIndex::build( must have exactly one caller, DirectoryInstance::prepare;" >&2
    echo "       post to the maintained index instead (DESIGN.md §4)" >&2
    status=1
fi

# shellcheck disable=SC2086
renumbers=$(calls 'ensure_numbered[(]' $sources | grep -v '^crates/directory/src/' || true)
if [ -n "$renumbers" ]; then
    echo "$renumbers"
    echo "error: Forest::ensure_numbered( called outside crates/directory/src;" >&2
    echo "       DirectoryInstance::prepare is the one sync point (DESIGN.md §4)" >&2
    status=1
fi
forest=crates/directory/src/forest.rs
flat=$(
    calls '^[[:space:]]*(pub[^[:space:]]*[[:space:]]+)?[a-z_]+:[[:space:]]*Vec<Node>' "$forest"
    calls 'fn[[:space:]]+with_capacity[(<]' "$forest"
)
if [ -n "$flat" ]; then
    echo "$flat"
    echo "error: $forest must keep its nodes in a CowVec, with no capacity to reserve;" >&2
    echo "       a flat arena is copied whole by every clone (DESIGN.md §10)" >&2
    status=1
fi
index=crates/directory/src/index.rs
lists=$(calls 'Arc<Vec<EntryId>>' "$index")
if [ -n "$lists" ]; then
    echo "$lists"
    echo "error: $index must keep its lists in PostingLists (postings.rs);" >&2
    echo "       a flat Arc'd list is copied whole by every post to it (DESIGN.md §4)" >&2
    status=1
fi
exit "$status"
