#!/usr/bin/env bash
# Grep-gate: versions of a directory share entries; only an edit copies
# one.
#
# The entry table of `DirectoryInstance` is a chunked copy-on-write
# vector of `Arc`'d entries (DESIGN.md §10). Un-sharing one of its chunks
# copies 64 pointers, a removal hands back the `Arc` the published
# version still holds, and `entry_mut` copies the one entry it edits
# (`Arc::make_mut`). An entry stored inline again would make the first
# write to a chunk deep-clone 64 attribute maps, and the drop of the
# superseded version free them, on every committed write. So, in
# crates/directory/src/instance.rs:
#
# * the entry table is declared as `entries: CowVec<Option<Arc<Entry>>>`,
#   and `CowVec<Option<Entry>>` appears nowhere under crates/directory/src;
# * `Arc::make_mut` on anything but the registry or the index appears
#   only inside `fn entry_mut(`.
#
# Exempt: comment/doc lines and test modules — this repo keeps exactly
# one `#[cfg(test)]` marker per file, at the start of the trailing tests
# module.
set -euo pipefail
cd "$(dirname "$0")/.."

instance=crates/directory/src/instance.rs
status=0

code() { # code <file>...: non-test, non-comment lines as file:line: text, with the enclosing fn
    awk '
        FNR == 1 { tests = 0; fn = "" }
        /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
        tests || /^[[:space:]]*\/\// { next }
        /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?fn[[:space:]]/ {
            fn = $0
            sub(/^[^(]*fn[[:space:]]+/, "", fn)
            sub(/[^a-z_0-9].*$/, "", fn)
        }
        { print FILENAME ":" FNR ": [" fn "] " $0 }
    ' "$@"
}

table=$(code "$instance" | grep -c 'entries:[[:space:]]*CowVec<Option<Arc<Entry>>>,' || true)
if [ "$table" -ne 1 ]; then
    echo "error: $instance must declare its entry table as CowVec<Option<Arc<Entry>>>;" >&2
    echo "       an inline entry is deep-cloned with every chunk a write un-shares (DESIGN.md §10)" >&2
    status=1
fi
# shellcheck disable=SC2046
inline=$(code $(find crates/directory/src -name '*.rs' | sort) | grep 'CowVec<Option<Entry>>' || true)
if [ -n "$inline" ]; then
    echo "$inline"
    echo "error: entries are stored behind Arcs, not inline in a CowVec (DESIGN.md §10)" >&2
    status=1
fi
copies=$(code "$instance" | grep 'Arc::make_mut' \
    | grep -v 'Arc::make_mut(&mut self\.registry)' | grep -v 'Arc::make_mut([^)]*index' \
    | grep -v '^[^ ]* \[entry_mut\] ' || true)
if [ -n "$copies" ]; then
    echo "$copies"
    echo "error: Arc::make_mut on an entry belongs only in DirectoryInstance::entry_mut;" >&2
    echo "       every other path shares the entry's Arc (DESIGN.md §10)" >&2
    status=1
fi
exit "$status"
