#!/usr/bin/env bash
# Grep-gate: one published cut.
#
# The service publishes every shard's version in one
# `RwLock<Arc<[Arc<DirectoryInstance>]>>`, the cut: a commit replaces it
# once, while the router still holds the touched shards' locks, and a
# reader clones it once. So a search or a dump sees a cross-shard commit
# on every shard it touched or on none (the paper's §4 atomicity
# contract, read-atomic in the sense of Bailis et al., SIGMOD 2014). The
# per-shard shape that let a reader see one shard before a commit and
# another after it stays gone. In non-test code under
# crates/server/src/service:
#
# * no `Vec<RwLock<` field — one lock over the published versions, not N;
# * at most one `RwLock<Arc<` holding instances;
# * no `fn shard_snapshot` — a reader takes the whole cut, not one shard;
# * no `with_shard(` call in write.rs — a commit publishes before the
#   router releases its shard locks, never by re-locking a shard after.
#
# Exempt: test modules — this repo keeps exactly one `#[cfg(test)]`
# marker per file, at the start of the trailing tests module.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
fail() {
    echo "error: $*" >&2
    status=1
}

# Prints `file:line: text` for each non-test line of the given files
# matching the awk regex $1.
non_test() {
    local pattern=$1
    shift
    awk -v pattern="$pattern" '
        FNR == 1 { tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
        !tests && $0 ~ pattern { print FILENAME ":" FNR ": " $0 }
    ' "$@"
}

# shellcheck disable=SC2207
files=($(find crates/server/src/service -name '*.rs' | sort))

hits=$(non_test 'Vec<RwLock<' "${files[@]}")
if [ -n "$hits" ]; then
    echo "$hits"
    fail "a Vec of locks over published versions is back; publish one cut behind one RwLock"
fi

hits=$(non_test 'RwLock<Arc<.*DirectoryInstance' "${files[@]}")
if [ "$(printf '%s' "$hits" | grep -c .)" -gt 1 ]; then
    echo "$hits"
    fail "more than one RwLock<Arc<..>> holds instances; readers take one cut"
fi

hits=$(non_test 'fn shard_snapshot' "${files[@]}")
if [ -n "$hits" ]; then
    echo "$hits"
    fail "shard_snapshot is back; a reader takes the whole cut (DirectoryService::cut)"
fi

hits=$(non_test 'with_shard\(' crates/server/src/service/write.rs)
if [ -n "$hits" ]; then
    echo "$hits"
    fail "write.rs re-locks a shard to publish; publish from inside ShardedDirectory::commit_ldif / commit_modify"
fi
exit "$status"
