#!/usr/bin/env bash
# Grep-gate: every input at the edges has exactly one reader.
#
# * argv: `bschema` reads every subcommand's and every `client` / `top`
#   action's words through `crates/cli/src/args.rs`, so the CLI spells
#   "unknown option" once; a server reply becomes output and an exit
#   code in one printer (`reply`, crates/cli/src/client.rs), so it
#   spells "REFUSED (" once;
# * JSON: `bschema-obs` has one grammar — `is_valid` is `Value::parse`
#   answering yes/no — so `crates/obs/src/json.rs` declares one parser
#   struct;
# * search scopes: `SearchScope`'s `FromStr` / `as_str` (crates/query)
#   are the only spelling of the scope words; the offline `search`, the
#   wire `SEARCH` and the EXPLAIN JSON all go through them;
# * the journal's record syntax lives in crates/core: `SHIP` slices the
#   text where `Journal::parse` found the record, so no file under
#   crates/server/src spells a record DN;
# * `SCHEMA COMMIT` revalidates restricting plans under its locks on
#   both backends: the commit counter that let the single backend skip
#   it is gone, and stays gone;
# * LDIF has one reader, and it walks the input: the logical lines of
#   crates/directory/src/ldif/parser.rs are borrowed one at a time, never
#   collected into a `Vec`; the checkpoint codec (crates/core/src/
#   checkpoint.rs) writes rows from their shared entries and moves
#   decoded rows into the instance, so it copies no entry;
# * a checkpoint is decoded once, in one walk of its lines: the decoder
#   consumes the reader's walk (`walk_ldif`), so non-test checkpoint.rs
#   calls no `parse_ldif`, and sharded recovery reads each shard's
#   checkpoint through that shard's `RecoveryPlan`, so non-test
#   crates/core/src/sharded.rs calls no `Checkpoint::decode`.
#
# Exempt from the first four rules and the last two: test modules — this repo keeps
# exactly one `#[cfg(test)]` marker per file, at the start of the
# trailing tests module.
set -euo pipefail
cd "$(dirname "$0")/.."

# nontest <file>...: the lines above each file's test module, as
# `file:line: text`.
nontest() {
    awk '
        FNR == 1 { tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
        !tests { print FILENAME ":" FNR ": " $0 }
    ' "$@"
}

status=0
fail() {
    echo "error: $*" >&2
    status=1
}

# once <literal> <what> <file>...: the literal occurs exactly once.
once() {
    local literal=$1 what=$2
    shift 2
    local hits
    hits=$(nontest "$@" | grep -F -- "$literal" || true)
    if [ "$(printf '%s' "$hits" | grep -c '^' || true)" -ne 1 ]; then
        [ -n "$hits" ] && echo "$hits"
        fail "'$literal' must occur once in non-test code under crates/cli/src — $what"
    fi
}

cli=$(find crates/cli/src -name '*.rs' | sort)
# shellcheck disable=SC2086
once 'unknown option' 'argv is read by crates/cli/src/args.rs only' $cli
# shellcheck disable=SC2086
once 'REFUSED (' 'a server reply is printed by reply() only' $cli

parsers=$(nontest crates/obs/src/json.rs | grep -E ':[[:space:]]*(pub(\([a-z]+\))? )?struct [A-Za-z]*Parser\b' || true)
if [ "$(printf '%s' "$parsers" | grep -c '^' || true)" -ne 1 ]; then
    echo "$parsers"
    fail "crates/obs/src/json.rs must declare one parser struct (one JSON grammar, one depth bound)"
fi

sources=$(find crates/*/src examples -name '*.rs' ! -path 'crates/query/src/*' | sort)
# shellcheck disable=SC2086
scopes=$(nontest $sources | grep -F -e '"onelevel"' -e '"one" =>' || true)
if [ -n "$scopes" ]; then
    echo "$scopes"
    fail "a scope word is read outside crates/query/src; parse it as a SearchScope"
fi

records=$(grep -rnF 'dn: op=' crates/server/src || true)
if [ -n "$records" ]; then
    echo "$records"
    fail "crates/server/src spells the journal record DN; slice with Journal::text_from"
fi

counter=$(git grep -nI 'commit[_]counter' -- . ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' || true)
if [ -n "$counter" ]; then
    echo "$counter"
    fail "the SCHEMA freshness token is back; COMMIT revalidates under its locks on every backend"
fi
collected=$(nontest crates/directory/src/ldif/parser.rs | grep -E 'Vec<[A-Za-z:]*Logical|\.collect' || true)
if [ -n "$collected" ]; then
    echo "$collected"
    fail "the LDIF reader collects its lines; walk them borrowed (LogicalLines)"
fi

copies=$(nontest crates/core/src/checkpoint.rs | grep -F -e 'Entry::clone(' -e '.entry.clone()' -e 'rows.clone()' || true)
if [ -n "$copies" ]; then
    echo "$copies"
    fail "the checkpoint codec copies an entry; write rows from their Arc and move decoded ones"
fi
records=$(nontest crates/core/src/checkpoint.rs | grep -F 'parse_ldif' || true)
if [ -n "$records" ]; then
    echo "$records"
    fail "the checkpoint decoder collects LDIF records; consume the reader's walk (walk_ldif)"
fi

decodes=$(nontest crates/core/src/sharded.rs | grep -F 'Checkpoint::decode' || true)
if [ -n "$decodes" ]; then
    echo "$decodes"
    fail "sharded recovery decodes a checkpoint beside its shard's RecoveryPlan; decode each once"
fi
exit "$status"
