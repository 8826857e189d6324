#!/usr/bin/env bash
# Grep-gate: a name resolves through the name table, not by a scan.
#
# A DN is a key (paper §6.1): `DirectoryInstance::named_child`,
# `lookup_dn` / `lookup_rdns` and the duplicate checks of
# `add_named_root` / `add_named_child` probe the (parent, RDN) → child
# table once per level, whatever the number of roots or siblings. The
# one scan left is the duplicate fallback, `fn first_matching_sibling`,
# which answers only when the table finds several matching siblings (an
# instance built by `set_rdn` or `from_slots`, which check no names). In
# non-test code of crates/directory/src/instance.rs:
#
# * no statement walks `roots()` or `children(..)` with `find(`,
#   `position(`, `filter(`, `any(`, `find_map(` or a `for` loop and
#   compares RDNs with `matches` — outside the fallback;
# * the fallback is called once, from the `Probe::Several` arm.
#
# Exempt: the test module — this repo keeps exactly one `#[cfg(test)]`
# marker per file, at the start of the trailing tests module; the tests
# keep the old scan as the table's oracle.
set -euo pipefail
cd "$(dirname "$0")/.."

file=crates/directory/src/instance.rs
status=0
fail() {
    echo "error: $*" >&2
    status=1
}

# The non-test code with the fallback's body blanked, as one line per
# statement (split at `;`, whitespace squeezed), each prefixed with the
# line it ends on.
statements=$(awk '
    /^[[:space:]]*#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*(pub(\(crate\))? )?fn first_matching_sibling\(/ { fallback = 1 }
    fallback { if ($0 ~ /^    }$/) fallback = 0; next }
    {
        line = $0
        gsub(/[[:space:]]+/, " ", line)
        text = text line
        while ((at = index(text, ";")) > 0) {
            print NR ": " substr(text, 1, at)
            text = substr(text, at + 1)
        }
    }
    END { if (text != "") print NR ": " text }
' "$file")

walks='(roots|children)\([^)]*\)[[:space:]]*\.[[:space:]]*(find|position|filter|any|find_map)\('
loops='for [^;]* in [^;]*(roots|children)\('
hits=$(printf '%s\n' "$statements" | grep -E "$walks|$loops" | grep -E 'matches' || true)
if [ -n "$hits" ]; then
    echo "$hits" | sed "s|^|$file:|"
    fail "a name is resolved by scanning siblings; probe the name table (named_child / resolve)"
fi

calls=$(awk '/^[[:space:]]*#\[cfg\(test\)\]/ { exit } /first_matching_sibling\(/ && !/fn first_matching_sibling/' "$file")
if [ "$(printf '%s' "$calls" | grep -c .)" -ne 1 ] || ! printf '%s' "$calls" | grep -q 'Probe::Several'; then
    echo "$calls"
    fail "the duplicate fallback (first_matching_sibling) must be called once, from the Probe::Several arm"
fi
exit "$status"
