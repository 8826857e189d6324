#!/usr/bin/env bash
# Grep-gate: one telemetry switch.
#
# `DirectoryService::with_metrics` is the only thing that makes a
# service collect: a metered service counts every request into its
# registry, answers METRICS, runs the sampler and answers HEALTH and
# WATCH; an unmetered one does none of it. So the second and third
# configurations stay gone:
#
# * the monitor's own builder and config struct (`with_monitor(`,
#   `MonitorConfig`) and the serve flag that switched it on
#   (`--monitor-interval`) — the tick, the retained ticks and the
#   window are constants, the SLO is `with_slo`;
# * the STATS verb and its server-wide delta baseline (`stats_json`, a
#   `"STATS" =>` verb arm) — a per-interval delta is a WATCH tick;
# * polling: no `thread::sleep` in non-test code under
#   crates/server/src. The acceptor blocks in `accept`, and the sampler,
#   WATCH streams and a replica's ship loop wait on the server's
#   shutdown signal.
#
# Exempt: the Markdown documents (history, plans, and what earlier trees
# were measured with), this file, and test
# modules under crates/server/src — this repo keeps
# exactly one `#[cfg(test)]` marker per file, at the start of the
# trailing tests module.
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
fail() {
    echo "error: $*" >&2
    status=1
}

gone=$(git grep -nI --untracked -F -e 'MonitorConfig' -e 'with_monitor(' -e 'stats_json' \
    -e '--monitor-interval' -- . ':!*.md' ':!ci/one_switch.sh' || true)
if [ -n "$gone" ]; then
    echo "$gone"
    fail "a second telemetry configuration is back; meter with DirectoryService::with_metrics"
fi

arm=$(grep -rnF '"STATS" =>' crates/server/src || true)
if [ -n "$arm" ]; then
    echo "$arm"
    fail "STATS is a verb again; a per-interval delta is a WATCH tick"
fi

# shellcheck disable=SC2046
sleeps=$(awk '
    FNR == 1 { tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { tests = 1 }
    !tests && /thread::sleep/ { print FILENAME ":" FNR ": " $0 }
' $(find crates/server/src -name '*.rs' | sort))
if [ -n "$sleeps" ]; then
    echo "$sleeps"
    fail "crates/server/src sleeps outside tests; wait on the server's Shutdown signal"
fi
exit "$status"
