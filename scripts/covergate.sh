#!/usr/bin/env bash
# Per-package coverage ratchet: runs the short suite with atomic coverage
# and fails if any package drops below its floor. Floors sit one point
# under the coverage measured when the gate was introduced (PR 9, widened
# in PR 10); when a PR raises a package's coverage durably, raise its
# floor to match — the ratchet only turns one way.
#
# Coverage is computed from a single merged -coverpkg=./... profile, so a
# package is credited for every test that exercises it — including the
# root package's integration suites (golden pins, shard equivalence,
# snapshot round-trips) — not just its own unit tests. That is the number
# that answers "is this line ever executed under test?".
set -euo pipefail
cd "$(dirname "$0")/.."

# The root package (gathernoc) is doc-only — no statements to cover —
# so it has no floor; its tests still run as part of the sweep. The
# examples/ programs are exercised by CI's run-every-example step, not
# by tests, so they carry no floors either.
floors="
gathernoc/cmd/cnntrace 85
gathernoc/cmd/experiments 82
gathernoc/cmd/gatherviz 91
gathernoc/cmd/nocsim 83
gathernoc/internal/analytic 92
gathernoc/internal/cnn 97
gathernoc/internal/collective 92
gathernoc/internal/core 88
gathernoc/internal/experiments 88
gathernoc/internal/fault 96
gathernoc/internal/flit 96
gathernoc/internal/link 96
gathernoc/internal/nic 92
gathernoc/internal/noc 92
gathernoc/internal/power 99
gathernoc/internal/reduce 87
gathernoc/internal/ring 96
gathernoc/internal/round 99
gathernoc/internal/router 87
gathernoc/internal/sim 97
gathernoc/internal/stats 95
gathernoc/internal/systolic 92
gathernoc/internal/telemetry 95
gathernoc/internal/topology 96
gathernoc/internal/traffic 88
gathernoc/internal/workload 91
"

profile="$(mktemp)"
trap 'rm -f "$profile"' EXIT

go test -short -covermode=atomic -coverpkg=./... -coverprofile="$profile" ./... || {
  echo "covergate: test run failed" >&2
  exit 1
}

# Profile lines: "file.go:start.col,end.col numstmt count". The merged
# profile repeats a block once per test binary that instrumented it;
# count statements once per block, covered if any binary hit it.
summary="$(awk '
  /^mode:/ { next }
  {
    split($1, loc, ":")
    key = $1
    stmt[key] = $2
    if ($3 > 0) hit[key] = 1
    pkg = loc[1]; sub(/\/[^\/]*$/, "", pkg)
    pkgof[key] = pkg
  }
  END {
    for (k in stmt) {
      p = pkgof[k]
      total[p] += stmt[k]
      if (k in hit) covered[p] += stmt[k]
    }
    for (p in total) printf "%s %d\n", p, int(100 * covered[p] / total[p])
  }
' "$profile" | sort)"
echo "$summary"

fail=0
while read -r pkg floor; do
  [ -z "$pkg" ] && continue
  pct="$(echo "$summary" | awk -v p="$pkg" '$1 == p { print $2 }')"
  if [ -z "$pct" ]; then
    echo "covergate: no coverage data for $pkg" >&2
    fail=1
    continue
  fi
  if [ "$pct" -lt "$floor" ]; then
    echo "covergate: $pkg at ${pct}%, floor ${floor}%" >&2
    fail=1
  fi
done <<EOF
$floors
EOF

if [ "$fail" -ne 0 ]; then
  echo "covergate: FAIL — package coverage fell below its ratchet floor" >&2
  exit 1
fi
echo "covergate: all packages at or above their floors"
