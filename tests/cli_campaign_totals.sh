#!/bin/sh
# The campaign dashboard's "target totals" line must equal the sums of
# the per-sample counters in the --campaign-out report.
#   usage: cli_campaign_totals.sh <autovac> <samples-dir>
set -eu
autovac=$1
samples=$2
work=campaign_totals.$$
rm -rf "$work"
mkdir "$work"
trap 'rm -rf "$work"' EXIT

"$autovac" corpus --out "$work/evasive" --seed 11 --per-class 1 >/dev/null
"$autovac" campaign "$samples"/*.asm "$work"/evasive/*.asm \
  --campaign-out "$work/report.json" >"$work/dashboard.txt"

sum() {
  grep -o "\"$1\":[0-9]*" "$work/report.json" |
    awk -F: '{ s += $2 } END { print s + 0 }'
}
targets=$(sum targets_considered)
vaccines=$(grep -o '"malware_name":' "$work/report.json" | wc -l | tr -d ' ')
expected="target totals: $targets targets, $(sum filtered_not_exclusive) non-exclusive, $(sum filtered_no_impact) no-impact, $(sum filtered_non_deterministic) non-deterministic, $(sum targets_faulted) faulted, $vaccines vaccines"
actual=$(grep '^target totals:' "$work/dashboard.txt")
if [ "$actual" != "$expected" ]; then
  echo "dashboard: $actual"
  echo "reports:   $expected"
  exit 1
fi
# The wave must exercise the line: some targets, some vaccines.
test "$targets" -gt 0
test "$vaccines" -gt 0
