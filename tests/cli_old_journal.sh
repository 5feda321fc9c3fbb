#!/bin/sh
# `campaign --resume` refuses a journal of an older format version: it
# exits non-zero, names the version, and leaves the journal as it was.
#   usage: cli_old_journal.sh <autovac> <samples-dir>
set -eu
autovac=$1
samples=$2
work=old_journal.$$
rm -rf "$work"
mkdir "$work"
trap 'rm -rf "$work"' EXIT

# A version-1 journal: its sample lines quoted the whole trace text.
cat >"$work/old.jsonl" <<'EOF'
{"type":"header","version":1,"config_digest":"0123456789abcdef0123456789abcdef","samples":[{"name":"marker_demo","digest":"0123456789abcdef0123456789abcdef"}]}
{"type":"sample","index":0,"report":{"name":"marker_demo","digest":"0123456789abcdef0123456789abcdef","evasion_class":"","disposition":0,"resource_api_occurrences":0,"tainted_occurrences":0,"resource_sensitive":false,"phase1_stop":1,"phase1_status":{"code":0},"phase2_status":{"code":0},"targets_considered":0,"filtered_not_exclusive":0,"filtered_no_impact":0,"filtered_non_deterministic":0,"impact_retries":0,"targets_faulted":0,"vaccines_demoted":0,"faults_injected":0,"vaccines":[],"phase_costs":[],"natural_trace":"APITRACE v1 0 1 12\n"}}
EOF
cp "$work/old.jsonl" "$work/before.jsonl"

rc=0
"$autovac" campaign "$samples/marker_demo.asm" --journal "$work/old.jsonl" \
  --resume >"$work/out.txt" 2>&1 || rc=$?
if [ "$rc" -eq 0 ]; then
  echo "resume of a version-1 journal exited 0"
  exit 1
fi
if ! grep -q 'unsupported journal version 1' "$work/out.txt"; then
  echo "the refusal does not name the version:"
  cat "$work/out.txt"
  exit 1
fi
cmp "$work/before.jsonl" "$work/old.jsonl"
