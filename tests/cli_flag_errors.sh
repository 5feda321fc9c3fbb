#!/bin/sh
# Malformed, out-of-range and silently-ignored flags exit 2 with an error
# naming the flag, before any socket or file is touched.
#   usage: cli_flag_errors.sh <autovac>
set -u
autovac=$1
work=$(pwd)/cli_flag_errors.$$
rm -rf "$work" "$work.out" "$work.err"
mkdir "$work"
trap 'rm -rf "$work" "$work.out" "$work.err"' EXIT
cd "$work" || exit 1
failed=0

# refused <flag> <autovac arguments...>, run in the empty $work.
refused() {
  flag=$1
  shift
  "$autovac" "$@" >"$work.out" 2>"$work.err"
  rc=$?
  if [ "$rc" -ne 2 ] || [ -s "$work.out" ] ||
      ! grep -q -e "$flag" "$work.err"; then
    echo "FAIL (exit $rc): autovac $*"
    cat "$work.err"
    failed=1
  fi
  if [ -n "$(ls -A .)" ]; then
    echo "FAIL: autovac $* created $(ls -A .)"
    failed=1
  fi
}

refused --checkpoint-every serve --socket s --checkpoint-every x
refused --jobs campaign x.asm --jobs two
refused --fault-rate analyze x.asm --fault-seed 1 --fault-rate abc
refused --fault-rate analyze x.asm --fault-seed 1 --fault-rate 7
refused --max-api-calls analyze x.asm --max-api-calls 10x
refused --mutation-threads analyze x.asm --mutation-threads 2x
refused --max-call-depth analyze x.asm --max-call-depth 4294967297
refused --since pull --socket s --since abc
refused --page sync --socket s --page -1
refused --retries push --socket s --retries 4294967297 p.pkg
refused --binary push --socket s --binary p.pkg
refused --binary quarantine --socket s --binary d
refused --fault-rate analyze x.asm --fault-rate 0.1
refused --seed corpus --out d --seed 0x10
refused --tcp serve --socket s --tcp 127.0.0.1:99999
exit $failed
