#!/bin/sh
# `test` and `push` refuse a package in the retired VACCINEPKG v1 line
# format: each exits non-zero, names the format, and leaves the file as
# it was. The JSON package that `analyze --package` writes loads and
# bites.
#   usage: cli_old_package.sh <autovac> <samples-dir>
set -eu
autovac=$1
samples=$2
work=old_package.$$
rm -rf "$work"
mkdir "$work"
trap 'rm -rf "$work"' EXIT

# samples/derived_demo.asm's vaccine as a version-1 package wrote it.
cat >"$work/old.pkg" <<'PKG'
VACCINEPKG v1 1
V derived_demo bd3f65529816f2bb474aaa21a13341de 2 1 1 2 1 1 Global\4e8c2ffa-31 Global\\*-31 0.000000 CE
SLICE 19 4 65632 19
I 10 255 255 64
I 10 255 255 65536
I 43 255 255 53
I 10 255 255 65536
I 43 255 255 83
I 3 2 0 0
I 9 2 255 0
I 10 255 255 65536
I 10 255 255 0
I 43 255 255 87
I 10 255 255 16
I 10 255 255 65600
I 9 0 255 0
I 43 255 255 88
I 10 255 255 65600
I 10 255 255 4096
I 10 255 255 65632
I 43 255 255 86
I 1 255 255 0
B 4096 476c6f62616c5c25732d333100
B 65536 00000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
B 65600 0000000000000000000000000000000000000000000000000000000000000000
B 65632 0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000
PKG
cp "$work/old.pkg" "$work/before.pkg"

# refused <autovac arguments...>
refused() {
  rc=0
  "$autovac" "$@" >"$work/out.txt" 2>&1 || rc=$?
  if [ "$rc" -eq 0 ]; then
    echo "autovac $* exited 0 on a version-1 package"
    exit 1
  fi
  if ! grep -q 'VACCINEPKG v1' "$work/out.txt"; then
    echo "autovac $*: the refusal does not name the format:"
    cat "$work/out.txt"
    exit 1
  fi
  cmp "$work/before.pkg" "$work/old.pkg"
}
refused test "$samples/derived_demo.asm" "$work/old.pkg"
refused push --socket "$work/vacd.sock" "$work/old.pkg"

"$autovac" analyze "$samples/derived_demo.asm" --package "$work/new.pkg" \
  >/dev/null
"$autovac" test "$samples/derived_demo.asm" "$work/new.pkg" >/dev/null
