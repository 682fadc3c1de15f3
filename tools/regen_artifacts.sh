#!/bin/sh
# Regenerate the six deterministic bench artifacts from their declared
# commands and fail, showing a diff, if any differs from the bytes in the
# tree before the run. The tree's files are put back afterwards, pass or
# fail.
#
#   tools/regen_artifacts.sh
#
# coherence, collective, fusion and scale are tracked at the default
# scale; overlap and fleet at --scale small. BENCH_sim.json is not
# checked: it records fabric wall time, which differs run to run.
set -eu
cd "$(dirname "$0")/.."

artifacts="coherence collective fusion scale overlap fleet"
tmp="$(mktemp -d)"
for a in $artifacts; do cp "BENCH_$a.json" "$tmp/"; done
restore() {
  for a in $artifacts; do cp "$tmp/BENCH_$a.json" .; done
  rm -rf "$tmp"
}
trap restore EXIT

dune build bench/main.exe
dune exec bench/main.exe -- coherence collective fusion scale > "$tmp/default.log"
dune exec bench/main.exe -- --scale small overlap fleet > "$tmp/small.log"

status=0
for a in $artifacts; do
  if ! cmp -s "$tmp/BENCH_$a.json" "BENCH_$a.json"; then
    echo "regen_artifacts.sh: regenerating BENCH_$a.json changed it:" >&2
    diff "$tmp/BENCH_$a.json" "BENCH_$a.json" >&2 || true
    status=1
  fi
done
if [ "$status" -eq 0 ]; then echo "regen_artifacts.sh: all six artifacts regenerate byte-identically"; fi
exit "$status"
