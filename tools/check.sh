#!/bin/sh
# The repo's verify flow: formatting, build, tests — what CI runs and
# what a PR must keep green.
#
#   tools/check.sh            # check everything
#   tools/check.sh --fix      # auto-promote dune-file formatting first
#
# Formatting is enforced for dune files only (dune-project limits @fmt
# with `enabled_for dune`): the pinned .ocamlformat records the OCaml
# style, but the check must pass in environments without the ocamlformat
# binary installed.
set -eu
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--fix" ]; then
  dune build @fmt --auto-promote
else
  dune build @fmt
fi
dune build
dune runtest
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
# The smoke runs below must never touch a committed artifact: a bench
# target writes its BENCH_*.json only from the configuration the file
# records (its declared scale, never --smoke). Checksum every artifact
# now; the same checksums are required after the last smoke run.
cksum BENCH_*.json > "$tmp/bench.before"
# Fleet smoke: replay a 3-job trace through every scheduling policy. The
# fleet's simulated-time watchdog makes an admission deadlock fail loudly
# (Fleet.Deadlock names the wedged job id) instead of hanging CI.
dune exec bench/main.exe -- --smoke --scale small fleet
# Simulator fast-path smoke: drive a small transfer storm through both
# fabric allocators; the bench fails loudly if the incremental path ever
# diverges from the from-scratch reference (see docs/PERF.md).
dune exec bench/main.exe -- --smoke sim
# Fusion smoke: run the fusion-friendly apps with --fuse off vs on and
# check both against the sequential reference (see docs/FUSION.md).
dune exec bench/main.exe -- --smoke fusion
# Scale-out smoke: jacobi + spmv on a spec-built machine, 1-D vs 2-D
# decomposition crossed with star vs ring collectives; the bench fails
# loudly if any combination diverges from the sequential reference
# (see docs/TOPOLOGY.md).
dune exec bench/main.exe -- --smoke scale
# Overlap, coherence and collective smoke: every run is checked against
# the sequential reference; none of them may write its artifact.
dune exec bench/main.exe -- --scale small --smoke overlap coherence collective
# End-to-end smoke: the four e2e workloads on their four machine shapes,
# through the compiled host path. Every run is checked against the
# sequential oracle, and traced and untraced reports must be equal (see
# bench/e2e/README.md).
dune exec bench/e2e/e2e.exe -- --smoke
cksum BENCH_*.json > "$tmp/bench.after"
if ! cmp -s "$tmp/bench.before" "$tmp/bench.after"; then
  echo "check.sh: a smoke run rewrote a committed BENCH_*.json:" >&2
  diff "$tmp/bench.before" "$tmp/bench.after" >&2 || true
  exit 1
fi
# The CLI must reject a --gpus count its --machine spec cannot supply
# (printable error, no silent clamp).
if dune exec bin/accc.exe -- run samples/heat2d.c --machine cluster:2x2 --gpus 9 >/dev/null 2>&1; then
  echo "check.sh: accc accepted --gpus 9 on a 4-GPU machine" >&2
  exit 1
fi
# Observability smoke: a traced run and a metered fleet replay, with the
# emitted artifacts validated for internal consistency (the trace parses
# and every flow event references a recorded span; every Prometheus
# series carries a # TYPE).
dune exec bin/accc.exe -- run samples/heat2d.c --machine cluster --overlap on \
  --trace-json "$tmp/run_trace.json" --blame > /dev/null
dune exec bin/accc.exe -- serve samples/fleet.trace \
  --metrics "$tmp/fleet.prom" --trace-json "$tmp/fleet_trace.json" > /dev/null
dune exec tools/validate_obs/validate_obs.exe -- trace "$tmp/run_trace.json"
dune exec tools/validate_obs/validate_obs.exe -- trace "$tmp/fleet_trace.json"
dune exec tools/validate_obs/validate_obs.exe -- metrics "$tmp/fleet.prom"
echo "check.sh: all green"
