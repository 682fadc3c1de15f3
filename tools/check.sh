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
# The executor's two sweeps against the reference interpreter (random host
# programs; random kernels, cost counts included) once more, ten times as
# long as in the tier-1 run.
QCHECK_LONG=1 dune exec test/test_main.exe -- test exec
# The lazy and eager merges against their oracles, and the bitset against
# its boolean model, ten times as long as in the tier-1 run.
QCHECK_LONG=1 dune exec test/test_main.exe -- test coherence
QCHECK_LONG=1 dune exec test/test_main.exe -- test properties
# The collective planner against the reference planner (test/ref_collective.ml)
# on generated op lists over ten machines, ten times as long as in tier-1.
QCHECK_LONG=1 dune exec test/test_main.exe -- test collective
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
# the sequential reference and a mismatch fails the sweep (exit 1); none
# of them may write its artifact.
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
# Artifact identity: regenerate the six deterministic BENCH_*.json files
# from their declared commands; any byte that moved fails the check (the
# committed files are put back either way). A host-speed change must pass
# this unchanged.
sh tools/regen_artifacts.sh
# The CLI must reject a --gpus count its --machine spec cannot supply
# (printable error, no silent clamp).
if dune exec bin/accc.exe -- run samples/heat2d.c --machine cluster:2x2 --gpus 9 >/dev/null 2>&1; then
  echo "check.sh: accc accepted --gpus 9 on a 4-GPU machine" >&2
  exit 1
fi
# A bad flag value is a printable error that names the flag (exit 1),
# never an uncaught exception (exit 125).
rejects() {
  what="$1"
  shift
  if out="$(dune exec bin/accc.exe -- "$@" 2>&1)"; then code=0; else code=$?; fi
  if [ "$code" -ne 1 ] || ! printf '%s\n' "$out" | grep -q -e "$what"; then
    echo "check.sh: accc $* exited $code without naming $what: $out" >&2
    exit 1
  fi
}
rejects chunk-kb run samples/heat2d.c --chunk-kb 0
rejects max-concurrent serve samples/fleet.trace --max-concurrent 0
rejects overlap run samples/heat2d.c --overlap bogus
# An out-of-range subscript is a printable error naming the array, on the
# device path and the host path alike.
cat > "$tmp/oob.c" <<'EOF'
void main() {
  int n = 16;
  double a[n];
  int i;
  #pragma acc parallel loop
  for (i = 0; i < n; i++) { a[i + 100] = 1.0; }
}
EOF
rejects "array a: index 100" run "$tmp/oob.c"
rejects "array a: index 100" run "$tmp/oob.c" --variant seq
# So is a break out of a kernel iteration on the device path, an array
# too large to allocate, and a reductiontoarray destination that is also
# stored to plainly or reduced with a second operator.
cat > "$tmp/break.c" <<'EOF'
void main() {
  int n = 8;
  int x[n];
  int i;
  #pragma acc parallel loop
  for (i = 0; i < n; i++) {
    x[i] = i;
    if (i == 3) { break; }
  }
}
EOF
rejects "break.c:6:3: break/continue escaping a parallel loop iteration" run "$tmp/break.c"
for n in 4611686018427387903 9007199254740992; do
  printf 'void main() {\n  int n = %s;\n  double x[n];\n}\n' "$n" > "$tmp/huge.c"
  rejects "huge.c:3:3: array x: length $n is too large" run "$tmp/huge.c"
done
cat > "$tmp/lying.c" <<'EOF'
void main() {
  int n = 8;
  double c[n];
  int i;
  #pragma acc parallel loop
  for (i = 0; i < n; i++) {
    #pragma acc reductiontoarray(+: c)
    c[i % 4] += 1.0;
    c[3] = 5;
  }
}
EOF
rejects "lying.c:9:5: plain write to c" run "$tmp/lying.c"
cat > "$tmp/mixed.c" <<'EOF'
void main() {
  int n = 8;
  double c[n];
  int i;
  #pragma acc parallel loop
  for (i = 0; i < n; i++) {
    #pragma acc reductiontoarray(+: c)
    c[i % 4] += 1.0;
    #pragma acc reductiontoarray(*: c)
    c[i % 4] *= 2.0;
  }
}
EOF
rejects "mixed.c:9:5: reductiontoarray: c is reduced with both + and \*" run "$tmp/mixed.c"
# Observability smoke: a traced run under each launch gate (overlap and
# barrier) and a metered fleet replay, with the emitted artifacts
# validated for internal consistency (the trace parses, every flow event
# references a recorded span and no flow edge goes backwards in time;
# every Prometheus series carries a # TYPE).
dune exec bin/accc.exe -- run samples/heat2d.c --machine cluster --overlap on \
  --trace-json "$tmp/run_trace.json" --blame > /dev/null
dune exec bin/accc.exe -- run samples/heat2d.c --machine cluster --overlap off \
  --trace-json "$tmp/barrier_trace.json" --blame > /dev/null
# On a fat tree under auto collectives, heat2d's halo exchanges repeat
# every iteration, so each launch site reuses its first plan: a reused
# plan must still cite spans of the launch that runs it.
dune exec bin/accc.exe -- run samples/heat2d.c --machine fattree:4x4 --collective auto \
  --overlap on --trace-json "$tmp/reuse_trace.json" --blame > /dev/null
dune exec bin/accc.exe -- serve samples/fleet.trace \
  --metrics "$tmp/fleet.prom" --trace-json "$tmp/fleet_trace.json" > /dev/null
dune exec tools/validate_obs/validate_obs.exe -- trace "$tmp/run_trace.json"
dune exec tools/validate_obs/validate_obs.exe -- trace "$tmp/barrier_trace.json"
dune exec tools/validate_obs/validate_obs.exe -- trace "$tmp/reuse_trace.json"
dune exec tools/validate_obs/validate_obs.exe -- trace "$tmp/fleet_trace.json"
dune exec tools/validate_obs/validate_obs.exe -- metrics "$tmp/fleet.prom"
# The host-time recorder prints its table to stderr and leaves stdout,
# the simulated output, unchanged.
dune exec bin/accc.exe -- run samples/heat2d.c --machine cluster --json > "$tmp/plain.json"
dune exec bin/accc.exe -- run samples/heat2d.c --machine cluster --json --wall-profile \
  > "$tmp/wall.json" 2> "$tmp/wall.txt"
cmp "$tmp/plain.json" "$tmp/wall.json"
grep -q "kernel executor" "$tmp/wall.txt"
echo "check.sh: all green"
