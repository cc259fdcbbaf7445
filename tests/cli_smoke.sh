#!/bin/sh
# End-to-end smoke test of the vn2 CLI: simulate → train → inspect →
# diagnose → incidents → silent → stats, all against real files.
set -e
VN2="$1"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

"$VN2" simulate --scenario tiny --nodes 12 --days 0.05 --seed 9 \
    --out "$WORK/trace.csv" | grep -q "snapshots"
"$VN2" train --trace "$WORK/trace.csv" --rank 5 --out "$WORK/model.vn2" \
    | grep -q "model ->"
"$VN2" inspect --model "$WORK/model.vn2" | grep -q "psi\[ 0\]"
"$VN2" diagnose --model "$WORK/model.vn2" --trace "$WORK/trace.csv" --top 3 \
    | grep -q "exceptions"
"$VN2" incidents --model "$WORK/model.vn2" --trace "$WORK/trace.csv" \
    | grep -q "incidents from"
"$VN2" silent --trace "$WORK/trace.csv" | grep -q "look silent"
"$VN2" stats --trace "$WORK/trace.csv" | grep -q "nodes reporting"
# Telemetry: any subcommand can snapshot its counters/spans; the profile
# subcommand runs the whole pipeline and writes both formats. Counter
# names only appear when instrumentation is compiled in (VN2_TELEMETRY=ON,
# reported in the snapshot itself), so those checks are conditional.
"$VN2" stats --trace "$WORK/trace.csv" --telemetry "$WORK/telemetry.json" \
    > /dev/null
grep -q '"counters"' "$WORK/telemetry.json"
if grep -q '"telemetry_compiled": true' "$WORK/telemetry.json"; then
  grep -q '"trace.csv.rows"' "$WORK/telemetry.json"
fi
"$VN2" profile --scenario tiny --nodes 12 --days 0.05 --seed 9 --rank 5 \
    --out "$WORK/prof.json" --trace-out "$WORK/prof_trace.json" \
    | grep -q "pipeline:"
grep -q '"traceEvents"' "$WORK/prof_trace.json"
if grep -q '"telemetry_compiled": true' "$WORK/prof.json"; then
  grep -q '"nnls.solves"' "$WORK/prof.json"
fi
# --json swaps the human report for the machine-readable snapshot on
# stdout, including the process resource block.
"$VN2" profile --scenario tiny --nodes 12 --days 0.05 --seed 9 --rank 5 \
    --json > "$WORK/prof_stdout.json"
grep -q '"counters"' "$WORK/prof_stdout.json"
grep -q '"resource"' "$WORK/prof_stdout.json"
if grep -q "pipeline:" "$WORK/prof_stdout.json"; then
  echo "profile --json leaked human output onto stdout" >&2
  exit 1
fi
# The snapshot carries the call tree (always, even with telemetry off —
# the section is just empty then) and a non-negative dropped-span footer
# in the human report.
grep -q '"call_tree"' "$WORK/prof_stdout.json"
"$VN2" profile --scenario tiny --nodes 12 --days 0.05 --seed 9 --rank 5 \
    | grep -q "spans dropped:"
# Self-diff of a snapshot is always clean (exit 0), via both the embedded
# command and the standalone tool when it sits next to the CLI binary.
"$VN2" profile --diff "$WORK/prof_stdout.json" "$WORK/prof_stdout.json" \
    | grep -q "verdict: ok"
PROFDIFF="$(dirname "$VN2")/vn2_profdiff"
if [ -x "$PROFDIFF" ]; then
  "$PROFDIFF" "$WORK/prof_stdout.json" "$WORK/prof_stdout.json" \
      | grep -q "verdict: ok"
fi
# Unknown scenarios name the valid ones in the error.
if "$VN2" profile --scenario bogus 2>"$WORK/scen_err.txt"; then
  echo "expected usage error for unknown scenario" >&2
  exit 1
fi
grep -q "tiny, testbed, or citysee" "$WORK/scen_err.txt"
# The kernel-backend selector is a global flag: forcing the scalar
# reference backend must work on any build, and an unknown backend name
# is a usage error.
"$VN2" stats --trace "$WORK/trace.csv" --linalg-backend reference \
    | grep -q "nodes reporting"
if "$VN2" stats --trace "$WORK/trace.csv" --linalg-backend turbo \
    2>/dev/null; then
  echo "expected usage error for unknown linalg backend" >&2
  exit 1
fi
# The backend names are auto, reference and simd; "blocked" is unknown
# (exit 2), and the message lists the three.
STATUS=0
"$VN2" stats --trace "$WORK/trace.csv" --linalg-backend blocked \
    >/dev/null 2>"$WORK/backend_err.txt" || STATUS=$?
if [ "$STATUS" -ne 2 ]; then
  echo "expected exit 2 for --linalg-backend blocked, got $STATUS" >&2
  exit 1
fi
grep -q "expected auto, reference, or simd" "$WORK/backend_err.txt"
# Forcing the simd backend on unsupported hardware is a clean usage error,
# not a crash. VN2_CPU_FEATURES=scalar masks cpuid, so this holds on any
# build and any host (including ones where simd would otherwise engage).
if VN2_CPU_FEATURES=scalar "$VN2" stats --trace "$WORK/trace.csv" \
    --linalg-backend simd 2>"$WORK/simd_err.txt"; then
  echo "expected usage error for forced simd on unsupported hardware" >&2
  exit 1
fi
grep -q "linalg-backend simd" "$WORK/simd_err.txt"
# --linalg-backend auto must always engage something runnable.
"$VN2" diagnose --model "$WORK/model.vn2" --trace "$WORK/trace.csv" --top 3 \
    --linalg-backend auto | grep -q "exceptions"
# Global options work before the command too, and the thread budget never
# changes an answer: diagnose and incidents (which runs the batch NNLS
# engine) print identical output at 1 and 4 threads.
for CMD in diagnose incidents; do
  "$VN2" --threads 1 "$CMD" --model "$WORK/model.vn2" \
      --trace "$WORK/trace.csv" > "$WORK/${CMD}_t1.txt"
  "$VN2" --threads 4 --linalg-backend auto "$CMD" \
      --model "$WORK/model.vn2" --trace "$WORK/trace.csv" \
      > "$WORK/${CMD}_t4.txt"
  if ! cmp -s "$WORK/${CMD}_t1.txt" "$WORK/${CMD}_t4.txt"; then
    echo "vn2 $CMD output differs between --threads 1 and 4" >&2
    exit 1
  fi
done
grep -q "exceptions" "$WORK/diagnose_t1.txt"
grep -q "incidents from" "$WORK/incidents_t1.txt"
"$VN2" --telemetry "$WORK/leading.json" stats --trace "$WORK/trace.csv" \
    | grep -q "nodes reporting"
grep -q '"counters"' "$WORK/leading.json"
# Every command rejects an option it does not know (exit 2, naming it)
# instead of silently ignoring a typo or a retired option.
for OPTS in "--batch-size 16 --threds 4" "--threds 4"; do
  STATUS=0
  # shellcheck disable=SC2086
  "$VN2" diagnose --model "$WORK/model.vn2" --trace "$WORK/trace.csv" \
      --top 3 $OPTS 2>"$WORK/opt_err.txt" >/dev/null || STATUS=$?
  if [ "$STATUS" -ne 2 ]; then
    echo "expected exit 2 for unknown option in '$OPTS', got $STATUS" >&2
    exit 1
  fi
  FIRST=$(echo "$OPTS" | cut -d' ' -f1)
  grep -q "unknown option '$FIRST'" "$WORK/opt_err.txt"
done
# Hostile JSON is a clean input error (exit 2 naming the problem) for
# every JSON reader: 200,000-deep nesting, an inexact u64 and trailing
# bytes after the snapshot.
awk 'BEGIN { for (i = 0; i < 200000; i++) printf "["
             for (i = 0; i < 200000; i++) printf "]" }' > "$WORK/deep.json"
printf '{"call_tree": {"a": {"count": 1.5, "wall_ns": 1, "cpu_ns": 1, %s}}}' \
    '"excl_wall_ns": 1, "excl_cpu_ns": 1' > "$WORK/fraction.json"
{ cat "$WORK/prof_stdout.json"; echo garbage; } > "$WORK/trailing.json"
expect_input_error() {
  WHAT="$1"
  shift
  STATUS=0
  "$@" >/dev/null 2>"$WORK/json_err.txt" || STATUS=$?
  if [ "$STATUS" -ne 2 ]; then
    echo "expected exit 2 from $* , got $STATUS" >&2
    exit 1
  fi
  grep -q "$WHAT" "$WORK/json_err.txt"
}
TOOLS=$(dirname "$VN2")
for BAD in deep:"limit of 256" fraction:"unsigned 64-bit" \
    trailing:"trailing"; do
  FILE="$WORK/${BAD%%:*}.json"
  expect_input_error "${BAD#*:}" "$VN2" profile --diff "$FILE" "$FILE"
  if [ -x "$TOOLS/vn2_profdiff" ]; then
    expect_input_error "${BAD#*:}" "$TOOLS/vn2_profdiff" "$FILE" "$FILE"
  fi
done
if [ -x "$TOOLS/vn2_benchstat" ]; then
  expect_input_error "limit of 256" "$TOOLS/vn2_benchstat" \
      --baseline "$WORK/deep.json" "$WORK/deep.json"
  expect_input_error "limit of 256" "$TOOLS/vn2_benchstat" \
      "$WORK/deep.json" "$WORK/deep.json"
fi
if [ -x "$TOOLS/vn2_lint" ]; then
  mkdir -p "$WORK/empty_root"
  expect_input_error "limit of 256" "$TOOLS/vn2_lint" \
      --root "$WORK/empty_root" --baseline "$WORK/deep.json"
fi
# Numeric options must parse whole: trailing bytes, and negative or
# fractional counts, are usage errors (exit 2) naming the option, never a
# silent truncation or a crash.
expect_input_error "stats: --threads:" "$VN2" stats \
    --trace "$WORK/trace.csv" --threads 4x
expect_input_error "simulate: --nodes:" "$VN2" simulate --scenario tiny \
    --nodes 12x --days 0.01 --out "$WORK/bad.csv"
expect_input_error "simulate: --nodes:" "$VN2" simulate --scenario tiny \
    --nodes -3 --days 0.01 --out "$WORK/bad.csv"
expect_input_error "simulate: --nodes:" "$VN2" simulate --scenario tiny \
    --nodes 2.5 --days 0.01 --out "$WORK/bad.csv"
expect_input_error "simulate: --days:" "$VN2" simulate --scenario tiny \
    --nodes 4 --days 0.01x --out "$WORK/bad.csv"
# A node count the scenario cannot lay out is a usage error naming
# --nodes, not a failed contract that prints a source location.
for CASE in tiny:0 citysee:0 citysee:1; do
  expect_input_error "simulate: --nodes: the ${CASE%%:*} scenario needs" \
      "$VN2" simulate --scenario "${CASE%%:*}" --nodes "${CASE#*:}" \
      --days 0.01 --out "$WORK/bad.csv"
  if grep -q "\.[ch]pp:" "$WORK/json_err.txt"; then
    echo "simulate --nodes ${CASE#*:} printed a source path" >&2
    exit 1
  fi
done
if [ -e "$WORK/bad.csv" ]; then
  echo "a rejected simulate still wrote its trace" >&2
  exit 1
fi
if [ -x "$TOOLS/vn2_benchstat" ]; then
  expect_input_error "bad --floor value '0.25x'" "$TOOLS/vn2_benchstat" \
      --floor 0.25x "$WORK/prof_stdout.json" "$WORK/prof_stdout.json"
fi
# Error paths exit non-zero.
if "$VN2" train --trace /nonexistent.csv --out "$WORK/x" 2>/dev/null; then
  echo "expected failure on missing trace" >&2
  exit 1
fi
if "$VN2" bogus-command 2>/dev/null; then
  echo "expected usage error" >&2
  exit 1
fi
echo "cli smoke OK"
