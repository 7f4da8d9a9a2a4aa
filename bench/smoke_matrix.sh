#!/bin/sh
# Determinism matrix for the bench driver, run by `dune runtest` from
# the bench build directory (see bench/dune).
#
# Every row runs its experiments twice, at --jobs 1 and at --jobs 4,
# strips the "N jobs" header, the summary's file name and the row's own
# pattern, and cmp's the two stdouts: the work-sharing pool must not
# move a single simulated result.  A JSON row also writes one --json
# summary per width, runs the strict linter over each, and appends the
# whole summary but its "date" and "jobs" lines to the stripped stdout
# before the cmp, so every counter, the per-experiment events and the
# ok flags must match across widths too.
# The driver exits 1 when an experiment fails, which stops the matrix.
#
# Row fields: name, scale, bench arguments, extra strip pattern
# (grep basic regex, "" for none), json|-.
set -eu

main=./main.exe
sim=../bin/vswapper_sim.exe
lint=../test/json_lint.exe

row() {
  name=$1 scale=$2 args=$3 strip=$4 json=$5
  # A JSON row names its summary after the width, so the "summary
  # written to" line differs by design; the summary appended below
  # must not.
  pattern='jobs$\|summary written to'
  if [ -n "$strip" ]; then pattern="$pattern\\|$strip"; fi
  for jobs in 1 4; do
    out=$name-j$jobs
    json_args=
    if [ "$json" = json ]; then json_args="--json $out.json"; fi
    VSWAPPER_BENCH_SCALE=$scale $main --jobs $jobs $args $json_args > "$out.out"
    grep -v "$pattern" "$out.out" > "$out.flt"
    if [ -n "$json_args" ]; then
      $lint "$out.json"
      grep -Ev '^  "(date|jobs)":' "$out.json" >> "$out.flt"
    fi
  done
  cmp "$name-j1.flt" "$name-j4.flt"
}

# fig9 drives the misaligned-I/O swap storm through the disk queue's
# batching; fig3 shards its configurations onto the shared pool, so the
# nested submission path runs too.
row bench 0.05 "fig3 fig9 tab1" "" -
# Fault decisions are pure hashes of (seed, sector, attempt).
row fault 0.05 "resilience --fault-seed 3" "" -
# Async faults, multi-queue disk and the in-flight bound, all set as
# config fields by the experiment itself.
row scalability 0.05 scalability "" json
# czram + remote tiers: admission, promotion, demotion.
row tiering 0.05 tiering "" json
# Heap panels are measured with Gc.stat and vary with job placement.
row memscale 0.02 memscale heap json
# Scrubber, QoS admission and czram failover at a fixed fault seed.
row degraded 0.05 "degradation --fault-seed 3" "" json
# The fleet self-checks pool widths 1 and 4 inside each run; its heap
# line varies.
row fleet 0.05 fleet heap json

# A bad scale must stop the driver with status 2 and name the variable,
# not fall back to full scale.
for bad in abc 0 -1 nan; do
  rc=0
  VSWAPPER_BENCH_SCALE=$bad $main tab1 > /dev/null 2> bad-scale.err || rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q VSWAPPER_BENCH_SCALE bad-scale.err; then
    echo "VSWAPPER_BENCH_SCALE=$bad: exit $rc, expected 2 naming the variable" >&2
    exit 1
  fi
done

# The same for the CLI's --scale: a command-line error (cmdliner's
# status 124) naming the option, not a run at the 16 MB floor.
for bad in 0 -1 nan; do
  rc=0
  $sim run tab1 --scale=$bad > /dev/null 2> bad-cli-scale.err || rc=$?
  if [ "$rc" -ne 124 ] || ! grep -q -- "--scale" bad-cli-scale.err; then
    echo "vswapper_sim --scale=$bad: exit $rc, expected 124 naming --scale" >&2
    exit 1
  fi
done

# An unknown experiment id (a typo, or a flag the driver no longer has)
# must stop the driver with status 2 and name the id, not run an empty
# sweep.
for bad in fig09 --micro; do
  rc=0
  $main tab1 $bad > /dev/null 2> bad-id.err || rc=$?
  if [ "$rc" -ne 2 ] || ! grep -q -- "\"$bad\"" bad-id.err; then
    echo "bench $bad: exit $rc, expected 2 naming the id" >&2
    exit 1
  fi
done
