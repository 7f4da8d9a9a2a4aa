#!/bin/sh
# The fleet's determinism row and the command-line checks of
# `vswapper_sim run`, run by `dune runtest` from the bench build
# directory (see bench/dune).  The paper-figure golden is the gate for
# every other experiment; the fleet stays out of it because its heap
# line is a host measurement.
#
# The fleet runs at --jobs 1 and at --jobs 4, each writing a --json
# summary.  Each stdout loses its heap line, each summary goes through
# the strict linter, and the summary but its "date" and "jobs" lines is
# appended to the stripped stdout; the two must then be identical, so
# every counter, the per-experiment events and the ok flags must match
# across widths too.  The driver exits 1 when an experiment fails,
# which stops the script.
set -eu

sim=../bin/vswapper_sim.exe
lint=../test/json_lint.exe

# The fleet also self-checks pool widths 1 and 4 inside each run.
for jobs in 1 4; do
  out=fleet-j$jobs
  $sim run --scale 0.05 --jobs $jobs fleet --json $out.json > $out.out
  grep -v heap $out.out > $out.flt
  $lint $out.json
  grep -Ev '^  "(date|jobs)":' $out.json >> $out.flt
done
cmp fleet-j1.flt fleet-j4.flt

# Bad input is a command-line error (cmdliner's status 124) naming the
# flag, not a run at some fallback value: a scale at the 16 MB floor or
# at full scale, a pool of no width, a fault rate that is no
# probability, a guest of no memory.
bad() {
  cmd=$1 flag=$2
  shift 2
  for value in "$@"; do
    rc=0
    $sim $cmd "$flag=$value" > /dev/null 2> bad-flag.err || rc=$?
    if [ "$rc" -ne 124 ] || ! grep -q -- "$flag" bad-flag.err; then
      echo "$cmd $flag=$value: exit $rc, expected 124 naming $flag" >&2
      exit 1
    fi
  done
}
bad "run tab1" --scale abc 0 -1 nan
bad "run tab1" --jobs 0 -1 x
bad "run tab1" --fault-seed x
bad "run tab1" --fault-rate inf -1 2
bad adhoc --mem 0 -1
bad adhoc --limit 0

# An unknown experiment id (a typo, or a flag the driver no longer has)
# must stop the run with status 124 and name the id, not run an empty
# sweep.
for id in fig09 --micro; do
  rc=0
  $sim run tab1 $id > /dev/null 2> bad-id.err || rc=$?
  if [ "$rc" -ne 124 ] || ! grep -q -- "'$id'" bad-id.err; then
    echo "run $id: exit $rc, expected 124 naming the id" >&2
    exit 1
  fi
done
