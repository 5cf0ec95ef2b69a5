#!/usr/bin/env bash
# End-to-end CLI test for the sharded campaign pipeline:
#
#   1. usage errors (malformed --jobs/--reps/--seed, bad --shard, worker
#      counts above the 256-worker bound) exit 2;
#   2. a small grid run as 3 shards + tempriv-merge reproduces the serial
#      JSONL / stats / CSV byte for byte;
#   3. tempriv-merge --check passes a clean shard set and reports a
#      corrupted one (tampered header, missing shard) with exit 1;
#   4. --telemetry writes a snapshot in every mode without perturbing any
#      result byte (works in OFF builds too: all-zero snapshot), and
#      tempriv-merge --telemetry combines shard snapshots / fails when a
#      sibling is missing;
#   5. an artifact write that fails (a path on /dev/full) exits 1, for the
#      serial run and for tempriv-merge;
#   6. a results directory that cannot be created (a path below a regular
#      file) exits 1 with a message naming it, for both tools.
#
# Usage: campaign_cli_test.sh <tempriv-campaign> <tempriv-merge>

set -u

CAMPAIGN=${1:?usage: campaign_cli_test.sh <tempriv-campaign> <tempriv-merge>}
MERGE=${2:?usage: campaign_cli_test.sh <tempriv-campaign> <tempriv-merge>}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

FAILURES=0
note_failure() {
  echo "FAIL: $1" >&2
  FAILURES=$((FAILURES + 1))
}

expect_exit() {
  # expect_exit <wanted-code> <description> <cmd...>
  local wanted=$1 what=$2
  shift 2
  "$@" >"$WORK/out.log" 2>"$WORK/err.log"
  local got=$?
  if [ "$got" -ne "$wanted" ]; then
    echo "--- stderr ---" >&2
    cat "$WORK/err.log" >&2
    note_failure "$what: expected exit $wanted, got $got"
  fi
}

expect_same() {
  # expect_same <description> <file-a> <file-b>
  if ! cmp -s "$2" "$3"; then
    note_failure "$1: $2 and $3 differ"
    diff "$2" "$3" | head -5 >&2
  fi
}

# --- 1. usage errors exit 2 with a friendly message ----------------------

expect_exit 2 "malformed --jobs" "$CAMPAIGN" fig2a --jobs 4x --quiet
expect_exit 2 "malformed --reps" "$CAMPAIGN" fig2a --reps 1.5 --quiet
expect_exit 2 "negative --seed" "$CAMPAIGN" fig2a --seed -1 --quiet
expect_exit 2 "empty --jobs" "$CAMPAIGN" fig2a --jobs '' --quiet
expect_exit 2 "overflowing --seed" "$CAMPAIGN" fig2a --seed 99999999999999999999 --quiet
expect_exit 2 "bad shard index" "$CAMPAIGN" fig2a --shard 3/2 --quiet
expect_exit 2 "bad shard syntax" "$CAMPAIGN" fig2a --shard 1:2 --quiet
expect_exit 2 "unknown sweep" "$CAMPAIGN" nosuchsweep --quiet
expect_exit 2 "unknown option" "$CAMPAIGN" fig2a --frobnicate --quiet
expect_exit 2 "missing value" "$CAMPAIGN" fig2a --jobs
# Refused while parsing: no thread starts and no output directory appears.
# One host runs a campaign on its thread pool; there is no fork-fleet spec.
expect_exit 2 "huge --jobs" "$CAMPAIGN" fig2a --jobs 1000000 --quiet \
  --out "$WORK/huge_jobs"
expect_exit 2 "auto shard spec" "$CAMPAIGN" fig2a --shard auto:2 --quiet \
  --out "$WORK/auto_shards"
grep -q "bad shard spec 'auto:2'" "$WORK/err.log" ||
  note_failure "--shard auto:2 was not refused as a bad shard spec"
for dir in huge_jobs auto_shards; do
  [ -e "$WORK/$dir" ] && note_failure "refused run still created $dir"
done
expect_exit 0 "--help" "$CAMPAIGN" --help
if ! grep -q "wants a non-negative integer" "$WORK/err.log" 2>/dev/null; then
  "$CAMPAIGN" fig2a --jobs 4x --quiet 2>"$WORK/err.log"
  grep -q "wants a non-negative integer" "$WORK/err.log" ||
    note_failure "malformed --jobs: friendly message missing"
fi

# --- 2. serial vs 3 shards + merge, byte for byte ------------------------

GRID_ARGS=(grid --interarrival 2,4 --scheme rcad,droptail --packets 80 --reps 2 --quiet)

expect_exit 0 "serial grid run" \
  "$CAMPAIGN" "${GRID_ARGS[@]}" --out "$WORK/serial"
for i in 0 1 2; do
  expect_exit 0 "shard $i/3 run" \
    "$CAMPAIGN" "${GRID_ARGS[@]}" --out "$WORK/shards" --shard "$i/3"
done

SHARDS=("$WORK"/shards/campaign_grid.shard-*-of-3.jsonl)
expect_exit 0 "merge --check (clean)" "$MERGE" --check "${SHARDS[@]}"
expect_exit 0 "merge" "$MERGE" --out "$WORK/merged" "${SHARDS[@]}"

for f in campaign_grid.jsonl campaign_grid.stats.json campaign_grid.csv; do
  expect_same "merge vs serial ($f)" "$WORK/serial/$f" "$WORK/merged/$f"
done

# --- 3. --check on corrupted shard sets ----------------------------------

# Missing shard: only two of the three artifacts.
expect_exit 1 "merge --check (missing shard)" \
  "$MERGE" --check "${SHARDS[0]}" "${SHARDS[1]}"

# Tampered header: flip the base seed in shard 1's header line.
mkdir -p "$WORK/corrupt"
for i in 0 1 2; do
  cp "$WORK/shards/campaign_grid.shard-$i-of-3.jsonl" \
     "$WORK/shards/campaign_grid.shard-$i-of-3.stats.json" "$WORK/corrupt/"
done
sed -i '1s/"base_seed":[0-9]*/"base_seed":424242/' \
  "$WORK/corrupt/campaign_grid.shard-1-of-3.jsonl"
expect_exit 1 "merge --check (tampered base seed)" \
  "$MERGE" --check "$WORK/corrupt"/campaign_grid.shard-*-of-3.jsonl
"$MERGE" --check "$WORK/corrupt"/campaign_grid.shard-*-of-3.jsonl \
  2>"$WORK/check.log"
grep -q "base_seed" "$WORK/check.log" ||
  note_failure "--check did not name the tampered base_seed"

# Duplicate shard: the same index twice.
expect_exit 1 "merge --check (duplicate shard)" \
  "$MERGE" --check "${SHARDS[0]}" "${SHARDS[0]}" "${SHARDS[1]}" "${SHARDS[2]}"

# --check writes nothing even when the set is clean.
[ ! -e "$WORK/shards/campaign_grid.jsonl" ] ||
  note_failure "--check wrote an output file"

# --- 4. --telemetry snapshots: present, well-formed, result-neutral ------

# Serial run with telemetry: snapshot written, results byte-identical to
# the telemetry-free serial run of section 2.
expect_exit 0 "serial run with --telemetry" \
  "$CAMPAIGN" "${GRID_ARGS[@]}" --out "$WORK/tserial" \
  --telemetry "$WORK/tserial/grid.telemetry.json"
for f in campaign_grid.jsonl campaign_grid.stats.json campaign_grid.csv; do
  expect_same "--telemetry vs plain serial ($f)" \
    "$WORK/serial/$f" "$WORK/tserial/$f"
done
grep -q '"eq.schedule_heap"' "$WORK/tserial/grid.telemetry.json" ||
  note_failure "serial telemetry snapshot lacks the event-queue counters"
grep -q '"spans"' "$WORK/tserial/grid.telemetry.json" ||
  note_failure "serial telemetry snapshot lacks the spans section"

# Two explicit shards writing .telemetry.json siblings, then a merge that
# combines them. The sibling paths follow the shard JSONL naming so
# tempriv-merge finds them by convention.
for i in 0 1; do
  expect_exit 0 "shard $i/2 run with --telemetry" \
    "$CAMPAIGN" "${GRID_ARGS[@]}" --out "$WORK/tshards" --shard "$i/2" \
    --telemetry "$WORK/tshards/campaign_grid.shard-$i-of-2.telemetry.json"
done
expect_exit 0 "merge with --telemetry" \
  "$MERGE" --out "$WORK/tmerged" \
  --telemetry "$WORK/tmerged/grid.telemetry.json" \
  "$WORK"/tshards/campaign_grid.shard-*-of-2.jsonl
for f in campaign_grid.jsonl campaign_grid.stats.json campaign_grid.csv; do
  expect_same "telemetry merge vs serial ($f)" \
    "$WORK/serial/$f" "$WORK/tmerged/$f"
done
grep -q '"telemetry"' "$WORK/tmerged/grid.telemetry.json" ||
  note_failure "merged telemetry snapshot missing or malformed"
grep -q '"eq.schedule_heap"' "$WORK/tmerged/grid.telemetry.json" ||
  note_failure "merged telemetry snapshot lacks the event-queue counters"

# A shard set without telemetry siblings cannot honor --telemetry.
expect_exit 1 "merge --telemetry without siblings" \
  "$MERGE" --out "$WORK/tfail" --telemetry "$WORK/tfail/grid.telemetry.json" \
  "${SHARDS[@]}"

# --- 5. failed artifact writes exit 1 ------------------------------------

# Every write to /dev/full fails with ENOSPC, so a symlink to it stands in
# for a full disk. The small artifacts sit in a stream buffer until the
# final flush, which is where these failures surface.
if [ -w /dev/full ]; then
  mkdir -p "$WORK/full"
  ln -s /dev/full "$WORK/full/serial.jsonl"
  expect_exit 1 "serial run with a failing JSONL write" \
    "$CAMPAIGN" "${GRID_ARGS[@]}" --out "$WORK/full" \
    --jsonl "$WORK/full/serial.jsonl"
  grep -q "serial.jsonl" "$WORK/err.log" ||
    note_failure "failing JSONL write did not name its path"

  mkdir -p "$WORK/fullcsv"
  ln -s /dev/full "$WORK/fullcsv/campaign_grid.csv"
  expect_exit 1 "serial run with a failing CSV write" \
    "$CAMPAIGN" "${GRID_ARGS[@]}" --out "$WORK/fullcsv"

  ln -s /dev/full "$WORK/full/merged.jsonl"
  expect_exit 1 "merge with a failing JSONL write" \
    "$MERGE" --out "$WORK/full" --jsonl "$WORK/full/merged.jsonl" \
    "${SHARDS[@]}"
  grep -q "merged.jsonl" "$WORK/err.log" ||
    note_failure "failing merged JSONL write did not name its path"
else
  echo "note: /dev/full is absent; skipping the failed-write checks" >&2
fi

# --- 6. a results directory that cannot be created exits 1 ---------------

# A path below a regular file can never become a directory. The JSONL goes
# elsewhere, so the CSV's results directory is the only thing that fails.
touch "$WORK/plainfile"
BAD_DIR="$WORK/plainfile/results"
expect_exit 1 "serial run with an uncreatable results directory" \
  env TEMPRIV_RESULTS_DIR="$BAD_DIR" \
  "$CAMPAIGN" "${GRID_ARGS[@]}" --jsonl "$WORK/baddir/serial.jsonl"
grep -q "cannot create results directory '$BAD_DIR'" "$WORK/err.log" ||
  note_failure "tempriv-campaign did not name the uncreatable results directory"
expect_exit 1 "merge with an uncreatable results directory" \
  env TEMPRIV_RESULTS_DIR="$BAD_DIR" \
  "$MERGE" --jsonl "$WORK/baddir/merged.jsonl" "${SHARDS[@]}"
grep -q "cannot create results directory '$BAD_DIR'" "$WORK/err.log" ||
  note_failure "tempriv-merge did not name the uncreatable results directory"

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES failure(s)" >&2
  exit 1
fi
echo "campaign CLI test: all checks passed"
