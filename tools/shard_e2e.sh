#!/usr/bin/env bash
# End-to-end exercise of the sharded engine (src/shard/).
#
# Builds one deterministic answer log and checks the subsystem's
# load-bearing claim — same log, any shard count, kill-and-restart at any
# checkpoint, BIT-IDENTICAL truth — across every deployment shape:
#
#   1. crowdtruth_stream --shards=4 equals the single-engine replay byte
#      for byte (truth AND worker-quality CSVs);
#   2. periodic checkpoints + --resume_from a mid-run checkpoint, and
#      --resume_from the checkpoint directory (newest checkpoint), reproduce
#      the same bytes;
#   3. four crowdtruth_shard worker processes all-reducing through a shared
#      workdir, then merge mode, reproduce the same bytes (truth AND worker
#      qualities);
#   4. killing one worker mid-run (injected crash, exit 7) and restarting
#      it from its latest checkpoint still reproduces the same bytes;
#   5. the sharded crowdtruth_stream --metrics_out dump carries the
#      per-shard crowdtruth_shard_* families and the process gauges and
#      passes the exposition checker;
#   6. Buggify (src/scenario/buggify.h) is deterministic: the same
#      CROWDTRUTH_BUGGIFY_SEED produces an identical fault log (the
#      "buggify_faults" list of crowdtruth_stream's --json_out report) and
#      bit-identical truth at shard counts 1 and 4. In a default build the
#      fault sites are compiled out and the assertion holds trivially
#      (empty logs);
#      CI also runs this script under -DCROWDTRUTH_BUGGIFY=ON with
#      CROWDTRUTH_BUGGIFY_SEED exported, which arms every assertion above
#      with live fault injection.
#
# Usage: tools/shard_e2e.sh [BUILD_DIR]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
STREAM="$BUILD_DIR/tools/crowdtruth_stream"
SHARD="$BUILD_DIR/tools/crowdtruth_shard"
WORK="$(mktemp -d)"

cleanup() {
  # Stray workers keep polling their barrier files; don't leak them.
  [ -z "${WORKER_PIDS:-}" ] || kill $WORKER_PIDS 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

[ -x "$STREAM" ] || fail "$STREAM not built"
[ -x "$SHARD" ] || fail "$SHARD not built"

# One deterministic categorical log: 60 tasks x 9 workers, ~80% density,
# labels in {0,1,2}, no duplicate (task, worker) pairs.
{
  echo "crowdtruth_log,v1,categorical,3"
  awk 'BEGIN { s = 11;
    for (t = 0; t < 60; ++t) for (w = 0; w < 9; ++w) {
      s = (s * 1103515245 + 12345) % 2147483648;
      if (s % 5 != 0) printf "t%d,w%d,%d\n", t, w, s % 3;
    } }'
} > "$WORK/answers.log"
total=$(($(wc -l < "$WORK/answers.log") - 1))
echo "log: $total answers"

# Baseline: the single-engine replay every other shape must reproduce.
"$STREAM" --log="$WORK/answers.log" --method=ZC --resync_interval=500 \
    --output="$WORK/single.csv" --workers_output="$WORK/single_workers.csv" \
    > /dev/null

# Assertion 1: in-process sharded replay, byte-identical for 4 shards. Its
# worker qualities are the reference for the worker-process runs below.
"$STREAM" --log="$WORK/answers.log" --method=ZC --shards=4 \
    --resync_interval=100 --output="$WORK/shard4.csv" \
    --workers_output="$WORK/workers1.csv" > /dev/null
cmp "$WORK/single.csv" "$WORK/shard4.csv" \
    || fail "4-shard truth differs from the single-engine replay"
cmp "$WORK/single_workers.csv" "$WORK/workers1.csv" \
    || fail "4-shard worker qualities differ from the single-engine replay"

# Assertion 2: checkpoint every 100 answers, then resume from a mid-run
# checkpoint and reproduce the same bytes.
mkdir -p "$WORK/ckpt"
"$STREAM" --log="$WORK/answers.log" --method=ZC --shards=4 \
    --resync_interval=100 --checkpoint_every=100 \
    --checkpoint_dir="$WORK/ckpt" --output="$WORK/ckpt_run.csv" > /dev/null
cmp "$WORK/single.csv" "$WORK/ckpt_run.csv" \
    || fail "checkpointing changed the output"
middle=$(ls "$WORK/ckpt" | sort | awk 'NR == 2')
[ -n "$middle" ] || fail "expected at least two checkpoints in $WORK/ckpt"
"$STREAM" --log="$WORK/answers.log" --method=ZC --shards=4 \
    --resync_interval=100 --resume_from="$WORK/ckpt/$middle" \
    --output="$WORK/resumed.csv" > /dev/null
cmp "$WORK/single.csv" "$WORK/resumed.csv" \
    || fail "resume from $middle diverged from the single-engine replay"
"$STREAM" --log="$WORK/answers.log" --method=ZC --shards=4 \
    --resync_interval=100 --resume_from="$WORK/ckpt" \
    --output="$WORK/resumed_dir.csv" > "$WORK/resumed_dir.out"
# (The newest one, unless Buggify's snapshot_restore site deliberately
# hands back the one before it; shard_test pins the fault-free pick.)
grep -q "restored $WORK/ckpt/checkpoint_" "$WORK/resumed_dir.out" \
    || fail "directory resume restored no checkpoint from $WORK/ckpt"
cmp "$WORK/single.csv" "$WORK/resumed_dir.csv" \
    || fail "directory resume diverged from the single-engine replay"

# Assertion 3: four worker processes + file barriers + merge.
mkdir -p "$WORK/wd"
WORKER_PIDS=""
for i in 0 1 2 3; do
  "$SHARD" --mode=worker --log="$WORK/answers.log" --shards=4 \
      --shard_index="$i" --workdir="$WORK/wd" --method=ZC \
      --barrier_interval=100 --checkpoint_every=100 \
      > "$WORK/wd/worker$i.out" 2>&1 &
  WORKER_PIDS="$WORKER_PIDS $!"
done
for pid in $WORKER_PIDS; do
  wait "$pid" || fail "a worker process failed (logs in $WORK/wd)"
done
WORKER_PIDS=""
"$SHARD" --mode=merge --log="$WORK/answers.log" --shards=4 \
    --workdir="$WORK/wd" --method=ZC --output="$WORK/merged.csv" \
    --workers_output="$WORK/merged_workers.csv" > /dev/null
cmp "$WORK/single.csv" "$WORK/merged.csv" \
    || fail "merged worker-process truth differs from the single replay"
cmp "$WORK/workers1.csv" "$WORK/merged_workers.csv" \
    || fail "merged worker qualities differ from the single replay"

# Assertion 4: kill shard 2 mid-run (injected crash past its second
# checkpoint), restart it from the latest checkpoint, merge — same bytes.
mkdir -p "$WORK/wd2"
WORKER_PIDS=""
for i in 0 1 3; do
  "$SHARD" --mode=worker --log="$WORK/answers.log" --shards=4 \
      --shard_index="$i" --workdir="$WORK/wd2" --method=ZC \
      --barrier_interval=100 --checkpoint_every=100 \
      > "$WORK/wd2/worker$i.out" 2>&1 &
  WORKER_PIDS="$WORKER_PIDS $!"
done
crash_exit=0
"$SHARD" --mode=worker --log="$WORK/answers.log" --shards=4 \
    --shard_index=2 --workdir="$WORK/wd2" --method=ZC \
    --barrier_interval=100 --checkpoint_every=100 --crash_after=250 \
    > "$WORK/wd2/worker2_crash.out" 2>&1 || crash_exit=$?
[ "$crash_exit" = 7 ] \
    || fail "injected crash exited $crash_exit, wanted 7"
ls "$WORK/wd2" | grep -q '^worker2_[0-9]*\.json$' \
    || fail "crashed worker left no checkpoint behind"
"$SHARD" --mode=worker --log="$WORK/answers.log" --shards=4 \
    --shard_index=2 --workdir="$WORK/wd2" --method=ZC \
    --barrier_interval=100 --checkpoint_every=100 --resume \
    > "$WORK/wd2/worker2_resume.out" 2>&1 \
    || fail "restarted worker failed (log in $WORK/wd2/worker2_resume.out)"
for pid in $WORKER_PIDS; do
  wait "$pid" || fail "a surviving worker failed (logs in $WORK/wd2)"
done
WORKER_PIDS=""
grep -q "restored" "$WORK/wd2/worker2_resume.out" \
    || fail "restarted worker did not report restoring a checkpoint"
"$SHARD" --mode=merge --log="$WORK/answers.log" --shards=4 \
    --workdir="$WORK/wd2" --method=ZC --output="$WORK/crashed.csv" \
    --workers_output="$WORK/crashed_workers.csv" > /dev/null
cmp "$WORK/single.csv" "$WORK/crashed.csv" \
    || fail "kill-and-restart truth differs from the single replay"
cmp "$WORK/workers1.csv" "$WORK/crashed_workers.csv" \
    || fail "kill-and-restart worker qualities differ"

# Assertion 5: the per-shard metric families are exported and well-formed.
mkdir -p "$WORK/ckpt2"
"$STREAM" --log="$WORK/answers.log" --shards=4 --method=ZC \
    --resync_interval=100 --checkpoint_every=200 \
    --checkpoint_dir="$WORK/ckpt2" --output="$WORK/metrics_run.csv" \
    --metrics_out="$WORK/shard_metrics.prom" > /dev/null
python3 tools/check_metrics_exposition.py "$WORK/shard_metrics.prom" \
    --require crowdtruth_shard_barriers_total \
              crowdtruth_shard_summary_bytes_total \
              crowdtruth_shard_checkpoints_total \
              crowdtruth_shard_checkpoint_seconds \
              crowdtruth_shard_barrier_wait_seconds \
              crowdtruth_process_peak_rss_bytes

# Assertion 6: fault-schedule determinism. Two runs with the same
# CROWDTRUTH_BUGGIFY_SEED must report byte-identical fault logs, and the
# faulty runs must still produce the single-engine truth bytes — at 1 and
# 4 shards (--checkpoint_every keeps even 1 shard on the coordinator).
for shards in 1 4; do
  for run in A B; do
    mkdir -p "$WORK/bg$run$shards"
    CROWDTRUTH_BUGGIFY_SEED=11 CROWDTRUTH_BUGGIFY_ACTIVATE=100 \
    CROWDTRUTH_BUGGIFY_FIRE=30 \
    "$STREAM" --log="$WORK/answers.log" --shards="$shards" --method=ZC \
        --resync_interval=100 --checkpoint_every=100 \
        --checkpoint_dir="$WORK/bg$run$shards" \
        --output="$WORK/bg$run$shards/truth.csv" \
        --json_out="$WORK/bg$run$shards/report.json" > /dev/null \
        || fail "buggify sharded run $run ($shards shards) failed"
    python3 -c 'import json, sys
faults = json.load(open(sys.argv[1]))["buggify_faults"]
print("\n".join(faults + ["total %d" % len(faults)]))' \
        "$WORK/bg$run$shards/report.json" > "$WORK/bg$run$shards/faults.log"
  done
  cmp "$WORK/bgA$shards/faults.log" "$WORK/bgB$shards/faults.log" \
      || fail "fault logs differ across identical runs ($shards shards)"
  cmp "$WORK/single.csv" "$WORK/bgA$shards/truth.csv" \
      || fail "buggify run truth differs from fault-free replay ($shards shards)"
done

echo "shard e2e: all assertions passed"
