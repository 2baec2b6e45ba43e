#!/usr/bin/env bash
# Regenerates every observability output pinned in ci/observability/.
#
#   ci/observability.sh <bin-dir> <out-dir>
#
# <bin-dir> holds release builds of `eim` and `eim-bench`. Each `eim` run
# writes its Prometheus dump (.prom), Chrome trace (.trace.json), snapshot
# stream (.jsonl) and --json output (.json) into <out-dir>, failed runs
# (the checkpoint kill) included; a run that leaves one of them missing or
# empty fails the script, so an absent file cannot pass the diff. The two
# host-dependent parts are stripped: the snapshot stream's header line
# (toolchain and git provenance) and the JSON `wall_seconds` field.
# `--engine cpu` is left out: its kernel spans are timed with host wall time.
#
# CI compares the result with `diff -r ci/observability <out-dir>`.
# Re-pin with `ci/observability.sh target/release ci/observability`.
set -euo pipefail
bin=$(cd "$1" && pwd)
mkdir -p "$2"
cd "$2"

# eim <name> <expected exit code> <args...>
eim() {
  local name=$1 want=$2
  shift 2
  local code=0
  "$bin/eim" "$@" --metrics "$name.prom" --trace "$name.trace.json" \
    --snapshot-stream "$name.raw.jsonl" --json > "$name.raw.json" || code=$?
  if [ "$code" -ne "$want" ]; then
    echo "$name: exit $code, expected $want" >&2
    exit 1
  fi
  tail -n +2 "$name.raw.jsonl" > "$name.jsonl"
  for f in "$name.prom" "$name.trace.json" "$name.jsonl"; do
    if [ ! -s "$f" ]; then
      echo "$name: $f is missing or empty" >&2
      exit 1
    fi
  done
  python3 - "$name.raw.json" "$name.json" <<'EOF'
import json, sys
out = json.load(open(sys.argv[1]))
out.pop("wall_seconds", None)
with open(sys.argv[2], "w") as f:
    json.dump(out, f, indent=1, sort_keys=True)
    f.write("\n")
EOF
  rm "$name.raw.jsonl" "$name.raw.json"
}

eim wv 0 --dataset WV --scale 0.01 --k 3 --eps 0.4 --seed 11
eim se-multigpu-lt 0 --dataset SE --scale 0.05 --model lt --engine multigpu --devices 4
eim faulted-retry 0 --dataset WV --scale 0.02 --k 3 --eps 0.3 --seed 9 \
  --inject-faults "seed=42,kernel=0.5,transfer=0.1" --recovery retry --max-retries 8
LOSS="--dataset WV --scale 0.03 --k 8 --eps 0.3 --seed 11 --engine multigpu --devices 4"
eim device-loss 0 $LOSS --inject-faults "seed=3,device_fail=0.01" --recovery retry
rm -rf ckpt
eim ckpt-kill 3 $LOSS --checkpoint ckpt --ckpt-kill-after 1
eim ckpt-resume 0 $LOSS --checkpoint ckpt --resume
rm -rf ckpt
eim degrade 0 --dataset WV --scale 0.02 --k 3 --eps 0.35 --seed 11 --device-mem-mb 2 \
  --inject-faults "seed=7,kernel=0.2,pressure=0.95@2:60" --recovery degrade
"$bin/eim-bench" updates --smoke --metrics updates.prom > /dev/null
