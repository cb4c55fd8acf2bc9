#!/usr/bin/env bash
# Paired performance gate. Runs the eval-full benchmark in two checkouts,
# alternating which goes first, and fails when HEAD is reliably slower:
#
#   bash .github/perfgate.sh BASE_DIR HEAD_DIR
#
# Each pair runs `bash benchmark/run.sh --workload eval-full --seed 1
# --seconds RUN_SECONDS --trace 0` once in each checkout, back to back, so
# host drift lands on both sides of a pair. The gate fires when HEAD loses
# at least MIN_LOSSES of the PAIRS pairs AND the median of the per-pair
# ratios HEAD/base is more than MAX_DROP below 1. Any run that exits
# non-zero, reports correct:false or reports failed>0 fails the gate
# outright.
#
# The rule was set from null runs of one tree against a copy of itself on a
# 2-vCPU host: over 50 pairs the per-pair ratio ranged 0.70-1.22 and no run
# fired, while a ~15% slowdown fired on all five runs (README, "Measuring
# speed").
set -euo pipefail

PAIRS=10
RUN_SECONDS=10
MIN_LOSSES=7
MAX_DROP=0.08

if [ $# -ne 2 ]; then
  echo "usage: $0 BASE_DIR HEAD_DIR" >&2
  exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run DIR FILE: one benchmark run; its stdout (a JSON line last) goes to FILE.
run() {
  if ! (cd "$1" && bash benchmark/run.sh --workload eval-full --seed 1 \
      --seconds "$RUN_SECONDS" --trace 0) > "$2" 2> "$2.err"; then
    echo "perfgate: benchmark run in $1 failed:" >&2
    cat "$2.err" >&2
    exit 1
  fi
}

for i in $(seq 1 "$PAIRS"); do
  if [ $((i % 2)) -eq 1 ]; then
    run "$base" "$out/base.$i"
    run "$head" "$out/head.$i"
  else
    run "$head" "$out/head.$i"
    run "$base" "$out/base.$i"
  fi
done

python3 - "$out" "$PAIRS" "$MIN_LOSSES" "$MAX_DROP" <<'PY'
import json, statistics, sys

out, pairs, min_losses, max_drop = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4])

def cells_per_s(path):
    res = json.loads(open(path).read().strip().splitlines()[-1])
    if not res.get('correct') or res.get('failed', 0) > 0:
        sys.exit(f'perfgate: {path}: correct={res.get("correct")} failed={res.get("failed")}')
    return res['metrics']['cells_per_s']['value']

base = [cells_per_s(f'{out}/base.{i}') for i in range(1, pairs + 1)]
head = [cells_per_s(f'{out}/head.{i}') for i in range(1, pairs + 1)]
ratios = [h / b for b, h in zip(base, head)]
losses = sum(r < 1 for r in ratios)
for i, (b, h, r) in enumerate(zip(base, head, ratios), 1):
    print(f'pair {i:2d}: base {b:8.2f}  head {h:8.2f}  head/base {r:.3f}')
q1, _, q3 = statistics.quantiles(base, n=4)
ratio = statistics.median(ratios)
print(f'base median {statistics.median(base):.2f} cells/s (IQR {q3 - q1:.2f}), '
      f'head median {statistics.median(head):.2f} cells/s, '
      f'median pair ratio {ratio:.3f}, head lost {losses}/{pairs} pairs')
if losses >= min_losses and ratio < 1 - max_drop:
    sys.exit(f'perfgate: FAIL: head lost {losses}/{pairs} pairs (limit {min_losses - 1}) '
             f'and is {100 * (1 - ratio):.1f}% slower in the median pair (limit {100 * max_drop:.0f}%)')
print('perfgate: pass')
PY
