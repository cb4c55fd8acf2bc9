#!/usr/bin/env bash
# Paired performance gate. Runs one benchmark workload (eval-full unless a
# third argument names another) in two checkouts, alternating which goes
# first, and fails when HEAD is reliably slower or reliably uses more
# memory:
#
#   bash .github/perfgate.sh BASE_DIR HEAD_DIR [WORKLOAD]
#
# Each pair runs `bash benchmark/run.sh --workload WORKLOAD --seed 1
# --seconds RUN_SECONDS --trace 0` once in each checkout, back to back, so
# host drift lands on both sides of a pair. The speed rule fires when HEAD
# has lower cells_per_s in at least MIN_LOSSES of the PAIRS pairs AND the
# median of the per-pair ratios HEAD/base is more than MAX_DROP below 1.
# The memory rule reads peak_rss_mb from the same runs and fires when HEAD
# has higher peak RSS in at least MIN_LOSSES pairs AND the median per-pair
# ratio HEAD/base is above 1 + MAX_RSS_GROWTH (BENCHMARK.json's bound for
# peak_rss_mb). Any run that exits non-zero, reports correct:false or
# reports failed>0 fails the gate outright.
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
MAX_RSS_GROWTH=0.10

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
  echo "usage: $0 BASE_DIR HEAD_DIR [WORKLOAD]" >&2
  exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
workload=${3:-eval-full}
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run DIR FILE: one benchmark run; its stdout (a JSON line last) goes to FILE.
run() {
  if ! (cd "$1" && bash benchmark/run.sh --workload "$workload" --seed 1 \
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

python3 - "$out" "$PAIRS" "$MIN_LOSSES" "$MAX_DROP" "$MAX_RSS_GROWTH" <<'PY'
import json, statistics, sys

out, pairs, min_losses = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
max_drop, max_rss_growth = float(sys.argv[4]), float(sys.argv[5])

def metrics(path):
    res = json.loads(open(path).read().strip().splitlines()[-1])
    if not res.get('correct') or res.get('failed', 0) > 0:
        sys.exit(f'perfgate: {path}: correct={res.get("correct")} failed={res.get("failed")}')
    return res['metrics']

base = [metrics(f'{out}/base.{i}') for i in range(1, pairs + 1)]
head = [metrics(f'{out}/head.{i}') for i in range(1, pairs + 1)]

# compare prints the pairs of one metric and returns the median per-pair
# ratio HEAD/base and the number of pairs HEAD is worse in.
def compare(name, unit, worse):
    b = [m[name]['value'] for m in base]
    h = [m[name]['value'] for m in head]
    ratios = [y / x for x, y in zip(b, h)]
    for i, (x, y, r) in enumerate(zip(b, h, ratios), 1):
        print(f'{name} pair {i:2d}: base {x:8.2f}  head {y:8.2f}  head/base {r:.3f}')
    q1, _, q3 = statistics.quantiles(b, n=4)
    ratio = statistics.median(ratios)
    losses = sum(worse(r) for r in ratios)
    print(f'{name}: base median {statistics.median(b):.2f} {unit} (IQR {q3 - q1:.2f}), '
          f'head median {statistics.median(h):.2f} {unit}, '
          f'median pair ratio {ratio:.3f}, head worse in {losses}/{pairs} pairs')
    return ratio, losses

fails = []
ratio, losses = compare('cells_per_s', 'cells/s', lambda r: r < 1)
if losses >= min_losses and ratio < 1 - max_drop:
    fails.append(f'head lost {losses}/{pairs} speed pairs (limit {min_losses - 1}) '
                 f'and is {100 * (1 - ratio):.1f}% slower in the median pair (limit {100 * max_drop:.0f}%)')
ratio, losses = compare('peak_rss_mb', 'MB', lambda r: r > 1)
if losses >= min_losses and ratio > 1 + max_rss_growth:
    fails.append(f'head used more memory in {losses}/{pairs} pairs (limit {min_losses - 1}) '
                 f'and {100 * (ratio - 1):.1f}% more in the median pair (limit {100 * max_rss_growth:.0f}%)')
if fails:
    sys.exit('perfgate: FAIL: ' + '; '.join(fails))
print('perfgate: pass')
PY
