#!/usr/bin/env bash
# Run every workload untraced once per seed, plus one traced run each, and
# save each run's output under OUTDIR for bench/compare.py.
#
#   bash bench/sweep.sh OUTDIR [SEED ...]      (seeds default to 1..10)
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:?usage: bash bench/sweep.sh OUTDIR [SEED ...]}
shift
seeds=("$@")
[ ${#seeds[@]} -gt 0 ] || seeds=(1 2 3 4 5 6 7 8 9 10)
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
mkdir -p "$out"
for w in verify-D7 hh-closed oracle-deep; do
    for s in "${seeds[@]}"; do
        python3 bench/run.py --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 \
            > "$out/$w-t0-s$s.txt"
    done
    python3 bench/run.py --workload "$w" --seed "${seeds[0]}" --seconds "$seconds" --trace 1 \
        > "$out/$w-t1-s${seeds[0]}.txt"
done
python3 bench/compare.py "$out"
