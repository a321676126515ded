"""Compare two sets of benchmark runs, or summarise one.

    python3 bench/compare.py BEFORE_DIR [AFTER_DIR]

Each directory holds the saved standard output of runs of bench/run.py, one
file per run.  For every workload and metric the report gives each side's
median and quartiles and the spread (quartile distance over median).  With
two sides it pairs runs by workload and seed and gives:

  wins        runs of AFTER better than their BEFORE pair, ties counting for
              neither;
  verdict     `better` when AFTER wins at least 9 of every 10 pairs and the
              medians differ by more than BEFORE's quartile distance;
              `worse` when AFTER's median is worse than BEFORE's by more than
              the metric's bound; `unresolved` when a side's spread exceeds
              the bound, unless every AFTER run beats every BEFORE run;
              otherwise `within bound`.  Per-layer metrics have no bound and
              get `better`, `worse` by the same pair rule, or `-`.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

SPEC_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def load_runs(directory):
    """{(workload, trace): {seed: (record, result)}} from the saved outputs."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path, encoding="utf-8") as fh:
            lines = [line.rstrip("\n") for line in fh if line.strip()]
        records = [json.loads(line[7:]) for line in lines if line.startswith("record ")]
        if not records or not lines:
            continue
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            continue
        record = records[-1]
        key = (record["workload"], record["trace"])
        runs.setdefault(key, {})[record["seed"]] = (record, result)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def fmt(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}]"


def better(a, b, direction):
    """True if a is better than b."""
    return a < b if direction == "lower" else a > b


def verdict(before, after, pairs, direction, bound):
    wins = sum(1 for b, a in pairs if better(a, b, direction))
    losses = sum(1 for b, a in pairs if better(b, a, direction))
    q1, mb, q3 = quartiles(before)
    ma = quartiles(after)[1]
    gain = abs(ma - mb) > (q3 - q1)
    if pairs and wins >= 0.9 * len(pairs) and gain and better(ma, mb, direction):
        return wins, "better"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and gain:
            return wins, "worse"
        return wins, "-"
    if mb and (ma - mb) / mb * (1 if direction == "lower" else -1) > bound:
        return wins, "worse"
    if spread(before) > bound or spread(after) > bound:
        if all(better(a, b, direction) for a in after for b in before):
            return wins, "better"
        return wins, "unresolved"
    return wins, "within bound"


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(SPEC_PATH, encoding="utf-8") as fh:
        spec = json.load(fh)
    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides = [load_runs(d) for d in argv]
    keys = sorted(set().union(*sides))
    for key in keys:
        workload, trace = key
        per_side = [side.get(key, {}) for side in sides]
        counts = " vs ".join(str(len(s)) for s in per_side)
        print(f"== {workload} (trace {trace}), runs {counts}")
        for s, label in zip(per_side, ("before", "after")):
            if s:
                attempted = sum(r[1]["attempted"] for r in s.values())
                failed = sum(r[1]["failed"] for r in s.values())
                wrong = sum(1 for r in s.values() if not r[1]["correct"])
                print(f"   {label}: {attempted} attempted, {failed} failed, "
                      f"{wrong} runs not correct")
        names = [m for m in metric_spec
                 if any(m in r[1]["metrics"] for s in per_side for r in s.values())]
        for name in names:
            m = metric_spec[name]
            bound = m.get("bound")
            values = [[r[1]["metrics"][name]["value"] for _, r in sorted(s.items())
                       if name in r[1]["metrics"]] for s in per_side]
            if not all(values):
                continue
            line = f"   {name:34s} {m['unit']:8s} {fmt(values[0]):32s}"
            if len(values) == 1:
                sp = spread(values[0])
                flag = ""
                if bound is not None:
                    flag = "over bound" if sp > bound else ("over bound/3" if sp > bound / 3 else "ok")
                print(f"{line} spread {sp:.3f} {flag}")
                continue
            before, after = per_side
            pairs = [(before[seed][1]["metrics"][name]["value"], after[seed][1]["metrics"][name]["value"])
                     for seed in sorted(set(before) & set(after))]
            wins, word = verdict(values[0], values[1], pairs, m["better"], bound)
            print(f"{line} {fmt(values[1]):32s} wins {wins}/{len(pairs)} {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
