"""cthh benchmark: one workload, one run, one JSON result on the last line.

    python3 bench/run.py --workload hh-closed --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  verify-D7    `cthh verify --seed D7 --sample 40 --jobs 1 --chars 2,3,5,0`:
               serial verify_suite sweeps over 40 quivers of the D7 class.
  hh-closed    closed loop, one client: `cthh hh FILE --char 2 --json` on
               E7 and D8 quivers.  The traced pass also queries three
               quivers whose algebra build fails (workloads.PINNED).
  oracle-deep  closed loop, one client: `cthh hh-oracle FILE --char p
               --max-i 16 --json` on oriented cycles, A7 and D8 quivers.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
makes one traced pass over the same operations, writes the spans to
.bench_work/trace-WORKLOAD-SEED.jsonl and reports the per-layer metrics.
Every output is checked against the other route outside the timed intervals.
End-to-end times are in reference seconds (see pace.py): each operation's
wall time scaled by a probe timed after it, so that drift in the shared
host's speed cancels out; the record line gives the raw wall times too.  The program is imported from ./src of the checkout; the run fails
without printing a result if it is not there.

Save the standard output of each run to a file and compare two sets of runs
with `python3 bench/compare.py BEFORE_DIR AFTER_DIR`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pace  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("verify-D7", "hh-closed", "oracle-deep")
SETUP_REPEATS = 3


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def import_cthh():
    """A fresh import of the package from ./src, with empty module state."""
    for name in [n for n in sys.modules if n == "cthh" or n.startswith("cthh.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cthh = importlib.import_module("cthh")
    importlib.import_module("cthh.cli")
    where = os.path.dirname(os.path.abspath(cthh.__file__))
    if where != os.path.join(SRC, "cthh"):
        raise BenchError(f"cthh imported from {where}, not from {SRC}")
    return cthh


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def do_setup(workload, seed):
    """Import, enumerate, select and write the inputs; returns (cthh, plan)."""
    cthh = import_cthh()
    return cthh, workloads.setup(cthh, workload, seed, fresh_dir(os.path.join(WORK, workload)))


def jobs_available():
    return len(os.sched_getaffinity(0))


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 2000):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _beta_cdf(a, b, x):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile of a non-empty list.

    A Beta-weighted mean of all order statistics, centred on rank q(n+1):
    on this heavy-tailed latency data it varies far less from run to run
    than the single order statistic nearest that rank.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    total, prev = 0.0, 0.0
    for i, x in enumerate(ordered, 1):
        cur = _beta_cdf(a, b, i / n)
        total += (cur - prev) * x
        prev = cur
    return total


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


# ---------------------------------------------------------------------------
# Timed phases
# ---------------------------------------------------------------------------

class Outcome:
    """Attempted and failed operations, correctness and the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.messages = []

    def fail(self, message, wrong=False):
        self.failed += 1
        self.correct = self.correct and not wrong
        if len(self.messages) < 5:
            self.messages.append(message)


def query_name(query):
    return f"{query.argv[0]} {os.path.basename(query.argv[1])}"


def check_queries(cthh, results, outcome):
    """Check every answered query against the other route; one check per query."""
    verdicts = {}
    for query, rc, stdout, err in results:
        outcome.attempted += 1
        if rc != 0:
            outcome.fail(f"{query_name(query)}: exit {rc}: {err}")
            continue
        key = id(query)
        if key not in verdicts:
            verdicts[key] = (stdout, workloads.check_query(cthh, query, stdout))
        first, verdict = verdicts[key]
        if stdout != first:
            verdict = "output differs between repeats of the query"
        if verdict is not None:
            outcome.fail(f"{query_name(query)}: {verdict}", wrong=True)


def timed_queries(cthh, queries, seconds, clock):
    """Closed loop with one client: whole passes over the queries while the
    next one is expected to end within `seconds`.

    Whole passes weigh every query alike in every run.  Returns every
    result, the reference latencies, and the reference and wall time of all
    queries.
    """
    results, latencies, wall = [], [], 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for query in queries:
            workloads.reset_caches()
            (rc, stdout, err), dt, ref = clock.time(workloads.call_cli, cthh, query.argv)
            results.append((query, rc, stdout, err))
            latencies.append(ref)
            wall += dt
        t1 = time.perf_counter()
        if (t1 - start) + (t1 - t0) > seconds:
            return results, latencies, math.fsum(latencies), wall


def check_verify(reports, size, outcome):
    """Every sweep has `size` records, all passed, and all sweeps report the same."""
    reference = None
    for report in reports:
        outcome.attempted += max(len(report.records), size)
        for r in report.records:
            if not r.passed:
                outcome.fail(f"FAIL record {r.canonical}: {r.messages[:1]}", wrong=True)
        for _ in range(size - len(report.records)):
            outcome.fail(f"{len(report.records)} records for {size} quivers", wrong=True)
        as_json = json.dumps(report.to_dict())
        if reference is None:
            reference = as_json
        elif as_json != reference:
            outcome.fail("verify reports differ between sweeps", wrong=True)


def verify_sweep(cthh, sample):
    return cthh.verify_suite("D", 7, [cthh.FieldSpec(c) for c in workloads.VERIFY_CHARS],
                             workloads.VERIFY_MAX_I, sample=sample, jobs=1)


def timed_verify(cthh, plan, seconds, clock, outcome):
    """Whole serial sweeps while the next one is expected to end within `seconds`.

    A wrapper around `cthh.verify.check_quiver` times each record and takes
    a probe after it.  The rest of a sweep (enumeration, sorting, the report)
    is scaled by the median probe of that sweep.  Returns the reference
    latencies of the records, and the reference and wall time of the sweeps.
    """
    original = cthh.verify.check_quiver
    latencies, walls = [], []

    def timed_check(*args, **kwargs):
        record, dt, ref = clock.time(original, *args, **kwargs)
        latencies.append(ref)
        walls.append(dt)
        return record

    reports, elapsed, wall = [], 0.0, 0.0
    start = time.perf_counter()
    while True:
        workloads.reset_caches()
        first, probes = len(latencies), len(clock.probes)
        cthh.verify.check_quiver = timed_check
        t0 = time.perf_counter()
        try:
            report = verify_sweep(cthh, plan.class_size)
        except Exception as exc:  # a crashed sweep fails every record
            report = None
            outcome.attempted += plan.class_size
            for _ in range(plan.class_size):
                outcome.fail(f"sweep raised {type(exc).__name__}: {exc}")
        finally:
            cthh.verify.check_quiver = original
        t1 = time.perf_counter()
        if report is not None:
            reports.append(report)
        sweep_probes = clock.probes[probes:]
        rest = (t1 - t0) - math.fsum(walls[first:]) - math.fsum(sweep_probes)
        elapsed += math.fsum(latencies[first:])
        if sweep_probes:
            elapsed += rest * clock.scale(statistics.median(sweep_probes))
        wall += (t1 - t0) - math.fsum(sweep_probes)
        if (t1 - start) + (t1 - t0) > seconds:
            break

    check_verify(reports, plan.class_size, outcome)
    return latencies, elapsed, wall


def run_untraced(workload, seed, seconds):
    clock = pace.Clock()
    setups, setup_walls, cthh, plan = [], [], None, None
    for _ in range(SETUP_REPEATS):
        (cthh, plan), dt, ref = clock.time(do_setup, workload, seed)
        setups.append(ref)
        setup_walls.append(dt)
    outcome = Outcome()
    info = {"jobs": 1, "setup_s_each": setups, "setup_wall_s": statistics.median(setup_walls)}
    if workload == "verify-D7":
        latencies, elapsed, wall = timed_verify(cthh, plan, seconds, clock, outcome)
    else:
        results, latencies, elapsed, wall = timed_queries(cthh, plan.queries, seconds, clock)
        t0 = time.perf_counter()
        check_queries(cthh, results, outcome)
        info["check_s"] = time.perf_counter() - t0
    if not latencies:
        raise BenchError("no operation completed")
    with open(os.path.join(WORK, f"latencies-{workload}-{seed}.json"), "w", encoding="ascii") as fh:
        json.dump(latencies, fh)
    info["latency_samples"] = len(latencies)
    info["beyond_p90_rank"] = len(latencies) - math.ceil(0.9 * len(latencies))
    info["fail_ratio"] = outcome.failed / outcome.attempted
    info["timed_wall_s"] = wall
    info["timed_ref_s"] = elapsed
    info["probes"] = len(clock.probes)
    info["probe_median_s"] = statistics.median(clock.probes)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": (outcome.attempted - outcome.failed) / elapsed,
        "latency_p50_s": quantile(latencies, 0.5),
        "latency_p90_s": quantile(latencies, 0.9),
        "peak_rss_mb": peak_rss_mb(),
    }
    return outcome, metrics, info


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def traced_ops(cthh, workload, plan):
    """The operations of one traced pass, and the number of quivers they cover."""
    if workload == "verify-D7":
        return [lambda: verify_sweep(cthh, plan.class_size)], plan.class_size
    queries = plan.queries + plan.pinned
    return [lambda q=q: (q, *workloads.call_cli(cthh, q.argv)) for q in queries], len(queries)


def run_ops(ops, tracer):
    """Run each operation untraced, then traced under a root span.

    Alternating per operation keeps drift in the machine's speed out of the
    overhead ratio.  Returns (traced results, traced wall, untraced wall).
    """
    results, traced, plain = [], 0.0, 0.0
    for op in ops:
        workloads.reset_caches()
        t0 = time.perf_counter()
        op()
        plain += time.perf_counter() - t0
        workloads.reset_caches()
        tracer.install()
        try:
            idx = tracer.open("op", "bench")
            t0 = time.perf_counter()
            results.append(op())
            traced += time.perf_counter() - t0
            tracer.close(idx)
        finally:
            tracer.uninstall()
    return results, traced, plain


def run_traced(workload, seed):
    cthh = import_cthh()
    setup_tracer = tracing.Tracer()
    setup_tracer.install()
    try:
        plan = workloads.setup(cthh, workload, seed, fresh_dir(os.path.join(WORK, workload)))
    finally:
        setup_tracer.uninstall()

    ops, quivers = traced_ops(cthh, workload, plan)
    tracer = tracing.Tracer()
    results, traced_wall, plain_wall = run_ops(ops, tracer)

    outcome = Outcome()
    if workload == "verify-D7":
        check_verify(results, plan.class_size, outcome)
    else:
        check_queries(cthh, results, outcome)

    metrics = tracing.layer_metrics(tracer, quivers)
    metrics["quiver.enumerate_class_s"] = sum(
        end - start for name, _, _, start, end, _, _ in setup_tracer.spans if name == "enumerate_class")
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    metrics["fail_ratio"] = outcome.failed / outcome.attempted
    tracer.write_jsonl(os.path.join(WORK, f"trace-{workload}-{seed}.jsonl"))
    info = {"jobs": 1, "traced_ops": len(ops), "quivers": quivers,
            "traced_wall_s": traced_wall, "untraced_wall_s": plain_wall}
    return outcome, metrics, info


# ---------------------------------------------------------------------------
# Run record and output
# ---------------------------------------------------------------------------

def git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def line_count(directory):
    total = 0
    for dirpath, _, files in os.walk(directory):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    total += sum(1 for _ in fh)
    return total


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description="cthh benchmark (one run of one workload)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cthh", "__init__.py")):
        print(f"bench: no cthh package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    try:
        if args.trace:
            outcome, metrics, info = run_traced(args.workload, args.seed)
        else:
            outcome, metrics, info = run_untraced(args.workload, args.seed, args.seconds)
        spec = load_spec()["per_layer" if args.trace else "end_to_end"]
        if set(metrics) != {m["name"] for m in spec}:
            raise BenchError(f"metrics {sorted(set(metrics) ^ {m['name'] for m in spec})} "
                             "do not match BENCHMARK.json")
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "nproc": jobs_available(),
        "python": platform.python_version(),
        "src_lines": line_count(os.path.join(SRC, "cthh")),
        "test_lines": line_count(os.path.join(ROOT, "tests")),
        **info,
    }
    print("record " + json.dumps(record, sort_keys=True))
    for message in outcome.messages:
        print(f"failure: {message}")
    print(f"attempted {outcome.attempted}, failed {outcome.failed}, correct {outcome.correct}")
    result = {}
    for m in spec:
        result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:36s} {metrics[m['name']]:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
