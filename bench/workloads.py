"""The benchmark's workloads: their inputs, their operations and the checks.

Every quiver set below is fixed up to isomorphism.  The workload seed draws
what varies between runs: the vertex labels and arrow order of each quiver
file, and the order of the queries.  Relabelling changes the basis order of
the algebra and so the pivots of every elimination, which moves a query's
time by up to about 30%; drawing the isomorphism classes themselves from the
seed was tried and rejected, because the per-query cost is heavy-tailed (from
0.01 s to 9 s within E7 and D8) and random class samples of a size that fits
in one run moved p90 latency by 20-50% from seed to seed.

Within each (family, rank, arrow count) stratum the classes are taken in the
order of the SHA-256 digest of their canonical form, so the selection does
not depend on enumeration order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from dataclasses import dataclass

# Quivers in a supported class whose algebra build by truncated closure fails
# ("graded layer vanished below a nonzero layer").  The D8 quiver is the one
# quoted in ROADMAP.md; the two D9 quivers are the only failures of a GF(5)
# build over the whole D9 class (2704 quivers).  The traced pass of hh-closed
# queries them, so a fix shows in its fail_ratio; they stay out of the timed
# loop, which takes only workloads on which no query fails, and out of the
# untraced runs, because the two D9 queries take 7 s each.
PINNED = (
    ("D", 8, ((1, 8), (8, 4), (4, 5), (5, 3), (3, 6), (6, 2), (2, 7), (7, 1),
              (5, 8), (6, 5), (7, 6), (8, 7))),
    ("D", 9, ((1, 5), (2, 6), (3, 7), (4, 9), (5, 8), (6, 4), (6, 7), (7, 2),
              (7, 8), (8, 3), (8, 9), (9, 5), (9, 6))),
    ("D", 9, ((2, 6), (3, 7), (4, 9), (5, 1), (5, 8), (6, 4), (6, 7), (7, 2),
              (7, 8), (8, 3), (8, 9), (9, 5), (9, 6))),
)

# Classes per arrow count.  hh-closed: 110 queries and about 19 s per pass on
# 2 cores, so that a 25 s run holds one whole pass and p90 has at least ten
# queries above it.  E7 with 11 arrows (6 of 416 classes, about 5 s each) and D8 with
# 12 arrows (2 of 810, up to 9 s) are left out and the heavy strata thinned.  oracle-deep: proportional to the class sizes, 180 quivers plus
# the oriented 3- to 9-cycles.
HH_CLOSED_DESIGN = {
    ("E", 7): {6: 20, 7: 23, 8: 12, 9: 6, 10: 2},
    ("D", 8): {7: 10, 8: 18, 9: 12, 10: 6, 11: 1},
}
ORACLE_DESIGN = {
    ("A", 7): {6: 12, 7: 26, 8: 11, 9: 1},
    ("D", 8): {7: 15, 8: 45, 9: 34, 10: 28, 11: 7, 12: 1},
}
CYCLE_ORDERS = range(3, 10)
ORACLE_CHARS = (2, 3, 5)
ORACLE_MAX_I = 16
HH_CHAR = 2
HH_MAX_I = 8                    # the default of `cthh hh`
VERIFY_CHARS = (2, 3, 5, 0)
VERIFY_MAX_I = 8
VERIFY_SAMPLE = 40              # quivers per sweep, by canonical digest
CHECK_PRIME = 1000003           # field for the GF(p) builds of the check route


@dataclass
class Query:
    """One CLI call and what its answer is checked against."""

    argv: list
    quiver: object              # the relabelled cthh Quiver written to the file
    family: str
    rank: int
    char: int
    max_i: int


@dataclass
class Plan:
    """What set-up produced: the queries, or for verify-D7 the quivers per sweep."""

    queries: list
    pinned: list
    class_size: int = 0


def _digest_order(cthh, quivers):
    return sorted(quivers, key=lambda q: hashlib.sha256(cthh.canonical_form(q)).hexdigest())


def _select(cthh, family, rank, per_arrows, exclude):
    members = cthh.enumerate_class(cthh.dynkin_seed(family, rank))
    chosen = []
    for arrows, count in sorted(per_arrows.items()):
        stratum = [q for q in members if len(q.arrows) == arrows
                   and cthh.canonical_form(q) not in exclude]
        if len(stratum) < count:
            raise ValueError(f"{family}{rank}: only {len(stratum)} classes with {arrows} arrows")
        chosen.extend(_digest_order(cthh, stratum)[:count])
    return chosen


def _relabel(cthh, rng, q):
    perm = list(range(1, q.vertex_count + 1))
    rng.shuffle(perm)
    arrows = [(perm[s - 1], perm[t - 1]) for s, t in q.arrows]
    rng.shuffle(arrows)
    return cthh.Quiver(q.vertex_count, tuple(arrows))


def _interleave(rng, queries):
    """A seeded order in which every prefix holds each (family, rank, arrow
    count) stratum in about its share of the whole, so that a run which ends
    inside a pass still measures the designed mix."""
    strata = {}
    for q in queries:
        strata.setdefault((q.family, q.rank, len(q.quiver.arrows)), []).append(q)
    keyed = []
    for members in strata.values():
        rng.shuffle(members)
        offset = rng.random()
        keyed += [((j + offset) / len(members), rng.random(), q) for j, q in enumerate(members)]
    keyed.sort(key=lambda item: item[:2])
    return [q for _, _, q in keyed]


def _write(path, q):
    doc = {"vertices": q.vertex_count, "arrows": [list(a) for a in q.arrows]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _oriented_cycle(cthh, n):
    return cthh.Quiver.make(n, [(i, i % n + 1) for i in range(1, n + 1)])


def _pinned_quivers(cthh):
    return [(f, r, cthh.Quiver.make(r, arrows)) for f, r, arrows in PINNED]


def setup(cthh, workload, seed, workdir):
    """Enumerate, select, relabel and write the quiver files of one workload."""
    rng = random.Random(seed)
    if workload == "verify-D7":
        size = len(cthh.enumerate_class(cthh.dynkin_seed("D", 7)))
        return Plan([], [], class_size=min(VERIFY_SAMPLE, size))

    pinned = _pinned_quivers(cthh)
    exclude = {cthh.canonical_form(q) for _, _, q in pinned}
    items = []                  # (family, rank, quiver, char, max_i, command)
    if workload == "hh-closed":
        for (family, rank), per_arrows in HH_CLOSED_DESIGN.items():
            for q in _select(cthh, family, rank, per_arrows, exclude):
                items.append((family, rank, q, HH_CHAR, HH_MAX_I, "hh"))
    elif workload == "oracle-deep":
        fixed = [("cycle", n, _oriented_cycle(cthh, n)) for n in CYCLE_ORDERS]
        for (family, rank), per_arrows in ORACLE_DESIGN.items():
            fixed += [(family, rank, q) for q in _select(cthh, family, rank, per_arrows, exclude)]
        for k, (family, rank, q) in enumerate(fixed):
            items.append((family, rank, q, ORACLE_CHARS[k % len(ORACLE_CHARS)],
                          ORACLE_MAX_I, "hh-oracle"))
    else:
        raise ValueError(f"unknown workload {workload!r}")

    def query(name, family, rank, q, char, max_i, command):
        path = os.path.join(workdir, f"{name}.json")
        _write(path, q)
        argv = [command, path, "--char", str(char), "--max-i", str(max_i), "--json"]
        return Query(argv, q, family, rank, char, max_i)

    queries = [query(f"q{k:03d}", family, rank, _relabel(cthh, rng, q), char, max_i, command)
               for k, (family, rank, q, char, max_i, command) in enumerate(items)]
    queries = _interleave(rng, queries)
    probes = []
    if workload == "hh-closed":
        for k, (family, rank, q) in enumerate(pinned):
            probes.append(query(f"pinned{k}", family, rank, q, HH_CHAR, HH_MAX_I, "hh"))
    return Plan(queries, probes)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def reset_caches():
    """Empty the package's in-process caches, as a fresh `cthh` process has them."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "cthh" or name.startswith("cthh.")):
            continue
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def call_cli(cthh, argv):
    """Run one `cthh` command in-process; returns (exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cthh.cli.main(argv)
    except Exception as exc:  # a crash is a failed query, not a failed benchmark
        return None, "", f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue().strip()


# ---------------------------------------------------------------------------
# Checks against the other route (never inside a timed interval)
# ---------------------------------------------------------------------------

def _series_without_qq_build(cthh, q, family):
    """The closed-form series from a route that never builds the algebra over QQ."""
    if family == "A":
        return cthh.hh_type_A(q)
    if family == "cycle":
        return cthh.HSeries.of(q.vertex_count)
    if family == "D":
        try:
            return cthh.classify_D(q).series()
        except cthh.errors.UnclassifiedDError:
            pass
    alg = cthh.build_algebra(q, cthh.generate_relations(q), cthh.FieldSpec(CHECK_PRIME))
    cd = cthh.cartan(alg)
    if family == "E":
        return cthh.lookup_E(cd.assoc_poly)
    return cthh.series.series_from_invariants(cthh.hh1_dim(alg), cd.det)


def check_query(cthh, query, stdout):
    """None if a successful query's output matches the other route, else a message."""
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return f"unparsable output {stdout[:80]!r}"
    h = _series_without_qq_build(cthh, query.quiver, query.family)
    field = cthh.FieldSpec(query.char)
    expected = [cthh.hh_dim(h, i, field) for i in range(query.max_i + 1)]
    if doc.get("dims") != expected:
        return f"dims {doc.get('dims')} != {expected} ({h})"
    if query.argv[0] == "hh" and doc.get("family") != f"{query.family}{query.rank}":
        return f"family {doc.get('family')} != {query.family}{query.rank}"
    return None
