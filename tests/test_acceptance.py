"""Acceptance suite: every numbered criterion below runs at its stated
(zero) tolerance and prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete; the heavy sweeps run on `verify_suite`'s default worker pool.
"""

import time

from conftest import (E_TABLE_ROWS, cached_algebra, mutation_class, quiver_from_canonical,
                      sample_by_canonical, universal_params)
from cthh.algebra import cartan
from cthh.classify import classify_D, hh_closed_form
from cthh.fields import QQ, GF2, GF3, GF5, GF7, FieldSpec
from cthh.oracle import hh1_dim, hh_dims
from cthh.quiver import Quiver, oriented_triangle_count
from cthh.series import HSeries, f_coeff, hh_dim
from cthh.verify import verify_suite


def announce(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:>2}: {status} - {detail}", flush=True)
    assert passed, f"criterion {num}: {detail}"


def oriented_cycle(n):
    return Quiver.make(n, [(i, i % n + 1) for i in range(1, n + 1)])


def expand(h: HSeries, max_i: int, fs: FieldSpec):
    return tuple(hh_dim(h, i, fs) for i in range(max_i + 1))


def test_criterion_01_type_a_exhaustive():
    t0 = time.time()
    fields = [GF2, GF3, QQ]
    checked = 0
    ok = True
    for rank in range(2, 8):
        report = verify_suite("A", rank, fields, max_i=8)
        ok = ok and report.passed
        for rec in report.records:
            q = quiver_from_canonical(rec.canonical)
            t = oriented_triangle_count(q)
            for fname, dims in rec.oracle_dims:
                fs = next(f for f in fields if str(f) == fname)
                want = tuple(1 if i == 0 else t * f_coeff(3, i, fs) for i in range(9))
                if dims != want:
                    ok = False
            checked += 1
    elapsed = time.time() - t0
    announce(1, ok and elapsed < 900,
             f"A2..A7, {checked} quivers x {len(fields)} fields, oracle = t*f_3, {elapsed:.0f}s")


def test_criterion_02_hh2_vanishes_everywhere():
    t0 = time.time()
    scope = (
        [("A", r) for r in range(2, 7)]
        + [("D", r) for r in (4, 5, 6)]
        + [("E", 6)]
    )
    fields = [GF2, GF3, GF5, GF7, QQ]
    count = 0
    ok = True
    for fam, rank in scope:
        for q in mutation_class(fam, rank):
            for fs in fields:
                dims = hh_dims(cached_algebra(q, fs.characteristic), [fs], max_i=2)[0]
                if dims[2] != 0:
                    ok = False
                count += 1
    announce(2, ok, f"HH^2 = 0 on {count} (algebra, field) pairs, {time.time()-t0:.0f}s")


def test_criterion_03_type_d_universal():
    t0 = time.time()
    fields = [GF2, GF3, GF5, QQ]
    checked = 0
    subtype_checked = 0
    ok = True
    for rank, sample in ((4, None), (5, None), (6, None), (7, 30)):
        report = verify_suite("D", rank, fields, max_i=8, sample=sample)
        # check_quiver enforces oracle == universal == closed form exactly
        ok = ok and report.passed
        checked += len(report.records)
        for rec in report.records:
            q = quiver_from_canonical(rec.canonical)
            params = classify_D(q)
            subtype_checked += 1
            for fname, dims in rec.oracle_dims:
                fs = next(f for f in fields if str(f) == fname)
                if dims != expand(params.series(), 8, fs):
                    ok = False
    elapsed = time.time() - t0
    announce(3, ok,
             f"D4..D6 exhaustive + 30 of D7, {checked} quivers, typed/universal/oracle agree "
             f"({subtype_checked} subtype matches), {elapsed:.0f}s")


def test_criterion_04_characteristic_sensitivity():
    d2 = hh_dims(cached_algebra(oriented_cycle(3), 2), [GF2], max_i=3)[0]
    d3 = hh_dims(cached_algebra(oriented_cycle(3), 3), [GF3], max_i=3)[0]
    d0 = hh_dims(cached_algebra(oriented_cycle(3), 0), [QQ], max_i=3)[0]
    ok = d2[3] == 1 and d3[3] == 0 and d0[3] == 0
    announce(4, ok, f"3-cycle: dim HH^3 = {d2[3]} over GF(2), {d3[3]} over GF(3), {d0[3]} over QQ")


def test_criterion_05_truncated_cycle_periodicity():
    t0 = time.time()
    ok = True
    for n in (4, 5):
        for char in (2, 5):
            a = cached_algebra(oriented_cycle(n), char)
            dims = hh_dims(a, [a.field], max_i=2 * n + 4)[0]
            for i in range(1, 5):
                if dims[i] != dims[i + 2 * n]:
                    ok = False
    elapsed = time.time() - t0
    announce(5, ok and elapsed < 600,
             f"oriented 4- and 5-cycle dims have period 2n over GF(2), GF(5), {elapsed:.0f}s")


def test_criterion_06_type_e_table_membership():
    t0 = time.time()
    ok = True
    # E6: exhaustive, all six rows realized
    rows6 = {poly for poly, _ in E_TABLE_ROWS[6]}
    seen6 = set()
    for q in mutation_class("E", 6):
        poly = cartan(cached_algebra(q, 0)).assoc_poly
        if poly not in rows6:
            ok = False
        seen6.add(poly)
    if seen6 != rows6:
        ok = False
    # E7, E8: 50-quiver deterministic samples stay inside the table
    hits = {}
    for rank in (7, 8):
        rows = {poly for poly, _ in E_TABLE_ROWS[rank]}
        cls = sample_by_canonical(mutation_class("E", rank), 50)
        found = set()
        for q in cls:
            poly = cartan(cached_algebra(q, 0)).assoc_poly
            if poly not in rows:
                ok = False
            found.add(poly)
        hits[rank] = len(found)
    announce(6, ok,
             f"E6 exhaustive: 6/6 rows realized; E7/E8 samples of 50 inside the "
             f"14/15-row tables ({hits[7]}, {hits[8]} rows hit), {time.time()-t0:.0f}s")


def test_criterion_07_type_e_oracle_spot_check():
    t0 = time.time()
    reps = {}
    for q in mutation_class("E", 6):
        poly = cartan(cached_algebra(q, 0)).assoc_poly
        reps.setdefault(poly, q)
    ok = len(reps) == 6
    for poly, h in E_TABLE_ROWS[6]:
        q = reps[poly]
        for fs in (GF2, GF3, GF5):
            dims = hh_dims(cached_algebra(q, fs.characteristic), [fs], max_i=6)[0]
            if dims != expand(h, 6, fs):
                ok = False
    elapsed = time.time() - t0
    announce(7, ok and elapsed < 1800,
             f"one oracle run per E6 row x GF(2),GF(3),GF(5) matches the type-E table, {elapsed:.0f}s")


def test_criterion_08_table_internal_consistency():
    ok = True
    for rank, rows in E_TABLE_ROWS.items():
        for poly, h in rows:
            lead, const = poly[-1], poly[0]
            params = universal_params(h)
            want = 1 if params is None else (1 << params[1]) * (params[0] - 1)
            if lead != want or abs(const) != want:
                ok = False
            rev = tuple(reversed(poly))
            expect = poly if rank % 2 == 0 else tuple(-c for c in poly)
            if rev != expect:
                ok = False
    announce(8, ok, "all 35 rows: lead = |const| = 2^t (n-1) and x^N p(1/x) = (-1)^N p(x)")


def test_criterion_09_invariant_pair_equivalence():
    t0 = time.time()
    fields = [GF2, GF3, GF5, QQ]
    ok = True
    npairs = 0
    scope = (
        [("A", r) for r in range(2, 8)]
        + [("D", r) for r in (4, 5, 6)]
        + [("E", 6)]
    )
    for fam, rank in scope:
        data = []
        for q in mutation_class(fam, rank):
            a = cached_algebra(q, 0)
            hh1, cd = hh1_dim(a), cartan(a)
            key = (hh1, cd.det)
            h, _ = hh_closed_form(q, fam, hh1, cd)
            stream = tuple(expand(h, 12, fs) for fs in fields)
            data.append((key, stream))
        for i in range(len(data)):
            for j in range(i + 1, len(data)):
                npairs += 1
                if (data[i][0] == data[j][0]) != (data[i][1] == data[j][1]):
                    ok = False
    announce(9, ok,
             f"(dim HH^1, det C) agree iff dim streams agree (i <= 12, 4 fields) "
             f"on {npairs} pairs, {time.time()-t0:.0f}s")


def test_criterion_10_h_not_complete_beyond_type_a():
    f3_polys = {
        (2, 0, -4, 8, -4, 0, 2),   # 2(x^6 - 2x^4 + 4x^3 - 2x^2 + 1)
        (2, 0, -2, 4, -2, 0, 2),   # 2(x^6 - x^4 + 2x^3 - x^2 + 1)
    }
    found = {}
    for q in mutation_class("E", 6):
        a = cached_algebra(q, 0)
        poly = cartan(a).assoc_poly
        if poly in f3_polys:
            found.setdefault(poly, q)
    ok = len(found) == 2
    if ok:
        hs = set()
        for q in found.values():
            a = cached_algebra(q, 0)
            hs.add(hh_closed_form(q, "E", hh1_dim(a), cartan(a))[0])
        ok = hs == {HSeries.of(3)}
    announce(10, ok,
             "two E6 quivers share h = f_3 but have distinct associated polynomials")


def test_criterion_11_property_suites():
    from test_properties import (
        check_associativity,
        check_canonical_relabeling,
        check_cartan_field_independence,
        check_mutation_involution,
        check_resolution_exactness,
        scope_quivers,
    )

    t0 = time.time()
    quivers = scope_quivers()
    check_mutation_involution(quivers)
    check_canonical_relabeling(sample_by_canonical(quivers, 12), permutations=100)
    for q, char, length in (
        (oriented_cycle(3), 2, 8),
        (oriented_cycle(4), 3, 6),
        (Quiver.make(4, [(1, 2), (2, 3), (3, 1), (2, 4), (4, 1)]), 0, 6),
    ):
        check_resolution_exactness(cached_algebra(q, char), length)
    for q in sample_by_canonical(quivers, 40):
        check_associativity(cached_algebra(q, 0))
        check_cartan_field_independence(q)
    announce(11, True,
             f"involution, canonical invariance, exactness, associativity, "
             f"Cartan field-independence on the property scope, {time.time()-t0:.0f}s")
