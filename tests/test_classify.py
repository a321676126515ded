"""Closed-form classification: type A counts, type D patterns, the E table,
and the universal (HH^1, det C) route."""

import json
from collections import Counter
from importlib import resources

import pytest

import cthh.classify
from conftest import E_TABLE_ROWS, cached_algebra, classify_D_reference, mutation_class
from cthh.algebra import CartanData, cartan
from cthh.classify import (
    DTypeParams,
    classify_D,
    hh_closed_form,
    hh_type_A,
    lookup_E,
)
from cthh.cli import main as cli_main
from cthh.errors import ClosedFormMismatchError, NotInTableError, UnclassifiedDError
from cthh.fields import QQ
from cthh.oracle import hh1_dim
from cthh.quiver import Quiver, canonical_form, detect_dynkin, dynkin_seed
from cthh.series import HSeries, parse_h, series_from_invariants
from cthh.verify import verify_suite


def oriented_cycle(n):
    return Quiver.make(n, [(i, i % n + 1) for i in range(1, n + 1)])


def test_type_a_no_cycles():
    assert hh_type_A(dynkin_seed("A", 5)) == HSeries.of()


def test_type_a_one_triangle():
    assert hh_type_A(oriented_cycle(3)) == HSeries.of(3)


def test_type_a_two_triangles():
    # two triangles joined by a path: an A6-class quiver with t = 2
    q = Quiver.make(6, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 6), (6, 4)])
    assert hh_type_A(q) == HSeries.of(3, 3)


def test_classify_d_oriented_cycle():
    params = classify_D(oriented_cycle(4))
    assert params.subtype == "IVa"
    assert params.series() == HSeries.of(4)
    assert classify_D(oriented_cycle(5)).series() == HSeries.of(5)


def test_classify_d_two_triangles():
    q = Quiver.make(4, [(1, 2), (2, 3), (3, 1), (2, 4), (4, 1)])
    params = classify_D(q)
    assert params.subtype == "II"
    assert params.series() == HSeries.of(3)


def test_classify_d_hereditary_fork():
    q = Quiver.make(5, [(1, 3), (2, 3), (3, 4), (4, 5)])
    params = classify_D(q)
    assert params.subtype == "I"
    assert params.t == 0
    assert params.series() == HSeries.of()


def test_type_d_formulas():
    assert DTypeParams("IVa", 5, 0).series() == HSeries.of(5)
    assert DTypeParams("III", 4, 1).series() == HSeries.of(4, 3)
    assert DTypeParams("II", 3, 3).series() == HSeries.of(3, 3, 3, 3)
    assert DTypeParams("I", 0, 2).series() == HSeries.of(3, 3)
    assert DTypeParams("IVb", 6, 1).series() == HSeries.of(6, 3)


# Vatne's types I/II/III/IVa/IVb over each class
D_SUBTYPE_COUNTS = {
    4: (4, 1, 0, 1, 0),
    5: (15, 6, 2, 1, 2),
    6: (42, 19, 8, 1, 10),
    7: (126, 62, 24, 1, 33),
    8: (396, 207, 85, 1, 121),
    9: (1287, 704, 286, 1, 426),
}


@pytest.mark.parametrize("rank", sorted(D_SUBTYPE_COUNTS))
def test_classify_d_matches_arm_size_reference(rank):
    counts = Counter()
    for q in mutation_class("D", rank):
        params = classify_D(q)
        assert (params.subtype, params.series()) == classify_D_reference(q), q
        counts[params.subtype] += 1
    assert tuple(counts[s] for s in ("I", "II", "III", "IVa", "IVb")) == D_SUBTYPE_COUNTS[rank]


def test_classify_d_everything_in_small_classes(classes):
    for rank in (4, 5, 6):
        for q in classes[("D", rank)]:
            a = cached_algebra(q, 0)
            uni = series_from_invariants(hh1_dim(a), cartan(a).det)
            params = classify_D(q)
            assert params.series() == uni, (q, params)


def test_lookup_e_rows():
    assert lookup_E((1, -1, 0, 1, 0, -1, 1)) == HSeries.of()
    assert lookup_E((3, 0, 0, 3, 0, 0, 3)) == HSeries.of(4)
    assert lookup_E((8, 16, 0, 0, 16, 0, 0, 16, 8)) == HSeries.of(3, 3, 3)


def test_lookup_e_rejects_unknown():
    with pytest.raises(NotInTableError):
        lookup_E((1, 2, 3))


def test_table_shape():
    assert sum(len(rows) for rows in E_TABLE_ROWS.values()) == 35
    assert [len(E_TABLE_ROWS[r]) for r in (6, 7, 8)] == [6, 14, 15]
    # every line of the data file is one row, under the rank the file gives it
    text = resources.files("cthh").joinpath("data/e_table.txt").read_text()
    lines = [line.split(";") for line in text.splitlines() if line.strip() and line[0] != "#"]
    assert E_TABLE_ROWS == {r: [(tuple(int(c) for c in reversed(coeffs.split(","))), parse_h(h))
                                for rank, coeffs, h in lines if int(rank) == r] for r in (6, 7, 8)}


def test_universal_examples():
    assert series_from_invariants(1, 3) == HSeries.of(4)
    assert series_from_invariants(0, 1) == HSeries.of()
    assert series_from_invariants(3, 8) == HSeries.of(3, 3, 3)


def test_closed_form_dispatch_examples():
    def closed_form(q):
        family, _ = detect_dynkin(q)
        a = cached_algebra(q, 0)
        return hh_closed_form(q, family, hh1_dim(a), cartan(a))

    assert closed_form(oriented_cycle(3)) == (HSeries.of(3), "")
    assert closed_form(oriented_cycle(6)) == (HSeries.of(6), "IVa")
    assert closed_form(dynkin_seed("E", 6)) == (HSeries.of(), "")


def test_type_a_series_separate_triangle_counts(classes):
    # at fixed vertex count, distinct 3-cycle counts give distinct dim streams
    from cthh.fields import QQ, GF2, GF3, GF5
    from cthh.series import hh_dim

    streams = {}
    for q in classes[("A", 6)]:
        h = hh_type_A(q)
        t = len(h.cycle_orders)
        stream = tuple(hh_dim(h, i, fs) for fs in (QQ, GF2, GF3, GF5) for i in range(13))
        streams.setdefault(t, set()).add(stream)
    assert all(len(v) == 1 for v in streams.values())
    seen = [next(iter(v)) for _, v in sorted(streams.items())]
    assert len(set(seen)) == len(seen)


def test_closed_form_e6_f5_row(classes):
    # an E6-class quiver whose associated polynomial is 4(x^6+x^4+x^2+1)
    for q in classes[("E", 6)]:
        a = cached_algebra(q, 0)
        cd = cartan(a)
        if cd.assoc_poly == (4, 0, 4, 0, 4, 0, 4):
            assert hh_closed_form(q, "E", hh1_dim(a), cd) == (HSeries.of(5), "")
            break
    else:
        pytest.fail("no E6 quiver with the f_5 polynomial found")


def test_closed_form_unmatched_type_d_raises(monkeypatch, tmp_path, capsys):
    # classify_D fails on the oriented n-cycle alone
    real = cthh.classify.classify_D

    def no_pattern(q):
        if canonical_form(q) == canonical_form(oriented_cycle(q.vertex_count)):
            raise UnclassifiedDError("no pattern")
        return real(q)

    monkeypatch.setattr(cthh.classify, "classify_D", no_pattern)
    q = oriented_cycle(6)
    a = cached_algebra(q, 0)
    with pytest.raises(UnclassifiedDError, match="no pattern"):
        hh_closed_form(q, "D", hh1_dim(a), cartan(a))

    path = tmp_path / "cycle6.json"
    path.write_text(json.dumps({"vertices": 6, "arrows": [list(arrow) for arrow in q.arrows]}))
    assert cli_main(["hh", str(path)]) == 2
    assert "UnclassifiedDError" in capsys.readouterr().err

    report = verify_suite("D", 4, [QQ], 4, jobs=1)
    failed = [r for r in report.records if not r.passed]
    assert len(report.records) == 6 and len(failed) == 1
    assert failed[0].messages[0].startswith("UnclassifiedDError:")


@pytest.mark.parametrize("family, rank", [("A", 3), ("D", 4), ("E", 6)])
def test_closed_form_against_universal_raises(family, rank):
    if family != "E":
        # the hereditary seed's typed series is 0; (HH^1, det C) = (1, 2) gives f_3
        q = dynkin_seed(family, rank)
        cd = cartan(cached_algebra(q, 0))
        with pytest.raises(ClosedFormMismatchError,
                           match=f"type-{family} series 0 but the universal route gave f_3"):
            hh_closed_form(q, family, 1, CartanData(cd.matrix, 2))
        return
    # a faked det C would fail the associated polynomial's own check first, so
    # fake dim HH^1: the f_5 row of E6 has det C = 4 and HH^1 = 1, and
    # (HH^1, det C) = (2, 4) gives 2 f_3
    q = next(q for q in mutation_class(family, rank)
             if cartan(cached_algebra(q, 0)).assoc_poly == (4, 0, 4, 0, 4, 0, 4))
    a = cached_algebra(q, 0)
    assert (hh1_dim(a), cartan(a).det) == (1, 4)
    with pytest.raises(ClosedFormMismatchError,
                       match="type-E series f_5 but the universal route gave 2 f_3"):
        hh_closed_form(q, family, 2, cartan(a))
