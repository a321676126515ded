"""Exact linear algebra: echelon forms, kernels, determinants, pencils."""

import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest

import cthh.linalg
import conftest
from conftest import det_cofactor, pencil_det_interpolated, rref
from cthh.algebra import build_algebra, cartan
from cthh.errors import InvariantError
from cthh.fields import QQ, GF2, GF3, GF5, GF7, FieldSpec, is_prime
from cthh.linalg import (
    Echelon,
    NonSquareError,
    det_int,
    format_poly,
    kernel_from_rref,
    leading_minors,
    pencil_det,
    rref_frac,
)
from cthh.quiver import Quiver
from cthh.relations import generate_relations
from cthh.verify import check_quiver


def reduced(field, rows, ncols):
    """RREF of integer rows coerced into the field: (rank, pivots, rows)."""
    work = [[field.element(x) for x in r] for r in rows]
    rank, pivots = rref(work, ncols, field)
    return rank, pivots, work


def kernel(field, rows, ncols):
    _, pivots, work = reduced(field, rows, ncols)
    return kernel_from_rref(work, ncols, pivots, field)


def test_echelonize_identity_gf5():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    rank, pivots, red = reduced(GF5, eye, 3)
    assert rank == 3
    assert pivots == [0, 1, 2]
    assert red == eye


def test_echelonize_zero_matrix():
    rank, pivots, _ = reduced(QQ, [[0, 0, 0, 0], [0, 0, 0, 0]], 4)
    assert rank == 0
    assert pivots == []


def test_echelonize_duplicate_rows_rational():
    rank, pivots, red = reduced(QQ, [[1, 1], [1, 1]], 2)
    assert rank == 1
    assert pivots == [0]
    assert red[1] == [Fraction(0), Fraction(0)]


def test_echelonize_idempotent():
    rng = random.Random(7)
    for field in (QQ, GF2, GF3, GF5, GF7):
        for _ in range(25):
            rows = [[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)]
            _, pivots, red = reduced(field, rows, 5)
            rank2, pivots2, red2 = reduced(field, red, 5)
            assert red2 == red
            assert pivots2 == pivots


def test_kernel_identity_empty():
    assert kernel(QQ, [[1, 0], [0, 1]], 2) == []


def test_kernel_single_constraint_gf2():
    assert kernel(GF2, [[1, 1]], 2) == [(1, 1)]


def test_kernel_proportional_rows_rational():
    (v,) = kernel(QQ, [[1, 2], [2, 4]], 2)
    assert v[0] / v[1] == -2


def test_rank_nullity_random():
    rng = random.Random(20240)
    for field in (QQ, GF2, GF3, GF5, GF7):
        for _ in range(30):
            nrows = rng.randint(1, 6)
            ncols = rng.randint(1, 6)
            rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
            rank, _, _ = reduced(field, rows, ncols)
            kb = kernel(field, rows, ncols)
            assert rank + len(kb) == ncols
            for v in kb:
                for row in rows:
                    assert field.element(sum(a * b for a, b in zip(row, v))) == 0


def test_rref_frac_minor_is_the_pivot_minor():
    # the product of the pivots is +- the determinant of the picked rows and
    # pivot columns; when p does not divide it, the rank survives mod p
    rng = random.Random(1212)
    for _ in range(200):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        rank, pivots, minor = rref_frac([list(r) for r in rows], ncols)
        dets = {abs(det_int([[rows[i][c] for c in pivots] for i in picked]))
                for picked in itertools.combinations(range(nrows), rank)}
        assert abs(minor) in dets
        if rank == nrows:
            assert abs(minor) == abs(det_int([[r[c] for c in pivots] for r in rows]))
        for field in (GF2, GF3, GF5, GF7):
            if minor.numerator % field.characteristic:
                assert reduced(field, rows, ncols)[0] == rank


def test_det_int_identity():
    for n in range(1, 6):
        eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert det_int(eye) == 1


def test_det_int_triangular():
    assert det_int([[1, 1], [0, 1]]) == 1


def test_det_int_oriented_cycle_cartan():
    # Cartan matrix of the oriented-3-cycle algebra, cofactor expansion gives 2
    assert det_int([[1, 1, 0], [0, 1, 1], [1, 0, 1]]) == 2


def test_det_int_nonsquare_rejected():
    with pytest.raises(NonSquareError):
        det_int([[1, 2, 3], [4, 5, 6]])


def test_det_int_matches_cofactor_random():
    rng = random.Random(99)
    for _ in range(120):
        n = rng.randint(1, 4)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert det_int(m) == det_cofactor(m)


def test_det_int_bareiss_growth_exact():
    # intermediate Bareiss entries exceed the input range; results stay exact
    rng = random.Random(5)
    for _ in range(10):
        m = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)]
        assert det_int(m) == det_cofactor(m)


def test_leading_minors_match_det_int_per_k():
    # every k-th pivot of the one elimination is det_int of the k x k corner;
    # a zero minor ends the sequence
    rng = random.Random(1404)
    truncated = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        want = [det_int([row[:k] for row in m[:k]]) for k in range(1, n + 1)]
        if 0 in want:
            want = want[:want.index(0) + 1]
            truncated += len(want) < n
        assert list(leading_minors(m)) == want, m
    assert truncated >= 30
    assert list(leading_minors([])) == []


def test_pencil_det_identity_pair():
    # det(x I - I) = (x - 1)^2
    assert pencil_det([[1, 0], [0, 1]], [[-1, 0], [0, -1]]) == (1, -2, 1)


def test_pencil_det_hereditary_a2():
    c = [[1, 1], [0, 1]]
    nct = [[-1, 0], [-1, -1]]
    assert pencil_det(c, nct) == (1, -1, 1)  # x^2 - x + 1


def test_pencil_det_e6_table_row():
    # Cartan matrix of a cluster-tilted E6 algebra with det 3 (the quiver
    # 1->3, 2->6, 3->5, 4->2, 4->5, 5->1, 5->6, 6->3, 6->4); its pencil
    # determinant is 3(x^6 + x^3 + 1)
    c = [
        [1, 0, 1, 0, 0, 0],
        [0, 1, 1, 0, 0, 1],
        [0, 0, 1, 0, 1, 0],
        [1, 1, 1, 1, 1, 1],
        [1, 0, 1, 0, 1, 1],
        [0, 0, 1, 1, 1, 1],
    ]
    assert det_int(c) == 3
    nct = [[-c[j][i] for j in range(6)] for i in range(6)]
    assert pencil_det(c, nct) == (3, 0, 0, 3, 0, 0, 3)


def test_pencil_det_size_mismatch():
    with pytest.raises(NonSquareError):
        pencil_det([[1]], [[1, 0], [0, 1]])


def det_poly(mat):
    """Cofactor expansion of a determinant whose entries are integer
    polynomials (ascending coefficient lists)."""
    def poly_add(p, q):
        out = [0] * max(len(p), len(q))
        for i, x in enumerate(p):
            out[i] += x
        for i, x in enumerate(q):
            out[i] += x
        return out

    def poly_mul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(q):
                out[i + j] += x * y
        return out

    n = len(mat)
    if n == 0:
        return [1]
    if n == 1:
        return mat[0][0]
    acc = [0]
    for j in range(n):
        minor = [[mat[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = poly_mul(mat[0][j], det_poly(minor))
        if j % 2:
            term = [-x for x in term]
        acc = poly_add(acc, term)
    return acc


def pencil_by_cofactors(a, b):
    n = len(a)
    sym = det_poly([[[b[i][j], a[i][j]] for j in range(n)] for i in range(n)])
    return tuple((sym + [0] * (n + 1))[: n + 1])


def test_pencil_det_agrees_with_cofactor_polynomial():
    # n = 0..7 covers the Cartan sizes of A2-E8
    rng = random.Random(17)
    for n in range(8):
        for _ in range(3):
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            assert pencil_det(a, b) == pencil_by_cofactors(a, b)


def test_pencil_det_matches_the_interpolating_reference():
    # random pencils, n = 0..12, with a singular a, a = 0, a singular b and
    # a singular b with a = 0 (a constant pencil that is 0), against the
    # interpolating reference and, up to n = 7, the cofactor expansion
    def singular(m):  # the last row a multiple of the first (0 when n = 1)
        m[-1] = [(-2 if len(m) > 1 else 0) * x for x in m[0]]

    rng = random.Random(23)
    for n in range(13):
        for shape in ("plain", "a singular", "a zero", "b singular", "both"):
            a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            b = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if n and shape == "a singular":
                singular(a)
            if shape in ("a zero", "both"):
                a = [[0] * n for _ in range(n)]
            if n and shape in ("b singular", "both"):
                singular(b)
            got = pencil_det(a, b)
            assert got == pencil_det_interpolated(a, b), (a, b)
            if n <= 7:
                assert got == pencil_by_cofactors(a, b), (a, b)
            if n and shape == "both":
                assert got == (0,) * (n + 1)


def test_pencil_det_joins_several_primes(monkeypatch):
    # entries near 10^6 at n = 6: the coefficients' Hadamard bound exceeds
    # (2^61 - 1)^2 / 2, so two primes cannot fix them and the result rests
    # on the Chinese remainder step over at least three
    rng = random.Random(29)
    n = 6
    a = [[rng.randint(10**6 - 50, 10**6 + 50) * rng.choice((1, -1)) for _ in range(n)] for _ in range(n)]
    b = [[rng.randint(10**6 - 50, 10**6 + 50) * rng.choice((1, -1)) for _ in range(n)] for _ in range(n)]
    hadamard = 1
    for ra, rb in zip(a, b):
        hadamard *= isqrt(sum(x * x for x in ra)) + isqrt(sum(x * x for x in rb))
    assert 2 * hadamard > ((1 << 61) - 1) ** 2
    primes = []
    real = cthh.linalg._pencil_mod

    def recording(a, b, p):
        primes.append(p)
        return real(a, b, p)

    monkeypatch.setattr(cthh.linalg, "_pencil_mod", recording)
    got = pencil_det(a, b)
    assert len(primes) >= 3 and primes[0] == (1 << 61) - 1
    assert primes == sorted(primes, reverse=True)
    assert got == pencil_det_interpolated(a, b) == pencil_by_cofactors(a, b)
    assert max(abs(x) for x in got) > (1 << 122)


def test_pencil_det_shifts_past_a_singular_constant_term():
    # b = diag(2^61 - 1, 1, ...) is singular mod the first prime, so there
    # the pencil is evaluated from the least c > 0 with c*a + b invertible
    rng = random.Random(31)
    p = (1 << 61) - 1
    for n in range(1, 7):
        b = [[(p if i == 0 else 1) if i == j else 0 for j in range(n)] for i in range(n)]
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        got = pencil_det(a, b)
        assert got == pencil_det_interpolated(a, b) == pencil_by_cofactors(a, b)
        assert got[0] == p and cthh.linalg._pencil_mod(a, b, p)[0] == 0


def test_is_prime_is_exact_below_its_bound():
    small = [m for m in range(2, 5000) if all(m % d for d in range(2, isqrt(m) + 1))]
    # nothing below 2 is prime: 1 would otherwise halve d = 0 for ever
    assert [m for m in range(-50, 5000) if is_prime(m)] == small
    # strong pseudoprimes to the bases up to 7 and up to 23 are caught; the
    # least one to every base up to 37 is where the test stops being exact
    for m in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert is_prime(m) == (m == 318665857834031151167461)
    primes = cthh.linalg._primes()
    assert [next(primes) for _ in range(3)] == [(1 << 61) - 1, (1 << 61) - 31, (1 << 61) - 45]


@pytest.mark.parametrize("q", [
    Quiver.make(40, [(i, i + 1) for i in range(1, 40)]),
    Quiver.make(30, [(i, i % 30 + 1) for i in range(1, 31)]),
], ids=["A40-path", "oriented-30-cycle"])
def test_cartan_assoc_poly_matches_the_reference_on_large_quivers(q):
    cd = cartan(build_algebra(q, generate_relations(q)))
    c = cd.matrix
    n = len(c)
    assert cd.assoc_poly == pencil_det_interpolated(c, [[-c[j][i] for j in range(n)] for i in range(n)])
    assert cd.assoc_poly[-1] == cd.det == det_int(c)


def test_pencil_det_remainder_is_invariant_error(monkeypatch):
    # the reference: values 0, 0, 1 at x = 0, 1, 2 interpolate to x(x-1)/2,
    # not an integer polynomial
    values = iter([0, 0, 1])
    monkeypatch.setattr(conftest, "det_int", lambda rows: next(values))
    with pytest.raises(InvariantError):
        pencil_det_interpolated([[1, 0], [0, 1]], [[0, 0], [0, 0]])


def test_rational_elements_are_int_until_inexact():
    two = QQ.element(Fraction(6, 3))
    assert type(two) is int and two == 2
    assert QQ.element(Fraction(1, 2)) == Fraction(1, 2)
    assert type(QQ.element(Fraction(1, 2))) is Fraction
    assert type(QQ.element(True)) is int


def test_rational_elimination_stores_int_or_fraction():
    rng = random.Random(11)
    for _ in range(30):
        rows = [[rng.randint(-6, 6) for _ in range(5)] for _ in range(4)]
        _, _, red = reduced(QQ, rows, 5)
        ech = Echelon(QQ)
        for r in rows:
            ech.add(r)
        entries = [x for r in red + list(ech.pivot_rows.values()) for x in r]
        assert {type(x) for x in entries} <= {int, Fraction}


def test_inexact_rational_division_stays_exact(monkeypatch):
    # this D6 quiver's QQ resolution divides inexactly; no division may give a float
    results = []
    qdiv = cthh.linalg.qdiv

    def recording(x, d):
        results.append(qdiv(x, d))
        return results[-1]

    monkeypatch.setattr(cthh.linalg, "qdiv", recording)
    q = Quiver.make(6, [(1, 4), (2, 3), (3, 5), (4, 6), (5, 2), (5, 4), (6, 1), (6, 3)])
    assert check_quiver(q, "D", 6, [QQ], 8).passed
    assert any(type(y) is Fraction and y.denominator != 1 for y in results)
    assert not any(type(y) in (float, bool) for y in results)


def test_echelon_incremental_matches_batch():
    rng = random.Random(3)
    for field in (QQ, GF3):
        for _ in range(20):
            rows = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(5)]
            ech = Echelon(field)
            for r in rows:
                ech.add([field.element(x) for x in r])
            rank, _, _ = reduced(field, rows, 6)
            assert ech.rank == rank


def test_echelon_reads_unreduced_entries_mod_p():
    # over GF(p) a vector may hold any integers: reduce and add read them mod
    # p, return every entry in 0..p - 1, and behave as on the reduced vector
    assert Echelon(GF3).add([3, 1]) == [0, 1]
    assert Echelon(GF3).add([-1, 4, 5]) == [1, 2, 1]
    assert Echelon(GF5).reduce([10, -5, 25]) == [0, 0, 0]
    rng = random.Random(26)
    for field in (GF2, GF3, GF5):
        p = field.characteristic
        for _ in range(40):
            raw, ech = Echelon(field), Echelon(field)
            for _ in range(4):
                vec = [rng.choice((0, p, -p, 2 * p)) + rng.randint(-2 * p, 2 * p) for _ in range(5)]
                got = raw.add(vec)
                assert got == ech.add([x % p for x in vec])
                assert got is None or all(0 <= x < p for x in got)
                assert all(0 <= x < p for x in raw.reduce(vec))
            assert raw.pivot_rows == ech.pivot_rows and raw.rank == ech.rank


def test_field_spec_validation():
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(1)
    assert str(FieldSpec(0)) == "QQ"
    assert str(FieldSpec(7)) == "GF(7)"


def test_format_poly():
    assert format_poly((1, -1, 1)) == "x^2 - x + 1"
    assert format_poly((3, 0, 0, 3, 0, 0, 3)) == "3x^6 + 3x^3 + 3"
    assert format_poly(()) == "0"
