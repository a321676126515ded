"""Series engine vs an independent truncated-power-series expansion.

The reference expansion builds f_n = z/(1-z) - z^2(1 + eps(z + z^2) + z^3)
/ (1 - z^{2n}) with exact Fraction arithmetic on coefficient lists, never
using the closed-form residue shortcut under test.
"""

from fractions import Fraction

import pytest

from conftest import universal_params
from cthh.errors import NonIntegralNError
from cthh.fields import QQ, GF2, GF3, GF5, GF7, FieldSpec
from cthh.series import HSeries, epsilon, f_coeff, format_h, hh_dim, parse_h, series_from_invariants


def reference_f_series(n, field, order):
    """Coefficients of f_n to the given order by direct series arithmetic."""
    geom = [Fraction(1)] * (order + 1)                 # 1/(1-z)
    first = [Fraction(0)] + geom[:-1]                  # z/(1-z)
    eps = 0 if (field.characteristic and (n - 1) % field.characteristic == 0) else 1
    numer = [Fraction(0)] * (order + 1)
    for power, coeff in ((2, 1), (3, eps), (4, eps), (5, 1)):
        if power <= order:
            numer[power] += coeff
    denom_inv = [Fraction(0)] * (order + 1)            # 1/(1-z^{2n})
    for k in range(0, order + 1, 2 * n):
        denom_inv[k] = Fraction(1)
    second = [Fraction(0)] * (order + 1)
    for i, a in enumerate(numer):
        if a:
            for j, b in enumerate(denom_inv):
                if b and i + j <= order:
                    second[i + j] += a * b
    return [first[i] - second[i] for i in range(order + 1)]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("char", [0, 2, 3, 5, 7])
def test_f_coeff_matches_reference_series(n, char):
    field = FieldSpec(char)
    ref = reference_f_series(n, field, 50)
    for i in range(51):
        assert f_coeff(n, i, field) == ref[i], (n, char, i)


def test_f_coeff_examples():
    assert f_coeff(3, 1, QQ) == 1
    assert f_coeff(3, 3, GF2) == 1
    assert f_coeff(3, 3, QQ) == 0
    for n in (3, 4, 5, 8):
        for char in (0, 2, 3, 5, 7):
            assert f_coeff(n, 2, FieldSpec(char)) == 0


def test_f_coeff_rejects_small_n():
    with pytest.raises(ValueError):
        f_coeff(2, 1, QQ)


def test_epsilon_rule():
    assert epsilon(3, GF2) == 0
    assert epsilon(3, GF3) == 1
    assert epsilon(3, QQ) == 1
    assert epsilon(5, GF2) == 0  # 2 divides 4
    assert epsilon(7, GF3) == 0  # 3 divides 6
    assert epsilon(7, GF2) == 0  # 2 divides 6
    assert epsilon(7, GF5) == 1
    assert epsilon(8, GF7) == 0  # 7 divides 7


def test_f_coeff_periodicity():
    for n in (3, 4, 5, 8):
        for field in (QQ, GF2, GF3, GF5, GF7):
            for i in range(1, 3 * n):
                assert f_coeff(n, i, field) == f_coeff(n, i + 2 * n, field)


def test_window_ones_count():
    for n in (3, 4, 5, 6, 7, 8):
        for field in (QQ, GF2, GF3, GF5, GF7):
            eps = epsilon(n, field)
            ones = sum(f_coeff(n, i, field) for i in range(1, 2 * n + 1))
            assert ones == 2 * n - 2 - 2 * eps


def test_characteristic_changes_only_residues_3_4():
    for n in (3, 4, 5, 6, 7, 8):
        for char in (2, 3, 5, 7):
            field = FieldSpec(char)
            for i in range(1, 4 * n):
                if f_coeff(n, i, field) != f_coeff(n, i, QQ):
                    assert i % (2 * n) in (3, 4)


def test_hh_dim_empty_series():
    h = HSeries.of()
    assert hh_dim(h, 0, QQ) == 1
    for i in range(1, 10):
        assert hh_dim(h, i, GF2) == 0


def test_hh_dim_f3_char3():
    h = HSeries.of(3)
    got = [hh_dim(h, i, GF3) for i in range(8)]
    assert got == [1, 1, 0, 0, 0, 0, 1, 1]


def test_hh_dim_two_triangles():
    h = HSeries.of(3, 3)
    assert hh_dim(h, 1, QQ) == 2


def test_hh_dim_degree_two_always_zero():
    for h in (HSeries.of(), HSeries.of(3), HSeries.of(4, 3, 3), HSeries.of(8)):
        for field in (QQ, GF2, GF3, GF5, GF7):
            assert hh_dim(h, 2, field) == 0


def test_format_h():
    assert format_h(HSeries.of()) == "0"
    assert format_h(HSeries.of(4, 3, 3)) == "f_4 + 2 f_3"
    assert format_h(HSeries.of(7)) == "f_7"


def test_parse_h_roundtrip():
    for h in (HSeries.of(), HSeries.of(3), HSeries.of(4, 3), HSeries.of(3, 3, 3), HSeries.of(8, 3)):
        assert parse_h(format_h(h)) == h
    with pytest.raises(ValueError):
        parse_h("f_2 + nonsense")


def test_universal_route_arithmetic():
    assert series_from_invariants(1, 3) == HSeries.of(4)
    assert series_from_invariants(0, 1) == HSeries.of()
    assert series_from_invariants(3, 8) == HSeries.of(3, 3, 3)


def test_universal_route_rejects_inconsistent():
    with pytest.raises(NonIntegralNError):
        series_from_invariants(0, 2)
    with pytest.raises(NonIntegralNError):
        series_from_invariants(3, 6)  # 4 does not divide 6
    with pytest.raises(NonIntegralNError):
        series_from_invariants(2, 2)  # n = 2 < 3


def test_universal_params():
    assert universal_params(HSeries.of(4, 3, 3)) == (4, 2)
    assert universal_params(HSeries.of(3, 3)) == (3, 1)
    assert universal_params(HSeries.of(5)) == (5, 0)
    assert universal_params(HSeries.of()) is None
