"""Bound algebra construction: bases, multiplication, gradings, Cartan data."""

import pytest

import cthh.algebra
from conftest import (cached_algebra, complete_reference, degree_dims, multiply, mutation_class, reduced_over,
                      reduced_products)
from cthh.algebra import BoundAlgebra, CartanData, _complete, build_algebra, cartan
from cthh.classify import classify_D, lookup_E
from cthh.errors import AlgebraError, InvalidRelationsError, InvariantError, NotFiniteDimensionalError
from cthh.fields import FieldSpec, QQ, GF2, GF3, GF5, GF7
from cthh.linalg import det_int
from cthh.oracle import center_dim, derivation_space_dim, hh1_dim, hh_dims
from cthh.quiver import Quiver, dynkin_seed
from cthh.relations import Path, Relation, generate_relations
from cthh.series import HSeries, hh_dim, series_from_invariants


def oriented_cycle(n):
    return Quiver.make(n, [(i, i % n + 1) for i in range(1, n + 1)])


# Quivers whose commutativity relations mix path lengths, e.g. 8->4->5 and
# 8->7->6->5 in D8_MIXED; a build that truncates the ideal by path length
# rejects them.
D8_MIXED = Quiver.make(8, [(1, 8), (8, 4), (4, 5), (5, 3), (3, 6), (6, 2), (2, 7), (7, 1),
                           (5, 8), (6, 5), (7, 6), (8, 7)])
D9_MIXED = (
    Quiver.make(9, [(1, 5), (2, 6), (3, 7), (4, 9), (5, 8), (6, 4), (6, 7), (7, 2),
                    (7, 8), (8, 3), (8, 9), (9, 5), (9, 6)]),
    Quiver.make(9, [(2, 6), (3, 7), (4, 9), (5, 1), (5, 8), (6, 4), (6, 7), (7, 2),
                    (7, 8), (8, 3), (8, 9), (9, 5), (9, 6)]),
)
# E8 quivers whose completion grows tips past 2n + 1 arrows when overlaps
# are resolved newest first instead of smallest first.
E8_LONG_OVERLAPS = (
    Quiver.make(8, [(1, 4), (2, 3), (3, 7), (4, 8), (5, 4), (5, 7), (6, 3), (6, 8),
                    (7, 2), (7, 6), (8, 1), (8, 5)]),
    Quiver.make(8, [(3, 8), (4, 7), (5, 4), (5, 8), (6, 3), (6, 7), (7, 2), (7, 5),
                    (8, 1), (8, 6)]),
)


def test_linear_a3_dimensions():
    a = cached_algebra(dynkin_seed("A", 3), 0)
    assert a.dimension == 6
    assert degree_dims(a) == (3, 2, 1)


def test_oriented_triangle_dimensions():
    a = cached_algebra(oriented_cycle(3), 0)
    assert a.dimension == 6
    assert degree_dims(a) == (3, 3, 0)


def test_two_triangle_quiver_dimensions():
    q = Quiver.make(4, [(1, 2), (2, 3), (3, 1), (2, 4), (4, 1)])
    a = cached_algebra(q, 0)
    assert a.dimension == 10
    assert degree_dims(a) == (4, 5, 1, 0)
    # one length-2 class survives: exactly one of bc, de is a basis path and
    # the product b*c reduces to it with coefficient +-1
    in_basis = [(p in a.basis) for p in ((2, 3, 1), (2, 4, 1))]
    assert in_basis.count(True) == 1
    prod = a.mult.get((a.basis.index((2, 3)), a.basis.index((3, 1))), ())
    assert len(prod) == 1 and abs(prod[0][1]) == 1 and len(a.basis[prod[0][0]]) == 3


def test_truncated_cycle_dimensions_and_grading():
    for n in (3, 4, 5, 6):
        a = cached_algebra(oriented_cycle(n), 0)
        assert a.dimension == n * (n - 1)
        assert degree_dims(a) == tuple([n] * (n - 1) + [0])


def test_cartan_linear_a3():
    cd = cartan(cached_algebra(dynkin_seed("A", 3), 0))
    assert cd.matrix == ((1, 1, 1), (0, 1, 1), (0, 0, 1))
    assert cd.det == 1


def test_cartan_oriented_triangle():
    cd = cartan(cached_algebra(oriented_cycle(3), 0))
    assert cd.matrix == ((1, 1, 0), (0, 1, 1), (1, 0, 1))
    assert cd.det == 2


def test_cartan_truncated_four_cycle_circulant():
    cd = cartan(cached_algebra(oriented_cycle(4), 0))
    assert cd.matrix[0] == (1, 1, 1, 0)
    for i in range(4):
        for j in range(4):
            assert cd.matrix[i][j] == cd.matrix[0][(j - i) % 4]
    assert cd.det == 3


def test_assoc_poly_reciprocity_and_constant_term(classes):
    for cls in classes.values():
        for q in cls[: 12]:
            cd = cartan(cached_algebra(q, 0))
            n = q.vertex_count
            coeffs = cd.assoc_poly
            assert len(coeffs) == n + 1
            assert coeffs[n] == cd.det
            assert abs(coeffs[0]) == cd.det
            # x^N p(1/x) = (-1)^N p(x): reversed coefficients match up to sign
            rev = tuple(reversed(coeffs))
            expect = coeffs if n % 2 == 0 else tuple(-c for c in coeffs)
            assert rev == expect, (q, coeffs)


def test_assoc_poly_is_computed_once_and_checked_against_det():
    # the oriented 3-cycle: C = [[1,1,0],[0,1,1],[1,0,1]], det C = 2,
    # det(xC - C^T) = 2x^3 - 2
    cd = cartan(cached_algebra(oriented_cycle(3), 0))
    assert "assoc_poly" not in vars(cd)
    assert cd.assoc_poly == (-2, 0, 0, 2) and cd.assoc_poly is vars(cd)["assoc_poly"]
    wrong = CartanData(cd.matrix, 3)
    with pytest.raises(InvariantError, match="leading coefficient 2, but det C = 3"):
        wrong.assoc_poly


def test_det_one_exactly_for_trees(classes):
    for (fam, rank), cls in classes.items():
        if len(cls) > 40:
            continue
        for q in cls:
            cd = cartan(cached_algebra(q, 0))
            is_tree = len(q.arrows) == q.vertex_count - 1
            assert (cd.det == 1) == is_tree, q


def test_mult_respects_endpoints():
    a = cached_algebra(Quiver.make(4, [(1, 2), (2, 3), (3, 1), (2, 4), (4, 1)]), 0)
    for i, p in enumerate(a.basis):
        for j, r in enumerate(a.basis):
            prod = a.mult.get((i, j), ())
            if p[-1] != r[0]:
                assert prod == ()
            for k, _ in prod:
                assert a.basis[k][0] == p[0]
                assert a.basis[k][-1] == r[-1]


@pytest.mark.parametrize("family,ranks", [("A", range(2, 7)), ("D", range(4, 7)), ("E", (6,))],
                         ids=["A2-A6", "D4-D6", "E6"])
def test_mult_table_matches_reducing_every_product(family, ranks):
    # build_algebra stores a product that is a normal word without reducing
    # it, and every field reads the one integer table
    for rank in ranks:
        for q in mutation_class(family, rank):
            for char in (2, 3, 0):
                a = cached_algebra(q, char)
                assert a.mult == reduced_products(a, generate_relations(q)), (q, char)


@pytest.mark.parametrize("family,ranks", [("A", range(2, 9)), ("D", range(4, 9)), ("E", (6, 7))],
                         ids=["A2-A8", "D4-D8", "E6-E7"])
def test_completion_matches_the_reference(family, ranks):
    # the reference also resolves the ambiguities of two monomial rules and
    # scans tips no longer than the new one; the rules, in order, are the same
    for rank in ranks:
        for q in mutation_class(family, rank):
            rels = generate_relations(q)
            rules = _complete(rels, 2 * rank + 1)
            want = complete_reference(rels, 2 * rank + 1)
            assert list(rules.items()) == list(want.items()), q


def test_completion_requeues_a_rule_whose_tip_holds_a_newer_tip():
    # no class member needs this: the monomial 1->4->5->2 reduces to the
    # arrow 1->2 only once the rule 1->4->5->2 -> 1->2 is in place, and by
    # then the rule of tip 1->2->3, one vertex longer, holds the new tip
    t, longer, w = Path((1, 2)), Path((1, 2, 3)), Path((1, 4, 5, 2))
    rels = [(None, Relation(((1, longer),))), (None, Relation(((1, w), (-1, t)))), (None, Relation(((1, w),)))]
    rules = _complete(rels, 9)
    assert rules == {(1, 4, 5, 2): {}, (1, 2): {}}
    assert list(rules.items()) == list(complete_reference(rels, 9).items())


def test_completion_of_monomial_rules_resolves_no_ambiguity(monkeypatch):
    # the oriented 80-cycle's 80 relations are paths of 79 arrows: every rule
    # is monomial, so no pair of them is ever tested for overlaps
    q = oriented_cycle(80)
    rels = generate_relations(q)
    calls = []
    overlaps = cthh.algebra._overlaps
    monkeypatch.setattr(cthh.algebra, "_overlaps", lambda *a: calls.append(a) or overlaps(*a))
    rules = _complete(rels, 161)
    assert calls == []
    assert rules == {p.vertices: {} for _, rel in rels for _, p in rel.terms}
    assert len(rules) == 80


def test_trivial_paths_are_units():
    a = cached_algebra(dynkin_seed("D", 4), 0)
    for i, p in enumerate(a.basis):
        e_src = a.basis.index((p[0],))
        e_tgt = a.basis.index((p[-1],))
        assert a.mult.get((e_src, i)) == ((i, 1),)
        assert a.mult.get((i, e_tgt)) == ((i, 1),)


def test_associativity_exact_on_basis_triples():
    q = Quiver.make(4, [(1, 2), (2, 3), (3, 1), (2, 4), (4, 1)])
    for char in (0, 2, 3):
        a = cached_algebra(q, char)
        d = a.dimension
        for i in range(d):
            for j in range(d):
                ij = a.mult.get((i, j), ())
                for k in range(d):
                    left = multiply(a, ij, ((k, 1),))
                    right = multiply(a, ((i, 1),), a.mult.get((j, k), ()))
                    assert left == right, (i, j, k)


def test_cartan_field_independent(classes):
    for cls in (classes[("A", 4)], classes[("D", 4)]):
        for q in cls:
            base = cartan(cached_algebra(q, 0))
            for char in (2, 3, 5, 7):
                assert cartan(cached_algebra(q, char)) == base


def test_cartan_det_is_leading_pencil_coefficient(classes):
    # det(xC - C^T) has x^n coefficient det C and constant term (-1)^n det C,
    # so the odd ranks tell the two ends apart
    for cls in classes.values():
        for q in cls:
            cd = cartan(cached_algebra(q, 0))
            assert cd.det == det_int(cd.matrix), q


def test_degree_dims_no_resurrection(classes):
    for cls in classes.values():
        for q in cls[: 15]:
            dims = degree_dims(cached_algebra(q, 0))
            seen_zero = False
            for d in dims:
                if seen_zero:
                    assert d == 0
                if d == 0:
                    seen_zero = True


def test_invalid_relations_rejected():
    q = dynkin_seed("A", 3)
    bogus = (((1, 3), Relation(((1, Path((1, 3))),))),)
    with pytest.raises(InvalidRelationsError):
        build_algebra(q, bogus, QQ)


def test_build_over_all_default_fields():
    q = oriented_cycle(5)
    rels = generate_relations(q)
    for fs in (QQ, GF2, GF3, GF5, GF7):
        a = build_algebra(q, rels, fs)
        assert a.dimension == 20


def test_over_is_a_view_of_the_integer_table():
    # an algebra over QQ moves to GF(p) as a view: its table and its basis
    # indexes are the algebra's own, and the table holds the integer normal forms
    q = oriented_cycle(5)
    a = cached_algebra(q, 0)
    assert a.over(QQ) is a
    assert (a.paths_from[1], a.paths_to[1], a.parallel[(1, 3)]) == ([0, 5, 10, 15], [0, 9, 13, 17], [10])
    assert [a.basis[i] for i in a.arrows] == [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    assert all(a.basis[a.index[p]] == p for p in a.basis)
    for fs in (GF2, GF3, GF5):
        b = a.over(fs)
        assert b.field == fs and degree_dims(b) == degree_dims(a)
        assert all(getattr(b, name) is getattr(a, name)
                   for name in ("basis", "mult", "index", "paths_from", "paths_to", "parallel", "arrows"))
        assert b.mult == reduced_products(b, generate_relations(q))
        with pytest.raises(ValueError, match="cannot move"):
            b.over(GF7)
    # entries 6 and 4, which vanish mod 2, and 6, which vanishes mod 3: every
    # view keeps them, and the consumers read them as the reduced table
    hand = BoundAlgebra(q, QQ, a.basis, {(0, 0): ((0, 6), (1, 4)), **{
        key: tuple((k, c * (6 if key[0] in a.arrows else 4)) for k, c in entries)
        for key, entries in a.mult.items() if key != (0, 0)}})
    assert hand.over(GF2).mult is hand.mult
    assert reduced_over(hand, GF2).mult == {}
    assert reduced_over(hand, GF3).mult[(0, 0)] == ((1, 1),)
    for fs in (GF2, GF3):
        view, ref = hand.over(fs), reduced_over(hand, fs)
        assert (center_dim(view), derivation_space_dim(view)) == (center_dim(ref), derivation_space_dim(ref))


def test_d8_class_builds_and_matches_universal_route():
    fs = FieldSpec(1000003)
    qs = mutation_class("D", 8)
    assert len(qs) == 810
    for q in qs:
        a = build_algebra(q, generate_relations(q), fs)
        assert series_from_invariants(hh1_dim(a), cartan(a).det) == classify_D(q).series(), q


def test_mixed_length_d8_quiver_oracle():
    want = tuple(hh_dim(HSeries.of(8), i, GF2) for i in range(11))
    assert hh_dims(cached_algebra(D8_MIXED, 2), [GF2], max_i=10)[0] == want


def test_mixed_length_d9_quivers():
    for q in D9_MIXED:
        cd = cartan(cached_algebra(q, 0))
        assert cartan(cached_algebra(q, 2)) == cd
        assert series_from_invariants(hh1_dim(cached_algebra(q, 0)), cd.det) == HSeries.of(8)
        assert classify_D(q).series() == HSeries.of(8)


def test_e8_quivers_with_long_overlap_chains():
    for q in E8_LONG_OVERLAPS:
        cd = cartan(cached_algebra(q, 0))
        assert cartan(cached_algebra(q, 2)) == cd
        assert lookup_E(cd.assoc_poly) == series_from_invariants(hh1_dim(cached_algebra(q, 2)), cd.det)


def test_cycle_without_relations_not_finite_dimensional():
    with pytest.raises(NotFiniteDimensionalError):
        build_algebra(oriented_cycle(3), (), QQ)


def test_redundant_relation_cancels_and_changes_nothing():
    # (1,2,5) - (1,4,5) is the sum of the other two relations, so completion
    # reduces it to 0, cancelling a coefficient in _reduce on the way
    q = Quiver.make(5, [(1, 2), (1, 3), (1, 4), (2, 5), (3, 5), (4, 5)])

    def commute(x, y):
        return Relation(((1, Path((1, x, 5))), (-1, Path((1, y, 5)))))

    rels = (((1, 2), commute(2, 3)), ((1, 3), commute(3, 4)))
    for fs in (QQ, GF2):
        a = build_algebra(q, rels, fs)
        b = build_algebra(q, rels + (((1, 4), commute(2, 4)),), fs)
        assert a.dimension == 12 and (a.basis, a.mult) == (b.basis, b.mult)


def test_non_unit_leading_coefficient_rejected():
    q = dynkin_seed("A", 3)
    rels = (((1, 2), Relation(((2, Path((1, 2, 3))),))),)
    for fs in (QQ, GF2):
        with pytest.raises(AlgebraError):
            build_algebra(q, rels, fs)
