"""Oracle correctness: centers, derivations, resolutions, cohomology dims."""

import copy
import os
import re
import subprocess
import sys
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import cthh.oracle
from conftest import (ColumnImageResolution, EagerLevel, FullSpanResolution, WholePeriodResolution,
                      assembled_blocks, augmentation_level_one, block_kernels, cached_algebra, column_image_blocks,
                      hom_differential_reference, kernel_dims, level_blocks, matrix_rank, mutation_class,
                      radical_multiples, reduced_over, relabel, rref, sample_by_canonical, thread_components,
                      thread_state, whole_period_hh_dims)
from cthh.algebra import build_algebra
from cthh.errors import InvariantError, ResolutionBudgetError
from cthh.fields import GF2, GF3, GF5, GF7, QQ, FieldSpec
from cthh.linalg import kernel_from_rref, rref_frac, rref_mod
from cthh.oracle import BimoduleResolution, center_dim, derivation_space_dim, hh1_dim, hh_dims
from cthh.quiver import Quiver, dynkin_seed
from cthh.relations import Path as QuiverPath, Relation, generate_relations
from cthh.series import HSeries, hh_dim
from test_algebra import D8_MIXED

def oriented_cycle(n):
    return Quiver.make(n, [(i, i % n + 1) for i in range(1, n + 1)])


def test_center_one_vertex():
    a = cached_algebra(Quiver(1, ()), 0)
    assert center_dim(a) == 1
    assert hh_dims(a, [a.field], max_i=3)[0] == (1, 0, 0, 0)


def test_center_connected_basic_algebras():
    assert center_dim(cached_algebra(dynkin_seed("A", 3), 0)) == 1
    assert center_dim(cached_algebra(oriented_cycle(3), 0)) == 1
    assert center_dim(cached_algebra(oriented_cycle(3), 2)) == 1


def test_hh1_hereditary_vanishes():
    assert hh1_dim(cached_algebra(dynkin_seed("A", 3), 0)) == 0
    assert hh1_dim(cached_algebra(dynkin_seed("D", 5), 0)) == 0
    assert hh1_dim(cached_algebra(dynkin_seed("E", 6), 0)) == 0


def test_hh1_oriented_triangle_any_characteristic():
    for char in (0, 2, 3, 5, 7):
        assert hh1_dim(cached_algebra(oriented_cycle(3), char)) == 1


def test_hh1_two_triangle_quiver():
    q = Quiver.make(4, [(1, 2), (2, 3), (3, 1), (2, 4), (4, 1)])
    assert hh1_dim(cached_algebra(q, 0)) == 1


def _dense_rank(terms, ncols, fld):
    rows = {}
    for key, col, val in terms:
        rows.setdefault(key, [0] * ncols)[col] += val
    return matrix_rank([[fld.element(x) for x in r] for r in rows.values()], ncols, fld)


def _der_dim_all_pairs(a):
    """Leibniz imposed on every basis pair, over all d*d entries of D."""
    d = a.dimension

    def terms():
        for x in range(d):
            for y in range(d):
                for k, mu in a.mult.get((x, y), ()):
                    for c in range(d):
                        yield (x, y, c), k * d + c, mu
                for l in range(d):
                    for c, nu in a.mult.get((l, y), ()):
                        yield (x, y, c), x * d + l, -nu
                    for c, nu in a.mult.get((x, l), ()):
                        yield (x, y, c), y * d + l, -nu

    return d * d - _dense_rank(terms(), d * d, a.field)


def _center_dim_all_basis(a):
    """x b = b x for every basis path b, over all d coefficients of x."""
    d = a.dimension

    def terms():
        for b in range(d):
            for k in range(d):
                for c, v in a.mult.get((k, b), ()):
                    yield (b, c), k, v
                for c, v in a.mult.get((b, k), ()):
                    yield (b, c), k, -v

    return d - _dense_rank(terms(), d, a.field)


# type D5: three oriented triangles 1->3->5->1, 2->5->4->2 and 3->5->4->3, 15-dimensional
D5_TRIANGLES = Quiver.make(5, [(1, 3), (2, 5), (3, 5), (4, 2), (4, 3), (5, 1), (5, 4)])
REFERENCE_CASES = [
    (dynkin_seed("A", 3), 0),
    (oriented_cycle(3), 0),
    (oriented_cycle(3), 2),
    (Quiver.make(4, [(1, 2), (2, 3), (3, 1), (2, 4), (4, 1)]), 0),
    (oriented_cycle(4), 3),
    (D5_TRIANGLES, 0),
    (D5_TRIANGLES, 2),
]


def _commutative_squares(arrows, *squares):
    """Path algebra over QQ of an acyclic quiver modulo p - q for each pair (p, q)."""
    rels = tuple((p[:2], Relation(((1, QuiverPath(p)), (-1, QuiverPath(q)))))
                 for p, q in squares)
    return build_algebra(Quiver.make(max(map(max, arrows)), arrows), rels, QQ)


def test_derivation_space_on_generator_pairs_matches_all_pairs():
    algebras = [cached_algebra(q, char) for q, char in REFERENCE_CASES] + [
        # outside cluster-tilted type: the arrow 1->4 is parallel to paths of
        # length 2, and two relations share the arrows 1->2 and 1->3
        _commutative_squares([(1, 2), (1, 3), (2, 4), (3, 4), (2, 5), (3, 5), (1, 4)],
                             ((1, 2, 4), (1, 3, 4)), ((1, 2, 5), (1, 3, 5))),
        # a commutative square followed by the arrow 4->5
        _commutative_squares([(1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], ((1, 2, 4), (1, 3, 4))),
    ]
    for a in algebras:
        assert derivation_space_dim(a) == _der_dim_all_pairs(a), a.quiver


def test_center_dim_matches_all_basis_reference():
    for q, char in REFERENCE_CASES + [(D8_MIXED, 0), (D8_MIXED, 3)]:
        a = cached_algebra(q, char)
        assert center_dim(a) == _center_dim_all_basis(a), (q, char)


def test_hereditary_a3_dims():
    d = hh_dims(cached_algebra(dynkin_seed("A", 3), 0), [QQ], max_i=4)[0]
    assert d == (1, 0, 0, 0, 0)


def test_oriented_triangle_gf3():
    d = hh_dims(cached_algebra(oriented_cycle(3), 3), [GF3], max_i=7)[0]
    assert d == (1, 1, 0, 0, 0, 0, 1, 1)


def test_oriented_triangle_gf2():
    d = hh_dims(cached_algebra(oriented_cycle(3), 2), [GF2], max_i=4)[0]
    assert d == (1, 1, 0, 1, 1)


def test_oriented_triangle_rationals():
    d = hh_dims(cached_algebra(oriented_cycle(3), 0), [QQ], max_i=7)[0]
    assert d == (1, 1, 0, 0, 0, 0, 1, 1)


def test_truncated_cycle_periodicity_window():
    for n, char in ((4, 2), (4, 5), (5, 2)):
        a = cached_algebra(oriented_cycle(n), char)
        dims = hh_dims(a, [a.field], max_i=2 * n + 4)[0]
        for i in range(1, 5):
            assert dims[i] == dims[i + 2 * n], (n, char, i)


def test_dims_rational_vs_good_prime():
    # over a prime not dividing n-1 the oracle agrees with char 0
    q = oriented_cycle(4)
    d0 = hh_dims(cached_algebra(q, 0), [QQ], max_i=8)[0]
    d5 = hh_dims(cached_algebra(q, 5), [GF5], max_i=8)[0]
    assert d0 == d5
    d7 = hh_dims(cached_algebra(q, 7), [GF7], max_i=8)[0]
    assert d0 == d7


def test_oriented_8_cycle_over_gf7_is_f8_in_characteristic_7():
    # 7 divides 8 - 1, so f_8 over GF(7) differs from f_8 over QQ in degrees 3 and 4
    q = oriented_cycle(8)
    want = [hh_dim(HSeries.of(8), i, GF7) for i in range(13)]
    assert want == [1, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1]
    assert list(hh_dims(cached_algebra(q, 7), [GF7], max_i=12)[0]) == want
    rational = hh_dims(cached_algebra(q, 0), [QQ], max_i=12)[0]
    assert [i for i in range(13) if rational[i] != want[i]] == [3, 4]


def test_resolution_exactness_and_minimality_bookkeeping():
    a = cached_algebra(oriented_cycle(4), 2)
    res = BimoduleResolution(a)
    res.extend_to(6)
    # kernel dims were compared against image ranks inside extend_once;
    # generator counts of a minimal resolution stay at the cycle width here
    assert len(res.levels) == 7
    for lvl in res.levels[:6]:
        assert len(lvl.gens) == 4


def test_resolution_budget(monkeypatch):
    monkeypatch.setattr(cthh.oracle, "DEFAULT_BUDGET", 50)
    a = cached_algebra(oriented_cycle(5), 0)
    with pytest.raises(ResolutionBudgetError):
        hh_dims(a, [a.field], max_i=10)


class _CountedSteps(BimoduleResolution):
    """Counts its extend_once steps; extend_to derives the other levels it
    appends before the period closes."""

    def __init__(self, a):
        self.steps = 0
        super().__init__(a)

    def extend_once(self):
        self.steps += 1
        super().extend_once()


def _derived_levels(res, length):
    """How many of levels 2.. that extend_to(length) appended before the period
    closed or every thread repeated (levels 0 and 1 are written down) were
    derived, not built."""
    last = sum(res.period) if res.period else len(res.levels) - 1
    return last - 1 - res.steps


PERIOD_SAMPLE = [(f"{family}{rank}-{k}-{char}", q, char)
                 for family, ranks in (("A", range(2, 7)), ("D", range(4, 7)), ("E", (6,)))
                 for rank in ranks
                 for k, q in enumerate(sample_by_canonical(mutation_class(family, rank), 3))
                 for char in (2, 3, 0)]


@pytest.mark.parametrize("name,q,char", PERIOD_SAMPLE, ids=[c[0] for c in PERIOD_SAMPLE])
def test_periodic_resolution_matches_plain_steps(name, q, char):
    # extend_to builds each distinct level once; plain extend_once calls build
    # every level, and both must give the same levels and the same dimensions
    a = cached_algebra(q, char)
    length = 12
    res = _CountedSteps(a)
    res.extend_to(length)
    derived = _derived_levels(res, length)
    assert char != 2 or derived == 0  # over GF(2) a sign twist is equality
    plain = BimoduleResolution(a)
    while len(plain.levels) < length + 1:
        plain.extend_once()
    assert plain.period is None
    # every resolution of the sample repeats within 12 levels, as a whole or
    # thread by thread; once every thread has repeated no level is appended
    top = length if res.period else len(res.levels) - 1
    assert len(res.levels) == top + 1 and (res.period or all(res.thread_periods))
    assert [(lvl.gens, lvl.images) for lvl in res.levels] == \
        [(lvl.gens, lvl.images) for lvl in plain.levels[:top + 1]]
    # the budget counts the levels extend_once built or derived
    last = sum(res.period) if res.period else top
    assert res.total_dim == sum(lvl.dim for lvl in res.levels[:last + 1])
    assert plain.total_dim == sum(lvl.dim for lvl in plain.levels)
    res.extend_once()  # a plain step on top of the last level, shared or not
    while len(plain.levels) < len(res.levels):
        plain.extend_once()
    assert (res.levels[-1].gens, res.levels[-1].images) == \
        (plain.levels[len(res.levels) - 1].gens, plain.levels[len(res.levels) - 1].images)
    if res.period:
        j, d = res.period
        assert 1 <= j and 1 <= d and j + d <= length
        for n in range(j, length + 1):
            assert res.levels[n] is res.levels[j + (n - j) % d]
    else:
        # the threads are the components over every level plain steps build,
        # and each thread's state repeats with its own period on all of them
        labels = thread_components(plain.levels)
        for n in range(1, top + 1):
            assert res.levels[n].threads == {t: [g for g, u in enumerate(labels[n]) if u == t]
                                             for t in set(labels[n])}, n
        for t, (j, d) in enumerate(res.thread_periods):
            assert 2 <= j and 1 <= d and j + d <= top
            for n in range(j, len(plain.levels)):
                assert thread_state(plain.levels, labels, n, t) == \
                    thread_state(plain.levels, labels, j + (n - j) % d, t), (t, n)
    ranks = [0] + [plain.hom_differential_rank(i, [a.field])[0] for i in range(1, length + 1)]
    dims = tuple(len(plain.hom_basis(i)) - ranks[i] - ranks[i + 1] for i in range(length))
    assert hh_dims(a, [a.field], max_i=length - 1)[0] == dims


def test_period_sample_derives_levels_over_3_and_0_only():
    # extend_to derives the levels after a sign twist of an earlier level
    # instead of building them; over GF(2) a sign twist is equality
    derived = Counter()
    for name, q, char in PERIOD_SAMPLE:
        res = _CountedSteps(cached_algebra(q, char))
        res.extend_to(12)
        derived[char] += _derived_levels(res, 12)
    assert (derived[2], derived[3], derived[0]) == (0, 28, 28)


def _resolution_state(res):
    """Generators and images (in insertion order) of every level, kernel dims,
    the period and each thread's."""
    return ([(lvl.gens, [list(img.items()) for img in lvl.images]) for lvl in res.levels],
            kernel_dims(res), res.period, res.thread_periods)


TOP_SAMPLE = PERIOD_SAMPLE + [(f"{name[:-2]}-5", q, 5) for name, q, char in PERIOD_SAMPLE if char == 2]


@pytest.mark.parametrize("name,q,char", TOP_SAMPLE, ids=[c[0] for c in TOP_SAMPLE])
def test_top_step_matches_full_span_reference(name, q, char):
    # the top counts each kernel block's new generators first: a block counted
    # 0 is skipped, and a block counted c stops covering rad*K + K*rad at
    # rank dim K - c and stops after c residues; the reference adds every
    # vector of every block
    a = cached_algebra(q, char)
    res = BimoduleResolution(a)
    res.extend_to(12)
    ref = FullSpanResolution(a)
    ref.extend_to(12)
    assert _resolution_state(res) == _resolution_state(ref)


@pytest.mark.parametrize("family,ranks", [("A", range(2, 7)), ("D", range(4, 7)), ("E", (6,))],
                         ids=["A2-A6", "D4-D6", "E6"])
def test_slice_pass_identities_against_the_full_block_reference(family, ranks):
    # with r_n(s, t) the kernel dimension of d_n (x) S_t at s: r_n(s, t) is the
    # rank of block (s, t)'s kernel vectors on its columns (g, p, e_t); the
    # slice rank of d_n is r_{n-1}(s, t), dim e_s A e_t - delta_st at n = 0;
    # dim e_s K_n e_t = sum_u r_n(s, u) dim e_u A e_t; over QQ the obstruction
    # is +-1: every slice pivot minor is a unit and every image integral.  The
    # states are the reference's, which computes every level: the levels
    # derived after a sign twist are compared with computed ones, on every
    # field but GF(2)
    derived = Counter()
    for rank in ranks:
        for q in mutation_class(family, rank):
            for fs in ALL_FIELDS:
                a = cached_algebra(q, fs.characteristic)
                res = _CountedSteps(a)
                res.extend_to(12)
                derived[fs.characteristic] += _derived_levels(res, 12)
                ref = FullSpanResolution(a)
                ref.extend_to(12)
                assert (_resolution_state(res), res.total_dim) == (_resolution_state(ref), ref.total_dim)
                n = a.vertex_count
                cartan = {(s, t): len(a.parallel.get((s, t), ()))
                          for s in range(1, n + 1) for t in range(1, n + 1)}
                assert res.levels[0].slice_dims == {key: c - (key[0] == key[1]) for key, c in cartan.items()
                                                    if c - (key[0] == key[1])}
                assert set(ref.kernels) == {res.distinct_index(i) for i in range(1, len(res.levels) - 1)}
                for i, kernels in ref.kernels.items():
                    r, prev = res.levels[i].slice_dims, res.levels[i - 1].slice_dims
                    blocks = level_blocks(a, res.levels[i])
                    for (s, t) in cartan:
                        cols = [j for j, c in enumerate(blocks.get((s, t), ())) if c[2] == t - 1]
                        vectors = [[v[j] for j in cols] for v in kernels.get((s, t), ())]
                        assert matrix_rank(vectors, len(cols), fs) == r.get((s, t), 0), (q, fs, i)
                        assert len(cols) - r.get((s, t), 0) == prev.get((s, t), 0), (q, fs, i)
                        assert len(kernels.get((s, t), ())) == sum(
                            r.get((s, u), 0) * cartan[(u, t)] for u in range(1, n + 1)), (q, fs, i)
                assert fs.characteristic or res.obstruction in (1, -1), q
    assert derived[2] == 0 and all(derived[c] for c in (3, 5, 0)), derived


class _CountedFullSpan(FullSpanResolution):
    """The reference step, recording per step the count of each block with a
    slice kernel next to the generators the reference finds in each block."""

    def __init__(self, a):
        self.steps = []
        super().__init__(a)

    def _full_top(self, lvl, kernels):
        gens, images = super()._full_top(lvl, kernels)
        tops = self._top_counts(lvl, self._slice_kernels(len(self.levels) - 1))
        counts = {key: count for key, (count, _) in tops.items()}
        self.steps.append((counts, Counter(gens)))
        return gens, images


@pytest.mark.parametrize("family,ranks", [("A", range(2, 6)), ("D", (4, 5))], ids=["A2-A5", "D4-D5"])
def test_top_count_is_the_reference_generator_count(family, ranks):
    # the count reads the top on the columns (g, p, e_t) alone; the reference
    # covers the whole block and keeps every residue
    seen = Counter()
    for rank in ranks:
        for q in mutation_class(family, rank):
            for fs in (GF2, GF3, GF5, QQ):
                res = _CountedFullSpan(cached_algebra(q, fs.characteristic))
                res.extend_to(8)
                for n, (counts, found) in enumerate(res.steps, 2):
                    assert set(found) <= set(counts), (q, fs, n)  # only kernel blocks
                    assert counts == {key: found[key] for key in counts}, (q, fs, n)
                    seen.update(c > 0 for c in counts.values())
    assert seen[True] and seen[False]


class _RadicalSpans(BimoduleResolution):
    """Records, per counted block of each step, the rows that span its block
    of rad*K + K*rad in the echelon of _radical_echelon."""

    def __init__(self, a):
        self.spans = []  # (level, block key, rows)
        super().__init__(a)

    def _radical_echelon(self, lvl, key, kernel, rad):
        ech, width, lifts = super()._radical_echelon(lvl, key, kernel, rad)
        rows = [row[width:] for j, row in ech.pivot_rows.items() if j >= width]
        self.spans.append((len(self.levels) - 1, key, rows))
        return ech, width, lifts


@pytest.mark.parametrize("family,ranks", [("A", range(2, 7)), ("D", range(4, 7)), ("E", (6,))],
                         ids=["A2-A6", "D4-D6", "E6"])
def test_radical_span_is_the_preimage_of_the_slice_span(family, ranks):
    # the kernel vectors of a counted block whose part on the columns
    # (g, p, e_t) lies in the span of the arrow multiples of the slice kernels
    # span what the reference spans with the arrow multiples of the
    # neighbouring kernel blocks: the block of rad*K + K*rad
    seen = Counter()
    for rank in ranks:
        for q in mutation_class(family, rank):
            for fs in ALL_FIELDS:
                a = cached_algebra(q, fs.characteristic)
                res = _RadicalSpans(a)
                res.extend_to(8)
                steps = {}
                for i, key, rows in res.spans:
                    if i not in steps:
                        kernels = block_kernels(res, i, assembled_blocks(res, i))[0]
                        steps[i] = level_blocks(a, res.levels[i]), kernels
                    blocks, kernels = steps[i]
                    ref = list(radical_multiples(a, blocks, kernels, key))
                    ncols = len(blocks[key])
                    assert matrix_rank(rows, ncols, fs) == len(rows) == matrix_rank(ref, ncols, fs) \
                        == matrix_rank(rows + ref, ncols, fs), (q, fs, i, key)
                    seen[bool(rows)] += 1
    assert seen[True] and seen[False]


@pytest.mark.parametrize("char", [2, 3, 5, 0])
def test_one_column_elimination_matches_the_rref_route(char):
    # a one-column block is read off without an elimination: rank 1 if it has
    # a row (_assemble keeps only nonzero entries), else the unit kernel
    # vector; over QQ the minor is the first row's entry
    fs = FieldSpec(char)
    res = BimoduleResolution(cached_algebra(oriented_cycle(3), char))
    entries = [1, char - 1] if char else [1, -2, Fraction(-3, 7)]
    cases = [[]] + [[x] for x in entries] + [entries, entries[::-1]]
    for case in cases:
        mat = [[x] for x in case]
        if char:
            rank, pivots = rref_mod(mat, 1, char)
            minor = 1
        else:
            rank, pivots, minor = rref_frac(mat, 1)
        want = rank, minor, kernel_from_rref(mat, 1, pivots, fs) if rank < 1 else []
        rows = {(0, k, 0): [x] for k, x in enumerate(case)}
        assert res._eliminate(rows, 1) == want, case


@pytest.mark.parametrize("name,q,char", PERIOD_SAMPLE, ids=[c[0] for c in PERIOD_SAMPLE])
def test_kernel_step_matches_column_image_reference(name, q, char):
    # the kernel step forms p * image(g) once per (generator, left path), keeps
    # a row per target coordinate it meets and lists a block on first read;
    # the reference computes every column image on its own, into every row of
    # every block built in one pass, and reads a kernel off every block
    a = cached_algebra(q, char)
    res = BimoduleResolution(a)
    res.extend_to(12)
    ref = ColumnImageResolution(a)
    ref.extend_to(12)
    assert _resolution_state(res) == _resolution_state(ref)
    for i in range(len(res.levels)):
        lvl = res.levels[i]
        blocks = level_blocks(a, lvl)
        assert {key: lvl.block(key)[0] for key in blocks} == blocks, i
        assert lvl.block((0, 0))[0] == [] and lvl.dim == sum(map(len, blocks.values())), i
        assert lvl.slices == {key: cols for key, coords in blocks.items()
                              if (cols := [c for c in coords if c[2] == key[1] - 1])}, i
        if i and res.distinct_index(i) == i:  # the augmentation d_0 is not formed
            rows = EagerLevel(a, res.levels[i - 1]).blocks
            want = {key: {rows[key][r]: row for r, row in enumerate(mat) if any(row)}
                    for key, mat in column_image_blocks(res, i).items()}
            assert res._assemble(blocks, lvl.images) == want, i


@pytest.mark.parametrize("family,ranks", [("A", range(2, 7)), ("D", range(4, 7)), ("E", (6,))],
                         ids=["A2-A6", "D4-D6", "E6"])
def test_level_one_from_the_arrows_is_the_augmentation_kernel_top(family, ranks):
    # level 1 is written down from the arrows; the reference finds it as the
    # top of the augmentation's kernel, down to the order of each image's terms
    for rank in ranks:
        for q in mutation_class(family, rank):
            for char in (2, 3, 5, 0):
                a = cached_algebra(q, char)
                res = BimoduleResolution(a)
                gens, images, kernel_dim = augmentation_level_one(a)
                assert res.levels[1].gens == gens, (q, char)
                assert [list(img.items()) for img in res.levels[1].images] == \
                    [list(img.items()) for img in images], (q, char)
                assert kernel_dims(res) == [kernel_dim], (q, char)


def _times_path(a, vec, path):
    """vec * path for vec {(generator, basis path): coefficient} in a free right module."""
    out = {}
    for (g, q), c in vec.items():
        for k, m in a.mult.get((q, path), ()):
            out[(g, k)] = out.get((g, k), 0) + c * m
    return out


def simple_ext_dims(a, vertex, top):
    """[Counter {b: dim Ext^n_A(S_vertex, S_b)} for n = 0..top].

    Convention: right A-modules, paths composed left to right, so e_b A is
    spanned by the paths starting at b and P_b = e_b A covers S_b.  In the
    minimal projective resolution of S_vertex, P_b occurs dim Ext^n(S_vertex,
    S_b) times in the n-th term, read here as the top of the (n-1)-th syzygy
    at b.  With this convention, generator (a, b) of level n of the bimodule
    resolution is a summand A e_a (x) e_b A, counted dim Ext^n(S_a, S_b)
    times (Happel, LNM 1404, 1989).
    """
    fld = a.field
    paths_from = {}
    arrows_into = {}
    for i, p in enumerate(a.basis):
        paths_from.setdefault(p[0], []).append(i)
        if len(p) == 2:
            arrows_into.setdefault(p[1], []).append(i)

    def block(gens, b):
        """Basis of (sum of the e_v A, v in gens) e_b: (generator, path ending at b)."""
        return [(g, q) for g, v in enumerate(gens) for q in paths_from[v] if a.basis[q][-1] == b]

    def dense(vec, basis):
        pos = {c: j for j, c in enumerate(basis)}
        row = [0] * len(basis)
        for c, x in vec.items():
            row[pos[c]] = fld.element(x)
        return row

    gens = [vertex]
    kernel = {}  # the kernel of P_vertex -> S_vertex is the radical, by right vertex
    for i in paths_from[vertex]:
        if len(a.basis[i]) > 1:
            kernel.setdefault(a.basis[i][-1], []).append({(0, i): 1})
    dims = [Counter({vertex: 1})]
    for _ in range(top):
        # the top of the kernel: kernel vectors at b outside (kernel * rad) e_b
        tops = []
        for b in sorted(kernel):
            basis = block(gens, b)
            rows = [dense(_times_path(a, v, c), basis)
                    for c in arrows_into.get(b, ()) for v in kernel.get(a.basis[c][0], ())]
            rank = matrix_rank(rows, len(basis), fld)
            for v in kernel[b]:
                rows.append(dense(v, basis))
                if matrix_rank(rows, len(basis), fld) > rank:
                    rank += 1
                    tops.append((b, v))
                else:
                    rows.pop()
        dims.append(Counter(b for b, _ in tops))
        # the next syzygy: the kernel of the sum of the P_b onto those generators
        new_gens = [b for b, _ in tops]
        kernel = {}
        for b in sorted({a.basis[q][-1] for v in new_gens for q in paths_from[v]}):
            cols = block(new_gens, b)
            basis = block(gens, b)
            mat = [list(row) for row in zip(*(dense(_times_path(a, tops[g][1], q), basis)
                                              for g, q in cols))]
            _, pivots = rref(mat, len(cols), fld)
            vectors = kernel_from_rref(mat, len(cols), pivots, fld)
            if vectors:
                kernel[b] = [{cols[j]: x for j, x in enumerate(v) if x} for v in vectors]
        gens = new_gens
    return dims


def _level_gens(res, n):
    """The generators of level n: past the level where every thread has
    repeated, those of each thread at the level hom_parts reads for it."""
    if n < len(res.levels):
        return res.levels[n].gens
    return [res.levels[m].gens[g] for m, t in res.hom_parts(n) for g in res.levels[m].threads[t]]


MINIMALITY_CASES = [
    (f"{name}-{char}", q, char)
    for name, q in [
        ("A4-seed", dynkin_seed("A", 4)),
        *((f"A5-{k}", q) for k, q in enumerate(sample_by_canonical(mutation_class("A", 5), 2))),
        *((f"D5-{k}", q) for k, q in enumerate(sample_by_canonical(mutation_class("D", 5), 2))),
        *((f"E6-{k}", q) for k, q in enumerate(sample_by_canonical(mutation_class("E", 6), 2))),
        ("D5-triangles", D5_TRIANGLES),
        ("cycle-3", oriented_cycle(3)),
        ("cycle-4", oriented_cycle(4)),
    ]
    for char in (2, 0)
]


@pytest.mark.parametrize("name,q,char", MINIMALITY_CASES, ids=[c[0] for c in MINIMALITY_CASES])
def test_generators_count_ext_between_simples(name, q, char):
    # exactness cannot see a redundant generator; minimality can: block (a, b)
    # of level n holds dim Ext^n(S_a, S_b) generators
    a = cached_algebra(q, char)
    res = BimoduleResolution(a)
    res.extend_to(6)
    for v in range(1, a.vertex_count + 1):
        ext = simple_ext_dims(a, v, 6)
        for n in range(7):
            got = Counter(b for av, b in _level_gens(res, n) if av == v)
            assert got == ext[n], (v, n)


def test_resolution_budget_skips_shared_levels(monkeypatch):
    a = cached_algebra(oriented_cycle(3), 2)
    length = 12
    res = BimoduleResolution(a)
    res.extend_to(length)
    j, d = res.period
    built = sum(lvl.dim for lvl in res.levels[:j + d + 1])  # level j + d was built, then shared
    assert j + d < length and res.total_dim == built < sum(lvl.dim for lvl in res.levels)
    monkeypatch.setattr(cthh.oracle, "DEFAULT_BUDGET", built)
    BimoduleResolution(a).extend_to(length)
    monkeypatch.setattr(cthh.oracle, "DEFAULT_BUDGET", built - 1)
    with pytest.raises(ResolutionBudgetError):
        BimoduleResolution(a).extend_to(length)


def test_dims_invariant_under_relabeling():
    q = Quiver.make(4, [(1, 2), (2, 3), (3, 1), (2, 4), (4, 1)])
    perm = {1: 4, 2: 1, 3: 3, 4: 2}
    relabeled = relabel(q, perm)
    for char in (0, 2):
        d1 = hh_dims(cached_algebra(q, char), [FieldSpec(char)], max_i=6)[0]
        d2 = hh_dims(cached_algebra(relabeled, char), [FieldSpec(char)], max_i=6)[0]
        assert d1 == d2


class PlantedFault(BimoduleResolution):
    """Applies corrupt(resolution, gens, images) to the generators and images
    of level `level` as its extend_once step builds them, before they are checked."""

    def __init__(self, a, level, corrupt):
        super().__init__(a)
        self.planted = (level, corrupt)

    def _top(self, lvl, counts, kernels):
        gens, images = super()._top(lvl, counts, kernels)
        level, corrupt = self.planted
        if len(self.levels) == level:
            corrupt(self, gens, images)
        return gens, images


def _term_in_other_block(res, gens, images):
    blocks = level_blocks(res.a, res.levels[-1])  # the level the new images map into
    images[0][next(c for key in sorted(blocks) if key != gens[0] for c in blocks[key])] = 1


def _doubled_coefficient(res, gens, images):
    coord, c = next(iter(images[0].items()))
    images[0][coord] = 2 * c


def _dropped_generator(res, gens, images):
    del gens[-1], images[-1]


def _duplicated_generator(res, gens, images):
    gens.append(gens[0])
    images.append({coord: 2 * c for coord, c in images[0].items()})


@pytest.mark.parametrize("corrupt,message", [
    (_term_in_other_block, "differential broke the vertex bigrading"),
    (_doubled_coefficient, "d o d != 0"),
    (_dropped_generator, "resolution not exact at step 3"),
], ids=["wrong-block", "wrong-coefficient", "dropped-generator"])
def test_planted_fault_raises_invariant_error(corrupt, message):
    # a wrong block or coefficient is caught when level 3 is built, a dropped
    # generator when the next step finds the image of d_3 short of the kernel
    a = cached_algebra(D5_TRIANGLES, 3)
    BimoduleResolution(a).extend_to(5)  # the same steps pass without the fault
    res = PlantedFault(a, 3, corrupt)
    with pytest.raises(InvariantError, match=message):
        while len(res.levels) < 6:
            res.extend_once()


# a member of D8 whose oriented 3-cycle 2->3->5->8->3 and 4-cycle 3->6->7->2->3
# meet at vertex 3: from level 2 on its levels split into a thread of 4
# generators and one of 3, which repeat by level 10; the whole level repeats
# only at (3, 24)
D8_TWO_THREADS = Quiver.make(8, [(1, 8), (2, 3), (3, 5), (3, 6), (4, 7), (5, 8), (6, 7), (7, 2), (8, 3)])


def _other_thread_added(res, gens, images):
    """Adds to a generator image of level 3 the image of an earlier generator of
    the same block and another thread: it still lies in the kernel of d_2."""
    thread = {g: t for t, gs in res.levels[2].threads.items() for g in gs}
    reads = [thread[next(iter(img))[0]] for img in images]
    h, k = next((h, k) for h in range(len(gens)) for k in range(h)
                if gens[h] == gens[k] and reads[h] != reads[k])
    for coord, c in images[k].items():
        images[h][coord] = images[h].get(coord, 0) + c


@pytest.mark.parametrize("char", [3, 0])
def test_image_reading_two_threads_raises_invariant_error(char):
    # d o d = 0 and the vertex bigrading still hold, but the image reads both
    # threads of level 2, which the per-thread recurrence rules out
    a = cached_algebra(D8_TWO_THREADS, char)
    res = PlantedFault(a, 3, _other_thread_added)
    with pytest.raises(InvariantError, match=re.escape("generator 2 of level 3 reads threads [1, 2] of level 2")):
        res.extend_to(5)


@pytest.mark.parametrize("char", [2, 3, 5, 0])
def test_threads_repeat_before_the_whole_level(char):
    # extend_to stops at level 10, once both threads (and the two arrows that
    # no relation reads) have repeated; past it, hom_parts reads each thread
    # at a level whose thread state the whole-level resolution repeats there
    a = cached_algebra(D8_TWO_THREADS, char)
    res, whole = BimoduleResolution(a), WholePeriodResolution(a)
    res.extend_to(30)
    whole.extend_to(30)
    assert whole.period == (3, 24) and res.period is None and len(res.levels) == 11
    assert res.thread_periods == [(3, 1), (2, 8), (2, 3) if char == 2 else (2, 6), (3, 1)]
    assert {t: len(hs) for t, hs in res.levels[5].threads.items()} == {1: 4, 2: 3}
    labels = thread_components(whole.levels)
    assert max(labels[1]) + 1 == len(res.thread_periods)
    for n in range(2, 31):
        parts = res.hom_parts(n)
        assert sorted(t for _, t in parts) == sorted(set(labels[n])), n
        for m, t in parts:
            assert thread_state(whole.levels, labels, n, t) == thread_state(whole.levels, labels, m, t), (n, t)
    assert hh_dims(a, [a.field], max_i=30)[0] == whole_period_hh_dims(a, 30)


THREAD_REFERENCE_CLASSES = [("A", range(2, 8)), ("D", range(4, 8)), ("E", (6,))]


@pytest.mark.parametrize("family,ranks", THREAD_REFERENCE_CLASSES, ids=["A2-A7", "D4-D7", "E6"])
def test_thread_route_matches_the_whole_period_reference(family, ranks):
    # hh_dims stops once every thread has repeated and sums each thread's Hom
    # ranks at its own distinct index; the reference resolves until the whole
    # level repeats and reads whole-level Hom ranks
    for rank in ranks:
        for q in mutation_class(family, rank):
            rels = generate_relations(q)
            for fs in ALL_FIELDS:
                a = build_algebra(q, rels, fs)
                assert hh_dims(a, [fs], max_i=16)[0] == whole_period_hh_dims(a, 16), (q, fs)


@pytest.mark.parametrize("n", range(3, 10))
def test_thread_route_matches_the_whole_period_reference_on_cycles(n):
    for fs in ALL_FIELDS:
        a = cached_algebra(oriented_cycle(n), fs.characteristic)
        assert hh_dims(a, [fs], max_i=16)[0] == whole_period_hh_dims(a, 16), fs


D6_TWIST = Quiver.make(6, [(2, 1), (3, 6), (4, 6), (5, 3), (5, 4), (6, 1), (6, 5)])
TWIST_CI = Quiver.make(4, [(1, 4), (2, 3), (3, 4), (4, 2)])  # the quiver of the CI check


def _flipped(images):
    coord, c = next(iter(images[0].items()))
    images[0][coord] = -c


def _doubled(images):
    coord, c = next(iter(images[0].items()))
    images[0][coord] = 2 * c


def _dropped(images):
    del images[0][next(iter(images[0]))]


class _PlantedForTheTwist(_CountedSteps):
    """The sign twist search at level n reads level n with plant(images)
    applied to a copy of its images; the level itself is kept."""

    def __init__(self, a, plant):
        self.plant = plant
        super().__init__(a)

    def _sign_twist(self, j, n):
        lvl = self.levels[n]
        images = [dict(img) for img in lvl.images]
        self.plant(images)
        self.levels[n] = copy.copy(lvl)
        self.levels[n].images = [{c: self.field.element(v) for c, v in img.items()} for img in images]
        try:
            return super()._sign_twist(j, n)
        finally:
            self.levels[n] = lvl


@pytest.mark.parametrize("q,plant,chars", [
    (D6_TWIST, _flipped, (3, 5, 0)),
    (TWIST_CI, _doubled, (5, 0)),
    (TWIST_CI, _dropped, (3, 5, 0)),
], ids=["flipped-sign", "ratio-2", "dropped-term"])
def test_planted_fault_in_the_twist_search_derives_nothing(monkeypatch, q, plant, chars):
    # level 6 is level 3 up to signs on both quivers; a coefficient whose sign
    # contradicts the signs the others fix (on this D6 member), a ratio other
    # than +-1 or a missing term leaves no twist, so every level up to the
    # period is computed and the dimensions do not change
    for char in chars:
        a = cached_algebra(q, char)
        res, planted = _CountedSteps(a), _PlantedForTheTwist(a, plant)
        res.extend_to(12)
        planted.extend_to(12)
        # the threads through the triangles repeat (2, 6), before the whole
        # level would repeat (3, 6)
        assert res.period is planted.period is None
        assert res.thread_periods[1] == planted.thread_periods[1] == (2, 6)
        assert (_derived_levels(res, 12), _derived_levels(planted, 12)) == (2, 0)
        assert _resolution_state(planted) == _resolution_state(res)
        want = hh_dims(a, [a.field], max_i=11)
        monkeypatch.setattr(cthh.oracle, "BimoduleResolution", lambda a: _PlantedForTheTwist(a, plant))
        assert hh_dims(a, [a.field], max_i=11) == want
        monkeypatch.undo()


@pytest.mark.parametrize("char", [3, 5, 0])
def test_sign_flipped_where_the_twist_search_cannot_see_it_fails_d_o_d(char):
    # here no other equation fixes the flipped coefficient's sign, so the
    # search finds signs that fit the flipped level 6 and not the real one;
    # d o d = 0 fails on level 7, the first level derived from them
    res = _PlantedForTheTwist(cached_algebra(TWIST_CI, char), _flipped)
    with pytest.raises(InvariantError, match="d o d != 0"):
        res.extend_to(12)
    assert len(res.levels) == 8 and res.steps == 5


class _OtherSigns(_CountedSteps):
    """Takes the other twist with the same arrow signs: every generator sign of
    levels n - 1 and n negated, which fits the same equations."""

    def _sign_twist(self, j, n):
        twist = super()._sign_twist(j, n)
        if twist:
            twist[2][n] = [1 - e for e in twist[2][n]]
        return twist


@pytest.mark.parametrize("char", [3, 5, 0])
def test_derived_levels_do_not_depend_on_which_twist_is_taken(char):
    # the lead of each derived image takes the sign that keeps it 1, so both
    # twists derive the levels extend_once builds
    for q in (D6_TWIST, TWIST_CI):
        a = cached_algebra(q, char)
        res, ref = _OtherSigns(a), FullSpanResolution(a)
        res.extend_to(12)
        ref.extend_to(12)
        assert _derived_levels(res, 12) == 2
        assert _resolution_state(res) == _resolution_state(ref)


class _WrongSliceRecord(_CountedSteps):
    """Records one slice kernel dimension of d_5 one too high, after the step
    from level 5 has checked its ranks."""

    def _slice_kernels(self, i):
        out = super()._slice_kernels(i)
        if i == 5:
            dims = self.levels[5].slice_dims = dict(self.levels[5].slice_dims)
            dims[min(dims)] += 1
        return out


@pytest.mark.parametrize("char", [3, 0])
def test_exactness_before_a_twist_is_still_checked(char):
    # level 6 is level 3 up to signs, but the step from level 6 is what checks
    # exactness at level 5, against the slice kernel dimensions of d_5; the
    # twist is taken only when those equal d_2's, so that check is not skipped
    res = _WrongSliceRecord(cached_algebra(TWIST_CI, char))
    with pytest.raises(InvariantError, match="resolution not exact at step 6"):
        res.extend_to(12)


class _ReadBlocks(BimoduleResolution):
    """Records, per step, the counts of the top and the blocks of the full pass."""

    def __init__(self, a):
        self.steps = {}
        super().__init__(a)

    def _top_counts(self, lvl, slice_kernels):
        tops = super()._top_counts(lvl, slice_kernels)
        self.steps[len(self.levels) - 1] = [{key: count for key, (count, _) in tops.items()}]
        return tops

    def _kernels(self, i, keys):
        self.steps[i].append(set(keys))
        return super()._kernels(i, keys)


def test_full_eliminations_run_only_on_read_blocks():
    # the full pass row-reduces exactly the blocks counted > 0, each with a
    # column; every other block has its slice pass only
    full = total = 0
    for q in mutation_class("D", 5):
        for fs in ALL_FIELDS:
            a = cached_algebra(q, fs.characteristic)
            res = _ReadBlocks(a)
            res.extend_to(8)
            for i, (counts, keys) in res.steps.items():
                assert keys == {key for key, count in counts.items() if count}, (q, fs, i)
                blocks = level_blocks(a, res.levels[i])
                assert all(blocks.get(key) for key in keys), (q, fs, i)
                full += len(keys)
                total += len(blocks)
    # fewer than a quarter of the blocks are row-reduced whole; the steps to the
    # levels derived from a sign twist run no pass (7646 blocks without them),
    # and no step runs once every thread has repeated
    assert (full, total) == (1495, 6650)


class _PlantedSliceFault(BimoduleResolution):
    """Drops a row of the slice matrix of block `key` as step `level` assembles
    it: the image of d_level (x) S_t there loses rank."""

    def __init__(self, a, level, key):
        super().__init__(a)
        self.planted = (level, key)

    def _assemble(self, columns, images):
        mats = super()._assemble(columns, images)
        level, key = self.planted
        if len(self.levels) - 1 == level and columns is self.levels[level].slices:
            rows = mats[key]
            del rows[next(iter(rows))]
        return mats


@pytest.mark.parametrize("char", [3, 0])
def test_fault_in_a_block_the_top_does_not_read_is_not_exact(char):
    # the top at step 3 reads no kernel of block key, so only the slice pass
    # row-reduces it; its exactness check must still see the rank it lost
    a = cached_algebra(D5_TRIANGLES, char)
    clean = _ReadBlocks(a)
    clean.extend_to(5)
    counts, read = clean.steps[3]
    key = min(key for key in clean.levels[3].slices
              if key not in read and clean.levels[2].slice_dims.get(key))
    res = _PlantedSliceFault(a, 3, key)
    message = f"resolution not exact at step 3: image 0, kernel 1 in the slice of block {key}"
    with pytest.raises(InvariantError, match=re.escape(message)):
        res.extend_to(5)


class _PlantedFullFault(BimoduleResolution):
    """Zeroes the matrix of the first block with rows that the full pass of step
    `level` assembles; the slice pass of that step is left as it is."""

    def __init__(self, a, level):
        super().__init__(a)
        self.planted = level
        self.planted_key = None

    def _assemble(self, columns, images):
        mats = super()._assemble(columns, images)
        if len(self.levels) - 1 == self.planted and columns is not self.levels[self.planted].slices:
            self.planted_key = min(key for key, rows in mats.items() if rows)
            mats[self.planted_key] = {}
        return mats


@pytest.mark.parametrize("char", [3, 0])
def test_fault_in_a_counted_block_fails_the_full_pass_exactness(char):
    # the slice pass of step 3 sees the true ranks, so only the full pass's
    # check, rank of block (s, t) against sum_u r(s, u) dim e_u A e_t, can
    # see the block that lost its rows
    a = cached_algebra(D5_TRIANGLES, char)
    res = _PlantedFullFault(a, 3)
    with pytest.raises(InvariantError, match=r"resolution not exact at step 3: image 0, kernel [1-9]\d* in block \("):
        res.extend_to(5)
    assert res.planted_key is not None and res.levels[3].slice_dims is not None


class PlantedCount(BimoduleResolution):
    """Adds delta to the count of one block, the first in sorted order whose
    count stays between least and the dimension of its slice kernel, as the
    extend_once step builds level `level`."""

    def __init__(self, a, level, delta, least=0):
        super().__init__(a)
        self.planted = (level, delta, least)
        self.planted_key = None

    def _top_counts(self, lvl, slice_kernels):
        tops = super()._top_counts(lvl, slice_kernels)
        level, delta, least = self.planted
        if len(self.levels) == level:
            self.planted_key = next(key for key in sorted(tops)
                                    if least <= tops[key][0] + delta <= len(slice_kernels[key]))
            count, rad = tops[self.planted_key]
            tops[self.planted_key] = count + delta, rad
        return tops


def test_count_one_too_low_is_not_exact():
    # the block then lifts one generator too few, so the image of d_3 falls
    # short of the kernel of d_2 at the next step
    a = cached_algebra(D5_TRIANGLES, 3)
    res = PlantedCount(a, 3, -1)
    with pytest.raises(InvariantError, match="resolution not exact at step 3"):
        while len(res.levels) < 6:
            res.extend_once()
    assert res.planted_key is not None


def test_count_one_too_high_fails_the_radical_dimension_check():
    # the block's rad*K + K*rad, the kernel vectors whose slice part lies in
    # the span R of the arrow multiples, has dimension dim K - c for the true
    # count c, not one less
    a = cached_algebra(D5_TRIANGLES, 3)
    res = PlantedCount(a, 3, 1)
    with pytest.raises(InvariantError, match=r"top count of block \(\d, \d\) off at step 2: rad"):
        while len(res.levels) < 6:
            res.extend_once()
    assert res.planted_key is not None


def test_count_one_too_low_on_a_block_still_counted_fails_the_radical_dimension_check():
    # block (6, 6) of level 3 is counted 2; planted at 1 it is still row-reduced
    # whole, and its rad*K + K*rad has dimension dim K - 2, not dim K - 1
    q = Quiver.make(6, [(1, 5), (2, 3), (3, 6), (4, 6), (5, 4), (6, 2), (6, 5)])  # a member of A6
    res = PlantedCount(cached_algebra(q, 3), 3, -1, least=1)
    with pytest.raises(InvariantError, match=r"top count of block \(6, 6\) off at step 2: rad"):
        res.extend_to(5)


def test_duplicated_generator_fails_minimality_alone():
    # a copy of a generator, its image doubled, adds nothing to the image, so
    # exactness and d o d = 0 still hold, but level 3 no longer holds
    # dim Ext^3(S_a, S_b) generators in block (a, b)
    a = cached_algebra(D5_TRIANGLES, 3)
    res = PlantedFault(a, 3, _duplicated_generator)
    while len(res.levels) < 6:
        res.extend_once()
    want = Counter({(v, b): m for v in range(1, a.vertex_count + 1)
                    for b, m in simple_ext_dims(a, v, 3)[3].items()})
    got = Counter(res.levels[3].gens)
    assert got - want == Counter({res.levels[3].gens[0]: 1}) and not want - got


@pytest.mark.parametrize("name, message", [
    ("center_dim", "HH\\^0 disagrees with the center"),
    ("derivation_space_dim", "HH\\^1 disagrees with Der/Inn"),
])
@pytest.mark.parametrize("char", [0, 2])
def test_cross_check_off_by_one_raises_invariant_error(monkeypatch, name, message, char):
    real = getattr(cthh.oracle, name)
    monkeypatch.setattr(cthh.oracle, name, lambda a: real(a) + 1)
    a = cached_algebra(oriented_cycle(3), 0)
    with pytest.raises(InvariantError, match=message):
        hh_dims(a, [FieldSpec(char)], max_i=2)


def _run_optimized(code):
    """Standard output lines of `python -O -c code` with this checkout's cthh."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return run.stdout.splitlines()


def test_invariant_checks_survive_optimize():
    # a wrong center dimension must stop hh_dims even with asserts compiled out
    code = (
        "import cthh.oracle as o\n"
        "from cthh import QQ, Quiver, build_algebra, generate_relations\n"
        "from cthh.errors import InvariantError\n"
        "q = Quiver.make(3, [(1, 2), (2, 3), (3, 1)])\n"
        "a = build_algebra(q, generate_relations(q), QQ)\n"
        "o.center_dim = lambda a: 2\n"
        "try:\n"
        "    print(__debug__, o.hh_dims(a, [a.field], max_i=3)[0])\n"
        "except InvariantError as e:\n"
        "    print(__debug__, type(e).__name__)\n"
    )
    assert _run_optimized(code) == ["False InvariantError"]


def test_planted_fault_survives_optimize():
    # the d o d check of extend_once still runs with asserts compiled out
    code = (
        "from cthh import GF3, Quiver, build_algebra, generate_relations\n"
        "from cthh.errors import InvariantError\n"
        "from cthh.oracle import BimoduleResolution\n"
        f"q = Quiver.make(5, {list(D5_TRIANGLES.arrows)})\n"
        "class Planted(BimoduleResolution):\n"
        "    def _top(self, lvl, counts, kernels):\n"
        "        gens, images = super()._top(lvl, counts, kernels)\n"
        "        if len(self.levels) == 3:\n"
        "            coord, c = next(iter(images[0].items()))\n"
        "            images[0][coord] = 2 * c\n"
        "        return gens, images\n"
        "try:\n"
        "    Planted(build_algebra(q, generate_relations(q), GF3)).extend_to(5)\n"
        "    print(__debug__, 'no error')\n"
        "except InvariantError as e:\n"
        "    print(__debug__, e)\n"
    )
    assert _run_optimized(code) == ["False d o d != 0"]


# ---------------------------------------------------------------------------
# One resolution over QQ for every characteristic
# ---------------------------------------------------------------------------

ALL_FIELDS = [FieldSpec(c) for c in (2, 3, 5, 0)]


def _per_field(q, max_i):
    return [hh_dims(cached_algebra(q, fs.characteristic), [fs], max_i=max_i)[0] for fs in ALL_FIELDS]


@pytest.mark.parametrize("family,ranks", [("A", range(2, 6)), ("D", range(4, 7)), ("E", (6,))],
                         ids=["A2-A5", "D4-D6", "E6"])
def test_hh_dims_over_qq_matches_per_field_hh_dims(family, ranks):
    # the Hom complex of the resolution over QQ, reduced mod p, gives what a
    # resolution over GF(p) gives, with no fallback on these classes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rank in ranks:
            for q in mutation_class(family, rank):
                got = hh_dims(cached_algebra(q, 0), ALL_FIELDS, max_i=8)
                assert got == _per_field(q, 8), q


@pytest.mark.parametrize("family,ranks", [("A", range(2, 7)), ("D", range(4, 7)), ("E", (6,))],
                         ids=["A2-A6", "D4-D6", "E6"])
def test_view_over_gfp_matches_the_reduced_table(family, ranks):
    # a view over GF(p) keeps the integer entries that vanish mod p; every
    # consumer reduces what it computes, so it gives what the reduced table gives
    for rank in ranks:
        for q in mutation_class(family, rank):
            for fs in (GF2, GF3, GF5):
                got = []
                for alg in (cached_algebra(q, 0).over(fs), reduced_over(cached_algebra(q, 0), fs)):
                    res = BimoduleResolution(alg)
                    res.extend_to(6)
                    got.append((_resolution_state(res), res.total_dim,
                                [res.hom_differential_rank(m, [fs], t)
                                 for i in range(1, 7) for m, t in res.hom_parts(i)],
                                hh_dims(alg, [fs], max_i=6), center_dim(alg), derivation_space_dim(alg)))
                assert got[0] == got[1], (q, fs)


def test_hh_dims_rejects_another_field_of_an_algebra_over_gfp(monkeypatch):
    # every field is checked before the first level is built
    def no_step(self):
        raise AssertionError("extend_once called")

    monkeypatch.setattr(BimoduleResolution, "extend_once", no_step)
    with pytest.raises(ValueError, match="cannot move an algebra over GF\\(2\\) to QQ"):
        hh_dims(cached_algebra(oriented_cycle(3), 2), [GF2, QQ], max_i=2)


def test_hom_ranks_mod_p_match_the_reduced_differential(monkeypatch):
    # each distinct Hom differential of a resolution over QQ is row-reduced
    # once over QQ, and GF(p) takes that rank unless p divides its pivot minor;
    # either way it must be the rank of the differential reduced mod p
    fallbacks = Counter()
    real = BimoduleResolution._hom_rank

    def counting(self, i, field, thread=None):
        if field != self.field:
            fallbacks[field.characteristic] += 1
        return real(self, i, field, thread)

    monkeypatch.setattr(BimoduleResolution, "_hom_rank", counting)
    for family, ranks in (("A", range(2, 7)), ("D", range(4, 7)), ("E", (6,))):
        for q in (q for rank in ranks for q in mutation_class(family, rank)):
            res = BimoduleResolution(cached_algebra(q, 0))
            res.extend_to(9)
            for i, t in dict.fromkeys(p for i in range(1, 10) for p in res.hom_parts(i)):
                mat = hom_differential_reference(res, i, t)
                want = [matrix_rank([[fs.element(x) for x in row] for row in mat],
                                    len(res.hom_basis(i - 1, t)), fs) for fs in ALL_FIELDS]
                assert res.hom_differential_rank(i, ALL_FIELDS, t) == want, (q, i, t)
    # the fallback runs for every prime, e.g. on the minors +-2 and +-3 at level 4
    # of the oriented 3- and 4-cycle and +-5 on a D6 quiver
    assert sorted(fallbacks) == [2, 3, 5]
    for q, i, p in ((oriented_cycle(3), 4, 2), (oriented_cycle(4), 4, 3)):
        res = BimoduleResolution(cached_algebra(q, 0))
        res.extend_to(i)
        assert abs(res._hom_rank(i, QQ)[1]) == p


class _TimesThree(BimoduleResolution):
    """Multiplies the obstruction by 3 in the slice pass of d_n for n =
    PLANTED_LEVEL, so the certificate fails for p = 3 alone."""

    PLANTED_LEVEL = 2

    def _slice_kernels(self, i):
        out = super()._slice_kernels(i)
        if i == self.PLANTED_LEVEL:
            self.obstruction *= 3
        return out


def test_failed_certificate_falls_back_for_that_prime(monkeypatch):
    q = D5_TRIANGLES
    monkeypatch.setattr(cthh.oracle, "BimoduleResolution", _TimesThree)
    with pytest.warns(RuntimeWarning, match=r"Quiver\(5; .*not certified mod 3") as record:
        got = hh_dims(cached_algebra(q, 0), ALL_FIELDS, max_i=6)
    assert len(record) == 1
    assert got == _per_field(q, 6)


def test_top_differential_is_certified_before_the_period_closes(monkeypatch):
    # levels 0..3 of the triangle algebra hold no repeat yet, so d_3 (the
    # differential out of the top level) is row-reduced only for the
    # certificate, in hh_dims; a factor planted in that pass must still reach
    # the fallback
    q, max_i = oriented_cycle(3), 2
    res = BimoduleResolution(cached_algebra(q, 0))
    res.extend_to(max_i + 1)
    assert res.period is None and res.levels[max_i + 1].slice_dims is None and res.obstruction % 3
    monkeypatch.setattr(_TimesThree, "PLANTED_LEVEL", max_i + 1)
    monkeypatch.setattr(cthh.oracle, "BimoduleResolution", _TimesThree)
    with pytest.warns(RuntimeWarning, match="not certified mod 3"):
        got = hh_dims(cached_algebra(q, 0), ALL_FIELDS, max_i=max_i)
    assert got == _per_field(q, max_i)


def test_failed_certificate_on_a_twisted_level_falls_back_for_that_prime(monkeypatch):
    # level 6 is level 3 up to signs, so the step from level 6 takes its slice
    # data from the step from level 3 and runs no slice pass, and levels 7 and
    # 8 are derived: a factor 3 planted in the slice pass of d_3 stands for d_6
    q, max_i = TWIST_CI, 10
    clean = _CountedSteps(cached_algebra(q, 0))
    clean.extend_to(max_i + 1)
    assert clean.thread_periods[1] == (2, 6) and clean.steps == 5 and clean.obstruction % 3
    monkeypatch.setattr(_TimesThree, "PLANTED_LEVEL", 3)
    res = _TimesThree(cached_algebra(q, 0))
    res.extend_to(max_i + 1)
    assert res.levels[6].slice_dims is res.levels[3].slice_dims and res.obstruction == 3 * clean.obstruction
    monkeypatch.setattr(cthh.oracle, "BimoduleResolution", _TimesThree)
    with pytest.warns(RuntimeWarning, match="not certified mod 3") as record:
        got = hh_dims(cached_algebra(q, 0), ALL_FIELDS, max_i=max_i)
    assert len(record) == 1
    assert got == _per_field(q, max_i)


class _CertificatePasses(BimoduleResolution):
    """Records each instance, the levels it derives and the levels whose slice
    pass runs outside extend_once, for the certificate alone."""

    made = []

    def __init__(self, a):
        self.derived, self.passes, self.building = set(), [], False
        self.made.append(self)
        super().__init__(a)

    def _derive(self, m):
        self.derived.add(m)
        super()._derive(m)

    def extend_once(self):
        self.building = True
        try:
            super().extend_once()
        finally:
            self.building = False

    def _slice_kernels(self, i):
        if not self.building:
            self.passes.append(i)
        return super()._slice_kernels(i)


def test_certificate_runs_no_slice_pass_on_a_derived_level(monkeypatch):
    # a derived level carries the slice data of the step out of it from its
    # source, so hh_dims row-reduces only a top level that was computed and
    # neither repeats nor twists an earlier one: 19 of the 80 tops at max_i 6,
    # while 37 are derived
    monkeypatch.setattr(_CertificatePasses, "made", [])
    monkeypatch.setattr(cthh.oracle, "BimoduleResolution", _CertificatePasses)
    for q in mutation_class("D", 6):
        hh_dims(cached_algebra(q, 0), [GF3, QQ], max_i=6)
    passes = [(i, res) for res in _CertificatePasses.made for i in res.passes]
    assert all(i == 7 and i not in res.derived for i, res in passes)
    assert len(passes) == 19 and sum(7 in res.derived for res in _CertificatePasses.made) == 37


class _HalvingEchelon:
    """Hands each residue back halved; its rows stay as they are."""

    def __init__(self, ech):
        self.ech = ech

    def add(self, vec):
        return [Fraction(v, 2) for v in self.ech.add(vec)]


class _HalvedTop(BimoduleResolution):
    """Over QQ, halves the images _top writes for the first block of level
    length, the top of extend_to(length): still a resolution of A (their
    generators are rescaled) but not 2-integral.  halve is None once done."""

    def extend_to(self, length):
        self.halve = length if self.field == QQ else None
        super().extend_to(length)

    def _radical_echelon(self, lvl, key, kernel, rad):
        ech, width, lifts = super()._radical_echelon(lvl, key, kernel, rad)
        if len(self.levels) == self.halve:
            self.halve, ech = None, _HalvingEchelon(ech)
        return ech, width, lifts


def test_non_integral_image_falls_back_without_crashing(monkeypatch):
    q, max_i = oriented_cycle(3), 2
    monkeypatch.setattr(cthh.oracle, "BimoduleResolution", _HalvedTop)
    with pytest.warns(RuntimeWarning, match="not certified mod 2") as record:
        got = hh_dims(cached_algebra(q, 0), ALL_FIELDS, max_i=max_i)
    assert len(record) == 1  # GF(3) and GF(5) invert the denominator 2
    assert got == _per_field(q, max_i)


def test_non_integral_image_is_reduced_in_the_hom_complex(monkeypatch):
    # at max_i 3 the halved level carries a nonzero Hom differential, so the
    # 1/2 enters the Hom differential over QQ whose rank GF(3) and GF(5) take
    q, max_i = oriented_cycle(3), 3
    res = _HalvedTop(cached_algebra(q, 0))
    res.extend_to(max_i + 1)
    assert res.halve is None and res.obstruction % 2 == 0
    assert any(type(c) is Fraction for c in res.levels[max_i + 1].images[0].values())
    assert res.hom_differential_rank(max_i + 1, [QQ]) != [0]
    monkeypatch.setattr(cthh.oracle, "BimoduleResolution", _HalvedTop)
    with pytest.warns(RuntimeWarning, match="not certified mod 2") as record:
        got = hh_dims(cached_algebra(q, 0), ALL_FIELDS, max_i=max_i)
    assert len(record) == 1
    assert got == _per_field(q, max_i)


def test_relation_with_a_coefficient_two_falls_back_mod_two():
    # 2 (1->2->4) - (1->3->4) has the tip 1->3->4 with coefficient -1, so the
    # algebra builds over every field; nothing is planted, yet its QQ
    # resolution meets an even slice pivot minor and an image denominator 2,
    # and GF(2) alone falls back
    q, max_i = Quiver.make(4, [(1, 2), (1, 3), (2, 4), (3, 4)]), 8
    rels = (((1, 2), Relation(((2, QuiverPath((1, 2, 4))), (-1, QuiverPath((1, 3, 4)))))),)
    res = BimoduleResolution(build_algebra(q, rels))
    res.extend_to(max_i + 1)
    assert res.levels[max_i + 1].slice_dims is not None and res.obstruction == -4
    with pytest.warns(RuntimeWarning, match=r"Quiver\(4; .*not certified mod 2") as record:
        got = hh_dims(build_algebra(q, rels), ALL_FIELDS, max_i=max_i)
    assert len(record) == 1
    assert got == [(1, 1, 1) + (0,) * 6] + [(1,) + (0,) * 8] * 3
    assert got == [hh_dims(build_algebra(q, rels, fs), [fs], max_i=max_i)[0] for fs in ALL_FIELDS]


def test_fallback_survives_optimize():
    # the certificate and its fallback are branches, not asserts
    code = (
        "import warnings\n"
        "import cthh.oracle as o\n"
        "from cthh import FieldSpec, Quiver, build_algebra, generate_relations, hh_dims\n"
        f"q = Quiver.make(5, {list(D5_TRIANGLES.arrows)})\n"
        "rels = generate_relations(q)\n"
        "class Planted(o.BimoduleResolution):\n"
        "    def _slice_kernels(self, i):\n"
        "        out = super()._slice_kernels(i)\n"
        "        if i == 2:\n"
        "            self.obstruction *= 3\n"
        "        return out\n"
        "fields = [FieldSpec(c) for c in (2, 3, 5, 0)]\n"
        "want = [hh_dims(build_algebra(q, rels, fs), [fs], max_i=4)[0] for fs in fields]\n"
        "o.BimoduleResolution = Planted\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        "    got = o.hh_dims(build_algebra(q, rels), fields, max_i=4)\n"
        "print(__debug__, got == want, [str(w.message).split(': ')[1] for w in caught])\n"
    )
    assert _run_optimized(code) == [
        "False True ['the resolution over QQ is not certified mod 3; resolving over GF(3)']"]
