"""Standalone property suites over enumerated mutation classes.

Scope enumerated here: full classes A2-A5, D4-D5 plus fixed-size
deterministic samples of A6, A7, D6 and E6 for the quadratic/cubic checks.
Every instance enumerated by a suite must pass; there is no tolerance.
"""

import random

from conftest import (_column_image, cached_algebra, differential_target, level_blocks, matrix_rank,
                      multiply, mutation_class, relabel, sample_by_canonical)
from cthh.algebra import cartan
from cthh.fields import GF2
from cthh.oracle import BimoduleResolution, hh_dims
from cthh.quiver import Quiver, canonical_form, mutate, validate

FULL_SCOPE = [("A", 2), ("A", 3), ("A", 4), ("A", 5), ("D", 4), ("D", 5)]
SAMPLED_SCOPE = [("A", 6), ("A", 7), ("D", 6), ("E", 6)]
SAMPLE_SIZE = 12


def scope_quivers():
    out = []
    for fam, rank in FULL_SCOPE:
        out.extend(mutation_class(fam, rank))
    for fam, rank in SAMPLED_SCOPE:
        out.extend(sample_by_canonical(list(mutation_class(fam, rank)), SAMPLE_SIZE))
    return out


# --- reusable checks (imported by the acceptance suite) ---------------------

def check_mutation_involution(quivers):
    for q in quivers:
        base = Quiver(q.vertex_count, tuple(sorted(q.arrows)))
        for k in range(1, q.vertex_count + 1):
            m = mutate(q, k)
            validate(m)
            assert mutate(m, k) == base, (q, k)


def check_canonical_relabeling(quivers, permutations=100, seed=12345):
    rng = random.Random(seed)
    for q in quivers:
        want = canonical_form(q)
        n = q.vertex_count
        for _ in range(permutations):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            mapping = {i + 1: perm[i] for i in range(n)}
            assert canonical_form(relabel(q, mapping)) == want, q


def check_resolution_exactness(algebra, length):
    """Independent d-composed-with-d and image-equals-kernel verification on
    full (unblocked) differential matrices."""
    res = BimoduleResolution(algebra)
    res.extend_to(length)
    fld = algebra.field
    p = fld.characteristic

    def full_matrix(i):
        lvl = res.levels[i]
        target = differential_target(res, i)
        tcoords = [c for key in sorted(target.blocks) for c in target.blocks[key]]
        blocks = level_blocks(res.a, lvl)
        ccoords = [c for key in sorted(blocks) for c in blocks[key]]
        tpos = {c: r for r, c in enumerate(tcoords)}
        mat = [[0] * len(ccoords) for _ in tcoords]
        for col, coord in enumerate(ccoords):
            for tcoord, val in _column_image(res, i, coord, target).items():
                mat[tpos[tcoord]][col] = val
        return mat

    mats = [full_matrix(i) for i in range(length + 1)]
    dims = [res.levels[i].dim for i in range(length + 1)]
    for i in range(1, length + 1):
        a, b = mats[i - 1], mats[i]
        if not a or not b:
            continue
        # (d_{i-1} . d_i) must be the zero matrix
        for r in range(len(a)):
            for c in range(len(b[0])):
                s = sum(a[r][k] * b[k][c] for k in range(len(b)))
                assert (s % p if p else s) == 0, (i, r, c)
    for i in range(1, length + 1):
        n_cols_prev = dims[i - 1]
        rank_prev = matrix_rank(mats[i - 1], n_cols_prev, fld) if mats[i - 1] else 0
        rank_cur = matrix_rank(mats[i], dims[i], fld) if mats[i] else 0
        assert rank_cur == n_cols_prev - rank_prev, f"not exact at step {i}"


def check_associativity(algebra):
    d = algebra.dimension
    for i in range(d):
        for j in range(d):
            ij = algebra.mult.get((i, j), ())
            for k in range(d):
                left = multiply(algebra, ij, ((k, 1),))
                right = multiply(algebra, ((i, 1),), algebra.mult.get((j, k), ()))
                assert left == right, (i, j, k)


def check_cartan_field_independence(q):
    base = cartan(cached_algebra(q, 0))
    for char in (2, 3, 5, 7):
        assert cartan(cached_algebra(q, char)) == base, (q, char)


# --- the suites --------------------------------------------------------------

def test_mutation_involution_suite():
    check_mutation_involution(scope_quivers())


def test_canonical_relabeling_suite():
    quivers = sample_by_canonical(scope_quivers(), 25)
    check_canonical_relabeling(quivers, permutations=100)


def test_resolution_exactness_suite():
    cases = [
        (Quiver.make(3, [(1, 2), (2, 3), (3, 1)]), 0, 8),
        (Quiver.make(3, [(1, 2), (2, 3), (3, 1)]), 2, 8),
        (Quiver.make(4, [(1, 2), (2, 3), (3, 4), (4, 1)]), 3, 6),
        (Quiver.make(4, [(1, 2), (2, 3), (3, 1), (2, 4), (4, 1)]), 0, 6),
        (mutation_class("A", 4)[0], 0, 5),
        (mutation_class("E", 6)[0], 5, 4),
    ]
    for q, char, length in cases:
        check_resolution_exactness(cached_algebra(q, char), length)


def test_associativity_suite():
    for q in scope_quivers():
        check_associativity(cached_algebra(q, 0))


def test_associativity_prime_fields_spot():
    q = Quiver.make(4, [(1, 2), (2, 3), (3, 1), (2, 4), (4, 1)])
    for char in (2, 3, 5, 7):
        check_associativity(cached_algebra(q, char))


def test_cartan_field_independence_suite():
    for q in scope_quivers():
        check_cartan_field_independence(q)


def test_oracle_dims_relabeling_independence_spot():
    # lifting choices differ under relabeling; dims must not
    rng = random.Random(7)
    for q in sample_by_canonical(list(mutation_class("D", 5)), 4):
        n = q.vertex_count
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        mapping = {i + 1: perm[i] for i in range(n)}
        d1 = hh_dims(cached_algebra(q, 2), [GF2], max_i=6)[0]
        d2 = hh_dims(cached_algebra(relabel(q, mapping), 2), [GF2], max_i=6)[0]
        assert d1 == d2
