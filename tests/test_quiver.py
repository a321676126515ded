"""Quiver invariants, mutation, canonical forms, cycles, Dynkin detection."""

import random
from fractions import Fraction
from math import comb

import pytest

import cthh.quiver
from conftest import (canonical_data_reference, chordless_cycles_bruteforce, components, detect_dynkin_reference,
                      enumerate_class_reference, mutate_by_exchange_matrix, mutation_class, relabel)
from cthh.errors import (
    CapExceededError,
    DisconnectedError,
    LoopError,
    MultipleArrowError,
    NotDynkinError,
    ParallelArrowError,
    TwoCycleError,
)
from cthh.quiver import (
    Quiver,
    _canonical_data,
    _encode,
    canonical_form,
    canonical_representative,
    chordless_cycles,
    detect_dynkin,
    dynkin_seed,
    enumerate_class,
    mutate,
    neighbours,
    validate,
)


def test_validate_path_ok():
    validate(Quiver(3, ((1, 2), (2, 3))))


def test_validate_two_cycle():
    with pytest.raises(TwoCycleError):
        validate(Quiver(2, ((1, 2), (2, 1))))


def test_validate_disconnected():
    with pytest.raises(DisconnectedError, match=r"\(2 of 3 vertices reachable\)"):
        validate(Quiver(3, ((1, 2),)))
    with pytest.raises(DisconnectedError, match=r"\(1 of 4 vertices reachable\)"):
        validate(Quiver(4, ((2, 3), (4, 3))))


def test_neighbours_and_components():
    q = Quiver(6, ((2, 1), (3, 5), (6, 3)))
    adj = neighbours(q)
    assert adj == {1: {2}, 2: {1}, 3: {5, 6}, 4: set(), 5: {3}, 6: {3}}
    assert components(adj, range(1, 7)) == [{1, 2}, {3, 5, 6}, {4}]
    # induced on a subset: removing 3 splits 5 from 6
    assert components(adj, [6, 5, 4]) == [{4}, {5}, {6}]


def test_validate_loop_and_parallel():
    with pytest.raises(LoopError):
        validate(Quiver(2, ((1, 1), (1, 2))))
    with pytest.raises(ParallelArrowError):
        validate(Quiver(2, ((1, 2), (1, 2))))


def test_mutate_path_to_cycle():
    q = Quiver.make(3, [(1, 2), (2, 3)])
    m = mutate(q, 2)
    assert set(m.arrows) == {(2, 1), (3, 2), (1, 3)}


def test_mutate_cycle_back_to_path():
    cyc = Quiver.make(3, [(2, 1), (3, 2), (1, 3)])
    for k in (1, 2, 3):
        out = mutate(cyc, k)
        assert len(chordless_cycles(out)) == 0
        assert detect_dynkin(out) == ("A", 3)


def test_mutate_involution_random():
    rng = random.Random(11)
    q = dynkin_seed("D", 5)
    for _ in range(60):
        k = rng.randint(1, 5)
        assert mutate(mutate(q, k), k) == Quiver(5, tuple(sorted(q.arrows)))
        q = mutate(q, k)


@pytest.mark.parametrize("family, rank", [("A", 7), ("D", 8), ("E", 7)])
def test_mutate_matches_exchange_matrix_reference(family, rank):
    for q in mutation_class(family, rank):
        for k in range(1, rank + 1):
            assert mutate(q, k) == mutate_by_exchange_matrix(q, k), (q, k)


def test_mutate_multiple_arrow_raises():
    q = Quiver.make(3, [(1, 2), (1, 3), (2, 3)])
    for fn in (mutate, mutate_by_exchange_matrix):
        with pytest.raises(MultipleArrowError, match="^mutation at 2 produced multiplicity 2 between 1 and 3$"):
            fn(q, 2)


def outcome(fn, q, k):
    try:
        return fn(q, k)
    except MultipleArrowError as e:
        return str(e)


def test_mutate_matches_exchange_matrix_reference_on_random_quivers():
    # most of these leave finite type, so many mutations raise; the reference's
    # row-major scan fixes which pair the message names
    raised = 0
    for q in random_quivers(random.Random(2003), 150):
        for k in range(1, q.vertex_count + 1):
            got = outcome(mutate, q, k)
            assert got == outcome(mutate_by_exchange_matrix, q, k), (q, k)
            raised += isinstance(got, str)
    assert raised >= 100


def test_mutate_vertex_range():
    with pytest.raises(ValueError):
        mutate(dynkin_seed("A", 3), 9)


def test_canonical_relabeling_invariance():
    q = Quiver.make(3, [(1, 2), (2, 3)])
    q_rev = Quiver.make(3, [(3, 2), (2, 1)])
    assert canonical_form(q) == canonical_form(q_rev)


def test_canonical_distinguishes_sink_source():
    sink = Quiver.make(3, [(1, 2), (3, 2)])
    source = Quiver.make(3, [(2, 1), (2, 3)])
    assert canonical_form(sink) != canonical_form(source)


def test_canonical_cycle_any_labeling():
    base = Quiver.make(3, [(1, 2), (2, 3), (3, 1)])
    other = Quiver.make(3, [(2, 1), (1, 3), (3, 2)])
    assert canonical_form(base) == canonical_form(other)


def test_canonical_random_permutations():
    rng = random.Random(2024)
    quivers = [
        dynkin_seed("D", 6),
        dynkin_seed("E", 6),
        Quiver.make(4, [(1, 2), (2, 3), (3, 1), (2, 4), (4, 1)]),
        Quiver.make(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 1)]),
    ]
    for q in quivers:
        want = canonical_form(q)
        n = q.vertex_count
        for _ in range(100):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            mapping = {i + 1: perm[i] for i in range(n)}
            assert canonical_form(relabel(q, mapping)) == want


def test_canonical_representative_is_fixed_point():
    q = dynkin_seed("E", 7)
    rep = canonical_representative(q)
    assert canonical_representative(rep) == rep
    assert canonical_form(rep) == canonical_form(q)


def test_enumerate_a2_single_class():
    assert len(enumerate_class(dynkin_seed("A", 2))) == 1


def test_enumerate_a3_four_classes():
    cls = enumerate_class(dynkin_seed("A", 3))
    assert len(cls) == 4
    cyclic = [q for q in cls if len(q.arrows) == 3]
    assert len(cyclic) == 1


def test_enumerate_cap_exceeded():
    with pytest.raises(CapExceededError):
        enumerate_class(dynkin_seed("A", 3), cap=2)


def test_enumerate_seed_independence(classes):
    for (fam, rank), cls in classes.items():
        if len(cls) > 30:
            continue
        forms = {canonical_form(q) for q in cls}
        again = {canonical_form(q) for q in enumerate_class(cls[-1])}
        assert again == forms, (fam, rank)


# canonical labellings by enumerate_class, the seed's included: one per edge of
# the exchange graph.  Mutating every member at every vertex but the one it was
# reached by would take 1 + rank * |class| - (|class| - 1).
LABELLINGS = {
    ("A", 2): 2, ("A", 3): 9, ("A", 4): 13, ("A", 5): 54, ("A", 6): 152, ("A", 7): 547,
    ("D", 4): 17, ("D", 5): 75, ("D", 6): 271, ("E", 6): 217,
}


def test_enumerate_labels_each_mutant_once(classes, monkeypatch):
    # one labelling search per seed and per mutant: the key of a new member
    # is read off its canonical arrows, not searched for again, and no member
    # is mutated at a vertex whose mutant is known from the reverse edge
    calls = []
    mutated = []

    def counted(n, arrows):
        calls.append(arrows)
        return _canonical_data(n, arrows)

    def recorded(q, k):
        mutated.append((q, k))
        return mutate(q, k)

    monkeypatch.setattr(cthh.quiver, "_canonical_data", counted)
    monkeypatch.setattr(cthh.quiver, "mutate", recorded)
    assert set(classes) == set(LABELLINGS)
    for (fam, rank), cls in classes.items():
        calls.clear()
        mutated.clear()
        again = enumerate_class(dynkin_seed(fam, rank))
        assert len(calls) == LABELLINGS[fam, rank], (fam, rank)
        if len(cls) > 2:
            assert len(calls) < 1 + rank * len(cls) - (len(cls) - 1), (fam, rank)
        assert len(mutated) == len(calls) - 1
        reverse = set()  # (member, vertex) pairs whose mutant a labelled mutation gave
        for q, k in mutated:
            assert (q, k) not in reverse, (fam, rank, q, k)
            arrows, pos = _canonical_data(rank, mutate(q, k).arrows)
            reverse.add((Quiver(rank, arrows), pos[k - 1] + 1))
        every = {(q, k) for q in again for k in range(1, rank + 1)}
        assert every <= set(mutated) | reverse, (fam, rank)
        forms = [canonical_form(q) for q in again]
        assert forms == sorted(set(forms)) and len(again) == len(cls)
        assert all(canonical_representative(q) == q for q in again)


REFERENCE_CLASSES = [*(("A", r) for r in range(2, 9)), *(("D", r) for r in range(4, 9)), ("E", 6), ("E", 7)]


def shuffled(q, rng):
    n = q.vertex_count
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return relabel(q, dict(zip(range(1, n + 1), perm)))


def assert_canonical_data_matches_reference(q, rng):
    # the reference's arrows on q, and the same arrows on a random relabeling
    # of q; relabeling by pos gives the arrows
    n = q.vertex_count
    want = canonical_data_reference(n, q.arrows)
    for p in (q, shuffled(q, rng)):
        arrows, pos = _canonical_data(n, p.arrows)
        assert arrows == want, p
        assert relabel(p, {v: pos[v - 1] + 1 for v in range(1, n + 1)}).arrows == arrows, p


@pytest.mark.parametrize("family, rank", REFERENCE_CLASSES)
def test_canonical_data_matches_reference_on_members_and_mutants(family, rank):
    rng = random.Random(f"{family}{rank}")
    for q in mutation_class(family, rank):
        assert_canonical_data_matches_reference(q, rng)
        for k in range(1, rank + 1):
            assert_canonical_data_matches_reference(mutate(q, k), rng)


def test_canonical_data_matches_reference_on_random_quivers():
    rng = random.Random(2014)
    for q in random_quivers(random.Random(1309), 250):
        assert_canonical_data_matches_reference(q, rng)


class LabelledBothWays:
    """_canonical_data with its coloring recorded, and whether it searched.

    check(n, arrows) labels arrows, runs _lowest_border_order itself on the
    same non-discrete coloring and asserts the same pos and arrows, and that
    _canonical_data searched exactly when some color class of more than one
    vertex is not a set of twins (equal out- and in-neighbour sets).  It
    returns True when the labelling was read off, False otherwise."""

    def __init__(self, monkeypatch):
        self.colorings, self.searches = [], []
        refine, self.search = cthh.quiver._refined_colors, cthh.quiver._lowest_border_order

        def recorded(n, out_adj, in_adj):
            colors = refine(n, out_adj, in_adj)
            self.colorings.append((out_adj, in_adj, colors))
            return colors

        def counted(*args):
            self.searches.append(args)
            return self.search(*args)

        monkeypatch.setattr(cthh.quiver, "_refined_colors", recorded)
        monkeypatch.setattr(cthh.quiver, "_lowest_border_order", counted)

    def check(self, n, arrows):
        self.colorings.clear()
        self.searches.clear()
        got = _canonical_data(n, arrows)
        [(out_adj, in_adj, colors)] = self.colorings
        if len(set(colors)) == n:
            assert not self.searches, arrows
            return False
        pos = self.search(n, colors, out_adj, in_adj)
        assert got == (tuple(sorted((pos[s - 1] + 1, pos[t - 1] + 1) for s, t in arrows)), tuple(pos)), arrows
        twins = all(set(out_adj[v]) == set(out_adj[w]) and set(in_adj[v]) == set(in_adj[w])
                    for v in range(n) for w in range(v) if colors[v] == colors[w])
        assert len(self.searches) == (not twins), arrows
        return twins


READ_OFF_CLASSES = [*(("A", r) for r in range(2, 10)), *(("D", r) for r in range(4, 10)),
                    ("E", 6), ("E", 7), ("E", 8)]
# members and mutants whose coloring has a class of twins and no other class
# of more than one vertex; in D_n the twins are the two ends of a fork
READ_OFF_CASES = {("A", 3): 6, ("D", 4): 27, ("D", 5): 70, ("D", 6): 254, ("D", 7): 924, ("D", 8): 3437,
                  ("D", 9): 12870}


@pytest.mark.parametrize("family, rank", READ_OFF_CLASSES)
def test_read_off_labelling_equals_the_search_on_members_and_mutants(family, rank, monkeypatch):
    # same arrows and same pos: enumerate_class reads pos for the reverse edges
    labelled = LabelledBothWays(monkeypatch)
    read_off = 0
    for q in mutation_class(family, rank):
        for p in (q, *(mutate(q, k) for k in range(1, rank + 1))):
            read_off += labelled.check(rank, p.arrows)
    assert read_off == READ_OFF_CASES.get((family, rank), 0)


def test_read_off_labelling_equals_the_search_on_random_quivers(monkeypatch):
    labelled = LabelledBothWays(monkeypatch)
    rng = random.Random(2014)
    read_off = 0
    for q in random_quivers(random.Random(1309), 250):
        for p in (q, shuffled(q, rng)):
            read_off += labelled.check(p.vertex_count, p.arrows)
    assert read_off == 74


# (labellings, of which searched) by enumerate_class; the rest are discrete
# or read off twin classes.  The labelling counts depend on pos through the
# reverse-edge rule.
SEARCHED_LABELLINGS = {("A", 7): (547, 49), ("D", 7): (931, 1), ("D", 8): (3478, 33), ("E", 7): (1457, 0)}


def test_enumerate_class_searches_only_without_twin_classes(monkeypatch):
    labellings, searches = [], []
    label, search = cthh.quiver._canonical_data, cthh.quiver._lowest_border_order
    monkeypatch.setattr(cthh.quiver, "_canonical_data", lambda *a: labellings.append(a) or label(*a))
    monkeypatch.setattr(cthh.quiver, "_lowest_border_order", lambda *a: searches.append(a) or search(*a))
    for (fam, rank), want in SEARCHED_LABELLINGS.items():
        labellings.clear()
        searches.clear()
        assert len(enumerate_class(dynkin_seed(fam, rank))) == len(mutation_class(fam, rank))
        assert (len(labellings), len(searches)) == want, (fam, rank)


@pytest.mark.parametrize("family, rank", REFERENCE_CLASSES)
def test_enumerate_class_matches_reference(family, rank):
    assert list(mutation_class(family, rank)) == enumerate_class_reference(dynkin_seed(family, rank))


KNOWN_CLASS_SIZES = {
    ("A", 2): 1, ("A", 3): 4, ("A", 4): 6, ("A", 5): 19, ("A", 6): 49, ("A", 7): 150, ("A", 8): 442,
    ("A", 9): 1424,
    ("D", 4): 6, ("D", 5): 26, ("D", 6): 80, ("D", 7): 246, ("D", 8): 810, ("D", 9): 2704,
    ("E", 6): 67, ("E", 7): 416, ("E", 8): 1574,
}


def test_known_class_sizes():
    sizes = {key: len(mutation_class(*key)) for key in KNOWN_CLASS_SIZES}
    assert sizes == KNOWN_CLASS_SIZES


def test_members_encode_to_their_canonical_form():
    # verify_suite orders its sample by the members' own encodings
    for key in KNOWN_CLASS_SIZES:
        for q in mutation_class(*key):
            assert _encode(q) == canonical_form(q), q


def torkildsen_count(n):
    """Quivers in the mutation class of A_n: triangulations of the N-gon up to
    rotation, N = n + 3 (Torkildsen, Int. Electron. J. Algebra 4, 2008)."""
    big = n + 3

    def catalan(k):
        return comb(2 * k, k) // (k + 1)

    count = Fraction(catalan(big - 2), big)
    if big % 2 == 0:
        count += Fraction(catalan(big // 2 - 1), 2)
    if big % 3 == 0:
        count += Fraction(2 * catalan(big // 3 - 1), 3)
    return count


def test_type_a_class_sizes_match_torkildsen():
    for n in range(2, 10):
        assert torkildsen_count(n) == len(mutation_class("A", n)), n
    # the A10 and A11 counts of the class-sizes job of long-tier.yml
    assert [torkildsen_count(n) for n in (10, 11)] == [4522, 14924]


def triangulations(lo, hi):
    """Every triangulation of the polygon on the corners lo..hi, as a list of
    triangles (i, j, k) with i < j < k."""
    if hi - lo < 2:
        return [[]]
    return [[(lo, k, hi), *left, *right]
            for k in range(lo + 1, hi)
            for left in triangulations(lo, k)
            for right in triangulations(k, hi)]


def triangulation_quiver(corners, triangles):
    """The quiver of a triangulation of the polygon with corners 0..corners-1
    (Caldero, Chapoton and Schiffler, Trans. AMS 358, 2006): a vertex per
    diagonal, and in each triangle an arrow from each diagonal side to the
    next diagonal side counterclockwise."""
    diagonals = sorted({side for i, j, k in triangles for side in ((i, j), (j, k), (i, k))
                        if side[1] - side[0] != 1 and side != (0, corners - 1)})
    label = {d: v for v, d in enumerate(diagonals, 1)}
    arrows = []
    for i, j, k in triangles:
        sides = [(i, j), (j, k), (i, k)]  # counterclockwise around the triangle
        arrows += [(label[a], label[b]) for a, b in zip(sides, sides[1:] + sides[:1])
                   if a in label and b in label]
    return Quiver.make(len(diagonals), arrows)


def test_type_a_class_is_the_triangulation_quivers():
    for n in range(2, 9):
        corners = n + 3
        forms = {canonical_form(triangulation_quiver(corners, t)) for t in triangulations(0, corners - 1)}
        assert forms == {canonical_form(q) for q in mutation_class("A", n)}, n


def test_chordless_cycles_tree_empty():
    assert chordless_cycles(dynkin_seed("A", 5)) == []


def test_chordless_cycles_triangle():
    cyc = chordless_cycles(Quiver.make(3, [(1, 2), (2, 3), (3, 1)]))
    assert len(cyc) == 1
    assert cyc[0].length == 3 and cyc[0].oriented
    assert cyc[0].arrow_list() == [(1, 2), (2, 3), (3, 1)]


def test_chordless_cycles_shared_arrow_no_four_cycle():
    q = Quiver.make(4, [(1, 2), (2, 3), (3, 1), (2, 4), (4, 1)])
    cyc = chordless_cycles(q)
    assert sorted(c.vertices for c in cyc) == [(1, 2, 3), (1, 2, 4)]
    assert all(c.oriented and c.length == 3 for c in cyc)


def test_chordless_non_oriented_cycle_flagged():
    q = Quiver.make(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    (c,) = chordless_cycles(q)
    assert c.length == 4 and not c.oriented


def test_chordless_cycles_returns_a_fresh_list():
    q = Quiver.make(3, [(1, 2), (2, 3), (3, 1)])
    chordless_cycles(q).clear()
    assert len(chordless_cycles(q)) == 1


@pytest.mark.parametrize("family, rank", [("A", 6), ("D", 6), ("E", 6)])
def test_chordless_cycles_match_brute_force_on_classes(family, rank):
    for q in mutation_class(family, rank):
        assert chordless_cycles(q) == chordless_cycles_bruteforce(q), q


def random_quivers(rng, count, max_vertices=9):
    """Valid quivers with random edges and orientations, most of them
    outside finite type."""
    out = []
    while len(out) < count:
        n = rng.randint(3, max_vertices)
        density = rng.uniform(0.2, 0.7)
        arrows = [(i, j) if rng.random() < 0.5 else (j, i)
                  for i in range(1, n + 1) for j in range(i + 1, n + 1)
                  if rng.random() < density]
        q = Quiver(n, tuple(sorted(arrows)))
        try:
            validate(q)
        except DisconnectedError:
            continue
        out.append(q)
    return out


def test_chordless_cycles_match_brute_force_on_random_quivers():
    non_oriented = not_dynkin = 0
    for q in random_quivers(random.Random(1309), 250):
        expected = chordless_cycles_bruteforce(q)
        assert chordless_cycles(q) == expected, q
        non_oriented += any(not c.oriented for c in expected)
        try:
            detect_dynkin(q)
        except NotDynkinError:
            not_dynkin += 1
    assert non_oriented >= 50 and not_dynkin >= 100


def test_detect_dynkin_linear_path():
    assert detect_dynkin(Quiver.make(5, [(1, 2), (2, 3), (3, 4), (4, 5)])) == ("A", 5)


def test_detect_dynkin_oriented_four_cycle():
    assert detect_dynkin(Quiver.make(4, [(1, 2), (2, 3), (3, 4), (4, 1)])) == ("D", 4)


def test_detect_dynkin_e_seeds():
    for rank in (6, 7, 8):
        assert detect_dynkin(dynkin_seed("E", rank)) == ("E", rank)


def test_detect_dynkin_star_rejected():
    star = Quiver.make(5, [(1, 5), (2, 5), (3, 5), (4, 5)])
    with pytest.raises(NotDynkinError):
        detect_dynkin(star)


@pytest.mark.parametrize("family, rank", [
    *(("A", r) for r in range(2, 9)),
    *(("D", r) for r in range(4, 10)),
    *(("E", r) for r in (6, 7, 8)),
])
def test_detect_dynkin_every_class_member(family, rank):
    for q in mutation_class(family, rank):
        assert detect_dynkin(q) == (family, rank), q


def dynkin_outcome(fn, q):
    try:
        return fn(q)
    except NotDynkinError as e:
        return str(e)


def random_mutated_trees(rng, count, max_vertices=10):
    """Randomly oriented trees, each mutated at a few random vertices while
    the arrows stay simple; many are affine or wild, so their quasi-Cartan
    companions have a zero or negative leading minor."""
    out = []
    while len(out) < count:
        n = rng.randint(3, max_vertices)
        edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
        q = Quiver.make(n, [(s, t) if rng.random() < 0.5 else (t, s) for s, t in edges])
        for _ in range(rng.randint(0, 4)):
            try:
                q = mutate(q, rng.randint(1, n))
            except MultipleArrowError:
                break
        out.append(q)
    return out


def test_detect_dynkin_matches_per_minor_reference_on_random_quivers():
    # on class members both give the class's type, which
    # test_detect_dynkin_every_class_member checks; here the error messages
    # are compared too
    outcomes = []
    for q in random_quivers(random.Random(1309), 250) + random_mutated_trees(random.Random(1989), 250):
        got = dynkin_outcome(detect_dynkin, q)
        assert got == dynkin_outcome(detect_dynkin_reference, q), q
        outcomes.append(got)
    assert sum("not positive definite" in str(o) for o in outcomes) >= 50
    assert sum(isinstance(o, tuple) for o in outcomes) >= 50


@pytest.mark.parametrize("n, arrows", [
    # affine A~3: a chordless 4-cycle that is not oriented
    (4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    # the affine tree E~8 = T(2,3,6): the path 1->...->8 with an extra arrow 9->3
    (9, [(i, i + 1) for i in range(1, 8)] + [(9, 3)]),
    # three oriented triangles sharing the arrow 2->1
    (5, [(1, 3), (1, 4), (1, 5), (2, 1), (3, 2), (4, 2), (5, 2)]),
])
def test_detect_dynkin_rejects_outside_finite_type(n, arrows):
    with pytest.raises(NotDynkinError):
        detect_dynkin(Quiver.make(n, arrows))


def test_every_class_member_is_valid(classes):
    for cls in classes.values():
        for q in cls:
            validate(q)


def test_every_chordless_cycle_oriented_in_dynkin_classes(classes):
    for cls in classes.values():
        for q in cls:
            for c in chordless_cycles(q):
                assert c.oriented, q
