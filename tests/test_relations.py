"""Relation generation by the potential-derivative rule."""

import pytest

from conftest import relabel
from cthh.errors import ArrowOnThreeCyclesError, NonOrientedCycleError
from cthh.quiver import Quiver, dynkin_seed
from cthh.relations import Path, Relation, generate_relations


def test_path_endpoints():
    p = Path((2, 3, 1))
    assert p.source == 2 and p.target == 1 and p.length == 2
    assert str(p) == "2->3->1"


def test_path_needs_length():
    with pytest.raises(ValueError):
        Path((1,))


def test_relation_endpoint_consistency():
    with pytest.raises(ValueError):
        Relation(((1, Path((1, 2))), (1, Path((2, 1)))))


def test_linear_quiver_no_relations():
    assert len(generate_relations(dynkin_seed("A", 6))) == 0


def test_oriented_triangle_zero_relations():
    q = Quiver.make(3, [(1, 2), (2, 3), (3, 1)])
    rels = generate_relations(q)
    assert len(rels) == 3
    got = {arrow: rel for arrow, rel in rels}
    assert all(rel.is_zero_relation for rel in got.values())
    # all length-2 paths vanish: complement of each arrow in the triangle
    assert got[(1, 2)].terms[0][1].vertices == (2, 3, 1)
    assert got[(2, 3)].terms[0][1].vertices == (3, 1, 2)
    assert got[(3, 1)].terms[0][1].vertices == (1, 2, 3)


def test_two_triangles_sharing_arrow():
    q = Quiver.make(4, [(1, 2), (2, 3), (3, 1), (2, 4), (4, 1)])
    rels = generate_relations(q)
    got = {arrow: rel for arrow, rel in rels}
    assert len(got) == 5
    comm = got[(1, 2)]
    assert not comm.is_zero_relation
    assert [p.vertices for _, p in comm.terms] == [(2, 3, 1), (2, 4, 1)]
    assert [c for c, _ in comm.terms] == [1, 1]
    zero_paths = {
        got[(2, 3)].terms[0][1].vertices,
        got[(2, 4)].terms[0][1].vertices,
        got[(3, 1)].terms[0][1].vertices,
        got[(4, 1)].terms[0][1].vertices,
    }
    assert zero_paths == {(3, 1, 2), (4, 1, 2), (1, 2, 3), (1, 2, 4)}


def test_relations_on_oriented_cycle_lengths():
    for n in (3, 4, 5, 6):
        q = Quiver.make(n, [(i, i % n + 1) for i in range(1, n + 1)])
        rels = generate_relations(q)
        assert len(rels) == n
        for _, rel in rels:
            assert rel.is_zero_relation
            assert rel.terms[0][1].length == n - 1


def test_relation_paths_admissible(classes):
    for cls in classes.values():
        for q in cls:
            for _, rel in generate_relations(q):
                for _, p in rel.terms:
                    assert p.length >= 2


def test_non_oriented_chordless_cycle_rejected():
    q = Quiver.make(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    with pytest.raises(NonOrientedCycleError):
        generate_relations(q)


def test_arrow_on_three_cycles_rejected():
    # three triangles glued along one arrow (not a finite-type quiver)
    q = Quiver.make(5, [(1, 2), (2, 3), (3, 1), (2, 4), (4, 1), (2, 5), (5, 1)])
    with pytest.raises(ArrowOnThreeCyclesError):
        generate_relations(q)


def test_relations_commute_with_relabeling():
    q = Quiver.make(4, [(1, 2), (2, 3), (3, 1), (2, 4), (4, 1)])
    perm = {1: 3, 2: 4, 3: 1, 4: 2}
    relabeled = relabel(q, perm)
    rels = generate_relations(q)
    rels2 = {arrow: rel for arrow, rel in generate_relations(relabeled)}
    for arrow, rel in rels:
        marrow = (perm[arrow[0]], perm[arrow[1]])
        mapped_terms = sorted(
            tuple(perm[v] for v in p.vertices) for _, p in rel.terms
        )
        assert marrow in rels2
        assert sorted(p.vertices for _, p in rels2[marrow].terms) == mapped_terms
