"""Finite-dimensional bound quiver algebras: basis, multiplication, Cartan data.

The quotient KQ/I is computed from a reduced rewriting system (a
noncommutative Groebner basis, after E. L. Green 1999) of the relation ideal.
Paths are vertex tuples ordered by (length, vertex sequence); the largest
path of an ideal element is its tip, and each rule rewrites a tip as an
integer combination of smaller paths.  Completion resolves every overlap in
which a proper suffix of one tip is a proper prefix of another (sharing at
least one arrow), except between two monomial rules, whose ambiguities are
0, and re-queues a rule whose tip strictly contains a newer tip.  It
takes pending elements smallest first: taken newest first, some E8 quivers
grow tips past the guard below before the short ones appear.  The basis is
the set of normal words (paths with no tip as a subpath) and the
multiplication table holds the normal forms of products.

The rules are computed once over the integers, and every tip must have
leading coefficient +-1 (else AlgebraError).  Each reduction over Z then maps
term by term to one mod p, so the same rules are a Groebner basis over every
field: the basis is the same, and so is the integer table, built once; the
algebra over GF(p) is a view of it (`BoundAlgebra.over`), and each consumer
reduces its sums mod p where it eliminates.  A tip or
a normal word longer than 2n + 1 arrows (n vertices) raises
NotFiniteDimensionalError, which bounds the tips and so ends completion.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property
from itertools import count

from .errors import InvalidRelationsError, InvariantError, NotFiniteDimensionalError, AlgebraError
from .fields import FieldSpec, QQ
from .linalg import det_int, pencil_det
from .quiver import Quiver, validate


def _path_key(p):
    return (len(p), p)


def _poly(terms):
    """Sum (path, int) terms into {path: int}, dropping zero coefficients."""
    f = {}
    for x, c in terms:
        f[x] = f.get(x, 0) + c
    return {x: c for x, c in f.items() if c}


def _reduce(f, rules, lengths):
    """Normal form of f {path: int} under rules {tip: {path: int}}, largest term
    first; lengths is the set of the rules' tip lengths."""
    out = {}
    while f:
        w = max(f, key=_path_key)
        c = f.pop(w)
        hit = next(((i, w[i:i + k]) for i in range(len(w)) for k in lengths
                    if w[i:i + k] in rules), None)
        if hit is None:
            out[w] = c
            continue
        i, tip = hit
        for p, d in rules[tip].items():
            x = w[:i] + p + w[i + len(tip):]
            v = f.get(x, 0) + c * d
            if v:
                f[x] = v
            else:
                del f[x]
    return out


def _overlaps(a, b, rules):
    """The ambiguities of tips a and b where a proper suffix of a is a proper prefix of b."""
    for m in range(2, min(len(a), len(b))):
        if a[-m:] == b[:m]:
            yield _poly([(p + b[m:], c) for p, c in rules[a].items()]
                        + [(a[:-m] + p, -c) for p, c in rules[b].items()])


def _complete(rels, limit: int):
    """Rewriting rules {tip: {path: int}} of the ideal generated by rels."""
    rules = {}
    pending = []  # heap of (key of the largest path, arrival, element): smallest first
    arrival = count()

    def push(*fs):
        for f in fs:
            if f:
                heapq.heappush(pending, (_path_key(max(f, key=_path_key)), next(arrival), f))

    push(*(_poly((p.vertices, c) for c, p in rel.terms) for _, rel in rels))
    while pending:
        f = _reduce(heapq.heappop(pending)[2], rules, {len(t) for t in rules})
        if not f:
            continue
        tip = max(f, key=_path_key)
        lead = f.pop(tip)
        if lead not in (1, -1):
            raise AlgebraError(f"leading coefficient {lead} of {tip} is not +-1")
        if len(tip) - 1 > limit:
            raise NotFiniteDimensionalError(f"rule tip {tip} is longer than {limit} arrows")
        k = len(tip)  # a rule tip of length k holding tip would be tip, which is normal
        for t in [t for t in rules if len(t) > k and any(t[i:i + k] == tip for i in range(len(t) - k + 1))]:
            push({t: 1, **{p: -c for p, c in rules.pop(t).items()}})
        tail = rules[tip] = {p: -lead * c for p, c in f.items()}
        for t in rules:
            if tail or rules[t]:  # two monomial rules: both tails are empty, so every ambiguity is 0
                push(*_overlaps(tip, t, rules))
                if t != tip:
                    push(*_overlaps(t, tip, rules))
    lengths = {len(t) for t in rules}
    return {t: _reduce(dict(tail), rules, lengths) for t, tail in rules.items()}


_INDEXES = ("index", "paths_from", "paths_to", "parallel", "arrows")


@dataclass(frozen=True)
class BoundAlgebra:
    """Quotient of a path algebra with a fixed deterministic basis.

    basis paths are vertex tuples ((v,) is the trivial path at v), sorted by
    (length, vertex sequence).  mult is the multiplication table by left
    factor, one dict per basis index: mult[i][j] is the tuple of (basis index,
    integer coefficient) of path i times path j, with zero products absent,
    over every field: a consumer over GF(p) reduces what it computes from it.
    A reader that multiplies by one left factor in a loop takes its row out
    of the loop.  The basis indexes are computed on construction, and they
    and the rows are shared by every view (over):
    index maps a path to its basis index, paths_from[v] and paths_to[v] list
    the paths out of and into v, parallel[(s, t)] those from s to t, and
    arrows the arrows, each list in ascending basis order.
    """

    quiver: Quiver
    field: FieldSpec
    basis: tuple
    mult: list

    def __post_init__(self):
        paths_from, paths_to, parallel = {}, {}, {}
        for i, p in enumerate(self.basis):  # the trivial paths come first, in vertex order
            paths_from.setdefault(p[0], []).append(i)
            paths_to.setdefault(p[-1], []).append(i)
            parallel.setdefault((p[0], p[-1]), []).append(i)
        values = ({p: i for i, p in enumerate(self.basis)}, paths_from, paths_to, parallel,
                  [i for i, p in enumerate(self.basis) if len(p) == 2])
        for name, value in zip(_INDEXES, values):
            object.__setattr__(self, name, value)  # frozen: set once, and shared by every view

    @property
    def dimension(self):
        return len(self.basis)

    @property
    def vertex_count(self):
        return self.quiver.vertex_count

    def over(self, fieldspec: FieldSpec) -> "BoundAlgebra":
        """This algebra over fieldspec: a view that shares the integer table
        and the basis indexes (the module docstring says why the table serves
        every field)."""
        if fieldspec == self.field:
            return self
        if self.field != QQ:
            raise ValueError(f"cannot move an algebra over {self.field} to {fieldspec}")
        # set attribute by attribute: copy() would read __dict__, and that
        # makes every later attribute read on both algebras slower
        view = object.__new__(BoundAlgebra)
        for name in ("quiver", "field", "basis", "mult", *_INDEXES):
            object.__setattr__(view, name, fieldspec if name == "field" else getattr(self, name))
        return view


def _check_relations(q: Quiver, rels):
    arrow_set = q.arrow_set
    for arrow, rel in rels:
        if arrow not in arrow_set:
            raise InvalidRelationsError(f"relation indexed by missing arrow {arrow}")
        for _, p in rel.terms:
            for a, b in zip(p.vertices, p.vertices[1:]):
                if (a, b) not in arrow_set:
                    raise InvalidRelationsError(f"relation path {p} uses missing arrow ({a},{b})")


def build_algebra(q: Quiver, rels, fieldspec: FieldSpec = QQ) -> BoundAlgebra:
    validate(q)
    _check_relations(q, rels)
    n = q.vertex_count
    limit = 2 * n + 1
    rules = _complete(rels, limit)
    lengths = {len(t) for t in rules}
    layers = [[(v,) for v in range(1, n + 1)]]
    while layers[-1]:
        layer = [w + (t,) for w in layers[-1] for s, t in q.arrows if s == w[-1]]
        layers.append([w for w in layer if not any(w[-k:] in rules for k in lengths)])
        if layers[-1] and len(layers) - 1 > limit:
            raise NotFiniteDimensionalError(f"normal words longer than {limit} arrows")

    basis = tuple(sorted((w for layer in layers for w in layer), key=_path_key))
    a = BoundAlgebra(q, QQ, basis, [{} for _ in basis])  # indexed here; its rows are filled in below
    index = a.index  # over the integers; zero coefficients never reach a normal form
    for p, row in zip(basis, a.mult):
        # p and r are normal, so a tip of p + r[1:] holds an arrow on each side
        # of the junction vertex len(p) - 1: the tip's slice [s, s + k) of the
        # word has s < len(p) - 1 < s + k - 1 (a slice cut short by the word's
        # end is still a subpath of it, so rewriting there is still sound)
        spans = [(s, s + k) for k in lengths for s in range(max(0, len(p) + 1 - k), len(p) - 1)]
        for j in a.paths_from[p[-1]]:
            word = p + basis[j][1:]
            if word in index:  # a normal word is its own normal form
                row[j] = ((index[word], 1),)
                continue
            for s, e in spans:  # rewrite the first tip found across the junction
                tail = rules.get(word[s:e])
                if tail is not None:
                    break
            else:
                raise AlgebraError(f"{word} is not normal but holds no tip across its junction")
            if tail:  # else a monomial rule: the product is 0
                nf = _reduce({word[:s] + t + word[e:]: c for t, c in tail.items()}, rules, lengths)
                if nf:
                    row[j] = tuple(sorted((index[w], c) for w, c in nf.items()))
    return a.over(fieldspec)


@dataclass(frozen=True)
class CartanData:
    """The Cartan matrix C of an algebra, C[i][j] = dim e_i A e_j (a tuple
    of row tuples), and det C, from one fraction-free elimination.

    assoc_poly, the integer coefficients of det(x C - C^T) in ascending
    powers, is computed when first read (only type E and the reports read
    it) and then kept on this instance; that read checks that its leading
    coefficient is det C and raises InvariantError if not.
    """

    matrix: tuple
    det: int

    @cached_property
    def assoc_poly(self) -> tuple:
        c = self.matrix
        poly = pencil_det(c, [[-r[i] for r in c] for i in range(len(c))])
        if poly[-1] != self.det:
            raise InvariantError(f"det(xC - C^T) has leading coefficient {poly[-1]}, "
                                 f"but det C = {self.det}")
        return poly


def cartan(a: BoundAlgebra) -> CartanData:
    n = a.vertex_count
    c = tuple(tuple(len(a.parallel.get((s, t), ())) for t in range(1, n + 1)) for s in range(1, n + 1))
    return CartanData(c, det_int(c))
