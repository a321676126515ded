"""Finite-dimensional bound quiver algebras: basis, multiplication, Cartan data.

The quotient KQ/I is computed by truncated closure: list all paths up to a
cutoff, span the ideal's truncated part by padding each relation with all
left/right path factors that stay inside the cutoff, and echelonize per
(source, target) block in degree-lexicographic order with the *largest*
path of a row as its pivot.  Surviving (non-pivot) paths form the basis;
pivotal paths carry rewrite rules used by the multiplication table.

The cutoff starts at vertex_count + 2 and grows until (a) some layer kills
every path, comfortably inside the cutoff, and (b) a recomputation with
cutoff + 1 reproduces the same layer dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .errors import InvalidRelationsError, NotFiniteDimensionalError, AlgebraError
from .fields import FieldSpec, QQ
from .linalg import det_int, pencil_det, rref
from .quiver import Quiver, validate
from .relations import RelationSet


def _path_key(p):
    return (len(p), p)


class _Truncation:
    """One truncated-closure computation at a fixed cutoff."""

    def __init__(self, q: Quiver, rels: RelationSet, fieldspec: FieldSpec, cutoff: int):
        self.cutoff = cutoff
        max_len = cutoff - 1
        out_arrows = {v: [] for v in range(1, q.vertex_count + 1)}
        for s, t in q.arrows:
            out_arrows[s].append(t)
        for v in out_arrows:
            out_arrows[v].sort()

        by_len = [[(v,) for v in range(1, q.vertex_count + 1)]]
        for _ in range(max_len):
            layer = []
            for p in by_len[-1]:
                for t in out_arrows[p[-1]]:
                    layer.append(p + (t,))
            by_len.append(layer)
        self.paths_by_len = by_len

        blocks = {}
        for layer in by_len:
            for p in layer:
                blocks.setdefault((p[0], p[-1]), []).append(p)
        for key in blocks:
            blocks[key].sort(key=_path_key, reverse=True)  # pivots prefer long paths
        self.block_cols = blocks
        self.col_index = {
            key: {p: i for i, p in enumerate(cols)} for key, cols in blocks.items()
        }

        # truncated ideal rows: u * relation * v for all padding paths u, v
        zero = fieldspec.zero()
        rows_by_block = {}
        for _, rel in rels:
            maxlen = max(p.length for _, p in rel.terms)
            src, tgt = rel.source, rel.target
            lefts = [p for layer in by_len for p in layer if p[-1] == src]
            rights = [p for layer in by_len for p in layer if p[0] == tgt]
            for u in lefts:
                lu = len(u) - 1
                if lu + maxlen > max_len:
                    continue
                for v in rights:
                    lv = len(v) - 1
                    if lu + maxlen + lv > max_len:
                        continue
                    key = (u[0], v[-1])
                    idx = self.col_index[key]
                    vec = [zero] * len(self.block_cols[key])
                    for coeff, term in rel.terms:
                        full = u + term.vertices[1:] + v[1:]
                        vec[idx[full]] += fieldspec.element(coeff)
                    rows_by_block.setdefault(key, []).append(vec)

        self.pivot_info = {}
        self.dead = set()
        self.survivors = []
        for key, cols in blocks.items():
            rows = rows_by_block.get(key, [])
            if rows:
                _, pivots = rref(rows, len(cols), fieldspec)
            else:
                pivots = []
            pivot_set = set(pivots)
            for r, c in enumerate(pivots):
                row = rows[r]
                rewrite = [
                    (cols[j], -row[j] if fieldspec.characteristic == 0 else (-row[j]) % fieldspec.characteristic)
                    for j in range(len(cols))
                    if j != c and row[j]
                ]
                self.pivot_info[cols[c]] = rewrite
                if not rewrite:
                    self.dead.add(cols[c])
            for j, p in enumerate(cols):
                if j not in pivot_set:
                    self.survivors.append(p)

        # kill layer: least length at which every path (if any) dies outright
        self.kill_length = None
        for ell in range(1, cutoff - 1):
            layer = by_len[ell]
            if all(p in self.dead for p in layer):
                self.kill_length = ell
                break

        counts = {}
        for p in self.survivors:
            counts[len(p) - 1] = counts.get(len(p) - 1, 0) + 1
        top = max(counts)
        dims = [counts.get(i, 0) for i in range(top + 1)]
        if any(d == 0 for d in dims):
            raise AlgebraError("graded layer vanished below a nonzero layer")
        if self.kill_length is not None and len(by_len[top + 1] if top + 1 < len(by_len) else []) > 0:
            dims.append(0)
        self.degree_dims = tuple(dims)

    @property
    def stable(self):
        if self.kill_length is None:
            return False
        return all(len(p) - 1 < self.kill_length for p in self.survivors)


@dataclass(frozen=True)
class BoundAlgebra:
    """Quotient of a path algebra with a fixed deterministic basis.

    basis paths are vertex tuples ((v,) is the trivial path at v), sorted by
    (length, vertex sequence); mult maps a basis index pair to a tuple of
    (basis index, coefficient) with zero products simply absent.
    """

    quiver: Quiver
    field: FieldSpec
    basis: tuple
    degree_dims: tuple
    mult: dict
    src: tuple = dc_field(repr=False, default=())
    tgt: tuple = dc_field(repr=False, default=())

    @property
    def dimension(self):
        return len(self.basis)

    @property
    def vertex_count(self):
        return self.quiver.vertex_count

    def basis_index(self, path_vertices):
        return self.basis.index(tuple(path_vertices))

    def trivial_index(self, v):
        return self.basis.index((v,))

    def arrow_indices(self):
        return [i for i, p in enumerate(self.basis) if len(p) == 2]

    def multiply(self, i, j):
        """Product of basis elements as a sparse ((index, coeff), ...) tuple."""
        return self.mult.get((i, j), ())

    def multiply_sparse(self, xs, ys):
        """Product of two sparse vectors given as iterables of (index, coeff)."""
        acc = {}
        mult = self.mult
        for i, a in xs:
            for j, b in ys:
                for k, c in mult.get((i, j), ()):
                    acc[k] = acc.get(k, self.field.zero()) + a * b * c
        p = self.field.characteristic
        if p:
            return tuple((k, v % p) for k, v in sorted(acc.items()) if v % p)
        return tuple((k, v) for k, v in sorted(acc.items()) if v)


def _check_relations(q: Quiver, rels: RelationSet):
    arrow_set = q.arrow_set
    for arrow, rel in rels:
        if arrow not in arrow_set:
            raise InvalidRelationsError(f"relation indexed by missing arrow {arrow}")
        for _, p in rel.terms:
            for a, b in zip(p.vertices, p.vertices[1:]):
                if (a, b) not in arrow_set:
                    raise InvalidRelationsError(f"relation path {p} uses missing arrow ({a},{b})")


def build_algebra(q: Quiver, rels: RelationSet, fieldspec: FieldSpec = QQ) -> BoundAlgebra:
    validate(q)
    _check_relations(q, rels)
    n = q.vertex_count
    cutoff = n + 2
    max_cutoff = 2 * n + 2
    while True:
        trunc = _Truncation(q, rels, fieldspec, cutoff)
        if trunc.stable:
            again = _Truncation(q, rels, fieldspec, cutoff + 1)
            if again.stable and again.degree_dims == trunc.degree_dims:
                break
        if cutoff >= max_cutoff:
            raise NotFiniteDimensionalError(
                f"dimensions did not stabilize by cutoff {max_cutoff}"
            )
        cutoff += 1

    basis = tuple(sorted(trunc.survivors, key=_path_key))
    index = {p: i for i, p in enumerate(basis)}
    kill = trunc.kill_length
    mult = {}
    one = fieldspec.one()
    for i, p in enumerate(basis):
        for j, r in enumerate(basis):
            if p[-1] != r[0]:
                continue
            full = p + r[1:]
            if len(full) - 1 >= kill:
                continue
            if full in index:
                mult[(i, j)] = ((index[full], one),)
                continue
            rewrite = trunc.pivot_info.get(full)
            if rewrite is None:
                raise AlgebraError(f"product path {full} missing from truncation")
            entries = tuple((index[pp], c) for pp, c in rewrite)
            if entries:
                mult[(i, j)] = tuple(sorted(entries))
    src = tuple(p[0] for p in basis)
    tgt = tuple(p[-1] for p in basis)
    return BoundAlgebra(q, fieldspec, basis, trunc.degree_dims, mult, src, tgt)


@dataclass(frozen=True)
class CartanData:
    matrix: tuple  # tuple of row tuples, C[i][j] = dim e_i A e_j
    det: int
    assoc_poly: tuple  # integer coefficients, ascending powers


def cartan(a: BoundAlgebra) -> CartanData:
    n = a.vertex_count
    c = [[0] * n for _ in range(n)]
    for p in a.basis:
        c[p[0] - 1][p[-1] - 1] += 1
    det = det_int(c)
    neg_ct = [[-c[j][i] for j in range(n)] for i in range(n)]
    poly = pencil_det(c, neg_ct)
    return CartanData(tuple(tuple(r) for r in c), det, poly)
