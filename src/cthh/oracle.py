"""Brute-force Hochschild cohomology of a bound quiver algebra.

The engine builds a minimal projective bimodule resolution step by step:
each projective is a sum of A e_a (x) e_b A, the kernel of the previous
differential is computed exactly block-by-block (the differentials respect
the (left vertex, right vertex) bigrading, so the kernel splits), the
kernel's top mod (rad K + K rad) is lifted by bihomogeneous generators,
and those generators index the next projective.  Applying Hom(-, A) turns
the resolution into a cochain complex of small exact matrices whose
cohomology dimensions are the answer.

Nothing is assumed about minimality when taking cohomology: the Hom-complex
differentials are computed honestly, and d-compose-d = 0 plus image = kernel
are verified at every step.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import BoundAlgebra
from .errors import InvariantError, ResolutionBudgetError
from .fields import FieldSpec
from .linalg import Echelon, kernel_from_rref, rref

DEFAULT_BUDGET = 50000


@dataclass(frozen=True)
class HHDims:
    """dims[i] = dim_K HH^i for 0 <= i <= max_i."""

    dims: tuple
    field: FieldSpec
    max_i: int


class _AlgebraAsBimodule:
    """Target of the augmentation P_0 -> A, with A's own block structure."""

    def __init__(self, a: BoundAlgebra):
        self.blocks = {}
        for i in range(a.dimension):
            self.blocks.setdefault((a.src[i], a.tgt[i]), []).append(i)
        self.offset = {}
        for key, coords in self.blocks.items():
            for off, c in enumerate(coords):
                self.offset[c] = (key, off)

    def pad(self, a: BoundAlgebra, coord, p, q, coeff, acc):
        """Accumulate p * coord * q into acc (dict coord -> coefficient)."""
        mult = a.mult
        for k, c1 in mult.get((p, coord), ()):
            for m, c2 in mult.get((k, q), ()):
                acc[m] = acc.get(m, 0) + coeff * c1 * c2


class _Level:
    """One projective P = sum of A e_a (x) e_b A over generators (a, b)."""

    def __init__(self, a: BoundAlgebra, gens, images):
        self.gens = list(gens)       # list of (a_vertex, b_vertex)
        self.images = list(images)   # per generator: dict coord -> coeff in the previous target
        paths_to = {}
        paths_from = {}
        for i in range(a.dimension):
            paths_to.setdefault(a.tgt[i], []).append(i)
            paths_from.setdefault(a.src[i], []).append(i)
        self.blocks = {}
        for g, (av, bv) in enumerate(self.gens):
            for p in paths_to.get(av, ()):
                for q in paths_from.get(bv, ()):
                    self.blocks.setdefault((a.src[p], a.tgt[q]), []).append((g, p, q))
        self.offset = {}
        for key, coords in self.blocks.items():
            for off, c in enumerate(coords):
                self.offset[c] = (key, off)
        self.dim = sum(len(v) for v in self.blocks.values())

    def pad(self, a: BoundAlgebra, coord, p, q, coeff, acc):
        """Accumulate p * (g, p', q') * q into acc."""
        g, pp, qq = coord
        mult = a.mult
        for k, c1 in mult.get((p, pp), ()):
            for m, c2 in mult.get((qq, q), ()):
                key = (g, k, m)
                acc[key] = acc.get(key, 0) + coeff * c1 * c2


class BimoduleResolution:
    """Minimal projective bimodule resolution of the algebra over itself."""

    def __init__(self, a: BoundAlgebra, budget: int = DEFAULT_BUDGET):
        self.a = a
        self.field = a.field
        self.budget = budget
        self.total_dim = 0
        gens = [(v, v) for v in range(1, a.vertex_count + 1)]
        images = [{a.trivial_index(v): a.field.one()} for v in range(1, a.vertex_count + 1)]
        self.base = _AlgebraAsBimodule(a)
        self.levels = [self._make_level(gens, images)]
        self.kernels = []        # per level: dict block key -> list of dense kernel vectors
        self.kernel_dims = []    # per level: total kernel dimension

    def _make_level(self, gens, images):
        lvl = _Level(self.a, gens, images)
        self.total_dim += lvl.dim
        if self.total_dim > self.budget:
            raise ResolutionBudgetError(self.total_dim, self.budget)
        return lvl

    def _target(self, i):
        return self.base if i == 0 else self.levels[i - 1]

    def _normalize(self, x):
        p = self.field.characteristic
        return x % p if p else x

    def _column_image(self, level_index, coord):
        """Image under the differential of one basis element (g, p, q)."""
        lvl = self.levels[level_index]
        target = self._target(level_index)
        g, p, q = coord
        acc = {}
        for tcoord, coeff in lvl.images[g].items():
            target.pad(self.a, tcoord, p, q, coeff, acc)
        return {k: self._normalize(v) for k, v in acc.items() if self._normalize(v)}

    def extend_once(self):
        """Kernel of the topmost differential, then cover it minimally."""
        a = self.a
        fld = self.field
        i = len(self.levels) - 1
        lvl = self.levels[i]
        target = self._target(i)

        kernels = {}
        rank_total = 0
        zero = fld.zero()
        for key in sorted(lvl.blocks):
            cols = lvl.blocks[key]
            tcoords = target.blocks.get(key, [])
            mat = [[zero] * len(cols) for _ in range(len(tcoords))]
            for c, coord in enumerate(cols):
                img = self._column_image(i, coord)
                for tcoord, val in img.items():
                    tkey, toff = target.offset[tcoord]
                    if tkey != key:
                        raise InvariantError("differential broke the vertex bigrading")
                    mat[toff][c] = val
            rank, pivots = rref(mat, len(cols), fld)
            rank_total += rank
            kb = kernel_from_rref(mat, len(cols), pivots, fld)
            if kb:
                kernels[key] = [list(v) for v in kb]

        # exactness: the image of d_i must fill the previously computed kernel
        if i == 0 and rank_total != a.dimension:
            raise InvariantError("augmentation is not surjective")
        if i > 0 and rank_total != self.kernel_dims[i - 1]:
            raise InvariantError(f"resolution not exact at step {i}: image {rank_total}, "
                                 f"kernel {self.kernel_dims[i - 1]}")

        self.kernels.append(kernels)
        self.kernel_dims.append(sum(len(v) for v in kernels.values()))

        # minimal generators: kernel top modulo rad*K + K*rad, block by block
        arrows_out = {}
        arrows_in = {}
        for idx in a.arrow_indices():
            arrows_out.setdefault(a.src[idx], []).append(idx)
            arrows_in.setdefault(a.tgt[idx], []).append(idx)

        new_gens = []
        new_images = []
        for key in sorted(lvl.blocks):
            s, t = key
            block_coords = lvl.blocks[key]
            block_pos = {c: off for off, c in enumerate(block_coords)}
            ech = Echelon(fld)
            for alpha in arrows_out.get(s, ()):
                s2 = a.tgt[alpha]
                for vec in kernels.get((s2, t), ()):
                    ech.add(self._left_mul(lvl, alpha, vec, (s2, t), len(block_coords), block_pos))
            for beta in arrows_in.get(t, ()):
                t2 = a.src[beta]
                for vec in kernels.get((s, t2), ()):
                    ech.add(self._right_mul(lvl, vec, beta, (s, t2), len(block_coords), block_pos))
            for vec in kernels.get(key, ()):
                residue = ech.add(vec)
                if residue is not None:
                    img = {
                        block_coords[off]: val
                        for off, val in enumerate(residue)
                        if val
                    }
                    new_gens.append(key)
                    new_images.append(img)

        nxt = self._make_level(new_gens, new_images)
        self.levels.append(nxt)
        self._check_square_zero(len(self.levels) - 1)

    def _left_mul(self, lvl, alpha, vec, src_key, dst_len, dst_pos):
        """alpha * vec, mapping a block of lvl into the block of dst_pos (dense)."""
        a = self.a
        out = [self.field.zero()] * dst_len
        src_coords = lvl.blocks[src_key]
        mult = a.mult
        for off, val in enumerate(vec):
            if not val:
                continue
            g, p, q = src_coords[off]
            for k, c in mult.get((alpha, p), ()):
                out[dst_pos[(g, k, q)]] += val * c
        if self.field.characteristic:
            p_ = self.field.characteristic
            out = [x % p_ for x in out]
        return out

    def _right_mul(self, lvl, vec, beta, src_key, dst_len, dst_pos):
        a = self.a
        out = [self.field.zero()] * dst_len
        src_coords = lvl.blocks[src_key]
        mult = a.mult
        for off, val in enumerate(vec):
            if not val:
                continue
            g, p, q = src_coords[off]
            for k, c in mult.get((q, beta), ()):
                out[dst_pos[(g, p, k)]] += val * c
        if self.field.characteristic:
            p_ = self.field.characteristic
            out = [x % p_ for x in out]
        return out

    def _check_square_zero(self, i):
        """d_{i-1} after d_i must vanish on every generator image."""
        if i < 1:
            return
        prev = self.levels[i - 1]
        target = self._target(i - 1)
        for img in self.levels[i].images:
            acc = {}
            for (g, p, q), coeff in img.items():
                for tcoord, c2 in prev.images[g].items():
                    target.pad(self.a, tcoord, p, q, coeff * c2, acc)
            if any(self._normalize(v) for v in acc.values()):
                raise InvariantError("d o d != 0")

    def extend_to(self, length):
        while len(self.levels) < length + 1:
            self.extend_once()

    # ------------------------------------------------------------------
    # Hom(-, A) cochain complex
    # ------------------------------------------------------------------

    def hom_basis(self, i):
        """Basis of Hom(P_i, A): one (g, w) per path w in e_a A e_b."""
        a = self.a
        out = []
        for g, (av, bv) in enumerate(self.levels[i].gens):
            for w in range(a.dimension):
                if a.src[w] == av and a.tgt[w] == bv:
                    out.append((g, w))
        return out

    def hom_differential_rank(self, i):
        """Rank of Hom(P_{i-1}, A) -> Hom(P_i, A)."""
        a = self.a
        fld = self.field
        dom = self.hom_basis(i - 1)
        cod = self.hom_basis(i)
        if not dom or not cod:
            return 0
        cod_pos = {gw: r for r, gw in enumerate(cod)}
        mult = a.mult
        zero = fld.zero()
        mat = [[zero] * len(dom) for _ in cod]
        for col, (gsrc, w) in enumerate(dom):
            for g in range(len(self.levels[i].gens)):
                for (gg, pp, qq), coeff in self.levels[i].images[g].items():
                    if gg != gsrc:
                        continue
                    for k, c1 in mult.get((pp, w), ()):
                        for m, c2 in mult.get((k, qq), ()):
                            r = cod_pos[(g, m)]
                            mat[r][col] += coeff * c1 * c2
        if fld.characteristic:
            p = fld.characteristic
            mat = [[x % p for x in row] for row in mat]
        rank, _ = rref(mat, len(dom), fld)
        return rank


def center_dim(a: BoundAlgebra) -> int:
    """Dimension of {x : x b = b x for every basis element b}."""
    d = a.dimension
    fld = a.field
    rows = []
    for m in range(d):
        eq = {}
        for k in range(d):
            for c, v in a.mult.get((k, m), ()):
                row = eq.setdefault(c, {})
                row[k] = row.get(k, 0) + v
            for c, v in a.mult.get((m, k), ()):
                row = eq.setdefault(c, {})
                row[k] = row.get(k, 0) - v
        rows.extend(eq.values())
    rank = _sparse_rank(rows, fld)
    return d - rank


def derivation_space_dim(a: BoundAlgebra) -> int:
    """Dimension of the Leibniz-map space {D : D(xy) = D(x)y + xD(y)}.

    The constraints are imposed for x running over the algebra generators
    (trivial paths and arrows) and y over the whole basis, which pins the
    same space as all basis pairs since every basis path is a product of
    generators.
    """
    d = a.dimension
    fld = a.field
    gens = sorted([a.trivial_index(v) for v in range(1, a.vertex_count + 1)] + a.arrow_indices())
    mult = a.mult
    rows = []
    for g in gens:
        for m in range(d):
            eq = {}
            for k, mu in mult.get((g, m), ()):
                for c in range(d):
                    row = eq.setdefault(c, {})
                    col = k * d + c
                    row[col] = row.get(col, 0) + mu
            for l in range(d):
                for c, nu in mult.get((l, m), ()):
                    row = eq.setdefault(c, {})
                    col = g * d + l
                    row[col] = row.get(col, 0) - nu
                for c, nu in mult.get((g, l), ()):
                    row = eq.setdefault(c, {})
                    col = m * d + l
                    row[col] = row.get(col, 0) - nu
            rows.extend(v for v in eq.values() if v)
    rank = _sparse_rank(rows, fld)
    return d * d - rank


def hh1_dim(a: BoundAlgebra) -> int:
    """dim HH^1 = dim Der - dim Inn, with dim Inn = dim A - dim Z(A)."""
    der = derivation_space_dim(a)
    inn = a.dimension - center_dim(a)
    return der - inn


def _sparse_rank(rows, fld: FieldSpec) -> int:
    """Rank of a sparse system given as dicts {column: coefficient}."""
    p = fld.characteristic
    pivots = {}
    for row in rows:
        if p:
            r = {c: v % p for c, v in row.items() if v % p}
        else:
            r = {c: v for c, v in row.items() if v}
        while r:
            c = min(r)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(r[c], -1, p) if p else 1 / r[c]
                if p:
                    r = {cc: vv * inv % p for cc, vv in r.items()}
                else:
                    r = {cc: vv * inv for cc, vv in r.items()}
                pivots[c] = r
                break
            f = r[c]
            if p:
                for cc, vv in prow.items():
                    nv = (r.get(cc, 0) - f * vv) % p
                    if nv:
                        r[cc] = nv
                    else:
                        r.pop(cc, None)
            else:
                for cc, vv in prow.items():
                    nv = r.get(cc, 0) - f * vv
                    if nv:
                        r[cc] = nv
                    else:
                        r.pop(cc, None)
    return len(pivots)


def hh_dims(a: BoundAlgebra, max_i: int = 8, budget: int = DEFAULT_BUDGET) -> HHDims:
    """dim HH^i for i = 0..max_i, from a resolution of length max_i + 1."""
    res = BimoduleResolution(a, budget=budget)
    res.extend_to(max_i + 1)
    ranks = [0] * (max_i + 2)
    for i in range(1, max_i + 2):
        ranks[i] = res.hom_differential_rank(i)
    dims = []
    for i in range(max_i + 1):
        total = len(res.hom_basis(i))
        dims.append(total - ranks[i] - ranks[i + 1])
    if dims[0] != center_dim(a):
        raise InvariantError("HH^0 disagrees with the center")
    if max_i >= 1 and dims[1] != hh1_dim(a):
        raise InvariantError("HH^1 disagrees with Der/Inn")
    return HHDims(tuple(dims), a.field, max_i)
