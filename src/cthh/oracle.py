"""Brute-force Hochschild cohomology of a bound quiver algebra.

The engine builds a minimal projective bimodule resolution step by step.
Its first two levels are written down: P_0 is the sum of the A e_v (x) e_v A,
and P_1 has one summand A e_s (x) e_t A per arrow alpha: s -> t, with image
+-(e_s (x) alpha - alpha (x) e_t) (Happel, LNM 1404, 1989; Bardzell, J. Algebra
188, 1997); the augmentation P_0 -> A is onto and never formed.  From then on
each projective is a sum of A e_a (x) e_b A, the kernel of the previous
differential is computed exactly block-by-block (the differentials respect
the (left vertex, right vertex) bigrading, so the kernel splits), the
kernel's top mod (rad K + K rad) is lifted by bihomogeneous generators,
and those generators index the next projective.  Applying Hom(-, A) turns
the resolution into a cochain complex of small exact matrices whose
cohomology dimensions are the answer.

The kernel of a block is read off a dense matrix, one column per coordinate
(g, p, q) of the block (src p, tgt q), holding p * image(g) * q.  The left
product p * image(g) is formed once per generator g and left path p, then
multiplied by each right path q out of g's right vertex; entries are reduced
modulo the characteristic as they are written.  A nonzero p * x * q lies in
block (src p, tgt q), so every entry lands in its column's block.  A block of
full rank has no kernel, so none is read off; a block with no rows or no
nonzero entry has rank 0 and every column free, so it is not row-reduced.
The d-compose-d check on every new level from level 2 recomputes the images
term by term through pad, so it cross-checks this assembly; it also checks
that each generator image lies in its generator's block, since a term outside
it would be multiplied away unseen.

The top of a kernel block K_(s,t) is counted before it is covered.  The
resolution splits as a sequence of right modules, since A is right projective,
so K = ker d_n is right projective and K (x)_A S_t embeds in P_n (x)_A S_t,
whose part at s has the block's columns (g, p, e_t) as basis: those whose right
path is trivial (_Level.slices).  The block's top is the top at s of the left
module K (x)_A S_t, so its dimension c is the rank of the kernel vectors of
K_(s,t) on those columns less the rank of alpha times those of K_(t(alpha),t),
over the arrows alpha out of s.  A block counted 0 has no new generator and is
skipped.  Otherwise an Echelon is fed first the arrow multiples of the
neighbouring kernel blocks (arrows out of s times K_(t(a),t), then K_(s,s(b))
times arrows into t), which span the block of rad K + K rad, of dimension dim
K_(s,t) - c, until its rank reaches that; then the block's own kernel vectors,
whose residues are the generators, until c of them are found.  A residue is the
one vector of its coset that vanishes on the echelon's pivot columns, and the
pivot set depends only on the span, not on which vectors spanned it or in what
order; so the generators and their images are those of covering every block
with every vector.

Nothing is assumed about minimality when taking cohomology: the Hom-complex
differentials are computed honestly, and d-compose-d = 0 plus image = kernel
are verified at every step computed, exactness at P_0 (rank d_1 = dim P_0 -
dim A) on the first.

Recurrence: for n >= 1 the step from level n to level n + 1 reads only the
state S_n = (gens[n-1], gens[n], images[n]) -- the generators of the target
fix its blocks and offsets, the kernel basis comes from the RREF and the new
generators are Echelon residues taken in sorted block order -- and the rank of
Hom(P_{n-1}, A) -> Hom(P_n, A) reads the same state.  So once S_n = S_j for
some j < n, level m >= j equals level j + (m - j) % (n - j), and each distinct
level and Hom rank is computed once.  The exactness check at level n also
reads the kernel dimension of level n - 1; it runs on every level computed.

hh_dims resolves an algebra once, over its own field, and one resolution
over QQ serves every characteristic.  The algebra's multiplication table is
integral, and HH is the cohomology of Hom(P, A) for any projective bimodule
resolution P (Happel, LNM 1404, 1989).
Suppose that, for a prime p, every image coefficient of levels 1..n + 1 is
p-integral and every block of d_1..d_{n+1} keeps its rank mod p.  Then the
levels reduce mod p to a complex of projective bimodules over GF(p) in which
d o d = 0 still holds, the augmentation is still onto, and the ranks, equal
to those over QQ, still add up to exactness at levels 0..n; so its Hom
complex gives HH^0..HH^n over GF(p).  A block keeps its rank when the minor
on the rows and columns its elimination picked is a unit mod p, and that
minor is +- the product of the pivots rref_frac meets, so the certificate
costs no extra elimination.  extend_to(n + 1) row-reduces only d_1..d_n;
unless level n + 1 repeats an earlier one, d_{n+1} is row-reduced once more,
kernel step only.  When p divides a denominator or a minor, the certificate
fails (it does not prove the ranks drop) and that field is resolved on its
own, with a RuntimeWarning.

The Hom complex reuses the certificate: each distinct Hom differential d^i is
row-reduced once, over the resolution's field.  For a certified p its entries
are p-integral, so its rank mod p is at most its rank r over QQ, and at least r
when p does not divide its pivot product, +- an r x r minor; only a p that
divides it reduces d^i mod p again.  The per-field HH^0/HH^1 cross-checks
check this reuse.

The HH^0/HH^1 cross-checks solve small systems in the same bigrading: Z(A) lies
in the sum of the e_v A e_v, and up to an inner derivation a derivation vanishes
on the trivial paths, so maps each e_u A e_v into itself (Happel, LNM 1404, 1989).
With Der_0 those, Der = Der_0 + Inn and Der_0 meets Inn in dimension l - dim Z,
l the number of paths from a vertex to itself: dim Der = dim Der_0 + dim A - l.
"""

from __future__ import annotations

import warnings
from collections import defaultdict

from .algebra import BoundAlgebra
from .errors import InvariantError, ResolutionBudgetError
from .fields import FieldSpec
from .linalg import Echelon, kernel_from_rref, rref_frac, rref_mod

DEFAULT_BUDGET = 50000


class _Level:
    """One projective P = sum of A e_a (x) e_b A over generators (a, b)."""

    def __init__(self, a: BoundAlgebra, gens, images):
        self.gens = list(gens)       # list of (a_vertex, b_vertex)
        self.images = list(images)   # per generator: dict coord -> coeff in level - 1; none at 0
        blocks = self.blocks = {}
        slices = self.slices = {}    # per block (s, t): offsets of its columns (g, p, e_t)
        basis = a.basis
        for g, (av, bv) in enumerate(self.gens):
            rights = a.paths_from[bv][1:]  # after the trivial path, at index bv - 1
            for p in a.paths_to[av]:
                s = basis[p][0]
                coords = blocks.setdefault((s, bv), [])
                slices.setdefault((s, bv), []).append(len(coords))
                coords.append((g, p, bv - 1))
                for q in rights:
                    blocks.setdefault((s, basis[q][-1]), []).append((g, p, q))
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

    @staticmethod
    def left(mult, p, vec):
        """p * vec, for vec a dict (g, p', q') -> coefficient."""
        out = {}
        for (g, pp, qq), coeff in vec.items():
            for k, c1 in mult.get((p, pp), ()):
                key = (g, k, qq)
                out[key] = out.get(key, 0) + coeff * c1
        return out

    @staticmethod
    def right(mult, vec, q):
        """vec * q, for vec a dict (g, p', q') -> coefficient."""
        out = {}
        for (g, k, qq), v in vec.items():
            for m, c2 in mult.get((qq, q), ()):
                key = (g, k, m)
                out[key] = out.get(key, 0) + v * c2
        return out


class BimoduleResolution:
    """Minimal projective bimodule resolution of the algebra over itself.

    `period` is None until `extend_to` finds a level whose state repeats an
    earlier one; then it is (j, d), and levels[n] is levels[j + (n - j) % d]
    for every n >= j.
    """

    def __init__(self, a: BoundAlgebra):
        self.a = a
        self.field = a.field
        self.total_dim = 0
        self.arrows_out = {}
        self.arrows_in = {}
        for idx in a.arrows:
            s, t = a.basis[idx]
            self.arrows_out.setdefault(s, []).append(idx)
            self.arrows_in.setdefault(t, []).append(idx)
        self.levels = []
        self.kernel_dims = []    # per level: total kernel dimension
        self.minors = {}         # level n -> +- the product of d_n's pivot minors (1 over GF(p))
        self.period = None
        self._states = {}        # (gens[n-1], gens[n]) -> levels n with that pair
        # the augmentation P_0 -> A, e_v (x) e_v -> e_v, is onto: each path p
        # is the image of e_{s(p)} (x) p
        level0 = _Level(a, [(v, v) for v in range(1, a.vertex_count + 1)], ())
        self._append(level0)
        self.kernel_dims.append(level0.dim - a.dimension)
        # level 1 (module docstring), with the sign and term order the top of
        # the augmentation's kernel has: the lower vertex's term first, with +1;
        # the basis lists the trivial path at v at index v - 1
        minus_one = self.field.element(-1)
        gens, images = [], []
        for alpha in a.arrows:
            s, t = a.basis[alpha]
            # e_s (x) alpha and alpha (x) e_t
            left, right = (s - 1, s - 1, alpha), (t - 1, alpha, t - 1)
            lower, upper = (left, right) if s < t else (right, left)
            gens.append((s, t))
            images.append({lower: 1, upper: minus_one})
        self._append(_Level(a, gens, images))
        self._find_period(1)

    def _append(self, lvl):
        """Append a level built here; the budget counts built levels only, so a
        shared level past the period (extend_to) is free."""
        self.total_dim += lvl.dim
        if self.total_dim > DEFAULT_BUDGET:
            raise ResolutionBudgetError(self.total_dim, DEFAULT_BUDGET)
        self.levels.append(lvl)

    def extend_once(self):
        """Kernel of the topmost differential, then cover it minimally."""
        a = self.a
        i = len(self.levels) - 1
        lvl = self.levels[i]
        kernels, rank_total = self._kernels(i)
        self._check_exact(i, rank_total)
        self.kernel_dims.append(sum(len(v) for v in kernels.values()))

        new_gens, new_images = self._top(lvl, kernels)
        self._append(_Level(a, new_gens, new_images))
        self._check_square_zero(len(self.levels) - 1)

    def _check_exact(self, i, rank):
        """The image of d_i, the differential out of level i >= 1, must fill
        the kernel of d_{i-1}."""
        if rank != self.kernel_dims[i - 1]:
            raise InvariantError(f"resolution not exact at step {i}: image {rank}, "
                                 f"kernel {self.kernel_dims[i - 1]}")

    def _kernels(self, i):
        """Kernel bases of the differential out of level i, by block, and its
        rank; over QQ the product of its blocks' pivot minors goes to minors[i]."""
        fld = self.field
        p = fld.characteristic
        blocks = self.levels[i].blocks
        kernels = {}
        rank_total = 0
        minor = 1
        for key, mat in sorted(self._differential_blocks(i).items()):
            ncols = len(blocks[key])
            if not any(map(any, mat)):  # no rows, or all zero: every column is free
                pivots = []
            elif p:
                pivots = rref_mod(mat, ncols, p)[1]
            else:
                _, pivots, block_minor = rref_frac(mat, ncols)
                minor *= block_minor
            rank_total += len(pivots)
            if len(pivots) < ncols:
                kernels[key] = kernel_from_rref(mat, ncols, pivots, fld)
        self.minors[i] = minor
        return kernels, rank_total

    def _differential_blocks(self, i):
        """Dense matrix of each block of the differential out of level i: rows
        are the target block's coordinates, columns the level block's."""
        a, mult = self.a, self.a.mult
        lvl = self.levels[i]
        target = self.levels[i - 1]
        offset = target.offset
        mod = self.field.characteristic
        mats = {key: [[0] * len(cols) for _ in target.blocks.get(key, ())]
                for key, cols in lvl.blocks.items()}
        for g, (av, bv) in enumerate(lvl.gens):
            image = lvl.images[g]
            rights = a.paths_from[bv]
            for p in a.paths_to[av]:
                left = target.left(mult, p, image)
                for q in rights:
                    key, c = lvl.offset[(g, p, q)]
                    mat = mats[key]
                    for tcoord, v in target.right(mult, left, q).items():
                        if mod:
                            v %= mod
                        if v:
                            mat[offset[tcoord][1]][c] = v
        return mats

    def _top(self, lvl, kernels):
        """Generators (block keys) and images lifting the kernel top modulo
        rad*K + K*rad, block by block; the count and the stopping rules are in
        the module docstring."""
        fld = self.field
        new_gens = []
        new_images = []
        counts = self._top_counts(lvl, kernels)
        for key in sorted(kernels):
            count = counts[key]
            if not count:
                continue
            kernel = kernels[key]
            block_coords = lvl.blocks[key]
            ech = Echelon(fld)
            goal = len(kernel) - count  # dim of the block of rad*K + K*rad
            if goal:
                for vec in self._radical_multiples(lvl, kernels, key):
                    ech.add(vec)
                    if ech.rank == goal:
                        break
            # the residues of the kernel vectors lift the top
            for vec in kernel:
                residue = ech.add(vec)
                if residue is not None:
                    new_gens.append(key)
                    new_images.append({
                        block_coords[off]: val
                        for off, val in enumerate(residue)
                        if val
                    })
                    count -= 1
                    if not count:
                        break
        return new_gens, new_images

    def _top_counts(self, lvl, kernels):
        """Per kernel block (s, t), the dimension of its block of K/(rad*K + K*rad),
        read on its columns (g, p, e_t): the rank of its kernel vectors there, less
        that of the arrows out of s times those of the blocks they reach (module
        docstring)."""
        fld = self.field
        restricted = {}  # block -> Echelon of its kernel vectors on its columns (g, p, e_t)
        for key, kernel in kernels.items():
            cols = lvl.slices.get(key)  # none when no generator ends at t
            if not cols:
                continue
            ech = Echelon(fld)
            for vec in kernel:
                row = [vec[off] for off in cols]
                if any(row):
                    ech.add(row)
                    if ech.rank == len(cols):
                        break
            if ech.rank:
                restricted[key] = ech
        counts = dict.fromkeys(kernels, 0)
        for key, ech in restricted.items():
            rad = Echelon(fld)
            for vec in self._slice_multiples(lvl, restricted, key):
                rad.add(vec)
                if rad.rank == ech.rank:
                    break
            counts[key] = ech.rank - rad.rank
        return counts

    def _slice_multiples(self, lvl, restricted, key):
        """Arrows a out of s times the basis of each restricted[(t(a), t)], on the
        columns (g, p, e_t) of block key = (s, t) (dense)."""
        a = self.a
        mult = a.mult
        char = self.field.characteristic
        s, t = key
        coords = lvl.blocks[key]
        pos = {coords[off]: j for j, off in enumerate(lvl.slices[key])}
        for alpha in self.arrows_out.get(s, ()):
            src_key = (a.basis[alpha][1], t)
            if src_key not in restricted:
                continue
            src_coords = [lvl.blocks[src_key][off] for off in lvl.slices[src_key]]
            for row in restricted[src_key].pivot_rows.values():
                out = [0] * len(pos)
                for (g, p, q), val in zip(src_coords, row):
                    if val:
                        for k, c in mult.get((alpha, p), ()):
                            out[pos[(g, k, q)]] += val * c
                yield [x % char for x in out] if char else out

    def _radical_multiples(self, lvl, kernels, key):
        """Spanning vectors of rad*K + K*rad in block key: arrows out of s times
        the kernel blocks they reach, then the kernel blocks into t times arrows."""
        a = self.a
        s, t = key
        for alpha in self.arrows_out.get(s, ()):
            src_key = (a.basis[alpha][1], t)
            for vec in kernels.get(src_key, ()):
                yield self._arrow_mul(lvl, src_key, key, vec, alpha, True)
        for beta in self.arrows_in.get(t, ()):
            src_key = (s, a.basis[beta][0])
            for vec in kernels.get(src_key, ()):
                yield self._arrow_mul(lvl, src_key, key, vec, beta, False)

    def _arrow_mul(self, lvl, src_key, dst_key, vec, arrow, left):
        """arrow * vec if left, else vec * arrow: block src_key of lvl into block
        dst_key (dense)."""
        out = [0] * len(lvl.blocks[dst_key])
        mult = self.a.mult
        offset = lvl.offset
        for (g, p, q), val in zip(lvl.blocks[src_key], vec):
            if not val:
                continue
            if left:
                for k, c in mult.get((arrow, p), ()):
                    out[offset[(g, k, q)][1]] += val * c
            else:
                for k, c in mult.get((q, arrow), ()):
                    out[offset[(g, p, k)][1]] += val * c
        p = self.field.characteristic
        return [x % p for x in out] if p else out

    def _check_square_zero(self, i):
        """Each generator image of level i lies in its generator's block of
        level i - 1, and d_{i-1} after d_i vanishes on it (i >= 2)."""
        prev = self.levels[i - 1]
        target = self.levels[i - 2]
        mod = self.field.characteristic
        for key, img in zip(self.levels[i].gens, self.levels[i].images):
            acc = {}
            for coord, coeff in img.items():
                if prev.offset[coord][0] != key:
                    raise InvariantError("differential broke the vertex bigrading")
                g, p, q = coord
                for tcoord, c2 in prev.images[g].items():
                    target.pad(self.a, tcoord, p, q, coeff * c2, acc)
            if any(v % mod if mod else v for v in acc.values()):
                raise InvariantError("d o d != 0")

    def extend_to(self, length):
        """Levels 0..length.  Once a level's state repeats (module docstring),
        the remaining levels are references to the repeating ones."""
        while len(self.levels) < length + 1:
            n = len(self.levels)
            if self.period is None:
                self.extend_once()
                self._find_period(n)
            else:
                # kept per level, so that extend_once also works on top of shared levels
                self.kernel_dims.append(self.kernel_dims[self.distinct_index(n - 1)])
                self.levels.append(self.levels[self.distinct_index(n)])

    def _find_period(self, n):
        """Record (j, n - j) if level n's state repeats level j's, and share level j."""
        key = (tuple(self.levels[n - 1].gens), tuple(self.levels[n].gens))
        seen = self._states.setdefault(key, [])
        for j in seen:
            if self.levels[j].images == self.levels[n].images:  # dicts compare as mappings
                self.period = (j, n - j)
                self.levels[n] = self.levels[j]
                return
        seen.append(n)

    def distinct_index(self, n):
        """The least level index whose state is level n's."""
        if self.period is None or n < self.period[0]:
            return n
        j, d = self.period
        return j + (n - j) % d

    # ------------------------------------------------------------------
    # Hom(-, A) cochain complex
    # ------------------------------------------------------------------

    def hom_basis(self, i):
        """Basis of Hom(P_i, A): one (g, w) per path w in e_a A e_b."""
        parallel = self.a.parallel
        return [(g, w) for g, key in enumerate(self.levels[i].gens) for w in parallel.get(key, ())]

    def obstruction(self, length):
        """An integer N such that, for every prime p not dividing N, levels
        0..length over QQ reduce mod p to the start of a projective bimodule
        resolution over GF(p) (module docstring).  N is the product of the
        denominators of the image coefficients and the numerators of the pivot
        minors of d_1..d_length; after extend_to(length), d_length is row-reduced
        here unless its level repeats an earlier one."""
        out = 1
        for n in {self.distinct_index(n) for n in range(1, length + 1)}:
            if n not in self.minors:
                self._check_exact(n, self._kernels(n)[1])
            out *= self.minors[n].numerator
            for img in self.levels[n].images:
                for c in img.values():
                    if type(c) is not int:
                        out *= c.denominator
        return out

    def hom_differential_rank(self, i, fields):
        """Ranks of Hom(P_{i-1}, A) -> Hom(P_i, A) over each field in fields: the
        resolution's own, or a GF(p) that a resolution over QQ is certified for
        (obstruction).  It is row-reduced once over the resolution's field, and
        again mod p only for a prime dividing that pivot minor (module docstring)."""
        rank, minor = self._hom_rank(i, self.field)
        return [rank if fs == self.field or minor.numerator % fs.characteristic
                else self._hom_rank(i, fs)[0] for fs in fields]

    def _hom_rank(self, i, field):
        """Rank of Hom(P_{i-1}, A) -> Hom(P_i, A) over field and, over QQ, +- the
        product of its pivots; a resolution over QQ is reduced mod p for GF(p)."""
        dom = self.hom_basis(i - 1)
        cod_pos = {gw: r for r, gw in enumerate(self.hom_basis(i))}
        mult = self.a.mult
        images = self.levels[i].images
        if field != self.field:  # the one place a Fraction can meet GF(p)
            images = [{coord: field.element(c) for coord, c in img.items()} for img in images]

        def terms():
            for col, (gsrc, w) in enumerate(dom):
                for g, img in enumerate(images):
                    for (gg, pp, qq), coeff in img.items():
                        if gg != gsrc:
                            continue
                        for k, c1 in mult.get((pp, w), ()):
                            for m, c2 in mult.get((k, qq), ()):
                                yield cod_pos[(g, m)], col, coeff * c1 * c2

        return _rank(terms(), len(dom), field)


def _rank(terms, ncols, fld: FieldSpec):
    """Rank of the system whose (row key, column, value) terms sum into dense
    rows, and +- the product of its pivots over QQ (1 over GF(p)); over GF(p)
    the sums need not be reduced, since rref_mod reduces them."""
    rows = defaultdict(lambda: [0] * ncols)
    for key, col, val in terms:
        rows[key][col] += val
    if fld.characteristic:
        return rref_mod(list(rows.values()), ncols, fld.characteristic)[0], 1
    rank, _, minor = rref_frac(list(rows.values()), ncols)
    return rank, minor


def center_dim(a: BoundAlgebra) -> int:
    """dim Z(A): unknowns on the paths from a vertex to itself, x g = g x per arrow g."""
    loops = [b for v in range(1, a.vertex_count + 1) for b in a.parallel[(v, v)]]

    def terms():
        for g in a.arrows:
            for col, b in enumerate(loops):
                for c, v in a.mult.get((b, g), ()):
                    yield (g, c), col, v
                for c, v in a.mult.get((g, b), ()):
                    yield (g, c), col, -v

    return len(loops) - _rank(terms(), len(loops), a.field)[0]


def derivation_space_dim(a: BoundAlgebra) -> int:
    """dim Der_0 + dim A - l.  The unknowns of Der_0 are the coordinates of each
    D(arrow g) on the basis paths parallel to g; Leibniz for g and a non-trivial
    basis path m defines D(g m) when g m is a basis path, else is an equation."""
    d, mult, basis, index = a.dimension, a.mult, a.basis, a.index
    der = {}  # basis path -> D(path) as {(unknown, coordinate): coefficient}

    def leibniz(g, m):
        out = {}
        for (j, l), v in der[g].items():
            for c, nu in mult.get((l, m), ()):
                out[(j, c)] = out.get((j, c), 0) + v * nu
        for (j, l), v in der[m].items():
            for c, nu in mult.get((g, l), ()):
                out[(j, c)] = out.get((j, c), 0) + v * nu
        return out

    ncols = 0
    for b in range(a.vertex_count, d):  # the basis lists shorter paths first
        p = basis[b]
        if len(p) == 2:  # an arrow: its path is its (source, target) key
            der[b] = {(ncols + j, c): 1 for j, c in enumerate(a.parallel[p])}
            ncols += len(der[b])
        else:
            der[b] = leibniz(index[p[:2]], index[p[1:]])

    def terms():
        for g in a.arrows:
            for m in a.paths_from[basis[g][1]][1:]:  # the trivial path comes first
                if basis[g] + basis[m][1:] in index:
                    continue
                for k, mu in mult.get((g, m), ()):
                    for (j, c), v in der[k].items():
                        yield (g, m, c), j, mu * v
                for (j, c), v in leibniz(g, m).items():
                    yield (g, m, c), j, -v

    loops = sum(len(a.parallel[(v, v)]) for v in range(1, a.vertex_count + 1))
    return ncols - _rank(terms(), ncols, a.field)[0] + d - loops


def hh1_dim(a: BoundAlgebra) -> int:
    """dim HH^1 = dim Der - dim Inn, with dim Inn = dim A - dim Z(A)."""
    der = derivation_space_dim(a)
    inn = a.dimension - center_dim(a)
    return der - inn


def hh_dims(a: BoundAlgebra, fieldspecs, max_i: int = 8) -> list:
    """(dim HH^0, ..., dim HH^max_i) of a.over(fs) for each fs in fieldspecs,
    in order, from one resolution of a over its own field, of length max_i + 1.
    Each a.over(fs) is a view that shares a's integer table, which the
    resolution and the cross-checks reduce mod p where they eliminate.
    The fields the resolution is certified for share one pass over the
    distinct levels (hom_differential_rank); when p divides the resolution's
    obstruction, a.over(fs) is resolved on its own instead, with a
    RuntimeWarning.  Each field's HH^0 and HH^1 are checked
    against the center and Der/Inn of a.over(fs).  With level 1 written down,
    HH^0 and dim Z(A) solve the same system (x alpha = alpha x on the paths
    from a vertex to itself) through separate code, so the HH^0 check
    cross-checks that code."""
    algebras = [a.over(fs) for fs in fieldspecs]  # a wrong field fails before any level
    res = BimoduleResolution(a)
    res.extend_to(max_i + 1)
    obstruction = res.obstruction(max_i + 1) if set(fieldspecs) - {a.field} else 1
    certified = [fs for fs in dict.fromkeys(fieldspecs)
                 if fs == a.field or obstruction % fs.characteristic]
    ranks = [[0] * len(certified)]  # per level i, the rank of d^i over each certified field
    for i in range(1, max_i + 2) if certified else ():
        m = res.distinct_index(i)  # the rank reads the same state as the level
        ranks.append(ranks[m] if m < i else res.hom_differential_rank(i, certified))
    out = []
    for fs, alg in zip(fieldspecs, algebras):
        if fs not in certified:
            warnings.warn(f"{a.quiver}: the resolution over {a.field} is not certified "
                          f"mod {fs.characteristic}; resolving over {fs}",
                          RuntimeWarning, stacklevel=2)
            out += hh_dims(alg, [fs], max_i)
            continue
        k = certified.index(fs)
        dims = tuple(len(res.hom_basis(i)) - ranks[i][k] - ranks[i + 1][k] for i in range(max_i + 1))
        if dims[0] != center_dim(alg):
            raise InvariantError("HH^0 disagrees with the center")
        # dim HH^1 = dim Der - dim Inn, and dim Inn = dim A - dim Z(A) = dim A - dims[0]
        if max_i >= 1 and dims[1] != derivation_space_dim(alg) - alg.dimension + dims[0]:
            raise InvariantError("HH^1 disagrees with Der/Inn")
        out.append(dims)
    return out
