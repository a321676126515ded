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

The step from level n runs two passes over d_n, both on dense matrices: a
column per coordinate (g, p, q) holding p * image(g) * q, a row per target
coordinate it reaches (_assemble).  The left product p * image(g) is formed
once per generator g and left path p, then multiplied by each right path q;
entries are reduced modulo the characteristic as they are written.

The slice pass runs on every block (s, t).  The resolution splits as a sequence
of right modules, since A is right projective, so each kernel K_n = ker d_n is
right projective, and P (x)_A S_t is a complex whose part at s has the block's
columns (g, p, e_t) as basis: those whose right path is trivial
(_Level.slices).  d_n (x) S_t keeps only the image terms with a trivial right
path.  Its rank must be r_{n-1}(s, t), the kernel dimension of d_{n-1} (x) S_t
at s, with r_0(s, t) = dim e_s A e_t - delta_st: that is exactness.  It is
enough.  Let H be the lowest homology of P -> A -> 0; below it the complex
splits, so H (x) S_t is the homology of P (x) S_t there, which is 0 for every t,
and H = H rad is 0 by Nakayama.  K_n (x) S_t embeds in P_n (x) S_t as the slice
kernel, so dim e_s K_n e_t = sum_u r_n(s, u) dim e_u A e_t.

The top of K_n at (s, t) is the top at s of the left module K_n (x) S_t, so its
dimension c is r_n(s, t) less the rank of R, the span of alpha times the slice
kernel of (t(alpha), t) over the arrows alpha out of s (_top_counts).  Only the
blocks counted c > 0 are row-reduced whole, in the full pass; each one's rank
must be sum_u r_{n-1}(s, u) dim e_u A e_t.  Their block W of rad K + K rad is
the preimage of R under pi, the restriction of K_(s,t) to the columns
(g, p, e_t): pi commutes with left multiplication by arrows, so pi(rad K) = R,
and the kernel of pi on K_(s,t) is K rad there, since K is right projective.
An Echelon is seeded with the rows of R padded by zeros and fed each kernel
vector b as (pi(b), b); its rows with a pivot in the b part span W, whose
dimension must be dim K_(s,t) - c.  The vectors b whose residue leads in the
pi part lift the top: b lies outside W plus the span of the vectors before it
exactly when pi(b) lies outside R plus the span of theirs, so there are c of
them.  Only they are fed again, as (0, b), which only W's rows reduce: their
residues are the generators.  A residue is the one vector of its coset that
vanishes on the echelon's pivot columns, and the pivot set depends only on the
span, not on which vectors spanned it or in what order; so the generators and
their images are those of covering every block with every vector.  The
d-compose-d check on every new level from level 2 recomputes the images term by
term through pad, so it cross-checks the assembly; it also checks that each
generator image lies in its generator's block, since a term outside it would be
multiplied away unseen.

Nothing is assumed about minimality when taking cohomology: the Hom-complex
differentials are computed honestly, and d-compose-d = 0 plus image = kernel
are verified at every step computed, exactness at P_0 on the first.

Recurrence: for n >= 1 the step from level n to level n + 1 reads only the
state S_n = (gens[n-1], gens[n], images[n]) -- the generators of the target
fix its blocks and offsets, the kernel basis comes from the RREF and the new
generators are Echelon residues taken in sorted block order -- and the rank of
Hom(P_{n-1}, A) -> Hom(P_n, A) reads the same state.  So once S_n = S_j for
some j < n, level m >= j equals level j + (m - j) % (n - j), and each distinct
level and Hom rank is computed once.  The exactness check at level n also
reads the slice kernel dimensions of level n - 1; it runs on every level
computed.

Outside characteristic 2 the state often repeats first up to signs: level n,
with the generator pair of a level j >= 1, is a sign twist of it when
image_n[h][(g, p, q)] = eps_{n-1}(g) chi(p) eps_n(h) image_j[h][(g, p, q)] for
signs eps on the generators of levels n - 1 and n and chi on the arrows, chi(p)
the product over the arrows of p, with alpha -> chi(alpha) alpha an
automorphism sigma of A (_sign_twist solves for the signs as bits, mod 2).
Then Phi_m(g, p, q) = eps_m(g) chi(p) is right A-linear and sigma-semilinear
on the left, and d_n = Phi_{n-1} d_j Phi_n^-1.  Every step of extend_once is
equivariant under such +-1 diagonal scalings: the RREF pivot columns do not
move, a kernel vector of kernel_from_rref is rescaled to 1 at its free column,
the slice ranks, top counts, W and the echelons' pivot sets do not change, and
a residue picks up Phi at its lead.  So level n + 1 is level j + 1 with each
image coordinate c of generator h times Phi_n(c) eps_{n+1}(h), eps_{n+1}(h)
being Phi_n of the image's lead so that the lead stays 1, and the twist
carries on: extend_to derives every level m > n from level m - (n - j) with
its source's generators and block index (_derive), where extend_once would
build the same level.  Exactness at level m - 1 holds because d_m (x) S_t has
the rank of d_{m-n+j} (x) S_t, which the step from that level checked (or
derived in turn), and the slice kernel dimensions of d_{n-1} and d_{j-1} are
checked equal before a twist is taken.  Each level holds the slice kernel
dimensions of the step out of it: level n takes level j's when the twist is
found, and a derived level carries its source's.  The d-compose-d check runs on
every derived level.  The period stays exact equality of states, and each
distinct level's Hom rank is still computed: Hom ranks are not invariant under
the twist.  Over GF(2) a twist is equality, so none is found.

Threads: join each generator of a level n >= 2 to the generators of level n - 1
its image reads; the components over levels >= 1 are the threads (level 0,
which every arrow reads, is left out), and extend_to finds them at level 2.
d_2 is block-diagonal by thread, and if d_n is, each of its blocks (s, t) is a
direct sum of one matrix per thread up to the order of rows and columns, so
the step from level n splits: the RREF of a direct sum is the parts' RREFs
(they form a reduced echelon basis of its row space, which has only one), so
the pivots, the kernel vectors of kernel_from_rref and the slice kernels
belong to one thread each; R and rad*K + K*rad are direct sums, an echelon's
pivot set holds the leads of its span, so it is the union of the parts', and
the residue of a vector of one thread is its residue within that thread; a
kernel vector lifts the top when it does within its thread.  So every image
of level n + 1 reads one thread, and extend_to checks that from level 3 on.
Within a block a thread's columns keep their order, so the step restricted to
a thread T gives the generators and images, numbered within T, that it gives
on T alone: it reads only T's state S_n^T = (T's generators of levels n - 1
and n, their images on T's generators of level n - 1 numbered from 0).  Once
S_n^T = S_j^T for some 2 <= j < n, T's part of level m >= j is its part of
level j + (m - j) % (n - j), and extend_to builds no level once every thread
has repeated or the whole level has (the threads can trade places, so a
whole-level period need not close each one).  From d^2 on the Hom
differentials are block-diagonal by thread as well, and Hom(P_i, A) is the sum
of the Hom(P_i^T, A): hom_parts reads each thread's Hom space and Hom rank at
the thread's own distinct index, d^1 and the levels after a whole-level
period whole.

hh_dims resolves an algebra once, over its own field, and one resolution
over QQ serves every characteristic.  The algebra's multiplication table is
integral, and HH is the cohomology of Hom(P, A) for any projective bimodule
resolution P (Happel, LNM 1404, 1989).
Suppose that, for a prime p, every image coefficient of levels 1..n + 1 is
p-integral and every slice block of d_1..d_{n+1} keeps its rank mod p.  Then
the levels reduce mod p to a complex of projective bimodules over GF(p) in
which d o d = 0 still holds, the augmentation is still onto, and the slice
ranks, equal to those over QQ, still prove exactness at levels 0..n by the
same argument over GF(p); so its Hom complex gives HH^0..HH^n over GF(p).  A
slice block keeps its rank when the minor on the rows and columns its
elimination picked is a unit mod p, and that minor is +- the product of the
pivots rref_frac meets, so the certificate costs no extra elimination.
The resolution keeps one integer, obstruction: the product of each slice
pass's pivot minors (numerators) and, over QQ, of the denominators _top writes
into an image; level 1 is written with +-1 and _derive only flips signs.  It
covers every step that ran, a superset of the levels hom_parts reads: a shared
level is one whose step ran, and a derived or twisting level has the slice
ranks and, up to sign, the images and pivot minors of one.  extend_to(n + 1)
runs the slice pass of d_1..d_n, and hh_dims that of d_{n+1} unless level n + 1
holds its slice data already or was never built.  When p divides obstruction,
the certificate fails (it does not prove the ranks drop) and that field is
resolved on its own, with a RuntimeWarning.

The threads need no certificate of their own: the rank mod p of a direct sum
is the sum of the parts', each at most its rank over QQ, so a thread's block
keeps its rank when the whole block does; and once every thread has repeated,
the levels hom_parts reads lie below the last level built, whose steps ran.

The Hom complex reuses the certificate: each distinct Hom differential d^i (from
d^2 on, each thread's part of it) is row-reduced once, over the resolution's
field.  For a certified p its entries are p-integral, so its rank mod p is at
most its rank r over QQ, and at least r when p does not divide its pivot
product, +- an r x r minor; only a p that divides it reduces d^i mod p again.
The per-field HH^0/HH^1 cross-checks check this reuse.

The HH^0/HH^1 cross-checks solve small systems in the same bigrading: Z(A) lies
in the sum of the e_v A e_v, and up to an inner derivation a derivation vanishes
on the trivial paths, so maps each e_u A e_v into itself (Happel, LNM 1404, 1989).
With Der_0 those, Der = Der_0 + Inn and Der_0 meets Inn in dimension l - dim Z,
l the number of paths from a vertex to itself: dim Der = dim Der_0 + dim A - l.
"""

from __future__ import annotations

import copy
import warnings
from collections import defaultdict

from .algebra import BoundAlgebra
from .errors import InvariantError, ResolutionBudgetError
from .fields import FieldSpec
from .linalg import Echelon, kernel_from_rref, rref_frac, rref_mod

DEFAULT_BUDGET = 50000


class _Level:
    """One projective P = sum of A e_a (x) e_b A over generators (a, b).

    Block (s, t) is e_s P e_t, with basis (g, p, q) for the generators g = (a, b),
    the paths p from s to a and q from b to t, in that order; block(key) lists
    it on first read.  slices[(s, t)] lists the basis (g, p, e_t) of P (x) S_t at s.
    slice_dims belongs to the step d out of the level, once known: {(s, t): dim
    of the kernel of d (x) S_t at s, when nonzero}."""

    def __init__(self, a: BoundAlgebra, gens, images):
        self.gens = list(gens)       # list of (a_vertex, b_vertex)
        self.images = list(images)   # per generator: dict coord -> coeff in level - 1; none at 0
        self.slice_dims = None
        self.threads = None          # thread -> its generators in order, from level 1 once level 2 is built
        self.parallel = a.parallel
        self._blocks = {}            # (s, t) -> (its coordinates, coordinate -> offset)
        lefts = self._lefts = {}     # s -> (g, p, b) per generator g = (a, b), path p from s to a
        slices = self.slices = {}
        basis = a.basis
        dim = 0
        for g, (av, bv) in enumerate(self.gens):
            paths = a.paths_to[av]
            dim += len(paths) * len(a.paths_from[bv])
            for p in paths:
                s = basis[p][0]
                lefts.setdefault(s, []).append((g, p, bv))
                slices.setdefault((s, bv), []).append((g, p, bv - 1))
        self.dim = dim

    def block(self, key):
        """The coordinates of block key, in order, and the offset of each."""
        got = self._blocks.get(key)
        if got is None:
            s, t = key
            parallel = self.parallel
            coords = [(g, p, q) for g, p, bv in self._lefts.get(s, ())
                      for q in parallel.get((bv, t), ())]
            got = self._blocks[key] = coords, {c: off for off, c in enumerate(coords)}
        return got

    @staticmethod
    def pad(mult, coord, p, q, coeff, acc):
        """Accumulate p * (g, p', q') * q into acc."""
        g, pp, qq = coord
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
    for every n >= j.  `thread_periods` holds, once level 2 is built, a (j, d)
    or None per thread: a thread that repeated at level j + d reads level
    j + (n - j) % d for every n >= j, and once every thread has repeated
    `extend_to` builds no further level (module docstring).
    """

    def __init__(self, a: BoundAlgebra):
        self.a = a
        self.field = a.field
        self.total_dim = 0
        self.obstruction = 1  # the certificate for GF(p), p not dividing it (module docstring)
        self.arrows_out = {}
        for idx in a.arrows:
            self.arrows_out.setdefault(a.basis[idx][0], []).append(idx)
        self.levels = []
        self.period = None
        self.thread_periods = None
        self._states = {}        # (gens[n-1], gens[n]) -> levels n with that pair
        self._thread_states = {}  # (thread, its gens[n-1], its gens[n]) -> levels n with that triple
        # (n - j, chi per basis path, {level m: eps_m}) once level n is a sign
        # twist of level j (_sign_twist); the signs are bits, 1 for -1
        self._twist = None
        # the augmentation P_0 -> A, e_v (x) e_v -> e_v, is onto: each path p
        # is the image of e_{s(p)} (x) p, and P_0 (x) S_t -> S_t is onto
        level0 = _Level(a, [(v, v) for v in range(1, a.vertex_count + 1)], ())
        self._append(level0)
        level0.slice_dims = {key: d for key, paths in a.parallel.items()
                             if (d := len(paths) - (key[0] == key[1]))}
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
        """Append a level built or derived here; the budget counts those levels
        only, so a shared level past the period (extend_to) is free."""
        self.total_dim += lvl.dim
        if self.total_dim > DEFAULT_BUDGET:
            raise ResolutionBudgetError(self.total_dim, DEFAULT_BUDGET)
        self.levels.append(lvl)

    def extend_once(self):
        """Kernel of the topmost differential, then cover it minimally: the
        slice pass on every block, the full pass on the blocks counted > 0
        (module docstring)."""
        i = len(self.levels) - 1
        lvl = self.levels[i]
        tops = self._top_counts(lvl, self._slice_kernels(i))
        kernels = self._kernels(i, [key for key, (count, _) in tops.items() if count])
        self._append(_Level(self.a, *self._top(lvl, tops, kernels)))
        self._check_square_zero(len(self.levels) - 1)

    def _slice_kernels(self, i):
        """Kernel bases of d_i (x) S_t at s, on the columns (g, p, e_t) of each
        block (s, t) of level i (i >= 1).  Its rank must be the kernel dimension
        of d_{i-1} (x) S_t at s (exactness at level i - 1); the kernel
        dimensions go to level i, the product of the pivot minors into
        obstruction."""
        lvl = self.levels[i]
        n = self.a.vertex_count  # the trivial paths are the basis paths below n
        # the image terms with a trivial right path, the only ones d (x) S_t keeps
        heads = [{c: v for c, v in img.items() if c[2] < n} for img in lvl.images]
        kernels, ranks, dims = {}, {}, {}
        minor = 1
        for key, rows in self._assemble(lvl.slices, heads).items():
            ncols = len(lvl.slices[key])
            rank, block_minor, kernel = self._eliminate(rows, ncols)
            minor *= block_minor
            if rank:
                ranks[key] = rank
            if kernel:
                kernels[key] = kernel
                dims[key] = len(kernel)
        prev = self.levels[i - 1].slice_dims
        if ranks != prev:
            key = min(k for k in ranks.keys() | prev.keys() if ranks.get(k) != prev.get(k))
            raise InvariantError(f"resolution not exact at step {i}: image {ranks.get(key, 0)}, "
                                 f"kernel {prev.get(key, 0)} in the slice of block {key}")
        lvl.slice_dims = dims
        self.obstruction *= minor.numerator
        return kernels

    def _kernels(self, i, keys):
        """Kernel bases of d_i on the blocks keys of level i.  The rank of block
        (s, t) must be dim e_s K e_t = sum_u r(s, u) dim e_u A e_t, r the slice
        kernel dimensions of d_{i-1}: K = ker d_{i-1} is right projective."""
        lvl = self.levels[i]
        parallel = self.a.parallel
        prev = {}  # s -> (u, r(s, u))
        for (s, u), r in self.levels[i - 1].slice_dims.items():
            prev.setdefault(s, []).append((u, r))
        kernels = {}
        columns = {key: lvl.block(key)[0] for key in keys}
        for (s, t), rows in self._assemble(columns, lvl.images).items():
            rank, _, kernel = self._eliminate(rows, len(columns[(s, t)]))
            want = sum(r * len(parallel.get((u, t), ())) for u, r in prev.get(s, ()))
            if rank != want:
                raise InvariantError(f"resolution not exact at step {i}: image {rank}, "
                                     f"kernel {want} in block {(s, t)}")
            if kernel:
                kernels[(s, t)] = kernel
        return kernels

    def _assemble(self, columns, images):
        """Per block key of columns, the differential on the columns (g, p, q) of
        columns[key], p * images[g] * q: a dense row per target coordinate met,
        in order of appearance (a row order does not change the RREF).  The left
        product p * images[g] is formed once per generator g and left path p; a
        trivial q leaves it as it is, since images[g] lies in g's block."""
        mult = self.a.mult
        n = self.a.vertex_count
        mod = self.field.characteristic
        lefts = {}
        mats = {}
        for key, cols in columns.items():
            rows = mats[key] = {}
            for c, (g, p, q) in enumerate(cols):
                left = lefts.get((g, p))
                if left is None:
                    left = lefts[(g, p)] = _Level.left(mult, p, images[g])
                for tcoord, v in (_Level.right(mult, left, q) if q >= n else left).items():
                    if mod:
                        v %= mod
                    if v:
                        row = rows.get(tcoord)
                        if row is None:
                            row = rows[tcoord] = [0] * len(cols)
                        row[c] = v
        return mats

    def _eliminate(self, rows, ncols):
        """Rank, +- the product of the pivot minors over QQ (1 over GF(p)) and a
        kernel basis of the dense rows (a dict, target coordinate -> row)."""
        fld = self.field
        mat = list(rows.values())
        if ncols == 1:  # a row holds one entry, kept only when nonzero (_assemble)
            if not mat:
                return 0, 1, [(1,)]
            return 1, 1 if fld.characteristic else mat[0][0], []
        minor = 1
        if not mat:  # every column is free
            pivots = []
        elif fld.characteristic:
            pivots = rref_mod(mat, ncols, fld.characteristic)[1]
        else:
            _, pivots, minor = rref_frac(mat, ncols)
        kernel = kernel_from_rref(mat, ncols, pivots, fld) if len(pivots) < ncols else []
        return len(pivots), minor, kernel

    def _top(self, lvl, tops, kernels):
        """Generators (block keys) and images lifting the kernel top modulo
        rad*K + K*rad, block by block; the spans, the check and the choice of
        the vectors that lift are in the module docstring.  Over QQ the
        denominator of each non-integral coefficient goes into obstruction."""
        rational = not self.field.characteristic
        new_gens = []
        new_images = []
        for key in sorted(kernels):
            count, rad = tops[key]
            kernel = kernels[key]
            ech, width, lifts = self._radical_echelon(lvl, key, kernel, rad)
            if len(lifts) != count:
                raise InvariantError(f"top count of block {key} off at step {len(self.levels) - 1}: "
                                     f"rad*K + K*rad has dimension {len(kernel) - len(lifts)}, "
                                     f"not {len(kernel)} - {count}")
            block_coords = lvl.block(key)[0]
            pad = [0] * width
            for vec in lifts:  # each one's residue lifts the top
                residue = ech.add(pad + list(vec))
                image = {block_coords[off]: val for off, val in enumerate(residue[width:]) if val}
                if rational:
                    for val in image.values():
                        if type(val) is not int:
                            self.obstruction *= val.denominator
                new_gens.append(key)
                new_images.append(image)
        return new_gens, new_images

    def _radical_echelon(self, lvl, key, kernel, rad):
        """An Echelon, the width of its first part and the kernel vectors that
        lift the top: rad's rows padded by zeros, then each kernel vector b as
        (pi(b), b), pi(b) its entries on the columns (g, p, e_t).  The rows with
        a pivot past the first part span the block key of rad*K + K*rad; b
        lifts the top when its residue leads in the first part (module
        docstring)."""
        offset = lvl.block(key)[1]
        cols = [offset[c] for c in lvl.slices[key]]
        ech = Echelon(self.field)
        pad = [0] * len(offset)
        for _, row in sorted(rad.pivot_rows.items()):  # in pivot order, nothing to reduce
            ech.add(row + pad)
        lifts = []
        for vec in kernel:
            residue = ech.add([vec[j] for j in cols] + list(vec))
            if any(residue[:len(cols)]):  # never None: the kernel vectors are independent
                lifts.append(vec)
        return ech, len(cols), lifts

    def _top_counts(self, lvl, slice_kernels):
        """Per block (s, t) with a slice kernel, the dimension of its block of
        K/(rad*K + K*rad) and an Echelon of R, the span of the arrows out of s
        times the slice kernels of the blocks they reach: the dimension of that
        slice kernel, less the rank of R (module docstring)."""
        fld = self.field
        tops = {}
        for key, kernel in slice_kernels.items():
            rad = Echelon(fld)
            for vec in self._slice_multiples(lvl, slice_kernels, key):
                rad.add(vec)
                if rad.rank == len(kernel):
                    break
            tops[key] = len(kernel) - rad.rank, rad
        return tops

    def _slice_multiples(self, lvl, slice_kernels, key):
        """Arrows a out of s times the basis of each slice_kernels[(t(a), t)], on
        the columns (g, p, e_t) of block key = (s, t)."""
        s, t = key
        pos = {c: j for j, c in enumerate(lvl.slices[key])}
        for alpha in self.arrows_out.get(s, ()):
            src_key = (self.a.basis[alpha][1], t)
            for vec in slice_kernels.get(src_key, ()):
                yield self._arrow_mul(lvl.slices[src_key], pos, vec, alpha)

    def _arrow_mul(self, coords, offset, vec, arrow):
        """arrow * vec, for vec on the coordinates coords: dense on the
        coordinates of offset, unreduced mod p (Echelon reduces it)."""
        out = [0] * len(offset)
        mult = self.a.mult
        for (g, p, q), val in zip(coords, vec):
            if val:
                for k, c in mult.get((arrow, p), ()):
                    out[offset[(g, k, q)]] += val * c
        return out

    def _check_square_zero(self, i):
        """Each generator image of level i lies in its generator's block of
        level i - 1, and d_{i-1} after d_i vanishes on it (i >= 2)."""
        prev = self.levels[i - 1]
        mult = self.a.mult
        mod = self.field.characteristic
        for key, img in zip(self.levels[i].gens, self.levels[i].images):
            acc = {}
            offset = prev.block(key)[1]
            for coord, coeff in img.items():
                if coord not in offset:
                    raise InvariantError("differential broke the vertex bigrading")
                g, p, q = coord
                for tcoord, c2 in prev.images[g].items():
                    _Level.pad(mult, tcoord, p, q, coeff * c2, acc)
            if any(v % mod if mod else v for v in acc.values()):
                raise InvariantError("d o d != 0")

    def extend_to(self, length):
        """Levels 0..length, or fewer once every thread has repeated.  Once a
        level is a sign twist of an earlier one, the following levels are
        derived from earlier ones; once a level's state repeats, the remaining
        levels are references to the repeating ones (module docstring)."""
        while len(self.levels) < length + 1:
            n = len(self.levels)
            if self.period is not None:
                self.levels.append(self.levels[self.distinct_index(n)])
                continue
            if self.thread_periods and all(self.thread_periods):
                return
            if self._twist:
                self._derive(n)
            else:
                self.extend_once()
            self._find_period(n)

    def _find_period(self, n):
        """Record (j, n - j) if level n's state repeats level j's, and share level
        j; else record the threads that repeat (_close_threads) and, unless
        every thread has or a twist is known, look for a sign twist of an
        earlier level with its generators."""
        key = (tuple(self.levels[n - 1].gens), tuple(self.levels[n].gens))
        seen = self._states.setdefault(key, [])
        for j in seen:
            if self.levels[j].images == self.levels[n].images:  # dicts compare as mappings
                self.period = (j, n - j)
                self.levels[n] = self.levels[j]
                return
        if n >= 2 and self._close_threads(n, key):
            return
        if self._twist is None:
            self._twist = next(filter(None, (self._sign_twist(j, n) for j in seen)), None)
            if self._twist:  # d_n is d_j twisted: it has d_j's slice ranks
                self.levels[n].slice_dims = self.levels[n - self._twist[0]].slice_dims
        seen.append(n)

    def _close_threads(self, n, key):
        """Record (j, n - j) for each open thread whose state at level n repeats
        its state at level j; True once every thread has (module docstring).
        key is the pair of generator tuples of levels n - 1 and n.  A thread
        with no generator at level n has none later, so its state repeats once
        it is ((), (), ()).  A thread that holds every generator of levels
        n - 1 and n holds every later one, and its state is the whole level's,
        which _find_period records: it is compared with the thread's earlier
        states and not recorded."""
        self._label_threads(n)
        prev, lvl = self.levels[n - 1], self.levels[n]
        for t, period in enumerate(self.thread_periods):
            if period:
                continue
            before, after = prev.threads.get(t, ()), lvl.threads.get(t, ())
            if not after:
                if not before and t not in self.levels[n - 2].threads:
                    self.thread_periods[t] = (n - 1, 1)
                continue
            whole = len(before) == len(prev.gens) and len(after) == len(lvl.gens)
            state = (t, *key) if whole else (t, tuple(map(prev.gens.__getitem__, before)),
                                            tuple(map(lvl.gens.__getitem__, after)))
            j = next((j for j in self._thread_states.get(state, ()) if self._same_images(t, j, n)), None)
            if j:
                self.thread_periods[t] = (j, n - j)
            if not whole:
                self._thread_states.setdefault(state, []).append(n)
        return all(self.thread_periods)

    def _label_threads(self, n):
        """Group the generators of level n by thread (_Level.threads).  At n = 2
        the threads are the components of the generators of levels 1 and 2,
        joined when an image reads a generator, numbered in order of their
        first generator of level 1; from level 3 on an image must read one
        thread."""
        prev, lvl = self.levels[n - 1], self.levels[n]
        if n == 2:
            owner = list(range(len(prev.gens)))  # the least generator of each one's component
            for img in lvl.images:
                joined = {owner[g] for g, _, _ in img}
                if len(joined) > 1:
                    least = min(joined)
                    owner = [least if o in joined else o for o in owner]
            ids, prev.threads, lvl.threads = {}, {}, {}
            for g, o in enumerate(owner):
                prev.threads.setdefault(ids.setdefault(o, len(ids)), []).append(g)
            for h, img in enumerate(lvl.images):
                lvl.threads.setdefault(ids[owner[next(iter(img))[0]]], []).append(h)
            self.thread_periods = [None] * len(ids)
        elif len(prev.threads) == 1:  # every image reads the one thread
            lvl.threads = {t: list(range(len(lvl.gens))) for t in prev.threads if lvl.gens}
        else:
            label = {g: t for t, members in prev.threads.items() for g in members}
            lvl.threads = {}
            for h, img in enumerate(lvl.images):
                read = {label[g] for g, _, _ in img}
                if len(read) > 1:
                    raise InvariantError(f"generator {h} of level {n} reads threads {sorted(read)} "
                                         f"of level {n - 1}")
                lvl.threads.setdefault(read.pop(), []).append(h)

    def _same_images(self, t, j, n):
        """Whether thread t's images at levels j and n agree once its generators
        of levels j - 1 and n - 1 are each numbered from 0 (their generators
        agree)."""
        at_j, at_n = self.levels[j], self.levels[n]
        to_j = dict(zip(self.levels[n - 1].threads.get(t, ()), self.levels[j - 1].threads.get(t, ())))
        for old, new in zip(at_j.threads.get(t, ()), at_n.threads.get(t, ())):
            old, new = at_j.images[old], at_n.images[new]
            if len(old) != len(new) or any(old.get((to_j[g], p, q)) != v for (g, p, q), v in new.items()):
                return False
        return True

    def _sign_twist(self, j, n):
        """Signs chi on the arrows, eps_{n-1} and eps_n on the generators of levels
        n - 1 and n, with image_n[h][(g, p, q)] = eps_{n-1}(g) chi(p) eps_n(h)
        image_j[h][(g, p, q)] and alpha -> chi(alpha) alpha an automorphism of
        A, chi(p) the product over the arrows of p; as the _twist of level n, or
        None.  Levels j >= 1 (level 0 is never recorded) and n have the same
        generator pair, and their slice ranks must agree (module docstring);
        over GF(2) the coefficients are 1, so none but equality is found."""
        if self.levels[n - 1].slice_dims != self.levels[j - 1].slice_dims:
            return None
        a, mod = self.a, self.field.characteristic
        col = {a.basis[alpha]: k for k, alpha in enumerate(a.arrows)}
        odd = []  # per basis path, the unknowns of the arrows it holds an odd number of times
        for w in a.basis:
            cols = set()
            for arrow in zip(w, w[1:]):
                cols ^= {col[arrow]}
            odd.append(frozenset(cols))
        first = len(col)                              # the unknowns eps_{n-1}, then eps_n
        last = first + len(self.levels[n - 1].gens)
        width = last + len(self.levels[n].gens)
        eqs = set()  # (unknowns, right-hand side bit)
        for h, (old, new) in enumerate(zip(self.levels[j].images, self.levels[n].images)):
            if old.keys() != new.keys():
                return None
            for c, v in new.items():
                u = old[c]
                if v != u and v != (mod - u if mod else -u):
                    return None
                eqs.add((odd[c[1]] | {first + c[0], last + h}, int(v != u)))
        # chi(k) = chi(alpha) chi(q) for alpha q = ... + k ...: then p -> chi(p) p is
        # multiplicative on alpha times every path, so on every product
        for alpha in a.arrows:
            for q in a.paths_from[a.basis[alpha][1]]:
                for k, _ in a.mult.get((alpha, q), ()):
                    if a.basis[k] != a.basis[alpha] + a.basis[q][1:]:
                        eqs.add((odd[alpha] ^ odd[q] ^ odd[k], 0))
        rows = [[int(k in cols) for k in range(width)] + [bit] for cols, bit in eqs]
        pivots = rref_mod(rows, width + 1, 2)[1]
        if pivots and pivots[-1] == width:  # 0 = 1
            return None
        x = [0] * width  # the free unknowns 0
        for r, k in enumerate(pivots):
            x[k] = rows[r][width]
        chi = [sum(x[k] for k in cols) % 2 for cols in odd]
        return n - j, chi, {n: x[last:]}

    def _derive(self, m):
        """Level m from level m - d, d the twist's shift, as extend_once would
        build it: each image coordinate c = (g, p, q) times Phi(c) eps_m(h),
        Phi(c) = eps_{m-1}(g) chi(p), with eps_m(h) = Phi of the image's lead,
        so that the lead stays 1.  The copy carries the source's block index
        and slice kernel dimensions (module docstring)."""
        d, chi, signs = self._twist
        mod = self.field.characteristic
        eps = signs[m - 1]
        src = self.levels[m - d]
        images, signs[m] = [], []
        for img in src.images:
            g, p, _ = next(iter(img))
            lead = eps[g] ^ chi[p]
            images.append({c: (mod - v if mod else -v) if eps[c[0]] ^ chi[c[1]] ^ lead else v
                           for c, v in img.items()})
            signs[m].append(lead)
        lvl = copy.copy(src)  # shares its generators, block index and step data
        lvl.images = images
        self._append(lvl)
        self._check_square_zero(m)

    def distinct_index(self, n):
        """The least level index whose state is level n's."""
        if self.period is None or n < self.period[0]:
            return n
        j, d = self.period
        return j + (n - j) % d

    def hom_parts(self, i):
        """The (level, thread) pairs whose Hom spaces sum to Hom(P_i, A) and whose
        Hom differentials sum to d^i: the whole level (thread None) at its
        distinct index for i < 2 and once the whole level repeats, else each
        thread at its own (module docstring)."""
        if i < 2 or self.period is not None and i >= self.period[0]:
            return [(self.distinct_index(i), None)]
        out = []
        for t, period in enumerate(self.thread_periods):
            j, d = period or (i + 1, 1)
            m = j + (i - j) % d if i >= j else i
            if t in self.levels[m].threads:  # a thread with no generator there adds nothing
                out.append((m, t))
        return out

    # ------------------------------------------------------------------
    # Hom(-, A) cochain complex
    # ------------------------------------------------------------------

    def hom_basis(self, i, thread=None):
        """Basis of Hom(P_i, A), or of its part on one thread: one (g, w) per
        path w in e_a A e_b."""
        lvl, parallel = self.levels[i], self.a.parallel
        gens = range(len(lvl.gens)) if thread is None else lvl.threads.get(thread, ())
        return [(g, w) for g in gens for w in parallel.get(lvl.gens[g], ())]

    def hom_differential_rank(self, i, fields, thread=None):
        """Ranks of Hom(P_{i-1}, A) -> Hom(P_i, A), or of its part on one thread,
        over each field in fields: the resolution's own, or a GF(p) that a
        resolution over QQ is certified for (its obstruction).  It is row-reduced
        once over the resolution's field, and again mod p only for a prime
        dividing that pivot minor (module docstring)."""
        rank, minor = self._hom_rank(i, self.field, thread)
        return [rank if fs == self.field or minor.numerator % fs.characteristic
                else self._hom_rank(i, fs, thread)[0] for fs in fields]

    def _hom_rank(self, i, field, thread=None):
        """Rank of Hom(P_{i-1}, A) -> Hom(P_i, A), or of its part on one thread,
        over field and, over QQ, +- the product of its pivots; a resolution over
        QQ is reduced mod p for GF(p).  The image terms are grouped by the
        generator they read once, for every column on it."""
        dom = self.hom_basis(i - 1, thread)
        cod_pos = {gw: r for r, gw in enumerate(self.hom_basis(i, thread))}
        mult = self.a.mult
        lvl = self.levels[i]
        convert = field != self.field  # the one place a Fraction can meet GF(p)
        reads = {}  # generator of level i - 1 -> the terms (g, p, q, coeff) that read it
        for g in range(len(lvl.gens)) if thread is None else lvl.threads[thread]:
            for (src, p, q), c in lvl.images[g].items():
                reads.setdefault(src, []).append((g, p, q, field.element(c) if convert else c))

        def terms():
            for col, (src, w) in enumerate(dom):
                for g, pp, qq, coeff in reads.get(src, ()):
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
    if set(fieldspecs) - {a.field} and len(res.levels) == max_i + 2 and res.levels[-1].slice_dims is None:
        res._slice_kernels(max_i + 1)  # exactness at P_max_i, for the certificate alone
    certified = [fs for fs in dict.fromkeys(fieldspecs)
                 if fs == a.field or res.obstruction % fs.characteristic]
    parts = [res.hom_parts(i) for i in range(max_i + 2)]
    size = {p: len(res.hom_basis(*p)) for p in dict.fromkeys(p for ps in parts for p in ps)}
    homs = [sum(size[p] for p in ps) for ps in parts]  # dim Hom(P_i, A)
    # (level, thread) -> the rank of its Hom differential over each certified
    # field; a part whose Hom space is 0 has none to reduce
    zero = [0] * len(certified)
    ranks = {(m, t): res.hom_differential_rank(m, certified, t) if certified and size[(m, t)] else zero
             for m, t in dict.fromkeys(p for ps in parts[1:] for p in ps)}
    # the rank of d^i over each certified field, d^0 = 0
    rank = [zero] + [[sum(r) for r in zip(zero, *(ranks[p] for p in ps))] for ps in parts[1:]]
    out = []
    for fs, alg in zip(fieldspecs, algebras):
        if fs not in certified:
            warnings.warn(f"{a.quiver}: the resolution over {a.field} is not certified "
                          f"mod {fs.characteristic}; resolving over {fs}",
                          RuntimeWarning, stacklevel=2)
            out += hh_dims(alg, [fs], max_i)
            continue
        k = certified.index(fs)
        dims = tuple(homs[i] - rank[i][k] - rank[i + 1][k] for i in range(max_i + 1))
        if dims[0] != center_dim(alg):
            raise InvariantError("HH^0 disagrees with the center")
        # dim HH^1 = dim Der - dim Inn, and dim Inn = dim A - dim Z(A) = dim A - dims[0]
        if max_i >= 1 and dims[1] != derivation_space_dim(alg) - alg.dimension + dims[0]:
            raise InvariantError("HH^1 disagrees with Der/Inn")
        out.append(dims)
    return out
