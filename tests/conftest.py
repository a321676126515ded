"""Shared fixtures: mutation classes and cached algebra builds."""

import hashlib
import heapq
import itertools
from collections import Counter
from functools import lru_cache
from math import factorial

import pytest

from cthh.algebra import BoundAlgebra, _complete, _overlaps, _path_key, _poly, _reduce, build_algebra
from cthh.classify import _E_TABLE
from cthh.errors import (AlgebraError, InvariantError, MultipleArrowError, NotDynkinError,
                         NotFiniteDimensionalError, UnclassifiedDError)
from cthh.fields import FieldSpec
from cthh.linalg import Echelon, det_int, kernel_from_rref, rref_frac, rref_mod
from cthh.oracle import BimoduleResolution, _Level
from cthh.quiver import (Cycle, Quiver, _encode, canonical_form, chordless_cycles, dynkin_seed, enumerate_class,
                         mutate, neighbours, validate)
from cthh.relations import generate_relations
from cthh.series import HSeries


@lru_cache(maxsize=None)
def mutation_class(family, rank):
    return tuple(enumerate_class(dynkin_seed(family, rank)))


def sample_by_canonical(quivers, size):
    """Deterministic pseudo-random sample of any quivers: order by the SHA-256
    digest of the canonical form and take a prefix.  verify_suite's sample of
    a class is the one this picks."""
    if size is None or size >= len(quivers):
        return list(quivers)
    return sorted(quivers, key=lambda q: hashlib.sha256(canonical_form(q)).hexdigest())[:size]


@lru_cache(maxsize=None)
def cached_algebra(q: Quiver, characteristic: int):
    return build_algebra(q, generate_relations(q), FieldSpec(characteristic))


def relabel(q: Quiver, perm) -> Quiver:
    """q with its vertices permuted by the dict old -> new."""
    return Quiver(q.vertex_count, tuple(sorted((perm[s], perm[t]) for s, t in q.arrows)))


def universal_params(h):
    """The (n, t) with h = f_n + t*f_3, or None for h = 0."""
    if not h.cycle_orders:
        return None
    c = Counter(h.cycle_orders)
    big = [n for n in c if n > 3]
    if len(big) > 1 or (big and c[big[0]] > 1):
        raise ValueError(f"{h} is not of the shape f_n + t*f_3")
    if big:
        return big[0], c.get(3, 0)
    return 3, c[3] - 1


# rank -> the type-E table's (ascending polynomial, series) rows in file
# order; a row's rank is the degree of its polynomial
E_TABLE_ROWS = {r: [(poly, h) for poly, h in _E_TABLE.items() if len(poly) - 1 == r]
                for r in (6, 7, 8)}


def degree_dims(a):
    """Basis paths of each length, then a 0 when the quiver has a path one
    arrow longer than the longest basis path."""
    counts = Counter(len(p) - 1 for p in a.basis)
    dims = [counts[k] for k in range(max(counts) + 1)]
    ends = set(range(1, a.vertex_count + 1))
    for _ in dims:
        ends = {t for s, t in a.quiver.arrows if s in ends}
    if ends:
        dims.append(0)
    return tuple(dims)


def multiply(a, xs, ys):
    """Product in the algebra a of two sparse vectors of (basis index, coefficient)."""
    acc = {}
    for i, x in xs:
        for j, y in ys:
            for k, c in a.mult.get((i, j), ()):
                acc[k] = acc.get(k, 0) + x * y * c
    p = a.field.characteristic
    if p:
        return tuple((k, v % p) for k, v in sorted(acc.items()) if v % p)
    return tuple((k, v) for k, v in sorted(acc.items()) if v)


def reduced_products(a, rels):
    """Reference for a.mult over any field: every composable product of basis
    words is reduced over the integers by the rewriting rules, normal words
    included."""
    rules = _complete(rels, 2 * a.vertex_count + 1)
    index = {p: i for i, p in enumerate(a.basis)}
    mult = {}
    for i, p in enumerate(a.basis):
        for j, r in enumerate(a.basis):
            if p[-1] == r[0]:
                nf = _reduce({p + r[1:]: 1}, rules, {len(t) for t in rules})
                if nf:
                    mult[(i, j)] = tuple(sorted((index[w], c) for w, c in nf.items()))
    return mult


def complete_reference(rels, limit: int):
    """Reference for algebra._complete: every new tip is paired with every
    rule, both ways, monomial or not, and every rule tip is scanned for the
    new tip as a subword."""
    rules = {}
    pending = []
    arrival = itertools.count()

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
        for t in [t for t in rules if any(t[i:i + len(tip)] == tip for i in range(len(t)))]:
            push({t: 1, **{p: -c for p, c in rules.pop(t).items()}})
        rules[tip] = {p: -lead * c for p, c in f.items()}
        for t in rules:
            push(*_overlaps(tip, t, rules))
            if t != tip:
                push(*_overlaps(t, tip, rules))
    lengths = {len(t) for t in rules}
    return {t: _reduce(dict(tail), rules, lengths) for t, tail in rules.items()}


def reduced_over(a, fieldspec):
    """Reference for a.over(fieldspec): a separate algebra whose table is a's
    integer table reduced mod p, the entries that vanish dropped."""
    mult = {}
    for key, entries in a.mult.items():
        reduced = tuple((k, r) for k, c in entries if (r := fieldspec.element(c)))
        if reduced:
            mult[key] = reduced
    return BoundAlgebra(a.quiver, fieldspec, a.basis, mult)


def mutate_by_exchange_matrix(q: Quiver, k: int) -> Quiver:
    """Reference for mutate: the Fomin-Zelevinsky rule on the dense exchange
    matrix b[i][j] = #arrows i->j - #arrows j->i, scanned row by row."""
    n = q.vertex_count
    b = [[0] * n for _ in range(n)]
    for s, t in q.arrows:
        b[s - 1][t - 1] += 1
        b[t - 1][s - 1] -= 1
    kk = k - 1
    arrows = []
    for i in range(n):
        for j in range(n):
            if i == kk or j == kk:
                v = -b[i][j]
            else:
                prod = b[i][kk] * b[kk][j]
                corr = max(prod, 0) if b[i][kk] > 0 else -max(prod, 0)
                v = b[i][j] + corr
            if v > 1:
                raise MultipleArrowError(
                    f"mutation at {k} produced multiplicity {v} between {i + 1} and {j + 1}"
                )
            if v == 1:
                arrows.append((i + 1, j + 1))
    return Quiver(n, tuple(sorted(arrows)))


def _refined_colors_reference(n, arrows):
    out_adj = [[] for _ in range(n)]
    in_adj = [[] for _ in range(n)]
    for s, t in arrows:
        out_adj[s - 1].append(t - 1)
        in_adj[t - 1].append(s - 1)
    colors = [(len(out_adj[v]), len(in_adj[v])) for v in range(n)]
    comp = {c: i for i, c in enumerate(sorted(set(colors)))}
    colors = [comp[c] for c in colors]
    while True:
        sigs = [
            (
                colors[v],
                tuple(sorted(colors[w] for w in out_adj[v])),
                tuple(sorted(colors[w] for w in in_adj[v])),
            )
            for v in range(n)
        ]
        comp = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [comp[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


@lru_cache(maxsize=None)
def canonical_data_reference(n, arrows):
    """Reference for quiver._canonical_data's arrows: refinement run to its
    fixed point, and borders as bit tuples rebuilt from an arrow set at every
    node of the lowest-border search."""
    colors = _refined_colors_reference(n, arrows)
    slot_color = sorted(colors)
    arrow_set = frozenset((s - 1, t - 1) for s, t in arrows)
    by_color = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)

    best_code = None
    best_perm = None
    assigned = []
    used = [False] * n

    def border(v):
        chunk = []
        for w in assigned:
            chunk.append(1 if (w, v) in arrow_set else 0)
            chunk.append(1 if (v, w) in arrow_set else 0)
        return tuple(chunk)

    def dfs(k, prefix):
        nonlocal best_code, best_perm
        if k == n:
            if best_code is None or prefix < best_code:
                best_code = list(prefix)
                best_perm = assigned.copy()
            return
        cands = [v for v in by_color[slot_color[k]] if not used[v]]
        scored = sorted((border(v), v) for v in cands)
        low = scored[0][0]
        for chunk, v in scored:
            if chunk != low:
                break
            ext = prefix + list(chunk)
            if best_code is not None and ext > best_code[: len(ext)]:
                continue
            assigned.append(v)
            used[v] = True
            dfs(k + 1, ext)
            assigned.pop()
            used[v] = False

    dfs(0, [])
    pos = [0] * n
    for k, v in enumerate(best_perm):
        pos[v] = k
    return tuple(sorted((pos[s - 1] + 1, pos[t - 1] + 1) for s, t in arrows))


def enumerate_class_reference(seed: Quiver):
    """Reference for enumerate_class: breadth-first search that mutates every
    member at every vertex, labelled by canonical_data_reference."""
    validate(seed)
    n = seed.vertex_count
    start = Quiver(n, canonical_data_reference(n, tuple(sorted(seed.arrows))))
    found = {_encode(start): start}
    frontier = [start]
    while frontier:
        nxt = []
        for rep in frontier:
            for k in range(1, n + 1):
                m = Quiver(n, canonical_data_reference(n, mutate(rep, k).arrows))
                key = _encode(m)
                if key not in found:
                    found[key] = m
                    nxt.append(m)
        frontier = nxt
    return [found[k] for k in sorted(found)]


def detect_dynkin_reference(q: Quiver):
    """Reference for detect_dynkin: each leading principal minor of the
    quasi-Cartan companion is its own det_int call."""
    validate(q)
    cycles = chordless_cycles(q)
    if not all(c.oriented for c in cycles):
        raise NotDynkinError(f"{q} has a chordless cycle that is not oriented")
    m = len(q.arrows)
    cycle_arrows = [set(c.arrow_list()) for c in cycles]
    rows = [[int(a in arrows) for a in q.arrows] + [1] for arrows in cycle_arrows]
    rank, pivots = rref_mod(rows, m + 1, 2)
    if m in pivots:
        raise NotDynkinError(f"{q} has no admissible quasi-Cartan companion")
    plus = {pivots[r] for r in range(rank) if rows[r][m]}
    n = q.vertex_count
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for k, (s, t) in enumerate(q.arrows):
        a[s - 1][t - 1] = a[t - 1][s - 1] = 1 if k in plus else -1
    minors = [det_int([row[:k] for row in a[:k]]) for k in range(1, n + 1)]
    if min(minors) <= 0:
        raise NotDynkinError(f"{q} is not of finite type: quasi-Cartan companion not positive definite")
    det = minors[-1]
    if det == n + 1:
        return ("A", n)
    if det == 4:
        return ("D", n)
    if (n, det) in ((6, 3), (7, 2), (8, 1)):
        return ("E", n)
    raise NotDynkinError(f"{q}: no Dynkin diagram of rank {n} has Cartan determinant {det}")


def pencil_det_interpolated(a, b):
    """Reference for linalg.pencil_det: det(x*a + b) from the n + 1 values
    det_int(x*a + b), x = 0..n, interpolated in Newton's forward form
    p(x) = sum_k D^k p(0) * x(x-1)...(x-k+1) / k!, with integer differences
    D^k p(0); the sum is scaled by n! and divided exactly once at the end,
    and a remainder raises InvariantError."""
    n = len(a)
    ys = [det_int([[x * a[i][j] + b[i][j] for j in range(n)] for i in range(n)])
          for x in range(n + 1)]
    scale = factorial(n)
    scaled = [0] * (n + 1)  # n! * p, ascending
    falling = [1]           # x(x-1)...(x-k+1), ascending
    weight = scale          # n! / k!
    for k in range(n + 1):
        d = ys[0]
        if d:
            for i, c in enumerate(falling):
                scaled[i] += weight * d * c
        ys = [u - v for u, v in zip(ys[1:], ys)]
        falling = [u - k * v for u, v in zip([0] + falling, falling + [0])]
        weight //= k + 1
    out = []
    for c in scaled:
        q, r = divmod(c, scale)
        if r:
            raise InvariantError(f"pencil interpolation left a remainder: {c}/{scale}")
        out.append(q)
    return tuple(out)


def det_cofactor(rows) -> int:
    """Cofactor-expansion determinant; independent cross-check for det_int."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        x = rows[0][j]
        if x == 0:
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * x * det_cofactor(minor)
    return total


def chordless_cycles_bruteforce(q: Quiver):
    """Subset-scan reference for chordless_cycles: every vertex subset whose
    induced graph is one cycle, in the same order and walk convention."""
    n = q.vertex_count
    arrow_set = q.arrow_set
    edges = {}
    for s, t in q.arrows:
        edges.setdefault(s, set()).add(t)
        edges.setdefault(t, set()).add(s)
    cycles = []
    for size in range(3, n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            sset = set(subset)
            deg = {}
            edge_count = 0
            for s, t in q.arrows:
                if s in sset and t in sset:
                    edge_count += 1
                    deg[s] = deg.get(s, 0) + 1
                    deg[t] = deg.get(t, 0) + 1
            if edge_count != size or any(deg.get(v, 0) != 2 for v in subset):
                continue
            # walk the 2-regular induced graph; a full walk = a single cycle
            start = subset[0]
            walk = [start]
            prev, cur = start, min(w for w in edges[start] if w in sset)
            while cur != start:
                walk.append(cur)
                prev, cur = cur, next(w for w in edges[cur] if w in sset and w != prev)
            if len(walk) != size:
                continue
            oriented_fwd = all((walk[i], walk[(i + 1) % size]) in arrow_set for i in range(size))
            oriented_bwd = all((walk[(i + 1) % size], walk[i]) in arrow_set for i in range(size))
            if oriented_bwd:
                walk = [walk[0]] + walk[1:][::-1]
            cycles.append(Cycle(tuple(walk), oriented_fwd or oriented_bwd))
    return cycles


def components(adj, vertices):
    """Connected components (sets) of the subgraph of adj induced on vertices,
    each led by its least vertex and listed in that order."""
    unseen = set(vertices)
    comps = []
    for start in sorted(unseen):
        if start not in unseen:
            continue
        unseen.remove(start)
        comp = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()] & unseen:
                unseen.remove(w)
                comp.add(w)
                stack.append(w)
        comps.append(comp)
    return comps


def _arm_components_reference(q: Quiver, core_vertices):
    """Connected components of the quiver minus the core, with the triangles
    counted inside each component plus its attachment vertices."""
    outside = [v for v in range(1, q.vertex_count + 1) if v not in core_vertices]
    comps = components(neighbours(q), outside)
    triangles = [c for c in chordless_cycles(q) if c.oriented and c.length == 3]
    out = []
    for comp in comps:
        tcount = sum(1 for c in triangles if set(c.vertices) - core_vertices <= comp and set(c.vertices) & comp)
        out.append((len(comp), tcount))
    return out


def _series_reference(subtype, params):
    if subtype == "I":
        _, t = params
        return HSeries.of(*([3] * t))
    if subtype == "II":
        _, t1, _, t2 = params
        return HSeries.of(*([3] * (1 + t1 + t2)))
    if subtype == "III":
        _, t1, _, t2 = params
        return HSeries.of(4, *([3] * (t1 + t2)))
    if subtype == "IVa":
        (n,) = params
        return HSeries.of(n)
    # IVb: (d_j, s_j, t_j) per spike, d_j the cyclic arrow-gap to the next spike
    n = sum(d for d, _, _ in params) + sum(1 for d, _, _ in params if d == 1)
    t = sum(tj for _, _, tj in params)
    return HSeries.of(n, *([3] * t))


def _fork_pair_reference(q: Quiver):
    adj = neighbours(q)
    pendants = [v for v in adj if len(adj[v]) == 1]
    for i in range(len(pendants)):
        for j in range(i + 1, len(pendants)):
            if adj[pendants[i]] == adj[pendants[j]]:
                return pendants[i], pendants[j]
    return None


def classify_D_reference(q: Quiver):
    """The type-D pattern match by arm sizes: (subtype, series), from a fork
    with its attached part, a glued-triangle or 4-cycle core with two arms
    (s1, t1, s2, t2), a plain n-cycle, or a central cycle with triangle
    spikes and per-spike (gap, arm size, arm triangles) triples."""
    cycles = [c for c in chordless_cycles(q) if c.oriented]
    triangles = [c for c in cycles if c.length == 3]
    arrow_sets = [set(c.arrow_list()) for c in cycles]
    shares = {}
    for i in range(len(cycles)):
        for j in range(i + 1, len(cycles)):
            common = len(arrow_sets[i] & arrow_sets[j])
            if common:
                shares[(i, j)] = common

    if _fork_pair_reference(q) is not None:
        if shares or any(c.length > 3 for c in cycles):
            raise UnclassifiedDError(f"fork together with non-free cycles in {q}")
        return "I", _series_reference("I", (q.vertex_count - 2, len(triangles)))
    if not cycles:
        raise UnclassifiedDError(f"no fork and no oriented cycle in {q}")
    if len(cycles) == 1 and len(q.arrows) == q.vertex_count and cycles[0].length == q.vertex_count:
        return "IVa", _series_reference("IVa", (q.vertex_count,))
    if any(v >= 2 for v in shares.values()):
        raise UnclassifiedDError(f"cycles sharing more than one arrow in {q}")

    long_cycles = [i for i, c in enumerate(cycles) if c.length >= 4]
    if shares:
        candidates = set.intersection(*(set(pair) for pair in shares))
        candidates = {i for i in candidates if all(i in pair for pair in shares)}
        if long_cycles:
            candidates &= set(long_cycles)
        if not candidates:
            raise UnclassifiedDError(f"no star center among glued cycles in {q}")
        central = min(candidates)
    else:
        if len(long_cycles) != 1:
            raise UnclassifiedDError(f"no glued cycles and no unique long cycle in {q}")
        central = long_cycles[0]

    spikes = sorted({i for pair in shares for i in pair} - {central})
    if any(cycles[i].length != 3 for i in spikes):
        raise UnclassifiedDError(f"non-triangle spike in {q}")
    m = cycles[central].length
    central_arrows = cycles[central].arrow_list()
    positions = sorted(central_arrows.index(next(iter(arrow_sets[central] & arrow_sets[i])))
                       for i in spikes)
    core_vertices = set(cycles[central].vertices)
    for i in spikes:
        core_vertices |= set(cycles[i].vertices)
    arm_triangle_ids = [i for i in range(len(cycles)) if i != central and i not in spikes]
    if any(cycles[i].length != 3 for i in arm_triangle_ids):
        raise UnclassifiedDError(f"stray long cycle outside the core in {q}")
    arms = _arm_components_reference(q, core_vertices)
    if sum(t for _, t in arms) != len(arm_triangle_ids):
        raise UnclassifiedDError(f"could not attribute arm triangles in {q}")

    k = len(positions)
    if k == 0 or (m == 3 and k == 1):
        if k == 0 and m != 4:
            raise UnclassifiedDError(f"bare central {m}-cycle with arms in {q}")
        subtype = "III" if k == 0 else "II"
        (s1, t1), (s2, t2) = (sorted(arms, reverse=True) + [(0, 0), (0, 0)])[:2]
        return subtype, _series_reference(subtype, (s1, t1, s2, t2))

    gaps = [(positions[(idx + 1) % k] - p) % m if k > 1 else m for idx, p in enumerate(positions)]
    arms_sorted = sorted(arms, reverse=True)
    triples = [(d, *(arms_sorted[idx] if idx < len(arms_sorted) else (0, 0)))
               for idx, d in enumerate(gaps)]
    leftover = sum(t for _, t in arms_sorted[len(gaps):])
    if leftover:
        d0, s0, t0 = triples[0]
        triples[0] = (d0, s0, t0 + leftover)
    return "IVb", _series_reference("IVb", tuple(triples))


def level_blocks(a, lvl):
    """Reference for _Level.block: every block of a level, built in one pass
    over the generators g = (av, bv), the paths p into av and the paths q out
    of bv, the trivial one first."""
    blocks = {}
    for g, (av, bv) in enumerate(lvl.gens):
        for p in a.paths_to[av]:
            for q in a.paths_from[bv]:
                blocks.setdefault((a.basis[p][0], a.basis[q][-1]), []).append((g, p, q))
    return blocks


class EagerLevel:
    """A level as the target of a differential, with every block built
    (level_blocks) and the (block, offset) of each coordinate."""

    pad = staticmethod(_Level.pad)

    def __init__(self, a, lvl):
        self.blocks = level_blocks(a, lvl)
        self.offset = {c: (key, off) for key, coords in self.blocks.items()
                       for off, c in enumerate(coords)}


class FullSpanResolution(BimoduleResolution):
    """Reference for the step from level i: d_i row-reduced on every block
    (_full_kernels), exactness read off its total rank, and for every block
    every arrow multiple of the neighbouring kernel blocks and every kernel
    vector into one echelon, with no stop at full rank (_full_top).  It
    computes every level up to the period: it never finds a sign twist, so
    extend_to derives none.  kernel_dims[i] is the total kernel dimension of
    d_i for the levels i it steps from, and of the augmentation at 0."""

    def __init__(self, a):
        self.kernels = {}  # level i -> the kernel bases of d_i, by block
        super().__init__(a)
        self.kernel_dims = [self.levels[0].dim - a.dimension]

    def extend_once(self):
        i = len(self.levels) - 1
        kernels, rank = self._full_kernels(i)
        if rank != self.kernel_dims[i - 1]:
            raise InvariantError(f"resolution not exact at step {i}: image {rank}, "
                                 f"kernel {self.kernel_dims[i - 1]}")
        self.kernels[i] = kernels
        self.kernel_dims.append(sum(len(v) for v in kernels.values()))
        self._append(_Level(self.a, *self._full_top(self.levels[i], kernels)))
        self._check_square_zero(len(self.levels) - 1)

    def _sign_twist(self, j, n):
        return None

    def _full_blocks(self, i):
        return assembled_blocks(self, i)

    def _full_kernels(self, i):
        return block_kernels(self, i, self._full_blocks(i))

    def _full_top(self, lvl, kernels):
        blocks = level_blocks(self.a, lvl)
        new_gens = []
        new_images = []
        for key in sorted(blocks):
            ech = Echelon(self.field)
            for vec in radical_multiples(self.a, blocks, kernels, key):
                ech.add(vec)
            for vec in kernels.get(key, ()):
                residue = ech.add(vec)
                if residue is not None:
                    new_gens.append(key)
                    new_images.append({blocks[key][off]: val
                                       for off, val in enumerate(residue) if val})
        return new_gens, new_images


class WholePeriodResolution(BimoduleResolution):
    """Reference for the stopping rule: it closes on a whole-level period
    alone, so extend_to(length) builds every level up to that period."""

    def _close_threads(self, n, key):
        return False


def whole_period_hh_dims(a, max_i):
    """dim HH^0..HH^max_i over a's own field from WholePeriodResolution: the
    rank of each distinct level's whole Hom differential, read at the whole
    level's distinct index."""
    res = WholePeriodResolution(a)
    res.extend_to(max_i + 1)
    ranks = [0]
    for i in range(1, max_i + 2):
        m = res.distinct_index(i)
        ranks.append(ranks[m] if m < i else res.hom_differential_rank(i, [a.field])[0])
    return tuple(len(res.hom_basis(i)) - ranks[i] - ranks[i + 1] for i in range(max_i + 1))


def thread_components(levels):
    """Reference threads: per level from 1 on, the component of each generator
    in the graph joining every generator to the generators its image reads,
    over all of levels; components numbered in order of their first level-1
    generator (every component holds one, since every image reads one)."""
    root = {}

    def find(x):
        while root.setdefault(x, x) != x:
            x = root[x]
        return x

    for n in range(2, len(levels)):
        for h, img in enumerate(levels[n].images):
            for g, _, _ in img:
                a, b = find((n, h)), find((n - 1, g))
                if a != b:
                    root[a] = b
    ids = {}
    for g in range(len(levels[1].gens)):
        ids.setdefault(find((1, g)), len(ids))
    return [None] + [[ids[find((n, g))] for g in range(len(levels[n].gens))]
                     for n in range(1, len(levels))]


def thread_state(levels, labels, n, t):
    """Thread t's state at level n: its generators of levels n - 1 and n, and
    its images on its generators of level n - 1 numbered from 0."""
    local = {g: k for k, g in enumerate(g for g, u in enumerate(labels[n - 1]) if u == t)}
    return ([gen for gen, u in zip(levels[n - 1].gens, labels[n - 1]) if u == t],
            [gen for gen, u in zip(levels[n].gens, labels[n]) if u == t],
            [{(local[g], p, q): v for (g, p, q), v in img.items()}
             for img, u in zip(levels[n].images, labels[n]) if u == t])


def kernel_dims(res):
    """dim ker d_i for each level i below the top.  For the engine, from the
    slice kernel dimensions r(s, u) of d_i that level i holds: ker d_i is
    right projective, so dim e_s K e_t = sum_u r(s, u) dim e_u A e_t, and
    summed over t that is sum r(s, u) dim e_u A; the reference reads its own
    total-rank kernel dimensions."""
    if isinstance(res, FullSpanResolution):
        return [res.kernel_dims[res.distinct_index(i)] for i in range(len(res.levels) - 1)]
    return [sum(r * len(res.a.paths_from[u]) for (_, u), r in lvl.slice_dims.items())
            for lvl in res.levels[:-1]]


def assembled_blocks(res, i):
    """Dense matrix of every block of d_i, columns in level_blocks order."""
    lvl = res.levels[i]
    columns = level_blocks(res.a, lvl)
    return {key: list(rows.values()) for key, rows in res._assemble(columns, lvl.images).items()}


def block_kernels(res, i, mats):
    """Kernel bases of the blocks mats of d_i (dense rows, columns in
    level_blocks order), and their total rank."""
    kernels = {}
    rank_total = 0
    blocks = level_blocks(res.a, res.levels[i])
    for key, mat in sorted(mats.items()):
        ncols = len(blocks[key])
        rank, pivots = rref(mat, ncols, res.field)
        rank_total += rank
        kb = kernel_from_rref(mat, ncols, pivots, res.field)
        if kb:
            kernels[key] = [list(v) for v in kb]
    return kernels, rank_total


def radical_multiples(a, blocks, kernels, key):
    """Spanning vectors of block key = (s, t) of rad*K + K*rad, from the kernel
    bases of the neighbouring blocks, all on the coordinates of blocks: the
    arrows out of s times the blocks (t(a), t) they reach, then the blocks
    (s, s(b)) times the arrows b into t."""
    s, t = key
    offset = {c: off for off, c in enumerate(blocks[key])}

    def times(src_key, vec, arrow, left):
        out = [0] * len(offset)
        for (g, p, q), val in zip(blocks[src_key], vec):
            if left:
                for k, c in a.mult.get((arrow, p), ()):
                    out[offset[(g, k, q)]] += val * c
            else:
                for k, c in a.mult.get((q, arrow), ()):
                    out[offset[(g, p, k)]] += val * c
        return out

    for alpha in a.arrows:
        if a.basis[alpha][0] == s:
            src_key = (a.basis[alpha][1], t)
            for vec in kernels.get(src_key, ()):
                yield times(src_key, vec, alpha, True)
    for beta in a.arrows:
        if a.basis[beta][1] == t:
            src_key = (s, a.basis[beta][0])
            for vec in kernels.get(src_key, ()):
                yield times(src_key, vec, beta, False)


class AlgebraAsBimodule:
    """A as the target of the augmentation P_0 -> A, with A's own block
    structure: the (source, target) blocks of its basis paths."""

    def __init__(self, a):
        self.blocks = {}
        for i, p in enumerate(a.basis):
            self.blocks.setdefault((p[0], p[-1]), []).append(i)
        self.offset = {}
        for key, coords in self.blocks.items():
            for off, c in enumerate(coords):
                self.offset[c] = (key, off)

    @staticmethod
    def pad(mult, coord, p, q, coeff, acc):
        """Accumulate p * coord * q into acc (dict coord -> coefficient)."""
        for k, c1 in mult.get((p, coord), ()):
            for m, c2 in mult.get((k, q), ()):
                acc[m] = acc.get(m, 0) + coeff * c1 * c2


def differential_target(res, i):
    """Target of the differential out of level i: A for the augmentation."""
    return AlgebraAsBimodule(res.a) if i == 0 else EagerLevel(res.a, res.levels[i - 1])


def _images(res, i):
    """Generator images of level i; the augmentation sends e_v (x) e_v to
    e_v, the basis path at index v - 1, and the engine does not store it."""
    return [{v - 1: 1} for v, _ in res.levels[0].gens] if i == 0 else res.levels[i].images


def _column_image(res, level_index, coord, target):
    """Image under the differential of one basis element (g, p, q) of a level,
    term by term through the pad of its target (differential_target)."""
    g, p, q = coord
    acc = {}
    for tcoord, coeff in _images(res, level_index)[g].items():
        target.pad(res.a.mult, tcoord, p, q, coeff, acc)
    mod = res.field.characteristic
    if mod:
        return {k: r for k, v in acc.items() if (r := v % mod)}
    return {k: v for k, v in acc.items() if v}


def column_image_blocks(res, i):
    """Dense matrix of each block of the differential out of level i, one
    _column_image per column; rows in the target block's order."""
    target = differential_target(res, i)
    mats = {}
    for key, cols in level_blocks(res.a, res.levels[i]).items():
        mat = [[0] * len(cols) for _ in target.blocks.get(key, ())]
        for c, coord in enumerate(cols):
            for tcoord, val in _column_image(res, i, coord, target).items():
                tkey, toff = target.offset[tcoord]
                assert tkey == key, (coord, tcoord)
                mat[toff][c] = val
        mats[key] = mat
    return mats


class ColumnImageResolution(FullSpanResolution):
    """Reference for the assembly of the kernel step: each column image
    computed on its own (column_image_blocks)."""

    def _full_blocks(self, i):
        return column_image_blocks(self, i)


def augmentation_level_one(a):
    """Generators, images and kernel dimension of level 1 found from the
    augmentation P_0 -> A: its kernel read off each block, then the top of
    that kernel."""
    res = ColumnImageResolution(a)
    kernels, rank = res._full_kernels(0)
    assert rank == a.dimension  # the augmentation is onto
    gens, images = res._full_top(res.levels[0], kernels)
    return gens, images, sum(len(k) for k in kernels.values())


def rref(rows, ncols, field: FieldSpec):
    """In-place reduced row echelon form over field. Returns (rank, pivots)."""
    p = field.characteristic
    if p:
        return rref_mod(rows, ncols, p)
    return rref_frac(rows, ncols)[:2]


def matrix_rank(rows, ncols, field):
    """Rank over field of a matrix given as rows; the rows are not modified."""
    return rref([list(r) for r in rows], ncols, field)[0]


def hom_differential_reference(res, i, thread=None):
    """Dense matrix of Hom(P_{i-1}, A) -> Hom(P_i, A), f -> f o d_i, or of its
    part on one thread, over the resolution's field: rows res.hom_basis(i,
    thread), columns res.hom_basis(i - 1, thread).  The column of (g', w)
    holds, in row (g, m), the coefficient of m in the sum of c * p w q over the
    terms c (g', p, q) of g's image."""
    a = res.a
    dom = res.hom_basis(i - 1, thread)
    row_of = {gw: r for r, gw in enumerate(res.hom_basis(i, thread))}
    mat = [[0] * len(dom) for _ in row_of]
    for col, (src, w) in enumerate(dom):
        for g, img in enumerate(res.levels[i].images):
            if thread is not None and g not in res.levels[i].threads[thread]:
                continue
            for (gg, p, q), c in img.items():
                if gg == src:
                    for m, v in multiply(a, multiply(a, ((p, c),), ((w, 1),)), ((q, 1),)):
                        mat[row_of[(g, m)]][col] += v
    return mat


def quiver_from_canonical(text: str) -> Quiver:
    """Inverse of canonical_form's ascii encoding "n|s>t;s>t;..."."""
    head, _, body = text.partition("|")
    arrows = []
    if body:
        for part in body.split(";"):
            s, _, t = part.partition(">")
            arrows.append((int(s), int(t)))
    return Quiver(int(head), tuple(arrows))


@pytest.fixture(scope="session")
def classes():
    return {
        (fam, rk): mutation_class(fam, rk)
        for fam, rk in [
            ("A", 2), ("A", 3), ("A", 4), ("A", 5), ("A", 6), ("A", 7),
            ("D", 4), ("D", 5), ("D", 6),
            ("E", 6),
        ]
    }
