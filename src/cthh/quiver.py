"""Quivers, Fomin-Zelevinsky mutation, canonical forms and mutation classes.

A quiver here is always loop-free, 2-cycle-free, without parallel arrows,
and connected (simply laced finite type).  Vertices are 1-based.  Canonical
forms are computed by minimizing an adjacency encoding over all vertex
permutations compatible with an iteratively refined degree partition, in
the manner of individualization-refinement (McKay-Piperno 2014): a discrete
partition is the labelling, and so is one whose every class of more than
one vertex is a set of twins (the two ends of a D_n fork, say), read off
with each class in ascending vertex order; otherwise a search places one
vertex of least border at a time, each vertex's border to the placed ones
carried as an int with 2 bits per placed vertex.  Class enumeration labels
each edge of the exchange graph once: mutation is an involution, so a member
is never mutated at a vertex whose mutant is already known from the other
end.  Members are keyed by their canonical arrows and encoded once, to sort.

Chordless cycles are found by extending induced paths from each cycle's
least vertex (Dias-Castonguay-Longo-Jradi 2013), so the search stays cheap
far beyond rank 9; it runs once per quiver and serves type detection, the
relations and the type-D patterns alike.

The Dynkin type of a mutation class is read off the quiver itself, without
mutating (Barot-Geiss-Zelevinsky 2006): sign each edge +-1 so that every
chordless cycle, all of which must be oriented, has an odd number of +1
edges, and put 2 on the diagonal.  The quiver is of finite type exactly when
this quasi-Cartan companion is positive definite, and its determinant names
the type: n + 1 for A_n, 4 for D_n, 3, 2, 1 for E_6, E_7, E_8.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    CapExceededError,
    DisconnectedError,
    LoopError,
    MultipleArrowError,
    NotDynkinError,
    ParallelArrowError,
    TwoCycleError,
)
from .linalg import leading_minors, rref_mod

DEFAULT_CLASS_CAP = 100000


@dataclass(frozen=True)
class Quiver:
    vertex_count: int
    arrows: tuple  # tuple of (source, target), 1-based

    @staticmethod
    def make(vertex_count, arrows) -> "Quiver":
        q = Quiver(vertex_count, tuple((int(s), int(t)) for s, t in arrows))
        validate(q)
        return q

    @property
    def arrow_set(self):
        return frozenset(self.arrows)

    def __str__(self):
        arr = ", ".join(f"{s}->{t}" for s, t in sorted(self.arrows))
        return f"Quiver({self.vertex_count}; {arr})"


@dataclass(frozen=True)
class Cycle:
    """A chordless cycle, listed in walk order starting at its least vertex.

    For oriented cycles the walk follows the arrows, so (v0, v1, ..., v_{k-1})
    means arrows v0->v1->...->v0.
    """

    vertices: tuple
    oriented: bool

    @property
    def length(self):
        return len(self.vertices)

    def arrow_list(self):
        """The cycle's arrows in walk order (only meaningful when oriented)."""
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def validate(q: Quiver) -> None:
    n = q.vertex_count
    if n < 1:
        raise ValueError("quiver needs at least one vertex")
    seen = set()
    for s, t in q.arrows:
        if not (1 <= s <= n and 1 <= t <= n):
            raise ValueError(f"arrow ({s},{t}) out of vertex range 1..{n}")
        if s == t:
            raise LoopError(f"loop at vertex {s}")
        if (s, t) in seen:
            raise ParallelArrowError(f"parallel arrow ({s},{t})")
        if (t, s) in seen:
            raise TwoCycleError(f"2-cycle between {s} and {t}")
        seen.add((s, t))
    adj = {}  # from the arrows only: the declared vertex count may be huge
    for s, t in q.arrows:
        adj.setdefault(s, []).append(t)
        adj.setdefault(t, []).append(s)
    reached = {1}
    stack = [1]
    while stack:
        for w in adj.get(stack.pop(), ()):
            if w not in reached:
                reached.add(w)
                stack.append(w)
    if len(reached) != n:
        raise DisconnectedError(f"underlying graph is disconnected ({len(reached)} of {n} vertices reachable)")


def neighbours(q: Quiver):
    """The underlying graph: each vertex -> the set of vertices sharing an arrow with it."""
    adj = {v: set() for v in range(1, q.vertex_count + 1)}
    for s, t in q.arrows:
        adj[s].add(t)
        adj[t].add(s)
    return adj


def mutate(q: Quiver, k: int) -> Quiver:
    """Fomin-Zelevinsky mutation at vertex k (1-based), on the arrows: reverse
    the arrows at k, then for each path i -> k -> j cancel an arrow j -> i or
    else add i -> j, which must not be there already."""
    n = q.vertex_count
    if not (1 <= k <= n):
        raise ValueError(f"vertex {k} out of range 1..{n}")
    ins = sorted(s for s, t in q.arrows if t == k)
    outs = sorted(t for s, t in q.arrows if s == k)
    arrows = {(s, t) for s, t in q.arrows if k not in (s, t)}
    for i in ins:
        for j in outs:
            if (j, i) in arrows:
                arrows.remove((j, i))
            elif (i, j) in arrows:
                raise MultipleArrowError(f"mutation at {k} produced multiplicity 2 between {i} and {j}")
            else:
                arrows.add((i, j))
    arrows.update((k, i) for i in ins)
    arrows.update((j, k) for j in outs)
    return Quiver(n, tuple(sorted(arrows)))


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

def _refined_colors(n, out_adj, in_adj):
    """Colour refinement from (out, in) degrees: a vertex's next colour is its
    colour with the sorted colours of its out- and in-neighbours, numbered in
    sorted order.  A round that splits no class renumbers nothing, so the
    refinement stops as soon as the class count does not grow, or the
    partition is discrete.

    The neighbour colours enter as one int per vertex: the sum of
    B^(count-1-c) over its out-neighbours' colours c, shifted above the same
    sum over its in-neighbours, with B = 2^bits > n.  The vertices of a class
    share their out- and in-degrees, so within it the pairs of sorted tuples
    compare in the reverse order of these ints, and the colours come out the
    same."""
    degrees = [(len(out_adj[v]), len(in_adj[v])) for v in range(n)]
    comp = {d: i for i, d in enumerate(sorted(set(degrees)))}
    colors = [comp[d] for d in degrees]
    count = len(comp)
    bits = n.bit_length()
    while count < n:
        top = bits * count  # in-sums stay below 2^top
        weight = [1 << (top - bits * (c + 1)) for c in colors]
        key = [0] * n
        for v in range(n):
            for w in out_adj[v]:
                key[v] += weight[w] << top
                key[w] += weight[v]
        sigs = [(colors[v], -key[v]) for v in range(n)]
        comp = {s: i for i, s in enumerate(sorted(set(sigs)))}
        if len(comp) == count:
            break
        colors = [comp[s] for s in sigs]
        count = len(comp)
    return colors


def _canonical_data(n, arrows):
    """Minimal adjacency encoding over color-respecting permutations.

    Returns (canonical arrow tuple, pos), where pos[v] is the 0-based new
    label of old vertex v + 1, as _lowest_border_order finds it.  When every
    color class of more than one vertex is a set of twins (vertices with
    equal out- and in-neighbours), pos is read off without the search: the
    classes in color order, each in ascending vertex order.  That is the
    search's own answer: twins are never adjacent, so they have equal borders
    at every node; a permutation inside a twin class is an automorphism, so
    every leaf ties; and the first leaf places each class in ascending order.

    Comparing out-neighbour lists suffices: the refined coloring is
    equitable, so if x -> u and v has u's color, some y of x's color has
    y -> v, and when x and y share their out-neighbours, x -> v too.  The
    lists come out sorted when arrows is sorted; twins whose lists are not
    are simply searched.
    """
    out_adj = [[] for _ in range(n)]
    in_adj = [[] for _ in range(n)]
    for s, t in arrows:
        out_adj[s - 1].append(t - 1)
        in_adj[t - 1].append(s - 1)
    colors = _refined_colors(n, out_adj, in_adj)
    if len(set(colors)) == n:
        pos = colors  # discrete: the one color-respecting order
    else:
        order = sorted(range(n), key=colors.__getitem__)  # stable: each class ascending
        if any(colors[v] == colors[w] and out_adj[v] != out_adj[w] for v, w in zip(order, order[1:])):
            pos = _lowest_border_order(n, colors, out_adj, in_adj)
        else:
            pos = [0] * n
            for k, v in enumerate(order):
                pos[v] = k
    return tuple(sorted((pos[s - 1] + 1, pos[t - 1] + 1) for s, t in arrows)), tuple(pos)


def _lowest_border_order(n, colors, out_adj, in_adj):
    """The new label of each vertex on the first leaf with the least code.

    Slot k takes a vertex of the k-th smallest color; at each depth only the
    candidates of least border are tried, in vertex order, and a node whose
    prefix exceeds the best leaf's prefix at that depth is cut.  The code
    appended at depth k is the border between the new vertex and the k
    placed ones, two bits (w -> v, v -> w) per placed w in placement order,
    so lexicographic minimization prunes branch by branch.  Each vertex
    carries its border as an int, with placed vertex j at bits 2(n-1-j) and
    2(n-1-j)+1, so borders and prefixes compare as ints in the order of the
    bit tuples."""
    by_color = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    slot_cell = [by_color[c] for c in sorted(colors)]
    border = [0] * n
    used = [False] * n
    assigned = []
    prefix = [0] * (n + 1)  # prefix[k]: code of the current path's first k slots
    best = None  # prefix codes of the best leaf, by depth
    best_perm = None

    def dfs(k):
        nonlocal best, best_perm
        if k == n:
            if best is None or prefix[n] < best[n]:
                best = prefix.copy()
                best_perm = assigned.copy()
            return
        cands = [v for v in slot_cell[k] if not used[v]]
        low = min([border[v] for v in cands])
        ext = (prefix[k] << 2 * k) | (low >> 2 * (n - k))
        if best is not None and ext > best[k + 1]:
            return
        prefix[k + 1] = ext
        high = 2 << 2 * (n - 1 - k)  # v -> w sets the high bit of w's pair for v
        for v in cands:
            if border[v] != low:
                continue
            assigned.append(v)
            used[v] = True
            for w in out_adj[v]:
                border[w] += high
            for w in in_adj[v]:
                border[w] += high >> 1  # w -> v: the low bit
            dfs(k + 1)
            for w in out_adj[v]:
                border[w] -= high
            for w in in_adj[v]:
                border[w] -= high >> 1
            assigned.pop()
            used[v] = False

    dfs(0)
    pos = [0] * n
    for k, v in enumerate(best_perm):
        pos[v] = k
    return pos


def _encode(q: Quiver) -> bytes:
    """The canonical_form encoding of q's own labels."""
    return f"{q.vertex_count}|{';'.join(f'{s}>{t}' for s, t in q.arrows)}".encode("ascii")


def canonical_form(q: Quiver) -> bytes:
    """Relabeling-invariant encoding; equal iff the quivers are isomorphic."""
    return _encode(canonical_representative(q))


def canonical_representative(q: Quiver) -> Quiver:
    """The canonically relabeled quiver of q's isomorphism class."""
    return Quiver(q.vertex_count, _canonical_data(q.vertex_count, tuple(sorted(q.arrows)))[0])


def enumerate_class(seed: Quiver, cap: int = DEFAULT_CLASS_CAP):
    """All quivers in the mutation class of seed, one canonical representative
    per isomorphism class, sorted by canonical form.

    Each edge of the exchange graph is labelled once.  Mutation commutes with
    relabelling and is an involution, so when mutating rep at k labels to a
    member m by pos, mutating m at pos[k - 1] + 1 gives back rep up to
    isomorphism.  Each member not yet mutated keeps the set of such vertices,
    its reverse edges, and is not mutated there; the vertex a new member was
    reached by is the first of them."""
    validate(seed)
    n = seed.vertex_count
    start = canonical_representative(seed)
    found = {start.arrows: start}  # keyed by the canonical arrows
    known = {start.arrows: set()}  # only for members not yet mutated
    frontier = [start]
    while frontier:
        nxt = []
        for rep in frontier:
            skip = known[rep.arrows]
            for k in range(1, n + 1):
                if k in skip:
                    continue
                arrows, pos = _canonical_data(n, mutate(rep, k).arrows)  # mutate sorts the arrows
                if arrows not in found:
                    if len(found) >= cap:
                        raise CapExceededError(cap)
                    m = found[arrows] = Quiver(n, arrows)
                    known[arrows] = set()
                    nxt.append(m)
                if arrows in known:
                    known[arrows].add(pos[k - 1] + 1)
            del known[rep.arrows]
        frontier = nxt
    return sorted(found.values(), key=_encode)  # a member's encoding is its canonical form


# ---------------------------------------------------------------------------
# Chordless cycles
# ---------------------------------------------------------------------------

def chordless_cycles(q: Quiver):
    """All vertex subsets inducing exactly a cycle, tagged oriented or not.

    Listed by size, then by sorted vertex tuple.  Each walk starts at the
    cycle's least vertex; it follows the arrows when the cycle is oriented
    and otherwise steps first to the smaller neighbour.  A fresh list of the
    quiver's one cached search.
    """
    return list(_chordless_cycles(q))


@lru_cache(maxsize=1024)  # bounded: it only has to outlive one query
def _chordless_cycles(q: Quiver):
    """Path extension (Dias, Castonguay, Longo and Jradi, arXiv:1309.1051).

    A chordless cycle with least vertex u and neighbours a < b on it is
    found once: from the induced path a, u, b, extend at the far end by
    vertices above u that have no edge to the interior of the path, and
    close as soon as the new end is adjacent to a.
    """
    adj = neighbours(q)
    found = []
    paths = []  # an explicit stack: an induced path can be as long as the quiver
    for u in adj:
        up = sorted(w for w in adj[u] if w > u)
        for i, a in enumerate(up):
            for b in up[i + 1:]:
                if b in adj[a]:
                    found.append([a, u, b])
                else:
                    paths.append(([a, u, b], adj[u]))
    while paths:
        # path = [a, u, b, ...] is an induced path; blocked holds the neighbours
        # of its interior path[1:-1], so with v > u no path vertex comes back
        path, blocked = paths.pop()
        for v in adj[path[-1]]:
            if v > path[1] and v not in blocked:
                if v in adj[path[0]]:
                    found.append(path + [v])
                else:
                    paths.append((path + [v], blocked | adj[path[-1]]))

    arrow_set = q.arrow_set
    cycles = []
    for path in found:
        # path = [a, u, b, ..., z] closes with the edge z-a; walk u, a, z, ..., b
        walk = [path[1], path[0]] + path[:1:-1]
        size = len(walk)
        oriented_fwd = all((walk[i], walk[(i + 1) % size]) in arrow_set for i in range(size))
        oriented_bwd = all((walk[(i + 1) % size], walk[i]) in arrow_set for i in range(size))
        if oriented_bwd:
            walk = [walk[0]] + walk[1:][::-1]
        cycles.append(Cycle(tuple(walk), oriented_fwd or oriented_bwd))
    # an induced cycle is fixed by its vertex set: this order does not depend on the search
    cycles.sort(key=lambda c: (c.length, sorted(c.vertices)))
    return tuple(cycles)


def oriented_triangle_count(q: Quiver) -> int:
    return sum(1 for c in chordless_cycles(q) if c.oriented and c.length == 3)


# ---------------------------------------------------------------------------
# Dynkin type detection and standard seeds
# ---------------------------------------------------------------------------

def detect_dynkin(q: Quiver):
    """The Dynkin type (family, rank) of q's mutation class, from an
    admissible quasi-Cartan companion A (Barot-Geiss-Zelevinsky 2006).

    Every chordless cycle must be oriented.  A has a_ii = 2 and, on each edge,
    a_ij = a_ji = +-1 with an odd number of +1 edges on every chordless cycle
    (one linear system over GF(2)).  q is of finite type exactly when A is
    positive definite (Sylvester: every leading principal minor > 0), and
    then det A is the Cartan determinant of the type: n + 1 for A_n, 4 for
    D_n, and 3, 2, 1 for E_6, E_7, E_8.
    """
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
    for det in leading_minors(a):
        if det <= 0:
            raise NotDynkinError(f"{q} is not of finite type: quasi-Cartan companion not positive definite")
    if det == n + 1:
        return ("A", n)
    if det == 4:
        return ("D", n)
    if (n, det) in ((6, 3), (7, 2), (8, 1)):
        return ("E", n)
    raise NotDynkinError(f"{q}: no Dynkin diagram of rank {n} has Cartan determinant {det}")


def dynkin_seed(family: str, rank: int) -> Quiver:
    """Fixed seed orientations: A_n a directed path, D_n a fork into a path,
    E_6/7/8 a directed path with one extra arrow into vertex 3."""
    family = family.upper()
    if family == "A":
        if rank < 2:
            raise ValueError("type A needs rank >= 2")
        return Quiver.make(rank, [(i, i + 1) for i in range(1, rank)])
    if family == "D":
        if rank < 4:
            raise ValueError("type D needs rank >= 4")
        arrows = [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, rank)]
        return Quiver.make(rank, arrows)
    if family == "E":
        if rank not in (6, 7, 8):
            raise ValueError("type E needs rank in {6, 7, 8}")
        arrows = [(i, i + 1) for i in range(1, rank - 1)] + [(rank, 3)]
        return Quiver.make(rank, arrows)
    raise ValueError(f"unknown family {family!r}")
