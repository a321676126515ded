"""Exact dense linear algebra over GF(p) and the rationals.

Everything here is exact: no floating point anywhere.  Matrices are small
(at most a few thousand rows in this project), so the representation is
dense lists of rows.  Over the rationals entries stay `int` until a division
is inexact (`qdiv`), which alone makes a `Fraction`.  Integer determinants
use fraction-free Bareiss elimination with arbitrary-precision ints; the
coefficients of a matrix pencil det(x*A + B) come from O(n^3) work modulo
each of a few primes near 2^61 (a characteristic polynomial by Hessenberg
reduction), joined by the Chinese remainder theorem under the Hadamard bound.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .fields import FieldSpec, is_prime


class NonSquareError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Row-level workhorses.  These operate on mutable lists of rows and are used
# directly by the algebra and oracle modules.
# ---------------------------------------------------------------------------

def rref_mod(rows, ncols, p):
    """In-place reduced row echelon form over GF(p). Returns (rank, pivots)."""
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if rows[i][c] % p:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        row = rows[r]
        inv = pow(row[c], -1, p)
        if inv != 1:
            row[:] = [x * inv % p for x in row]
        else:
            row[:] = [x % p for x in row]
        for i in range(nrows):
            if i != r:
                f = rows[i][c] % p
                if f:
                    ri = rows[i]
                    rows[i] = [(a - f * b) % p for a, b in zip(ri, row)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots


def qdiv(x, d):
    """x / d over the rationals: an `int` when d divides x, else a `Fraction`."""
    if type(x) is int and type(d) is int:
        q, r = divmod(x, d)
        return Fraction(x, d) if r else q
    y = x / d  # a Fraction operand makes this a Fraction
    return y.numerator if y.denominator == 1 else y


def rref_frac(rows, ncols):
    """In-place reduced row echelon form over the rationals.

    Returns (rank, pivots, minor): minor is the product of the pivots as found,
    before each is normalised to 1, which is +- the determinant of the rows
    and columns the elimination picked."""
    pivots = []
    minor = 1
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        row = rows[r]
        pv = row[c]
        if pv != 1:
            minor *= pv
            row[:] = [qdiv(x, pv) for x in row]
        for i in range(nrows):
            if i != r:
                f = rows[i][c]
                if f:
                    ri = rows[i]
                    rows[i] = [a - f * b for a, b in zip(ri, row)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots, minor


def kernel_from_rref(rows, ncols, pivots, field: FieldSpec):
    """Right null space basis given an RREF. One vector per free column."""
    pivot_set = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        v = [0] * ncols
        v[j] = 1
        for r, c in enumerate(pivots):
            x = rows[r][j]
            if x:
                v[c] = -x if field.characteristic == 0 else (-x) % field.characteristic
        basis.append(tuple(v))
    return basis


class Echelon:
    """Incrementally built row echelon over a field, for span membership
    and reduction.  Rows are kept with normalized leading 1 and are only
    forward-reduced (enough for reduce/add).  Over GF(p) a vector may hold
    any integers, negative or not below p; reduce and add read them mod p
    and return every entry in 0..p - 1."""

    __slots__ = ("field", "p", "pivot_rows", "rank")

    def __init__(self, field: FieldSpec):
        self.field = field
        self.p = field.characteristic
        self.pivot_rows = {}
        self.rank = 0

    def reduce(self, vec):
        """Return vec reduced against the echelon (a fresh list)."""
        v = list(vec)
        piv = self.pivot_rows
        p = self.p
        if p:
            for j in range(len(v)):
                x = v[j] % p
                row = piv.get(j) if x else None
                if row is None:
                    v[j] = x
                else:
                    v = [(a - x * b) % p for a, b in zip(v, row)]
        else:
            for j in range(len(v)):
                x = v[j]
                if x:
                    row = piv.get(j)
                    if row is None:
                        continue
                    v = [a - x * b for a, b in zip(v, row)]
        return v

    def add(self, vec):
        """Insert vec's residue; return it (None if vec was already in the span)."""
        v = self.reduce(vec)
        lead = -1
        for j, x in enumerate(v):
            if x:
                lead = j
                break
        if lead < 0:
            return None
        pv = v[lead]
        if self.p:
            inv = pow(pv, -1, self.p)
            if inv != 1:
                v = [x * inv % self.p for x in v]
        elif pv != 1:
            v = [qdiv(x, pv) for x in v]
        self.pivot_rows[lead] = v
        self.rank += 1
        return v


# ---------------------------------------------------------------------------
# Integer determinants and pencil determinants.
# ---------------------------------------------------------------------------

def det_int(rows) -> int:
    """Exact determinant of a square integer matrix, fraction-free (Bareiss)."""
    n = len(rows)
    a = [list(r) for r in rows]
    for r in a:
        if len(r) != n:
            raise NonSquareError(f"expected {n}x{n} matrix")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            ai, ak = a[i], a[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * akk - aik * ak[j]) // prev
            ai[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1]


def leading_minors(rows):
    """Yield the leading principal minors of a square integer matrix, k = 1..n,
    from one fraction-free (Bareiss) elimination with no row swaps: the k-th
    pivot is the k-th leading minor.  A zero minor ends the sequence, since
    the elimination cannot go past it without a swap."""
    n = len(rows)
    a = [list(r) for r in rows]
    prev = 1
    for k in range(n):
        akk = a[k][k]
        yield akk
        if akk == 0:
            return
        ak = a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * akk - aik * ak[j]) // prev
        prev = akk


def pencil_det(a, b):
    """Integer coefficients of det(x*a + b), ascending by power of x.

    Computed modulo 2^61 - 1 and, while their product is at most twice the
    Hadamard bound prod_i (|a_i| + |b_i|) of every coefficient (rows a_i,
    b_i), the next primes below it; the residues are joined by the Chinese
    remainder theorem and read as symmetric residues.  Mod each prime p
    (`_pencil_mod`) the cost is O(n^3).
    """
    n = len(a)
    for r in a:
        if len(r) != n:
            raise NonSquareError("first matrix not square")
    if len(b) != n or any(len(r) != n for r in b):
        raise NonSquareError("matrices must be square of equal size")
    # (|a_i| + |b_i|)^2 = |a_i|^2 + |b_i|^2 + 2 sqrt(|a_i|^2 |b_i|^2), rounded up
    bound_sq = 1
    for ra, rb in zip(a, b):
        sa, sb = sum(x * x for x in ra), sum(x * x for x in rb)
        root = isqrt(sa * sb)
        bound_sq *= sa + sb + 2 * (root + (root * root < sa * sb))
    coeffs, modulus = [0] * (n + 1), 1
    for p in _primes():
        inv = pow(modulus, -1, p)
        for k, r in enumerate(_pencil_mod(a, b, p)):
            coeffs[k] += modulus * ((r - coeffs[k]) * inv % p)
        modulus *= p
        if modulus * modulus > 4 * bound_sq:  # modulus > 2 * the Hadamard bound
            break
    return tuple(x - modulus if 2 * x > modulus else x for x in coeffs)


def _primes():
    """2^61 - 1 (a Mersenne prime), then the primes below it in descending
    order, found as needed."""
    m = (1 << 61) - 1
    yield m
    while True:
        m -= 2
        if is_prime(m):
            yield m


def _pencil_mod(a, b, p):
    """det(x*a + b) mod p, ascending, for a prime p > n.

    Takes the least c in 0..n with D = c*a + b invertible mod p (if there is
    none, the pencil has n + 1 roots and so is 0 mod p), M = D^-1 a by
    Gauss-Jordan, and the characteristic polynomial chi of M: then
    det(y*a + D) = det D * det(I + y*M) = det D * sum_k (-1)^k chi_{n-k} y^k,
    and x = y + c shifts it back.
    """
    n = len(a)
    for c in range(n + 1):
        rows = [[(c * x + y) % p for x, y in zip(ra, rb)] + [x % p for x in ra]
                for ra, rb in zip(a, b)]
        det = 1
        for k in range(n):
            pr = next((i for i in range(k, n) if rows[i][k]), -1)
            if pr < 0:
                break
            if pr != k:
                rows[k], rows[pr] = rows[pr], rows[k]
                det = -det
            row = rows[k]
            det = det * row[k] % p
            inv = pow(row[k], -1, p)
            tail = [x * inv % p for x in row[k:]]
            row[k:] = tail
            for i in range(n):
                f = rows[i][k]
                if f and i != k:
                    ri = rows[i]
                    ri[k:] = [(x - f * y) % p for x, y in zip(ri[k:], tail)]
        else:
            chi = _charpoly_mod([r[n:] for r in rows], p)
            out = [(det if k % 2 == 0 else -det) * chi[n - k] % p for k in range(n + 1)]
            if c:  # Taylor shift: the coefficients of out(x - c)
                for i in range(n):
                    for j in range(n - 1, i - 1, -1):
                        out[j] = (out[j] - c * out[j + 1]) % p
            return out
    return [0] * (n + 1)


def _charpoly_mod(h, p):
    """det(t*I - h) mod p, ascending, monic of degree n; h is overwritten.

    Reduces h to upper Hessenberg form by similarity transformations, then
    expands the determinant along the last column of each leading block
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9).
    """
    n = len(h)
    for m in range(1, n - 1):
        pr = next((i for i in range(m, n) if h[i][m - 1]), -1)
        if pr < 0:
            continue
        if pr != m:
            h[pr], h[m] = h[m], h[pr]
            for r in h:
                r[pr], r[m] = r[m], r[pr]
        hm = h[m]
        inv = pow(hm[m - 1], -1, p)
        for i in range(m + 1, n):
            u = h[i][m - 1] * inv % p
            if u:  # row i -= u * row m, then column m += u * column i
                hi = h[i]
                hi[m - 1:] = [(x - u * y) % p for x, y in zip(hi[m - 1:], hm[m - 1:])]
                for r in h:
                    r[m] = (r[m] + u * r[i]) % p
    polys = [[1]]  # polys[m] = det(t*I - h) of the leading m x m block
    for m in range(1, n + 1):
        d = h[m - 1][m - 1]
        prev = polys[-1]
        cur = [(u - d * x) % p for u, x in zip([0] + prev, prev + [0])]
        t = 1
        for i in range(1, m):
            t = t * h[m - i][m - i - 1] % p
            if not t:
                break
            f = t * h[m - i - 1][m - 1] % p
            if f:
                low = polys[m - i - 1]
                cur[:len(low)] = [(u - f * x) % p for u, x in zip(cur, low)]
        polys.append(cur)
    return polys[n]


def format_poly(coeffs) -> str:
    """Human form of an integer polynomial (ascending input), descending powers."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        elif i == 1:
            body = "x" if mag == 1 else f"{mag}x"
        else:
            body = f"x^{i}" if mag == 1 else f"{mag}x^{i}"
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first_body = terms[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in terms[1:]:
        out += f" {sign} {body}"
    return out
