"""Exact dense linear algebra over GF(p) and the rationals.

Everything here is exact: no floating point anywhere.  Matrices are small
(at most a few thousand rows in this project), so the representation is
dense lists of rows.  Over the rationals entries stay `int` until a division
is inexact (`qdiv`), which alone makes a `Fraction`.  Integer determinants
use fraction-free Bareiss elimination with arbitrary-precision ints; matrix
pencils det(x*A + B) are recovered from point evaluations by interpolation
in the integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .errors import InvariantError
from .fields import FieldSpec


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
    forward-reduced (enough for reduce/add)."""

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
                if x:
                    row = piv.get(j)
                    if row is None:
                        v[j] = x
                        continue
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

    Evaluated at the nodes x = 0..n and interpolated in Newton's forward form
    p(x) = sum_k D^k p(0) * x(x-1)...(x-k+1) / k!, with integer differences
    D^k p(0); the sum is scaled by n! and divided exactly once at the end.
    """
    n = len(a)
    for r in a:
        if len(r) != n:
            raise NonSquareError("first matrix not square")
    if len(b) != n or any(len(r) != n for r in b):
        raise NonSquareError("matrices must be square of equal size")
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
