"""Exact dense linear algebra over GF(p) and the rationals.

Everything here is exact: no floating point anywhere.  Matrices are small
(at most a few thousand rows in this project), so the representation is
dense lists of rows.  Integer determinants use fraction-free Bareiss
elimination with arbitrary-precision ints; matrix pencils det(x*A + B)
are recovered from point evaluations by exact interpolation.
"""

from __future__ import annotations

from fractions import Fraction

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


def rref_frac(rows, ncols):
    """In-place reduced row echelon form over the rationals. Returns (rank, pivots)."""
    pivots = []
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
            row[:] = [x / pv for x in row]
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
    return r, pivots


def rref(rows, ncols, field: FieldSpec):
    p = field.characteristic
    if p:
        return rref_mod(rows, ncols, p)
    return rref_frac(rows, ncols)


def kernel_from_rref(rows, ncols, pivots, field: FieldSpec):
    """Right null space basis given an RREF. One vector per free column."""
    zero, one = field.zero(), field.one()
    pivot_set = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        v = [zero] * ncols
        v[j] = one
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
            v = [x / pv for x in v]
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


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def pencil_det(a, b):
    """Integer coefficients of det(x*a + b), ascending by power of x.

    Evaluated at x = 0..N and interpolated exactly; the nodes are
    deterministic so results are reproducible.
    """
    n = len(a)
    for r in a:
        if len(r) != n:
            raise NonSquareError("first matrix not square")
    if len(b) != n or any(len(r) != n for r in b):
        raise NonSquareError("matrices must be square of equal size")
    if n == 0:
        return (1,)
    xs = list(range(n + 1))
    ys = [det_int([[x * a[i][j] + b[i][j] for j in range(n)] for i in range(n)]) for x in xs]
    # Lagrange interpolation with exact rational arithmetic.
    coeffs = [Fraction(0)] * (n + 1)
    for k, xk in enumerate(xs):
        num = [Fraction(1)]
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if j == k:
                continue
            num = poly_mul(num, [Fraction(-xj), Fraction(1)])
            den *= xk - xj
        scale = Fraction(ys[k]) / den
        for i, c in enumerate(num):
            coeffs[i] += scale * c
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise ArithmeticError(f"pencil interpolation produced non-integer coefficient {c}")
        out.append(int(c))
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
