"""Exact linear algebra over Z and Q.

Everything here works on plain lists of Python ints or Fractions, so results
are exact at any size.  Matrices are lists of row lists.  These routines back
the lattice constructions; nothing in this module touches floating point.
The congruent diagonalization of a Gram matrix, over Q and over each Z_p,
is ``lattices.jordan_splitting``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, mul


# ---------------------------------------------------------------------------
# basic matrix helpers

def mat_copy(a):
    return [list(row) for row in a]


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x:
                bt = b[t]
                for j in range(m):
                    oi[j] += x * bt[j]
    return out


def mat_vec(a, v):
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def bareiss_det(a):
    """Determinant of an integer matrix by fraction-free Bareiss elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = mat_copy(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def frac_mat_inv(a):
    """Inverse of a square matrix with Fraction entries (Gauss-Jordan)."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def unimodular_inverse(a):
    """Integer inverse of a unimodular integer matrix, by row operations on
    [a | 1]: Euclid down each column leaves one pivot, which is +-1 exactly
    when a is unimodular, and the pivot then clears its column."""
    n = len(a)
    m = [[int(x) for x in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        while True:
            rows = [r for r in range(col, n) if m[r][col]]
            if not rows:
                raise ValueError("matrix is not unimodular")
            piv = min(rows, key=lambda r: abs(m[r][col]))
            m[col], m[piv] = m[piv], m[col]
            p = m[col][col]
            for r in rows:
                if r != col and m[r][col]:
                    q = m[r][col] // p
                    m[r] = [x - q * y for x, y in zip(m[r], m[col])]
            if not any(m[r][col] for r in range(col + 1, n)):
                break
        if abs(m[col][col]) != 1:
            raise ValueError("matrix is not unimodular")
        if m[col][col] < 0:
            m[col] = [-x for x in m[col]]
        for r in range(col):
            f = m[r][col]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


# ---------------------------------------------------------------------------
# Smith normal form with transforms

def smith_normal_form(a):
    """Return (d, u, v) with u*a*v = d, u, v unimodular, d in Smith form.

    d has nonnegative diagonal entries d[0] | d[1] | ... and zeros elsewhere.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = mat_copy(a)
    u = identity(rows)
    v = identity(cols)

    def row_op(i, j, q):  # row_i -= q * row_j
        m[i] = [x - q * y for x, y in zip(m[i], m[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q * col_j
        for r in range(rows):
            m[r][i] -= q * m[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(rows):
            m[r][i], m[r][j] = m[r][j], m[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    t = 0
    while t < min(rows, cols):
        # find a nonzero pivot of smallest absolute value
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = abs(m[i][j])
                if x and (best is None or x < best):
                    best, piv = x, (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        dirty = False
        for i in range(t + 1, rows):
            if m[i][t]:
                q = m[i][t] // m[t][t]
                row_op(i, t, q)
                if m[i][t]:
                    dirty = True
        for j in range(t + 1, cols):
            if m[t][j]:
                q = m[t][j] // m[t][t]
                col_op(j, t, q)
                if m[t][j]:
                    dirty = True
        if dirty:
            continue
        # pivot must divide the remaining block
        stuck = False
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t]:
                    row_op(t, i, -1)  # add row i to row t, restart pivot step
                    stuck = True
                    break
            if stuck:
                break
        if stuck:
            continue
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return m, u, v


def invariant_factors(a):
    d, _, _ = smith_normal_form(a)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i] != 0]


def kernel_basis(a):
    """Basis rows of the integer (right) kernel {x : a x = 0}; saturated."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if rows == 0:
        return identity(cols)
    d, _, v = smith_normal_form(a)
    rank = sum(1 for i in range(min(rows, cols)) if d[i][i] != 0)
    # kernel is spanned by the trailing columns of v
    return [[v[r][j] for r in range(cols)] for j in range(rank, cols)]


def hnf(a):
    """Row-style Hermite normal form of an integer matrix (zero rows dropped).

    Pivots are positive, entries above a pivot reduced into [0, pivot).
    """
    m = [list(row) for row in a if any(row)]
    if not m:
        return []
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        # clear below by gcd steps
        for i in range(r + 1, rows):
            while m[i][c]:
                q = m[r][c] // m[i][c]
                m[r] = [x - q * y for x, y in zip(m[r], m[i])]
                m[r], m[i] = m[i], m[r]
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[r])]
        r += 1
        if r == rows:
            break
    return [row for row in m[:r]]


def hnf_rational(rows):
    """HNF basis of the lattice generated by rational row vectors.

    Returns rows of Fractions spanning the same Z-module.
    """
    if not rows:
        return []
    den = 1
    for row in rows:
        for x in row:
            den = den * Fraction(x).denominator // gcd(den, Fraction(x).denominator)
    ints = [[int(Fraction(x) * den) for x in row] for row in rows]
    h = hnf(ints)
    return [[Fraction(x, den) for x in row] for row in h]


# ---------------------------------------------------------------------------
# symmetric forms

def floor_sqrt_fraction(x: Fraction) -> int:
    """floor(sqrt(x)) for a nonnegative Fraction, exact."""
    if x < 0:
        raise ValueError("negative argument")
    return isqrt(x.numerator * x.denominator) // x.denominator


def gram_schmidt_ldl(g):
    """Exact LDL data for a symmetric positive definite Fraction matrix.

    Returns (mu, d): d[i] the diagonal of D, mu lower-triangular coefficients
    with mu[i][j] for j < i.  g = L D L^T with L unit lower triangular.
    """
    n = len(g)
    mu = [[Fraction(0)] * n for _ in range(n)]
    d = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            s = Fraction(g[i][j])
            for k in range(j):
                s -= mu[i][k] * mu[j][k] * d[k]
            mu[i][j] = s / d[j]
        s = Fraction(g[i][i])
        for k in range(i):
            s -= mu[i][k] * mu[i][k] * d[k]
        d[i] = s
        if d[i] <= 0:
            raise ValueError("matrix is not positive definite")
    return mu, d


LLL_DELTA = Fraction(3, 4)


def lll_reduce_gram(g):
    """LLL-reduce a positive definite Gram matrix given exactly, with
    Lovasz constant LLL_DELTA.

    Returns (u, g2) with u unimodular (rows are the new basis in the old
    coordinates) and g2 = u g u^T the reduced Gram.  Each basis move is
    applied to the Gram matrix as the matching row and column operation;
    Fractions throughout, fine at desk scale.
    """
    n = len(g)
    u = identity(n)
    cur = [[Fraction(x) for x in row] for row in g]
    mu, d = gram_schmidt_ldl(cur)
    k = 1
    while k < n:
        # size reduction: b_k -= r b_j, with r the nearest integer to mu[k][j]
        for j in range(k - 1, -1, -1):
            q = mu[k][j]
            r = (q.numerator * 2 + q.denominator) // (2 * q.denominator)
            if r:
                u[k] = [x - r * y for x, y in zip(u[k], u[j])]
                cur[k] = [x - r * y for x, y in zip(cur[k], cur[j])]
                for row in cur:
                    row[k] -= r * row[j]
                mu[k][j] -= r
                for i in range(j):
                    mu[k][i] -= r * mu[j][i]
        if d[k] >= (LLL_DELTA - mu[k][k - 1] ** 2) * d[k - 1]:
            k += 1
        else:
            u[k], u[k - 1] = u[k - 1], u[k]
            cur[k], cur[k - 1] = cur[k - 1], cur[k]
            for row in cur:
                row[k], row[k - 1] = row[k - 1], row[k]
            mu, d = gram_schmidt_ldl(cur)
            k = max(k - 1, 1)
    return u, cur


class InputError(ValueError):
    """Base of every refusal of an input as the caller's mistake; the
    command line reports it with exit status 2."""


class NodeGuardExceeded(ValueError):
    """Base of every refusal to run past a size guard, whose message names
    the size; the command line reports it with exit status 3."""


# pi from below, to 14 decimals
_PI_BELOW = Fraction(314159265358979, 10 ** 14)


def _least_points(d, bound) -> int:
    """A lower bound on the number of integer z with
    (z+shift)^T a (z+shift) <= bound, for any shift, from the LDL diagonal d
    of a basis of a.

    The Gram-Schmidt box {sum t_j b*_j : |t_j| <= 1/2} of the basis is a
    fundamental domain of the lattice, of volume sqrt(det a) = sqrt(prod d_j),
    and each of its points lies within delta = sqrt(sum d_j) / 2 of its
    centre.  So the boxes about the points of the ellipsoid cover the ball of
    radius sqrt(bound) - delta about its centre, and there are at least that
    ball's volume over the box's volume of them.  The radius, pi and the
    quotient are each rounded down, so the bound is never too high.
    """
    n = len(d)
    if n == 0 or bound < 0:
        return 0
    k = 1 << 32
    radius = (Fraction(isqrt(int(bound * k * k)), k)
              - Fraction(isqrt(-(-sum(d) * k * k // 4)) + 1, k))
    if radius <= 0:
        return 0
    # the unit ball's volume is pi^(n // 2) q, with q_0 = 1, q_1 = 2 and
    # q_n = q_(n-2) 2 / n
    q = Fraction(1 + n % 2)
    for m in range(2 + n % 2, n + 1, 2):
        q *= Fraction(2, m)
    det = 1
    for x in d:
        det *= x
    square = _PI_BELOW ** (2 * (n // 2)) * q * q * radius ** (2 * n) / det
    return isqrt(int(square))


class ShortVectorRows:
    """Fincke-Pohst search for every integer z with
    (z+shift)^T a (z+shift) <= bound, by the rows of its last level.

    a is positive definite and rational, shift rational (default zero).
    The depth-first search runs on the LLL-reduced form, whose LDL data,
    shift and bound are put over one common denominator once, so centres,
    budgets and isqrt ranges are ints.  Iterating yields rows
    (prefix, lo, hi, offset, centre): the vectors prefix + k step for k in
    lo..hi, of values (offset + d0 (e k - centre)^2) / scale, whose
    numerators lie in [offset, top].  Raises NodeGuardExceeded past
    ``guard`` candidates, counted over all levels, and before the walk when
    ``_least_points`` shows that the last level alone holds more; so a guard
    suits only a caller that reads the whole walk.
    """

    def __init__(self, a, bound, shift=None, guard=None):
        n = len(a)
        shift = [Fraction(x) for x in shift or [0] * n]
        # every value lies in Z / grid, so rounding bound down to that grid
        # keeps every point and keeps bound's own denominator out of scale
        grid = (lcm(*(Fraction(x).denominator for row in a for x in row))
                * lcm(*(x.denominator for x in shift)) ** 2)
        bound = Fraction(Fraction(bound) * grid // 1, grid)
        # reduced coordinates: x = u^T x'; integer z' maps back to z = u^T z'
        u, a_red = lll_reduce_gram(a)
        uinv = unimodular_inverse(u)
        s = [sum(uinv[j][i] * shift[j] for j in range(n)) for i in range(n)]
        mu, d = gram_schmidt_ldl(a_red)
        if guard is not None and _least_points(d, bound) > guard:
            raise NodeGuardExceeded(f"enumeration exceeded {guard} nodes")
        # the centre of level j is const_j - sum_{i>j} mu[i][j] z'_i; scaled by e
        const = [-s[j] - sum(mu[i][j] * s[i] for i in range(j + 1, n))
                 for j in range(n)]
        e = lcm(*(x.denominator for x in const),
                *(mu[i][j].denominator for i in range(n) for j in range(i)))
        # budgets scaled by e^2 dl: d_j (e z'_j - centre)^2 dl is an int
        dl = lcm(bound.denominator, *(x.denominator for x in d))
        dd = [int(x * dl) for x in d]
        self.step, self.d0, self.e, self.scale = tuple(u[0]), dd[0], e, e * e * dl
        self.top = int(bound * self.scale)
        self._search = (u, [int(x * e) for x in const], dd, guard,
                        [[int(mu[i][j] * e) for i in range(n)] for j in range(n)])

    def __iter__(self):
        (u, cc, dd, guard, mm), e, top = self._search, self.e, self.top
        zr = [0] * len(u)
        nodes = 0

        def rec(j, budget, acc):
            # z'_i fixed for i > j; acc = sum_{i>j} z'_i u[i] in old coordinates
            nonlocal nodes
            # mm[j][i] = 0 for i <= j, and zr[i] = 0 for i < j
            centre = cc[j] - sum(map(mul, mm[j], zr))
            rad = isqrt(budget // dd[j])
            lo, hi = -((rad - centre) // e), (centre + rad) // e
            nodes += max(hi - lo + 1, 0)
            if guard is not None and nodes > guard:
                raise NodeGuardExceeded(f"enumeration exceeded {guard} nodes")
            if not j:
                if lo <= hi:
                    yield acc, lo, hi, top - budget, centre
                return
            w = e * lo - centre
            for z in range(lo, hi + 1):
                zr[j] = z
                yield from rec(j - 1, budget - dd[j] * w * w,
                               [x + z * y for x, y in zip(acc, u[j])])
                w += e
            zr[j] = 0

        if top >= 0:
            yield from rec(len(u) - 1, top, [0] * len(u))


def short_vectors(a, bound, shift=None, guard=None):
    """Every integer z with (z+shift)^T a (z+shift) <= bound, with that value:
    a tuple of ints and an exact Fraction, one built per distinct value.
    The rows of ``ShortVectorRows(a, bound, shift, guard)``, expanded.
    """
    if not a:
        if bound >= 0:
            yield (), Fraction(0)
        return
    rows = ShortVectorRows(a, bound, shift, guard)
    step, d0, e, scale = rows.step, rows.d0, rows.e, rows.scale
    values = {}
    for prefix, lo, hi, offset, centre in rows:
        z = [x + (lo - 1) * y for x, y in zip(prefix, step)]
        w = e * lo - centre
        for _ in range(hi - lo + 1):
            z = tuple(map(add, z, step))
            v = offset + d0 * w * w
            w += e
            value = values.get(v)
            if value is None:
                value = values[v] = Fraction(v, scale)
            yield z, value
