"""Siegel local densities, the singular series, Eisenstein coefficients and
the main term of a point count.

Counts N(gamma, n, L, a) = #{alpha in L/aL : Q(alpha+gamma) + n = 0 mod a}
are computed exactly: a slow exhaustive counter, and a fast path that finds
the Jordan splitting of L over Z_p from the Gram matrix alone
(``lattices.jordan_splitting``, the elimination that over Q gives the
signature).  A piece whose
shift no translate absorbs takes values that cover p^e Z_p evenly, so it
only lowers the modulus to p^e.  Every other piece, a diagonal coordinate or
a 2-adic plane 2^k U or 2^k V, however many, is counted exactly by one
reduction (Hanke's: Hensel lifting of the points with a unit coordinate,
rescaling of the rest), so the split counter builds no residue table and
needs no size guard; only the exhaustive oracle has one.  No hand-written
block metadata is read.  A density is the normalized count at
s0 = 1 + v_p(2 n det), from which on Hensel's lemma keeps it constant; the
counts at s = 1..s0+1 are its witnesses.  At an odd prime
prime to det (and to den(n)) the form is unimodular, equivalent to
<1, ..., 1, det/2^r>: prime to num(n) as well, every solution mod p is
non-singular, so the density and its witnesses are one Legendre symbol in
closed form; dividing num(n), each count is Hanke's reduction on that
diagonal form.  Only p = 2 and the primes dividing det are counted on the
Jordan splitting, which stays the oracle of both shortcuts.

Every function takes the coset gamma + L one way, decided by type: None is
the zero class, a tuple holding a Fraction is a dual vector with one entry
per basis vector, and a tuple of ints is residues in the discriminant group,
one per invariant factor.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections import namedtuple
from decimal import Decimal, localcontext
from fractions import Fraction

from .exactla import InputError, NodeGuardExceeded
from .fqm import discriminant_group
from .lattices import (
    IntegerLattice,
    _prime_factors,
    jordan_splitting,
    legendre,
    rational_valuation,
    valuation,
)

ENUMERATION_GUARD = 10 ** 8
# pi to 80 digits; the closed forms are evaluated in decimal at 50 digits or fewer
PI = Decimal("3.1415926535897932384626433832795028841971693993751058209749445923078164062862")


class DensityError(ValueError):
    pass


class DensityInputError(DensityError, InputError):
    """A malformed gamma, a coset n is not in, n <= 0, too small a rank, or
    an Eisenstein coefficient of a lattice not of signature (2, b)."""


class GuardExceeded(DensityError, NodeGuardExceeded):
    pass


class StabilizationError(DensityError):
    pass


# ---------------------------------------------------------------------------
# shared setup

def small_primes(bound: int):
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(bound ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = b"\x00" * len(sieve[i * i::i])
    return [i for i in range(2, bound + 1) if sieve[i]]


def is_prime(m: int) -> bool:
    """Miller-Rabin on the first twelve prime bases, which decides every
    m < 3.18 * 10^23 (and is a strong probable-prime test beyond).  Trial
    division would take minutes on a 19-digit prime, whose density the
    closed form gives at once."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if m < 2 or m in bases:
        return m in bases
    if any(m % a == 0 for a in bases):
        return False
    s = valuation(m - 1, 2)
    d = (m - 1) >> s
    for a in bases:
        x = pow(a, d, m)
        for _ in range(s):
            if x in (1, m - 1):
                break
            x = x * x % m
        else:
            return False
    return True


def _gamma_lift(L: IntegerLattice, gamma):
    """The dual vector of the coset gamma + L.

    None is the zero class; a tuple holding a Fraction is a dual vector with
    L.rank entries, returned as it is when every entry is a Fraction; a tuple
    of ints is residues in D(L), one per invariant factor.
    """
    if gamma is None:
        return (Fraction(0),) * L.rank
    gamma = tuple(gamma)
    if any(isinstance(x, Fraction) for x in gamma):
        if len(gamma) != L.rank:
            raise DensityInputError(f"a dual vector gamma needs {L.rank} entries, "
                                    f"got {len(gamma)}")
        if all(isinstance(x, Fraction) for x in gamma):
            return gamma
        return tuple(Fraction(x) for x in gamma)
    D = discriminant_group(L)
    if all(isinstance(x, numbers.Integral) for x in gamma) and len(gamma) == D.ngens:
        return D.lift(gamma)
    raise DensityInputError(f"gamma must be {D.ngens} integer residues in the "
                            f"discriminant group or a dual vector of {L.rank} "
                            f"Fractions, got {gamma!r}")


@functools.lru_cache(maxsize=256)
def _coset_data(gram, lift):
    """Return (w, q) with w = G lift, integers, and q = Q(lift): the part of
    t(alpha) that every norm shares, formed once per coset."""
    w = []
    for row in gram:
        x = sum((g * y for g, y in zip(row, lift) if g), Fraction(0))
        if x.denominator != 1:
            raise DensityInputError("gamma is not in the dual lattice")
        w.append(int(x))
    return tuple(w), sum((Fraction(y) * x for y, x in zip(lift, w)), Fraction(0)) / 2


def _count_data(gram, lift, n: Fraction):
    """Return (w, c0) with t(alpha) = Q(alpha) + alpha.w + c0, all integers."""
    w, q = _coset_data(gram, lift)
    c0 = q + n
    if c0.denominator != 1:
        # c0 = Q(gamma) + n, so n - c0 = -Q(gamma) mod 1
        raise DensityInputError(f"n = {n} is not in -Q(gamma) + Z = {(n - c0) % 1} + Z")
    return w, int(c0)


def _checked_lift(L: IntegerLattice, gamma, n: Fraction):
    """The dual vector of gamma + L, once n > 0 is known to lie in -Q(gamma) + Z."""
    if n <= 0:
        raise DensityInputError(f"the norm n must be > 0, got {n}")
    lift = _gamma_lift(L, gamma)
    _count_data(L.gram, lift, n)
    return lift


# ---------------------------------------------------------------------------
# exhaustive counter (the oracle side)

def count_solutions_naive(gamma, n, L: IntegerLattice, a: int,
                          guard: int = ENUMERATION_GUARD) -> int:
    """Exact count of alpha in L/aL with Q(alpha+gamma)+n = 0 mod a."""
    if a <= 0:
        raise DensityInputError("modulus must be positive")
    r = L.rank
    if a ** r > guard:
        raise GuardExceeded(f"a^rank = {a}^{r} exceeds guard {guard}")
    lift = _gamma_lift(L, gamma)
    w, c0 = _count_data(L.gram, lift, Fraction(n))
    if r == 0:
        return 1 if c0 % a == 0 else 0
    import numpy as np

    g = np.array(L.gram, dtype=np.int64)
    wv = np.array(w, dtype=np.int64)
    total = a ** r
    count = 0
    chunk = 1 << 18
    radix = a ** np.arange(r, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        alpha = (idx[:, None] // radix[None, :]) % a
        qa = np.einsum("ki,ij,kj->k", alpha, g, alpha) // 2
        t = (qa + alpha @ wv + c0) % a
        count += int(np.count_nonzero(t == 0))
    return count


def _mod(x: Fraction, a: int) -> int:
    """A p-integral rational reduced modulo a = p^s."""
    return x.numerator * pow(x.denominator, -1, a) % a


# ---------------------------------------------------------------------------
# the residual form: diagonal coordinates and 2-adic planes

def _fp_count(p: int, u: int, d: int, t: int) -> int:
    """#{y in F_p^u : sum m_i y_i^2 = t} for odd p and units m_i of product d."""
    h = u // 2
    if u % 2:
        return p ** (u - 1) + p ** h * legendre((-1) ** h * t * d, p)
    nu = p - 1 if t % p == 0 else -1
    return p ** (u - 1) + nu * p ** (h - 1) * legendre((-1) ** h * d, p)


def _conv8(f, g):
    out = [0] * 8
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[(i + j) % 8] += x * y
    return out


@functools.lru_cache(maxsize=1024)
def _unit_points_mod8(ms, planes):
    """Histogram over the points mod 8, by the value of the form mod 8, of
    the points with a unit coordinate: y_i odd for some odd m_i, or an odd
    coordinate in a plane of scale 0."""
    blocks = [[(m * y * y % 8, m * y % 2) for y in range(8)] for m in ms]
    blocks += [[(((x * y if split else x * x + x * y + y * y) << k) % 8,
                 k == 0 and (x | y) % 2) for x in range(8) for y in range(8)]
               for k, split in planes]
    full = [1] + [0] * 7
    even = [1] + [0] * 7
    for points in blocks:
        hist = [0] * 8
        evens = [0] * 8
        for v, unit in points:
            hist[v] += 1
            if not unit:
                evens[v] += 1
        full, even = _conv8(full, hist), _conv8(even, evens)
    return [x - y for x, y in zip(full, even)]


def _diagonal_count(ms, t: int, p: int, c: int, planes=()) -> int:
    """N(m, planes, t, c), exactly: the points mod p^c at which
    sum m_i y_i^2 + sum_j 2^k_j F_j(x_j) = t mod p^c.  Each plane is (k,
    split), F = xy when split, else x^2 + xy + y^2; only p = 2 has them."""
    a = p ** c
    return _reduced_count(tuple(sorted(m % a for m in ms)),
                          tuple(sorted((min(k, c), split) for k, split in planes)),
                          t % a, p, c)


@functools.lru_cache(maxsize=4096)
def _reduced_count(ms, planes, t: int, p: int, c: int) -> int:
    """N(m, planes, t, c) with ms and planes sorted and reduced mod p^c
    (Hanke's reduction).

    A unit coordinate is a y_i of unit m_i, or a coordinate of a plane of
    scale 0.  The solutions in which some unit coordinate is a unit lift by
    Hensel: at odd p each point over F_p gives p^((K-1)(c-1)), at p = 2 each
    point mod 8 gives 2^((K-1)(c-3)), K the number of coordinates (a point
    with an odd plane coordinate lifts from mod 2 on already, so mod 8 counts
    it as well).  In the rest every unit coordinate is p z, which multiplies m_i by p^2 and a
    plane of scale 0 by 4; then p divides every coefficient, so N is 0
    unless p | t, and p^f N(m/p, planes/2, t/p, c-1) otherwise, f the
    number of coordinates that were not units.  A plane's scale so drops by
    one, except that scale 0 goes to 1.
    """
    if c == 0:
        return 1
    k = len(ms) + 2 * len(planes)
    units = [m for m in ms if m % p]
    unit_planes = sum(1 for scale, _ in planes if scale == 0)
    lifted = 0
    if p == 2:
        if units or unit_planes:
            hist = _unit_points_mod8(tuple(m % 8 for m in ms), planes)
            if c >= 3:
                lifted = hist[t % 8] << ((k - 1) * (c - 3))
            else:
                lifted = sum(hist[t % 2 ** c::2 ** c]) >> (k * (3 - c))
    elif units:
        points = _fp_count(p, len(units), math.prod(units), t) - (t % p == 0)
        lifted = points * p ** (k - len(units) + (k - 1) * (c - 1))
    if t % p:
        return lifted
    rest = tuple(m * p if m % p else m // p for m in ms)
    lowered = tuple((scale - 1 if scale else 1, split) for scale, split in planes)
    free = k - len(units) - 2 * unit_planes
    return lifted + p ** free * _diagonal_count(rest, t // p, p, c - 1, lowered)


# ---------------------------------------------------------------------------
# the split counter

@functools.lru_cache(maxsize=1024)
def _local_pieces(gram, p: int, w):
    """Split t(alpha) = Q(alpha) + alpha.w + c0 over Z_p into pieces.

    Returns (uniform, residual, planes, offset): in Jordan coordinates t is
    the sum of the piece values plus c0 + offset.  c0 is left to the caller,
    so one entry serves every norm.  A piece whose shift is B v for a
    p-integral v is translated by v, since Q(y) + (y, v) = Q(y + v) - Q(v).
    ``uniform`` lists (dim, e) for each piece no translate absorbs: its
    values cover p^e Z_p evenly.  ``residual`` holds the coefficients m of
    every translated rank-1 piece m y^2, at every p, and ``planes`` the
    sorted (k, split) of every translated 2x2 block, which only p = 2 has:
    2^k xy when split, else 2^k (x^2 + xy + y^2).
    """
    trans, pieces = jordan_splitting(gram, p)
    r = len(gram)
    shift = [sum(trans[i][j] * w[i] for i in range(r) if w[i]) for j in range(r)]
    offset = Fraction(0)
    uniform = []
    residual = []
    planes = []
    for idx, block in pieces:
        u = [shift[i] for i in idx]
        if len(idx) == 1:
            v = [u[0] / block[0][0]]
        else:
            (x, y), (_, z) = block
            det = x * z - y * y
            v = [(z * u[0] - y * u[1]) / det, (x * u[1] - y * u[0]) / det]
        if any(vi.denominator % p == 0 for vi in v):
            e = min(rational_valuation(ui, p) for ui in u if ui)
            if len(idx) == 1 and p == 2 and e == rational_valuation(block[0][0], 2) - 1:
                e += 1  # m y^2 + u y with v(m) = v(u): y(m y + u) is even
            uniform.append((len(idx), e))
            continue
        offset -= sum(vi * bij * vj for vi, row in zip(v, block)
                     for bij, vj in zip(row, v)) / 2
        if len(idx) == 1:
            residual.append(block[0][0] / 2)
        else:
            # Q = 2^k (a x^2 + b xy + c y^2), b odd: 2^k U when ac is even
            # (b^2 - 4ac = 1 mod 8), else 2^k V
            k = rational_valuation(y, 2)
            split = x * z == 0 or rational_valuation(x * z, 2) >= 2 * k + 3
            planes.append((k, split))
    return tuple(uniform), tuple(residual), tuple(sorted(planes)), offset


def count_solutions_split(gamma, n, L: IntegerLattice, p: int, s: int) -> int:
    """Same count as count_solutions_naive at a = p^s, from the Jordan splitting.

    The uniform pieces, of total dimension D, sum to values that cover
    p^e Z_p evenly, e the least of their exponents and of s.  So the K
    residual and plane coordinates need only hit the target mod p^e, and
    the count is p^(Ds - s + e + K(s - e)) N(target mod p^e), N by the
    reduction of ``_reduced_count``.  Nothing of size p^s is built.
    """
    _check_prime(p)
    lift = _gamma_lift(L, gamma)
    w, c0 = _count_data(L.gram, lift, Fraction(n))
    uniform, residual, planes, offset = _local_pieces(L.gram, p, w)
    dim = sum(d for d, _ in uniform)
    e = min([s] + [exp for _, exp in uniform])
    k = len(residual) + 2 * len(planes)
    a = p ** e
    count = _diagonal_count([_mod(m, a) for m in residual], _mod(-(c0 + offset), a),
                            p, e, planes)
    return p ** (dim * s - s + e + k * (s - e)) * count


# ---------------------------------------------------------------------------
# stabilized densities

class LocalDensityReport(namedtuple(
        "LocalDensityReport", "prime stabilization_exponent raw_counts density")):
    """The density at a prime, its stabilization exponent s0 and the raw
    counts N(gamma, n, L, p^s) for s = 1..s0+1 that witness it."""
    __slots__ = ()


def local_density(gamma, n, L: IntegerLattice, p: int) -> LocalDensityReport:
    """Stabilized local density with the witnessing raw counts.

    The normalization exponent is rank - 1 (= 1 + b in signature (2, b)).
    At an odd p prime to den(n) det, L is unimodular over Z_p: at p prime to
    num(n) too the density has a closed form (``_unramified_density``), and
    at p | num(n) it is counted on the diagonal form <1, ..., 1, det/2^r>
    (``_unimodular_density``).  Only at p = 2 and the p dividing det is it
    counted on the Jordan splitting.  The stabilization exponent is
    s0 = 1 + v_p(2 n det) by Hensel's lemma (``_stabilized_density``).
    """
    _check_prime(p)
    n = Fraction(n)
    return _local_density(_checked_lift(L, gamma, n), n, L, p)


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise DensityInputError(f"p must be a prime, got {p}")


def _local_density(lift, n: Fraction, L: IntegerLattice, p: int) -> LocalDensityReport:
    """``local_density`` of a coset already checked by ``_checked_lift``, at a prime p."""
    if L.rank and (2 * n.denominator * L.det) % p:
        if n.numerator % p:
            return _unramified_density(n, L, p)
        return _unimodular_density(n, L, p)
    return _counted_density(lift, n, L, p)


def _unramified_density(n: Fraction, L: IntegerLattice, p: int) -> LocalDensityReport:
    """The density at an odd p prime to num(n) den(n) det, in closed form.

    L is unimodular at p and the lift of gamma p-integral, so a translate
    removes gamma; every solution mod p is non-singular (the gradient G x
    vanishes mod p only at x = 0, where Q = 0 is not -n), so the count
    stabilizes at s0 = 1.  Over Z_p, Q is a diagonal form of rank r whose
    coefficients have product det / 2^r up to a square, so N(p) is the
    Legendre-symbol count of ``_fp_count`` at t = -n, and N(p^2) = N(p) p^(r-1)
    is not counted: it is Hensel's lemma of ``_stabilized_density`` at
    s0 = 1, where every gradient is a unit (k = 0).
    """
    r = L.rank
    t = -n.numerator * pow(n.denominator, -1, p)
    count = _fp_count(p, r, L.det * pow(2, -r, p), t)
    norm = p ** (r - 1)
    return LocalDensityReport(p, 1, (count, count * norm), Fraction(count, norm))


def _unimodular_density(n: Fraction, L: IntegerLattice, p: int) -> LocalDensityReport:
    """The stabilized density at an odd p prime to den(n) det, p | num(n).

    L is unimodular over Z_p and the lift of gamma p-integral, so a translate
    removes gamma, and Q is equivalent to <1, ..., 1, d> with d = det / 2^r
    up to a unit square, for instance det 2^(r mod 2).  Each raw count is
    N(<1, ..., 1, d>, -n, s) by Hanke's reduction, with no Jordan splitting.
    """
    r = L.rank
    ms = (1,) * (r - 1) + (L.det * 2 ** (r % 2),)
    return _stabilized_density(
        lambda s: _diagonal_count(ms, _mod(-n, p ** s), p, s), n, L, p)


def _counted_density(lift, n: Fraction, L: IntegerLattice, p: int) -> LocalDensityReport:
    """The stabilized density from counts on the Jordan splitting."""
    return _stabilized_density(
        lambda s: count_solutions_split(lift, n, L, p, s), n, L, p)


def _stabilized_density(count, n: Fraction, L: IntegerLattice, p: int) -> LocalDensityReport:
    """The density of count(s) = N(gamma, n, L, p^s), stable from
    s0 = 1 + max(0, v_p(2 n det)) on, with the counts at s = 1..s0+1.

    Hensel's lemma (Hanke, Duke Math. J. 124, 2004, section 3) gives
    N(p^(s+1)) = p^(r-1) N(p^s) for every s >= s0.  Take a solution alpha
    mod p^s, x = alpha + lift and k = v_p(G x): G x = G alpha + w is the
    gradient of t, so it is integral.  As Q(x) = (G x)^T G^-1 (G x) / 2 and
    G^-1 = adj(G) / det, v_p(Q(x)) >= 2k - v_p(2 det); and Q(x) = -n mod p^s
    with s > v_p(n), so v_p(Q(x)) = v_p(n) and 2k + 1 <= s0 <= s.  For
    s >= 2k + 1, moving x by p^(s-k) y changes t by p^s (G x / p^k).y plus
    p^(2s-2k) Q(y), so t mod p^s is constant on the class of alpha mod
    p^(s-k), and mod p^(s+1) the class holds p^(r(k+1)) points of which the
    affine condition on y mod p, whose linear part G x / p^k is nonzero mod
    p, keeps p^(r(k+1)-1): p^(r-1) times its p^(rk) points mod p^s.  So s0
    is a formula, not a search, and the witness N(p^(s0+1)) = p^(r-1)
    N(p^s0) fails only through a counting error, which raises.
    """
    norm_exp = L.rank - 1
    s0 = 1 + max(0, rational_valuation(2 * n * L.det, p))
    counts = tuple(count(s) for s in range(1, s0 + 2))
    if counts[s0] != counts[s0 - 1] * p ** norm_exp:
        raise StabilizationError(f"N(p^{s0 + 1}) != p^{norm_exp} N(p^{s0}) for p={p}; "
                                 f"raw counts {list(counts)}")
    return LocalDensityReport(p, s0, counts, Fraction(counts[s0 - 1], p ** (norm_exp * s0)))


class SingularSeries(namedtuple("SingularSeries",
                                "factors prime_bound truncated_product tail_policy",
                                defaults=("omitted factors set to 1",))):
    __slots__ = ()


def series_primes(n: Fraction, det: int, prime_bound: int):
    ps = set(small_primes(prime_bound))
    ps.update(_prime_factors(2 * n.numerator * n.denominator * det))
    return sorted(ps)


def singular_series(gamma, n, V: IntegerLattice, prime_bound: int) -> SingularSeries:
    """Truncated Euler product of local densities.

    Includes every prime up to the bound plus all primes dividing
    2 * num(n) * den(n) * det; omitted factors are taken to be 1.  The
    coset is checked once, not once per prime.
    """
    if V.rank < 5:
        raise DensityInputError("singular series wants signature (2,b) with b >= 3, "
                                f"got rank {V.rank}")
    n = Fraction(n)
    lift = _checked_lift(V, gamma, n)
    factors = {}
    product = Fraction(1)
    for p in series_primes(n, V.det, prime_bound):
        rep = _local_density(lift, n, V, p)
        factors[p] = rep
        product *= rep.density
        if rep.density == 0:
            break
    return SingularSeries(factors, prime_bound, product)


# ---------------------------------------------------------------------------
# Eisenstein coefficients and the main term

def _check_signature_2b(V: IntegerLattice, what: str, error) -> None:
    """Raise error unless V has signature (2, b) with b >= 3."""
    if V.rank < 5:
        raise error(f"{what} want signature (2,b) with b >= 3, got rank {V.rank}")
    sig = V.signature()
    if sig.positive != 2:
        raise error(f"{what} want signature (2,b) with b >= 3, "
                    f"got signature ({sig.positive},{sig.negative})")


def gamma_half_integer(two_k: int):
    """Gamma(two_k / 2) as (rational, e) meaning rational * pi^(e/2), e in {0,1}."""
    if two_k <= 0:
        raise ValueError("positive argument required")
    if two_k % 2 == 0:
        k = two_k // 2
        out = 1
        for i in range(1, k):
            out *= i
        return Fraction(out), 0
    k = (two_k - 1) // 2  # Gamma(k + 1/2) = (2k)! sqrt(pi) / (4^k k!)
    num = 1
    for i in range(1, 2 * k + 1):
        num *= i
    den = 4 ** k
    for i in range(1, k + 1):
        den *= i
    return Fraction(num, den), 1


def decimal_of(x) -> Decimal:
    """An int, float, Fraction or Decimal as a Decimal, rounded to the
    current decimal context."""
    x = Fraction(x)
    return Decimal(x.numerator) / x.denominator


class EisensteinCoefficient(namedtuple("EisensteinCoefficient",
                                       "value exact series prime_bound")):
    """A Decimal value; exact is the Fraction when the value is exactly
    rational, series the singular series behind it, if any."""
    __slots__ = ()

    @property
    def approximate(self) -> bool:
        return self.exact is None

    def __float__(self):
        return float(self.value)


def sphere_area(dim: int) -> Decimal:
    """|S^dim| = 2 pi^((dim+1)/2) / Gamma((dim+1)/2), in decimal at the current precision."""
    g, e = gamma_half_integer(dim + 1)
    return decimal_of(2 / g) * PI ** ((dim + 1 - e) // 2)


def eisenstein_coefficient(gamma, n, V: IntegerLattice,
                           prime_bound: int) -> EisensteinCoefficient:
    """Fourier coefficient of the weight 1 + b/2 Eisenstein vector.

    The constant term at (0, 0) is exactly 2.  For n > 0 it is
    -2 |S^(b+1)| (2n)^(b/2) / sqrt|D| times the truncated singular series,
    evaluated in decimal to 50 digits; the result carries an approximate
    flag because of the truncation.  For n < 0 and off the support
    n in -Q(gamma) + Z the coefficient is exactly 0.
    """
    n = Fraction(n)
    lift = _gamma_lift(V, gamma)
    if n == 0:
        if all(x.denominator == 1 for x in lift):
            return EisensteinCoefficient(Decimal(2), Fraction(2), None, prime_bound)
        return EisensteinCoefficient(Decimal(0), Fraction(0), None, prime_bound)
    if n < 0 or not in_coset_support(lift, n, V):
        return EisensteinCoefficient(Decimal(0), Fraction(0), None, prime_bound)
    _check_signature_2b(V, "Eisenstein coefficients", DensityInputError)
    b = V.rank - 2
    ss = singular_series(lift, n, V, prime_bound)
    # 2 (2n)^(b/2) / sqrt|D| times the product: a rational and the root of one
    rational = 2 ** (1 + b // 2) * n ** (b // 2) * ss.truncated_product
    radicand = (2 * n) ** (b % 2) / abs(V.det)
    with localcontext() as ctx:
        ctx.prec = 50
        # the magnitude is negated last, so a product of 0 gives +0, not -0
        value = -(decimal_of(rational) * sphere_area(b + 1)
                  * decimal_of(radicand).sqrt())
    return EisensteinCoefficient(value, None, ss, prime_bound)


class PredictionResult(namedtuple("PredictionResult",
                                  "value error_order representable coefficient prime_bound")):
    """The main term; coefficient is c(gamma, n), with no series for n <= 0
    or off the coset."""
    __slots__ = ()

    @property
    def series(self):
        return self.coefficient.series

    def __float__(self):
        return float(self.value)


def main_term(V: IntegerLattice, gamma, n, mu_s, prime_bound: int) -> PredictionResult:
    """-(mu(S)/2) c(gamma, n), the count predicted in a region of mass mu(S);
    exactly 0, and not representable, when c(gamma, n) has no series or its
    product is 0.  As c(gamma, n) = -2 |S^(b+1)| (2n)^(b/2) / sqrt|D| Pi, the
    main term of a cap's mass ``hyperboloid.window_mass`` is |S^(b+1)| mu(S)
    (2^(b/2) / sqrt|D|) n^(b/2) Pi = mu_infty_closed n^(b/2) Pi: |S^(b+1)|
    mu(S) is mu_a0_closed, and 2^(b/2) / sqrt|D| is half the lattice Jacobian."""
    error_order = f"O(n^((2+b)/4+eps)) = O(n^({Fraction(V.rank, 4)}+eps)) for projective bases"
    c = eisenstein_coefficient(gamma, n, V, prime_bound)
    if c.series is None or c.series.truncated_product == 0:
        return PredictionResult(Decimal(0), error_order, False, c, prime_bound)
    with localcontext() as ctx:
        ctx.prec = 50
        val = -(c.value * decimal_of(mu_s)) / 2
    return PredictionResult(val, error_order, True, c, prime_bound)


# ---------------------------------------------------------------------------
# representability

def in_coset_support(gamma, n, V: IntegerLattice) -> bool:
    """Whether n lies in -Q(gamma) + Z, the norms the coset gamma + V takes."""
    return (_coset_data(V.gram, _gamma_lift(V, gamma))[1] + Fraction(n)).denominator == 1


def is_representable(gamma, n, V: IntegerLattice) -> bool:
    """Local representability of -n by Q on gamma + V (n > 0), V of any rank
    >= 2: of signature (2, b), or a Picard lattice P as P(-1), where Q_P = n.

    At infinity -n wants a negative direction.  At a prime, local solvability
    is a positive density (Hanke, Duke Math. J. 124, 2004), read at the primes
    ``singular_series(..., 0)`` visits, those dividing 2 * num(n) * den(n) *
    det: at any other the density 1 +- p^-(r // 2) is positive.  A density of
    0 is a count of 0 at some modulus, so False is a proof.
    """
    n = Fraction(n)
    if n <= 0:
        return False
    if V.rank < 2:
        raise DensityInputError(f"local representability wants rank >= 2, got rank {V.rank}")
    lift = _gamma_lift(V, gamma)
    if not in_coset_support(lift, n, V) or not V.signature().negative:
        return False
    return all(_local_density(lift, n, V, p).density for p in series_primes(n, V.det, 0))
