"""Lattice points on the hyperboloid Q = -1 and its invariant measures.

A splitting frame fixes an orthogonal decomposition of V x R into a positive
definite plane and a negative definite complement, built from exact rational
vectors (so window membership of lattice points is an exact integer
comparison) and normalized in floating point only where a sector's angle
is measured.  Point counts are exact; the two invariant measures of a
cap have closed forms, and seeded, reproducible Monte Carlo estimates of
them are kept as their oracle.

``count_range`` counts a whole list of norms at once, for any basis, frame
and sector.  A point splits into its parts p in the frame's positive plane P
and y in the complement N, and the count is a theta convolution over the
glue classes of L modulo L & P + L & N.  N splits into the orthogonal
components its reduced Gram shows; one walk of each distinct component's
ellipsoid for the largest norm, by the rows of the Fincke-Pohst search that
every enumerator here shares, fills a dense table of its theta series by
class and norm, and the product of those series, with one short-vector
search on the P side, serves every norm.  ``enumerate_points`` is its
single-norm case.  A depth-first search that can also list the points
(``_count_generic``) and a full box scan (``box_scan_count``) are kept as
the tests' oracles.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from decimal import Decimal, localcontext
from fractions import Fraction
from math import lcm
from operator import mul

import numpy as np

from .exactla import (
    InputError,
    NodeGuardExceeded,
    floor_sqrt_fraction,
    frac_mat_inv,
    hnf,
    hnf_rational,
    kernel_basis,
    lll_reduce_gram,
    mat_mul,
    mat_vec,
    ShortVectorRows,
    short_vectors,
    smith_normal_form,
    transpose,
)
from .densities import _gamma_lift, decimal_of, main_term, sphere_area
from .lattices import IntegerLattice, gram_components, jordan_splitting

SHELL_EPS = 1e-3        # half-thickness of mu_infty's Monte Carlo shell
SWEEP_GUARD = 10 ** 8   # table entries, P-vectors and N-side points of one count_range
GRID_CHUNK = 1 << 15    # points of short-vector rows expanded into arrays at once


class HyperboloidError(ValueError):
    pass


class HyperboloidInputError(HyperboloidError, InputError):
    """A signature not (2, b), rho < 0, n <= 0, or an experiment with nothing to compare."""


class EnumGuardExceeded(HyperboloidError, NodeGuardExceeded):
    pass


# ---------------------------------------------------------------------------
# frames and windows

def unit_sphere_area(dim: int) -> float:
    """Surface area of the unit sphere S^dim in R^(dim+1).

    For dim = b - 1 this is b pi^(b/2) / Gamma(1 + b/2).
    """
    if dim < 0:
        raise ValueError("dimension must be >= 0")
    k = dim + 1
    return 2 * math.pi ** (k / 2) / math.gamma(k / 2)


def unit_ball_volume(dim: int) -> float:
    return math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)


class SplittingFrame:
    """Exact rational orthogonal splitting of V x R, positive plane first.

    positive: two rational vectors with Q > 0; negative: b rational vectors
    with Q < 0; all pairwise orthogonal, which the exact checks on
    construction enforce.
    """

    def __init__(self, lattice: IntegerLattice, positive: tuple[tuple[Fraction, ...], ...],
                 negative: tuple[tuple[Fraction, ...], ...]):
        vecs = list(positive) + list(negative)
        if len(positive) != 2 or len(vecs) != lattice.rank:
            raise HyperboloidError("frame needs 2 positive and b negative vectors")
        for i, v in enumerate(vecs):
            qv = lattice.q_of(v)
            if (qv <= 0) == (i < 2):
                raise HyperboloidError("frame vector has the wrong sign")
            for j in range(i + 1, len(vecs)):
                if lattice.pairing(v, vecs[j]) != 0:
                    raise HyperboloidError("frame vectors are not orthogonal")
        self.lattice = lattice
        self.positive = positive
        self.negative = negative

    def lattice_jacobian(self) -> float:
        """|det| of the frame-to-lattice coordinate change: 2^(r/2)/sqrt|det V|."""
        r = self.lattice.rank
        return 2 ** (r / 2) / math.sqrt(abs(self.lattice.det))

    def pairings(self, vec) -> list[Fraction]:
        """(vec, t1) and (vec, t2) with the positive vectors; exact."""
        return [self.lattice.pairing(vec, t) for t in self.positive]

    def radial_sq(self, vec) -> Fraction:
        """Q of the projection onto the positive plane; exact."""
        return sum((lt * lt / (2 * self.lattice.pairing(t, t))
                    for lt, t in zip(self.pairings(vec), self.positive)), Fraction(0))


def splitting_frame(V: IntegerLattice) -> SplittingFrame:
    """Canonical frame, one orthogonal component of the basis at a time:
    a component U splits as e+f / e-f, any other along the columns of its
    Jordan splitting over Q."""
    sig = V.signature()
    if sig.positive != 2:
        raise HyperboloidInputError("frames are for signature (2, b) lattices, got "
                                    f"({sig.positive},{sig.negative})")
    pos, neg = [], []
    for idx in V.components:
        sub = tuple(tuple(V.gram[i][j] for j in idx) for i in idx)
        if sub == ((0, 1), (1, 0)):
            vecs = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
        else:
            trans, _ = jordan_splitting(sub)
            vecs = list(zip(*trans))
        for vec in vecs:
            full = [Fraction(0)] * V.rank
            for i, x in zip(idx, vec):
                full[i] = x
            q = V.q_of(full)
            (pos if q > 0 else neg).append(tuple(full))
    return SplittingFrame(V, tuple(pos), tuple(neg))


class Window:
    """Radial cap on the hyperboloid: positive-plane radius at most rho.

    The optional sector restricts the angle of the positive-plane projection
    (radians, measured in the normalized frame); sector boundaries are float
    tests and only affect Monte Carlo estimates and sector-filtered counts.
    """

    def __init__(self, frame: SplittingFrame, rho,
                 sector: tuple[float, float] | None = None):
        if rho < 0:
            raise HyperboloidInputError(f"rho must be >= 0, got {rho}")
        self.frame = frame
        self.rho = Fraction(rho)
        self.sector = sector

    @property
    def b(self) -> int:
        return self.frame.lattice.rank - 2

    @property
    def sector_width(self) -> float:
        """Angle swept from the sector's start, in (0, 2 pi]; 2 pi without one."""
        if self.sector is None:
            return 2 * math.pi
        lo, hi = self.sector
        return (hi - lo) % (2 * math.pi) or 2 * math.pi

    def sector_fraction(self) -> float:
        return self.sector_width / (2 * math.pi)


# ---------------------------------------------------------------------------
# invariant measures: closed forms, and Monte Carlo as their oracle

def window_mass(window: Window) -> Decimal:
    """mu_S(window) = s ((rho^2 + 1)^(b/2) - 1), s the sector fraction, in
    decimal at 50 digits: the mass ``densities.main_term`` predicts from.
    On each sheet the chart integrand of ``mu_a0``, averaged over the negative
    directions, is (|S^(b-1)|/2) (|a|^2 + 1)^((b-2)/2) over the disc |a| <= rho,
    so mu_a0 = 2 pi |S^(b-1)| mu_S / b = |S^(b+1)| mu_S."""
    b = window.b
    if b < 2:
        raise HyperboloidError("measures want b >= 2")
    r2 = window.rho ** 2 + 1
    with localcontext() as ctx:
        ctx.prec = 50
        growth = decimal_of(r2 ** (b // 2))
        if b % 2:
            growth *= decimal_of(r2).sqrt()
        return decimal_of(window.sector_fraction()) * (growth - 1)


def _closed_mass(window: Window, scale: float = 1.0) -> float:
    """scale |S^(b+1)| mu_S(window), in decimal at 30 digits, rounded once."""
    with localcontext() as ctx:
        ctx.prec = 30
        return float(sphere_area(window.b + 1) * window_mass(window) * decimal_of(scale))


def mu_a0_closed(window: Window) -> float:
    """mu_a0 of the window in closed form, |S^(b+1)| mu_S(window)."""
    return _closed_mass(window)


def mu_infty_closed(window: Window) -> float:
    """mu_infty of the window in closed form: (J/2) mu_a0, J the lattice
    Jacobian 2^(r/2)/sqrt|det V|."""
    return _closed_mass(window, window.frame.lattice_jacobian() / 2)


def _substream(seed: int, worker: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), worker]))


def _disk_samples(rng, m: int, rho: float, window: Window):
    u = rng.random(m)
    start = window.sector[0] if window.sector is not None else 0.0
    ang = start + rng.random(m) * window.sector_width
    r = rho * np.sqrt(u)
    return r * np.cos(ang), r * np.sin(ang)


def _substream_mean(window: Window, samples: int, seed: int, workers: int,
                    tag: int, integrand):
    """Mean and standard error of integrand(rng, |a|^2 + 1, m) over points a
    drawn uniformly from the window's disc, split over the workers' RNG
    substreams (tag | worker)."""
    rho = float(window.rho)
    sums, sumsqs, n = [], [], 0
    base = samples // workers
    for w in range(workers):
        m = samples - base * (workers - 1) if w == workers - 1 else base
        rng = _substream(seed, tag | w)
        a1, a2 = _disk_samples(rng, m, rho, window)
        vals = integrand(rng, a1 * a1 + a2 * a2 + 1.0, m)
        sums.append(math.fsum(vals))
        sumsqs.append(math.fsum(vals * vals))
        n += m
    mean = math.fsum(sums) / n
    var = max(math.fsum(sumsqs) / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


def mu_a0(window: Window, samples: int, seed: int = 0, workers: int = 1):
    """Monte Carlo mass of the window for the chart-normalized measure.

    Chart coordinates: positive-plane position a, polar angle of the
    negative part; the radial direction is substituted t = T sin(theta)
    (T^2 = |a|^2 + 1), which removes the 1/xi_1 boundary singularity of the
    chart Jacobian.  Returns (value, standard_error).
    """
    b = window.b
    if b < 2:
        raise HyperboloidError("measure estimates want b >= 2")
    rho = float(window.rho)
    if rho == 0 or samples <= 0:
        return 0.0, 0.0
    area = math.pi * rho * rho * window.sector_fraction()
    const = area * (math.pi / 2) * unit_sphere_area(b - 2)

    def integrand(rng, t2, m):
        theta = rng.random(m) * (math.pi / 2)
        return t2 ** ((b - 2) / 2) * np.sin(theta) ** (b - 2)

    mean, se = _substream_mean(window, samples, seed, workers, 0, integrand)
    # both sheets of the hyperboloid carry the cap
    return 2.0 * const * mean, 2.0 * const * se


def mu_infty(window: Window, samples: int, seed: int = 0, workers: int = 1):
    """Thin-shell Lebesgue estimate of the window mass, over 2 SHELL_EPS.

    Lebesgue measure is normalized so the lattice has covolume 1 (the exact
    frame-change determinant).  The shell thickness in the xi_1 direction is
    integrated exactly per sample, which keeps the variance bounded.
    Returns (value, standard_error).
    """
    b = window.b
    if b < 2:
        raise HyperboloidError("measure estimates want b >= 2")
    rho = float(window.rho)
    if rho == 0 or samples <= 0:
        return 0.0, 0.0
    eps = SHELL_EPS
    radius = math.sqrt(rho * rho + 1.0 + eps)
    area = math.pi * rho * rho * window.sector_fraction()
    ball = unit_ball_volume(b - 1) * radius ** (b - 1)
    const = area * ball / (2 * eps)

    def integrand(rng, t2, m):
        # the integrand only sees |c'|: sample the radial law of the
        # uniform distribution on the (b-1)-ball directly
        radii = radius * rng.random(m) ** (1.0 / (b - 1))
        tt = radii * radii
        hi = np.maximum(t2 + eps - tt, 0.0)
        lo = np.maximum(t2 - eps - tt, 0.0)
        return 2.0 * (np.sqrt(hi) - np.sqrt(lo))

    mean, se = _substream_mean(window, samples, seed, workers, 1 << 20, integrand)
    jac = window.frame.lattice_jacobian()
    return jac * const * mean, jac * const * se


# ---------------------------------------------------------------------------
# exact point enumeration

class PointCount(namedtuple("PointCount", "n count grazing points", defaults=(None,))):
    """The count at norm n, of which grazing lie exactly on the cap's
    boundary, and the points as lattice-coordinate tuples when kept."""
    __slots__ = ()


def _majorant_matrix(window: Window):
    """A with M(x) = x^T A x / 2 = 2 * radial^2 - Q(x); positive definite."""
    L = window.frame.lattice
    r = L.rank
    g = [[Fraction(L.gram[i][j]) for j in range(r)] for i in range(r)]
    a = [[-g[i][j] for j in range(r)] for i in range(r)]
    for t in window.frame.positive:
        gt = [sum(g[i][j] * t[j] for j in range(r)) for i in range(r)]
        tt = L.pairing(t, t)
        for i in range(r):
            for j in range(r):
                a[i][j] += 2 * gt[i] * gt[j] / tt
    return a


def enumerate_points(gamma, n, window: Window) -> PointCount:
    """Exact count of lambda in gamma+V with Q(lambda) = -n inside the cap.

    The single-norm case of ``count_range``.  Boundary points (radius
    exactly rho sqrt(n)) are included in the count and reported separately.
    """
    return count_range(gamma, [n], window)[0]


def count_range(gamma, ns, window: Window) -> tuple[PointCount, ...]:
    """One exact count per n in ns, in order, of lambda in gamma+V with
    Q(lambda) = -n inside the cap.

    Any basis, frame and sector: the counts are a theta convolution over the
    glue classes of the frame's plane P and its complement N (``_count_glued``),
    from one walk of each distinct orthogonal component of N for the largest
    norm.  Norms outside -Q(gamma) + Z count 0.
    """
    if window.b < 1:
        raise HyperboloidInputError("point counts want signature (2, b) with b >= 1, "
                                    f"got (2,{window.b})")
    ns = [Fraction(n) for n in ns]
    if any(n <= 0 for n in ns):
        raise HyperboloidInputError("point enumeration wants n > 0")
    L = window.frame.lattice
    lift = _gamma_lift(L, gamma)
    q = L.q_of(lift)
    support = [n for n in ns if (q + n).denominator == 1]
    found = dict(zip(support, _count_glued(lift, support, window))) if support else {}
    return tuple(PointCount(n, *found.get(n, (0, 0))) for n in ns)


def _gram_of(rows, g):
    return mat_mul(mat_mul(rows, g), transpose(rows))


def _class_index(parts, d):
    """The index in [0, prod d) of the class with coordinates parts mod d."""
    out, radix = 0, 1
    for part, dk in zip(parts, d):
        out = out + part % dk * radix
        radix *= dk
    return out


def _count_glued(lift, ns, window: Window):
    """(count, grazing) for every n in ns, all in the coset support.

    x in lift + L splits as p + y, p in the plane P of t1, t2 and y in its
    complement N.  p runs over proj_P(lift + L), and the y that go with one
    p form one class of proj_N(lift + L) modulo N, fixed by p.  So

        count(n) = sum over p with Q(p) <= rho^2 n of theta_N[class(p), n + Q(p)],

    theta_N counting the y of a class by -Q(y), and the grazing points are
    the terms with Q(p) = rho^2 n: the theta series of a glued lattice as a
    sum over glue classes (Conway & Sloane, ch. 4).  N is split into the
    orthogonal components N_i that its LLL-reduced Gram shows.  A class of
    M = proj_N(lift + L) modulo N is a tuple of classes of the M_i =
    proj_{N_i}(M) modulo N_i, so theta_N of a class is the product of the
    components' series (``_convolve``), and each component's series comes
    from one walk of its own ellipsoid up to (1 + rho^2) max(ns)
    (``_theta_table``); equal components share one walk.  The P side is the
    points of one short-vector search up to rho^2 max(ns), filtered by the
    exact sector test; ``_row_points`` expands its rows as it expands the
    components', with the identity map.  A norm is then one gather from
    the glued table.  SWEEP_GUARD bounds the table entries, P-vectors and
    N_i points together, each read before its array is built.
    """
    L = window.frame.lattice
    g = L.gram
    rho2 = window.rho * window.rho
    n_lo, n_hi = min(ns), max(ns)
    width = math.floor((1 + rho2) * n_hi) + 1
    spent = 0

    def spend(k):
        nonlocal spent
        spent += k
        if spent > SWEEP_GUARD:
            raise EnumGuardExceeded(f"count of at least {spent} points and table entries "
                                    f"exceeds guard {SWEEP_GUARD}")

    def orthogonal_to(vecs):
        rows = [mat_vec(g, v) for v in vecs]
        return hnf(kernel_basis([[int(x * lcm(*(y.denominator for y in row)))
                                  for x in row] for row in rows]))

    # P = L & span(t1, t2) and N = L & P^perp, N in the LLL-reduced basis
    # whose Gram -gn shows its orthogonal components, ordered by them; in
    # the coordinates of the basis [P; N], h spans L (its first two rows
    # proj_P(L), the others N itself) and c is the lift, taken in [0, 1)^r,
    # which keeps the coordinates below small
    bp, bn = orthogonal_to(window.frame.negative), orthogonal_to(window.frame.positive)
    u, gn = lll_reduce_gram([[-x for x in row] for row in _gram_of(bn, g)])
    comps = gram_components(gn)
    bn = [mat_vec(transpose(bn), u[i]) for comp in comps for i in comp]
    binv = frac_mat_inv(bp + bn)
    h = hnf_rational(binv)
    c = mat_vec(transpose(binv), [x % 1 for x in lift])

    # N_i side: M_i = proj_{N_i}(L) has the basis mb; the rows of nb = mb^-1
    # are N_i in mb coordinates, and with U nb V = D in Smith form a row z
    # has the class z V mod D in M_i/N_i, read on the factors above 1.  The
    # y_i = (z + c_i nb) mb with -2 Q(y_i) <= 2 (1 + rho^2) n_hi are walked,
    # and the P-vector k has its y_i in the class of k f_i nb, f_i the N_i
    # parts of h's first two rows
    walks, parts = {}, []
    col = 2
    for comp in comps:
        cols = slice(col, col + len(comp))
        col += len(comp)
        mb = hnf_rational([row[cols] for row in h])
        nb = [[int(x) for x in row] for row in frac_mat_inv(mb)]
        dmat, _, vs = smith_normal_form(nb)
        dmod = tuple(dmat[k][k] for k in range(len(comp)) if dmat[k][k] > 1)
        cmap = tuple(tuple(x % dmat[k][k] for k, x in enumerate(row) if dmat[k][k] > 1)
                     for row in vs)
        a = _gram_of(mb, [[gn[i][j] for j in comp] for i in comp])
        shift = mat_vec(transpose(nb), c[cols])
        key = (tuple(map(tuple, a)), tuple(shift), cmap, dmod)
        if key not in walks:
            walks[key] = ShortVectorRows(a, 2 * (1 + rho2) * n_hi, shift)
        fc = mat_mul(mat_mul([row[cols] for row in h[:2]], nb), cmap)
        parts.append((key, [[int(x) % dk for x, dk in zip(row, dmod)] for row in fc], dmod))

    # P side: k in Z^2 gives p = (k + sp) hp, of value 2 Q(p) = v / scale
    # along the rows of its search
    hp = [row[:2] for row in h[:2]]
    sp = mat_vec(transpose(frac_mat_inv(hp)), c[:2])
    p_rows = ShortVectorRows(_gram_of(hp, _gram_of(bp, g)), 2 * rho2 * n_hi, sp)
    two_s = 2 * p_rows.scale
    dmax = max((dk for *_, dmod in parts for dk in dmod), default=1)
    if max(width, p_rows.top, (p_rows.top + two_s * n_hi) * n_lo.denominator,
           *(rows.top for rows in walks.values()), (L.rank + 1) * dmax ** 2) >= 1 << 63:
        raise EnumGuardExceeded("glued table indices would overflow int64")
    # the component tables' slots are known before any walk
    spend(width * sum(math.prod(dmod) for *_, dmod in walks))

    v, k0, k1 = np.concatenate([np.zeros((3, 0), dtype=np.int64),
                                *(np.vstack((v, *y)) for v, y in
                                  _row_points(p_rows, ((1, 0), (0, 1)), spend))], axis=1)
    if window.sector is not None:
        # (x, t_i) = (p, t_i) = (k + sp) m_i, m = hp bp G (t1 t2): a rational
        # 2 x 2 map of k, formed on the integers kk = dp (k + sp) and dm m
        in_sector = _sector_test(window)
        m = mat_mul(mat_mul(hp, bp), transpose([mat_vec(g, t) for t in window.frame.positive]))
        dp = lcm(*(x.denominator for x in sp), 1)
        sp0, sp1 = (int(x * dp) for x in sp)
        dm = lcm(*(x.denominator for row in m for x in row), 1)
        (m00, m01), (m10, m11) = ([int(x * dm) for x in row] for row in m)
        keep = np.array([in_sector(Fraction(x * m00 + y * m10, dp * dm),
                                   Fraction(x * m01 + y * m11, dp * dm))
                         for x, y in zip((dp * k0 + sp0).tolist(), (dp * k1 + sp1).tolist())],
                        dtype=bool)
        v, k0, k1 = v[keep], k0[keep], k1[keep]
    if not len(v):
        return [(0, 0)] * len(ns)
    order = np.argsort(v, kind="stable")
    v, k0, k1 = v[order], k0[order], k1[order]
    # tid numbers the tuples of component classes that the P-vectors meet,
    # and tuples[j][t] is the class in N_j of tuple t; the largest Smith
    # factor of a component is a multiple of its others
    tid, cids = np.zeros(len(v), dtype=np.int64), []
    for _, fc, dmod in parts:
        x0, x1 = k0 % max(dmod, default=1), k1 % max(dmod, default=1)
        cids.append(np.broadcast_to(_class_index((x0 * f0 + x1 * f1 for f0, f1 in zip(*fc)),
                                                 dmod), v.shape))
        _, first, tid = np.unique(tid * math.prod(dmod) + cids[-1], return_index=True,
                                  return_inverse=True)
    tid = tid.reshape(-1)
    tuples = [cid[first].tolist() for cid in cids]
    spend(len(first) * width)

    tables = {}
    for key, rows in walks.items():
        *_, cmap, dmod = key
        tables[key] = _theta_table(rows, cmap, dmod, width, spend)
    # theta_N of a class, indexed by floor(-Q(y)) = sum_i m_i + floor(sum_i F_i)
    # with -Q(y_i) = m_i + F_i; its sums are bounded before any is formed
    rows_of = [[(tables[key][0][cid], Fraction(int(tables[key][1][cid]), 2 * walks[key].scale))
                for cid in col] for col, (key, *_) in zip(tuples, parts)]
    uses = np.bincount(tid, minlength=len(first)).tolist()
    totals = [[int(row.sum()) for row, _ in col] for col in rows_of]
    if sum(k * math.prod(col[t] for col in totals) for t, k in enumerate(uses)) >= 1 << 63:
        raise EnumGuardExceeded("glued theta sums would overflow int64")
    glued = np.zeros((len(first), width), dtype=np.int64)
    for t in range(len(first)):
        factors = sorted((col[t] for col in rows_of), key=lambda f: np.count_nonzero(f[0]))
        prod = np.zeros(width, dtype=np.int64)
        prod[0] = 1
        for row, _ in factors:
            prod = _convolve(prod, row)
        carry = math.floor(sum((frac for _, frac in factors), Fraction(0)))
        glued[t, carry:] = prod[:max(width - carry, 0)]
    glued = glued.reshape(-1)

    # P-vector p reads theta_N[class(p), floor(n + Q(p))]
    num, den = n_lo.numerator, n_lo.denominator
    base = tid * width + (v * den + two_s * num) // (two_s * den)
    out = []
    for n in ns:
        rim = two_s * rho2 * n
        top = np.searchsorted(v, rim.numerator // rim.denominator, "right")
        graze = np.searchsorted(v, -(-rim.numerator // rim.denominator), "left")
        hits = glued[base[:top] + int(n - n_lo)]
        out.append((int(hits.sum()), int(hits[graze:].sum())))
    return out


def _convolve(x, y):
    """The product of two nonnegative series, truncated to their common
    length: one slice-add per nonzero entry of the sparser factor."""
    nx, ny = np.flatnonzero(x), np.flatnonzero(y)
    if len(nx) > len(ny):
        x, y, nx = y, x, ny
    out = np.zeros_like(y)
    w = len(y)
    for i in nx.tolist():
        out[i:] += x[i] * y[:w - i]
    return out


def _row_points(rows, m, spend, mod=0):
    """The points z = prefix + k step, lo <= k <= hi, of the rows of a
    ``ShortVectorRows`` walk as int64 arrays, as the walk goes: yields (v, y)
    for GRID_CHUNK points, or that plus one row, at a time, v the scaled
    values offset + d0 (e k - centre)^2 and y the images z m, one array per
    column of m, or, given ``mod``, images congruent to them mod it, formed
    from small residues.  Each row is counted by ``spend`` and recorded once,
    with its length, offset, e lo - centre and the image of its first point."""
    red = (lambda x: x % mod) if mod else int
    # each column of m with the image of step under it
    cols = [(col, red(sum(map(mul, rows.step, col)))) for col in zip(*m)]
    e, ncols = rows.e, 3 + len(cols)

    def expand(rec):
        rec = np.frombuffer(rec, dtype=np.int64).reshape(-1, ncols).T
        r = np.repeat(np.arange(len(rec[0])), rec[0])
        i = np.arange(len(r), dtype=np.int64) - (np.cumsum(rec[0]) - rec[0])[r]
        v = e * i + rec[2][r]
        v *= v
        v *= rows.d0
        v += rec[1][r]
        return v, [y0[r] + i * s for y0, (_, s) in zip(rec[3:], cols)]

    rec, pending = array("q"), 0
    for prefix, lo, hi, offset, centre in rows:
        spend(hi - lo + 1)
        rec.extend((hi - lo + 1, offset, e * lo - centre))
        for col, s in cols:
            rec.append(red(sum(map(mul, prefix, col)) + lo * s))
        pending += hi - lo + 1
        if pending >= GRID_CHUNK:
            yield expand(rec)
            rec, pending = array("q"), 0
    if pending:
        yield expand(rec)


def _theta_table(rows, cmap, dmod, width, spend):
    """The class-wise theta series of one component of N, from one walk.

    rows walks the z with (z + shift) a (z + shift)^T = -2 Q(y) <= top /
    scale; z has the class z cmap mod dmod.  Returns (table, frac): table
    [cid, m] counts the z of class cid with floor(-Q(y)) = m < width, and
    -Q(y) = m + frac[cid] / (2 scale) on the class, whose fractional part
    is fixed since N is even.  ``_row_points`` gives the classes mod the
    largest Smith factor, a multiple of the others.
    """
    classes = math.prod(dmod)
    table = np.zeros(classes * width, dtype=np.int64)
    frac = np.zeros(classes, dtype=np.int64)
    two_s = 2 * rows.scale
    for v, y in _row_points(rows, cmap, spend, max(dmod, default=1)):
        cid = np.broadcast_to(_class_index(y, dmod), v.shape)
        np.add.at(table, cid * width + v // two_s, 1)
        frac[cid] = v % two_s
    return table.reshape(classes, width), frac


def _count_generic(lift, n: Fraction, window: Window, keep_points: bool,
                   guard: int):
    # on Q(x) = -n the majorant M = 2 radial^2 - Q gives radial^2 = (M-n)/2:
    # the cap is exactly M <= mmax and its rim M = mmax, so only Q is tested
    mmax = (2 * window.rho * window.rho + 1) * n
    bound = 2 * mmax  # M(x) = x^T A x / 2 <= mmax
    # dl * (z + lift) is integral, and there Q = -n reads 2 dl^2 Q = target
    dl = lcm(*(x.denominator for x in lift), 1)
    base = [int(x * dl) for x in lift]
    target = int(-2 * n * dl * dl)
    g = window.frame.lattice.gram
    counted = 0
    grazing = 0
    points = [] if keep_points else None
    in_sector = _sector_test(window) if window.sector is not None else None
    for z, value in short_vectors(_majorant_matrix(window), bound, lift, guard):
        x = [dl * zi + bi for zi, bi in zip(z, base)]
        if sum(xi * sum(gij * xj for gij, xj in zip(gi, x))
               for xi, gi in zip(x, g)) != target:
            continue
        if window.sector is not None or points is not None:
            vec = tuple(Fraction(xi, dl) for xi in x)
            if in_sector and not in_sector(*window.frame.pairings(vec)):
                continue
            if points is not None:
                points.append(vec)
        counted += 1
        if value == bound:
            grazing += 1
    return PointCount(n, counted, grazing,
                      tuple(points) if points is not None else None)


def _sector_test(window: Window):
    """The sector test as a function of the exact pairings (x, t1), (x, t2):
    the angle of x's positive-plane part in the normalized frame.  Every
    counter hands it exact values, so all take the same float steps."""
    L = window.frame.lattice
    s1, s2 = (math.sqrt(float(2 * L.pairing(t, t))) for t in window.frame.positive)

    def in_sector(l1, l2) -> bool:
        ang = math.atan2(float(l2) / s2, float(l1) / s1) % (2 * math.pi)
        return (ang - window.sector[0]) % (2 * math.pi) <= window.sector_width

    return in_sector


def box_scan_count(gamma, n, window: Window, guard: int = 10 ** 7,
                   keep_points: bool = False) -> PointCount:
    """Independent oracle: scan the full coordinate box and filter exactly.

    No pruning beyond the bounding box; all comparisons are scaled to
    integers, so the filter is exact.  Meant for cross-checking the real
    enumerators at small n.
    """
    n = Fraction(n)
    L = window.frame.lattice
    r = L.rank
    lift = _gamma_lift(L, gamma)
    dl = lcm(*(x.denominator for x in lift), 1)
    a = _majorant_matrix(window)
    ainv = frac_mat_inv(a)
    mmax = (2 * window.rho * window.rho + 1) * n
    rho2n = window.rho * window.rho * n
    ranges = []
    size = 1
    for k in range(r):
        rad = floor_sqrt_fraction(2 * mmax * ainv[k][k]) + 1
        lo, hi = math.ceil(-lift[k] - rad), math.floor(rad - lift[k])
        ranges.append(np.arange(lo, hi + 1, dtype=np.int64))
        size *= len(ranges[-1])
    if size > guard or size == 0:
        raise EnumGuardExceeded(f"box of {size} nodes exceeds guard {guard}")
    grids = np.meshgrid(*ranges, indexing="ij")
    # scaled coordinates: dl * (z + lift), all integers; the cheap vectorized
    # filter is the quadric equation, the few survivors get exact window tests
    coords = np.stack([g.ravel() * dl + int(lift[k] * dl)
                       for k, g in enumerate(grids)], axis=1)
    g_int = np.array(L.gram, dtype=np.int64)
    qv2 = np.einsum("ki,ij,kj->k", coords, g_int, coords)  # 2 dl^2 Q(vec)
    coords = coords[qv2 == int(-2 * n * dl * dl)]
    count = grazing = 0
    points = []
    in_sector = _sector_test(window) if window.sector is not None else None
    for row in coords:
        vec = tuple(Fraction(int(x), dl) for x in row)
        rad = window.frame.radial_sq(vec)
        if rad > rho2n:
            continue
        if in_sector and not in_sector(*window.frame.pairings(vec)):
            continue
        count += 1
        if rad == rho2n:
            grazing += 1
        if keep_points:
            points.append(vec)
    return PointCount(n, count, grazing, tuple(points) if keep_points else None)


# ---------------------------------------------------------------------------
# the equidistribution experiment

class CountReport(namedtuple("CountReport", "n empirical predicted ratio mu_infty_value "
                                          "series_value prime_bound grazing")):
    __slots__ = ()


class ExperimentSummary(namedtuple("ExperimentSummary", "reports skipped mean_ratio "
                                                        "first_half_mean second_half_mean "
                                                        "mu_infty mu_infty_mc")):
    """The reports of the counted norms and the skipped ones.  mean_ratio is
    None when every norm is skipped, a half's mean None when the half is
    empty; mu_infty is the closed form and mu_infty_mc the Monte Carlo
    (estimate, standard error), when run."""
    __slots__ = ()


def admissible_values(V: IntegerLattice, gamma, lo, hi):
    """Values n in -Q(gamma)+Z inside [lo, hi]."""
    frac = -V.q_of(_gamma_lift(V, gamma)) % 1
    first = frac + math.ceil(Fraction(lo) - frac)
    return [first + k for k in range(max(0, math.floor(Fraction(hi) - first) + 1))]


def equidistribution_run(V: IntegerLattice, gamma, window: Window,
                         n_lo, n_hi, prime_bound: int = 100,
                         samples: int = 0, seed: int = 0,
                         workers: int = 1) -> ExperimentSummary:
    """Empirical vs predicted counts over a range of admissible n.

    predicted(n) = main_term(V, gamma, n, window_mass(window)), which is
    mu_infty_closed(window) * n^(b/2) * truncated singular series: an n whose
    product is 0 is not locally representable and is skipped with a note.
    With samples > 0 the Monte Carlo estimate of mu_infty is run from the
    seed as a cross-check and carried in the summary; it enters no
    prediction.  Counts are exact, all from one ``count_range`` call.
    """
    if V.rank < 5:
        raise HyperboloidInputError("the experiment wants signature (2, b) with b >= 3, "
                                    f"got rank {V.rank}")
    lift = _gamma_lift(V, gamma)
    norms = admissible_values(V, lift, n_lo, n_hi)
    if not norms:
        raise HyperboloidInputError(f"no n in [{n_lo}, {n_hi}] lies in -Q(gamma) + Z = "
                                    f"{-V.q_of(lift) % 1} + Z")
    if window.rho == 0:
        raise HyperboloidInputError("the experiment wants rho > 0: a cap of radius 0 predicts 0")
    if norms[0] <= 0:
        raise HyperboloidInputError(f"the norm n must be > 0, got {norms[0]}")
    mu_val = mu_infty_closed(window)
    mc = mu_infty(window, samples, seed=seed, workers=workers) if samples > 0 else None
    mass = window_mass(window)
    predictions, skipped = {}, []
    for n in norms:
        term = main_term(V, lift, n, mass, prime_bound)
        if term.representable:
            # two numbers per norm: holding each series costs ~9 kB
            predictions[n] = float(term), term.series.truncated_product
        else:
            skipped.append((n, "not locally representable"))
    reports = []
    for pc in count_range(lift, list(predictions), window):
        predicted, product = predictions[pc.n]
        ratio = pc.count / predicted if predicted else math.inf
        reports.append(CountReport(pc.n, pc.count, predicted, ratio, mu_val,
                                   product, prime_bound, pc.grazing))
    ratios = [r.ratio for r in reports]
    mean = sum(ratios) / len(ratios) if ratios else None
    half = len(ratios) // 2
    first = sum(ratios[:half]) / half if half else None
    second = sum(ratios[half:]) / (len(ratios) - half) if len(ratios) - half else None
    return ExperimentSummary(tuple(reports), tuple(skipped), mean, first,
                             second, mu_val, mc)
