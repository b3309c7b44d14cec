"""Lattice points on the hyperboloid Q = -1 and its invariant measures.

A splitting frame fixes an orthogonal decomposition of V x R into a positive
definite plane and a negative definite complement, built from exact rational
vectors (so window membership of lattice points is an exact integer
comparison) and normalized in floating point only for the Monte Carlo
measure estimates.  Point counts are exact; the two invariant measures of a
cap have closed forms, and seeded, reproducible Monte Carlo estimates of
them are kept as their oracle.

``count_range`` counts a whole list of norms at once.  When the basis shows
an orthogonal summand U (``IntegerLattice.hyperbolic_split``) it builds one
(tau, |u|) histogram over the lattice box of the largest norm, since the box
does not depend on n and tau moves with n only by a shift; otherwise it runs
the depth-first search once per norm.  ``enumerate_points`` is its
single-norm case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

import numpy as np

from .exactla import (
    NodeGuardExceeded,
    floor_sqrt_fraction,
    frac_mat_inv,
    int_range_of_quadratic,
    rational_congruent_diagonal,
    short_vectors,
)
from .densities import _gamma_lift, in_coset_support, is_representable, singular_series
from .lattices import IntegerLattice

FRAME_TOLERANCE = 1e-10
ENUM_NODE_GUARD = 10 ** 9
GRID_GUARD = 10 ** 8
GRID_CHUNK = 1 << 17   # kappa grid points built at once by the fast path


class HyperboloidError(ValueError):
    pass


class EnumGuardExceeded(HyperboloidError):
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


@dataclass(frozen=True)
class SplittingFrame:
    """Exact rational orthogonal splitting of V x R, positive plane first.

    positive: two rational vectors with Q > 0; negative: b rational vectors
    with Q < 0; all pairwise orthogonal.  The float frame (vectors scaled to
    Q = +-1) is only used for Monte Carlo sampling.
    """

    lattice: IntegerLattice
    positive: tuple[tuple[Fraction, ...], ...]
    negative: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        L = self.lattice
        vecs = list(self.positive) + list(self.negative)
        if len(self.positive) != 2 or len(vecs) != L.rank:
            raise HyperboloidError("frame needs 2 positive and b negative vectors")
        for i, v in enumerate(vecs):
            qv = L.q_of(v)
            if (qv <= 0) == (i < 2):
                raise HyperboloidError("frame vector has the wrong sign")
            for j in range(i + 1, len(vecs)):
                if L.pairing(v, vecs[j]) != 0:
                    raise HyperboloidError("frame vectors are not orthogonal")
        m = self.float_frame()
        g = np.array(L.gram, dtype=float)
        gram = m.T @ g @ m / 2
        target = np.diag([1.0, 1.0] + [-1.0] * (L.rank - 2))
        if np.abs(gram - target).max() > FRAME_TOLERANCE:
            raise HyperboloidError("normalized frame fails the Gram check")

    def float_frame(self) -> np.ndarray:
        """Columns are the frame vectors scaled so Q = +-1, lattice coordinates."""
        L = self.lattice
        cols = []
        for v in list(self.positive) + list(self.negative):
            qv = abs(L.q_of(v))
            cols.append([float(x) / math.sqrt(qv) for x in v])
        return np.array(cols, dtype=float).T

    def lattice_jacobian(self) -> float:
        """|det| of the frame-to-lattice coordinate change: 2^(r/2)/sqrt|det V|."""
        r = self.lattice.rank
        return 2 ** (r / 2) / math.sqrt(abs(self.lattice.det))

    def radial_sq(self, vec) -> Fraction:
        """Q of the projection onto the positive plane; exact."""
        L = self.lattice
        out = Fraction(0)
        for t in self.positive:
            lt = L.pairing(vec, t)
            out += lt * lt / (2 * L.pairing(t, t))
        return out


def splitting_frame(V: IntegerLattice) -> SplittingFrame:
    """Canonical frame, one orthogonal component of the basis at a time:
    a component U splits as e+f / e-f, any other by exact symmetric
    diagonalization."""
    sig = V.signature()
    if sig.positive != 2:
        raise HyperboloidError("frames are for signature (2, b) lattices")
    pos, neg = [], []
    for idx in V.components:
        sub = [[Fraction(V.gram[i][j]) for j in idx] for i in idx]
        if sub == [[0, 1], [1, 0]]:
            vecs = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
        else:
            t, diag = rational_congruent_diagonal(sub)
            vecs = [[t[i][k] for i in range(len(idx))] for k in range(len(idx))]
        for vec in vecs:
            full = [Fraction(0)] * V.rank
            for i, x in zip(idx, vec):
                full[i] = x
            q = V.q_of(full)
            (pos if q > 0 else neg).append(tuple(full))
    return SplittingFrame(V, tuple(pos), tuple(neg))


@dataclass(frozen=True)
class Window:
    """Radial cap on the hyperboloid: positive-plane radius at most rho.

    The optional sector restricts the angle of the positive-plane projection
    (radians, measured in the normalized frame); sector boundaries are float
    tests and only affect Monte Carlo estimates and sector-filtered counts.
    """

    frame: SplittingFrame
    rho: Fraction
    sector: tuple[float, float] | None = None

    def __post_init__(self):
        if self.rho < 0:
            raise HyperboloidError("rho must be >= 0")
        object.__setattr__(self, "rho", Fraction(self.rho))

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

def _closed_mass(window: Window, scale: float = 1.0) -> float:
    """scale * 2 pi s |S^(b-1)| ((rho^2 + 1)^(b/2) - 1) / b, evaluated in
    mpmath at 30 digits and rounded once."""
    import mpmath   # only the closed forms need it; count loads it here

    b = window.b
    if b < 2:
        raise HyperboloidError("measures want b >= 2")
    with mpmath.workdps(30):
        half_b = mpmath.mpf(b) / 2
        sphere = 2 * mpmath.pi ** half_b / mpmath.gamma(half_b)
        rho = mpmath.mpf(window.rho.numerator) / window.rho.denominator
        mass = (2 * mpmath.pi * mpmath.mpf(window.sector_fraction()) * sphere
                * ((rho * rho + 1) ** half_b - 1) / b)
        return float(mass * mpmath.mpf(scale))


def mu_a0_closed(window: Window) -> float:
    """mu_a0 of the window in closed form.

    Averaged over the negative directions, the chart integrand of ``mu_a0``
    on each sheet is (|S^(b-1)|/2) (|a|^2 + 1)^((b-2)/2) over the disc
    |a| <= rho, so the mass is 2 pi s |S^(b-1)| ((rho^2 + 1)^(b/2) - 1) / b,
    s the sector fraction.
    """
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


def mu_infty(window: Window, samples: int, eps_shell: float = 1e-3,
             seed: int = 0, workers: int = 1):
    """Thin-shell Lebesgue estimate of the window mass, over 2 eps.

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
    eps = float(eps_shell)
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

@dataclass(frozen=True)
class PointCount:
    n: Fraction
    count: int
    grazing: int                      # points exactly on the cap boundary
    points: tuple | None = None       # lattice-coordinate tuples when kept


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


def _fast_split_data(window: Window):
    """Preconditions for the histogram fast path; None when unavailable."""
    L = window.frame.lattice
    split = L.hyperbolic_split
    if split is None:
        return None
    i, j = split
    t1, t2 = window.frame.positive
    r = L.rank
    want_t1 = [Fraction(0)] * r
    want_t1[i], want_t1[j] = Fraction(1), Fraction(1)
    if list(t1) != want_t1:
        return None
    if t2[i] != 0 or t2[j] != 0:
        return None
    for k in (i, j):
        unit = [Fraction(0)] * r
        unit[k] = Fraction(1)
        if L.pairing(unit, t2) != 0:
            return None
    if window.sector is not None:
        return None
    return (i, j, t2)


def enumerate_points(gamma, n, window: Window, keep_points: bool = False,
                     guard: int = ENUM_NODE_GUARD) -> PointCount:
    """Exact count of lambda in gamma+V with Q(lambda) = -n inside the cap.

    The single-norm case of ``count_range``.  Kept points come from the
    depth-first search.  Boundary points (radius exactly rho sqrt(n)) are
    included in the count and reported separately.
    """
    if not keep_points:
        return count_range(gamma, [n], window, guard)[0]
    n = Fraction(n)
    if n <= 0:
        raise HyperboloidError("point enumeration wants n > 0")
    L = window.frame.lattice
    lift = _gamma_lift(L, gamma)
    if not in_coset_support(lift, n, L):
        return PointCount(n, 0, 0, ())
    return _count_generic(lift, n, window, True, guard)


def count_range(gamma, ns, window: Window,
                guard: int = ENUM_NODE_GUARD) -> tuple[PointCount, ...]:
    """One exact count per n in ns, in order, of lambda in gamma+V with
    Q(lambda) = -n inside the cap.

    A lattice whose basis shows an orthogonal U, with a compatible frame
    (and no sector), uses the factorization counter: one (tau, |u|)
    histogram over the kappa box of max(ns) answers every norm.  Otherwise an exact depth-first
    search over the positive majorant 2*radial^2 - Q runs once per norm, with
    a node guard.  Norms outside -Q(gamma) + Z count 0.
    """
    ns = [Fraction(n) for n in ns]
    if any(n <= 0 for n in ns):
        raise HyperboloidError("point enumeration wants n > 0")
    L = window.frame.lattice
    lift = _gamma_lift(L, gamma)
    support = [n for n in ns if in_coset_support(lift, n, L)]
    fast = _fast_split_data(window) if support else None
    if fast is not None:
        found = {n: PointCount(n, count, grazing) for n, (count, grazing)
                 in zip(support, _count_fast(lift, support, window, fast))}
    else:
        found = {n: _count_generic(lift, n, window, False, guard)
                 for n in support}
    return tuple(found.get(n, PointCount(n, 0, 0)) for n in ns)


def _count_fast(lift, ns, window: Window, fast):
    """(count, grazing) for every n in ns, all in the coset support.

    A point is (x, y, kappa) with kappa in the complement K of the hyperbolic
    plane and x y = t = tau(kappa) + t0(n), t0(n) = -(n + q0).  The kappa box
    and |u| do not depend on n, so one (tau, |u|) histogram over the box of
    max(ns) serves every norm; the exact window tests then run per norm.
    """
    L = window.frame.lattice
    i, j, t2 = fast
    r = L.rank
    rest = [k for k in range(r) if k not in (i, j)]
    # move the hyperbolic components of the lift into the lattice
    if lift[i].denominator != 1 or lift[j].denominator != 1:
        raise HyperboloidError("dual vector has fractional hyperbolic part")
    g_k = [Fraction(lift[k]) for k in rest]
    gk_gram = [[L.gram[a][b] for b in rest] for a in rest]
    gk = np.array(gk_gram, dtype=np.int64)
    # integer data: Q_K(kappa + g) = Q_K(kappa) + kappa.wk + q0
    wk_frac = [sum(Fraction(gk_gram[a][b]) * g_k[b] for b in range(len(rest)))
               for a in range(len(rest))]
    if any(x.denominator != 1 for x in wk_frac):
        raise HyperboloidError("gamma is not in the dual lattice")
    wk = np.array([int(x) for x in wk_frac], dtype=np.int64)
    q0 = sum(Fraction(gk_gram[a][b]) * g_k[a] * g_k[b]
             for a in range(len(rest)) for b in range(len(rest))) / 2
    t0s = [-(n + q0) for n in ns]
    if any(t0.denominator != 1 for t0 in t0s):
        raise HyperboloidError("n is not in the coset support")
    t0s = [int(t0) for t0 in t0s]

    # u(kappa) = (kappa + g_k, t2), scaled to integers
    t2_rest = [t2[k] for k in rest]
    gt2 = [sum(Fraction(gk_gram[a][b]) * t2_rest[b] for b in range(len(rest)))
           for a in range(len(rest))]
    shift_f = sum(gt2[a] * g_k[a] for a in range(len(rest)))
    du = lcm(shift_f.denominator, *(x.denominator for x in gt2), 1)
    u_coef = np.array([int(x * du) for x in gt2], dtype=np.int64)
    u_shift = int(shift_f * du)

    # window: s^2/4 + u^2/(2 T2 du^2) <= rho^2 n
    t2t2 = L.pairing(t2, t2)
    rho2 = window.rho * window.rho
    c1_f = Fraction(1, 4)
    c2_f = Fraction(1, 2 * t2t2 * du * du)
    n_top = max(ns)

    # kappa box from the majorant restricted to the complement block
    mk = [[Fraction(-gk_gram[a][b]) for b in range(len(rest))]
          for a in range(len(rest))]
    for a in range(len(rest)):
        for b in range(len(rest)):
            mk[a][b] += 2 * gt2[a] * gt2[b] / Fraction(t2t2)
    mmax = (2 * rho2 + 1) * n_top
    mk_inv = frac_mat_inv(mk)
    ranges = []
    size = 1
    for a in range(len(rest)):
        rad = floor_sqrt_fraction(2 * mmax * mk_inv[a][a])
        lo, hi = int_range_of_quadratic(-g_k[a], Fraction((rad + 1) ** 2))
        ranges.append(np.arange(lo, hi + 1, dtype=np.int64))
        size *= len(ranges[-1])
    if size > GRID_GUARD:
        raise EnumGuardExceeded(f"fast-path grid of {size} nodes exceeds guard")
    if size == 0:
        return [(0, 0)] * len(ns)

    # 2D histogram over (tau, |u|), built in chunks along the first axis.
    # xy = t <= (s/2)^2 caps t at every norm; t_cap(n) - t0(n) grows with n,
    # so the cap of the largest norm caps tau.  No window test of the range
    # accepts |u| >= uw.
    def t_cap(n):
        return floor_sqrt_fraction(4 * rho2 * n) ** 2 // 4 + 1

    tau_hi = t_cap(n_top) + int(n_top + q0)
    uw = floor_sqrt_fraction(rho2 * n_top / c2_f) + 1
    step = max(GRID_CHUNK * len(ranges[0]) // size, 1)
    keys = []
    for start in range(0, len(ranges[0]), step):
        grids = np.meshgrid(ranges[0][start:start + step], *ranges[1:],
                            indexing="ij")
        kappa = np.stack([g.ravel() for g in grids], axis=1)
        tau = -(((kappa @ gk) * kappa).sum(axis=1) // 2) - kappa @ wk
        u_vals = np.abs(kappa @ u_coef + u_shift)
        keep = (tau <= tau_hi) & (u_vals < uw)
        # rows count down from tau_hi: the lowest tau is known only at the end
        keys.append((tau_hi - tau[keep]) * uw + u_vals[keep])
    keys = np.concatenate(keys)
    if len(keys) == 0:
        return [(0, 0)] * len(ns)
    tw = int(keys.max()) // uw + 1
    hist = np.bincount(keys, minlength=tw * uw).reshape(tw, uw)[::-1]
    cum = hist.cumsum(axis=1)
    tau_lo = tau_hi - tw + 1

    out = []
    for n, t0 in zip(ns, t0s):
        rho2n = rho2 * n
        scale = lcm(c1_f.denominator, c2_f.denominator, rho2n.denominator)
        c1 = int(c1_f * scale)
        c2 = int(c2_f * scale)
        c3 = int(rho2n * scale)
        s_hi = floor_sqrt_fraction(4 * rho2n)
        t_min = tau_lo + t0
        t_max = t_cap(n)
        if t_min > t_max:
            out.append((0, 0))
            continue
        count = 0
        grazing = 0
        for s in range(-s_hi, s_hi + 1):
            budget = c3 - c1 * s * s
            if budget < 0:
                continue
            u_max = isqrt(budget // c2)   # < uw
            on_boundary = budget == c2 * u_max * u_max
            # x+y = s, x-y = d: t = x y = (s^2-d^2)/4 needs d = s mod 2
            d_hi_sq = s * s - 4 * t_min
            if d_hi_sq < 0:
                continue
            d_hi = isqrt(d_hi_sq)
            d_lo_sq = max(s * s - 4 * t_max, 0)
            d_lo = isqrt(d_lo_sq)
            if d_lo * d_lo < d_lo_sq:
                d_lo += 1
            d = np.arange(d_lo, d_hi + 1, dtype=np.int64)
            d = d[(d & 1) == (s & 1)]
            if len(d) == 0:
                continue
            weights = np.where(d > 0, 2, 1)  # (s, d) and (s, -d) swap x and y
            tt = (s * s - d * d) // 4
            idx = tt - t_min
            count += int((cum[idx, u_max] * weights).sum())
            if on_boundary:
                grazing += int((hist[idx, u_max] * weights).sum())
        out.append((count, grazing))
    return out


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
    try:
        for z, value in short_vectors(_majorant_matrix(window), bound, lift,
                                      guard):
            x = [dl * zi + bi for zi, bi in zip(z, base)]
            if sum(xi * sum(gij * xj for gij, xj in zip(gi, x))
                   for xi, gi in zip(x, g)) != target:
                continue
            if window.sector is not None or points is not None:
                vec = tuple(Fraction(xi, dl) for xi in x)
                if window.sector is not None and not _sector_ok(window, vec):
                    continue
                if points is not None:
                    points.append(vec)
            counted += 1
            if value == bound:
                grazing += 1
    except NodeGuardExceeded as exc:
        raise EnumGuardExceeded(str(exc)) from None
    return PointCount(n, counted, grazing,
                      tuple(points) if points is not None else None)


def _sector_ok(window: Window, vec) -> bool:
    L = window.frame.lattice
    t1, t2 = window.frame.positive
    a1 = float(L.pairing(vec, t1)) / math.sqrt(float(2 * L.pairing(t1, t1)))
    a2 = float(L.pairing(vec, t2)) / math.sqrt(float(2 * L.pairing(t2, t2)))
    ang = math.atan2(a2, a1) % (2 * math.pi)
    return (ang - window.sector[0]) % (2 * math.pi) <= window.sector_width


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
        rad = floor_sqrt_fraction(2 * mmax * ainv[k][k])
        lo, hi = int_range_of_quadratic(-lift[k], Fraction((rad + 1) ** 2))
        ranges.append(np.arange(lo, hi + 1, dtype=np.int64))
        size *= len(ranges[-1])
    if size > guard or size == 0:
        raise EnumGuardExceeded(f"box of {size} nodes exceeds guard")
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
    for row in coords:
        vec = tuple(Fraction(int(x), dl) for x in row)
        rad = window.frame.radial_sq(vec)
        if rad > rho2n:
            continue
        if window.sector is not None and not _sector_ok(window, vec):
            continue
        count += 1
        if rad == rho2n:
            grazing += 1
        if keep_points:
            points.append(vec)
    return PointCount(n, count, grazing, tuple(points) if keep_points else None)


# ---------------------------------------------------------------------------
# the equidistribution experiment

@dataclass(frozen=True)
class CountReport:
    n: Fraction
    empirical: int
    predicted: float
    ratio: float
    mu_infty_value: float
    series_value: Fraction
    prime_bound: int
    grazing: int


@dataclass(frozen=True)
class ExperimentSummary:
    reports: tuple[CountReport, ...]
    skipped: tuple
    mean_ratio: float
    first_half_mean: float
    second_half_mean: float
    mu_infty: float                         # the closed form
    mu_infty_mc: tuple[float, float] | None  # (estimate, standard error)


def admissible_values(V: IntegerLattice, gamma, lo, hi):
    """Values n in -Q(gamma)+Z inside [lo, hi]."""
    lift = _gamma_lift(V, gamma)
    frac = (-V.q_of(lift)) % 1
    lo, hi = Fraction(lo), Fraction(hi)
    start = lo - (lo % 1) - 1 + frac
    out = []
    x = start
    while x <= hi:
        if x >= lo:
            out.append(x)
        x += 1
    return out


def equidistribution_run(V: IntegerLattice, gamma, window: Window,
                         n_lo, n_hi, prime_bound: int = 100,
                         samples: int = 0, seed: int = 0,
                         workers: int = 1,
                         guard: int = ENUM_NODE_GUARD) -> ExperimentSummary:
    """Empirical vs predicted counts over a range of admissible n.

    predicted(n) = mu_infty(window) * n^(b/2) * truncated singular series,
    with mu_infty in closed form.  Non-representable n are skipped with a
    note.  With samples > 0 the Monte Carlo estimate of mu_infty is run from
    the seed as a cross-check and carried in the summary; it enters no
    prediction.  Counts are exact, all from one ``count_range`` call.
    """
    b = V.rank - 2
    lift = _gamma_lift(V, gamma)
    mu_val = mu_infty_closed(window)
    mc = (mu_infty(window, samples, seed=seed, workers=workers)
          if samples > 0 else None)
    ns = []
    skipped = []
    for n in admissible_values(V, lift, n_lo, n_hi):
        if is_representable(lift, n, V):
            ns.append(n)
        else:
            skipped.append((n, "not locally representable"))
    reports = []
    for pc in count_range(lift, ns, window, guard):
        n = pc.n
        ss = singular_series(lift, n, V, prime_bound)
        predicted = mu_val * float(n) ** (b / 2) * float(ss.truncated_product)
        ratio = pc.count / predicted if predicted else math.inf
        reports.append(CountReport(n, pc.count, predicted, ratio, mu_val,
                                   ss.truncated_product, prime_bound,
                                   pc.grazing))
    ratios = [r.ratio for r in reports]
    mean = sum(ratios) / len(ratios) if ratios else math.nan
    half = len(ratios) // 2
    first = sum(ratios[:half]) / half if half else math.nan
    second = sum(ratios[half:]) / (len(ratios) - half) if len(ratios) - half else math.nan
    return ExperimentSummary(tuple(reports), tuple(skipped), mean, first,
                             second, mu_val, mc)
