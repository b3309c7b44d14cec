"""Prediction calculators: expected point counts, boundary-corrected degrees,
and the K3-lattice specializations.

The main term -(mu(S)/2) c(gamma, n) is ``densities.main_term``, which the
``count``, ``predict`` and ``k3`` commands share: mu(S) |S^(b+1)| (2n)^(b/2)
/ sqrt|D| times the truncated singular series.  Here the mass mu(S) and the
boundary degrees are user-supplied scalars; for a cap of the hyperboloid,
``count`` takes mu(S) = s ((1 + rho^2)^(b/2) - 1), s the sector fraction.
Representability of a norm on a coset of a Lorentzian sublattice is exact in
ranks 1 and 2 (Pell-bounded search); above that it is read off the local
densities, exact only when it fails.
"""

from __future__ import annotations

from collections import namedtuple
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import islice
from math import isqrt, lcm

from .densities import (
    PredictionResult,
    _check_signature_2b,
    _gamma_lift,
    decimal_of,
    in_coset_support,
    is_representable,
    main_term,
)
from .exactla import InputError, mat_mul, short_vectors, transpose
from .fqm import discriminant_group
from .lattices import (
    IntegerLattice,
    LatticeError,
    direct_sum,
    e8,
    hyperbolic_plane,
    is_anisotropic_over_q,
    k3_lattice,
    orthogonal_complement,
    rank1,
    rational_sqrt,
    rescale,
    saturation_index,
)

RANK2_GUARD = 10 ** 7   # points of the bounded rank-2 representability search


class PredictError(ValueError):
    pass


class PredictInputError(PredictError, InputError):
    """A lattice not of signature (2, b) with b >= 3, or a K3 sublattice
    that fails the hypotheses."""


class PredictionInput:
    """A lattice of signature (2, b), checked on construction, a coset, a
    norm, the mass mu(S) and the boundary degrees as pairs (CuspDatum,
    degree)."""

    def __init__(self, lattice: IntegerLattice, gamma: tuple, n, mu_s: float,
                 boundary_degrees: tuple = (), prime_bound: int = 100):
        self.n = Fraction(n)
        _check_signature_2b(lattice, "predictions", PredictInputError)
        self.lattice = lattice
        self.gamma = gamma
        self.mu_s = mu_s
        self.boundary_degrees = boundary_degrees
        self.prime_bound = prime_bound


def degree_prediction(inp: PredictionInput):
    """Main term plus the boundary corrections sum_F u(gamma, n, F) deg_F.

    Strongly primitive cusps are annotated with the sharper error order
    n^(b/2 - 1 + eps).  Returns (PredictionResult, list of per-cusp rows).
    """
    base = main_term(inp.lattice, inp.gamma, inp.n, inp.mu_s, inp.prime_bound)
    if not inp.boundary_degrees:
        return base, []
    # only the boundary terms need theta series, so only they load qseries
    from . import qseries

    rows = []
    b = inp.lattice.rank - 2
    theta_order = max(Fraction(inp.n), Fraction(0))
    thetas = {}   # one theta series per distinct K_F
    for datum, degree in inp.boundary_degrees:
        key = datum.kf_lattice.gram
        if key not in thetas:
            thetas[key] = qseries.theta_series(datum.kf_lattice, theta_order)
        u = qseries.u_coeff(inp.gamma, inp.n, datum, base.coefficient, theta=thetas[key])
        order = (f"O(n^({Fraction(b, 2) - 1}+eps))" if datum.strongly_primitive
                 else f"O(n^({Fraction(b, 2)}))")
        rows.append({"cusp": datum, "degree": degree, "u": u,
                     "sharper_order": order})
    with localcontext() as ctx:
        ctx.prec = 50
        total = base.value + sum(decimal_of(row["u"].value) * row["degree"]
                                 for row in rows)
    return base._replace(value=total), rows


# ---------------------------------------------------------------------------
# exact representability on Lorentzian cosets

def _pell_fundamental(d: int):
    """Smallest (x, y), x, y > 0 with x^2 - d y^2 = 1; d > 0 not a square.

    Continued fraction expansion of sqrt(d).
    """
    if rational_sqrt(d) is not None:
        raise ValueError("d is a square")
    a0 = isqrt(d)
    m, den, a = 0, 1, a0
    num1, num = 1, a0
    den1, den2 = 0, 1
    while num * num - d * den2 * den2 != 1:
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        num1, num = num, a * num + num1
        den1, den2 = den2, a * den2 + den1
    return num, den2


class RepresentabilityResult(namedtuple("RepresentabilityResult",
                                        "representable exact witness", defaults=(None,))):
    """exact is False when -n is locally solvable and globally undecided."""
    __slots__ = ()


def represents_on_coset(P: IntegerLattice, gamma, two_n) -> RepresentabilityResult:
    """Does some t in gamma + P have (t.t) = two_n?

    Exact for rank 1 (square condition) and rank 2 (search bounded through
    the stable automorph of the Pell equation).  For higher rank, or past
    RANK2_GUARD points, it is local solvability (``_local_answer``).
    """
    two_n = Fraction(two_n)
    lift = _gamma_lift(P, gamma)
    if not in_coset_support(lift, -two_n / 2, P):
        return RepresentabilityResult(False, True)
    if P.rank == 1:
        root = rational_sqrt(two_n / P.gram[0][0])
        if root is None:
            return RepresentabilityResult(False, True)
        for sgn in (root, -root):
            if (sgn - lift[0]).denominator == 1:
                return RepresentabilityResult(True, True, (sgn,))
        return RepresentabilityResult(False, True)
    if P.rank == 2:
        return _represents_rank2(P, lift, two_n)
    return _local_answer(P, lift, two_n)


def _stable_automorph(P: IntegerLattice):
    """An isometry of P acting trivially on the discriminant group.

    Built from the Pell automorph of the binary form; raised to a power so
    all generator lifts are fixed modulo P.
    """
    a = Fraction(P.gram[0][0], 2)
    b = Fraction(P.gram[0][1])
    c = Fraction(P.gram[1][1], 2)
    disc = b * b - 4 * a * c
    if disc <= 0 or rational_sqrt(disc) is not None:
        raise PredictError("form is not anisotropic Lorentzian of rank 2")
    dd = int(disc)
    x, y = _pell_fundamental(dd)
    t, u = 2 * x, 2 * y
    # automorph of a X^2 + b XY + c Y^2 with t^2 - disc u^2 = 4, transposed
    # for the row-vector action used throughout
    m = [[Fraction(t - b * u, 2), a * u],
         [-c * u, Fraction(t + b * u, 2)]]
    if any(x.denominator != 1 for row in m for x in row):
        m = mat_mul(m, m)
    m = [[int(x) for x in row] for row in m]
    D = discriminant_group(P)
    power = [[1, 0], [0, 1]]
    for _ in range(1, 2 * D.order * 4 + 2):
        power = mat_mul(power, m)
        if _acts_trivially(P, D, power):
            return power
    raise PredictError("no stable power of the automorph found")


def _acts_trivially(P, D, m) -> bool:
    for g in (D.generator_lifts or ()):
        img = (m[0][0] * g[0] + m[1][0] * g[1], m[0][1] * g[0] + m[1][1] * g[1])
        diff = (img[0] - g[0], img[1] - g[1])
        if any(x.denominator != 1 for x in diff):
            return False
    # must also be an isometry: t -> t M preserves the Gram
    return mat_mul(mat_mul(m, P.gram), transpose(m)) == [list(r) for r in P.gram]


def _represents_rank2(P: IntegerLattice, lift, two_n):
    """Bounded exact search: in eigencoordinates of the stable automorph the
    quantity u^2 + disc v^2 scales by the eigenvalue squared along an orbit,
    and its product structure pins some orbit representative inside a window
    of size (eigenvalue^2 + 1) |4 a n|; searching that window is complete.
    The window is the short vectors of the majorant
    ((2aX + bY)^2 + disc Y^2) / (4|a|) >= |Q| on lift + Z^2."""
    mm = _stable_automorph(P)
    a = Fraction(P.gram[0][0], 2)
    b = Fraction(P.gram[0][1])
    c = Fraction(P.gram[1][1], 2)
    disc = b * b - 4 * a * c
    n = two_n / 2
    trace = abs(mm[0][0] + mm[1][1])
    mu2 = Fraction(trace * trace + 1)  # safe overestimate of eigenvalue^2
    bound = (mu2 + 2) * (abs(n) + 1)
    k = 4 * abs(a)
    majorant = [[4 * a * a / k, 2 * a * b / k], [2 * a * b / k, (b * b + disc) / k]]
    # test 2 dl^2 Q = two_n dl^2 on the integers (x, y) = dl (z + lift)
    dl = lcm(*(x.denominator for x in lift))
    l0, l1 = (int(x * dl) for x in lift)
    (g00, g01), (_, g11) = P.gram
    target = two_n * dl * dl
    # cut after RANK2_GUARD points, not guarded: a guarded walk refuses at
    # once when the window holds more, but a witness may come early
    points = short_vectors(majorant, bound, lift)
    for (xz, yz), _ in islice(points, RANK2_GUARD):
        x, y = dl * xz + l0, dl * yz + l1
        if g00 * x * x + 2 * g01 * x * y + g11 * y * y == target:
            return RepresentabilityResult(True, True, (Fraction(x, dl), Fraction(y, dl)))
    if next(points, None) is not None:
        return _local_answer(P, lift, two_n)
    return RepresentabilityResult(False, True)


def _local_answer(P: IntegerLattice, lift, two_n) -> RepresentabilityResult:
    """Q = two_n / 2 on lift + P is Q = -|two_n| / 2 on lift + P(-1), or on
    lift + P when two_n < 0.  A local obstruction is a proof, so False is
    exact; True leaves the global question open.  Norm 0 is the zero vector,
    the only isotropic one when P is anisotropic over Q."""
    if two_n:
        local = is_representable(lift, abs(two_n) / 2, P if two_n < 0 else rescale(P, -1))
        return RepresentabilityResult(local, not local)
    zero = all(x.denominator == 1 for x in lift)
    if not (zero or is_anisotropic_over_q(P)):
        raise PredictError("norm 0 on a nonzero coset of a lattice isotropic over Q is not decided")
    return RepresentabilityResult(zero, True, (Fraction(0),) * P.rank if zero else None)


# ---------------------------------------------------------------------------
# K3 specializations

_K3_RANK = 22


def k3_sublattice(two_d: int | None = None, rows=None) -> tuple[IntegerLattice, tuple]:
    """A primitive Lorentzian sublattice of the rank-22 unimodular lattice.

    Either the canonical rank-1 member of square 2d, embedded as e + d f in
    the first hyperbolic block, or explicit coordinate rows.  Returns
    (P, rows in ambient coordinates).
    """
    if rows is None:
        if two_d is None or two_d <= 0 or two_d % 2:
            raise PredictInputError("the canonical sublattice wants a positive even "
                                    f"square 2d (or explicit rows), got {two_d}")
        d = two_d // 2
        row = [1, d] + [0] * (_K3_RANK - 2)
        return rank1(two_d), (tuple(row),)
    rows = tuple(tuple(int(x) for x in r) for r in rows)
    amb = k3_lattice()
    if any(len(r) != _K3_RANK for r in rows):
        raise PredictInputError(f"sublattice rows must have {_K3_RANK} coordinates")
    gram = [[int(amb.pairing(x, y)) for y in rows] for x in rows]
    try:
        return IntegerLattice(tuple(tuple(r) for r in gram)), rows
    except LatticeError as exc:
        raise PredictInputError(f"sublattice rows are degenerate: {exc}") from exc


class K3Prediction(namedtuple("K3Prediction", "p_lattice v_lattice rho exponent prediction "
                                            "coset_representable disc_match")):
    """exponent is the n-exponent 10 - rho/2."""
    __slots__ = ()


def _canonical_k3_complement(two_d: int) -> IntegerLattice:
    """Complement of e + d f in the first block: rank1(-2d) + U + U + 2 E8(-1)."""
    U = hyperbolic_plane()
    return direct_sum(rank1(-two_d), U, U, e8(-1), e8(-1))


def k3_lattices(two_d: int | None = None, rows=None):
    """(P, V): the sublattice P and its orthogonal complement V inside the
    rank-22 unimodular lattice, once P meets the hypotheses (primitive,
    Lorentzian, anisotropic, rank <= 4)."""
    P, prows = k3_sublattice(two_d, rows)
    if P.rank > 4:
        raise PredictInputError("sublattice rank must be <= 4")
    sig = P.signature()
    if sig.positive != 1:
        raise PredictInputError("sublattice is not Lorentzian")
    if saturation_index([list(r) for r in prows]) != 1:
        raise PredictInputError("sublattice is not primitively embedded")
    if not is_anisotropic_over_q(P):
        raise PredictInputError("sublattice is isotropic over Q")
    V = orthogonal_complement(k3_lattice(), [list(r) for r in prows])
    if rows is None:
        canonical = _canonical_k3_complement(two_d)
        if abs(V.det) != abs(canonical.det):
            raise PredictError("internal error: complement determinant mismatch")
        V = canonical
    return P, V


def k3_predict(gamma, n, mu_s: float, two_d: int | None = None, rows=None,
               prime_bound: int = 100) -> K3Prediction:
    """Prediction for norm-n classes in a family with generic Picard lattice P.

    Builds V as the orthogonal complement of P (``k3_lattices``), evaluates
    the main term on V, and reports whether the coset gamma + P represents
    2n (needed for the class to be parabolic).  gamma is residues in D(V).
    """
    n = Fraction(n)
    P, V = k3_lattices(two_d, rows)
    rho = P.rank
    DP = discriminant_group(P)
    DV = discriminant_group(V)
    disc_match = (DP.invariant_factors == DV.invariant_factors and
                  sorted(DP.q_value(e) for e in DP.elements()) ==
                  sorted((-DV.q_value(e)) % 1 for e in DV.elements()))
    b = V.rank - 2
    exponent = Fraction(10) - Fraction(rho, 2)
    assert exponent == Fraction(b, 2)
    if gamma is None:
        gamma = DV.zero
    pred = main_term(V, gamma, n, mu_s, prime_bound)
    # gamma residues are read in both discriminant groups through their
    # matching invariant factors (checked by disc_match)
    rep = represents_on_coset(P, DP.reduce(gamma) if DP.ngens else (), 2 * n)
    return K3Prediction(P, V, rho, exponent, pred, rep, disc_match)


class CensusRow(namedtuple("CensusRow", "gamma s prediction representable_exact")):
    __slots__ = ()


def elliptic_census_prediction(n_max, mu_s: float, two_d: int | None = None,
                               rows=None, prime_bound: int = 100):
    """Cumulative prediction over all classes of norm up to n_max.

    Requires the sublattice's discriminant group to have no nontrivial
    isotropic subgroup; sums the main terms on V over gamma and admissible s,
    with P and V built once (``k3_lattices``).
    """
    P, V = k3_lattices(two_d, rows)
    DP = discriminant_group(P)
    # some nonzero x has Q(x) = 0 exactly when a nontrivial subgroup is isotropic
    if DP.q_numerators(DP.elements()).count(0) > 1:
        raise PredictInputError("discriminant group has a nontrivial isotropic "
                                "subgroup; the census hypothesis fails")
    out_rows, values = [], []
    n_max = Fraction(n_max)
    for gamma in DP.elements():
        qg = DP.q_value(gamma)
        s = qg if qg > 0 else qg + 1
        while s <= n_max:
            rep = represents_on_coset(P, gamma, 2 * s)
            if rep.representable:
                value = main_term(V, gamma, s, mu_s, prime_bound).value
                out_rows.append(CensusRow(gamma, s, float(value), rep.exact))
                values.append(value)
            s += 1
    out_rows.sort(key=lambda r: (r.s, r.gamma))
    with localcontext() as ctx:
        ctx.prec = 50
        total = sum(values, Decimal(0))
    return total, out_rows