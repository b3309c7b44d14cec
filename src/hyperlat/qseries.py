"""Vector-valued q-expansions with rational exponents and coefficients.

Theta series of negative definite lattices (exact short-vector enumeration),
the quasi-modular weight-2 Eisenstein series, Cauchy products, and the cusp
boundary coefficients built from them.  Exponents live in (1/N)Z with N the
level of the underlying finite quadratic module; coefficients are Fractions.
"""

from __future__ import annotations

from collections import namedtuple
from decimal import localcontext
from fractions import Fraction

from .exactla import InputError, frac_mat_inv, short_vectors
from .fqm import FiniteQuadraticModule, discriminant_group
from .lattices import IntegerLattice


class QSeriesError(ValueError):
    pass


class QSeriesInputError(QSeriesError, InputError):
    """A negative order, or a theta series of a lattice not negative definite."""


_TRIVIAL_MODULE = FiniteQuadraticModule((), 1, (), ())
# candidates of the short-vector search behind one theta series, a few
# seconds of enumeration; E8(-1) to order 8 takes about 6 * 10^5
THETA_NODE_GUARD = 10 ** 6


class VectorQSeries:
    """A finite table of q-coefficients, complete up to truncation_order.

    ``coefficients`` maps (element residues, exponent) to a Fraction; the
    support convention is exponent = -Q(element) mod 1 (theta and Eisenstein
    side).  Scalar series live over the trivial module.
    """

    def __init__(self, module: FiniteQuadraticModule, denominator: int, coefficients: dict,
                 truncation_order: Fraction):
        for (elt, e), c in coefficients.items():
            if e > truncation_order:
                raise QSeriesError("coefficient beyond the truncation order")
            if (Fraction(e) * denominator).denominator != 1:
                raise QSeriesError("exponent denominator does not divide N")
        self.module = module
        self.denominator = denominator
        self.coefficients = coefficients
        self.truncation_order = truncation_order

    def coefficient(self, elt, exponent) -> Fraction:
        e = Fraction(exponent)
        if e > self.truncation_order:
            raise QSeriesError(
                f"series truncated at {self.truncation_order}; asked for {e}")
        return self.coefficients.get((self.module.reduce(elt), e), Fraction(0))

    def is_scalar(self) -> bool:
        return self.module.ngens == 0

    def dump_csv(self) -> str:
        elements = self.module.elements()
        index = {e: i for i, e in enumerate(elements)}
        rows = ["gamma_index,exp_num,exp_den,coeff_num,coeff_den"]
        items = sorted(self.coefficients.items(),
                       key=lambda kv: (kv[0][1], index[kv[0][0]]))
        for (elt, e), c in items:
            rows.append(f"{index[elt]},{e.numerator},{e.denominator},"
                        f"{c.numerator},{c.denominator}")
        return "\n".join(rows)


# ---------------------------------------------------------------------------
# theta series

def theta_series(K: IntegerLattice, order) -> VectorQSeries:
    """Theta series of a negative definite lattice up to the given order.

    The coefficient at (gamma, m) counts dual vectors x in gamma + K with
    -Q(x) = m; complete for m <= order.  Enumeration is exact (short vectors
    of the positive form -G^{-1}); coefficients are nonnegative integers.
    A search past THETA_NODE_GUARD candidates raises NodeGuardExceeded.
    """
    order = Fraction(order)
    if order < 0:
        raise QSeriesInputError(f"order must be >= 0, got {order}")
    D = discriminant_group(K)
    if K.rank and K.signature().positive > 0:
        sig = K.signature()
        raise QSeriesInputError("theta series wants a negative definite lattice, "
                                f"got signature ({sig.positive},{sig.negative})")
    coeffs = {}
    if K.rank == 0:
        coeffs[((), Fraction(0))] = Fraction(1)
        return VectorQSeries(D, 1, coeffs, order)
    # a dual vector y = G^{-1} m has -2 Q(y) = m^T (-G^{-1}) m
    a = [[-x for x in row] for row in frac_mat_inv(K.gram)]
    for m, value in short_vectors(a, 2 * order, guard=THETA_NODE_GUARD):
        key = (D.class_of_pairings(m), value)
        coeffs[key] = coeffs.get(key, 0) + 1
    coeffs = {(cls, value / 2): Fraction(c)
              for (cls, value), c in coeffs.items()}
    return VectorQSeries(D, D.level if D.level else 1, coeffs, order)


def e2_series(order: int) -> VectorQSeries:
    """The quasi-modular series 1 - 24 sum sigma_1(k) q^k up to q^order."""
    if order < 0:
        raise QSeriesInputError(f"order must be >= 0, got {order}")
    coeffs = {((), Fraction(0)): Fraction(1)}
    for k in range(1, order + 1):
        sigma = sum(d for d in range(1, k + 1) if k % d == 0)
        coeffs[((), Fraction(k))] = Fraction(-24 * sigma)
    return VectorQSeries(_TRIVIAL_MODULE, 1, coeffs, Fraction(order))


def multiply(f, g: VectorQSeries) -> VectorQSeries:
    """Cauchy product; f may be a rational scalar or a scalar series."""
    if isinstance(f, (int, Fraction)):
        coeffs = {k: Fraction(f) * c for k, c in g.coefficients.items()}
        return VectorQSeries(g.module, g.denominator, coeffs, g.truncation_order)
    if not isinstance(f, VectorQSeries):
        raise QSeriesError("left factor must be scalar or a scalar series")
    if not f.is_scalar():
        if g.is_scalar():
            return multiply(g, f)
        raise QSeriesError("one factor must live over the trivial module")
    order = min(f.truncation_order, g.truncation_order)
    coeffs = {}
    for (_, ef), cf in f.coefficients.items():
        if cf == 0:
            continue
        for (elt, eg), cg in g.coefficients.items():
            e = ef + eg
            if e > order:
                continue
            key = (elt, e)
            coeffs[key] = coeffs.get(key, Fraction(0)) + cf * cg
    coeffs = {k: c for k, c in coeffs.items() if c != 0}
    return VectorQSeries(g.module, g.denominator, coeffs, order)


# ---------------------------------------------------------------------------
# boundary coefficients

class BoundaryCoefficient(namedtuple("BoundaryCoefficient", "value exact prime_bound")):
    """A Decimal value, or a Fraction equal to exact when it is exact."""
    __slots__ = ()

    @property
    def approximate(self) -> bool:
        return self.exact is None

    def __float__(self):
        return float(self.value)


def _a_from_theta(theta, gamma, n: Fraction, F) -> Fraction:
    """(N_F / 24) (E2 . p* theta)(gamma, n) for the theta series of F's K_F
    complete to order >= n.  The pullback p* theta is theta at the class
    p(gamma) that gamma projects to, and 0 off the orthogonal of I^#/I."""
    D = F.ambient_disc
    gamma = D.reduce(gamma)
    if n < 0 or gamma not in F.projection_to_kf:
        return Fraction(0)
    if (n + D.q_value(gamma)).denominator != 1:
        return Fraction(0)
    total = multiply(e2_series(int(n) + 1), theta).coefficient(F.projection_to_kf[gamma], n)
    return Fraction(F.imprimitivity, 24) * total


def a_coeff(gamma, n, F) -> Fraction:
    """Boundary theta coefficient: (N_F / 24) (E2 . p* Theta_F)(gamma, n)."""
    n = Fraction(n)
    if n < 0:
        return Fraction(0)
    return _a_from_theta(theta_series(F.kf_lattice, n), gamma, n, F)


def u_coeff(gamma, n, F, c, theta=None) -> BoundaryCoefficient:
    """Cusp correction coefficient (c(gamma,n)/2) a(0,0,F) - a(gamma,n,F).

    ``c`` is an EisensteinCoefficient; when it is exact the result is an
    exact rational, otherwise it inherits the truncated-product flag.  Both
    coefficients are read from one theta series of F's K_F lattice, at the
    classes that 0 and gamma project to.  ``theta`` is that series to order
    >= n, for callers that share it between cusps with the same K_F; by
    default it is built here.
    """
    n = Fraction(n)
    if theta is None:
        theta = theta_series(F.kf_lattice, max(n, Fraction(0)))
    a00 = _a_from_theta(theta, F.ambient_disc.zero, Fraction(0), F)
    agn = _a_from_theta(theta, gamma, n, F)
    if c.exact is not None:
        val = Fraction(c.exact, 2) * a00 - agn
        return BoundaryCoefficient(val, val, c.prime_bound)
    from .densities import decimal_of   # loaded already: c came from it

    # the two terms nearly cancel, so both are taken at 50 digits
    with localcontext() as ctx:
        ctx.prec = 50
        val = c.value / 2 * decimal_of(a00) - decimal_of(agn)
    return BoundaryCoefficient(val, None, c.prime_bound)
