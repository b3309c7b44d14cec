"""The closed forms in decimal against their mpmath evaluation.

The measures, the Eisenstein coefficients and the main term are products of
a rational, an integer power of pi and square roots, evaluated with the
standard ``decimal`` module.  The oracle below is the mpmath evaluation the
package used before: 30 digits for the measures, 50 for the rest.  Every
float must come out bit-identical.
"""

import io
from fractions import Fraction

import pytest

from hyperlat.cli import main
from hyperlat.densities import (
    PI,
    eisenstein_coefficient,
    gamma_half_integer,
    singular_series,
)
from hyperlat.densities import main_term
from hyperlat.hyperboloid import (
    Window,
    equidistribution_run,
    mu_a0_closed,
    mu_infty_closed,
    splitting_frame,
    window_mass,
)
from hyperlat.lattices import IntegerLattice, direct_sum, e8, hyperbolic_plane, rank1

U = hyperbolic_plane()
A2 = IntegerLattice(((-2, 1), (1, -2)))

LATTICES = {
    "U+U+<-2>": direct_sum(U, U, rank1(-2)),
    "U+U+<-8>": direct_sum(U, U, rank1(-8)),
    "U+U+<-2>+<-4>": direct_sum(U, U, rank1(-2), rank1(-4)),
    "U+U+<-2>+<-4>+<-6>": direct_sum(U, U, rank1(-2), rank1(-4), rank1(-6)),
    "U+U+4<-2>": direct_sum(U, U, *[rank1(-2)] * 4),
    "U+U+5<-2>": direct_sum(U, U, *[rank1(-2)] * 5),
    "U+U+A2(-1)+A2(-1)+<-2>+<-6>": direct_sum(U, U, A2, A2, rank1(-2), rank1(-6)),
    "E8(-1)+U+U": direct_sum(e8(-1), U, U),
    "U+U+E8(-1)+<-2>": direct_sum(U, U, e8(-1), rank1(-2)),
}
RHOS = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(7, 3)]
SECTORS = [None, (0.3, 2.1), (5.5, 0.7)]
NORMS = range(1, 25)
PRIME_BOUND = 10
MU_S = 1.7


def _mpmath_closed_mass(mpmath, window, scale=1.0):
    b = window.b
    with mpmath.workdps(30):
        half_b = mpmath.mpf(b) / 2
        sphere = 2 * mpmath.pi ** half_b / mpmath.gamma(half_b)
        rho = mpmath.mpf(window.rho.numerator) / window.rho.denominator
        mass = (2 * mpmath.pi * mpmath.mpf(window.sector_fraction()) * sphere
                * ((rho * rho + 1) ** half_b - 1) / b)
        return float(mass * mpmath.mpf(scale))


def _mpmath_eisenstein(mpmath, n, V, product):
    def mpf(x):
        return mpmath.mpf(x.numerator) / x.denominator

    b = V.rank - 2
    gamma_rat, sqrt_pi = gamma_half_integer(b + 2)
    with mpmath.workdps(50):
        arch = mpmath.mpf(2) ** (2 + mpmath.mpf(b) / 2)
        arch *= mpmath.pi ** (mpmath.mpf(2 + b - sqrt_pi) / 2)
        arch *= mpf(Fraction(n)) ** (mpmath.mpf(b) / 2)
        arch /= mpmath.sqrt(abs(V.det))
        arch /= mpf(gamma_rat)
        value = -arch * mpf(product)
        return value, -value * mpmath.mpf(MU_S) / 2


@pytest.mark.parametrize("name", LATTICES)
def test_measures_match_mpmath(name):
    mpmath = pytest.importorskip("mpmath")
    frame = splitting_frame(LATTICES[name])
    for rho in RHOS:
        for sector in SECTORS:
            window = Window(frame, rho, sector)
            assert mu_a0_closed(window) == _mpmath_closed_mass(mpmath, window)
            assert mu_infty_closed(window) == _mpmath_closed_mass(
                mpmath, window, frame.lattice_jacobian() / 2)


@pytest.mark.parametrize("name", LATTICES)
def test_eisenstein_and_main_term_match_mpmath(name):
    mpmath = pytest.importorskip("mpmath")
    V = LATTICES[name]
    for n in NORMS:
        product = singular_series(None, n, V, PRIME_BOUND).truncated_product
        c_old, main_old = _mpmath_eisenstein(mpmath, n, V, product)
        c = eisenstein_coefficient(None, n, V, PRIME_BOUND)
        assert float(c.value) == float(c_old)
        pred = main_term(V, None, n, MU_S, PRIME_BOUND)
        if product:
            assert float(pred.value) == float(main_old)
        else:
            assert not pred.representable and pred.value == 0


# b = 3, 4, 5, 10 and 19, the last the K3 complement at 2d = 2
ORACLE_LATTICES = [
    direct_sum(U, U, rank1(-2)),
    direct_sum(U, U, rank1(-2), rank1(-2)),
    direct_sum(U, U, rank1(-2), rank1(-4), rank1(-6)),
    direct_sum(U, U, e8(-1)),
    direct_sum(rank1(-2), U, U, e8(-1), e8(-1)),
]


def _old_prediction(window, n, product):
    """The prediction count made before it shared main_term."""
    return mu_infty_closed(window) * float(n) ** (window.b / 2) * float(product)


@pytest.mark.parametrize("V", ORACLE_LATTICES, ids=lambda V: f"b={V.rank - 2}")
def test_main_term_of_the_window_mass_is_the_old_prediction(V):
    frame = splitting_frame(V)
    windows = [Window(frame, rho) for rho in (1, Fraction(3, 2), Fraction(1, 3))]
    windows.append(Window(frame, 1, (0.3, 2.1)))
    for n in (1, 2, 3):
        for window in windows:
            term = main_term(V, None, n, window_mass(window), PRIME_BOUND)
            old = _old_prediction(window, n, term.series.truncated_product)
            assert term.representable and float(term) == pytest.approx(old, rel=1e-12)


def test_count_predicts_the_old_prediction():
    V = LATTICES["U+U+<-2>"]
    window = Window(splitting_frame(V), Fraction(3, 2))
    summary = equidistribution_run(V, None, window, 1, 8, prime_bound=PRIME_BOUND)
    assert len(summary.reports) == 8
    for r in summary.reports:
        assert r.predicted == pytest.approx(_old_prediction(window, r.n, r.series_value),
                                            rel=1e-12)


def _arccot(x: int, unity: int) -> int:
    """unity * arccot(x), truncated term by term."""
    total = power = unity // x
    k, sign = 3, -1
    while power:
        power //= x * x
        total += sign * (power // k)
        k, sign = k + 2, -sign
    return total


def test_pi_constant_matches_machin():
    # pi = 16 arctan(1/5) - 4 arctan(1/239), in integers with ten guard digits
    digits = str(PI).replace(".", "")
    assert len(digits) >= 60
    unity = 10 ** (len(digits) - 1 + 10)
    machin = 16 * _arccot(5, unity) - 4 * _arccot(239, unity)
    assert str(machin)[:len(digits)] == digits


def test_vanishing_coefficient_prints_plus_zero():
    # alpha_3 = 0 at n = 4: the coefficient is 0, and prints as 0, not -0
    out = io.StringIO()
    assert main(["eis", "--lattice", "rank1(2)+rank1(6)+rank1(-6)+rank1(-6)+rank1(-6)",
                 "--nmax", "4", "--prime-bound", "10"], out=out) == 0
    assert out.getvalue().splitlines()[-1] == "0,4,1,0,10,2=45/64;3=0/1"
