import math
import random
from fractions import Fraction

import pytest

from hyperlat import predict
from hyperlat.cusps import cusp_datum
from hyperlat.densities import GuardExceeded, count_solutions_naive, eisenstein_coefficient, series_primes
from hyperlat.fqm import discriminant_group
from hyperlat.lattices import IntegerLattice, LatticeError, direct_sum, hyperbolic_plane, rank1, valuation
from hyperlat.predict import (
    PredictError,
    PredictionInput,
    RepresentabilityResult,
    degree_prediction,
    elliptic_census_prediction,
    k3_predict,
    k3_sublattice,
    main_term,
    represents_on_coset,
    _local_answer,
    _pell_fundamental,
)


def test_predict_equals_minus_half_c(v_lattice):
    for n, gamma in [(1, (0,)), (2, (0,)), (Fraction(9, 4), (1,))]:
        pred = main_term(v_lattice, gamma, n, 1.0, 40)
        c = eisenstein_coefficient(gamma, n, v_lattice, 40)
        assert abs(float(pred) + float(c) / 2) < 1e-20 * max(1, abs(float(c)))


def test_predict_formula_value(v_lattice):
    # mu_S = 1, n = 1: (2 pi)^{5/2} / (sqrt(2) Gamma(5/2)) times the product
    pred = main_term(v_lattice, (0,), 1, 1.0, 40)
    g52 = 3 * math.sqrt(math.pi) / 4
    manual = (2 * math.pi) ** 2.5 / (math.sqrt(2) * g52) \
        * float(pred.series.truncated_product)
    assert float(pred) == pytest.approx(manual, rel=1e-12)


def test_predict_not_representable(v_lattice):
    pred = main_term(v_lattice, (1,), 1, 1.0, 100)  # 1 not in 1/4 + Z
    assert float(pred) == 0 and not pred.representable


def test_predict_zero_where_a_local_density_vanishes():
    # -1 is not a value of x^2 + 3y^2 - 3(z^2 + w^2 + v^2) over Z_3
    V = direct_sum(rank1(2), rank1(6), rank1(-6), rank1(-6), rank1(-6))
    pred = main_term(V, None, 1, 1.0, 30)
    assert not pred.representable and pred.value == 0
    assert pred.coefficient is not None
    assert pred.series.truncated_product == 0 and pred.series.factors[3].density == 0
    assert main_term(V, None, 2, 1.0, 30).representable


def test_predict_scales_with_mass(v_lattice):
    one = main_term(v_lattice, (0,), 2, 1.0, 30)
    three = main_term(v_lattice, (0,), 2, 3.0, 30)
    assert float(three) == pytest.approx(3 * float(one), rel=1e-12)


def test_degree_prediction_reduces_to_main_term(v_lattice):
    base = main_term(v_lattice, (0,), 1, 1.0, 30)
    full, rows = degree_prediction(PredictionInput(v_lattice, (0,), 1, 1.0, prime_bound=30))
    assert rows == []
    assert float(full) == float(base)


def test_degree_prediction_boundary(v_lattice):
    F = cusp_datum(v_lattice, [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0]])
    inp = PredictionInput(v_lattice, (0,), 1, 1.0,
                          boundary_degrees=((F, 1),), prime_bound=30)
    base = main_term(v_lattice, (0,), 1, 1.0, 30)
    full, rows = degree_prediction(inp)
    assert len(rows) == 1
    u = rows[0]["u"]
    assert float(full) == pytest.approx(float(base) + float(u), rel=1e-12)
    # u(0,0,F) = 0 means degree corrections vanish at (0,0)
    c00 = eisenstein_coefficient(None, 0, v_lattice, 10)
    from hyperlat.qseries import u_coeff
    assert u_coeff((0,), 0, F, c00).exact == 0


def test_pell():
    assert _pell_fundamental(2) == (3, 2)
    assert _pell_fundamental(3) == (2, 1)
    assert _pell_fundamental(61)[0] == 1766319049


def test_rank1_representability():
    P = rank1(2)
    got = [represents_on_coset(P, (0,), 2 * n).representable
           for n in (1, 2, 3, 4, 5, 9, 16)]
    assert got == [True, False, False, True, False, True, True]
    # coset: gamma = gen of Z/2: t = (k + 1/2) e: norm 2(k+1/2)^2 = 2n
    r = represents_on_coset(P, (1,), Fraction(1, 2))
    assert r.representable and r.exact
    r = represents_on_coset(P, (1,), 2)
    assert not r.representable


def _solvable_by_counts(P, lift, two_n, guard=2 * 10 ** 5):
    """Q = n on lift + P modulo p^(3 + v_p(4 n det)) at each prime the density
    test reads, by the exhaustive counter: False when some count is 0, True
    when all are positive, None when a count is past the guard."""
    n = Fraction(two_n, 2)
    result = True
    for p in series_primes(abs(n), P.det, 0):
        x = 4 * n * P.det
        s = 3 + valuation(x.numerator, p) - valuation(x.denominator, p)
        try:
            if not count_solutions_naive(lift, -n, P, p ** s, guard):
                return False
        except GuardExceeded:
            result = None
    return result


def test_local_answer_matches_naive_counts():
    # Lorentzian cosets of rank 2-4: the density test against the counts
    rng = random.Random(23)
    seen = {True: 0, False: 0}
    while sum(seen.values()) < 60:
        r = rng.randint(2, 4)
        g = [[0] * r for _ in range(r)]
        for i in range(r):
            g[i][i] = 2 * rng.randint(-5, 5)
            for j in range(i + 1, r):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        try:
            P = IntegerLattice(tuple(tuple(row) for row in g))
        except LatticeError:
            continue
        if P.signature().positive != 1 or abs(P.det) > 300:
            continue
        D = discriminant_group(P)
        lift = D.lift(rng.choice(D.elements()))
        two_n = 2 * (P.q_of(lift) + rng.randint(-6, 6))
        want = _solvable_by_counts(P, lift, two_n) if two_n else None
        if want is None:
            continue
        got = _local_answer(P, lift, two_n)
        assert (got.representable, got.exact) == (want, not want), (P.gram, lift, two_n)
        seen[want] += 1
    assert min(seen.values()) >= 10


def test_rank3_local_obstruction_at_11():
    # x^2 - 11 y^2 - 11 z^2 = 2 has no solution mod 11, a prime the old
    # small-moduli check never looked at; = 1 is solved by (1, 0, 0)
    P = direct_sum(rank1(2), rank1(-22), rank1(-22))
    assert represents_on_coset(P, None, 4) == RepresentabilityResult(False, True)
    assert represents_on_coset(P, None, -2) == RepresentabilityResult(False, True)
    assert represents_on_coset(P, None, 2) == RepresentabilityResult(True, False)


def test_rank3_norm_zero():
    # the zero vector on the zero coset; <2>+<-22>+<-88> is anisotropic over
    # Q, so its coset (0, 0, 44), of Q = 0 mod 1, holds no vector of norm 0
    P = direct_sum(rank1(2), rank1(-22), rank1(-88))
    assert represents_on_coset(P, None, 0) == \
        RepresentabilityResult(True, True, (Fraction(0),) * 3)
    assert represents_on_coset(P, (0, 0, 44), 0) == RepresentabilityResult(False, True)
    # 3 (x^2 - y^2 - z^2) is isotropic over Q: no local test decides norm 0
    with pytest.raises(PredictError, match="not decided"):
        represents_on_coset(direct_sum(rank1(6), rank1(-6), rank1(-6)), (1, 2, 3), 0)


def test_rank2_past_the_guard_agrees_with_brute(monkeypatch):
    # every search stops at once, so each answer is the density test's
    monkeypatch.setattr(predict, "RANK2_GUARD", 1)
    P = direct_sum(rank1(2), rank1(-4))  # x^2 - 2 y^2

    def brute(n, box=60):
        return any(x * x - 2 * y * y == n
                   for x in range(-box, box + 1) for y in range(-box, box + 1))

    exact = 0
    for n in range(-15, 16):
        if n == 0:
            continue
        r = represents_on_coset(P, None, 2 * n)
        assert r.representable == brute(n) or not r.exact, n
        assert r.exact == (not r.representable)
        exact += r.exact
    assert exact


def test_rank2_witness_before_the_cut_is_exact(monkeypatch):
    # x^2 - 2 y^2: by volume the windows of 2n = 2 and -4 hold at least 4965
    # and 7498 points, past a cut of 2000, but their walks meet a witness at
    # points 1423 and 1892; the first witness of 2n = 14 is at point 6653
    monkeypatch.setattr(predict, "RANK2_GUARD", 2000)
    P = direct_sum(rank1(2), rank1(-4))
    for two_n in (2, -4):
        r = represents_on_coset(P, None, two_n)
        assert r.representable and r.exact
        x, y = r.witness
        assert 2 * x * x - 4 * y * y == two_n
    assert represents_on_coset(P, None, 14) == RepresentabilityResult(True, False)


def test_rank2_representability_vs_brute():
    P = direct_sum(rank1(2), rank1(-4))  # x^2 - 2 y^2

    def brute(n, box=60):
        return any(x * x - 2 * y * y == n
                   for x in range(-box, box + 1) for y in range(-box, box + 1))

    for n in range(-15, 16):
        if n == 0:
            continue
        r = represents_on_coset(P, None, 2 * n)
        assert r.exact
        assert r.representable == brute(n), n
        if r.witness is not None:
            x, y = r.witness
            assert x * x - 2 * y * y == n


def test_k3_sublattice_canonical():
    P, rows = k3_sublattice(two_d=2)
    assert P.gram == ((2,),)
    assert rows[0][:2] == (1, 1)
    with pytest.raises(PredictError):
        k3_sublattice(two_d=3)


def test_k3_predict(v_lattice):
    k = k3_predict((0,), 5, 1.0, two_d=2, prime_bound=20)
    assert k.rho == 1
    assert k.exponent == Fraction(19, 2)
    assert k.disc_match
    assert k.v_lattice.rank == 21
    assert k.v_lattice.discriminant_group().invariant_factors == (2,)
    assert float(k.prediction) > 0
    assert not k.coset_representable.representable  # 5 is not a square
    k4 = k3_predict((0,), 4, 1.0, two_d=2, prime_bound=20)
    assert k4.coset_representable.representable


def test_k3_predict_rejects_bad_sublattices():
    with pytest.raises(PredictError):
        k3_predict((0,), 1, 1.0, rows=[[1] + [0] * 21, [0, 1] + [0] * 20])  # U
    with pytest.raises(PredictError):
        k3_predict((0,), 1, 1.0, rows=[[2, 2] + [0] * 20])  # imprimitive
    neg = [0] * 22
    neg[6] = 1
    with pytest.raises(PredictError):
        k3_predict((0,), 1, 1.0, rows=[neg])  # negative definite, not Lorentzian


def test_elliptic_census():
    total, rows = elliptic_census_prediction(4, 1.0, two_d=2, prime_bound=10)
    zero_gamma = [float(r.s) for r in rows if r.gamma == (0,)]
    assert zero_gamma == [1.0, 4.0]  # perfect squares only
    assert float(total) > 0
    assert all(r.representable_exact for r in rows)
    # growth: cumulative prediction is nondecreasing in n_max
    t2, _ = elliptic_census_prediction(2, 1.0, two_d=2, prime_bound=10)
    assert float(total) >= float(t2)


def test_census_rejects_isotropic_disc():
    # two_d = 8: disc group Z/8 with Q(k) = k^2/16, so k = 4 is isotropic
    with pytest.raises(PredictError):
        elliptic_census_prediction(2, 1.0, two_d=8, prime_bound=10)
