import itertools
import random
from fractions import Fraction

import pytest

from hyperlat.cusps import cusp_datum
from hyperlat.densities import eisenstein_coefficient
from hyperlat.fqm import discriminant_group
from hyperlat.exactla import NodeGuardExceeded, frac_mat_inv
from hyperlat.lattices import (
    IntegerLattice,
    direct_sum,
    e8,
    hyperbolic_plane,
    rank1,
)
import hyperlat.qseries as qs
from hyperlat.qseries import (
    QSeriesError,
    a_coeff,
    e2_series,
    multiply,
    theta_series,
    u_coeff,
)
from conftest import mixed_e8_sum


def test_theta_rank0():
    zero = direct_sum()
    th = theta_series(rank1(-2), 0)
    assert th.coefficient((0,), 0) == 1


def test_theta_rank1_example():
    th = theta_series(rank1(-2), 5)
    assert th.coefficient((0,), 0) == 1
    assert th.coefficient((0,), 1) == 2
    assert th.coefficient((0,), 4) == 2
    assert th.coefficient((0,), 2) == 0
    assert th.coefficient((1,), Fraction(1, 4)) == 2
    assert th.coefficient((1,), Fraction(9, 4)) == 2
    with pytest.raises(QSeriesError):
        th.coefficient((0,), 6)  # beyond truncation


def test_theta_requires_definite():
    with pytest.raises(QSeriesError):
        theta_series(hyperbolic_plane(), 2)
    with pytest.raises(QSeriesError):
        theta_series(rank1(2), 2)


def _box_scan_e8_std(order):
    """Independent oracle in the integer model of the rank-8 unimodular
    lattice: integer or all-half-integer 8-tuples with even sum."""
    counts = {}
    rng = range(-2, 3)
    for v in itertools.product(rng, repeat=8):
        if sum(v) % 2:
            continue
        q = Fraction(sum(x * x for x in v), 2)
        if q <= order:
            counts[q] = counts.get(q, 0) + 1
    halves = [Fraction(2 * k + 1, 2) for k in range(-2, 2)]
    for v in itertools.product(halves, repeat=8):
        if sum(v).denominator != 1 or int(sum(v)) % 2:
            continue
        q = sum(x * x for x in v) / 2
        if q <= order:
            counts[q] = counts.get(q, 0) + 1
    return counts


def test_theta_e8_against_box_scan():
    th = theta_series(e8(-1), 2)
    got = {e: int(c) for (g, e), c in th.coefficients.items()}
    oracle = {Fraction(k): v for k, v in _box_scan_e8_std(2).items()}
    assert got == oracle
    assert got[Fraction(0)] == 1
    assert got[Fraction(1)] == 240
    assert got[Fraction(2)] == 2160


def _permuted(L, perm):
    """L in its basis taken in the order perm."""
    return IntegerLattice([[L.gram[i][j] for j in perm] for i in perm])


def _walked_and_closed(K, order, monkeypatch):
    closed = theta_series(K, order)
    with monkeypatch.context() as m:
        m.setattr(qs, "even_unimodular_theta", lambda gram, width: None)
        walked = theta_series(K, order)
    return closed, walked


def test_theta_closed_form_against_the_walk(monkeypatch):
    # seeded sums of E8(-1) and small components, in a shuffled basis: the
    # series with E8(-1)'s factor in closed form is the walked one at every
    # class and exponent, to the byte
    rng = random.Random(31)
    classes = []
    small = [rank1(-2), rank1(-4), rank1(-6), rank1(-8),
             IntegerLattice(((-2, 1), (1, -4))), IntegerLattice(((-4, 1), (1, -4)))]
    for _ in range(12):
        parts = [e8(-1)] + rng.sample(small, rng.randint(0, 2))
        K = direct_sum(*parts)
        perm = list(range(K.rank))
        rng.shuffle(perm)
        K = _permuted(K, perm)
        order = Fraction(rng.randint(0, 8), 4)
        closed, walked = _walked_and_closed(K, order, monkeypatch)
        assert closed.dump_csv() == walked.dump_csv()
        assert closed.coefficients == walked.coefficients
        classes.append(len({cls for cls, _ in closed.coefficients}))
    assert sum(k > 1 for k in classes) >= 6, classes


def test_theta_of_a_rank16_component_against_the_walk(monkeypatch):
    # E8 + E8 in a basis that mixes the two is one component, in closed form
    # (480 sigma_7), beside <-2>; two E8(-1) components multiply
    for K in (direct_sum(mixed_e8_sum(-1), rank1(-2)), direct_sum(e8(-1), e8(-1))):
        closed, walked = _walked_and_closed(K, 2, monkeypatch)
        assert closed.dump_csv() == walked.dump_csv()
    assert closed.coefficient((), 2) == 480 * 129


def test_theta_closed_form_product_is_guarded():
    # the closed form answers E8(-1) to order 40, which the walk refuses;
    # a product past THETA_NODE_GUARD terms is refused before it is formed
    th = theta_series(e8(-1), 40)
    assert th.coefficient((), 40) == 240 * sum(d ** 3 for d in (1, 2, 4, 5, 8, 10, 20, 40))
    with pytest.raises(NodeGuardExceeded, match="closed-form theta product of 1000001 terms"):
        theta_series(e8(-1), 10 ** 6)
    with pytest.raises(NodeGuardExceeded, match="exceeds guard 1000000"):
        theta_series(direct_sum(e8(-1), e8(-1)), 1500)


def test_theta_non_diagonal_against_box_scan():
    # a non-diagonal rank-3 negative definite lattice with |D| = 40
    K = IntegerLattice(((-2, 1, 0), (1, -4, 1), (0, 1, -6)))
    order = 3
    th = theta_series(K, order)
    D = discriminant_group(K)
    # oracle: every dual vector y = G^{-1} m over a box of integer m; the
    # box holds all of them since m^T (-G)^{-1} m <= 2 order bounds |m_i|
    # by sqrt(2 order (-G)_ii) <= 6
    ginv = frac_mat_inv(K.gram)
    oracle = {}
    for m in itertools.product(range(-8, 9), repeat=3):
        y = [sum(ginv[i][j] * m[j] for j in range(3)) for i in range(3)]
        e = -K.q_of(y)
        if e <= order:
            key = (D.class_of(y), e)
            oracle[key] = oracle.get(key, 0) + 1
    assert {k: int(c) for k, c in th.coefficients.items()} == oracle
    assert len({cls for cls, _ in oracle}) == 40


def test_theta_symmetry_and_positivity():
    K = direct_sum(rank1(-2), rank1(-6))
    th = theta_series(K, 3)
    D = discriminant_group(K)
    assert th.coefficient(D.zero, 0) == 1
    for (elt, e), c in th.coefficients.items():
        assert c > 0 and c == int(c)
        assert th.coefficient(D.neg(elt), e) == c


def test_theta_class_sum_matches_dual_count():
    # sum over classes at exponent m = number of dual vectors of that norm
    K = rank1(-4)
    th = theta_series(K, 2)
    by_exp = {}
    for (elt, e), c in th.coefficients.items():
        by_exp[e] = by_exp.get(e, 0) + c
    # dual of <-4> is generated by e/4 with -Q(k e/4) = k^2/8
    oracle = {}
    for k in range(-20, 21):
        q = Fraction(k * k, 8)
        if q <= 2:
            oracle[q] = oracle.get(q, 0) + 1
    assert by_exp == oracle


def test_e2_series():
    e2 = e2_series(5)
    assert e2.coefficient((), 0) == 1
    assert e2.coefficient((), 1) == -24
    assert e2.coefficient((), 2) == -72
    assert e2.coefficient((), 3) == -96
    assert e2.coefficient((), 5) == -144


def test_multiply():
    th = theta_series(rank1(-2), 4)
    e2 = e2_series(4)
    prod = multiply(e2, th)
    assert prod.coefficient((0,), 1) == -22  # 1*2 + (-24)*1
    assert prod.coefficient((0,), 0) == 1
    # scalar multiply and commutativity in the scalar factor
    assert multiply(3, th).coefficient((0,), 1) == 6
    assert multiply(Fraction(1, 2), th).coefficient((1,), Fraction(1, 4)) == 1
    prod2 = multiply(th, e2)
    assert prod2.coefficients == prod.coefficients
    assert prod.truncation_order == 4


def test_multiply_scalar_associativity():
    e2 = e2_series(3)
    a = multiply(e2, multiply(e2, e2))
    b = multiply(multiply(e2, e2), e2)
    assert a.coefficients == b.coefficients


def test_multiply_rejects_two_vector_series():
    th = theta_series(rank1(-2), 2)
    with pytest.raises(QSeriesError):
        multiply(th, th)


def _canonical_cusp():
    V = direct_sum(hyperbolic_plane(), hyperbolic_plane(), rank1(-2))
    return V, cusp_datum(V, [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0]])


def test_a_coeff():
    V, F = _canonical_cusp()
    assert a_coeff((0,), 0, F) == Fraction(1, 24)   # N_F / 24
    # support condition: n not congruent to -Q(gamma) gives 0
    assert a_coeff((1,), 1, F) == 0
    # explicit value: theta of <-2> pulled back, times E2
    # (E2 . p* theta)(0, 1) = -22, so a = -22/24
    assert a_coeff((0,), 1, F) == Fraction(-22, 24)


def test_u_coeff_zero_at_origin():
    V, F = _canonical_cusp()
    c00 = eisenstein_coefficient(None, 0, V, 10)
    u = u_coeff((0,), 0, F, c00)
    assert u.exact == 0


def test_u_coeff_approximate_flag():
    V, F = _canonical_cusp()
    c = eisenstein_coefficient(None, 1, V, 30)
    u = u_coeff((0,), 1, F, c)
    assert u.approximate
    # u = (c/2) a(0,0) - a(0,1) with the known pieces
    expected = float(c) / 2 * (1 / 24) - (-22 / 24)
    assert abs(float(u) - expected) < 1e-9


def test_u_coeff_keeps_its_digits_through_the_cancellation():
    # u = (c/2) a(0,0,F) - a(0,5,F) = -21.99996... + 22: about six digits
    # cancel.  The reference is the same difference with every step at 60
    # digits; at 15 digits the relative error was 4.8e-12.
    V, F = _canonical_cusp()
    u = u_coeff((0,), 5, F, eisenstein_coefficient(None, 5, V, 60))
    assert u.approximate
    assert abs(float(u) / 3.7906633220604358079278028763e-05 - 1) < 1e-14


def test_csv_dump_sorted():
    th = theta_series(rank1(-2), 3)
    lines = th.dump_csv().splitlines()
    assert lines[0] == "gamma_index,exp_num,exp_den,coeff_num,coeff_den"
    exps = []
    for line in lines[1:]:
        g, en, ed, cn, cd = line.split(",")
        exps.append((Fraction(int(en), int(ed)), int(g)))
    assert exps == sorted(exps)
