"""Acceptance suite: one test per shipped criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is pinned here, not configurable.
"""

import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hyperlat.cli import main as cli_main
from hyperlat.cusps import cusp_datum
from hyperlat.densities import (
    count_solutions_naive,
    count_solutions_split,
    eisenstein_coefficient,
    local_density,
    singular_series,
)
from hyperlat.fqm import (
    discriminant_group,
    isotropic_subgroups,
    overlattice,
    quotient_with_projection,
    subgroup_generated,
)
from hyperlat.hyperboloid import (
    Window,
    equidistribution_run,
    mu_a0,
    mu_infty,
    splitting_frame,
)
from hyperlat.lattices import IntegerLattice, LatticeError, direct_sum, e8, hyperbolic_plane, rank1
from hyperlat.qseries import theta_series, u_coeff
from hyperlat.weil import WeilAction, intertwining_defect, rho_S, rho_T

from conftest import small_test_lattices
from test_qseries import _box_scan_e8_std


def _v():
    U = hyperbolic_plane()
    return direct_sum(U, U, rank1(-2))


def _v8():
    U = hyperbolic_plane()
    return direct_sum(U, U, rank1(-8))


def _report(num, text):
    print(f"ACCEPTANCE {num}: {text} ... PASS")


def test_criterion_01_exact_constant():
    """c(0, 0) = 2 exactly."""
    c = eisenstein_coefficient(None, 0, _v(), 10)
    assert c.exact == Fraction(2)
    _report(1, "eisenstein constant term equals 2 exactly")


def test_criterion_02_oracle_equivalence():
    """Split counter = exhaustive counter on >= 200 randomized cases."""
    rng = random.Random(2024)
    cases = 0
    while cases < 200:
        r = rng.randint(1, 4)
        while True:
            g = [[0] * r for _ in range(r)]
            for i in range(r):
                g[i][i] = 2 * rng.randint(-4, 4)
                for j in range(i + 1, r):
                    g[i][j] = g[j][i] = rng.randint(-3, 3)
            try:
                L = IntegerLattice(tuple(tuple(row) for row in g))
                break
            except LatticeError:
                continue
        D = discriminant_group(L)
        if D.order > 400:
            continue
        gamma = rng.choice(D.elements())
        n = -L.q_of(D.lift(gamma)) + rng.randint(1, 8)
        while True:
            p = rng.choice([2, 3, 5])
            s = rng.randint(1, 3)
            if (p ** s) ** r <= 3 * 10 ** 7:
                break
        naive = count_solutions_naive(gamma, n, L, p ** s)
        split = count_solutions_split(gamma, n, L, p, s)
        assert naive == split, (L.gram, gamma, n, p, s, naive, split)
        cases += 1
    _report(2, f"split = naive on {cases} random (lattice, gamma, n, p, s)")


def test_criterion_03_hand_verified_count():
    """N(0, 1, U+U+<-2>, 5) = 650 and mu_5 = 26/25, witnessed at s = 1 vs 2."""
    V = _v()
    assert count_solutions_naive(None, 1, V, 5) == 650
    rep = local_density(None, 1, V, 5)
    assert rep.density == Fraction(26, 25)
    assert rep.stabilization_exponent == 1
    assert rep.raw_counts[0] == 650
    assert Fraction(rep.raw_counts[0], 5 ** 4) == Fraction(rep.raw_counts[1], 5 ** 8)
    _report(3, "N(0,1,V,5) = 650 with mu_5 = 26/25 witnessed at s=1 vs s=2")


def test_criterion_04_stabilization_suite():
    """50 random density computations never fail to stabilize."""
    rng = random.Random(77)
    U = hyperbolic_plane()
    cases = 0
    while cases < 50:
        if rng.random() < 0.5:
            r = rng.randint(2, 3)
            while True:
                g = [[0] * r for _ in range(r)]
                for i in range(r):
                    g[i][i] = 2 * rng.randint(-3, 3)
                    for j in range(i + 1, r):
                        g[i][j] = g[j][i] = rng.randint(-2, 2)
                try:
                    L = IntegerLattice(tuple(tuple(row) for row in g))
                    break
                except LatticeError:
                    continue
        else:
            L = direct_sum(U, U, rank1(rng.choice([-2, -4, -6, -8])))
        D = discriminant_group(L)
        if D.order > 200:
            continue
        gamma = rng.choice(D.elements())
        n = -L.q_of(D.lift(gamma)) + rng.randint(1, 6)
        if n <= 0:
            continue
        p = rng.choice([2, 3, 5, 7])
        rep = local_density(gamma, n, L, p)  # must not raise
        norm_exp = L.rank - 1
        s0 = rep.stabilization_exponent
        assert Fraction(rep.raw_counts[s0 - 1], p ** (norm_exp * s0)) == \
            Fraction(rep.raw_counts[s0], p ** (norm_exp * (s0 + 1)))
        cases += 1
    _report(4, "50 random local densities stabilized with witnesses")


def test_criterion_05_weil_relations():
    """Unitarity, braid, T-order <= 1e-9 for |D| <= 16; Z/8 intertwining."""
    tol = 1e-9
    checked = 0
    for L in small_test_lattices():
        D = discriminant_group(L)
        if D.order > 16:
            continue
        w = WeilAction(D, L.signature())
        s = rho_S(w)
        t = rho_T(w)
        eye = np.eye(w.dim)
        assert np.abs(s @ s.conj().T - eye).max() <= tol
        st = s @ t
        assert np.abs(s @ s - st @ st @ st).max() <= tol
        assert np.abs(np.linalg.matrix_power(t, D.level) - eye).max() <= tol
        checked += 1
    v8 = _v8()
    D8 = discriminant_group(v8)
    H = [h for h in isotropic_subgroups(D8) if h.order == 2][0]
    K, proj = quotient_with_projection(D8, H)
    vbar = overlattice(v8, H)
    defect = intertwining_defect(WeilAction(D8, v8.signature()),
                                 WeilAction(K, vbar.signature()), proj)
    assert defect <= tol
    _report(5, f"metaplectic relations on {checked} modules; "
               f"Z/8 gluing intertwining defect {defect:.2e}")


def test_criterion_06_theta_oracle():
    """E8(-1) theta coefficients (1, 240, 2160) against an independent scan."""
    th = theta_series(e8(-1), 2)
    got = {e: int(c) for (g, e), c in th.coefficients.items()}
    assert got[Fraction(0)] == 1
    assert got[Fraction(1)] == 240
    assert got[Fraction(2)] == 2160
    oracle = {Fraction(k): v for k, v in _box_scan_e8_std(2).items()}
    assert got == oracle
    _report(6, "E8(-1) theta (1, 240, 2160) matches the box-scan oracle")


def test_criterion_07_cusp_data():
    """Canonical cusp of U+U+<-2>: N = 1, K = [[-2]], u(0,0,F) = 0."""
    V = _v()
    F = cusp_datum(V, [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0]])
    assert F.imprimitivity == 1
    assert F.kf_lattice.gram == ((-2,),)
    assert F.strongly_primitive
    assert abs(V.det) == abs(F.kf_lattice.det) * F.imprimitivity ** 2
    c00 = eisenstein_coefficient(None, 0, V, 10)
    u = u_coeff((0,), 0, F, c00)
    assert u.exact == 0
    _report(7, "canonical cusp: N=1, K=[[-2]], strongly primitive, u(0,0)=0")


def test_criterion_08_measure_constant():
    """mu_infty / mu_a0 = 2 within 2 percent at a million samples."""
    V = _v()
    win = Window(splitting_frame(V), Fraction(1))
    ma, ea = mu_a0(win, 10 ** 6, seed=2718)
    mi, ei = mu_infty(win, 10 ** 6, seed=2718)
    ratio = mi / ma
    assert abs(ratio / 2.0 - 1.0) < 0.02, (ratio, ma, mi)
    _report(8, f"mu_infty/mu_a0 = {ratio:.5f} within 2% of 2")


def test_criterion_09_equidistribution_experiment():
    """Mean empirical/predicted in [0.8, 1.2] over n in [300, 600], no drift."""
    V = _v()
    win = Window(splitting_frame(V), Fraction(1))
    summary = equidistribution_run(V, None, win, 300, 600,
                                   prime_bound=100, samples=10 ** 6, seed=5)
    assert len(summary.reports) == 301
    assert 0.8 <= summary.mean_ratio <= 1.2, summary.mean_ratio
    drift = abs(summary.first_half_mean - summary.second_half_mean)
    assert drift < 0.15, drift
    _report(9, f"mean ratio {summary.mean_ratio:.4f}, drift {drift:.4f} "
               f"over 301 values of n")


def test_criterion_10_overlattice_relation():
    """Z/8 gluing produces U+U+<-2>; coefficient sums match within 10%."""
    v8 = _v8()
    D8 = discriminant_group(v8)
    H = subgroup_generated(D8, [(4,)])
    vbar_generic = overlattice(v8, H)
    expected = _v()
    assert vbar_generic.gram == expected.gram
    vbar = expected  # same gram, with block metadata for fast counting
    _, proj = quotient_with_projection(D8, H)
    ratios = []
    for n in range(100, 401):
        lhs = sum(float(eisenstein_coefficient(t, n, v8, 100))
                  for t in H.elements)
        rhs = float(eisenstein_coefficient(proj[(0,)], n, vbar, 100))
        ratios.append(lhs / rhs)
    assert all(0.9 <= r <= 1.1 for r in ratios), (min(ratios), max(ratios))
    _report(10, f"overlattice gram matches; coefficient-sum ratio in "
                f"[{min(ratios):.6f}, {max(ratios):.6f}]")


def test_criterion_11_cli_determinism():
    """Identical flags and seed give byte-identical CSV for count and eis."""
    count_args = ["count", "--lattice", "U+U+rank1(-2)", "--rho", "1",
                  "--nmin", "40", "--nmax", "45", "--seed", "9",
                  "--samples", "200000", "--prime-bound", "50",
                  "--workers", "2"]
    eis_args = ["eis", "--lattice", "U+U+rank1(-8)", "--gamma", "2",
                "--nmax", "3", "--prime-bound", "50"]
    outs = []
    for args in (count_args, eis_args):
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            assert cli_main(args, out=buf) == 0
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        outs.append(bufs[0])
    assert outs[0]
    _report(11, "count and eis CSV output byte-identical across reruns")
