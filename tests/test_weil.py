from fractions import Fraction

import numpy as np
import pytest

from hyperlat.fqm import FiniteQuadraticModule, discriminant_group, isotropic_subgroups, quotient_with_projection, overlattice
from hyperlat.lattices import direct_sum, hyperbolic_plane, rank1
from hyperlat.weil import (
    WeilAction,
    dump_matrix,
    intertwining_defect,
    pullback_matrix,
    pushforward_matrix,
    rho_S,
    rho_T,
    verify_relations,
)
from conftest import small_test_lattices

TOL = 1e-9


def test_rho_t_diagonal_values(v_lattice):
    D = discriminant_group(v_lattice)
    w = WeilAction(D, v_lattice.signature())
    t = rho_T(w)
    assert np.allclose(np.diag(t), [1, -1j])
    assert np.allclose(t, np.diag(np.diag(t)))


def test_rho_s_example(v_lattice):
    D = discriminant_group(v_lattice)
    w = WeilAction(D, v_lattice.signature())
    s = rho_S(w)
    expected = np.exp(1j * np.pi / 4) / np.sqrt(2) * np.array([[1, 1], [1, -1]])
    assert np.abs(s - expected).max() < TOL


def test_trivial_module_matrices():
    U2 = direct_sum(hyperbolic_plane(), hyperbolic_plane())
    D = discriminant_group(U2)
    w = WeilAction(D, U2.signature())
    assert rho_T(w).shape == (1, 1)
    assert abs(rho_S(w)[0, 0] - 1.0) < TOL  # signature (2,2): scalar 1


def test_relations_across_test_lattices():
    for L in small_test_lattices():
        D = discriminant_group(L)
        if D.order > 16:
            continue
        w = WeilAction(D, L.signature())
        report = verify_relations(w)
        assert report["unitarity"] <= TOL
        assert report["braid"] <= TOL
        assert report["t_order"] <= TOL


def test_t_power_matches_level(v8_lattice):
    D = discriminant_group(v8_lattice)
    w = WeilAction(D, v8_lattice.signature())
    t = rho_T(w)
    assert np.abs(np.linalg.matrix_power(t, 16) - np.eye(8)).max() < TOL
    assert np.abs(np.linalg.matrix_power(t, 8) - np.eye(8)).max() > 0.5


def test_rho_s_entries_from_generator_lifts():
    # S_xy = scalar * exp(-2 pi i (lift x, lift y)), the pairing taken in L
    for L in small_test_lattices():
        D = discriminant_group(L)
        if D.order > 100:
            continue
        sig = L.signature()
        scalar = np.exp(1j * np.pi * (sig.negative - sig.positive) / 4) / np.sqrt(D.order)
        lifts = [D.lift(x) for x in D.elements()]
        expected = np.array([[scalar * np.exp(-2j * np.pi * float(L.pairing(x, y) % 1))
                              for y in lifts] for x in lifts])
        for dual in (False, True):
            s = rho_S(WeilAction(D, sig, dual=dual))
            want = expected.conj() if dual else expected
            assert np.abs(s - want).max() < TOL


def test_weil_matrices_use_no_scalar_pairings(monkeypatch):
    L = direct_sum(hyperbolic_plane(), hyperbolic_plane(), rank1(-800))
    D = discriminant_group(L)
    w = WeilAction(D, L.signature())
    q_expected = [D.q_value(x) for x in w.elements[:5]]

    def refuse(*args):
        raise AssertionError("scalar pairing called")

    monkeypatch.setattr(FiniteQuadraticModule, "bilinear", refuse)
    monkeypatch.setattr(FiniteQuadraticModule, "q_value", refuse)
    s = rho_S(w)
    t = rho_T(w)
    assert s.shape == t.shape == (800, 800)
    assert np.abs(s @ s.conj().T - np.eye(800)).max() < TOL
    want = [np.exp(2j * np.pi * float(q)) for q in q_expected]
    assert np.abs(np.diag(t)[:5] - want).max() < TOL


def test_dual_is_conjugate(v_lattice):
    D = discriminant_group(v_lattice)
    w = WeilAction(D, v_lattice.signature())
    wd = WeilAction(D, v_lattice.signature(), dual=True)
    assert np.allclose(rho_S(wd), rho_S(w).conj())
    assert np.allclose(rho_T(wd), rho_T(w).conj())


def _gluing(v8):
    D8 = discriminant_group(v8)
    H = [h for h in isotropic_subgroups(D8) if h.order == 2][0]
    K, proj = quotient_with_projection(D8, H)
    vbar = overlattice(v8, H)
    w_big = WeilAction(D8, v8.signature())
    w_small = WeilAction(K, vbar.signature())
    return w_big, w_small, proj, H


def test_pullback_fibers(v8_lattice):
    w_big, w_small, proj, H = _gluing(v8_lattice)
    p = pullback_matrix(w_big, w_small, proj)
    # v_0 -> v_0 + v_4 and v_gen -> v_2 + v_6
    assert list(p[:, 0]) == [1, 0, 0, 0, 1, 0, 0, 0]
    assert list(p[:, 1]) == [0, 0, 1, 0, 0, 0, 1, 0]
    pf = pushforward_matrix(w_big, w_small, proj)
    # v_1 -> 0 (not in the orthogonal), v_2 -> v_gen
    assert pf[:, 1].sum() == 0
    assert pf[1, 2] == 1


def test_pushforward_pullback_scales(v8_lattice):
    w_big, w_small, proj, H = _gluing(v8_lattice)
    p = pullback_matrix(w_big, w_small, proj)
    pf = pushforward_matrix(w_big, w_small, proj)
    assert np.allclose(pf @ p, H.order * np.eye(w_small.dim))


def test_intertwining(v8_lattice):
    w_big, w_small, proj, _ = _gluing(v8_lattice)
    assert intertwining_defect(w_big, w_small, proj) <= TOL


def test_dump_matrix_format():
    m = np.array([[1 + 2j, 0], [0.5, -1j]])
    text = dump_matrix(m)
    lines = text.splitlines()
    assert lines[0].split(" ")[0] == "1,2"
    assert lines[1].split(" ")[1] == "-0,-1"


def _dump_per_entry(m):
    """Each entry formatted on its own: the formatter dump_matrix replaced,
    kept as its oracle."""
    return "\n".join(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row)
                     for row in np.atleast_2d(m))


def test_dump_matrix_matches_the_per_entry_format():
    for L in small_test_lattices():
        D = discriminant_group(L)
        for dual in (False, True):
            w = WeilAction(D, L.signature(), dual=dual)
            for m in (rho_S(w), rho_T(w)):
                assert dump_matrix(m) == _dump_per_entry(m)
    # signed zeros in both parts keep their signs; repeated values share text
    zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
    third = complex(1 / 3, -2.5e-300)
    hand = np.array([zeros + zeros, [third, -third, third, 0.5j, -0.5j, third, 1e17, -1e-17]])
    text = dump_matrix(hand)
    assert text == _dump_per_entry(hand)
    assert text.splitlines()[0].split(" ")[:4] == ["0,0", "0,-0", "-0,0", "-0,-0"]
