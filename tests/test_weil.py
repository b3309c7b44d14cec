import io
import json
from fractions import Fraction

import numpy as np
import pytest

from hyperlat.cli import main, parse_lattice_spec
from hyperlat.fqm import FiniteQuadraticModule, discriminant_group, isotropic_subgroups, quotient_with_projection, overlattice
from hyperlat.lattices import Signature, direct_sum, hyperbolic_plane, rank1
from hyperlat.weil import (
    WeilAction,
    WeilError,
    dump_matrix,
    intertwining_defect,
    pullback_matrix,
    pushforward_matrix,
    rho_S,
    rho_T,
    rows_S,
    rows_T,
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
        for dual in (False, True):
            report = verify_relations(WeilAction(D, L.signature(), dual=dual))
            assert report["unitarity"] <= TOL
            assert report["braid"] <= TOL
            assert report["t_order"] <= TOL


def test_relations_fail_on_a_moved_signature(v_lattice):
    # moving b- - b+ by 2 turns c by e(1/4), so c G = i or -i, not 1
    D = discriminant_group(v_lattice)
    sig = v_lattice.signature()
    for moved in (Signature(sig.positive, sig.negative + 2),
                  Signature(sig.positive + 2, sig.negative)):
        with pytest.raises(WeilError, match="braid"):
            verify_relations(WeilAction(D, moved))


@pytest.mark.parametrize("module, signature, match", [
    # Z/4 with Q(e) = 1/8 and b(e, e) = 4/8, not 2/8
    (FiniteQuadraticModule((4,), 8, (1,), ((4,),)), Signature(1, 0), "not a quadratic form"),
    # Z/2 with Q = 0: the generator pairs to 0 with everything
    (FiniteQuadraticModule((2,), 2, (0,), ((0,),)), Signature(2, 2), "degenerate"),
    # (Z/4)^2 with b(e1, e2) = 1/4 and b(e2, e1) = 3/4: d |c|^2 = 1 and c G = 1
    # hold, yet the dense S^2 and (ST)^3 differ by 1.5
    (FiniteQuadraticModule((4, 4), 4, (0, 0), ((0, 1), (3, 0))), Signature(2, 2),
     "not a symmetric pairing"),
], ids=["b-not-twice-q", "degenerate", "asymmetric"])
def test_relations_fail_on_a_module_that_is_not_one(module, signature, match):
    with pytest.raises(WeilError, match=match):
        verify_relations(WeilAction(module, signature))


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


def _dumped(rows) -> str:
    out = io.StringIO()
    dump_matrix(rows, out)
    return out.getvalue()


def test_dump_matrix_format(v_lattice):
    # T's zeros print 0,0, and their conjugates 0,-0 for the dual
    D = discriminant_group(v_lattice)
    plain, dual = (WeilAction(D, v_lattice.signature(), dual=x) for x in (False, True))
    assert _dumped(rows_T(plain)) == "1,0 0,0\n0,0 -1.8369701987210297e-16,-1\n"
    assert _dumped(rows_T(dual)) == "1,-0 0,-0\n0,-0 -1.8369701987210297e-16,1\n"
    assert _dumped(rows_S(plain)) == ("0.5,0.49999999999999994 0.5,0.49999999999999994\n"
                                      "0.5,0.49999999999999994 -0.49999999999999994,-0.5\n")


def _entry(z) -> str:
    return f"{z.real:.17g},{z.imag:.17g}"


def _dump_per_entry(m):
    """Each entry formatted on its own: the oracle of the printed rows."""
    return "\n".join(" ".join(map(_entry, row)) for row in np.atleast_2d(m))


def test_dump_matrix_matches_the_per_entry_format():
    for L in small_test_lattices():
        D = discriminant_group(L)
        for dual in (False, True):
            w = WeilAction(D, L.signature(), dual=dual)
            s_text = _dumped(rows_S(w))
            assert s_text == _dump_per_entry(rho_S(w)) + "\n"
            assert _dumped(rows_T(w)) == _dump_per_entry(rho_T(w)) + "\n"
            # rho(S) takes at most N values, each with one text
            assert len(set(s_text.split())) <= D.level


def _dense_weil(w):
    """rho(S) and rho(T) built densely in numpy, apart from the rows: the
    unit roots read at the |D| x |D| table of pairings and scaled by numpy's
    complex multiply.  The oracle of the printed matrices."""
    D, d, sig = w.module, w.dim, w.signature
    roots = np.array([np.exp(-2j * np.pi * float(Fraction(k, D.level)))
                      for k in range(D.level)])
    scalar = np.exp(1j * np.pi * (sig.negative - sig.positive) / 4) / np.sqrt(d)
    k = D.ngens
    gens = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    xb = np.array(D.pairing_numerators(w.elements, gens), dtype=np.int64).reshape(d, k)
    y = np.array(w.elements, dtype=np.int64).reshape(d, k)
    pairs = xb @ y.T
    pairs %= D.level
    s = scalar * roots[pairs]
    del pairs
    t = np.diag(roots[D.q_numerators(w.elements)].conj() + 0.0)
    if w.dual:  # conjugating is exact, so in place
        np.conj(s, out=s)
        np.conj(t, out=t)
    return s, t


class _LineSink:
    """A stdout for main that hands each complete line to ``take``, so a
    large matrix is checked a row at a time, not held as text."""

    def __init__(self, take):
        self.take = take
        self.rest = ""

    def write(self, text):
        lines = (self.rest + text).split("\n")
        self.rest = lines.pop()
        for line in lines:
            self.take(line)

    def flush(self):
        pass


def _dense_residuals(s, phases, rows=256):
    """max |S S* - 1| and max |S^2 - (ST)^3| of the matrices S and
    T = diag(phases), by blocks of rows, so no more than S is held whole."""
    unitary = braid = 0.0
    for lo in range(0, len(s), rows):
        block = s[lo:lo + rows]
        u = block.conj() @ s.T  # the conjugate of these rows of S S*
        u[np.arange(len(block)), lo + np.arange(len(block))] -= 1
        unitary = max(unitary, np.abs(u).max())
        st3 = block * phases
        for _ in range(2):
            st3 = (st3 @ s) * phases
        braid = max(braid, np.abs(block @ s - st3).max())
    return unitary, braid


SMALL_SPECS = [f"small-{i}" for i in range(len(small_test_lattices()))]


@pytest.mark.parametrize("dual", [False, True], ids=["plain", "dual"])
@pytest.mark.parametrize("spec", SMALL_SPECS + ["U+U+rank1(-200)", "U+U+rank1(-2000)"])
def test_printed_matrices_match_the_dense_construction(spec, dual, tmp_path):
    # The header and T are the dense construction's, byte for byte.  S may
    # move in its last digits: numpy's vectorised complex multiply rounds
    # with or without FMA by array length and CPU, the rows' Python
    # multiply never does.
    if spec.startswith("small-"):
        L = small_test_lattices()[int(spec[6:])]
        spec = str(tmp_path / "lattice.json")
        (tmp_path / "lattice.json").write_text(json.dumps({"gram": [list(r) for r in L.gram]}))
    L = parse_lattice_spec(spec)
    w = WeilAction(discriminant_group(L), L.signature(), dual=dual)
    s_old, t_old = _dense_weil(w)
    d = w.dim
    phases, zero = t_old.diagonal().copy(), t_old[0, -1]
    t_old[np.diag_indices(d)] = zero
    bits = t_old.view(np.uint64).reshape(-1, 2)
    assert (bits == bits[:1]).all()  # every zero of T is the same double
    del t_old, bits
    t_want = [(_entry(zero) + " ") * i + _entry(phases[i]) + (" " + _entry(zero)) * (d - 1 - i)
              for i in range(d)]
    s_new = np.empty((d, d), dtype=complex)
    lines = []
    worst = 0.0

    def take(line):
        nonlocal worst
        if len(lines) > d + 3:  # past the "matrix,S" line
            i = len(lines) - d - 4
            s_new[i] = np.array(line.replace(",", " ").split(), dtype=float).view(complex)
            worst = max(worst, (np.abs(s_new[i] - s_old[i]) / np.abs(s_old[i])).max())
            line = None
        lines.append(line)

    assert main(["weil", "--lattice", spec] + ["--dual"] * dual, out=_LineSink(take)) == 0
    assert len(lines) == 2 * d + 4
    assert lines[0] == f"# lattice={spec} dual={dual}"
    assert lines[1].startswith("# relations unitarity=")
    assert lines[2] == "matrix,T" and lines[d + 3] == "matrix,S"
    assert lines[3:d + 3] == t_want
    assert worst <= 1e-15
    del s_old
    unitary, braid = _dense_residuals(s_new, phases)
    assert unitary < 1e-12 and braid < 1e-12
