import io
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import hyperlat.hyperboloid as hyp
from hyperlat.hyperboloid import (
    EnumGuardExceeded,
    HyperboloidError,
    PointCount,
    SplittingFrame,
    Window,
    admissible_values,
    box_scan_count,
    count_range,
    enumerate_points,
    equidistribution_run,
    mu_a0,
    mu_a0_closed,
    mu_infty,
    mu_infty_closed,
    splitting_frame,
    unit_sphere_area,
    _count_generic,
    _disk_samples,
    _row_points,
)
from hyperlat.cli import main
from hyperlat.exactla import InputError, ShortVectorRows, identity, mat_vec, short_vectors, transpose
from hyperlat.lattices import IntegerLattice, direct_sum, e8, hyperbolic_plane, rank1, rescale
from conftest import d16_plus, mixed_e8_sum
from test_exactla import _random_posdef


def _window(V, rho=1):
    return Window(splitting_frame(V), Fraction(rho))


def _scrambled(L, seed, steps):
    """L in the basis of random elementary row moves: one component, no U."""
    rng = random.Random(seed)
    r = L.rank
    m = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(steps):
        i, j = rng.sample(range(r), 2)
        f = rng.choice([-2, -1, 1, 2])
        m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    return IntegerLattice(tuple(tuple(sum(m[i][a] * L.gram[a][b] * m[j][b]
                                          for a in range(r) for b in range(r))
                                      for j in range(r)) for i in range(r)))


def _a2_a3():
    """A2 + A3(-1): signature (2, 3), no U in any basis shown."""
    a2 = IntegerLattice(((2, -1), (-1, 2)))
    a3 = IntegerLattice(((-2, 1, 0), (1, -2, 1), (0, 1, -2)))
    return direct_sum(a2, a3)


def test_unit_sphere_area():
    # area of S^(b-1) = b pi^(b/2) / Gamma(1 + b/2); at b = 3 this is 4 pi
    assert abs(unit_sphere_area(2) - 4 * math.pi) < 1e-12
    assert abs(unit_sphere_area(1) - 2 * math.pi) < 1e-12
    assert abs(unit_sphere_area(0) - 2.0) < 1e-12
    b = 5
    assert abs(unit_sphere_area(b - 1) -
               b * math.pi ** (b / 2) / math.gamma(1 + b / 2)) < 1e-12


def test_frame_construction(v_lattice):
    fr = splitting_frame(v_lattice)
    assert len(fr.positive) == 2
    assert len(fr.negative) == 3
    assert fr.lattice_jacobian() == pytest.approx(2 ** 2.5 / math.sqrt(2))
    # canonical hyperbolic split: e + f and e - f
    assert fr.positive[0] == (1, 1, 0, 0, 0)


def test_frame_of_a_component_with_no_diagonal_entry():
    # the 5-cycle, negated: one component, every diagonal entry 0, so the
    # first step of its splitting over Q folds e_0 += e_1; the frame is pinned
    g = tuple(tuple(-1 if (i - j) % 5 in (1, 4) else 0 for j in range(5)) for i in range(5))
    fr = splitting_frame(IntegerLattice(g))
    h = Fraction(1, 2)
    assert fr.positive == ((-h, h, 0, 0, 0), (h, 0, -h, h, 0))
    assert fr.negative == ((1, 1, 0, 0, 0), (-1, 0, 1, 1, 0), (1, -1, -1, 1, 1))


def test_frame_requires_two_positive():
    with pytest.raises(HyperboloidError):
        splitting_frame(direct_sum(hyperbolic_plane(), rank1(-2)))


def test_frame_refuses_a_wrong_sign_non_orthogonal_vectors_and_a_wrong_count(v_lattice):
    # the exact checks alone carry the frame: sign of Q, orthogonality, count
    fr = splitting_frame(v_lattice)
    (t1, t2), neg = fr.positive, fr.negative
    with pytest.raises(HyperboloidError, match="wrong sign"):
        SplittingFrame(v_lattice, (t1, neg[0]), (t2,) + neg[1:])
    # t1 + t2 keeps Q > 0 but pairs with t1
    sum12 = tuple(x + y for x, y in zip(t1, t2))
    assert v_lattice.q_of(sum12) > 0
    with pytest.raises(HyperboloidError, match="not orthogonal"):
        SplittingFrame(v_lattice, (t1, sum12), neg)
    with pytest.raises(HyperboloidError, match="2 positive and b negative"):
        SplittingFrame(v_lattice, (t1, t2), neg[:-1])


def test_degenerate_window(v_lattice):
    win = Window(splitting_frame(v_lattice), Fraction(0))
    assert mu_a0(win, 1000, seed=1) == (0.0, 0.0)
    assert mu_infty(win, 1000, seed=1) == (0.0, 0.0)


def test_fewer_samples_than_workers(v_lattice):
    # the last RNG substream takes the remainder; empty substreams are fine
    win = _window(v_lattice)
    for estimate in (mu_a0, mu_infty):
        value, err = estimate(win, 1, seed=1, workers=3)
        assert value > 0 and err == 0.0
        assert estimate(win, 5, seed=1, workers=3)[0] > 0


def test_measure_ratio(v_lattice):
    win = _window(v_lattice)
    ma, ea = mu_a0(win, 200000, seed=3)
    mi, ei = mu_infty(win, 200000, seed=3)
    target = 2 ** 1.5 / math.sqrt(2)
    assert mi / ma == pytest.approx(target, rel=0.02)
    # closed form of the chart integral for b = 3, rho = 1 (both sheets):
    # mu_a0 = 8 pi^2 (2 sqrt2 - 1)/3
    exact = 8 * math.pi ** 2 * (2 * math.sqrt(2) - 1) / 3
    assert ma == pytest.approx(exact, rel=0.01)


def test_closed_form_measures_against_monte_carlo():
    # b = 3, 4, 6; three radii; the full cap and a sector: each closed form
    # within 4 standard errors of its Monte Carlo estimate at 10^6 samples
    U = hyperbolic_plane()
    for b in (3, 4, 6):
        V = direct_sum(U, U, *[rank1(-2)] * (b - 2))
        frame = splitting_frame(V)
        for rho in (Fraction(1, 2), Fraction(1), Fraction(5, 2)):
            for sector in (None, (0.4, 2.9)):
                win = Window(frame, rho, sector=sector)
                for closed, estimate in ((mu_a0_closed, mu_a0), (mu_infty_closed, mu_infty)):
                    value, err = estimate(win, 10 ** 6, seed=17)
                    assert abs(closed(win) - value) <= 4 * err, (b, rho, sector, closed.__name__)


def test_closed_form_measure_constants(v_lattice):
    # b = 3, rho = 1: mu_a0 = 8 pi^2 (2 sqrt2 - 1)/3 and mu_infty/mu_a0 = 2
    win = _window(v_lattice)
    exact = 8 * math.pi ** 2 * (2 * math.sqrt(2) - 1) / 3
    assert mu_a0_closed(win) == pytest.approx(exact, rel=1e-15)
    assert mu_infty_closed(win) == pytest.approx(2 * exact, rel=1e-15)
    assert mu_a0_closed(_window(v_lattice, 0)) == 0.0
    half = Window(win.frame, Fraction(1), sector=(1.0, 1.0 + math.pi))
    assert mu_a0_closed(half) == pytest.approx(exact / 2, rel=1e-15)


def test_disk_samples_draw_two_arrays(v_lattice):
    # with or without a sector, a batch takes one radius and one angle draw
    win = _window(v_lattice)
    for sector in (None, (0.4, 2.9)):
        rng = np.random.default_rng(4)
        _disk_samples(rng, 100, 1.0, Window(win.frame, Fraction(1), sector=sector))
        ref = np.random.default_rng(4)
        ref.random(100)
        ref.random(100)
        assert rng.random() == ref.random()


def test_mc_error_scaling(v_lattice):
    win = _window(v_lattice)
    _, e1 = mu_a0(win, 50000, seed=5)
    _, e2 = mu_a0(win, 200000, seed=5)
    assert e2 < e1  # quadrupling samples should halve the error
    assert e2 == pytest.approx(e1 / 2, rel=0.15)


def test_counts_match_box_scan(v_lattice):
    # U+U+<-2>, then bases whose frame has a large glue index [L : P + N]:
    # U(2)+U+<-4>, A2 + A3(-1) and a scrambled copy of it
    zero = tuple(Fraction(0) for _ in range(5))
    U = hyperbolic_plane()
    for V, rhos, norms in ((v_lattice, [1], (1, 2, 5, 9)),
                           (direct_sum(rescale(U, 2), U, rank1(-4)), [Fraction(1, 2), 1], (1, 2, 3)),
                           (_a2_a3(), [1], (1, 2, 3)),
                           (_scrambled(_a2_a3(), 3, 6), [Fraction(1, 2)], (1, 2))):
        for rho in rhos:
            win = _window(V, rho)
            for n in norms:
                fast = enumerate_points(None, n, win)
                gen = _count_generic(zero, Fraction(n), win, False, 10 ** 9)
                box = box_scan_count(None, n, win, guard=10 ** 8)
                assert fast.count == gen.count == box.count, (V.gram, rho, n)
                assert fast.grazing == gen.grazing == box.grazing


def test_counts_match_box_scan_nonzero_gamma(v_lattice):
    win = _window(v_lattice)
    sector = Window(win.frame, Fraction(1), sector=(0.4, 2.9))
    lift = tuple(v_lattice.discriminant_group().lift((1,)))
    for n in (Fraction(5, 4), Fraction(13, 4)):
        for w in (win, sector):
            fast = enumerate_points((1,), n, w)
            box = box_scan_count((1,), n, w)
            assert fast.count == box.count
            assert fast.grazing == box.grazing
        # the generic enumerator, with the full cap, a sector and kept points
        for w in (win, sector):
            gen = _count_generic(lift, n, w, True, 10 ** 9)
            box = box_scan_count((1,), n, w, keep_points=True)
            assert (gen.count, gen.grazing) == (box.count, box.grazing)
            assert sorted(gen.points) == sorted(box.points)
        assert _count_generic(lift, n, sector, False, 10 ** 9).points is None


def test_counts_match_randomized(v8_lattice):
    rng = random.Random(31)
    win = Window(splitting_frame(v8_lattice), Fraction(3, 2))
    for _ in range(6):
        n = rng.randint(1, 8)
        fast = enumerate_points(None, n, win)
        box = box_scan_count(None, n, win)
        assert fast.count == box.count and fast.grazing == box.grazing


@pytest.mark.parametrize("rho, box_ns, generic_ns", [
    (Fraction(1, 2), [1, 2, 3], [10, 12]),
    (Fraction(1), [1, 3], [8]),
    (Fraction(2), [1], [4]),
    (Fraction(0), [1, 2, 3], [8, 16]),
    (Fraction(3, 2), [2], [5, 6]),
])
def test_count_range_matches_oracles(v_lattice, rho, box_ns, generic_ns):
    # one unsorted range with gaps: box scan at small n, the generic
    # depth-first search at moderate n
    win = _window(v_lattice, rho)
    zero = tuple(Fraction(0) for _ in range(5))
    got = count_range(None, generic_ns + box_ns, win)
    want = ([_count_generic(zero, Fraction(n), win, False, 10 ** 9)
             for n in generic_ns] +
            [box_scan_count(None, n, win) for n in box_ns])
    assert got == tuple(want)


def test_count_range_fractional_norms(v8_lattice):
    # gamma = (1,) in Z/8: norms lie in -Q(gamma) + Z = 1/16 + Z
    win = Window(splitting_frame(v8_lattice), Fraction(3, 2))
    lift = tuple(v8_lattice.discriminant_group().lift((1,)))
    small = admissible_values(v8_lattice, (1,), 1, 3)
    assert small == [Fraction(17, 16), Fraction(33, 16)]
    moderate = Fraction(81, 16)
    got = count_range((1,), small + [Fraction(4), moderate], win)
    want = ([box_scan_count((1,), n, win) for n in small] +
            [PointCount(Fraction(4), 0, 0),   # 4 is not in 1/16 + Z
             _count_generic(lift, moderate, win, False, 10 ** 9)])
    assert got == tuple(want)
    assert got == count_range(lift, small + [Fraction(4), moderate], win)


@pytest.mark.parametrize("gamma, counts", [
    ((1, 1, 0, 0, 0), [0, 12, 48, 32, 24]),   # P-shift (1/2, 1/6)
    ((0, 3, 0, 0, 0), [0, 12, 0, 48, 24]),    # P-shift (0, 1/2)
])
def test_count_range_non_integral_p_shift(gamma, counts):
    # on <2>+<6>+3<-6> the P-vectors of these cosets have denominators 6 and
    # 2: the P side is scaled by dp > 1 before its values are keyed
    L = direct_sum(rank1(2), rank1(6), rank1(-6), rank1(-6), rank1(-6))
    ns = admissible_values(L, gamma, 1, 6)
    assert len(ns) == 5
    win = _window(L)
    for w in (win, Window(win.frame, Fraction(1), sector=(0.4, 2.9))):
        got = count_range(gamma, ns, w)
        assert got == tuple(box_scan_count(gamma, n, w) for n in ns)
    assert [pc.count for pc in count_range(gamma, ns, win)] == counts


def test_count_range_reaches_u_u_e8():
    # b = 10: N is <-2> + <-2> + E8(-1), the <-2> walked by rows and
    # E8(-1) in closed form.  The figures are _count_generic's; at n = 2 it
    # takes about 140 s
    V = direct_sum(hyperbolic_plane(), hyperbolic_plane(), e8(-1))
    got = count_range(None, [1, 2], Window(splitting_frame(V), Fraction(1)))
    assert [(pc.count, pc.grazing) for pc in got] == [(18516, 12496), (516812, 212176)]


def test_count_range_reaches_k3_complement():
    # the K3 complement at 2d = 2: N is <-2>^3 + E8(-1) + E8(-1), and the
    # two E8(-1) summands share one closed-form table.  The figures are
    # those of the single walk of N's whole ellipsoid, which took 274 s
    V = direct_sum(rank1(-2), hyperbolic_plane(), hyperbolic_plane(), e8(-1), e8(-1))
    got = count_range(None, [1, 2], Window(splitting_frame(V), Fraction(1)))
    assert [(pc.count, pc.grazing) for pc in got] == [(271318, 259248), (87995244, 59898264)]


def _tables(monkeypatch):
    """The component tables that count_range builds, walked and in closed
    form, with their ranks."""
    walked, closed = [], []
    theta_table, closed_table = hyp._theta_table, hyp._closed_table

    def recorded(rows, *args):
        table, frac = theta_table(rows, *args)
        walked.append((len(rows.step), table, frac))
        return table, frac

    def recorded_closed(a, width):
        table = closed_table(a, width)
        closed.append((len(a), table))
        return table

    monkeypatch.setattr(hyp, "_theta_table", recorded)
    monkeypatch.setattr(hyp, "_closed_table", recorded_closed)
    return walked, closed


def test_count_range_split_is_invisible(v8_lattice, monkeypatch):
    # with N taken as one block, one walk of its whole ellipsoid gives the
    # same counts as the product of its components' series (on each
    # lattice the two <-2> glued to the U's share one table, and E8(-1)'s
    # table is in closed form)
    e8_sum = direct_sum(hyperbolic_plane(), hyperbolic_plane(), e8(-1))
    cases = [(v8_lattice, (1,), admissible_values(v8_lattice, (1,), 1, 30), Fraction(3, 2)),
             (e8_sum, None, [1], Fraction(1))]
    walked, closed = _tables(monkeypatch)
    split = [count_range(gamma, ns, _window(V, rho)) for V, gamma, ns, rho in cases]
    assert sorted(rank for rank, *_ in walked) == [1, 1, 1]
    assert [rank for rank, _ in closed] == [8]
    walked.clear()
    closed.clear()
    monkeypatch.setattr(hyp, "gram_components", lambda g: (tuple(range(len(g))),))
    whole = [count_range(gamma, ns, _window(V, rho)) for V, gamma, ns, rho in cases]
    assert sorted(rank for rank, *_ in walked) == [3, 10]
    assert closed == []
    assert whole == split
    assert split[0][0].count > 0 and split[1][0].count == 18516


def _walked_table(L, width):
    """The one-class table of a component with no glue and shift 0, walked
    by rows as count_range walks a component with no closed form."""
    rows = ShortVectorRows([[-x for x in row] for row in L.gram], 2 * (width - 1))
    return hyp._theta_table(rows, (), (), width, lambda k: None)


def _check_closed_table(lattice, width):
    # the walked table is the closed form's oracle: c sigma_k(m) for m >= 1
    table, frac = _walked_table(lattice, width)
    c, k = (240, 3) if lattice.rank == 8 else (480, 7)
    sigma = [sum(d ** k for d in range(1, m + 1) if m % d == 0) for m in range(1, width)]
    assert table.tolist() == [[1] + [c * x for x in sigma]]
    assert frac.tolist() == [0]
    assert hyp._closed_table([[-x for x in row] for row in lattice.gram],
                             width).tolist() == table.tolist()
    return table


def test_e8_component_table_is_240_sigma3(monkeypatch):
    # to m = 6, r(E8, 2m) = 240 sigma_3(m) walked and in closed form; and
    # count_range at n = 3, rho = 1 (m <= 6) builds E8(-1)'s table in
    # closed form, walking no rank-8 table
    table = _check_closed_table(e8(-1), 7)
    walked, closed = _tables(monkeypatch)
    V = direct_sum(hyperbolic_plane(), hyperbolic_plane(), e8(-1))
    count_range(None, [3], _window(V))
    assert [(rank, t.tolist()) for rank, t in closed] == [(8, table.tolist())]
    assert 8 not in [rank for rank, *_ in walked]


@pytest.mark.parametrize("lattice", [mixed_e8_sum(-1), d16_plus(-1)], ids=["E8+E8", "D16+"])
def test_rank16_component_table_is_480_sigma7(lattice):
    # to m = 2, walked and in closed form, for E8 + E8 in a basis that
    # mixes the two and for D16+
    _check_closed_table(lattice, 3)


@pytest.mark.parametrize("V, gamma, ns, rank", [
    (direct_sum(hyperbolic_plane(), hyperbolic_plane(), e8(-1)), None, range(1, 5), 8),
    (direct_sum(rank1(-2), hyperbolic_plane(), hyperbolic_plane(), e8(-1), e8(-1)), None,
     range(1, 5), 8),
    (direct_sum(rank1(-2), hyperbolic_plane(), hyperbolic_plane(), e8(-1), e8(-1)), (1,),
     [Fraction(1, 4) + k for k in range(6)], 8),
    (direct_sum(hyperbolic_plane(), hyperbolic_plane(), d16_plus(-1)), None, [1], 16),
], ids=["U+U+E8", "k3-complement", "k3-complement-gamma1", "U+U+D16+"])
def test_closed_form_counts_equal_the_walk(V, gamma, ns, rank, monkeypatch):
    # the counts with the tables of the rank-8 or rank-16 components in
    # closed form equal those with every component walked
    win = _window(V)
    walked, closed = _tables(monkeypatch)
    got = count_range(gamma, ns, win)
    assert rank in [r for r, _ in closed] and rank not in [r for r, *_ in walked]
    walked.clear()
    closed.clear()
    monkeypatch.setattr(hyp, "even_unimodular_theta", lambda gram, width: None)
    assert count_range(gamma, ns, win) == got
    assert closed == [] and rank in [r for r, *_ in walked]
    assert all(pc.count for pc in got)


def test_closed_form_table_past_int64_is_refused():
    # D16+(-1)'s 480 sigma_7(m) first passes 2^63 at m = 212: at rho = 1 and
    # n = 106 its table would run to m = 212, and is refused before it is
    # formed; at n = 105 (m <= 210) it is formed, and the glued sums are
    # refused
    V = direct_sum(hyperbolic_plane(), hyperbolic_plane(), d16_plus(-1))
    win = _window(V)
    with pytest.raises(EnumGuardExceeded, match="closed-form theta table to norm 212 "
                                                "would overflow int64"):
        count_range(None, [106], win)
    with pytest.raises(EnumGuardExceeded, match="glued theta sums would overflow int64"):
        count_range(None, [105], win)


def test_closed_form_table_sums_are_bounded_exactly():
    # E8(-1)'s table to m = 20000 has entries below 2^63 but a sum past it
    # (its int64 sum wraps negative): the glued sums are refused
    V = direct_sum(hyperbolic_plane(), hyperbolic_plane(), e8(-1))
    with pytest.raises(EnumGuardExceeded, match="sums would overflow int64"):
        count_range(None, [10000], _window(V))


@pytest.mark.parametrize("rho, gamma, lo, hi", [
    (Fraction(1, 2), None, 1, 80),
    (Fraction(1), None, 40, 60),
    (Fraction(2), (1,), 1, 20),
])
def test_count_range_entries_are_independent(v_lattice, rho, gamma, lo, hi):
    # every entry of a range equals the count of its norm alone
    win = _window(v_lattice, rho)
    ns = admissible_values(v_lattice, gamma, lo, hi)
    got = count_range(gamma, ns, win)
    assert [pc.n for pc in got] == ns
    assert got == tuple(count_range(gamma, [n], win)[0] for n in ns)
    assert any(pc.grazing for pc in got)


def test_count_range_chunking_is_invisible(v_lattice, monkeypatch):
    # batches of 1000 points or that plus one row, and of a single row (a
    # batch ends only at the end of a row of the P side or of N's components)
    win = _window(v_lattice, Fraction(1, 2))
    ns = list(range(60, 81))
    whole = count_range(None, ns, win)
    for chunk in (1000, 1):
        monkeypatch.setattr(hyp, "GRID_CHUNK", chunk)
        assert count_range(None, ns, win) == whole


def test_row_points_match_short_vectors(monkeypatch):
    # the rows expanded in int64 are short_vectors' points with their values,
    # each point handed to spend once, wherever the batches end; a map m and
    # a modulus give images congruent to z m mod it
    rng = random.Random(25)
    cases = []
    for _ in range(30):
        r = rng.randint(1, 4)
        shift = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(r)]
        m = [[rng.randint(-9, 9) for _ in range(2)] for _ in range(r)]
        cases.append((_random_posdef(rng, r), shift, Fraction(rng.randint(0, 40), rng.randint(1, 4)),
                      m, rng.randint(2, 6)))
    for chunk in (1, 7, hyp.GRID_CHUNK):
        monkeypatch.setattr(hyp, "GRID_CHUNK", chunk)
        for a, shift, bound, m, mod in cases:
            want = sorted(short_vectors(a, bound, shift))
            rows = ShortVectorRows(a, bound, shift)
            spent = []
            got = [(tuple(z), Fraction(x, rows.scale))
                   for v, y in _row_points(rows, identity(len(a)), spent.append)
                   for x, *z in zip(v.tolist(), *(c.tolist() for c in y))]
            assert sorted(got) == want
            assert sum(spent) == len(want)
            images = [(tuple(t % mod for t in y), x)
                      for v, ys in _row_points(rows, m, lambda k: None, mod)
                      for x, *y in zip(v.tolist(), *(c.tolist() for c in ys))]
            assert sorted(images) == sorted(
                (tuple(x % mod for x in mat_vec(transpose(m), z)), int(value * rows.scale))
                for z, value in want)


def test_count_range_forms_q_of_the_lift_once(v8_lattice, monkeypatch):
    # the coset support of 31 norms is read off one Q(lift): the norms in
    # 1/16 + Z are counted, the others are 0
    win = _window(v8_lattice)
    ns = [Fraction(1, 16) + Fraction(k, 4) for k in range(31)]
    q_of, calls = IntegerLattice.q_of, []

    def counted(self, x):
        calls.append(x)
        return q_of(self, x)

    monkeypatch.setattr(IntegerLattice, "q_of", counted)
    got = count_range((1,), ns, win)
    assert len(calls) == 1
    monkeypatch.undo()
    assert got == tuple(enumerate_points((1,), n, win) for n in ns)
    assert [pc.n for pc in got if pc.count] == [n for n in ns if (n - Fraction(1, 16)) % 1 == 0]


def test_count_range_empty(v_lattice, monkeypatch):
    def no_grid(m):
        raise AssertionError("an empty range built a grid")

    monkeypatch.setattr(hyp, "frac_mat_inv", no_grid)
    win = _window(v_lattice)
    assert count_range(None, [], win) == ()
    # a range with no norm in it is the caller's mistake, not a nan mean
    with pytest.raises(InputError, match=r"no n in \[60, 40\]"):
        equidistribution_run(v_lattice, None, win, 60, 40,
                             prime_bound=30, samples=1000, seed=2)
    with pytest.raises(HyperboloidError):
        count_range(None, [3, 0], win)


def test_count_range_refuses_signature_2_0():
    # N has rank 0: refused by name, not an IndexError from the row walk
    win = _window(direct_sum(rank1(2), rank1(2)))
    with pytest.raises(hyp.HyperboloidInputError, match=r"got \(2,0\)"):
        count_range(None, [1, 2], win)


def test_equidistribution_run_builds_one_grid(v_lattice, monkeypatch):
    # one walk per distinct component of N, for the largest norm, serves all
    # 31 norms: N is <-2>^3, and the two summands glued to the U's are equal
    # and share one walk; the P side is the one rank-2 walk
    calls = []

    class Counted(hyp.ShortVectorRows):
        def __iter__(self):
            calls.append(len(self.step))
            return super().__iter__()

    monkeypatch.setattr(hyp, "ShortVectorRows", Counted)
    win = _window(v_lattice)
    summary = equidistribution_run(v_lattice, None, win, 40, 70,
                                   prime_bound=30, samples=1000, seed=2)
    assert len(summary.reports) == 31
    assert sorted(calls) == [1, 1, 2]
    count_range(None, [3, 5], win)
    count_range((1,), [Fraction(5, 4)], win)
    assert sorted(calls) == [1] * 6 + [2] * 3


def test_equidistribution_run_reads_representability_off_the_series(monkeypatch):
    # Q = x^2 + 3y^2 - 3(z^2 + w^2 + v^2) misses -n = 1 mod 3 at p = 3; one
    # singular series per n both skips those n and predicts the others
    import hyperlat.densities as dens

    V = direct_sum(rank1(2), rank1(6), rank1(-6), rank1(-6), rank1(-6))
    calls = []
    density = dens._local_density   # the per-prime density of singular_series

    def counted(lift, n, L, p):
        calls.append((p, n))
        return density(lift, n, L, p)

    monkeypatch.setattr(dens, "_local_density", counted)
    summary = equidistribution_run(V, None, _window(V), 1, 12, prime_bound=30)
    assert [n for n, _ in summary.skipped] == [1, 4, 7, 10]
    assert {reason for _, reason in summary.skipped} == {"not locally representable"}
    assert [r.n for r in summary.reports] == [2, 3, 5, 6, 8, 9, 11, 12]
    assert all(r.series_value > 0 for r in summary.reports)
    assert calls and len(calls) == len(set(calls))


def test_grid_guard_at_largest_norm(v_lattice, monkeypatch):
    # the guard reads what the count allocates and walks for the largest
    # norm: table entries, P-vectors and component points, 1124 at n = 40
    # and 1934 at n = 70
    monkeypatch.setattr(hyp, "SWEEP_GUARD", 1933)
    win = _window(v_lattice)
    assert count_range(None, [40], win)[0].count > 0
    with pytest.raises(EnumGuardExceeded,
                       match="at least 1934 points and table entries exceeds guard 1933"):
        count_range(None, [40, 70], win)
    monkeypatch.setattr(hyp, "SWEEP_GUARD", 1934)
    assert count_range(None, [40, 70], win)[1].count > 0
    monkeypatch.setattr(hyp, "SWEEP_GUARD", 1123)
    with pytest.raises(EnumGuardExceeded, match="at least 1124 points"):
        count_range(None, [40], win)


def test_keys_that_would_overflow_int64_raise(v_lattice, monkeypatch):
    # at rho = 0 the table width n + 1 passes 2^63 at n = 10^19; at n = 10^18
    # it does not, and the table-size guard refuses at once: 3 (10^18 + 1)
    # entries, two classes of the glued <-2> and one of the other
    win = _window(v_lattice, 0)
    with pytest.raises(HyperboloidError, match="overflow int64"):
        count_range(None, [10 ** 19], win)
    with pytest.raises(EnumGuardExceeded,
                       match="at least 3000000000000000003 points and table entries exceeds"):
        count_range(None, [10 ** 18], win)

    # component tables whose products could pass 2^63 are refused before
    # any product is formed, so no count wraps
    def huge(rows, cmap, dmod, width, spend):
        return (np.full((math.prod(dmod), width), 1 << 40, dtype=np.int64),
                np.zeros(math.prod(dmod), dtype=np.int64))

    monkeypatch.setattr(hyp, "_theta_table", huge)
    with pytest.raises(EnumGuardExceeded, match="sums would overflow int64"):
        count_range(None, [3], _window(v_lattice))


def test_count_range_at_a_tiny_rational_radius(v_lattice):
    # rho^2 = 10^-20 puts 10^20 in the denominators of both walks' bounds,
    # 2 rho^2 n and 2 (1 + rho^2) n; rounded down to the grid of values the
    # walks take, it no longer pushes the table indices past 2^63.  No
    # nonzero P-vector is that short, so the counts are those at rho = 0
    counts = [[pc.count for pc in count_range(None, [1, 2], _window(v_lattice, rho))]
              for rho in (Fraction(1, 10 ** 10), 0)]
    assert counts == [[6, 12], [6, 12]]


def test_count_parity(v_lattice):
    # gamma = 0: points come in +-lambda pairs and n > 0 excludes zero
    win = _window(v_lattice)
    for n in (1, 2, 3, 7):
        pc = enumerate_points(None, n, win)
        assert pc.count % 2 == 0


def test_point_list_exactness(v_lattice):
    win = _window(v_lattice)
    pc = _count_generic((Fraction(0),) * 5, Fraction(2), win, True, 10 ** 9)
    assert pc.points and len(pc.points) == pc.count
    rho2n = win.rho ** 2 * 2
    for vec in pc.points:
        assert v_lattice.q_of(vec) == -2
        assert win.frame.radial_sq(vec) <= rho2n


def test_window_depends_only_on_plane(v_lattice):
    # scaling the positive frame vectors leaves the cap, hence counts, alone
    fr = splitting_frame(v_lattice)
    scaled = SplittingFrame(
        v_lattice,
        tuple(tuple(3 * x for x in t) for t in fr.positive),
        fr.negative)
    w1 = Window(fr, Fraction(1))
    w2 = Window(scaled, Fraction(1))
    for n in (1, 5):
        assert enumerate_points(None, n, w1).count == \
            enumerate_points(None, n, w2).count


def test_coset_support_empty(v_lattice):
    win = _window(v_lattice)
    pc = enumerate_points((1,), 1, win)   # 1 not in 1/4 + Z
    assert pc.count == 0


def test_admissible_values(v_lattice):
    assert admissible_values(v_lattice, None, 3, 6) == [3, 4, 5, 6]
    vals = admissible_values(v_lattice, (1,), 1, 4)
    assert vals == [Fraction(5, 4), Fraction(9, 4), Fraction(13, 4)]


def test_equidistribution_smoke(v_lattice):
    win = _window(v_lattice)
    summary = equidistribution_run(v_lattice, None, win, 40, 50,
                                   prime_bound=30, samples=200000, seed=2)
    assert len(summary.reports) == 11
    assert 0.8 < summary.mean_ratio < 1.2
    for r in summary.reports:
        assert r.empirical >= 0 and r.predicted > 0


def test_truncation_stability(v_lattice):
    # ratios with prime bound P and 2P differ by < 2%
    from hyperlat.densities import singular_series
    for n in (40, 47, 50):
        a = float(singular_series(None, n, v_lattice, 50).truncated_product)
        b = float(singular_series(None, n, v_lattice, 100).truncated_product)
        assert abs(a / b - 1) < 0.02


def _no_generic(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the generic enumerator ran")

    monkeypatch.setattr(hyp, "_count_generic", refuse)


def test_json_lattice_without_metadata_takes_fast_path(v_lattice, tmp_path, monkeypatch):
    # only the Gram matrix: the same rows as the named lattice, and the
    # depth-first search never runs
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({"gram": [list(r) for r in v_lattice.gram]}))

    def rows(spec):
        out = io.StringIO()
        assert main(["count", "--lattice", spec, "--rho", "1", "--nmin", "1",
                     "--nmax", "12", "--prime-bound", "10", "--samples", "1000"],
                    out=out) == 0
        return [ln for ln in out.getvalue().splitlines() if not ln.startswith("# lattice=")]

    _no_generic(monkeypatch)
    got = rows(str(path))
    assert len(got) == 14 and got == rows("U+U+rank1(-2)")


def test_split_on_non_adjacent_rows(monkeypatch):
    # U on rows 0 and 2, a second U on rows 1 and 3, then <-2>
    g = [[0] * 5 for _ in range(5)]
    g[0][2] = g[2][0] = g[1][3] = g[3][1] = 1
    g[4][4] = -2
    V = IntegerLattice(tuple(map(tuple, g)))
    win = _window(V)
    assert win.frame.positive[0] == (1, 0, 1, 0, 0)
    _no_generic(monkeypatch)
    for n in (1, 2, 5):
        fast = enumerate_points(None, n, win)
        box = box_scan_count(None, n, win)
        assert (fast.count, fast.grazing) == (box.count, box.grazing)
        assert fast.count > 0


def test_scrambled_basis_counts_without_split(v8_lattice):
    # the basis of test_counts_ignore_the_basis: one component, no U shown,
    # so the frame diagonalizes the whole form; its glue index is 99360
    M = _scrambled(v8_lattice, 5, 12)
    r = M.rank
    assert M.components == (tuple(range(r)),)
    win = _window(M, Fraction(1, 2))
    zero = tuple(Fraction(0) for _ in range(r))
    # the skewed basis makes the oracles' searches large: two small norms
    for n in (1, 2):
        got = enumerate_points(None, n, win)
        box = box_scan_count(None, n, win, guard=10 ** 8)
        gen = _count_generic(zero, Fraction(n), win, False, 10 ** 9)
        assert (got.count, got.grazing) == (box.count, box.grazing) == (gen.count, gen.grazing)
