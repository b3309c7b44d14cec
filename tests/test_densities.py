import random
from fractions import Fraction

import pytest

from hyperlat.densities import (
    DensityError,
    DensityInputError,
    GuardExceeded,
    count_solutions_naive,
    count_solutions_split,
    eisenstein_coefficient,
    is_representable,
    local_density,
    singular_series,
    small_primes,
    _counted_density,
    _diagonal_count,
    _gamma_lift,
    _local_pieces,
)
from hyperlat.exactla import frac_mat_inv
from hyperlat.fqm import discriminant_group
from hyperlat.lattices import (
    IntegerLattice,
    LatticeError,
    _prime_factors,
    direct_sum,
    e8,
    hyperbolic_plane,
    jordan_splitting,
    rank1,
    rational_valuation,
)
from hyperlat.predict import k3_lattices

from conftest import small_test_lattices


def random_even_lattice(rng, max_rank=4):
    r = rng.randint(1, max_rank)
    while True:
        g = [[0] * r for _ in range(r)]
        for i in range(r):
            g[i][i] = 2 * rng.randint(-4, 4)
            for j in range(i + 1, r):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        try:
            return IntegerLattice(tuple(tuple(row) for row in g))
        except LatticeError:
            continue


def random_case(rng, L):
    D = discriminant_group(L)
    gamma = rng.choice(D.elements()) if D.order <= 200 else D.zero
    lift = D.lift(gamma)
    n = -L.q_of(lift) + rng.randint(1, 8)
    return gamma, n


def test_naive_examples(v_lattice):
    assert count_solutions_naive(None, 1, rank1(-2), 5) == 2
    assert count_solutions_naive(None, 2, rank1(-2), 5) == 0
    assert count_solutions_naive(None, 1, hyperbolic_plane(), 5) == 4
    assert count_solutions_naive(None, 1, v_lattice, 5) == 650


def test_naive_rejects_bad_n():
    with pytest.raises(DensityError):
        count_solutions_naive((1,), 1, rank1(-2), 5)  # 1 not in -Q(gamma)+Z


def test_gamma_is_read_by_type(v_lattice):
    # ints are residues in D(L) = Z/2; a tuple holding a Fraction is a dual vector
    half = (Fraction(0),) * 4 + (Fraction(1, 2),)
    assert count_solutions_naive((1,), Fraction(1, 4), v_lattice, 5) == \
        count_solutions_naive(half, Fraction(1, 4), v_lattice, 5)
    assert count_solutions_naive((Fraction(1), 0, 0, 0, 0), 1, v_lattice, 5) == 650
    # five ints are not five dual coordinates: D(L) has one invariant factor
    with pytest.raises(DensityError, match="1 integer residues"):
        count_solutions_naive((1, 0, 0, 0, 0), 1, v_lattice, 5)
    with pytest.raises(DensityError, match="5 entries"):
        count_solutions_naive((Fraction(1, 2),), 1, v_lattice, 5)
    with pytest.raises(DensityError):
        count_solutions_naive((0.5,), 1, v_lattice, 5)


def test_naive_guard():
    with pytest.raises(GuardExceeded):
        count_solutions_naive(None, 1, e8(-1), 100, guard=10 ** 6)


def test_split_equals_naive_randomized():
    rng = random.Random(7)
    for _ in range(200):
        L = random_even_lattice(rng)
        gamma, n = random_case(rng, L)
        while True:
            p = rng.choice([2, 3, 5])
            s = rng.randint(1, 3)
            if (p ** s) ** L.rank <= 3 * 10 ** 7:
                break
        a = count_solutions_naive(gamma, n, L, p ** s)
        b = count_solutions_split(gamma, n, L, p, s)
        assert a == b, (L.gram, gamma, n, p, s, a, b)


def test_split_equals_naive_structured():
    rng = random.Random(13)
    U = hyperbolic_plane()
    for _ in range(40):
        L = direct_sum(U, rank1(rng.choice([-2, -4, -6, -8])))
        gamma, n = random_case(rng, L)
        p = rng.choice([2, 3, 5])
        s = rng.randint(1, 2)
        assert count_solutions_naive(gamma, n, L, p ** s) == \
            count_solutions_split(gamma, n, L, p, s)
    # residuals of two or more coordinates: four 2-adic units, and at odd p
    # every coordinate, of one scale or of several
    diagonal = lambda *ms: direct_sum(*(rank1(m) for m in ms))
    for L, p, s_max in ((direct_sum(U, diagonal(-2, -2, -2, -2)), 2, 3),
                        (diagonal(2, 6, -6, -18), 3, 3),
                        (diagonal(2, 6, -6, -6, -6), 3, 2),
                        (diagonal(2, 10, -50, -2), 5, 2)):
        D = discriminant_group(L)
        for gamma in rng.sample(D.elements(), min(4, D.order)):
            base = -L.q_of(D.lift(gamma)) % 1
            for n in (base + 1, base + p, base + p * p):
                for s in range(1, s_max + 1):
                    assert count_solutions_naive(gamma, n, L, p ** s) == \
                        count_solutions_split(gamma, n, L, p, s), (L.name, gamma, n, s)
    # gamma = 1/4 in <-4> leaves a piece no translate absorbs at p = 2, beside
    # the planes of U and E8(-1)
    L = direct_sum(U, e8(-1), rank1(-4))
    for s in (1, 2):
        assert count_solutions_naive((1,), Fraction(17, 8), L, 2 ** s) == \
            count_solutions_split((1,), Fraction(17, 8), L, 2, s), s


def _legendre(x, p):
    r = pow(x % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def test_odd_rank_closed_form_at_good_primes(v_lattice):
    # r = 2k+1 and p prime to 2 n det: density 1 + ((-1)^k 2 det (-n) / p) p^-k.
    # The K3 complement comes from explicit rows.  s = 3 puts p^s far above
    # 2^15 for the larger primes.
    k3_complement = k3_lattices(rows=[(1, 1) + (0,) * 20])[1]
    assert k3_complement.rank == 21
    for L, norms in ((v_lattice, (1, 3, 7)), (k3_complement, (4,))):
        k = (L.rank - 1) // 2
        for n in norms:
            for p in small_primes(97):
                if (2 * n * L.det) % p == 0:
                    continue
                want = 1 + Fraction(_legendre((-1) ** k * 2 * L.det * (-n), p), p ** k)
                assert local_density(None, n, L, p).density == want, (L.rank, n, p)
                count = count_solutions_split(None, n, L, p, 3)
                assert Fraction(count, p ** (3 * (L.rank - 1))) == want, (L.rank, n, p)


def _shortcut_lattices():
    """Lattices of both rank parities for the shortcuts of local_density."""
    U = hyperbolic_plane()
    lattices = [L for L in small_test_lattices() if L.rank >= 5]
    lattices += [direct_sum(U, U, rank1(-2), rank1(-4)),     # even rank, D = Z/2 x Z/4
                 k3_lattices(two_d=2)[1], k3_lattices(two_d=4)[1]]
    assert {L.rank % 2 for L in lattices} == {0, 1}
    return lattices


def test_closed_form_equals_counted_density_at_good_primes():
    # every good p < 100: the closed form of local_density against the
    # stabilized Jordan count, report for report (s0, raw counts, density);
    # at p <= 7 the raw counts also against the exhaustive counter
    for L in _shortcut_lattices():
        D = discriminant_group(L)
        classes = [D.zero] + [g for g in D.elements() if g != D.zero][-1:]
        for gamma in classes:
            lift = _gamma_lift(L, gamma)
            base = -L.q_of(lift) % 1
            for n in (base + 1, base + 3, base + 10):
                good = [p for p in small_primes(99)
                        if (2 * n.numerator * n.denominator * L.det) % p]
                for p in good:
                    rep = local_density(gamma, n, L, p)
                    assert rep == _counted_density(lift, n, L, p), \
                        (L.rank, gamma, n, p)
                    assert rep.stabilization_exponent == 1
                    for s, count in enumerate(rep.raw_counts, 1):
                        if p <= 7 and p ** (s * L.rank) <= 10 ** 6:
                            assert count == count_solutions_naive(lift, n, L, p ** s), \
                                (L.rank, gamma, n, p, s)


def test_unimodular_density_equals_counted_density():
    # odd p prime to det dividing num(n), v_p(n) = 1..3: the counts on
    # <1, ..., 1, det/2^r> against the stabilized Jordan count, report for
    # report; the raw counts against the exhaustive counter where it is small
    for L in _shortcut_lattices():
        D = discriminant_group(L)
        classes = [D.zero] + [g for g in D.elements() if g != D.zero][-1:]
        for gamma in classes:
            lift = _gamma_lift(L, gamma)
            base = -L.q_of(lift) % 1
            for p in (p for p in (3, 5, 7) if L.det % p):
                for v in (1, 2, 3):
                    n = next(base + m for m in range(1, p ** (v + 2))
                             if rational_valuation(base + m, p) == v)
                    rep = local_density(gamma, n, L, p)
                    assert rep == _counted_density(lift, n, L, p), (L.rank, gamma, n, p)
                    assert rep.stabilization_exponent >= 1 + v
                    for s, count in enumerate(rep.raw_counts, 1):
                        if p ** (s * L.rank) <= 10 ** 6:
                            assert count == count_solutions_naive(lift, n, L, p ** s), \
                                (L.rank, gamma, n, p, s)


def _floor_cases():
    """(L, gamma, n, p): the shortcut lattices at p = 2, 3, 5 and v_p(n) = 0..3,
    then 200 seeded random cases of rank 1 to 6."""
    for L in _shortcut_lattices():
        D = discriminant_group(L)
        for gamma in [D.zero] + [g for g in D.elements() if g != D.zero][-1:]:
            base = -L.q_of(D.lift(gamma)) % 1
            for p in (2, 3, 5):
                for v in (0, 1, 2, 3):
                    n = next((base + m for m in range(1, p ** (v + 2))
                              if rational_valuation(base + m, p) == v), base + 1)
                    yield L, gamma, n, p
    rng = random.Random(29)
    cases = 0
    while cases < 200:
        L = random_even_lattice(rng, max_rank=6)
        gamma, n = random_case(rng, L)
        if n > 0:
            cases += 1
            yield L, gamma, n, rng.choice([2, 3, 5])


def test_density_is_stable_from_the_hensel_floor():
    # s0 is 1 + v_p(2 n det), and the split counts two and three steps past
    # it, which the report does not hold, give the same normalized density
    for L, gamma, n, p in _floor_cases():
        rep = local_density(gamma, n, L, p)
        s0 = rep.stabilization_exponent
        assert s0 == 1 + max(0, rational_valuation(2 * n * L.det, p)), (L.gram, gamma, n, p)
        assert len(rep.raw_counts) == s0 + 1
        for s in (s0 + 2, s0 + 3):
            count = count_solutions_split(gamma, n, L, p, s)
            assert Fraction(count, p ** ((L.rank - 1) * s)) == rep.density, \
                (L.gram, gamma, n, p, s)


@pytest.mark.parametrize("p", [1, 4, 0, -5, 9])
def test_a_non_prime_is_refused(v_lattice, p):
    # p = 1 would loop for ever in the p-adic valuation, p = 4 fail in _mod
    with pytest.raises(DensityInputError, match=f"p must be a prime, got {p}"):
        local_density(None, 1, v_lattice, p)
    with pytest.raises(DensityInputError, match=f"p must be a prime, got {p}"):
        count_solutions_split(None, 1, v_lattice, p, 2)


def test_counts_ignore_the_basis():
    # a unimodular change of basis hides every plane: one component, no U
    rng = random.Random(5)
    U = hyperbolic_plane()
    L = direct_sum(U, U, rank1(-8))
    r = L.rank
    m = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(12):
        i, j = rng.sample(range(r), 2)
        f = rng.choice([-2, -1, 1, 2])
        m[i] = [x + f * y for x, y in zip(m[i], m[j])]
    gram = tuple(tuple(sum(m[i][a] * L.gram[a][b] * m[j][b] for a in range(r) for b in range(r))
                       for j in range(r)) for i in range(r))
    M = IntegerLattice(gram)
    assert M.components == (tuple(range(r)),)
    assert any(g for row in gram for g in row if abs(g) > 2)
    minv = frac_mat_inv(m)
    D = discriminant_group(L)
    for gamma in D.elements():
        lift = D.lift(gamma)
        # the same dual vector in the new basis
        lift_m = tuple(sum(lift[a] * minv[a][i] for a in range(r)) for i in range(r))
        for n in (-L.q_of(lift) + 1, -L.q_of(lift) + 4):
            for p in (2, 3, 5):
                if p < 5:
                    assert count_solutions_naive(lift_m, n, M, p ** 2) == \
                        count_solutions_split(lift_m, n, M, p, 2)
                assert local_density(lift_m, n, M, p) == local_density(lift, n, L, p)


def test_two_coordinate_residual_at_high_exponent():
    # x^2 + y^2 is two odd-type coordinates at p = 2, counted with no table
    L = direct_sum(rank1(2), rank1(2))
    for s in (3, 10):
        assert count_solutions_split(None, 1, L, 2, s) == \
            count_solutions_naive(None, 1, L, 2 ** s)


def _brute_diagonal(ms, t, p, c, planes=()):
    """#{points mod p^c : sum m_i y_i^2 + sum 2^k F(x) = t mod p^c}, over
    every point: the histogram of the form, built one coordinate or plane
    at a time.  F is xy for a split plane, else x^2 + xy + y^2."""
    import numpy as np

    a = p ** c
    y = np.arange(a, dtype=np.int64)
    x = y[:, None]
    ones = [np.bincount(m % a * y ** 2 % a, minlength=a) for m in ms]
    ones += [np.bincount(((x * y if split else x * x + x * y + y * y) << k).ravel() % a,
                         minlength=a) for k, split in planes]
    hist = np.zeros(a, dtype=np.int64)
    hist[0] = 1
    for one in ones:
        full = np.convolve(hist, one)
        hist = full[:a].copy()
        hist[:len(full) - a] += full[a:]
    return int(hist[t % a])


def test_residual_count_brute():
    # the reduction against the exhaustive count, for up to four coordinates
    # with zero coefficients and coefficients divisible by p and p^2
    rng = random.Random(1)
    cases = 0
    for p in (2, 3, 5, 7):
        for c in range(5):
            for k in range(5):
                for _ in range(6):
                    ms = [rng.choice([0, rng.randint(-60, 60), p * rng.randint(-9, 9),
                                      p * p * rng.randint(-5, 5)]) for _ in range(k)]
                    t = rng.choice([0, rng.randint(-60, 60), p * rng.randint(-9, 9)])
                    assert _diagonal_count(ms, t, p, c) == _brute_diagonal(ms, t, p, c), \
                        (ms, t, p, c)
                    cases += 1
    assert cases == 4 * 5 * 5 * 6


def test_plane_count_brute():
    # the reduction with 2-adic planes of scale 0 to 2, split and anisotropic,
    # with and without diagonal coefficients, against the exhaustive count
    rng = random.Random(2)
    cases = 0
    for c in range(5):
        for nplanes in (1, 2):
            for k in range(3):
                for _ in range(6):
                    planes = [(rng.randint(0, 2), rng.random() < 0.5) for _ in range(nplanes)]
                    ms = [rng.choice([rng.randint(-40, 40), 2 * rng.randint(-9, 9)])
                          for _ in range(k)]
                    t = rng.choice([0, rng.randint(-60, 60), 4 * rng.randint(-9, 9)])
                    assert _diagonal_count(ms, t, 2, c, planes) == \
                        _brute_diagonal(ms, t, 2, c, planes), (ms, planes, t, c)
                    cases += 1
    assert cases == 5 * 2 * 3 * 6


def test_lift_independence_of_counts():
    rng = random.Random(17)
    for _ in range(30):
        L = random_even_lattice(rng, max_rank=3)
        D = discriminant_group(L)
        if D.order > 100:
            continue
        gamma = rng.choice(D.elements())
        lift = list(D.lift(gamma))
        n = -L.q_of(lift) + rng.randint(1, 5)
        a = rng.choice([4, 5, 9])
        base = count_solutions_naive(lift, n, L, a)
        shift = [rng.randint(-2, 2) for _ in range(L.rank)]
        shifted = [x + z for x, z in zip(lift, shift)]
        n2 = n + L.q_of(lift) - L.q_of(shifted)  # keep n in -Q(gamma)+Z: same n
        assert count_solutions_naive(shifted, n, L, a) == base


def test_local_density_example(v_lattice):
    rep = local_density(None, 1, v_lattice, 5)
    assert rep.density == Fraction(26, 25)
    assert rep.stabilization_exponent == 1
    assert rep.raw_counts == (650, 406250)
    # witnessed: equal normalized counts at s0 and s0+1
    norm = [Fraction(c, 5 ** (4 * (i + 1))) for i, c in enumerate(rep.raw_counts)]
    assert norm[0] == norm[1]


def test_local_density_unramified_is_one(v_lattice):
    # p odd, p coprime to 2 det n: density (1 + 1/p^2) type values; the
    # invariant to check is exact stabilization at s0 = 1
    for p, n in [(7, 3), (11, 5), (13, 9)]:
        rep = local_density(None, n, v_lattice, p)
        assert rep.stabilization_exponent == 1
        assert rep.density == Fraction(rep.raw_counts[0], p ** 4)


def test_stabilization_random_suite():
    rng = random.Random(23)
    U = hyperbolic_plane()
    cases = 0
    while cases < 50:
        kind = rng.random()
        if kind < 0.5:
            L = random_even_lattice(rng, max_rank=3)
        else:
            L = direct_sum(U, U, rank1(rng.choice([-2, -4, -6, -8])))
        D = discriminant_group(L)
        if D.order > 200:
            continue
        gamma = rng.choice(D.elements())
        lift = D.lift(gamma)
        n = -L.q_of(lift) + rng.randint(1, 6)
        if n <= 0:
            continue
        p = rng.choice([2, 3, 5, 7])
        rep = local_density(gamma, n, L, p)
        r = L.rank
        norm0 = Fraction(rep.raw_counts[rep.stabilization_exponent - 1],
                         p ** ((r - 1) * rep.stabilization_exponent))
        norm1 = Fraction(rep.raw_counts[rep.stabilization_exponent],
                         p ** ((r - 1) * (rep.stabilization_exponent + 1)))
        assert norm0 == norm1 == rep.density
        cases += 1


def test_singular_series(v_lattice):
    ss = singular_series(None, 1, v_lattice, 50)
    assert ss.truncated_product > 0
    assert 5 in ss.factors and ss.factors[5].density == Fraction(26, 25)
    assert set(p for p in ss.factors) == set(small_primes(50))
    # primes dividing n beyond the bound are included
    ss2 = singular_series(None, 101, v_lattice, 10)
    assert 101 in ss2.factors


def test_singular_series_checks_the_coset_once(v_lattice, monkeypatch):
    # (gamma, n) is checked once for all 25 primes: only the counts at p = 2
    # read the count data again, for their own sake
    import hyperlat.densities as dens

    checks, splits = [], []
    data, split = dens._count_data, dens.count_solutions_split
    monkeypatch.setattr(dens, "_count_data", lambda *a: checks.append(a) or data(*a))
    monkeypatch.setattr(dens, "count_solutions_split",
                        lambda *a: splits.append(a) or split(*a))
    assert len(singular_series(None, 1, v_lattice, 100).factors) == 25
    assert splits and len(checks) == 1 + len(splits)


def test_odd_primes_pair_no_coordinates():
    # at odd p every translated rank-1 piece is a residual coordinate
    L = direct_sum(*(rank1(m) for m in (2, 6, -6, -6, -6)))
    uniform, residual, planes, _ = _local_pieces(L.gram, 3, (0,) * 5)
    assert uniform == planes == () and sorted(residual) == [-3, -3, -3, 1, 3]


def test_singular_series_rank_guard():
    with pytest.raises(DensityError):
        singular_series(None, 1, direct_sum(hyperbolic_plane(), rank1(-2)), 10)


def test_eisenstein_constant_term(v_lattice):
    c = eisenstein_coefficient(None, 0, v_lattice, 10)
    assert c.exact == 2
    assert not c.approximate


def test_eisenstein_negative(v_lattice):
    for n in (1, 2, 7):
        c = eisenstein_coefficient(None, n, v_lattice, 30)
        assert float(c) < 0
        assert c.approximate


def test_eisenstein_gamma_zero_coefficient(v_lattice):
    c = eisenstein_coefficient((1,), 0, v_lattice, 10)
    assert c.exact == 0


def test_eisenstein_constant_term_of_an_integral_lift(v_lattice):
    # any integral dual vector lifts the zero class, whose constant term is 2
    for lift in ((Fraction(1), 0, 0, 0, 0), (Fraction(0),) * 4 + (Fraction(-3),)):
        assert eisenstein_coefficient(lift, 0, v_lattice, 10).exact == 2
    assert eisenstein_coefficient((Fraction(1),) + (0,) * 3 + (Fraction(1, 2),),
                                  0, v_lattice, 10).exact == 0


def test_is_representable(v_lattice):
    assert is_representable(None, 7, v_lattice)
    assert is_representable(None, 1, v_lattice)
    assert not is_representable(None, -3, v_lattice)
    assert not is_representable(None, 0, v_lattice)
    # wrong coset support
    assert not is_representable((1,), 1, v_lattice)
    assert is_representable((1,), Fraction(1, 4), v_lattice)


def test_is_representable_without_split():
    # definite-direction failure: x^2+y^2+z^2+w^2... use an anisotropic spot:
    # the lattice <2>+<2>+<-6>+... keep rank 5 with known local failure at 3
    L = direct_sum(rank1(2), rank1(2), rank1(-6), rank1(-6), rank1(-6))
    # Q = x^2 + y^2 - 3(z^2+w^2+v^2); -n = Q needs n = 3(...) - x^2 - y^2
    # n = 1: x^2 + y^2 + 1 = 3 m has solutions mod 3 only if x,y not both 0 mod 3
    assert L.signature().positive == 2
    got = is_representable(None, 1, L)
    # oracle: solvable mod 9 with the sharper density check
    rep3 = local_density(None, 1, L, 3)
    assert got == (rep3.density > 0)


def test_is_representable_in_ranks_2_to_4():
    # genera of one class, where local and global agree: -(x^2 - 2 y^2),
    # sums of three squares (Legendre: n not 4^a (8 b + 7)) and of four
    def diagonal(*ms):
        return direct_sum(*(rank1(m) for m in ms))

    def two_squares_minus(n, box=40):
        return any(x * x - 2 * y * y == n for x in range(-box, box + 1)
                   for y in range(-box, box + 1))

    def legendre_three(n):
        while n % 4 == 0:
            n //= 4
        return n % 8 != 7

    for n in range(1, 33):
        assert is_representable(None, n, diagonal(-2, 4)) == two_squares_minus(n), n
        assert is_representable(None, n, diagonal(-2, -2, -2)) == legendre_three(n), n
        assert is_representable(None, n, diagonal(-2, -2, -2, -2)), n
        # no negative direction: -n < 0 is not a value at infinity
        assert not is_representable(None, n, diagonal(2, 2, 2))
    # x^2 - 11 (y^2 + z^2) = 2 fails mod 11, = 1 is solvable everywhere
    P11 = diagonal(-2, 22, 22)
    assert not is_representable(None, 2, P11) and is_representable(None, 1, P11)
    with pytest.raises(DensityError, match="rank >= 2"):
        is_representable(None, 1, rank1(-2))


def test_is_representable_matches_the_prime_sweep():
    # oracle: the sweep is_representable once made, a positive density at
    # every prime up to 50 and at every prime dividing 2 num(n) den(n) det
    def swept(lift, n, V):
        ps = set(small_primes(50))
        ps.update(_prime_factors(2 * n.numerator * n.denominator * V.det))
        return all(local_density(lift, n, V, p).density > 0 for p in ps)

    def diagonal(*ms):
        return direct_sum(*(rank1(m) for m in ms))

    seen = set()
    for V in (diagonal(2, 6, -6, -6, -6), diagonal(2, 2, -6, -6, -6),
              diagonal(2, 2, -2, -2, -2), direct_sum(hyperbolic_plane(), diagonal(6, -6, -18))):
        D = discriminant_group(V)
        for gamma in D.elements()[:3]:
            lift = D.lift(gamma)
            for k in range(5):
                n = (-V.q_of(lift)) % 1 + k
                if n > 0:
                    got = is_representable(gamma, n, V)
                    assert got == swept(lift, n, V), (V.name, gamma, n)
                    seen.add(got)
    assert seen == {True, False}


def test_local_pieces_shared_across_norms(v_lattice):
    # c0 only shifts the constant, so one Jordan-piece entry per prime
    # counted on the splitting (p = 2 and the p dividing det) serves every
    # norm of the coset
    _local_pieces.cache_clear()
    primes = set()
    for n in range(300, 331):
        primes.update(singular_series(None, n, v_lattice, 100).factors)
    assert 0 < _local_pieces.cache_info().currsize <= len(primes)


def test_unimodular_primes_build_no_jordan_splitting(v_lattice):
    # det = -2: the odd p dividing n are counted on <1, 1, 1, 1, -2> with no
    # Jordan splitting, so p = 2 builds the only one; its pieces are split
    # once and then reused across the norms
    import hyperlat.densities as dens

    for cache in (jordan_splitting, dens._local_pieces, dens._reduced_count,
                  dens._coset_data):
        cache.cache_clear()
    for n in range(300, 331):
        singular_series(None, n, v_lattice, 100)
    assert jordan_splitting.cache_info().currsize == 1
    assert dens._local_pieces.cache_info().currsize == 1
    assert dens._local_pieces.cache_info().hits > 0
