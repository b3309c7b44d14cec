import itertools
import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from hyperlat.exactla import (
    _least_points,
    bareiss_det,
    floor_sqrt_fraction,
    frac_mat_inv,
    gram_schmidt_ldl,
    hnf,
    identity,
    invariant_factors,
    kernel_basis,
    lll_reduce_gram,
    NodeGuardExceeded,
    mat_mul,
    ShortVectorRows,
    short_vectors,
    smith_normal_form,
    transpose,
    unimodular_inverse,
)
from hyperlat.lattices import direct_sum, e8, jordan_splitting, rank1, rational_valuation


def random_int_matrix(rng, rows, cols, lo=-6, hi=6):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_smith_transforms_are_consistent():
    rng = random.Random(11)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = random_int_matrix(rng, rows, cols)
        d, u, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert abs(bareiss_det(u)) == 1
        assert abs(bareiss_det(v)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        for x, y in zip(diag, diag[1:]):
            if y != 0:
                assert x != 0 and y % x == 0


def test_kernel_basis():
    rng = random.Random(5)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        a = random_int_matrix(rng, rows, cols)
        for k in kernel_basis(a):
            assert all(sum(a[i][j] * k[j] for j in range(cols)) == 0
                       for i in range(rows))


def test_hnf_spans_same_lattice():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    h = hnf(a)
    assert invariant_factors(a) == invariant_factors(h)
    # pivots positive, below-pivot zeros
    assert all(row[next(i for i, x in enumerate(row) if x)] > 0 for row in h)


def test_congruent_diagonalization():
    # one elimination over Q (p = None) and over Z_p: trans^T G trans is the
    # block diagonal of the pieces, trans is p-integral with a unit
    # determinant, and only p = 2 leaves 2x2 blocks
    rng = random.Random(3)
    planes = zero_diagonal = 0
    tried = 0
    while tried < 60:
        n = rng.randint(1, 5)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-4, 4)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        if bareiss_det(g) == 0:
            continue
        tried += 1
        zero_diagonal += any(g[i][i] == 0 for i in range(n))
        for p in (None, 2, 3, 5):
            trans, pieces = jordan_splitting(tuple(map(tuple, g)), p)
            blocks = [[0] * n for _ in range(n)]
            for idx, block in pieces:
                for x, row in zip(idx, block):
                    for y, v in zip(idx, row):
                        blocks[x][y] = v
            assert [i for idx, _ in pieces for i in idx] == list(range(n))
            assert mat_mul(mat_mul(transpose(trans), g), trans) == blocks
            assert all(len(idx) == 1 for idx, _ in pieces) or p == 2
            planes += sum(len(idx) == 2 for idx, _ in pieces)
            if p is not None:
                den = lcm(*(x.denominator for row in trans for x in row))
                assert den % p
                scaled = [[int(x * den) for x in row] for row in trans]
                assert rational_valuation(Fraction(bareiss_det(scaled), den ** n), p) == 0
    assert planes and zero_diagonal


def test_fraction_solvers():
    a = [[1, 2], [3, 4]]
    inv = frac_mat_inv(a)
    assert mat_mul(a, inv) == [[1, 0], [0, 1]]
    assert unimodular_inverse([[1, 1], [0, 1]]) == [[1, -1], [0, 1]]


def test_unimodular_inverse_matches_fraction_inverse():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 8)
        a = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(4 * n if n > 1 else 0):
            i, j = rng.sample(range(n), 2)
            q = rng.randint(-4, 4)
            a[i] = [x + q * y for x, y in zip(a[i], a[j])]
            if rng.random() < 0.3:
                a[i], a[j] = a[j], [-x for x in a[i]]
        inv = unimodular_inverse(a)
        assert inv == frac_mat_inv(a)
        assert all(type(x) is int for row in inv for x in row)
    for bad in ([[2, 1], [0, 1]], [[1, 3], [1, 1]], [[3, 5, 0], [1, 1, 0], [0, 0, 1]],
                [[1, 2], [2, 4]]):   # det 2, -2, -2 and 0
        with pytest.raises(ValueError, match="not unimodular"):
            unimodular_inverse(bad)


def test_floor_sqrt_fraction():
    assert floor_sqrt_fraction(Fraction(35, 1)) == 5
    assert floor_sqrt_fraction(Fraction(36, 1)) == 6
    assert floor_sqrt_fraction(Fraction(1, 2)) == 0
    assert floor_sqrt_fraction(Fraction(50, 2)) == 5


def test_ldl_and_lll():
    g = [[Fraction(4), Fraction(1)], [Fraction(1), Fraction(3)]]
    mu, d = gram_schmidt_ldl(g)
    assert d[0] == 4 and d[1] == Fraction(3) - Fraction(1, 4)
    # LLL on a skew basis of Z^2
    skew = [[2, 9], [9, 41]]  # gram of basis (v, w) with huge mu
    u, reduced = lll_reduce_gram(skew)
    assert abs(bareiss_det([[int(x) for x in row] for row in u])) == 1
    assert reduced[0][0] <= skew[0][0]
    got = mat_mul(mat_mul(u, [[Fraction(x) for x in r] for r in skew]),
                  transpose(u))
    assert got == reduced
    # the rank-9 theta input: -G^{-1} of E8(-1) + rank1(-2)
    K = direct_sum(e8(-1), rank1(-2))
    g = [[-x for x in row] for row in frac_mat_inv(K.gram)]
    u, reduced = lll_reduce_gram(g)
    assert abs(bareiss_det(u)) == 1
    assert mat_mul(mat_mul(u, g), transpose(u)) == reduced


def _random_posdef(rng, n):
    while True:
        b = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
             for _ in range(n)]
        a = mat_mul(transpose(b), b)
        try:
            gram_schmidt_ldl(a)
        except ValueError:
            continue
        return a


def test_short_vectors_against_brute_force():
    rng = random.Random(17)
    # x^2 + 6xy + 10y^2 and a rank-3 form built from a skewed basis: their
    # LLL reduction changes the basis, so the rows step along a new vector
    skewed = [[Fraction(1), Fraction(3)], [Fraction(3), Fraction(10)]]
    skewed3 = mat_mul(transpose([[1, 0, 0], [4, 1, 0], [-3, 5, 1]]),
                      [[1, 0, 0], [4, 1, 0], [-3, 5, 1]])
    for form in (skewed, skewed3):
        assert lll_reduce_gram(form)[0] != identity(len(form))
    cases = [(skewed, [Fraction(1, 3), Fraction(-5, 2)], Fraction(9)),
             (skewed3, [Fraction(7, 4), Fraction(0), Fraction(-1, 3)], Fraction(17, 2))]
    for _ in range(60):
        n = rng.randint(1, 3)
        a = _random_posdef(rng, n)
        shift = [Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                 for _ in range(n)]
        bound = Fraction(rng.randint(0, 20), rng.randint(1, 4))
        cases.append((a, shift, bound))
    for a, shift, bound in cases:
        n = len(a)
        got = {}
        for z, value in short_vectors(a, bound, shift):
            assert z not in got
            got[z] = value
        # box: |x_i| <= sqrt(bound (a^{-1})_ii) for x^T a x <= bound
        ainv = frac_mat_inv(a)
        ranges = []
        for i in range(n):
            r = floor_sqrt_fraction(bound * ainv[i][i]) + 1
            ranges.append(range(-r - 4, r + 5))
        # integer model: X = den (z + shift), value = X^T (den_a a) X / scale
        den = lcm(*(x.denominator for x in shift))
        den_a = lcm(*(x.denominator for row in a for x in row))
        a_int = [[int(x * den_a) for x in row] for row in a]
        scale = den_a * den * den
        limit = int(bound * scale)  # bound * scale floored, as num is an int
        shift_int = [int(si * den) for si in shift]
        want = {}
        for z in itertools.product(*ranges):
            x = [zi * den + si for zi, si in zip(z, shift_int)]
            num = sum(x[i] * a_int[i][j] * x[j]
                      for i in range(n) for j in range(n))
            if num <= limit:
                want[z] = Fraction(num, scale)
        assert got == want
        # every vector lies on exactly one row, whose scaled value is the
        # quadratic of the row index
        rows = ShortVectorRows(a, bound, shift)
        on_rows = Counter()
        for prefix, lo, hi, offset, centre in rows:
            for k in range(lo, hi + 1):
                z = tuple(p + k * s for p, s in zip(prefix, rows.step))
                on_rows[z] += 1
                v = offset + rows.d0 * (rows.e * k - centre) ** 2
                assert offset <= v <= rows.top
                assert v == want[z] * rows.scale
        assert on_rows == Counter(want.keys())


def test_rows_round_the_bound_to_the_value_grid():
    # values of (z + shift)^T a (z + shift) lie in Z / 36 here: a bound just
    # above 5 walks the same rows, at the same scale, as the bound 5
    a = [[Fraction(2), Fraction(1, 2)], [Fraction(1, 2), Fraction(3)]]
    shift = [Fraction(1, 3), Fraction(0)]
    rows = ShortVectorRows(a, 5, shift)
    near = ShortVectorRows(a, 5 + Fraction(1, 10 ** 20), shift)
    assert (near.scale, near.top) == (rows.scale, rows.top)
    assert list(near) == list(rows) and list(rows)


@pytest.mark.parametrize("lattice, orders", [
    (e8(-1), (1, 3, 5)),
    *[(direct_sum(*[rank1(-2)] * k), (1, 2, 5, 8)) for k in (1, 2, 3, 4, 6)],
], ids=["E8(-1)"] + [f"<-2>^{k}" for k in (1, 2, 3, 4, 6)])
def test_least_points_stays_below_the_walk(lattice, orders):
    # the volume bound that refuses a guarded walk before it starts: at or
    # below the walked count at every order, with or without a shift
    a = [[-x for x in row] for row in lattice.gram]
    _, d = gram_schmidt_ldl(lll_reduce_gram(a)[1])
    r = len(a)
    for order in orders:
        for shift in (None, [Fraction(1, 2)] * r):
            walked = sum(hi - lo + 1 for _, lo, hi, _, _ in ShortVectorRows(a, 2 * order, shift))
            assert _least_points(d, 2 * order) <= walked
    assert _least_points(d, 2 * orders[-1]) > 0


def test_least_points_refuses_e8_at_order_40():
    # E8(-1) to order 40 holds about 1.7 * 10^8 vectors, and the bound reads
    # 3.8 * 10^7: past theta's guard of 10^6 candidates before the first is
    # walked, where the walk took 3 s to reach the guard
    a = [[-x for x in row] for row in e8(-1).gram]
    _, d = gram_schmidt_ldl(lll_reduce_gram(a)[1])
    assert _least_points(d, 80) > 10 ** 6
    with pytest.raises(NodeGuardExceeded):
        ShortVectorRows(a, 80, guard=10 ** 6)


def test_short_vectors_guard_and_edges():
    # x^2 + y^2 <= 1: 5 vectors; the top level alone visits 3 candidates
    a = [[1, 0], [0, 1]]
    assert sorted(z for z, _ in short_vectors(a, 1)) == \
        [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
    with pytest.raises(NodeGuardExceeded):
        list(short_vectors(a, 1, guard=4))
    assert len(list(short_vectors(a, 1, guard=8))) == 5
    assert list(short_vectors(a, -1)) == []
    assert list(short_vectors([], 0)) == [((), Fraction(0))]
