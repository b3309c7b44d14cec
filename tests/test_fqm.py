import random
from collections import Counter
from fractions import Fraction

import pytest

from hyperlat.fqm import (
    FiniteQuadraticModule,
    FqmError,
    discriminant_group,
    isotropic_subgroups,
    orthogonal_subgroup,
    overlattice,
    overlattice_with_basis,
    quotient_module,
    quotient_with_projection,
    subgroup_generated,
)
from hyperlat.lattices import direct_sum, e8, hyperbolic_plane, rank1
from hyperlat.weil import WeilAction, intertwining_defect
from conftest import small_test_lattices


def test_q_value_examples(v8_lattice):
    D2 = discriminant_group(rank1(-2))
    assert D2.invariant_factors == (2,)
    assert D2.q_value((1,)) == Fraction(3, 4)   # -1/4 mod 1
    assert D2.q_value((0,)) == 0
    assert D2.level == 4

    D8 = discriminant_group(v8_lattice)
    assert D8.invariant_factors == (8,)
    assert D8.q_value((1,)) == Fraction(15, 16)
    assert D8.level == 16

    trivial = discriminant_group(hyperbolic_plane())
    assert trivial.order == 1
    assert trivial.q_value(()) == 0


def test_q_value_out_of_range():
    D = discriminant_group(rank1(-2))
    with pytest.raises(FqmError):
        D.q_value((1, 0))


def test_bilinear_matches_polarization():
    for L in small_test_lattices():
        D = discriminant_group(L)
        if D.order > 100:
            continue
        elts = D.elements()
        pairs = D.pairing_numerators(elts, elts)
        qs = D.q_numerators(elts)
        for i, x in enumerate(elts):
            assert Fraction(int(qs[i]), D.level) == D.q_value(x)
            for j, y in enumerate(elts):
                lhs = D.bilinear(x, y)
                rhs = (D.q_value(D.add(x, y)) - D.q_value(x) - D.q_value(y)) % 1
                assert lhs == rhs
                assert Fraction(int(pairs[i][j]), D.level) == lhs


def test_lift_independence():
    rng = random.Random(4)
    for L in small_test_lattices():
        D = discriminant_group(L)
        if D.order == 1 or D.order > 64:
            continue
        for _ in range(5):
            elt = rng.choice(D.elements())
            lift = list(D.lift(elt))
            shift = [rng.randint(-3, 3) for _ in range(L.rank)]
            shifted = [a + b for a, b in zip(lift, shift)]
            assert L.q_of(shifted) % 1 == D.q_value(elt)
            assert D.class_of(shifted) == elt


def test_isotropic_subgroups(v8_lattice):
    D2 = discriminant_group(rank1(-2))
    groups = isotropic_subgroups(D2)
    assert len(groups) == 1 and groups[0].order == 1

    D8 = discriminant_group(v8_lattice)
    groups = isotropic_subgroups(D8)
    orders = sorted(g.order for g in groups)
    assert orders == [1, 2]
    maximal = [g for g in groups if g.is_maximal_isotropic]
    assert len(maximal) == 1 and set(maximal[0].elements) == {(0,), (4,)}

    trivial = discriminant_group(hyperbolic_plane())
    assert [g.order for g in isotropic_subgroups(trivial)] == [1]


def test_orthogonal_subgroup(v8_lattice):
    D8 = discriminant_group(v8_lattice)
    H = subgroup_generated(D8, [(4,)])
    perp = orthogonal_subgroup(D8, H)
    assert set(perp.elements) == {(0,), (2,), (4,), (6,)}
    full = orthogonal_subgroup(D8, subgroup_generated(D8, []))
    assert len(full.elements) == 8


def test_orthogonality_counting():
    # |H| * |H perp| = |D| for isotropic H
    for L in small_test_lattices():
        D = discriminant_group(L)
        if D.order > 100:
            continue
        for H in isotropic_subgroups(D):
            perp = orthogonal_subgroup(D, H)
            assert H.order * perp.order == D.order


def test_quotient_module(v8_lattice):
    D8 = discriminant_group(v8_lattice)
    H = subgroup_generated(D8, [(4,)])
    K, proj = quotient_with_projection(D8, H)
    assert K.invariant_factors == (2,)
    assert K.q_value((1,)) == Fraction(3, 4)
    assert proj[(2,)] == (1,) and proj[(6,)] == (1,)
    assert proj[(0,)] == (0,) and proj[(4,)] == (0,)

    # quotient by the trivial subgroup is the module itself
    K0 = quotient_module(D8, subgroup_generated(D8, []))
    assert K0.invariant_factors == D8.invariant_factors
    assert [K0.q_value(e) for e in K0.elements()] == \
        [D8.q_value(e) for e in D8.elements()]

    with pytest.raises(FqmError):
        quotient_module(D8, subgroup_generated(D8, [(2,)]))  # not isotropic


def test_overlattice(v8_lattice):
    D8 = discriminant_group(v8_lattice)
    H = subgroup_generated(D8, [(4,)])
    VL, basis = overlattice_with_basis(v8_lattice, H)
    expected = direct_sum(hyperbolic_plane(), hyperbolic_plane(), rank1(-2))
    assert VL.gram == expected.gram
    assert abs(VL.det) * H.order ** 2 == abs(v8_lattice.det)

    # trivial subgroup gives the lattice back
    same = overlattice(v8_lattice, subgroup_generated(D8, []))
    assert same.gram == v8_lattice.gram

    with pytest.raises(FqmError):
        overlattice(v8_lattice, subgroup_generated(D8, [(2,)]))


def test_integer_numerators(v8_lattice):
    D8 = discriminant_group(v8_lattice)
    assert (D8.level, D8.q_num, D8.b_num) == (16, (15,), ((14,),))
    # a level given too large is reduced to the smallest one
    M = FiniteQuadraticModule((2,), 40, (30,), ((20,),))
    assert (M.level, M.q_num, M.b_num) == (4, (3,), ((2,),))
    assert M == discriminant_group(rank1(-2))


def test_large_levels_pair_exactly():
    # the pairings stay exact where a product of two numerators below the
    # level would overflow int64
    L = direct_sum(hyperbolic_plane(), rank1(-2 * 10 ** 9))
    D = discriminant_group(L)
    assert D.level ** 2 > 2 ** 63
    xs = [(1,), (12345,), (10 ** 9,), (2 * 10 ** 9 - 1,)]
    assert [Fraction(int(q), D.level) for q in D.q_numerators(xs)] == \
        [D.q_value(x) for x in xs]
    pairs = D.pairing_numerators(xs, xs)
    assert [[Fraction(int(p), D.level) for p in row] for row in pairs] == \
        [[D.bilinear(x, y) for y in xs] for x in xs]
    assert subgroup_generated(D, [(10 ** 9,)]).is_isotropic()            # Q = -2.5e8
    assert not subgroup_generated(D, [(31250000,)]).is_isotropic()    # order 64


def _order_in(D, x, hs):
    """The least k >= 1 with k x in the set hs."""
    k, y = 1, x
    while y not in hs:
        k, y = k + 1, D.add(y, x)
    return k


def _listed_quotient(D, H):
    """H-perp/H by listing, independent of any overlattice: its order, its
    sorted Q values, and how many of its elements have each order, with Q
    read on one representative of each H-coset of orthogonal_subgroup(D, H)."""
    hs = set(H.elements)
    reps, covered = [], set()
    for x in orthogonal_subgroup(D, H).elements:
        if x not in covered:
            reps.append(x)
            covered.update(D.add(x, h) for h in hs)
    return (len(reps), sorted(D.q_value(x) for x in reps),
            Counter(_order_in(D, x, hs) for x in reps))


def _listed(K):
    return _listed_quotient(K, subgroup_generated(K, []))


@pytest.mark.parametrize("m, h", [(8, (4,)), (32, (8,))])
def test_quotient_numerators_match_overlattice(m, h):
    # quotient_module builds K as the overlattice's discriminant group; the
    # H-cosets of H-perp, listed, are the independent side
    L = direct_sum(hyperbolic_plane(), hyperbolic_plane(), rank1(-m))
    D = discriminant_group(L)
    H = subgroup_generated(D, [h])
    assert _listed(quotient_module(D, H)) == _listed_quotient(D, H)


def test_overlattice_matches_quotient(v8_lattice):
    # discriminant module of the overlattice = H-perp/H, listed coset by coset
    D8 = discriminant_group(v8_lattice)
    H = subgroup_generated(D8, [(4,)])
    DV = discriminant_group(overlattice(v8_lattice, H))
    order, qs, orders = _listed_quotient(D8, H)
    assert (order, qs, orders) == (2, [0, Fraction(3, 4)], Counter({1: 1, 2: 1}))
    assert _listed(DV) == (order, qs, orders)


def test_dump_text():
    D = discriminant_group(rank1(-2))
    text = D.dump_text()
    assert "invariant factors: 2" in text
    assert "1 : Q=3/4" in text


def test_class_of_pairings_reduces_only_the_kept_rows():
    # the reference reduces all of u m, then keeps the invariant-factor rows
    from hyperlat.exactla import mat_vec

    rng = random.Random(10)
    for L in small_test_lattices() + [direct_sum(e8(-1), rank1(-2))]:
        D = discriminant_group(L)
        u, kept = D._class_data
        for _ in range(20):
            m = [rng.randint(-60, 60) for _ in range(L.rank)]
            um = mat_vec(u, m)
            assert D.class_of_pairings(m) == tuple(
                um[i] % d for i, d in zip(kept, D.invariant_factors))


def test_integer_pairings_match_the_scalar_forms():
    # Python integers at every level, the last lattice past int64 products;
    # the residues drawn are not reduced, and the lifts give a third opinion
    rng = random.Random(11)
    big = direct_sum(hyperbolic_plane(), rank1(-2 * 10 ** 9))
    for L in small_test_lattices() + [big]:
        D = discriminant_group(L)
        xs = [tuple(rng.randrange(-3 * d, 3 * d) for d in D.invariant_factors)
              for _ in range(8)]
        qs = D.q_numerators(xs)
        pairs = D.pairing_numerators(xs, xs[:5])
        assert all(type(v) is int for v in qs + [p for row in pairs for p in row])
        assert [Fraction(q, D.level) for q in qs] == [D.q_value(x) for x in xs] == \
            [L.q_of(D.lift(x)) % 1 for x in xs]
        assert [[Fraction(p, D.level) for p in row] for row in pairs] == \
            [[D.bilinear(x, y) for y in xs[:5]] for x in xs] == \
            [[L.pairing(D.lift(x), D.lift(y)) % 1 for y in xs[:5]] for x in xs]
    assert D.level ** 2 > 2 ** 63


def _quotient_cases():
    """(L, H) for every isotropic H of each small module of order <= 400, of
    U+U+<-8>+<-8> (D = (Z/8)^2) and of U+<-4>+<-4>+<-8> (D = (Z/4)^2 x Z/8),
    whose H = <(2, 2, 4)> a quotient by repeated additions missed."""
    U = hyperbolic_plane()
    extra = [direct_sum(U, U, rank1(-8), rank1(-8)),
             direct_sum(U, rank1(-4), rank1(-4), rank1(-8))]
    cases = []
    for L in small_test_lattices() + extra:
        D = discriminant_group(L)
        if D.order <= 400:
            cases += [(L, H) for H in isotropic_subgroups(D)]
    return cases


def test_quotient_is_the_overlattice_discriminant_group():
    cases = _quotient_cases()
    assert len(cases) == 23
    assert any(H.order == 2 and (2, 2, 4) in H for _, H in cases)
    for L, H in cases:
        D = H.module
        K, proj = quotient_with_projection(D, H)
        VL = overlattice(L, H)
        assert K == discriminant_group(VL)
        assert set(proj) == set(orthogonal_subgroup(D, H).elements)
        assert all(K.q_value(k) == D.q_value(x) for x, k in proj.items())
        fibres = Counter(proj.values())
        assert set(fibres) == set(K.elements())
        assert set(fibres.values()) == {H.order}
        defect = intertwining_defect(WeilAction(D, L.signature()),
                                     WeilAction(K, VL.signature()), proj)
        assert defect <= 1e-9


def test_quotient_by_the_trivial_subgroup_is_the_module():
    U = hyperbolic_plane()
    for L in small_test_lattices() + [direct_sum(U, U, rank1(-8), rank1(-8))]:
        D = discriminant_group(L)
        K, proj = quotient_with_projection(D, subgroup_generated(D, []))
        assert K == D
        assert proj == {x: x for x in D.elements()}


def test_quotient_of_a_module_without_lattice_is_refused():
    M = FiniteQuadraticModule((2,), 4, (3,), ((2,),))
    with pytest.raises(FqmError, match="no lattice backing"):
        quotient_with_projection(M, subgroup_generated(M, []))
