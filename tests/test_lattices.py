import json
import random
from fractions import Fraction

import pytest

from hyperlat.fqm import discriminant_group
from hyperlat.lattices import (
    IntegerLattice,
    LatticeError,
    Signature,
    direct_sum,
    e8,
    hyperbolic_plane,
    is_anisotropic_over_q,
    jordan_splitting,
    k3_lattice,
    lattice_from_json,
    load_lattice,
    make_named,
    orthogonal_complement,
    rank1,
    rescale,
)
from conftest import small_test_lattices


def test_named_constructors():
    assert make_named("U").gram == ((0, 1), (1, 0))
    assert make_named("rank1", [-2]).gram == ((-2,),)
    k3 = make_named("K3")
    assert k3.rank == 22
    assert k3.signature() == Signature(3, 19)
    assert abs(k3.det) == 1
    with pytest.raises(LatticeError):
        make_named("rank1", [3])
    with pytest.raises(LatticeError):
        make_named("nosuch")
    with pytest.raises(LatticeError):
        rescale(hyperbolic_plane(), 0)


def test_gram_validation():
    with pytest.raises(LatticeError):
        IntegerLattice(((1,),))  # odd diagonal
    with pytest.raises(LatticeError):
        IntegerLattice(((0, 1), (2, 0)))  # not symmetric
    IntegerLattice(((2, 1), (1, 2)))
    IntegerLattice(((2, 1), (1, 0)))  # even with zero diagonal entry is fine


def test_degenerate_rejected():
    with pytest.raises(LatticeError):
        IntegerLattice(((2, 2), (2, 2)))


@pytest.mark.parametrize("p", [None, 2, 3])
def test_jordan_splitting_refuses_a_degenerate_gram(p):
    for gram in (((2, 2), (2, 2)), ((0, 1, 0), (1, 0, 0), (0, 0, 0)), ((0, 0), (0, 0))):
        with pytest.raises(LatticeError, match="degenerate"):
            jordan_splitting(gram, p)


def test_signatures():
    assert hyperbolic_plane().signature() == Signature(1, 1)
    assert e8(-1).signature() == Signature(0, 8)
    assert e8(1).signature() == Signature(8, 0)
    assert k3_lattice().signature() == Signature(3, 19)
    V = direct_sum(hyperbolic_plane(), hyperbolic_plane(), rank1(-2))
    assert V.signature() == Signature(2, 3)


def test_signature_additivity():
    rng = random.Random(2)
    pieces = [hyperbolic_plane(), rank1(2), rank1(-4), e8(-1)]
    for _ in range(10):
        a, b = rng.choice(pieces), rng.choice(pieces)
        s = direct_sum(a, b).signature()
        assert s == a.signature() + b.signature()


def test_discriminant_order_is_det():
    for L in small_test_lattices():
        D = discriminant_group(L)
        assert D.order == abs(L.det)


def test_discriminant_direct_sum():
    a = rank1(-2)
    b = rank1(4)
    ab = direct_sum(a, b)
    da, db, dab = (discriminant_group(x) for x in (a, b, ab))
    assert sorted(dab.invariant_factors) == sorted(
        da.invariant_factors + db.invariant_factors)
    qvals = sorted(dab.q_value(e) for e in dab.elements())
    combined = sorted((da.q_value(x) + db.q_value(y)) % 1
                      for x in da.elements() for y in db.elements())
    assert qvals == combined


def test_orthogonal_complement_examples():
    U = hyperbolic_plane()
    uu = direct_sum(U, U)
    comp = orthogonal_complement(uu, [[1, 0, 0, 0], [0, 1, 0, 0]])
    assert comp.gram == U.gram

    k3 = k3_lattice()
    sub = [[1, 1] + [0] * 20]  # e + f in the first hyperbolic block
    comp = orthogonal_complement(k3, sub)
    assert comp.rank == 21
    assert comp.signature() == Signature(2, 19)
    assert discriminant_group(comp).invariant_factors == (2,)

    full = orthogonal_complement(U, [[1, 0], [0, 1]])
    assert full.rank == 0


def test_complement_in_unimodular_preserves_det():
    # |det P| = |det complement| inside a unimodular lattice
    k3 = k3_lattice()
    rng = random.Random(9)
    for d in (1, 2, 3):
        sub = [[1, d] + [0] * 20]
        comp = orthogonal_complement(k3, sub)
        assert abs(comp.det) == 2 * d


def test_complement_rejects_non_primitive():
    U = hyperbolic_plane()
    with pytest.raises(LatticeError):
        orthogonal_complement(direct_sum(U, U), [[2, 0, 0, 0]])
    with pytest.raises(LatticeError):
        orthogonal_complement(direct_sum(U, U), [[1, 0, 0, 0], [2, 0, 0, 0]])


def test_anisotropy():
    assert is_anisotropic_over_q(rank1(2))
    assert is_anisotropic_over_q(rank1(-8))
    assert not is_anisotropic_over_q(hyperbolic_plane())
    assert is_anisotropic_over_q(direct_sum(rank1(2), rank1(-4)))
    assert not is_anisotropic_over_q(direct_sum(rank1(2), rank1(-2)))
    assert not is_anisotropic_over_q(direct_sum(rank1(2), rank1(-2), rank1(6)))
    # x^2 + y^2 - 3 z^2: no rational point (classic)
    L = direct_sum(rank1(2), rank1(2), rank1(-6))
    assert is_anisotropic_over_q(L)
    # definite forms are always anisotropic
    assert is_anisotropic_over_q(direct_sum(rank1(2), rank1(4), rank1(6), rank1(8)))
    with pytest.raises(LatticeError):
        is_anisotropic_over_q(direct_sum(hyperbolic_plane(), rank1(2),
                                         rank1(-2), rank1(4)))


def test_anisotropy_vs_null_vector_search():
    rng = random.Random(21)
    for _ in range(25):
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
        null_found = None
        import itertools
        for v in itertools.product(range(-6, 7), repeat=r):
            if any(v) and L.q_of(v) == 0:
                null_found = v
                break
        if null_found is not None:
            assert not is_anisotropic_over_q(L), (g, null_found)


def test_file_format_roundtrip(tmp_path):
    V = direct_sum(hyperbolic_plane(), rank1(-4))
    text = V.to_json()
    back = lattice_from_json(text)
    assert back.gram == V.gram
    with pytest.raises(LatticeError):
        lattice_from_json(json.dumps({"gram": [[1, 0], [0, 2]]}))
    with pytest.raises(LatticeError):
        lattice_from_json(json.dumps({"gram": [[0, 1], [2, 0]]}))
    # an old split key is ignored
    old = {"gram": [[0, 2], [2, 0]], "hyperbolic_split": {"rows": [0, 1]}}
    assert lattice_from_json(json.dumps(old)) == IntegerLattice(((0, 2), (2, 0)))


def test_components_of_named_lattices_and_sums():
    U = hyperbolic_plane()
    k3 = k3_lattice()
    assert k3.components == ((0, 1), (2, 3), (4, 5), tuple(range(6, 14)),
                             tuple(range(14, 22)))
    V = direct_sum(rank1(-2), e8(-1), U, U)
    assert V.components == ((0,), tuple(range(1, 9)), (9, 10), (11, 12))
    assert rank1(-2).components == ((0,),)
    assert IntegerLattice(()).components == ()


def test_hyperbolic_split_is_an_orthogonal_summand():
    # U on the non-adjacent rows 0 and 2, <-2> between them
    L = IntegerLattice(((0, 0, 1), (0, -2, 0), (1, 0, 0)))
    assert L.components == ((0, 2), (1,))
    # rows 0, 1 have the 2x2 entries of U, but row 1 meets row 2:
    # no orthogonal summand
    M = IntegerLattice(((0, 1, 0), (1, 0, 1), (0, 1, -2)))
    assert M.components == ((0, 1, 2),)


def test_old_metadata_keys_are_ignored(tmp_path):
    V = direct_sum(hyperbolic_plane(), hyperbolic_plane(), rank1(-2))
    assert set(json.loads(V.to_json())) == {"gram", "name"}
    path = tmp_path / "old.json"
    path.write_text(json.dumps({
        "name": "U+U+rank1(-2), blocks but no hyperbolic_split",
        "gram": [list(r) for r in V.gram],
        "blocks": [[0, 2], [2, 2], [4, 1]]}))
    back = load_lattice(path)
    assert back == V and back.components == V.components
    assert not hasattr(back, "blocks")
    # keys the old format rejected (blocks that do not partition the basis,
    # a split on rows that are not U) no longer matter
    path.write_text(json.dumps({
        "gram": [list(r) for r in V.gram],
        "blocks": [[0, 3]], "hyperbolic_split": {"rows": [0, 4]}}))
    back = load_lattice(path)
    assert back == V
