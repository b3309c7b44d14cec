import pytest

from hyperlat.exactla import hnf, mat_mul, transpose
from hyperlat.lattices import IntegerLattice, direct_sum, e8, hyperbolic_plane, k3_lattice, rank1


@pytest.fixture
def u_lattice():
    return hyperbolic_plane()


@pytest.fixture
def v_lattice():
    """U + U + rank1(-2): the signature (2,3) workhorse."""
    U = hyperbolic_plane()
    return direct_sum(U, U, rank1(-2))


@pytest.fixture
def v8_lattice():
    """U + U + rank1(-8): discriminant group Z/8."""
    U = hyperbolic_plane()
    return direct_sum(U, U, rank1(-8))


@pytest.fixture
def e8_neg():
    return e8(-1)


@pytest.fixture
def k3():
    return k3_lattice()


def small_test_lattices():
    """The lattices whose discriminant modules the relation tests sweep."""
    U = hyperbolic_plane()
    return [
        U,
        direct_sum(U, U),
        rank1(2),
        rank1(-2),
        rank1(4),
        rank1(-6),
        direct_sum(U, rank1(-2)),
        direct_sum(U, U, rank1(-2)),
        direct_sum(U, U, rank1(-8)),
        direct_sum(rank1(2), rank1(-4)),
        direct_sum(U, rank1(2), rank1(-6)),
        e8(-1),
    ]


def d16_plus(scale=1):
    """D16+ scaled by scale: D16 and the glue vector (1/2, ..., 1/2), in a
    Hermite basis of doubled coordinates.  Even unimodular of rank 16 and
    indecomposable, so its Gram shows one component."""
    gens = [[2 * ((j == i) - (j == i + 1)) for j in range(16)] for i in range(15)]
    gens += [[2 * (j >= 14) for j in range(16)], [1] * 16]
    b = [row for row in hnf(gens) if any(row)]
    return IntegerLattice([[scale * x // 4 for x in row] for row in mat_mul(b, transpose(b))])


def mixed_e8_sum(scale=1):
    """E8 + E8 scaled by scale, in a basis whose Gram shows one component:
    e_0 takes on e_8, and e_9 takes on e_1."""
    t = [[int(i == j) for j in range(16)] for i in range(16)]
    t[0][8] = t[9][1] = 1
    g = [list(r) for r in direct_sum(e8(scale), e8(scale)).gram]
    return IntegerLattice(mat_mul(mat_mul(t, g), transpose(t)))
