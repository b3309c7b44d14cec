from fractions import Fraction

import pytest

from hyperlat.cusps import CuspError, cusp_datum, find_isotropic_planes, isotropic_planes, project_class
from hyperlat.lattices import direct_sum, hyperbolic_plane, rank1


def test_canonical_cusp(v_lattice):
    F = cusp_datum(v_lattice, [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0]])
    assert F.imprimitivity == 1
    assert F.kf_lattice.gram == ((-2,),)
    assert F.strongly_primitive
    assert abs(v_lattice.det) == abs(F.kf_lattice.det) * F.imprimitivity ** 2
    assert F.kf_lattice.signature().positive == 0
    # projection preserves Q on all of H-perp
    for elt, img in F.projection_to_kf.items():
        assert F.kf_disc.q_value(img) == F.ambient_disc.q_value(elt)
    assert project_class(F, (1,)) == (1,)


def test_cusp_rejects_bad_planes(v_lattice):
    with pytest.raises(CuspError):
        cusp_datum(v_lattice, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])  # not isotropic
    with pytest.raises(CuspError):
        cusp_datum(v_lattice, [[1, 0, 0, 0, 0], [2, 0, 0, 0, 0]])  # dependent
    with pytest.raises(CuspError):
        cusp_datum(v_lattice, [[2, 0, 0, 0, 0], [0, 0, 2, 0, 0]])  # imprimitive


def test_imprimitive_cusp(v8_lattice):
    # plane spanned by e2 and (2,2,0,0,1): the half of the second vector is
    # in the dual, so the imprimitivity is 2
    F = cusp_datum(v8_lattice, [[0, 0, 1, 0, 0], [2, 2, 0, 0, 1]])
    assert F.imprimitivity == 2
    assert not F.strongly_primitive
    assert F.kf_lattice.gram == ((-2,),)
    assert abs(v8_lattice.det) == abs(F.kf_lattice.det) * F.imprimitivity ** 2
    assert set(F.h_subgroup.elements) == {(0,), (4,)}
    assert set(F.h_perp.elements) == {(0,), (2,), (4,), (6,)}
    # fibers of the projection have size N_F
    fibers = {}
    for elt, img in F.projection_to_kf.items():
        fibers.setdefault(img, []).append(elt)
    assert all(len(v) == 2 for v in fibers.values())
    # Q preserved
    for elt, img in F.projection_to_kf.items():
        assert F.kf_disc.q_value(img) == F.ambient_disc.q_value(elt)


def test_h_perp_cardinality(v8_lattice):
    F = cusp_datum(v8_lattice, [[0, 0, 1, 0, 0], [2, 2, 0, 0, 1]])
    assert F.h_perp.order == F.ambient_disc.order // F.imprimitivity
    assert F.h_perp.order == F.kf_disc.order * F.imprimitivity


def test_project_class_outside_orthogonal(v8_lattice):
    F = cusp_datum(v8_lattice, [[0, 0, 1, 0, 0], [2, 2, 0, 0, 1]])
    with pytest.raises(CuspError):
        project_class(F, (1,))


def test_plane_search_finds_canonical(v_lattice):
    data = find_isotropic_planes(v_lattice, 1)
    assert data  # nonempty
    canonical = tuple(sorted([(1, 0, 0, 0, 0), (0, 0, 1, 0, 0)]))
    found = {tuple(sorted(d.plane_basis)) for d in data}
    assert canonical in found
    # dedup: all planes distinct
    keys = [d.plane_basis for d in data]
    assert len(keys) == len(set(keys))
    # the data follow the sorted canonical bases of the search
    assert keys == isotropic_planes(v_lattice, 1)
    # square-free determinant: every plane strongly primitive
    assert all(d.strongly_primitive for d in data)


def test_plane_search_dedups_spans(v_lattice):
    # bases differing by row operations give one plane
    d1 = cusp_datum(v_lattice, [[1, 0, 0, 0, 0], [0, 0, 1, 0, 0]])
    d2 = cusp_datum(v_lattice, [[1, 0, 1, 0, 0], [0, 0, 1, 0, 0]])
    assert d1.plane_basis == d2.plane_basis


def test_plane_search_imprimitive_present(v8_lattice):
    data = find_isotropic_planes(v8_lattice, 2)
    assert any(d.imprimitivity == 2 for d in data)
    assert any(d.imprimitivity == 1 for d in data)
    for d in data:
        assert abs(v8_lattice.det) == abs(d.kf_lattice.det) * d.imprimitivity ** 2


def test_plane_search_needs_two_positive_directions():
    with pytest.raises(CuspError):
        find_isotropic_planes(rank1(-2), 1)


def _assert_projection_is_quotient_map(F):
    """p: H-perp -> D(K_F) is a homomorphism whose kernel is I^#/I."""
    D, K, p = F.ambient_disc, F.kf_disc, F.projection_to_kf
    for x in F.h_perp.elements:
        for y in F.h_perp.elements:
            assert p[D.add(x, y)] == K.add(p[x], p[y])
    assert {x for x, img in p.items() if img == K.zero} == set(F.h_subgroup.elements)


def test_projection_is_homomorphism_with_kernel_h(v8_lattice):
    data = find_isotropic_planes(v8_lattice, 1)
    assert data
    for F in data:
        _assert_projection_is_quotient_map(F)
    # K_F of rank 2, so the correction through the sharp pairings has two rows
    U = hyperbolic_plane()
    wide = direct_sum(U, U, rank1(-8), rank1(-4))
    data = find_isotropic_planes(wide, 1)
    data.append(cusp_datum(wide, [[0, 0, 1, 0, 0, 0], [2, 2, 0, 0, 1, 0]]))
    assert data[-1].imprimitivity == 2 and data[-1].kf_lattice.rank == 2
    for F in data:
        _assert_projection_is_quotient_map(F)
    imprimitive = cusp_datum(v8_lattice, [[0, 0, 1, 0, 0], [2, 2, 0, 0, 1]])
    assert imprimitive.imprimitivity == 2
    _assert_projection_is_quotient_map(imprimitive)


def _planes_saturating_every_pair(V, bound):
    """isotropic_planes with every orthogonal pair saturated: the reference
    for the search that skips the saturation of primitive spans."""
    from hyperlat.cusps import _is_isotropic_pair, _primitive_null_vectors, _saturate_plane

    g = [list(r) for r in V.gram]
    nulls = _primitive_null_vectors(V, bound)
    planes = set()
    pairs = 0
    for i, vi in enumerate(nulls):
        for vj in nulls[i + 1:]:
            if sum(vi[a] * g[a][b] * vj[b] for a in range(V.rank) for b in range(V.rank)):
                continue
            pairs += 1
            plane = _saturate_plane([list(vi), list(vj)])
            if len(plane) == 2 and _is_isotropic_pair(g, plane):
                planes.add(tuple(tuple(row) for row in plane))
    return sorted(planes), pairs


@pytest.mark.parametrize("blocks, bound, pairs, saturated", [
    ((rank1(-8),), 2, 672, 192),
    ((rank1(-8), rank1(-4)), 1, 64, 8),
], ids=["uu8-bound2", "uu8-4-bound1"])
def test_plane_search_saturates_only_imprimitive_spans(monkeypatch, blocks, bound,
                                                       pairs, saturated):
    import hyperlat.cusps as cusps

    V = direct_sum(hyperbolic_plane(), hyperbolic_plane(), *blocks)
    want, orthogonal_pairs = _planes_saturating_every_pair(V, bound)
    calls = []
    saturate = cusps._saturate_plane

    def counted(rows):
        calls.append(rows)
        return saturate(rows)

    monkeypatch.setattr(cusps, "_saturate_plane", counted)
    assert isotropic_planes(V, bound) == want
    # both branches ran: the other pairs span a primitive plane, keyed by HNF
    assert (orthogonal_pairs, len(calls)) == (pairs, saturated)
