"""Primitive isotropic planes of a signature (2,b) lattice and their cusp data.

For a plane I the datum packages: the lattice I_Q intersect the dual (whose
index over I is the imprimitivity), the negative definite quotient I-perp/I
with a deterministic integral transversal, and the induced projection from
the orthogonal of I^#/I inside the discriminant group onto the quotient's
discriminant group.  Every identity that the construction promises (the
determinant relation, Q-preservation, fiber sizes) is checked on the spot.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from fractions import Fraction
from math import gcd

from .exactla import (
    InputError,
    NodeGuardExceeded,
    hnf,
    mat_mul,
    smith_normal_form,
    transpose,
    unimodular_inverse,
)
from .fqm import discriminant_group, orthogonal_subgroup, subgroup_generated
from .lattices import IntegerLattice

_PLANE_SEARCH_GUARD = 10 ** 7


class CuspError(ValueError):
    pass


class CuspInputError(CuspError, InputError):
    """A plane search asked of a lattice not of signature (2, b)."""


class CuspGuardExceeded(CuspError, NodeGuardExceeded):
    """A plane search whose box of coefficient vectors exceeds the guard."""


class CuspDatum(namedtuple("CuspDatum", "ambient plane_basis sharp_basis imprimitivity "
                           "kf_lattice kf_basis strongly_primitive ambient_disc kf_disc "
                           "h_subgroup h_perp projection_to_kf")):
    """The data of one primitive isotropic plane I of V:
    - plane_basis: 2 x r, HNF-canonical
    - sharp_basis: a basis of I_Q cap the dual of V
    - imprimitivity: N_F = |I^# / I|
    - kf_lattice: the induced form on I-perp/I, and kf_basis its
      transversal rows in V
    - h_subgroup: I^#/I inside D(V), and h_perp its orthogonal
    - projection_to_kf: each element of h_perp to its residues in D(K_F)
    """
    __slots__ = ()


def _is_isotropic_pair(g, rows) -> bool:
    """Both integer rows are null and orthogonal: rows G rows^T = 0."""
    return not any(any(row) for row in mat_mul(mat_mul(rows, g), transpose(rows)))


def cusp_datum(V: IntegerLattice, plane_rows) -> CuspDatum:
    """Full cusp datum for a primitive totally isotropic plane of V."""
    rows = [list(map(int, r)) for r in plane_rows]
    if len(rows) != 2:
        raise CuspError("a plane needs exactly two basis rows")
    g = [list(r) for r in V.gram]
    if not _is_isotropic_pair(g, rows):
        raise CuspError("plane is not totally isotropic")
    canon = hnf(rows)
    if len(canon) != 2:
        raise CuspError("rows are linearly dependent")
    from .lattices import saturation_index
    if saturation_index(canon) != 1:
        raise CuspError("plane is not primitive (saturation index > 1)")
    b = canon

    # I^# = I_Q cap V-dual: with u (bG) v = diag(d1, d2), the sharp rows are
    # y_i = (u b)_i / d_i, and their pairings y_i G = (u b G)_i / d_i are
    # integer rows with (y G) v = (1 0 ...; 0 1 ...)
    m = mat_mul(b, g)
    d, u, v = smith_normal_form(m)
    d1, d2 = d[0][0], d[1][1]
    ub = mat_mul(u, b)
    sharp = [tuple(Fraction(x, di) for x in row) for row, di in zip(ub, (d1, d2))]
    sharp_pairings = [[x // di for x in row] for row, di in zip(mat_mul(ub, g), (d1, d2))]
    n_f = d1 * d2

    disc = discriminant_group(V)
    h_gens = [disc.class_of_pairings(p) for p in sharp_pairings]
    h_sub = subgroup_generated(disc, h_gens)
    if h_sub.order != n_f:
        raise CuspError("internal error: |I^#/I| != product of elementary divisors")
    if not h_sub.is_isotropic():
        raise CuspError("internal error: I^#/I is not isotropic")

    # I-perp and a transversal completing I.  I-perp is the right kernel of
    # bG, spanned by the columns of v past the first two; b lies in it, so
    # its coordinates v^-1 b^T vanish in the first two rows and their tail
    # is b written in the I-perp rows
    perp_rows = transpose(v)[2:]
    coords = mat_mul(unimodular_inverse(v), transpose(b))
    if any(coords[0]) or any(coords[1]):
        raise CuspError("internal error: plane not inside its own orthogonal")
    coords = transpose(coords[2:])
    d2m, _, v2 = smith_normal_form(coords)
    if d2m[0][0] != 1 or d2m[1][1] != 1:
        raise CuspError("internal error: plane not saturated in its orthogonal")
    v2_inv = unimodular_inverse(v2)
    adapted = mat_mul(v2_inv, perp_rows)
    transversal = adapted[2:]
    tg = mat_mul(transversal, g)
    kf_gram = mat_mul(tg, transpose(transversal))
    kf = IntegerLattice(tuple(tuple(int(x) for x in row) for row in kf_gram),
                        name="KF")
    sig = kf.signature()
    if sig.positive != 0:
        raise CuspError("induced form on I-perp/I is not negative definite")
    if abs(V.det) != abs(kf.det) * n_f ** 2:
        raise CuspError("determinant identity |det V| = |det K| N^2 fails")

    kf_disc = discriminant_group(kf)
    h_perp = orthogonal_subgroup(disc, h_sub)
    if h_perp.order * n_f != disc.order:
        raise CuspError("|H perp| != |D| / N")

    # Project every element of H-perp into K's discriminant group.  A lift x
    # in V' orthogonal to I^# mod 1 has integer pairings t = (y G) x with the
    # sharp rows; x2 = x - v[:, :2] t is orthogonal to I^#, hence a rational
    # combination of the I-perp rows, and its class in K is read from its
    # pairings with the transversal, T G x2 = T G x - (T G v[:, :2]) t.
    # G x is linear in the residues of x, so every product is precomputed as
    # an integer matrix on the pairings G l_j of the generator lifts l_j.
    lift_pairings = transpose(disc.lift_pairings)
    sharp_num = mat_mul(ub, lift_pairings)        # d_i t_i = sharp_num_i . residues
    kf_num = mat_mul(transversal, lift_pairings)  # T G x = kf_num . residues
    back = mat_mul(tg, [row[:2] for row in v])    # T G v[:, :2]
    proj = {}
    for elt in h_perp.elements:
        t = []
        for row, di in zip(sharp_num, (d1, d2)):
            val = sum(a * e for a, e in zip(row, elt))
            if val % di:
                raise CuspError("element is not orthogonal to I^#")
            t.append(val // di)
        pairings = [sum(a * e for a, e in zip(krow, elt)) - sum(c * s for c, s in zip(brow, t))
                    for krow, brow in zip(kf_num, back)]
        proj[elt] = kf_disc.class_of_pairings(pairings)
    images = list(proj.values())
    q_amb = [q * kf_disc.level for q in disc.q_numerators(proj)]
    q_kf = [q * disc.level for q in kf_disc.q_numerators(images)]
    if q_amb != q_kf:
        raise CuspError("projection does not preserve Q")
    if set(images) != set(kf_disc.elements()):
        raise CuspError("projection is not onto the quotient discriminant group")
    counts = {}
    for cls in images:
        counts[cls] = counts.get(cls, 0) + 1
    if any(c != n_f for c in counts.values()):
        raise CuspError("projection fibers do not all have size N")

    return CuspDatum(
        ambient=V,
        plane_basis=tuple(tuple(row) for row in b),
        sharp_basis=tuple(sharp),
        imprimitivity=n_f,
        kf_lattice=kf,
        kf_basis=tuple(tuple(int(x) for x in row) for row in transversal),
        strongly_primitive=(n_f == 1),
        ambient_disc=disc,
        kf_disc=kf_disc,
        h_subgroup=h_sub,
        h_perp=h_perp,
        projection_to_kf=proj,
    )


def project_class(F: CuspDatum, elt):
    """Class in K's discriminant group of an element of the orthogonal of H."""
    elt = F.ambient_disc.reduce(elt)
    if elt not in F.projection_to_kf:
        raise CuspError("element is not in the orthogonal of I^#/I")
    return F.projection_to_kf[elt]


def _primitive_null_vectors(V: IntegerLattice, bound: int):
    r = V.rank
    size = (2 * bound + 1) ** r
    if size > _PLANE_SEARCH_GUARD:
        raise CuspGuardExceeded(f"plane search box of {size} vectors exceeds guard "
                                f"{_PLANE_SEARCH_GUARD}; lower the bound")
    entries = [(i, j, gij) for i, row in enumerate(V.gram)
               for j, gij in enumerate(row) if gij]
    out = []
    for coords in itertools.product(range(-bound, bound + 1), repeat=r):
        if not any(coords):
            continue
        first = next(c for c in coords if c)
        if first < 0:
            continue
        g = 0
        for c in coords:
            g = gcd(g, c)
        if g != 1:
            continue
        if not sum(coords[i] * gij * coords[j] for i, j, gij in entries):
            out.append(coords)
    return out


def _minors_gcd(v, w) -> int:
    """gcd of the 2x2 minors of the rows v, w (0 when they are dependent)."""
    g = 0
    for a in range(len(v)):
        for b in range(a + 1, len(v)):
            g = gcd(g, v[a] * w[b] - v[b] * w[a])
            if g == 1:
                return 1
    return g


def _saturate_plane(rows):
    """Saturation of the span of independent integer rows A, as HNF: A =
    u^-1 D v^-1 for u A v = D in Smith form, so A's rows span the first rows
    of v^-1 over Q, and those are a basis of the saturation."""
    return hnf(unimodular_inverse(smith_normal_form(rows)[2])[:len(rows)])


def isotropic_planes(V: IntegerLattice, search_bound: int):
    """Canonical bases of all primitive totally isotropic planes spanned by
    two null vectors with coefficients up to the bound, sorted.

    Planes are deduplicated by equality of the saturated sublattice they
    span (not by any group orbit).  Everything is tested by integer Gram
    products.
    """
    sig = V.signature()
    if sig.positive != 2:
        raise CuspInputError("isotropic plane search wants signature (2, b), "
                             f"got ({sig.positive},{sig.negative})")
    nulls = _primitive_null_vectors(V, search_bound)
    g = [list(r) for r in V.gram]
    null_pairings = mat_mul(nulls, g)
    seen = set()
    planes = []
    for i, vi in enumerate(nulls):
        pi = null_pairings[i]
        for vj in nulls[i + 1:]:
            if sum(a * c for a, c in zip(pi, vj)):
                continue
            rows = [list(vi), list(vj)]
            # the gcd of the 2x2 minors is the index of the span in its
            # saturation, so a gcd of 1 means the span is already primitive;
            # a saturation stays in the rational span, so it is isotropic
            if _minors_gcd(vi, vj) == 1:
                plane = hnf(rows)
            else:
                plane = _saturate_plane(rows)
            key = tuple(tuple(row) for row in plane)
            if key in seen:
                continue
            seen.add(key)
            planes.append(key)
    planes.sort()
    return planes


def find_isotropic_planes(V: IntegerLattice, search_bound: int):
    """Cusp data of isotropic_planes(V, search_bound), in that order."""
    return [cusp_datum(V, p) for p in isotropic_planes(V, search_bound)]
