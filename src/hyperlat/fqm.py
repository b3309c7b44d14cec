"""Finite quadratic modules: discriminant groups with Q/Z-valued forms.

A module is presented by invariant factors d_1 | d_2 | ... (all > 1), its
level N, and the values of Q on the generators and of the bilinear pairing
between them, all as integer numerators mod the level:
Q(e_i) = q_num[i]/N and b(e_i, e_j) = b_num[i][j]/N mod 1.  Elements are
residue tuples; lists of them are paired by integer row products mod N in
Python integers, exact at every level and without numpy, so the subgroup
and cusp algebra loads no array library.  Modules built from a lattice
carry generator lifts in the dual lattice and their integer pairings G l_j
with the basis, so classes of dual vectors can be computed.  Quotients
H-perp/H are built as the discriminant group of the overlattice and carry
them too; only modules built by hand from numerators do not.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from operator import mod, mul

from .exactla import (
    NodeGuardExceeded,
    hnf_rational,
    mat_mul,
    mat_vec,
    smith_normal_form,
    transpose,
)
from .lattices import IntegerLattice

ENUMERATION_GUARD = 10 ** 4


class FqmError(ValueError):
    pass


class FqmGuardExceeded(FqmError, NodeGuardExceeded):
    """A module too large to list its elements."""


class FiniteQuadraticModule:
    """Invariant factors, level N and the numerators mod N of Q on the
    generators and of the pairing between them.  The level given is reduced
    on construction to the smallest N with N*Q(x) integral for every x.
    Equal modules have equal invariant factors, level and numerators; the
    lattice provenance (the lattice, the generator lifts, their pairings
    G l_j with the basis and the class map) does not take part."""

    def __init__(self, invariant_factors: tuple[int, ...], level: int,
                 q_num: tuple[int, ...], b_num: tuple[tuple[int, ...], ...],
                 lattice: IntegerLattice | None = None,
                 generator_lifts: tuple[tuple[Fraction, ...], ...] | None = None,
                 lift_pairings: tuple[tuple[int, ...], ...] | None = None,
                 class_data: tuple | None = None):
        g = level
        for x in q_num:
            g = gcd(g, x)
        for row in b_num:
            for x in row:
                g = gcd(g, x)
        n = level // g
        self.invariant_factors = invariant_factors
        self.level = n
        self.q_num = tuple(x // g % n for x in q_num)
        self.b_num = tuple(tuple(x // g % n for x in row) for row in b_num)
        self.lattice = lattice
        self.generator_lifts = generator_lifts
        self.lift_pairings = lift_pairings
        self._class_data = class_data

    def _key(self):
        return self.invariant_factors, self.level, self.q_num, self.b_num

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    # -- group structure ----------------------------------------------------

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    @property
    def ngens(self) -> int:
        return len(self.invariant_factors)

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * self.ngens

    def elements(self):
        """All elements in lexicographic residue order."""
        if self.order > ENUMERATION_GUARD:
            raise FqmGuardExceeded(f"listing a module of order {self.order} exceeds "
                                   f"guard {ENUMERATION_GUARD}")
        return [tuple(r) for r in itertools.product(*(range(d) for d in self.invariant_factors))]

    def reduce(self, elt) -> tuple[int, ...]:
        if len(elt) != self.ngens:
            raise FqmError("wrong number of residues")
        return tuple(map(mod, map(int, elt), self.invariant_factors))

    def add(self, x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, self.invariant_factors))

    def neg(self, x):
        return tuple((-a) % d for a, d in zip(x, self.invariant_factors))

    # -- quadratic structure --------------------------------------------------

    def q_value(self, elt) -> Fraction:
        """Q(elt) as a Fraction in [0, 1)."""
        return Fraction(self.q_numerators([elt])[0], self.level)

    def bilinear(self, x, y) -> Fraction:
        """b(x, y) = Q(x+y) - Q(x) - Q(y) mod 1, via the stored pairings."""
        return Fraction(self.pairing_numerators([x], [y])[0][0], self.level)

    def pairing_numerators(self, xs, ys):
        """N * b(x, y) mod N for every x in xs and y in ys: the rows of
        (X B Y^T) mod N as lists of Python integers, exact at every level."""
        n = self.level
        cols = list(zip(*self.b_num))
        xb = [[sum(map(mul, x, col)) % n for col in cols] for x in map(self.reduce, xs)]
        ys = list(map(self.reduce, ys))
        return [[sum(map(mul, row, y)) % n for y in ys] for row in xb]

    def q_numerators(self, xs):
        """N * Q(x) mod N for every x in xs, a list of Python integers: the
        diagonal of the pairing, with Q(e_i) in place of b(e_i, e_i) = 2 Q(e_i)."""
        n = self.level
        # row i of the upper triangle: Q(e_i), then b(e_i, e_j) for j > i
        tri = [(qi,) + row[i + 1:] for i, (qi, row) in enumerate(zip(self.q_num, self.b_num))]
        return [sum(xi * sum(map(mul, x[i:], tri[i])) for i, xi in enumerate(x) if xi) % n
                for x in map(self.reduce, xs)]

    # -- lattice provenance ---------------------------------------------------

    def lift(self, elt) -> tuple[Fraction, ...]:
        """A dual vector representing elt (requires lattice provenance)."""
        if self.generator_lifts is None:
            raise FqmError("module has no lattice backing")
        r = self.reduce(elt)
        n = self.lattice.rank
        out = [Fraction(0)] * n
        for ri, g in zip(r, self.generator_lifts):
            if ri:
                for k in range(n):
                    out[k] += ri * g[k]
        return tuple(out)

    def class_of(self, dual_vector) -> tuple[int, ...]:
        """Residues of a dual vector's class (requires lattice provenance)."""
        if self._class_data is None:
            raise FqmError("module has no lattice backing")
        m = mat_vec(self.lattice.gram, [Fraction(x) for x in dual_vector])
        if any(x.denominator != 1 for x in m):
            raise FqmError("vector is not in the dual lattice")
        return self.class_of_pairings([int(x) for x in m])

    def class_of_pairings(self, m) -> tuple[int, ...]:
        """Residues of the class of the dual vector y with G y = m (ints)."""
        u, kept = self._class_data
        return tuple(sum(a * b for a, b in zip(u[i], m)) % d
                     for i, d in zip(kept, self.invariant_factors))

    def dump_text(self) -> str:
        lines = ["invariant factors: " +
                 (" ".join(str(d) for d in self.invariant_factors) or "(trivial)")]
        elements = self.elements()
        for elt, num in zip(elements, self.q_numerators(elements)):
            q = Fraction(num, self.level)
            lines.append(",".join(str(r) for r in elt) + f" : Q={q.numerator}/{q.denominator}")
        return "\n".join(lines)


@functools.lru_cache(maxsize=64)
def discriminant_group(L: IntegerLattice) -> FiniteQuadraticModule:
    """The finite quadratic module of a lattice, via Smith normal form.

    Built once per Gram matrix: equal lattices share one (immutable) module,
    since cusp data and coset lifts ask for the same one many times.
    """
    g = [list(r) for r in L.gram]
    n = L.rank
    if n == 0:
        return FiniteQuadraticModule((), 1, (), (), lattice=L, generator_lifts=(),
                                     lift_pairings=(), class_data=([], []))
    d, u, v = smith_normal_form(g)
    kept = [i for i in range(n) if d[i][i] > 1]
    cols = [[v[r][i] for r in range(n)] for i in kept]   # Smith-form columns
    facs = tuple(d[i][i] for i in kept)
    lifts = tuple(tuple(Fraction(x, di) for x in col) for col, di in zip(cols, facs))
    # the lifts are col_i / d_i, so with the integer products cg = cols G and
    # gv = cg cols^T, G lift_i = cg_i / d_i (G is symmetric),
    # b(lift_i, lift_j) = gv_ij / (d_i d_j) and Q(lift_i) = gv_ii / (2 d_i^2),
    # all over the common denominator 2 e^2 (e the exponent)
    cg = mat_mul(cols, g)
    gv = mat_mul(cg, transpose(cols))
    lift_pairings = tuple(tuple(x // di for x in row) for row, di in zip(cg, facs))
    big = 2 * facs[-1] ** 2 if facs else 1
    q_num = tuple(gv[i][i] * (big // (2 * di * di)) for i, di in enumerate(facs))
    b_num = tuple(tuple(gv[i][j] * (big // (di * dj)) for j, dj in enumerate(facs))
                  for i, di in enumerate(facs))
    mod = FiniteQuadraticModule(facs, big, q_num, b_num, lattice=L,
                                generator_lifts=lifts, lift_pairings=lift_pairings,
                                class_data=(u, kept))
    if mod.order != abs(L.det):
        raise FqmError("internal error: |discriminant group| != |det|")
    return mod


# ---------------------------------------------------------------------------
# subgroups

class Subgroup(namedtuple("Subgroup", "module elements generators is_maximal_isotropic",
                          defaults=((), None))):
    """A subgroup of a module: its sorted elements and the generators it
    was built from."""
    __slots__ = ()

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, elt):
        return tuple(elt) in set(self.elements)

    def is_isotropic(self) -> bool:
        return not any(self.module.q_numerators(self.elements))


def subgroup_generated(D: FiniteQuadraticModule, gens) -> Subgroup:
    gens = [D.reduce(g) for g in gens]
    seen = {D.zero}
    frontier = [D.zero]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = D.add(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return Subgroup(D, tuple(sorted(seen)), generators=tuple(gens))


def isotropic_subgroups(D: FiniteQuadraticModule):
    """All isotropic subgroups, with maximal ones flagged.

    Exhaustive: grows subgroups one isotropic generator at a time, so every
    isotropic subgroup is found.  Guarded by the module enumeration bound.
    """
    elts = D.elements()
    iso_elts = [e for e, q in zip(elts, D.q_numerators(elts)) if q == 0]
    found = {}
    trivial = subgroup_generated(D, [])
    found[trivial.elements] = trivial
    frontier = [trivial]
    while frontier:
        nxt = []
        for H in frontier:
            have = set(H.elements)
            for x in iso_elts:
                if x in have:
                    continue
                H2 = subgroup_generated(D, list(H.generators) + [x])
                if H2.elements in found:
                    continue
                if H2.is_isotropic():
                    found[H2.elements] = H2
                    nxt.append(H2)
        frontier = nxt
    # H is maximal when no isotropic group strictly contains it; such a
    # group has a larger order, so it comes later in the sorted list
    groups = sorted(found.values(), key=lambda h: (h.order, h.elements))
    sets = [set(H.elements) for H in groups]
    return [Subgroup(D, H.elements, H.generators,
                     is_maximal_isotropic=not any(have < big for big in sets[i + 1:]))
            for i, (H, have) in enumerate(zip(groups, sets))]


def orthogonal_subgroup(D: FiniteQuadraticModule, H: Subgroup) -> Subgroup:
    """{x in D : b(x, h) = 0 mod 1 for all h in H}."""
    gens = H.generators if H.generators else H.elements
    elts = D.elements()
    pairs = D.pairing_numerators(elts, gens)
    elts = [x for x, row in zip(elts, pairs) if not any(row)]
    return Subgroup(D, tuple(sorted(elts)), generators=tuple(sorted(elts)))


def _verify_isotropic(D, H):
    if not H.is_isotropic():
        raise FqmError("subgroup is not isotropic")


def quotient_with_projection(D: FiniteQuadraticModule, H: Subgroup):
    """The induced module on (orthogonal of H)/H plus the projection table.

    By Nikulin (Integral symmetric bilinear forms and some of their
    applications, 1979, 1.4), H-perp/H is the discriminant group of the
    overlattice L_H that H glues onto D's lattice L, so K is built as that
    group.  A lift x of an element of D pairs integrally with L_H's basis B
    (the rows of B G x are integers) exactly when the element is orthogonal
    to H, and then B G x are the pairings that name its class in K.

    Returns (K, proj) where proj maps every element of the orthogonal of H to
    its residue tuple in K.  H is re-verified to be isotropic; a module with
    no lattice raises FqmError.
    """
    if D.lattice is None:
        raise FqmError("module has no lattice backing")
    glued, basis = overlattice_with_basis(D.lattice, H)
    K = discriminant_group(glued)
    # B G x is linear in x's residues: the sum of x_j B (G l_j) over the
    # generator lifts l_j, scaled to integers by one common denominator
    cols = [mat_vec(basis, p) for p in D.lift_pairings]
    den = lcm(*(c.denominator for col in cols for c in col))
    rows = [[int(c * den) for c in row] for row in zip(*cols)]
    proj = {}
    for x in D.elements():
        m = [sum(map(mul, row, x)) for row in rows]
        if not any(v % den for v in m):
            proj[x] = K.class_of_pairings([v // den for v in m])
    if len(proj) * H.order != D.order:
        raise FqmError("internal error: |H| * |H perp| != |D|")
    return K, proj


def quotient_module(D: FiniteQuadraticModule, H: Subgroup) -> FiniteQuadraticModule:
    K, _ = quotient_with_projection(D, H)
    return K


def overlattice_with_basis(L: IntegerLattice, H: Subgroup):
    """Even lattice generated by L and dual lifts of an isotropic subgroup.

    Returns (lattice, basis) where basis rows are the new lattice's basis
    written in L's coordinates (Fractions).
    """
    D = H.module
    if D.lattice is not L and D.lattice != L:
        raise FqmError("subgroup does not live in the discriminant group of L")
    _verify_isotropic(D, H)
    n = L.rank
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for g in (H.generators or H.elements):
        rows.append(list(D.lift(g)))
    basis = hnf_rational(rows)
    if len(basis) != n:
        raise FqmError("internal error: overlattice basis is not full rank")
    gram = mat_mul(mat_mul(basis, [list(r) for r in L.gram]), transpose(basis))
    for i in range(n):
        for j in range(n):
            if gram[i][j].denominator != 1:
                raise FqmError("overlattice form is not integral; subgroup not isotropic?")
        if gram[i][i].numerator % 2:
            raise FqmError("overlattice form is odd; subgroup not isotropic?")
    g2 = tuple(tuple(int(x) for x in row) for row in gram)
    out = IntegerLattice(g2, name=(L.name or "L") + "^H")
    if abs(out.det) * H.order ** 2 != abs(L.det):
        raise FqmError("internal error: overlattice determinant mismatch")
    return out, basis


def overlattice(L: IntegerLattice, H: Subgroup) -> IntegerLattice:
    out, _ = overlattice_with_basis(L, H)
    return out
