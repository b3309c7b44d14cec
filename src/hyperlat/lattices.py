"""Even integral lattices: construction, signatures, complements, file format.

A lattice is its Gram matrix.  All arithmetic is exact: Python ints and
Fractions throughout, no floating point.  Vectors are coordinate tuples in
the lattice basis; dual vectors are Fraction tuples in the same basis.
The elementary number theory the other modules use (valuations, Legendre
symbols, rational square roots, trial division) lives here, once, and so
does the one symmetric elimination, ``jordan_splitting``: over Q it gives
the signature, the diagonal of the isotropy test and the hyperboloid frame,
and over Z_p the pieces the local densities count.  ``even_unimodular_theta``
reads the theta series of an even unimodular lattice of rank 8 or 16 off its
Gram matrix, for ``theta`` and ``count``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt

from .exactla import (
    bareiss_det,
    hnf,
    invariant_factors,
    kernel_basis,
    mat_mul,
    transpose,
)


class LatticeError(ValueError):
    pass


class Signature(namedtuple("Signature", "positive negative")):
    __slots__ = ()

    def __add__(self, other: "Signature") -> "Signature":
        return Signature(self.positive + other.positive, self.negative + other.negative)

    @property
    def rank(self) -> int:
        return self.positive + self.negative


class IntegerLattice:
    """An even nondegenerate integral lattice given by its Gram matrix.

    Everything else is read off the Gram matrix.  ``components`` is the
    orthogonal splitting the basis shows; it shapes the hyperboloid frame,
    and so which cap is counted, but decides no count, density or
    representability.  ``name`` is a label only and does not affect
    equality.
    """

    def __init__(self, gram, name: str | None = None):
        g = tuple(tuple(int(x) for x in row) for row in gram)
        n = len(g)
        if any(len(row) != n for row in g):
            raise LatticeError("gram matrix must be square")
        for i in range(n):
            if g[i][i] % 2:
                raise LatticeError("gram diagonal must be even (even lattice)")
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise LatticeError("gram matrix must be symmetric")
        det = bareiss_det([list(r) for r in g]) if n else 1
        if det == 0:
            raise LatticeError("gram matrix is degenerate")
        self.gram = g
        self.name = name
        self._det = det

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    # -- basic data --------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def det(self) -> int:
        return self._det

    def pairing(self, x, y) -> Fraction:
        g = self.gram
        n = self.rank
        return sum(Fraction(x[i]) * g[i][j] * Fraction(y[j])
                   for i in range(n) for j in range(n) if g[i][j])

    def q_of(self, x) -> Fraction:
        return self.pairing(x, x) / 2

    def signature(self) -> Signature:
        return self._signature

    @cached_property
    def _signature(self) -> Signature:
        # once per lattice, as det: eis checks it at every norm
        pos = sum(1 for _, ((d,),) in jordan_splitting(self.gram)[1] if d > 0)
        return Signature(pos, self.rank - pos)

    def discriminant_group(self):
        from .fqm import discriminant_group
        return discriminant_group(self)

    # -- structure shown by the basis --------------------------------------

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """The finest orthogonal splitting the basis shows
        (``gram_components`` of the Gram matrix)."""
        return gram_components(self.gram)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        import json

        obj = {"gram": [list(r) for r in self.gram]}
        if self.name:
            obj["name"] = self.name
        return json.dumps(obj, indent=1)


def gram_components(g) -> tuple[tuple[int, ...], ...]:
    """Index sets of the connected components of a square matrix's nonzero
    pattern, in order of their first index: for a Gram matrix, the finest
    orthogonal splitting its basis shows."""
    seen = set()
    out = []
    for start in range(len(g)):
        if start in seen:
            continue
        seen.add(start)
        comp, todo = [], [start]
        while todo:
            i = todo.pop()
            comp.append(i)
            for j, x in enumerate(g[i]):
                if x and j not in seen:
                    seen.add(j)
                    todo.append(j)
        out.append(tuple(sorted(comp)))
    return tuple(out)


def even_unimodular_theta(gram, width: int):
    """The theta series of a definite Gram matrix in closed form: r(m) for
    0 <= m < width, the number of vectors x with |Q(x)| = m, when the
    lattice is even with |det| = 1 and of rank 8 or 16; None otherwise.

    Its theta series is then a modular form of weight 4 or 8 for SL_2(Z),
    and M_4, M_8 are spanned by E4 and E8 (Serre, A Course in Arithmetic,
    ch. VII), so r(m) = 240 sigma_3(m) at rank 8 and 480 sigma_7(m) at
    rank 16 (E8 + E8 and D16+ alike), m >= 1.  Rank 24 is left out: weight
    12 has the cusp form Delta.  The lattice is tested before any work
    that grows with width, so width 0 is a cheap test of the hypothesis.
    """
    r = len(gram)
    if r not in (8, 16) or any(gram[i][i] % 2 for i in range(r)) \
            or abs(bareiss_det([list(row) for row in gram])) != 1:
        return None
    c, k = (240, 3) if r == 8 else (480, 7)
    sigma = [0] * width
    for d in range(1, width):
        dk = d ** k
        for m in range(d, width, d):
            sigma[m] += dk
    return [1][:width] + [c * s for s in sigma[1:]]


# ---------------------------------------------------------------------------
# constructors

_E8_GRAM = (
    (2, 0, -1, 0, 0, 0, 0, 0),
    (0, 2, 0, -1, 0, 0, 0, 0),
    (-1, 0, 2, -1, 0, 0, 0, 0),
    (0, -1, -1, 2, -1, 0, 0, 0),
    (0, 0, 0, -1, 2, -1, 0, 0),
    (0, 0, 0, 0, -1, 2, -1, 0),
    (0, 0, 0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, 0, 0, -1, 2),
)


def hyperbolic_plane() -> IntegerLattice:
    return IntegerLattice(((0, 1), (1, 0)), name="U")


def rank1(two_m: int) -> IntegerLattice:
    if two_m == 0 or two_m % 2:
        raise LatticeError("rank1 parameter must be a nonzero even integer")
    return IntegerLattice(((two_m,),), name=f"rank1({two_m})")


def e8(scale: int = 1) -> IntegerLattice:
    if scale == 0:
        raise LatticeError("rescale by zero")
    g = tuple(tuple(scale * x for x in row) for row in _E8_GRAM)
    return IntegerLattice(g, name="E8" if scale == 1 else f"E8({scale})")


def direct_sum(*lats: IntegerLattice) -> IntegerLattice:
    n = sum(L.rank for L in lats)
    g = [[0] * n for _ in range(n)]
    off = 0
    for L in lats:
        for i in range(L.rank):
            for j in range(L.rank):
                g[off + i][off + j] = L.gram[i][j]
        off += L.rank
    name = "+".join(L.name or "?" for L in lats)
    return IntegerLattice(tuple(tuple(r) for r in g), name=name)


def rescale(L: IntegerLattice, m: int) -> IntegerLattice:
    if m == 0:
        raise LatticeError("rescale by zero")
    g = tuple(tuple(m * x for x in row) for row in L.gram)
    return IntegerLattice(g, name=f"{L.name}({m})" if L.name else None)


def k3_lattice() -> IntegerLattice:
    """U + U + U + E8(-1) + E8(-1), the even unimodular lattice of signature (3,19)."""
    U = hyperbolic_plane()
    return direct_sum(U, U, U, e8(-1), e8(-1))


NAMED_LATTICES = {"U": hyperbolic_plane, "E8": e8, "E8(-1)": lambda: e8(-1),
                  "K3": k3_lattice, "rank1": rank1}


def make_named(name: str, params=()) -> IntegerLattice:
    """The lattice of a name in NAMED_LATTICES; rank1 takes one parameter 2m."""
    if name not in NAMED_LATTICES:
        raise LatticeError(f"unknown lattice name {name!r}")
    params = list(params) if name == "rank1" else []
    if name == "rank1" and len(params) != 1:
        raise LatticeError("rank1 takes one parameter 2m")
    return NAMED_LATTICES[name](*params)


# ---------------------------------------------------------------------------
# sublattices and complements

def saturation_index(rows) -> int:
    """Index of the span of integer rows inside its saturation (1 = primitive)."""
    facs = invariant_factors([list(r) for r in rows])
    if len(facs) != len(rows):
        raise LatticeError("rows are linearly dependent")
    out = 1
    for f in facs:
        out *= f
    return out


def orthogonal_complement_basis(L: IntegerLattice, sub_rows):
    """Basis rows (in L's coordinates) of {x in L : (x, s) = 0 for rows s}.

    Requires the rows to span a primitive sublattice.  The basis is put in
    Hermite normal form, so the result is deterministic.
    """
    rows = [list(map(int, r)) for r in sub_rows]
    if rows and saturation_index(rows) != 1:
        raise LatticeError("sublattice is not primitive (saturation index > 1)")
    if not rows:
        return [list(r) for r in hnf([[int(i == j) for j in range(L.rank)]
                                      for i in range(L.rank)])]
    pair = mat_mul(rows, [list(r) for r in L.gram])
    ker = kernel_basis(pair)
    return hnf(ker)


def orthogonal_complement(L: IntegerLattice, sub_rows) -> IntegerLattice:
    basis = orthogonal_complement_basis(L, sub_rows)
    if not basis:
        return IntegerLattice(())
    g = mat_mul(mat_mul(basis, [list(r) for r in L.gram]), transpose(basis))
    return IntegerLattice(tuple(tuple(r) for r in g))


# ---------------------------------------------------------------------------
# elementary number theory, shared by the densities and predictions

def valuation(x: int, p: int) -> int:
    """The exponent of the prime p in a nonzero integer x."""
    if x == 0:
        raise ValueError("valuation of zero")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def rational_valuation(x: Fraction, p: int) -> int:
    """The exponent of the prime p in a nonzero rational x."""
    return valuation(x.numerator, p) - valuation(x.denominator, p)


# ---------------------------------------------------------------------------
# the Jordan splitting, over Q and over each Z_p

@lru_cache(maxsize=128)
def jordan_splitting(gram, p: int | None = None):
    """Jordan splitting of a nondegenerate Gram matrix over Z_(p), or over Q
    when p is None, by one exact symmetric elimination.

    Returns (trans, pieces) with trans^T G trans block diagonal: trans has
    Fraction entries, at a prime p with denominators prime to p and a p-adic
    unit as determinant, and pieces lists (indices, block) in the order of
    trans's columns.  Each step pivots on a remaining entry of least
    valuation (over Q every nonzero entry has valuation 0): a diagonal entry
    before an off-diagonal one, then the first basis vector in the current
    order, which is swapped to the front.  So every multiplier is p-integral.
    An off-diagonal pivot a_ij, i before j, is folded onto the diagonal by
    e_i += e_j, except at p = 2, where it makes a 2x2 block: 2^k times an
    even unimodular plane.  Every other block is 1x1.
    """
    r = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    t = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]

    def add_multiple(dst, src, f):
        # basis vector dst += f * basis vector src
        for row in a:
            row[dst] += f * row[src]
        a[dst] = [x + f * y for x, y in zip(a[dst], a[src])]
        for row in t:
            row[dst] += f * row[src]

    def swap(i, j):
        # basis vectors i and j trade places
        a[i], a[j] = a[j], a[i]
        for row in a + t:
            row[i], row[j] = row[j], row[i]

    pieces = []
    k = 0
    while k < r:
        pivot = min(((0 if p is None else rational_valuation(a[i][j], p), i != j, i, j)
                     for i in range(k, r) for j in range(i, r) if a[i][j]), default=None)
        if pivot is None:
            raise LatticeError("gram matrix is degenerate")
        _, off, i, j = pivot
        if off and p != 2:
            # both diagonal entries have larger valuation than 2 a_ij
            add_multiple(i, j, Fraction(1))
            off = False
        swap(k, i)
        if off:
            swap(k + 1, j)
        idx = (k, k + 1) if off else (k,)
        piv = [[a[x][y] for y in idx] for x in idx]
        if off:
            (x, y), (_, z) = piv
            det = x * z - y * y
            inv = [[z / det, -y / det], [-y / det, x / det]]
        else:
            inv = [[1 / piv[0][0]]]
        for col in range(k + len(idx), r):
            rhs = [a[x][col] for x in idx]
            for d, x in enumerate(idx):
                f = -sum(g * h for g, h in zip(inv[d], rhs))
                if f:
                    add_multiple(col, x, f)
        pieces.append((idx, tuple(tuple(row) for row in piv)))
        k += len(idx)
    return tuple(tuple(row) for row in t), tuple(pieces)


def legendre(x: int, p: int) -> int:
    """The Legendre symbol (x / p) at an odd prime p, by Euler's criterion."""
    r = pow(x % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def rational_sqrt(x) -> Fraction | None:
    """The root r >= 0 with r^2 = x when the rational x is a square, else None."""
    x = Fraction(x)
    if x < 0:
        return None
    num, den = isqrt(x.numerator), isqrt(x.denominator)
    if num * num != x.numerator or den * den != x.denominator:
        return None
    return Fraction(num, den)


def _prime_factors(n: int):
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# rational isotropy (Hasse-Minkowski for rank <= 4)

def _square_free_part(x: Fraction) -> int:
    n = x.numerator * x.denominator
    out = 1 if n > 0 else -1
    for p in _prime_factors(n):
        if valuation(n, p) % 2:
            out *= p
    return out


def hilbert_symbol(a: int, b: int, p) -> int:
    """Hilbert symbol (a, b)_p for nonzero integers; p a prime or 'oo'."""
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol needs nonzero arguments")
    if p == "oo":
        return -1 if (a < 0 and b < 0) else 1
    alpha, beta = valuation(a, p), valuation(b, p)
    u, v = a // p ** alpha, b // p ** beta
    if p == 2:
        def eps(x):
            return ((x - 1) // 2) % 2

        def omega(x):
            return ((x * x - 1) // 8) % 2

        e = eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)
        return -1 if e % 2 else 1
    sign = 1
    if (alpha * beta) % 2 and (p - 1) // 2 % 2:
        sign = -sign
    if beta % 2 and legendre(u, p) == -1:
        sign = -sign
    if alpha % 2 and legendre(v, p) == -1:
        sign = -sign
    return sign


def _is_padic_square(d: int, p) -> bool:
    if p == "oo":
        return d > 0
    v = valuation(d, p)
    if v % 2:
        return False
    d //= p ** v
    if p == 2:
        return d % 8 == 1
    return legendre(d, p) == 1


def _isotropic_over_qp(diag: list[int], p) -> bool:
    n = len(diag)
    if p == "oo":
        return any(d > 0 for d in diag) and any(d < 0 for d in diag)
    d = 1
    for x in diag:
        d *= x
    hasse = 1
    for i in range(n):
        for j in range(i + 1, n):
            hasse *= hilbert_symbol(diag[i], diag[j], p)
    if n == 2:
        return _is_padic_square(-d, p)
    if n == 3:
        return hilbert_symbol(-1, -d, p) == hasse
    if n == 4:
        if not _is_padic_square(d, p):
            return True
        return hasse == hilbert_symbol(-1, -1, p)
    raise ValueError("rank must be <= 4")


def is_anisotropic_over_q(L: IntegerLattice) -> bool:
    """True iff Q(x) = 0 has no nonzero rational solution (rank <= 4 only).

    Indefinite forms of rank >= 5 are always isotropic; asking is a caller
    bug, so that case raises.
    """
    if L.rank >= 5:
        raise LatticeError("rank >= 5: isotropy test not supported "
                           "(indefinite forms of rank >= 5 are always isotropic)")
    if L.rank == 0:
        return True
    sq = [_square_free_part(d) for _, ((d,),) in jordan_splitting(L.gram)[1]]
    if L.rank == 1:
        return True
    if L.rank == 2:
        return rational_sqrt(-sq[0] * sq[1]) is None
    places = ["oo", 2]
    support = 1
    for x in sq:
        support *= x
    for p in _prime_factors(support):
        if p != 2:
            places.append(p)
    # isotropic over Q iff isotropic at every place (Hasse-Minkowski);
    # places away from 2*det are automatic for rank >= 3
    return not all(_isotropic_over_qp(sq, p) for p in places)


# ---------------------------------------------------------------------------
# lattice file format

def lattice_from_json(text: str) -> IntegerLattice:
    """Lattice from a JSON object with ``gram`` and an optional ``name``.

    Other keys are ignored, so files that still carry the ``blocks`` and
    ``hyperbolic_split`` keys of older versions load unchanged.
    """
    import json

    obj = json.loads(text)
    if not isinstance(obj, dict) or "gram" not in obj:
        raise LatticeError("lattice file needs a 'gram' field")
    gram = obj["gram"]
    n = len(gram)
    for row in gram:
        if len(row) != n or any(not isinstance(x, int) for x in row):
            raise LatticeError("gram must be a square array of integers")
    return IntegerLattice(tuple(tuple(r) for r in gram), name=obj.get("name"))


def load_lattice(path) -> IntegerLattice:
    with open(path) as fh:
        return lattice_from_json(fh.read())
