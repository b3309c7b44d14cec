"""Weil representation of a finite quadratic module D on C[D].

The action is determined by the standard generators of the metaplectic group:
T acts diagonally by e(Q(x)), S by the normalized finite Fourier transform
rho(S)_{x,y} = c e(-b(x, y)), with c = e((b- - b+)/8) / sqrt|D| fixed by the
ambient signature (e(t) = exp(2 pi i t)).  Both read N = level values: T's
phases e(k/N) at the Q numerators, and S's values c e(-k/N) at the pairing
numerators.  The values are Python complex numbers; ``rows_T`` and
``rows_S`` give the matrices as text one row at a time and ``dump_matrix``
prints each row as it is made, so the command holds no |D| x |D| table,
while ``rho_S`` and ``rho_T`` build numpy arrays from the same values for
library callers.

``verify_relations`` multiplies no matrices: S S* = 1, S^2 = (ST)^3 and
T^N = 1 follow from the module axioms on the generators and the
nondegeneracy of b, checked in integers, and from d |c|^2 = 1, c G = 1
(G = sum_x e(Q(x)), Milgram's Gauss sum) and e(k/N)^N = 1, checked in
floats to 1e-9, all in O(|D|).
"""

from __future__ import annotations

import cmath
import math

from .exactla import NodeGuardExceeded
from .fqm import FiniteQuadraticModule
from .lattices import Signature

TOLERANCE = 1e-9
# entries of one |D| x |D| matrix, which bounds the printed text: at
# |D| = 2000, U+U+<-2000> prints its 8 * 10^6 entries (about 190 MB) in
# about 0.6 s at 17 MB on a 2-core x86 box
MATRIX_GUARD = 4 * 10 ** 6


class WeilError(ValueError):
    pass


class WeilGuardExceeded(WeilError, NodeGuardExceeded):
    """A module whose Weil matrices are too large to print."""


class WeilAction:
    """The Weil representation of a module, or its dual, for a lattice of
    the given signature.  Its elements, their Q numerators, their pairing
    numerators with the generators, the phases e(k/N) and the scalar c are
    formed once, on construction; the dual conjugates on use."""

    def __init__(self, module: FiniteQuadraticModule, signature: Signature,
                 dual: bool = False):
        self.module = module
        self.signature = signature
        self.dual = dual
        self.elements = tuple(module.elements())
        self.dim = d = len(self.elements)
        if d ** 2 > MATRIX_GUARD:
            raise WeilGuardExceeded(f"Weil matrices of a module of order {d} have "
                                    f"{d ** 2} entries each, past guard {MATRIX_GUARD}")
        n, k = module.level, module.ngens
        self.q_nums = module.q_numerators(self.elements)
        gens = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        self.gen_pairings = module.pairing_numerators(self.elements, gens)
        # e(k/N), each angle from the correctly rounded k/N
        self.phases = [complex(math.cos(t), math.sin(t))
                       for t in (2 * math.pi * (j / n) for j in range(n))]
        # the eighth root on the principal branch e^(i pi (b- - b+)/4)
        self.scalar = (cmath.exp(1j * math.pi * (signature.negative - signature.positive) / 4)
                       / math.sqrt(d))

    def t_values(self) -> list:
        """rho(T)'s N possible entries e(k/N), conjugated for the dual."""
        return [z.conjugate() for z in self.phases] if self.dual else self.phases

    def s_values(self) -> list:
        """rho(S)'s N possible entries c e(-k/N), conjugated for the dual."""
        c = self.scalar
        values = [c * z.conjugate() for z in self.phases]
        return [z.conjugate() for z in values] if self.dual else values

    def s_index_rows(self):
        """Per element x, the numerators N b(x, y) mod N for y in
        elements() order, built by mixed radix (the last residue fastest)
        from x's pairings with the generators: indices into ``s_values()``."""
        n, factors = self.module.level, self.module.invariant_factors
        for pairs in self.gen_pairings:
            row = None
            for a, d in zip(pairs, factors):
                steps = [r * a % n for r in range(d)]
                row = steps if row is None else [(p + s) % n for p in row for s in steps]
            yield row or [0]


def _text(z: complex) -> str:
    """re,im, each printed with .17g, so the text gives back the double."""
    return f"{z.real:.17g},{z.imag:.17g}"


def rows_T(w: WeilAction):
    """rho(T) as text, one row at a time: its phase on the diagonal and a
    zero elsewhere, which prints 0,-0 for the dual (the conjugate of 0)."""
    texts = list(map(_text, w.t_values()))
    zero = _text(0j.conjugate() if w.dual else 0j)
    last = w.dim - 1
    for i, k in enumerate(w.q_nums):
        yield (zero + " ") * i + texts[k] + (" " + zero) * (last - i)


def rows_S(w: WeilAction):
    """rho(S) as text, one row at a time; each of its at most N distinct
    values is formatted once."""
    texts = list(map(_text, w.s_values()))
    for row in w.s_index_rows():
        yield " ".join(map(texts.__getitem__, row))


def dump_matrix(rows, out) -> None:
    """Print the text rows of a matrix (``rows_T``, ``rows_S``) as they are
    made, so no more than one row of its text is held."""
    for row in rows:
        print(row, file=out)


def rho_T(w: WeilAction):
    """Diagonal action of the translation generator, as a numpy array."""
    import numpy as np

    m = np.diag(np.array([w.phases[k] for k in w.q_nums]))
    return m.conj() if w.dual else m


def rho_S(w: WeilAction):
    """Action of the inversion generator, the scaled finite Fourier
    transform, as a numpy array of the values ``rows_S`` prints."""
    import numpy as np

    return np.array(w.s_values())[np.array(list(w.s_index_rows()))]


def verify_relations(w: WeilAction) -> dict:
    """Check unitarity, S^2 = (ST)^3 and T^N = 1 from their premises;
    raise WeilError on failure.

    With S_{x,y} = c e(-b(x, y)), T = diag e(Q(x)), d = |D| and Z e_x = e_{-x}:

    - (S S*)_{x,z} = |c|^2 sum_y e(b(z - x, y)) = d |c|^2 [x = z], since
      y -> e(b(u, y)) is a character of D, trivial only at u = 0.
    - S^2 e_x = c^2 sum_z (sum_y e(-b(y, x + z))) e_z = c^2 d Z e_x.
    - ST has entries c e(Q(x) - b(x, y)) in column x.  In (ST)^3 e_x the
      sum over the first intermediate index y is
      sum_y e(Q(x) - b(x, y) + Q(y) - b(y, z)) = sum_y e(Q(y - x) - b(y, z))
      = e(-b(x, z)) sum_u e(Q(u) - b(u, z)) = e(-b(x, z) - Q(z)) G,
      with u = y - x, Q(u) - b(u, z) = Q(u - z) - Q(z) and
      G = sum_u e(Q(u)); what is left is c^3 G sum_w sum_z e(-b(z, x + w)) e_w,
      so (ST)^3 = c^3 G d Z.

    So S S* = 1 iff d |c|^2 = 1, S^2 = (ST)^3 iff, besides, c G = 1, and
    T^N = 1 iff every phase has e(k/N)^N = 1; the dual conjugates every
    identity.  The steps use that b is a well-defined symmetric bilinear
    form on D with b(x, x) = 2 Q(x) and Q(-x) = Q(x), which holds when, on
    the generators e_i of orders d_i, b(e_i, e_j) = b(e_j, e_i),
    b(e_i, e_i) = 2 Q(e_i), d_i b(e_i, e_j) = 0 and d_i^2 Q(e_i) = 0 mod 1;
    and that b is nondegenerate: no x != 0 pairs to 0 with every generator.
    These are checked exactly on the numerators; the three identities in
    floats, whose deviations are the residuals reported: the dense
    residuals of the matrices are |d |c|^2 - 1| and |c G - 1| up to rounding.
    """
    D = w.module
    n, q, b = D.level, D.q_num, D.b_num
    for i, di in enumerate(D.invariant_factors):
        if b[i][i] != 2 * q[i] % n or di * di * q[i] % n:
            raise WeilError(f"Q is not a quadratic form with b: generator {i} has "
                            f"Q = {q[i]}/{n} and b(e, e) = {b[i][i]}/{n} on order {di}")
        for j, bij in enumerate(b[i]):
            if bij != b[j][i] or di * bij % n:
                raise WeilError(f"b is not a symmetric pairing on D: b(e_{i}, e_{j}) = "
                                f"{bij}/{n}, b(e_{j}, e_{i}) = {b[j][i]}/{n}, e_{i} of order {di}")
    for x, pairs in zip(w.elements, w.gen_pairings):
        if any(x) and not any(pairs):
            raise WeilError(f"b is degenerate: {x} pairs to 0 with every generator")
    phases = w.t_values()
    c = w.scalar.conjugate() if w.dual else w.scalar
    gauss = sum(phases[k] for k in w.q_nums)
    dev_unitary = abs(w.dim * abs(c) ** 2 - 1)
    dev_braid = abs(c * gauss - 1)
    dev_torder = max(abs(phases[k] ** n - 1) for k in set(w.q_nums))
    report = {
        "unitarity": dev_unitary,
        "braid": dev_braid,
        "t_order": dev_torder,
        "level": n,
        "tolerance": TOLERANCE,
    }
    if max(dev_unitary, dev_braid, dev_torder) > TOLERANCE:
        raise WeilError(f"metaplectic relations fail: {report}")
    return report


def pullback_matrix(w_big: WeilAction, w_small: WeilAction, projection: dict):
    """Matrix of v_gamma -> sum of v_delta over delta with p(delta) = gamma.

    ``projection`` maps elements of the orthogonal of the glued subgroup (in
    the big module) to elements of the small module; built by
    fqm.quotient_with_projection.
    """
    import numpy as np

    m = np.zeros((w_big.dim, w_small.dim))
    small_index = {e: i for i, e in enumerate(w_small.elements)}
    for a, delta in enumerate(w_big.elements):
        if delta in projection:
            m[a, small_index[projection[delta]]] = 1.0
    return m


def pushforward_matrix(w_big: WeilAction, w_small: WeilAction, projection: dict):
    """Matrix of v_delta -> v_{p(delta)} if delta is in the orthogonal, else 0:
    the transpose of the pullback."""
    return pullback_matrix(w_big, w_small, projection).T


def intertwining_defect(w_big: WeilAction, w_small: WeilAction, projection: dict) -> float:
    """max over g in {S, T} of ||rho_big(g) p* - p* rho_small(g)||_inf."""
    import numpy as np

    p = pullback_matrix(w_big, w_small, projection)
    out = 0.0
    for gen in (rho_S, rho_T):
        big = gen(w_big)
        small = gen(w_small)
        out = max(out, float(np.abs(big @ p - p @ small).max()))
    return out
