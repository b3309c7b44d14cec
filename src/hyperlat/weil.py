"""Weil representation matrices on C[D] for a finite quadratic module D.

The action is determined by the standard generators of the metaplectic group:
T acts diagonally by e^(2 pi i Q(gamma)), S by the normalized finite Fourier
transform with the eighth-root scalar fixed by the ambient signature.
Matrices are double precision; every identity is checked to 1e-9.
"""

from __future__ import annotations

import struct
from fractions import Fraction

import numpy as np

from .exactla import NodeGuardExceeded
from .fqm import FiniteQuadraticModule
from .lattices import Signature

TOLERANCE = 1e-9
# entries of one |D| x |D| matrix: |D| = 2000 took 16.7 s and 459 MB
MATRIX_GUARD = 4 * 10 ** 6


class WeilError(ValueError):
    pass


class WeilGuardExceeded(WeilError, NodeGuardExceeded):
    """A module whose Weil matrices are too large to hold."""


class WeilAction:
    """The Weil representation of a module, or its dual, for a lattice of
    the given signature; its elements are listed once, on construction."""

    def __init__(self, module: FiniteQuadraticModule, signature: Signature,
                 dual: bool = False):
        self.module = module
        self.signature = signature
        self.dual = dual
        self.elements = tuple(module.elements())
        self.dim = len(self.elements)
        if self.dim ** 2 > MATRIX_GUARD:
            raise WeilGuardExceeded(f"Weil matrices of a module of order {self.dim} have "
                                    f"{self.dim ** 2} entries each, past guard {MATRIX_GUARD}")


def _unit_roots(level: int) -> np.ndarray:
    """exp(-2 pi i k/N) for k = 0..N-1, each from the exact fraction k/N."""
    return np.array([np.exp(-2j * np.pi * float(Fraction(k, level)))
                     for k in range(level)])


def rho_T(w: WeilAction) -> np.ndarray:
    """Diagonal action of the translation generator."""
    D = w.module
    # conj(exp(-2 pi i k/N)) is exactly exp(2 pi i k/N); adding 0.0 turns the
    # -0.0 imaginary part at k = 0 into the +0.0 that exp gives
    phases = _unit_roots(D.level)[D.q_numerators(w.elements)].conj() + 0.0
    m = np.diag(phases)
    return m.conj() if w.dual else m


def rho_S(w: WeilAction) -> np.ndarray:
    """Action of the inversion generator: scaled finite Fourier transform.

    The eighth root of unity i^((b- - b+)/2) is taken on the principal branch
    e^(i pi (b- - b+)/4).
    """
    d = w.dim
    sig = w.signature
    scalar = np.exp(1j * np.pi * (sig.negative - sig.positive) / 4) / np.sqrt(d)
    D = w.module
    # b(x, y) = sum_j y_j b(x, e_j): pair every element with the generators,
    # then take all |D|^2 pairings as one integer product mod N
    k = D.ngens
    gens = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    # exact in int64: N divides 2 * exponent <= 2 * fqm.ENUMERATION_GUARD
    xb = np.array(D.pairing_numerators(w.elements, gens), dtype=np.int64).reshape(d, k)
    y = np.array(w.elements, dtype=np.int64).reshape(d, k)
    pairs = xb @ y.T
    pairs %= D.level
    m = scalar * _unit_roots(D.level)[pairs]
    return m.conj() if w.dual else m


def verify_relations(w: WeilAction, s=None, t=None) -> dict:
    """Check unitarity, S^2 = (ST)^3, and T^level = 1; raise on failure.

    ``s`` and ``t`` are rho_S(w) and rho_T(w) when the caller has built them.
    rho(T) is diagonal, so ST is S with its columns scaled by T's phases and
    T^level = 1 is checked on the phases alone.
    """
    s = rho_S(w) if s is None else s
    phases = (rho_T(w) if t is None else t).diagonal()
    dev_unitary = np.abs(s @ s.conj().T - np.eye(w.dim)).max()
    st = s * phases
    dev_braid = np.abs(s @ s - st @ st @ st).max()
    n = w.module.level
    dev_torder = np.abs(phases ** n - 1).max()
    report = {
        "unitarity": float(dev_unitary),
        "braid": float(dev_braid),
        "t_order": float(dev_torder),
        "level": n,
        "tolerance": TOLERANCE,
    }
    if max(dev_unitary, dev_braid, dev_torder) > TOLERANCE:
        raise WeilError(f"metaplectic relations fail: {report}")
    return report


def pullback_matrix(w_big: WeilAction, w_small: WeilAction, projection: dict) -> np.ndarray:
    """Matrix of v_gamma -> sum of v_delta over delta with p(delta) = gamma.

    ``projection`` maps elements of the orthogonal of the glued subgroup (in
    the big module) to elements of the small module; built by
    fqm.quotient_with_projection.
    """
    m = np.zeros((w_big.dim, w_small.dim))
    small_index = {e: i for i, e in enumerate(w_small.elements)}
    for a, delta in enumerate(w_big.elements):
        if delta in projection:
            m[a, small_index[projection[delta]]] = 1.0
    return m


def pushforward_matrix(w_big: WeilAction, w_small: WeilAction, projection: dict) -> np.ndarray:
    """Matrix of v_delta -> v_{p(delta)} if delta is in the orthogonal, else 0:
    the transpose of the pullback."""
    return pullback_matrix(w_big, w_small, projection).T


def intertwining_defect(w_big: WeilAction, w_small: WeilAction, projection: dict) -> float:
    """max over g in {S, T} of ||rho_big(g) p* - p* rho_small(g)||_inf."""
    p = pullback_matrix(w_big, w_small, projection)
    out = 0.0
    for gen in (rho_S, rho_T):
        big = gen(w_big)
        small = gen(w_small)
        out = max(out, float(np.abs(big @ p - p @ small).max()))
    return out


class _EntryText(dict):
    """The "re,im" text of complex128 entries, keyed by their 16 raw bytes:
    each distinct entry is formatted once, and +0.0 and -0.0 keep their own
    keys."""

    def __missing__(self, raw):
        re, im = struct.unpack("=dd", raw)
        text = self[raw] = f"{re:.17g},{im:.17g}"
        return text


def dump_matrix(m: np.ndarray) -> str:
    """Rows of re,im pairs, row-major, space separated; each part printed
    with .17g, so the text gives back every double exactly.

    A Weil matrix holds few distinct values (at most N in rho(S), mostly
    zeros in rho(T)), so each is formatted once; the text is built one row
    at a time.
    """
    m = np.ascontiguousarray(np.atleast_2d(m), dtype=np.complex128)
    text = _EntryText()
    return "\n".join(" ".join(map(text.__getitem__, row.tolist()))
                     for row in m.view("V16"))
