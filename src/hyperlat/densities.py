"""Siegel local densities, the singular series, and Eisenstein coefficients.

Counts N(gamma, n, L, a) = #{alpha in L/aL : Q(alpha+gamma) + n = 0 mod a}
are computed exactly: a slow exhaustive counter, and a fast path that works
block by block (closed form for unimodular hyperbolic blocks, p-adic
diagonalization at odd primes, guarded enumeration at p = 2) and convolves
per-block histograms over Z/a.  Densities are the stabilized normalized
counts; stabilization is always witnessed, never extrapolated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .fqm import discriminant_group
from .lattices import IntegerLattice, _prime_factors

ENUMERATION_GUARD = 10 ** 8
_DIRECT_LIMIT = 10 ** 7          # direct product enumeration below this
_SMALL_PRIME_SWEEP = 50          # extra primes swept by is_representable


class DensityError(ValueError):
    pass


class GuardExceeded(DensityError):
    pass


class StabilizationError(DensityError):
    pass


# ---------------------------------------------------------------------------
# shared setup

def _valuation(x: int, p: int) -> int:
    if x == 0:
        raise ValueError("valuation of zero")
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def rational_valuation(x: Fraction, p: int) -> int:
    return _valuation(x.numerator, p) - _valuation(x.denominator, p)


def small_primes(bound: int):
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(bound ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = b"\x00" * len(sieve[i * i::i])
    return [i for i in range(2, bound + 1) if sieve[i]]


def _gamma_lift(L: IntegerLattice, gamma):
    """Accept discriminant-group residues or an explicit rational dual vector."""
    if gamma is None:
        return tuple(Fraction(0) for _ in range(L.rank))
    gamma = tuple(gamma)
    if len(gamma) == L.rank and any(Fraction(x).denominator != 1 for x in gamma):
        return tuple(Fraction(x) for x in gamma)
    D = discriminant_group(L)
    if len(gamma) == D.ngens:
        return D.lift(gamma)
    if len(gamma) == L.rank:
        return tuple(Fraction(x) for x in gamma)
    raise DensityError("gamma must be residues in the discriminant group "
                       "or a dual vector of full rank")


def _count_data(L: IntegerLattice, lift, n: Fraction):
    """Return (w, c0) with t(alpha) = Q(alpha) + alpha.w + c0, all integers."""
    g = L.gram
    r = L.rank
    w = []
    for i in range(r):
        x = sum(Fraction(g[i][j]) * lift[j] for j in range(r))
        if x.denominator != 1:
            raise DensityError("gamma is not in the dual lattice")
        w.append(int(x))
    c0 = L.q_of(lift) + Fraction(n)
    if c0.denominator != 1:
        raise DensityError("n is not in -Q(gamma) + Z")
    return w, int(c0)


# ---------------------------------------------------------------------------
# exhaustive counter (the oracle side)

def count_solutions_naive(gamma, n, L: IntegerLattice, a: int,
                          guard: int = ENUMERATION_GUARD,
                          gamma_lift=None) -> int:
    """Exact count of alpha in L/aL with Q(alpha+gamma)+n = 0 mod a."""
    if a <= 0:
        raise DensityError("modulus must be positive")
    r = L.rank
    if a ** r > guard:
        raise GuardExceeded(f"a^rank = {a}^{r} exceeds guard {guard}")
    lift = tuple(gamma_lift) if gamma_lift is not None else _gamma_lift(L, gamma)
    w, c0 = _count_data(L, lift, Fraction(n))
    if r == 0:
        return 1 if c0 % a == 0 else 0
    g = np.array(L.gram, dtype=np.int64)
    wv = np.array(w, dtype=np.int64)
    total = a ** r
    count = 0
    chunk = 1 << 18
    radix = a ** np.arange(r, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        alpha = (idx[:, None] // radix[None, :]) % a
        qa = np.einsum("ki,ij,kj->k", alpha, g, alpha) // 2
        t = (qa + alpha @ wv + c0) % a
        count += int(np.count_nonzero(t == 0))
    return count


# ---------------------------------------------------------------------------
# block histograms over Z/a, a = p^s

_hist_cache: dict = {}


def clear_density_cache():
    _hist_cache.clear()


def _valuation_array(a: int, p: int, s: int) -> np.ndarray:
    val = np.zeros(a, dtype=np.int64)
    q = 1
    for k in range(1, s + 1):
        q *= p
        val[::q] = k
    val[0] = s
    return val


def _hyperbolic_histogram_values(p: int, s: int):
    """H(t) = #{(x,y) mod p^s : xy = t} as a function of min(v_p(t), s)."""
    a = p ** s
    unit_count = a - a // p
    vals = [(k + 1) * unit_count for k in range(s)]
    vals.append(s * unit_count + a)  # t = 0
    return vals


def _hist_u_block(p: int, s: int, w1: int, w2: int) -> np.ndarray:
    """Histogram of xy + x*w1 + y*w2 over (Z/p^s)^2: a shifted hyperbola count."""
    a = p ** s
    vals = np.array(_hyperbolic_histogram_values(p, s), dtype=np.int64)
    h_u = vals[_valuation_array(a, p, s)]
    shift = (w1 * w2) % a
    t = (np.arange(a) + shift) % a
    return h_u[t]


def _hist_rank1(coeff_half: int, p: int, s: int, w: int) -> np.ndarray:
    """Histogram of coeff_half * x^2 + w * x over Z/p^s."""
    a = p ** s
    x = np.arange(a, dtype=np.int64)
    vals = (coeff_half % a * x % a * x + w % a * x) % a
    return np.bincount(vals, minlength=a).astype(np.int64)


def _padic_diagonalize(gram, p: int, precision: int):
    """Congruent diagonalization of a symmetric integer form, odd p.

    Returns (diag, trans) with trans invertible mod p and trans^T G trans
    equal to diag(diag) modulo p^(precision - v_p(det)); precision should be
    taken with that margin in mind.
    """
    if p == 2:
        raise DensityError("p-adic diagonalization implemented for odd p only")
    n = len(gram)
    mod = p ** precision
    a = [[int(x) % mod for x in row] for row in gram]
    t = [[int(i == j) for j in range(n)] for i in range(n)]

    def val(x):
        x %= mod
        return precision if x == 0 else _valuation(x, p)

    def col_axpy(dst, src, f):
        for r in range(n):
            a[r][dst] = (a[r][dst] + f * a[r][src]) % mod
        for r in range(n):
            a[dst][r] = (a[dst][r] + f * a[src][r]) % mod
        for r in range(n):
            t[r][dst] = (t[r][dst] + f * t[r][src]) % mod

    def col_swap(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(n):
            a[i][r], a[j][r] = a[j][r], a[i][r]
        for r in range(n):
            t[r][i], t[r][j] = t[r][j], t[r][i]

    for k in range(n):
        best, best_v = None, None
        for i in range(k, n):
            for j in range(i, n):
                if a[i][j] % mod:
                    v = val(a[i][j])
                    if best_v is None or v < best_v:
                        best_v, best = v, (i, j)
        if best is None:
            raise DensityError("block degenerate at the working precision")
        i, j = best
        if i != j:
            if val(a[i][i]) == best_v:
                pass
            elif val(a[j][j]) == best_v:
                i = j
            else:
                col_axpy(i, j, 1)  # a[i][i] += 2 a[i][j] + a[j][j]: valuation best_v
        if i != k:
            col_swap(k, i)
        pk = a[k][k] % mod
        vk = val(pk)
        unit = pk // p ** vk
        inv_unit = pow(unit, -1, mod)
        for j2 in range(k + 1, n):
            if a[k][j2] % mod:
                f = (-(a[k][j2] // p ** vk) * inv_unit) % mod
                col_axpy(j2, k, f)
    return [a[i][i] % mod for i in range(n)], t


def _hist_generic(gram, p: int, s: int, w, guard: int) -> np.ndarray:
    """Histogram of Q(alpha) + alpha.w over (Z/p^s)^r by direct enumeration.

    Above the direct limit the coordinates are split in half and recombined
    in chunks (meet in the middle), so the E8 block at p = 2 stays feasible.
    """
    a = p ** s
    r = len(gram)
    if a ** r > guard:
        raise GuardExceeded(f"block enumeration a^r = {a}^{r} exceeds guard {guard}")
    g = np.array(gram, dtype=np.int64)
    wv = np.array(w, dtype=np.int64)

    def side(indices):
        rr = len(indices)
        total = a ** rr
        radix = a ** np.arange(rr, dtype=np.int64)
        idx = np.arange(total, dtype=np.int64)
        alpha = (idx[:, None] // radix[None, :]) % a
        sub = g[np.ix_(indices, indices)]
        qa = np.einsum("ki,ij,kj->k", alpha, sub, alpha) // 2
        return alpha, (qa + alpha @ wv[indices]) % a

    if a ** r <= _DIRECT_LIMIT or r == 1:
        hist = np.zeros(a, dtype=np.int64)
        total = a ** r
        radix = a ** np.arange(r, dtype=np.int64)
        chunk = 1 << 18
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
            alpha = (idx[:, None] // radix[None, :]) % a
            qa = np.einsum("ki,ij,kj->k", alpha, g, alpha) // 2
            t = (qa + alpha @ wv) % a
            hist += np.bincount(t, minlength=a)
        return hist
    half = r // 2
    ia, ib = list(range(half)), list(range(half, r))
    alpha_a, ta = side(ia)
    alpha_b, tb = side(ib)
    cross = g[np.ix_(ia, ib)]
    proj_a = alpha_a @ cross
    hist = np.zeros(a, dtype=np.int64)
    chunk = max(1, (1 << 22) // max(len(ta), 1))
    for start in range(0, len(tb), chunk):
        end = min(start + chunk, len(tb))
        crossed = (proj_a @ alpha_b[start:end].T + ta[:, None] + tb[None, start:end]) % a
        hist += np.bincount(crossed.ravel(), minlength=a)
    return hist


def _is_unimodular_u(gram) -> bool:
    return (len(gram) == 2 and gram[0][0] == 0 and gram[1][1] == 0
            and abs(gram[0][1]) == 1)


def _e8_scale(gram) -> int | None:
    """+-1 when the block is the standard rank-8 unimodular gram (scaled)."""
    from .lattices import _E8_GRAM
    if len(gram) != 8:
        return None
    for m in (1, -1):
        if all(gram[i][j] == m * _E8_GRAM[i][j] for i in range(8) for j in range(8)):
            return m
    return None


def _parity_convolution(per_coord, modulus: int, copies: int) -> np.ndarray:
    """Even-total-parity histogram of a sum of identical coordinates.

    ``per_coord[x]`` is the contribution of a coordinate with canonical
    representative x in [0, len(per_coord)); parities of the representatives
    are tracked through the convolution and the even-sum slice is returned.
    Arrays are tiny, so exact Python integers are used throughout.
    """
    a = modulus
    base = np.zeros((2, a), dtype=object)
    for x, v in enumerate(per_coord):
        base[x % 2, int(v) % a] += 1
    cur = base
    for _ in range(copies - 1):
        even = _cyclic_convolve(cur[0], base[0], a) + _cyclic_convolve(cur[1], base[1], a)
        odd = _cyclic_convolve(cur[0], base[1], a) + _cyclic_convolve(cur[1], base[0], a)
        cur = np.stack([even, odd])
    return cur[0]


def _hist_e8_two_adic(s: int, scale: int) -> np.ndarray:
    """Histogram of the rank-8 unimodular form over Z/2^s via its integer
    model: integer 8-tuples with even coordinate sum, plus the all-halves
    glue coset.

    Coordinates are tracked modulo 2^(s+1) with their parities; each class
    of the quotient is hit by exactly 2^8 representative tuples, so the
    convolution counts divide out evenly.  Eight cheap cyclic convolutions
    replace the 2^(8s) enumeration; the generic enumerator cross-checks
    this in the tests.
    """
    a = 2 ** s
    aa = 2 * a
    m = np.arange(aa, dtype=np.int64)
    # integer vectors: Q = (sum m^2)/2, value tracked as sum m^2 mod 2a
    int_even = _parity_convolution(m * m % aa, aa, 8)
    # glue coset: Q = sum m(m+1)/2 + 1 mod a
    half_even = _parity_convolution((m * (m + 1)) // 2 % a, a, 8)
    hist = np.empty(a, dtype=object)
    for t in range(a):
        num = int(int_even[(2 * t) % aa]) + int(half_even[(t - 1) % a])
        if num % 256:
            raise DensityError("internal error: uneven fibers in the "
                               "two-adic histogram")
        hist[t] = num // 256
    if scale == -1:
        hist = hist[(-np.arange(a)) % a]
    if max(int(x) for x in hist) < (1 << 62):
        hist = hist.astype(np.int64)
    return hist


def phi_count(p: int, s: int, k: int) -> int:
    """Number of residues mod p^s with valuation exactly k (k = s: just 0)."""
    if k >= s:
        return 1
    return p ** (s - k) - p ** (s - k - 1)


def _pair_count_exact(p: int, s: int, c: int, k: int, j: int) -> int:
    """#{m mod p^s : v(m) = k, v(t-m) = j} for a fixed t with v(t) = c."""
    if k < j:
        return phi_count(p, s, j) if c == k else 0
    if j < k:
        return phi_count(p, s, k) if c == j else 0
    if k == s:  # m = 0 and t = 0
        return 1 if c == s else 0
    if c < k:
        return 0
    if c == k:
        # both m and t - m have valuation exactly k = v(t)
        full = phi_count(p, s, k)
        collide = p ** (s - k - 1)  # units congruent to t/p^k mod p
        return full - collide
    return phi_count(p, s, k)


def _u_class_values(p: int, s: int):
    return _hyperbolic_histogram_values(p, s)


def _convolve_valuation_values(f, g, p: int, s: int):
    """Convolution of two valuation-radial functions on Z/p^s, by classes."""
    out = []
    for c in range(s + 1):
        total = 0
        for k in range(s + 1):
            fk = f[k]
            if not fk:
                continue
            for j in range(s + 1):
                cnt = _pair_count_exact(p, s, c, k, j)
                if cnt:
                    total += cnt * fk * g[j]
        out.append(total)
    return out


def _u_power_expanded(p: int, s: int, k_u: int) -> np.ndarray:
    """Histogram of x1 y1 + ... + xk yk over (Z/p^s)^(2k), expanded."""
    a = p ** s
    key = ("u_power", p, s, k_u)
    if key in _hist_cache:
        return _hist_cache[key]
    vals = _u_class_values(p, s)
    for _ in range(k_u - 1):
        vals = _convolve_valuation_values(vals, _u_class_values(p, s), p, s)
    arr = np.array(vals, dtype=object)
    out = arr[_valuation_array(a, p, s)]
    if max(vals) < (1 << 62):
        out = out.astype(np.int64)
    _hist_cache[key] = out
    return out


def _cyclic_convolve(x: np.ndarray, y: np.ndarray, a: int) -> np.ndarray:
    # exact integer convolution; Python ints when int64 could overflow
    mx = int(x.max()) if len(x) else 0
    my = int(y.max()) if len(y) else 0
    if x.dtype == object or y.dtype == object or mx * my * a >= (1 << 62):
        full = np.convolve(x.astype(object), y.astype(object))
    else:
        full = np.convolve(x, y)
    out = full[:a].copy()
    if len(full) > a:
        out[:len(full) - a] += full[a:]
    return out


def quadratic_congruence_count(m: int, w: int, c: int, p: int, e: int) -> int:
    """#{x mod p^e : m x^2 + w x + c = 0 mod p^e}, exactly.

    Hensel recursion: simple roots lift uniquely, degenerate roots descend
    to a smaller exponent.  O(p * e) instead of O(p^e); checked against the
    exhaustive counter in the tests.
    """
    if e <= 0:
        return 1

    def vp(x):
        if x == 0:
            return e
        v = 0
        while x % p == 0 and v < e:
            x //= p
            v += 1
        return v

    gamma = min(vp(m), vp(w), vp(c))
    if gamma >= e:
        return p ** e
    if gamma:
        q = p ** gamma
        return q * quadratic_congruence_count(m // q, w // q, c // q, p, e - gamma)
    total = 0
    for x0 in range(p):
        if (m * x0 * x0 + w * x0 + c) % p:
            continue
        if (2 * m * x0 + w) % p:
            total += 1  # unique lift to p^e
        elif e == 1:
            total += 1
        else:
            f0 = m * x0 * x0 + w * x0 + c
            if f0 % (p * p):
                continue
            d = (2 * m * x0 + w) // p
            # x = x0 + p y: condition m y^2 + d y + f0/p^2 = 0 mod p^(e-2),
            # with y running mod p^(e-1)
            total += p * quadratic_congruence_count(m, d, f0 // (p * p), p, e - 2)
    return total


_CONV_COST_GUARD = 4 * 10 ** 9
_STREAM_LIMIT = 1 << 15   # above this modulus, avoid full histograms


def _structured_parts(L: IntegerLattice, w, p: int, s: int, guard: int):
    """Decompose the counting problem: (number of U blocks, shift, other hists).

    U blocks with shift w contribute a translate of the hyperbolic count, so
    they fold into a single valuation-radial factor; everything else becomes
    an explicit histogram (rank-1 direct, odd-p diagonalization, guarded
    enumeration at p = 2).
    """
    a = p ** s
    blocks = L.blocks if L.blocks is not None else ((0, L.rank),)
    k_u = 0
    sigma = 0
    others = []
    for start, size in blocks:
        gram = [[L.gram[i][j] for j in range(start, start + size)]
                for i in range(start, start + size)]
        wb = [w[i] for i in range(start, start + size)]
        if _is_unimodular_u(gram):
            w1 = wb[0] if gram[0][1] == 1 else -wb[0]
            k_u += 1
            sigma += w1 * wb[1]
            continue
        key = (tuple(tuple(r) for r in gram), p, s, tuple(x % a for x in wb))
        if key in _hist_cache:
            others.append(_hist_cache[key])
            continue
        if size == 1:
            h = _hist_rank1(gram[0][0] // 2, p, s, wb[0])
        elif p == 2 and _e8_scale(gram) is not None:
            scale = _e8_scale(gram)
            h = _hist_e8_two_adic(s, scale)
            # the block is unimodular: the linear shift w = G v is absorbed
            # into a translate, Q(alpha) + (alpha, v) = Q(alpha + v) - Q(v)
            if any(wb):
                from .exactla import solve_integer
                v = solve_integer(gram, wb)
                qv = sum(gram[i][j] * v[i] * v[j] for i in range(8)
                         for j in range(8)) // 2
                h = h[(np.arange(a) + qv) % a]
        elif p != 2:
            from .exactla import bareiss_det
            det = bareiss_det([list(r) for r in gram])
            vdet = _valuation(det, p) if det % p == 0 else 0
            precision = s + 2 * vdet + 4
            diag, trans = _padic_diagonalize(gram, p, precision)
            wt = [sum(trans[r][i] * wb[r] for r in range(size)) % a
                  for i in range(size)]
            inv2 = pow(2, -1, a)
            h = None
            for i in range(size):
                hi = _hist_rank1(diag[i] * inv2 % a, p, s, wt[i])
                h = hi if h is None else _cyclic_convolve(h, hi, a)
        else:
            h = _hist_generic(gram, p, s, wb, guard)
        _hist_cache[key] = h
        others.append(h)
    return k_u, sigma % a, others


def _stream_count(L: IntegerLattice, w, p: int, s: int, t0: int):
    """Count for k hyperbolic blocks + at most one rank-1 block at huge p^s.

    Works from the valuation-class values of the hyperbolic factor and
    Hensel counts of the rank-1 quadratic congruence; O(p s^2) time and O(s)
    memory.  Returns None when the block structure does not fit.
    """
    a = p ** s
    blocks = L.blocks if L.blocks is not None else ((0, L.rank),)
    k_u = 0
    sigma = 0
    rank1 = None
    for start, size in blocks:
        gram = [[L.gram[i][j] for j in range(start, start + size)]
                for i in range(start, start + size)]
        wb = [w[i] for i in range(start, start + size)]
        if _is_unimodular_u(gram):
            w1 = wb[0] if gram[0][1] == 1 else -wb[0]
            k_u += 1
            sigma += w1 * wb[1]
        elif size == 1 and rank1 is None:
            rank1 = (gram[0][0] // 2, wb[0])
        else:
            return None
    if k_u == 0:
        if rank1 is None:
            return None
        m, wx = rank1
        return quadratic_congruence_count(m, wx, -t0, p, s)
    vals = _u_class_values(p, s)
    for _ in range(k_u - 1):
        vals = _convolve_valuation_values(vals, _u_class_values(p, s), p, s)
    ts = (t0 + sigma) % a
    if rank1 is None:
        v = s if ts == 0 else min(_valuation(ts, p), s)
        return int(vals[v])
    m, wx = rank1
    # W_c = #{x mod p^s : I(x) = ts mod p^c} = p^(s-c) * (count mod p^c)
    big_w = [p ** (s - c) * quadratic_congruence_count(m, wx, -ts, p, c)
             for c in range(s + 1)]
    total = vals[s] * big_w[s]
    for c in range(s):
        total += vals[c] * (big_w[c] - big_w[c + 1])
    return int(total)


def count_solutions_split(gamma, n, L: IntegerLattice, p: int, s: int,
                          guard: int = ENUMERATION_GUARD,
                          gamma_lift=None) -> int:
    """Same count as count_solutions_naive at a = p^s, block by block.

    Hyperbolic blocks are handled in closed form, so for lattices of the
    shape U + ... + U + (small block) no quadratic-cost convolution occurs
    at all; above a modulus threshold the rank-1 factor is evaluated by
    Hensel counting so no p^s-sized array is ever built.
    """
    lift = tuple(gamma_lift) if gamma_lift is not None else _gamma_lift(L, gamma)
    w, c0 = _count_data(L, lift, Fraction(n))
    a = p ** s
    if L.rank == 0:
        return 1 if c0 % a == 0 else 0
    if a > _STREAM_LIMIT:
        streamed = _stream_count(L, w, p, s, (-c0) % a)
        if streamed is None:
            raise GuardExceeded(
                f"modulus p^s = {a} too large for this block structure")
        return streamed
    k_u, sigma, others = _structured_parts(L, w, p, s, guard)
    t0 = (-c0) % a
    if others:
        if len(others) > 1:
            key = ("others", L.gram, p, s, tuple(x % a for x in w))
            if key in _hist_cache:
                combined = _hist_cache[key]
            else:
                if (len(others) - 1) * a * a > _CONV_COST_GUARD:
                    raise GuardExceeded(
                        f"convolution cost at p^s = {a} exceeds the guard")
                others = sorted(others, key=lambda h: int(h.max()), reverse=True)
                combined = others[0]
                for h in others[1:]:
                    combined = _cyclic_convolve(combined, h, a)
                _hist_cache[key] = combined
        else:
            combined = others[0]
    else:
        combined = None
    if k_u == 0:
        if combined is None:
            raise DensityError("empty decomposition")
        return int(combined[t0])
    hu = _u_power_expanded(p, s, k_u)
    ts = (t0 + sigma) % a
    if combined is None:
        return int(hu[ts])
    idx = (ts - np.arange(a)) % a
    if hu.dtype == object or int(hu.max()) * int(combined.max()) * a >= (1 << 62):
        return int(np.dot(hu.astype(object), combined.astype(object)[idx]))
    return int(np.dot(hu, combined[idx]))


# ---------------------------------------------------------------------------
# stabilized densities

@dataclass(frozen=True)
class LocalDensityReport:
    prime: int
    stabilization_exponent: int
    raw_counts: tuple[int, ...]          # N(gamma, n, L, p^s) for s = 1..s0+1
    density: Fraction


def local_density(gamma, n, L: IntegerLattice, p: int,
                  s_max: int | None = None,
                  guard: int = ENUMERATION_GUARD,
                  gamma_lift=None) -> LocalDensityReport:
    """Stabilized local density with the witnessing raw counts.

    The normalization exponent is rank - 1 (= 1 + b in signature (2, b)).
    The stabilization exponent starts at 1 + v_p(2 n det): the first pair of
    consecutive exponents at or past it with equal normalized counts wins.
    Running past s_max without stabilizing is an error, not an extrapolation.
    """
    n = Fraction(n)
    if n <= 0:
        raise DensityError("local density wants n > 0")
    lift = tuple(gamma_lift) if gamma_lift is not None else _gamma_lift(L, gamma)
    norm_exp = L.rank - 1
    x = 2 * n * abs(L.det)
    floor = 1 + max(0, rational_valuation(x, p))
    if s_max is None:
        s_max = 1 + max(0, rational_valuation(2 * x, p)) + 2
    s_max = max(s_max, floor)
    counts = []
    norms = []

    def extend_to(s):
        while len(counts) < s:
            snew = len(counts) + 1
            counts.append(count_solutions_split(None, n, L, p, snew, guard=guard,
                                                gamma_lift=lift))
            norms.append(Fraction(counts[-1], p ** (norm_exp * snew)))

    for s0 in range(floor, s_max + 1):
        extend_to(s0 + 1)
        if norms[s0 - 1] == norms[s0]:
            return LocalDensityReport(p, s0, tuple(counts[:s0 + 1]), norms[s0 - 1])
    raise StabilizationError(
        f"no stabilization for p={p} by s_max={s_max}; raw counts {counts}")


@dataclass(frozen=True)
class SingularSeries:
    factors: dict
    prime_bound: int
    truncated_product: Fraction
    tail_policy: str = "omitted factors set to 1"

    @property
    def is_locally_representable(self) -> bool:
        return self.truncated_product > 0


def series_primes(n: Fraction, det: int, prime_bound: int):
    ps = set(small_primes(prime_bound))
    ps.update(_prime_factors(2 * n.numerator * n.denominator * det))
    return sorted(ps)


def singular_series(gamma, n, V: IntegerLattice, prime_bound: int,
                    s_max: int | None = None,
                    guard: int = ENUMERATION_GUARD,
                    gamma_lift=None) -> SingularSeries:
    """Truncated Euler product of local densities.

    Includes every prime up to the bound plus all primes dividing
    2 * num(n) * den(n) * det; omitted factors are taken to be 1.
    """
    if V.rank < 5:
        raise DensityError("singular series wants signature (2,b) with b >= 3")
    n = Fraction(n)
    lift = tuple(gamma_lift) if gamma_lift is not None else _gamma_lift(V, gamma)
    factors = {}
    product = Fraction(1)
    for p in series_primes(n, V.det, prime_bound):
        rep = local_density(None, n, V, p, s_max=s_max, guard=guard,
                            gamma_lift=lift)
        factors[p] = rep
        product *= rep.density
        if rep.density == 0:
            break
    return SingularSeries(factors, prime_bound, product)


# ---------------------------------------------------------------------------
# Eisenstein coefficients

def gamma_half_integer(two_k: int):
    """Gamma(two_k / 2) as (rational, e) meaning rational * pi^(e/2), e in {0,1}."""
    if two_k <= 0:
        raise ValueError("positive argument required")
    if two_k % 2 == 0:
        k = two_k // 2
        out = 1
        for i in range(1, k):
            out *= i
        return Fraction(out), 0
    k = (two_k - 1) // 2  # Gamma(k + 1/2) = (2k)! sqrt(pi) / (4^k k!)
    num = 1
    for i in range(1, 2 * k + 1):
        num *= i
    den = 4 ** k
    for i in range(1, k + 1):
        den *= i
    return Fraction(num, den), 1


def _mpf_frac(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


@dataclass(frozen=True)
class EisensteinCoefficient:
    value: object                 # mpmath mpf
    exact: Fraction | None        # set when the value is exactly rational
    series: SingularSeries | None
    prime_bound: int

    @property
    def approximate(self) -> bool:
        return self.exact is None

    def __float__(self):
        return float(self.value)


def eisenstein_coefficient(gamma, n, V: IntegerLattice, prime_bound: int,
                           s_max: int | None = None,
                           guard: int = ENUMERATION_GUARD,
                           gamma_lift=None) -> EisensteinCoefficient:
    """Fourier coefficient of the weight 1 + b/2 Eisenstein vector.

    The constant term at (0, 0) is exactly 2.  For n > 0 the archimedean
    constant is evaluated to 50 digits (Gamma at half integers through the
    exact factorial ladder) times the truncated singular series; the result
    carries an approximate flag because of the truncation.
    """
    n = Fraction(n)
    lift = tuple(gamma_lift) if gamma_lift is not None else _gamma_lift(V, gamma)
    if n == 0:
        if all(x == 0 for x in lift):
            return EisensteinCoefficient(mpmath.mpf(2), Fraction(2), None, prime_bound)
        return EisensteinCoefficient(mpmath.mpf(0), Fraction(0), None, prime_bound)
    if n < 0:
        return EisensteinCoefficient(mpmath.mpf(0), Fraction(0), None, prime_bound)
    b = V.rank - 2
    if b < 3:
        raise DensityError("Eisenstein coefficients want signature (2,b), b >= 3")
    ss = singular_series(None, n, V, prime_bound, s_max=s_max, guard=guard,
                         gamma_lift=lift)
    gamma_rat, sqrt_pi = gamma_half_integer(b + 2)
    with mpmath.workdps(50):
        pi_exp = mpmath.mpf(2 + b - sqrt_pi) / 2
        arch = mpmath.mpf(2) ** (2 + mpmath.mpf(b) / 2)
        arch *= mpmath.pi ** pi_exp
        arch *= _mpf_frac(n) ** (mpmath.mpf(b) / 2)
        arch /= mpmath.sqrt(abs(V.det))
        arch /= _mpf_frac(gamma_rat)
        value = -arch * _mpf_frac(ss.truncated_product)
    return EisensteinCoefficient(value, None, ss, prime_bound)


# ---------------------------------------------------------------------------
# representability

def in_coset_support(gamma, n, V: IntegerLattice, gamma_lift=None) -> bool:
    lift = tuple(gamma_lift) if gamma_lift is not None else _gamma_lift(V, gamma)
    return (V.q_of(lift) + Fraction(n)).denominator == 1


def is_representable(gamma, n, V: IntegerLattice,
                     guard: int = ENUMERATION_GUARD,
                     gamma_lift=None) -> bool:
    """Local representability of -n by Q on the coset gamma + V (n > 0).

    Positive local density at every prime up to 50 and at every prime
    dividing 2 * num(n) * den(n) * det certifies it: outside that set the
    completion is unimodular of rank >= 5, where densities are positive.
    """
    n = Fraction(n)
    if n <= 0:
        return False
    lift = tuple(gamma_lift) if gamma_lift is not None else _gamma_lift(V, gamma)
    if not in_coset_support(None, n, V, gamma_lift=lift):
        return False
    if V.hyperbolic_split is not None:
        # a unimodular hyperbolic block represents everything at every prime
        return True
    ps = set(small_primes(_SMALL_PRIME_SWEEP))
    ps.update(_prime_factors(2 * n.numerator * n.denominator * V.det))
    for p in sorted(ps):
        rep = local_density(None, n, V, p, guard=guard, gamma_lift=lift)
        if rep.density == 0:
            return False
    return True
