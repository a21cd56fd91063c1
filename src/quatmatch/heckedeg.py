"""Indefinite side: degrees of determinant-m correspondences and volumes.

For an Eichler order O of level N in the indefinite algebra of discriminant
D, the determinant-m locus {(z1, z2): z1 = x z2, x in O, det x = m} is a
correspondence whose degree over either factor is a multiplicative function
of m with local factors

    p coprime to D*N :  sigma(p^k) = 1 + p + ... + p^k
    p | N (exactly)  :  sigma(p^k) + p * sigma(p^(k-1))
    p | D            :  1

where k = v_p(m).  Each closed form is certified by `oracle_local_orbits`,
an explicit orbit count over the corresponding finite local pattern.

`volume` is the exact rational -D*N/12 * prod_{p|N}(1+1/p) * prod_{p|D}(1-1/p),
and the normalised coefficient attached to the correspondence is

    r_prime(D, N, m) = (deg over first factor + deg over second factor)
                       / volume(D, N)
                     = 2 * deg_T(D, N, m) / volume(D, N)     (m >= 1)

with r_prime(D, N, 0) = 1.  The two projection degrees coincide because
conjugation exchanges them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .classsets import mass_formula
from .exactnum import is_squarefree, prime_factors, prime_power_factors
from .quatalg import ramified_model


def volume(D: int, N: int) -> Fraction:
    """Exact (negative) volume of the level-N curve for discriminant D.

    Its magnitude is the same product as the definite-side mass formula.
    """
    if D <= 1 or not is_squarefree(D):
        raise ValueError("D must be a squarefree integer > 1")
    if len(prime_factors(D)) % 2:
        raise ValueError("D must have an even number of prime factors "
                         "(indefinite, anisotropic side)")
    if N < 1 or math.gcd(D, N) != 1:
        raise ValueError("N must be a positive integer coprime to D")
    return -mass_formula(D, N)


def _sigma(p: int, k: int) -> int:
    return sum(p ** i for i in range(k + 1))


def local_degree_split(p: int, k: int) -> int:
    """Local factor at p coprime to D*N: the number of index-p^k sublattices."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    return _sigma(p, k)


def local_degree_level(p: int, k: int) -> int:
    """Local factor at p || N: sigma(p^k) + p*sigma(p^(k-1))."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    if k == 0:
        return 1
    return _sigma(p, k) + p * _sigma(p, k - 1)


def local_degree_ramified(p: int, k: int) -> int:
    """Local factor at p | D: a single orbit for every exponent."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    return 1


def deg_T(D: int, N: int, m: int) -> int:
    """Degree (over one factor) of the determinant-m correspondence."""
    if D <= 1 or not is_squarefree(D) or len(prime_factors(D)) % 2:
        raise ValueError("D must be squarefree > 1 with an even number of primes")
    if math.gcd(D, N) != 1:
        raise ValueError("N must be coprime to D")
    if m < 1:
        raise ValueError("m must be a positive integer")
    total = 1
    for p, k in prime_power_factors(m):
        if D % p == 0:
            total *= local_degree_ramified(p, k)
        elif N % p == 0:
            if N % (p * p) == 0:
                raise ValueError("level factors are implemented for squarefree N only")
            total *= local_degree_level(p, k)
        else:
            total *= local_degree_split(p, k)
    return total


def r_prime(D: int, N: int, m: int) -> Fraction:
    """Normalized two-sided degree: 1 at m=0, else 2*deg_T/volume (negative)."""
    if m == 0:
        return Fraction(1)
    return Fraction(2 * deg_T(D, N, m)) / volume(D, N)


# ---------------------------------------------------------------------------
# orbit-counting oracles over the finite local patterns
#
# Elements x of the local pattern with v_p(det x) = k are counted modulo
# right multiplication by determinant-unit pattern elements.  Candidate
# representatives are an explicit finite family; the oracle certifies
#   (i)  candidates are pairwise inequivalent (exact adjugate test), and
#   (ii) every element of the finite ring with the determinant condition is
#        equivalent to exactly one candidate (full sweep when the ring is
#        small enough, a deterministic panel otherwise).

_SWEEP_CAP = 600_000


def _det2(x):
    return x[0] * x[3] - x[1] * x[2]


def _adj2(x):
    return (x[3], -x[1], -x[2], x[0])


def _mul2(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _vp(n: int, p: int):
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _matrix_candidates(pattern: str, p: int, k: int):
    """Orbit-representative family for the split / level patterns."""
    cands = []
    for a in range(k + 1):
        b = k - a
        if pattern == "split":
            for c in range(p ** b):
                cands.append((p ** a, 0, c, p ** b))
        else:
            for t in range(p ** b):
                cands.append((p ** a, 0, p * t, p ** b))
    if pattern == "level":
        for bprime in range(1, k + 1):
            aprime = k - bprime
            for d in range(p ** bprime):
                cands.append((0, p ** aprime, p ** bprime, d))
    return cands


def _pattern_ok(pattern: str, g, p: int) -> bool:
    if pattern == "level":
        return g[2] % p == 0
    return True


def _equiv_exact(pattern, p, k, x, y) -> bool:
    """Right equivalence over Z_p of two integer candidates with det = +-p^k."""
    detx = _det2(x)
    assert abs(detx) == p ** k
    g_num = _mul2(_adj2(x), y)
    if any(v % detx for v in g_num):
        return False
    g = tuple(v // detx for v in g_num)
    if abs(_det2(g)) != 1:
        return False
    return _pattern_ok(pattern, g, p)


def _equiv_mod(pattern, p, k, M, x, y) -> bool:
    """Right equivalence of x (mod p^M element) with integer candidate y.

    Requires M >= k + 2 so that the reduced test decides equivalence of the
    mod-p^M classes.
    """
    detx = _det2(x)
    if _vp(detx, p) != k:
        return False
    pk = p ** k
    g_num = _mul2(_adj2(x), y)
    if any(v % pk for v in g_num):
        return False
    u = detx // pk
    mod = p ** (M - k)
    uinv = pow(u % mod, -1, mod)
    g = tuple((v // pk) * uinv % mod for v in g_num)
    if _det2(g) % p == 0:
        return False
    return _pattern_ok(pattern, g, p)


def _iter_pattern_matrices(pattern, p, M):
    q = p ** M
    c_step = p if pattern == "level" else 1
    for a in range(q):
        for b in range(q):
            for c in range(0, q, c_step):
                for d in range(q):
                    yield (a, b, c, d)


def _splitmix(state):
    state = (state + 0x9E3779B97F4A7C15) % 2 ** 64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2 ** 64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2 ** 64
    return state, z ^ (z >> 31)


def _lcg_panel(pattern, p, k, M, size=250):
    """Deterministic pseudorandom elements of the pattern with v(det) = k."""
    q = p ** M
    state = 123456789
    out = []
    guard = 0
    while len(out) < size and guard < 200000:
        guard += 1
        vals = []
        for _ in range(4):
            state, z = _splitmix(state)
            vals.append(z % q)
        a, b, c, d = vals
        if pattern == "level":
            c -= c % p
        x = (a, b, c, d)
        if _vp(_det2(x), p) == k:
            out.append(x)
    return out


def _ram_candidate(model, k):
    half, odd = divmod(k, 2)
    ph = model.p ** half
    if odd:
        return ((0, 0), (ph, 0))
    return ((ph, 0), (0, 0))


def _ram_equiv_mod(model, k, M, x, cand) -> bool:
    p = model.p
    n = model.nrd(x)
    if _vp(n, p) != k:
        return False
    pk = p ** k
    num = model.mul(model.involution(x), cand)
    flat = (num[0][0], num[0][1], num[1][0], num[1][1])
    if any(v % pk for v in flat):
        return False
    u = n // pk
    mod = p ** (M - k)
    uinv = pow(u % mod, -1, mod)
    g = ((flat[0] // pk * uinv % mod, flat[1] // pk * uinv % mod),
         (flat[2] // pk * uinv % mod, flat[3] // pk * uinv % mod))
    return model.nrd(g) % p != 0


def _iter_ram_elements(p, M):
    q = p ** M
    for a1 in range(q):
        for a2 in range(q):
            for b1 in range(q):
                for b2 in range(q):
                    yield ((a1, a2), (b1, b2))


def _ram_panel(model, k, M, size=250):
    """Norm-valuation-k elements: uniform hits plus uniformizer-shifted units.

    Uniform sampling alone cannot reach k >= 2 (the valuation-k locus has
    density ~ p^(-2k)), so products pi^k * unit are added; together with the
    full sweeps at small moduli this exercises the whole orbit.
    """
    p = model.p
    q = p ** M
    state = 987654321
    out = []
    guard = 0
    while len(out) < size // 2 and guard < 50000:
        guard += 1
        vals = []
        for _ in range(4):
            state, z = _splitmix(state)
            vals.append(z % q)
        x = ((vals[0], vals[1]), (vals[2], vals[3]))
        if _vp(model.nrd(x), p) == k:
            out.append(x)
    pik = _ram_candidate(model, k)
    produced = 0
    while produced < size and guard < 200000:
        guard += 1
        vals = []
        for _ in range(4):
            state, z = _splitmix(state)
            vals.append(z % q)
        y = ((vals[0], vals[1]), (vals[2], vals[3]))
        if _vp(model.nrd(y), p) != 0:
            continue
        x = model.mul(pik, y)
        x = ((x[0][0] % q, x[0][1] % q), (x[1][0] % q, x[1][1] % q))
        if _vp(model.nrd(x), p) == k:
            out.append(x)
            produced += 1
    return out


def oracle_local_orbits(pattern: str, p: int, k: int, M: int) -> int:
    """Count orbits of determinant-p^k-unit elements under right unit action.

    `pattern` is "split", "level" or "ramified"; the computation is carried
    out in the corresponding local order reduced mod p^M.  The margin
    M >= k + 2 makes the reduced equivalence tests decide equivalence of
    mod-p^M classes; callers check stability by re-running at M + 1.
    """
    if pattern not in ("split", "level", "ramified"):
        raise ValueError("unknown pattern %r" % (pattern,))
    if M < k + 2:
        raise ValueError("need M >= k + 2 for a stable orbit count")

    if pattern == "ramified":
        model = ramified_model(p)
        cand = _ram_candidate(model, k)
        if p ** (4 * M) <= _SWEEP_CAP:
            sample = (x for x in _iter_ram_elements(p, M)
                      if _vp(model.nrd(x), p) == k)
        else:
            sample = _ram_panel(model, k, M)
        checked = 0
        for x in sample:
            if not _ram_equiv_mod(model, k, M, x, cand):
                raise ArithmeticError("ramified orbit coverage failed at %r" % (x,))
            checked += 1
        if checked == 0:
            raise ArithmeticError("empty ramified sample")
        return 1

    cands = _matrix_candidates(pattern, p, k)
    for i in range(len(cands)):
        for j in range(i + 1, len(cands)):
            if _equiv_exact(pattern, p, k, cands[i], cands[j]):
                raise ArithmeticError(
                    "candidates %r and %r are equivalent" % (cands[i], cands[j]))
    ring_size = p ** (4 * M) // (p if pattern == "level" else 1)
    if ring_size <= _SWEEP_CAP:
        sample = (x for x in _iter_pattern_matrices(pattern, p, M)
                  if _vp(_det2(x), p) == k)
    else:
        sample = _lcg_panel(pattern, p, k, M)
    checked = 0
    for x in sample:
        hits = sum(1 for c in cands if _equiv_mod(pattern, p, k, M, x, c))
        if hits != 1:
            raise ArithmeticError(
                "element %r matched %d candidates" % (x, hits))
        checked += 1
    if checked == 0:
        raise ArithmeticError("empty sample for %s p=%d k=%d M=%d"
                              % (pattern, p, k, M))
    return len(cands)
