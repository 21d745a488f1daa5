"""The quadratic family p_t(x) = x^2 + c_t with multiplier (1+t)lambda at the fixed point.

Covers the Green function and its equipotentials, the branch-continued
pullback operator whose iterates converge to the Caratheodory loop, the
one-dimensional normal form at the fixed point, and the attracting/repelling
sector classification in normalized coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NumericalError, PreconditionError
from .series import TruncSeries1, compose1, invert1

# Sector geometry constants: the repelling sector maps to an opening of
# 5*pi/9 under x -> x^q.  The local picture is W^- = the repelling sectors of
# radius SECTOR_RADIUS in the normal-form chart times the vertical disk
# D_{LOCAL_DISK_RADIUS}; petals must stay inside |x| <= PETAL_CHART_RADIUS.
EPS0 = math.tan(2 * math.pi / 9)
EPS1 = EPS0 / math.sqrt(1 + EPS0**2)
SECTOR_RADIUS = 0.15
LOCAL_DISK_RADIUS = 0.1
PETAL_CHART_RADIUS = 0.18

BASE_RADIUS = 4.0      # equipotential level exp(G) = R used for seeding loops
ESCAPE_RADIUS = 10.0   # |z| beyond this certifies escape for every family member
_FAR = 1e100           # continue iterating to here so Green values saturate
GREEN_STEPS = 80       # most steps of `green`


def _normalize_pq(p_over_q) -> Fraction:
    """The rotation number as a Fraction, from a Fraction, a (p, q) pair or "p/q"."""
    parts = p_over_q
    try:
        if isinstance(parts, str) and "/" in parts:
            parts = tuple(int(v) for v in parts.split("/"))
        return Fraction(*parts) if isinstance(parts, tuple) else Fraction(parts)
    except (ValueError, TypeError, ZeroDivisionError):
        raise PreconditionError(
            f"rotation number must be p/q with integers p and q != 0, got {p_over_q!r}"
        ) from None


@dataclass(frozen=True)
class PolyParams:
    """One member of the family, with the derived quantities cached."""

    p: int
    q: int
    t: float
    lam: complex     # (1+t) e^{2 pi i p/q}
    c: complex       # lam/2 - lam^2/4
    alpha: complex   # fixed point lam/2

    def map(self, z):
        return z * z + self.c

    def dmap(self, z):
        return 2.0 * z


def poly_params(p_over_q, t: float) -> PolyParams:
    if not math.isfinite(t):
        raise PreconditionError(f"t must be a finite number, got {t}")
    frac = _normalize_pq(p_over_q)
    p, q = frac.numerator % frac.denominator, frac.denominator
    if abs(t) >= 1.0 / (2 * q):
        raise PreconditionError(f"|t| must be below 1/(2q) = {1.0/(2*q)}")
    # quarter turns exactly, so that lam is real at q = 1, 2 and the family
    # is symmetric under complex conjugation bit for bit
    root = 1j ** (4 * p // q) if 4 * p % q == 0 else np.exp(2j * math.pi * p / q)
    lam = (1.0 + t) * root
    c = lam / 2.0 - lam * lam / 4.0
    return PolyParams(p=p, q=q, t=float(t), lam=complex(lam), c=complex(c), alpha=complex(lam / 2.0))


def check_angles(n: int, least: int):
    """Refuses an angle count that is not a power of two >= least."""
    if n < least or n & (n - 1):
        raise PreconditionError(f"n_angles must be a power of two >= {least}, got {n}")


@dataclass(frozen=True)
class LoopSample:
    """A closed curve sampled at s = k/N, cyclic indexing, N a power of two.
    Takes ``values`` uncopied (np.asarray to complex) and makes it read-only: a writer passes a copy."""

    values: np.ndarray
    level: float

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        check_angles(len(v), 2)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def N(self):
        return len(self.values)


def green(params: PolyParams, z):
    """Green function estimate 2^{-n} log|p^n(z)|; 0 on the non-escaping set.

    Iteration continues past the escape radius until |z| is astronomically
    large, so the returned value is stable in GREEN_STEPS once the orbit escapes.
    Only the orbits still below that size are stored and stepped.
    """
    z0 = np.asarray(z, dtype=complex)
    w = z0.ravel()
    out = np.zeros(w.shape, dtype=float)
    idx = np.arange(w.size)          # position in z0 of each active orbit
    for n in range(1, GREEN_STEPS + 1):
        w = w ** 2 + params.c
        far = np.abs(w) > _FAR
        if np.any(far):
            out[idx[far]] = np.log(np.abs(w[far])) / 2.0**n
            keep = ~far
            w = w[keep]
            idx = idx[keep]
        if not idx.size:
            break
    tail = np.abs(w) > ESCAPE_RADIUS
    out[idx[tail]] = np.log(np.abs(w[tail])) / 2.0**GREEN_STEPS
    return float(out[0]) if z0.ndim == 0 else out.reshape(z0.shape)


def pullback_loop(params: PolyParams, loop: LoopSample) -> LoopSample:
    """One inverse step: output w with p_t(w[k]) = loop.values[2k mod N].

    The branch at s=0 is the preimage of larger real part; the rest of the
    loop is continued by proximity to the previous sample.  The output keeps
    N samples and sits at half the Green level.
    """
    if loop.level <= 0:
        raise PreconditionError("pullback requires a positive Green level")
    n = loop.N
    if n < 2 * params.q:
        raise PreconditionError(f"need at least 2q samples per loop, got {n} angles at q = {params.q}")
    targets = loop.values[(2 * np.arange(n)) % n]
    roots = np.sqrt(targets - params.c)
    out = continue_branch(roots)
    prev = out[-1]
    # closing the loop must land back on the seed branch
    if abs(roots[0] - prev) > abs(roots[0] + prev) and abs(out[0] - (-roots[0])) > 1e-12:
        raise NumericalError("resolution too coarse: loop failed to close")
    return LoopSample(values=out, level=loop.level / 2.0)


def _cabs(z):
    """|z| elementwise through hypot, as abs() of one complex scalar computes
    it; the vectorized np.abs differs from that in the last bit."""
    return np.hypot(z.real, z.imag)


def continue_branch(roots: np.ndarray, unit: str = "sample") -> np.ndarray:
    """Choose the sign of each square root so that the samples follow one branch.

    out[0] is the root of larger real part (then imaginary part); out[k] is
    whichever of +-roots[k] lies nearer out[k-1], + on an exact tie.  Relative
    to roots the sign is a cumulative product: it stays when
    |roots[k] - roots[k-1]| < |roots[k] + roots[k-1]|, flips when that is
    larger, and restarts at + on a tie.  A sample farther than 2|roots[k]|
    from both candidates is ambiguous.
    """
    near = _cabs(roots[1:] - roots[:-1])
    far = _cabs(roots[1:] + roots[:-1])
    ambiguous = np.minimum(near, far) > 2.0 * _cabs(roots[1:])
    if ambiguous.any():
        k = int(np.argmax(ambiguous)) + 1
        raise NumericalError(f"resolution too coarse: ambiguous branch at {unit} {k}")
    # the sign at k is - when an odd number of flips follows the last restart
    restart = np.concatenate(([True], near == far))
    last = np.maximum.accumulate(np.where(restart, np.arange(len(roots)), 0))
    flips = np.concatenate(([0], np.cumsum(near > far)))
    neg = (flips - flips[last]) % 2 == 1
    r0 = roots[0]
    if (-r0.real, -r0.imag) > (r0.real, r0.imag):
        neg[last == 0] ^= True  # the seed sample takes -roots[0]
    return np.where(neg, -roots, roots)


def equipotential_loop(params: PolyParams, N: int, level: float | None = None) -> LoopSample:
    """Sample the equipotential at the given Green level (default log(R)/2).

    Seeds a circle far out, where the inverse Boettcher chart is the identity
    to machine precision, and pulls back until the requested level is reached.
    """
    if level is None:
        level = math.log(BASE_RADIUS) / 2.0
    if level <= 0:
        raise PreconditionError("equipotential level must be positive")
    m = max(0, math.ceil(math.log2(math.log(1e40) / level)))
    start = level * 2.0**m
    s = np.arange(N) / N
    loop = LoopSample(values=np.exp(start) * np.exp(2j * math.pi * s), level=start)
    for _ in range(m):
        loop = pullback_loop(params, loop)
    return loop


@dataclass(frozen=True)
class CaratheodoryResult:
    loop: LoopSample
    gaps: np.ndarray  # sup_k |gamma_n - gamma_{n-1}| per pullback

    @property
    def final_gap(self):
        return float(self.gaps[-1])


def caratheodory(params: PolyParams, N: int, n_iters: int) -> CaratheodoryResult:
    """n_iters pullbacks of the level-log(sqrt R) equipotential, with certificate."""
    check_angles(N, 1024)
    if n_iters < 1:
        raise PreconditionError("n_iters must be >= 1")
    if math.ldexp(math.log(BASE_RADIUS) / 2.0, -n_iters) == 0:  # each pullback halves the level
        raise PreconditionError(f"n_iters = {n_iters} pullbacks halve the Green level log(R)/2 "
                                "past the least positive float, to 0")
    loop = equipotential_loop(params, N)
    gaps = np.empty(n_iters, dtype=float)
    for i in range(n_iters):
        nxt = pullback_loop(params, loop)
        gaps[i] = float(np.max(np.abs(nxt.values - loop.values)))
        loop = nxt
    return CaratheodoryResult(loop=loop, gaps=gaps)


def recentered_map(params: PolyParams, D: int) -> TruncSeries1:
    """p_t written at the fixed point: u -> lam u + u^2."""
    out = np.zeros(D + 1, dtype=complex)
    out[1] = params.lam
    out[2] = 1.0
    return TruncSeries1(out, D=D)


def normal_form_1d(params: PolyParams, D: int | None = None):
    """Reduce p_t at alpha_t to lam (x + x^{q+1} + C_t x^{2q+1} + tail).

    Returns (change, normal, C_t): `change` conjugates the recentered map to
    `normal`, i.e. change o p_recentered o change^{-1} = normal through D.
    """
    q = params.q
    if D is None:
        D = 2 * q + 4
    if D < 2 * q + 2:
        raise PreconditionError("truncation order must be at least 2q+2")
    change, _, normal, _ = eliminate_constants(recentered_map(params, D), params.lam, q)
    return change, normal, complex(normal.coeffs[2 * q + 1] / params.lam)


def eliminate_constants(f: TruncSeries1, lam, q: int):
    """The constant-coefficient step of the 1-D and 2-D normal forms, on a
    jet f = lam x + ...

    For k = 2..2q+1, a_k is read after the earlier moves: slot q+1 is made
    lam by the rescaling A x, A = (a_k/lam)^(1/q); the other k = 1 mod q are
    resonant and stay (2q+1 carries lam C); any other a_k is removed by the
    shear x + b x^k, b = a_k/(lam - lam^k), refused when |lam - lam^k| < 1e-8.
    Returns (change, change_inv, normal, A), with
    change o f o change_inv = normal through D."""
    D = f.D
    change = change_inv = TruncSeries1.identity(D)
    A = 1.0 + 0.0j
    for k in range(2, 2 * q + 2):
        a_k = f.coeffs[k]
        if k == q + 1:
            A = (a_k / lam) ** (1.0 / q)
            T, T_inv = TruncSeries1([0.0, A], D=D), TruncSeries1([0.0, 1.0 / A], D=D)
        elif k % q != 1 % q:
            denom = lam - lam**k
            if abs(denom) < 1e-8:
                raise NumericalError(f"resonance too close: |lam - lam^{k}| = {abs(denom):.2e}")
            pair = shear_pair(TruncSeries1.constant(a_k / denom, D), k)
            T, T_inv = (TruncSeries1(c[:, 0]) for c in pair)
        else:
            continue
        f = compose1(compose1(T, f), T_inv)
        change = compose1(T, change)
        change_inv = compose1(change_inv, T_inv)
    return change, change_inv, f, A


def shear_pair(v: TruncSeries1, k: int):
    """Coefficient arrays [i, j] of x^i y^j (i + j <= D) of T = x + v(y) x^k,
    2 <= k <= D, and of T^{-1} = x B_k(-v(y) x^{k-1}), where B_k, the root of
    B = 1 + z B^k, has the coefficients C(kn, n) / ((k-1)n + 1) (Graham, Knuth
    & Patashnik, Concrete Mathematics, 5.4).  A constant v gives the
    one-variable pair in column 0."""
    D = v.D
    T, T_inv = np.zeros((2, D + 1, D + 1), dtype=complex)
    T[1, 0] = 1.0
    T[k, : D + 1 - k] = v.coeffs[: D + 1 - k]
    w = TruncSeries1.constant(1.0, D)  # (-v)^n: y is a parameter, one-variable products
    for n in range((D - 1) // (k - 1) + 1):
        i = (k - 1) * n + 1
        T_inv[i, : D + 1 - i] = math.comb(k * n, n) // i * w.coeffs[: D + 1 - i]
        w = w * -v
    return T, T_inv


def conjugacy_residual_1d(params: PolyParams, change: TruncSeries1, normal: TruncSeries1) -> float:
    """Max coefficient error of change o p o change^{-1} - normal through D-1."""
    lhs = compose1(compose1(change, recentered_map(params, change.D)), invert1(change))
    return float(np.max(np.abs((lhs - normal).coeffs[: change.D])))


def repelling_inner_radius(params: PolyParams) -> float:
    """For t < 0, |x^q| must exceed R_t = |t|/((q+1/3) eps1) to stay repelling."""
    if params.t >= 0:
        return 0.0
    return abs(params.t) / ((params.q + 1.0 / 3.0) * EPS1)


def in_repelling_sector(params, x, rho: float = SECTOR_RADIUS):
    """Sector membership in normalized coordinates (annular for t < 0)."""
    x = np.asarray(x, dtype=complex)
    w = x**params.q
    ok = (w.real > EPS0 * np.abs(w.imag)) & (np.abs(w) < rho**params.q)
    if params.t < 0:
        ok &= np.abs(w) > repelling_inner_radius(params)
    return ok


def sector_1d(params: PolyParams, x: complex) -> str:
    """Classify a point of normalized coordinates: attracting/repelling/outside."""
    if abs(x) > SECTOR_RADIUS:
        return "outside"
    return "repelling" if in_repelling_sector(params, x) else "attracting"
