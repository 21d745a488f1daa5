"""The Henon family H(x,y) = (x^2 + c + a y, a x) on the fixed-multiplier curve.

Parameters live on the curve where one fixed-point eigenvalue is
lambda_t = (1+t) e^{2 pi i p/q}; the other eigenvalue is nu = -a^2/lambda_t.
Includes the filtration-based escape classification of the {y = 0} slice of K+/J+.

When c is real and a is real or imaginary, the mirror of ``mirror_sign``
commutes with H.  ``jplus_slice`` steps half the rows of a slice whose window
the mirror maps to itself, and the graph transform half the fibers of such a torus.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PreconditionError
from .poly1d import PolyParams, poly_params

FILTRATION_RADIUS = 3.5  # paper only requires r > 3
CYCLE_TOL = 1e-12        # Newton step that ends the polish of attracting_cycle
CYCLE_NEWTON_STEPS = 50  # most Newton steps of that polish


@dataclass(frozen=True)
class HenonParams:
    p: int
    q: int
    t: float
    a: complex
    lam: complex       # lambda_t, the distinguished eigenvalue
    c: complex         # curve value c_t(a)
    c_t: complex       # polynomial-family value at a = 0
    w: complex         # residual: c = c_t + a^2 w
    x_q: complex       # first coordinate of the fixed point
    nu: complex        # second eigenvalue -a^2/lambda_t

    @property
    def q_fixed(self):
        return (self.x_q, self.a * self.x_q)

    @property
    def poly(self) -> PolyParams:
        """The a = 0 member of the same multiplier family."""
        return poly_params((self.p, self.q), self.t)


def make_params(p_over_q, t: float, a: complex) -> HenonParams:
    pp = poly_params(p_over_q, t)
    if not cmath.isfinite(a):
        raise PreconditionError(f"a must be a finite number, got {a}")
    if not abs(a) < 0.5:
        raise PreconditionError(f"|a| must be below 1/2, got a = {a}")
    a = complex(a)
    lam = pp.lam
    s = lam / 2.0 - a * a / (2.0 * lam)
    c = (1.0 - a * a) * s - s * s
    w = (-1.0 + lam - lam * lam) / (2.0 * lam) + (a * a) / (2.0 * lam) * (1.0 - 1.0 / (2.0 * lam))
    return HenonParams(
        p=pp.p, q=pp.q, t=float(t), a=a,
        lam=complex(lam), c=complex(c), c_t=pp.c, w=complex(w),
        x_q=complex(s), nu=complex(-a * a / lam),
    )


def henon(params: HenonParams, point):
    x, y = point
    return (x * x + params.c + params.a * y, params.a * x)


def mirror_sign(params: HenonParams):
    """e = 1 for real a, -1 for imaginary a, None when a is neither or c is not
    real.  Then conj(a) = e a, so C(x, y) = (conj x, e conj y) commutes with H."""
    a = params.a
    if params.c.imag != 0 or (a.imag != 0 and a.real != 0):
        return None
    return 1 if a.imag == 0 else -1


def henon_inv(params: HenonParams, point):
    if params.a == 0:
        raise PreconditionError("degenerate Jacobian: a=0 is not invertible")
    x, y = point
    u = y / params.a
    return (u, (x - (u * u + params.c)) / params.a)


def dhenon(params: HenonParams, point):
    """Differential [[2x, a], [a, 0]] at the point."""
    x, _ = point
    a = params.a
    return np.array([[2.0 * x, a], [a, 0.0]], dtype=complex)


def fixed_point_eigenvalues(params: HenonParams):
    """Eigenvalues of DH at the distinguished fixed point, largest first."""
    x = params.x_q
    disc = np.sqrt(x * x + params.a**2)
    mu1, mu2 = x + disc, x - disc
    return (mu1, mu2) if abs(mu1) >= abs(mu2) else (mu2, mu1)


def uniform_disk(rng, radius: float, m: int) -> np.ndarray:
    """m points uniform on the disk |z| < radius; the radii are drawn first."""
    return radius * np.sqrt(rng.uniform(0, 1, m)) * np.exp(2j * math.pi * rng.uniform(0, 1, m))


def in_vplus(x, y):
    return np.abs(x) >= np.maximum(np.abs(y), FILTRATION_RADIUS)


# Longest run of steps between two V+ tests; the block doubles up to it
# while no orbit enters V+ and drops back to one step when one does.
BLOCK_CAP = 64
# Orbits per row block of `jplus_slice`.  The arrays a block steps in place
# (X, Y and the product T, 16 bytes an orbit each) take 768 KiB and their
# checkpoint 512 KiB more, inside a 2 MiB L2.  Of blocks of 8k to 64k orbits,
# 16k and 32k stepped the five continuity slices fastest (0.21 s against
# 0.27-0.29 s at 64k), and 16k holds a res-800 slice to 4.1 MiB (8.9 at 64k).
ESCAPE_BLOCK = 16_384


# Radius of the trap of `escape_times` as a fraction of its slack; 0.9
# measured faster than 0.5 on the continuity slices.
TRAP_FRACTION = 0.9


def _trap(a: complex, c: complex):
    """(x*, a x*, rho, |a| rho) for the polydisk trap of ``escape_times``
    around the fixed point (x*, a x*) of H with slack 1 - |2 x*| - |a|^2 > 0,
    or None when no fixed point has a slack that outweighs rounding."""
    b = 1 - a * a
    d = cmath.sqrt(b * b - 4 * c)
    x = min((b + d) / 2, (b - d) / 2, key=abs)  # only the smaller root can qualify
    slack = 1 - 2 * abs(x) - abs(a) ** 2
    rho = TRAP_FRACTION * slack
    if not (rho > 0 and rho * (slack - rho) >= 1e-12):  # also refuses a nan slack
        return None
    return x, a * x, rho, abs(a) * rho


def _entry_times(params: HenonParams, X, Y, n: int, max_iter: int, cap: int, trap):
    """First steps in [n, max_iter] at which the orbits (X, Y), flat arrays at
    step n, lie in V+; -1 where none does.  X and Y are not written to.

    The orbits outside V+ are copied and stepped in place, and V+ is tested
    at the end of each block of steps.  An orbit that is in V+ there, or is
    not finite (an overflow), is replayed from the block's start one step at
    a time: this same loop with cap 1 and no trap.  At the end of a block of
    more than one step the orbits in the trap (x*, y*, rho_x, rho_y) of
    ``_trap``, when there is one, are dropped with time -1.
    """
    times = np.full(X.size, -1, dtype=int)
    hit = in_vplus(X, Y)
    times[hit] = n
    idx = np.flatnonzero(~hit)       # position in X of each active orbit
    X = X[idx]
    Y = Y[idx]
    T = np.empty_like(X)
    CX = CY = None                   # checkpoint, sized at the first long block
    block = 1
    while idx.size and n < max_iter:
        m, steps = idx.size, min(block, max_iter - n)
        if steps > 1:
            if CX is None:
                CX, CY = np.empty_like(X), np.empty_like(Y)
            CX[:m], CY[:m] = X, Y
        for _ in range(steps):      # x*x + c + a*y and a*x, in place
            np.multiply(params.a, Y, out=T[:m])
            np.multiply(params.a, X, out=Y)
            np.multiply(X, X, out=X)
            np.add(X, params.c, out=X)
            np.add(X, T[:m], out=X)
        n += steps
        hit = done = in_vplus(X, Y)
        if steps > 1:
            redo = np.flatnonzero(hit | ~(np.isfinite(X) & np.isfinite(Y)))
            entry = _entry_times(params, CX[redo], CY[redo], n - steps, n, 1, None)
            hit[redo] = entry >= 0   # every hit is in redo
            times[idx[redo]] = entry
            if trap is not None:
                xs, ys, rx, ry = trap
                done = hit | ((np.abs(X - xs) <= rx) & (np.abs(Y - ys) <= ry))
        else:
            times[idx[hit]] = n
        block = 1 if hit.any() else min(2 * block, cap)
        if done.any():
            keep = ~done
            X = X[keep]
            Y = Y[keep]
            idx = idx[keep]
    return times


def escape_times(params: HenonParams, X, Y, max_iter: int):
    """Vectorized first-entry times into V+; -1 marks still-bounded orbits.

    Y is broadcast to the shape of X.  Only the orbits still outside V+ are
    stored and iterated, in place.  V+ = {|x| >= max(|y|, r)}, r = FILTRATION_RADIUS,
    is forward invariant on the family: for |x| >= r > 3, |a| < 1/2 and the
    |c| <= 9/4 of the curve, |x'| >= |x|^2 - |a||x| - |c| >= |x| + 1 > |a||x| = |y'|.
    An orbit outside V+ after a block of steps was therefore outside it
    during the block, so V+ is tested once per block (`_entry_times`), and
    the times are those of a test at every step, bit for bit.

    Orbits that reach a trap are dropped with the time -1.  If a root x* of
    x^2 + (a^2 - 1) x + c = 0 has slack s = 1 - |2 x*| - |a|^2 > 0 (at most
    one does: the roots sum to 1 - a^2), then in v = (x - x*, y - a x*) the
    map is v' = (2 x* v_x + v_x^2 + a v_y, a v_x), and on the polydisk
    P = {|v_x| <= rho, |v_y| <= |a| rho} |v_x'| <= rho - rho (s - rho) and
    |v_y'| <= |a| rho: H(P) lies in P for rho = TRAP_FRACTION s.  P misses
    V+, as |x| < 1 - |x*| <= 1 < r.  A float step or test errs by under 1e-14
    in a coordinate (operands below 3 in modulus, x* solved to a few ulps),
    so P grown by 1e-14 is invariant under float steps while rho (s - rho)
    exceeds 3e-14; the trap is built only when it is at least 1e-12
    (``_trap``), and the times are those without it, bit for bit.  x* comes
    from (a, c), not ``x_q``: the trap is the attracting fixed point at
    t != 0 for q = 1 and t < 0 for q >= 2, and exists off the family too.
    """
    if max_iter < 0:
        raise PreconditionError(f"max_iter must be >= 0, got {max_iter}")
    X = np.asarray(X, dtype=complex)
    shape = X.shape
    Y = np.broadcast_to(np.asarray(Y, dtype=complex), shape)
    # |x'| >= |x| + 1 and |y'| <= |x'| on V+ need |a| <= 1 and
    # r^2 - (1 + |a|) r - |c| >= 1; parameters built off the family may fail it
    a, c, r = abs(params.a), abs(params.c), FILTRATION_RADIUS
    cap = BLOCK_CAP if a <= 1 and r * r - (1 + a) * r - c >= 1 else 1
    trap = _trap(params.a, params.c)
    with np.errstate(over="ignore", invalid="ignore"):
        times = _entry_times(params, X.reshape(-1), Y.reshape(-1), 0, max_iter, cap, trap)
    return times.reshape(shape)


@dataclass(frozen=True)
class EscapeGrid:
    times: np.ndarray     # (res, res) escape iterates, -1 bounded; rows Im x, columns Re x
    boundary: np.ndarray  # (n,) complex J+ sample, the x of each boundary cell


def symmetric_axis(lo, hi, res):
    """np.linspace(lo, hi, res) up to rounding, built so that a window
    symmetric about 0 gives points symmetric about 0 bit for bit."""
    u = np.linspace(-1.0, 1.0, res)
    if res > 1:
        u = (u - u[::-1]) / 2
    return (lo + hi) / 2 + (hi - lo) / 2 * u


def jplus_slice(params: HenonParams, window, resolution: int, max_iter: int) -> EscapeGrid:
    """Escape-time grid on {y = 0}; bounded cells touching escaped cells
    are the J+ sample ``boundary``.  The grid is built and stepped, and its
    boundary found, one block of ESCAPE_BLOCK // resolution rows at a time.

    The axes come from ``symmetric_axis``.  The mirror C(x, y) = (conj x,
    e conj y) of ``mirror_sign``, when there is one, maps {y = 0} to itself;
    when the window is symmetric in Im x, only the rows res//2 .. are
    stepped and the others are their mirror images.  The mirror is exact:
    negation commutes with round-to-nearest, so complex products (with or
    without FMA), sums and moduli of mirrored operands are mirrored bit for
    bit, up to the sign of a zero, and so is the sum with a real c.  Orbits
    from mirrored starts then meet the same V+ tests and overflows, and the
    block and overflow replays of ``escape_times`` give the same times."""
    if resolution < 2 or resolution > 8192:
        raise PreconditionError(f"resolution must be in 2 .. 8192, got {resolution}")
    re_min, re_max, im_min, im_max = window
    xs = symmetric_axis(re_min, re_max, resolution)
    ys = symmetric_axis(im_min, im_max, resolution)
    mirrored = mirror_sign(params) is not None and im_min == -im_max
    half = resolution // 2 if mirrored else 0  # the rows copied from their mirror images
    rows = max(1, ESCAPE_BLOCK // resolution)
    times = np.empty((resolution, resolution), dtype=np.int32)  # -1 or a step <= max_iter
    for i in range(half, resolution, rows):
        X = xs[None, :] + 1j * ys[i:i + rows, None]
        times[i:i + rows] = escape_times(params, X, 0.0, max_iter)
    times[:half] = times[resolution - 1:resolution - 1 - half:-1]
    pts = []
    for i in range(0, resolution, rows):
        iy, ix = _boundary_cells(times, i, i + rows)
        pts.append(xs[ix] + 1j * ys[iy])
    return EscapeGrid(times=times, boundary=np.concatenate(pts))


def _boundary_cells(times, lo, hi):
    """Row-major (row, column) indices of the bounded cells of rows lo .. hi-1
    of ``times`` with an escaped 4-neighbour; rows lo-1 and hi are its halo."""
    esc = np.pad(times[max(lo - 1, 0):hi + 1] >= 0, ((lo == 0, hi >= len(times)), (1, 1)))
    near = esc[:-2, 1:-1] | esc[2:, 1:-1] | esc[1:-1, :-2] | esc[1:-1, 2:]
    iy, ix = np.nonzero(near & (times[lo:hi] < 0))
    return iy + lo, ix


def attracting_cycle(params: HenonParams):
    """Newton-polished attracting q-cycle for t > 0, as an array of q points.

    Seeded from the attracting cycle of the a=0 polynomial (critical orbit),
    which is O(a) away from the Henon cycle.
    """
    if params.t <= 0:
        raise PreconditionError("attracting q-cycle exists for t > 0 only")
    q = params.q
    # polynomial cycle via critical orbit, then lift
    z = 0.0 + 0.0j
    for _ in range(2000):
        z = z * z + params.c_t
    seed = np.array([z, params.a * (np.sqrt(z - params.c_t + 0j))], dtype=complex)
    pt = (complex(seed[0]), complex(seed[1]))
    for _ in range(500):
        pt = henon(params, pt)
    vec = np.array(pt, dtype=complex)
    for _ in range(CYCLE_NEWTON_STEPS):
        cur = (vec[0], vec[1])
        jac = np.eye(2, dtype=complex)
        for _ in range(q):
            jac = dhenon(params, cur) @ jac
            cur = henon(params, cur)
        g = np.array([cur[0] - vec[0], cur[1] - vec[1]], dtype=complex)
        step = np.linalg.solve(jac - np.eye(2), -g)
        vec = vec + step
        if np.max(np.abs(step)) < CYCLE_TOL:
            break
    else:
        raise NumericalError("Newton failed to locate the attracting cycle")
    cycle = np.empty((q, 2), dtype=complex)
    cur = (vec[0], vec[1])
    for i in range(q):
        cycle[i] = cur
        cur = henon(params, cur)
    if abs(cur[0] - cycle[0, 0]) + abs(cur[1] - cycle[0, 1]) > math.sqrt(CYCLE_TOL):
        raise NumericalError("located orbit is not q-periodic")
    return cycle
