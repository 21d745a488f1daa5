"""Perturbed two-dimensional normal form at the distinguished fixed point.

Conjugates the Henon map, as a jet centered at the fixed point, to
lambda_t (x + x^{q+1} + C x^{2q+1} + tail) in the first coordinate and
nu y + x h(x,y) in the second: strong-stable straightening, linearization
along the straightened manifold, then the three coefficient reductions.
The change of coordinates maps {y = const} to {y = const} exactly; the
price is h(0,0) = O(a) rather than 0, which is what every estimate
downstream actually consumes.

``reduce`` conjugates H once per group of moves whose coefficients it can
find before conjugating.  It accumulates ``change`` and ``change_inv`` side
by side from each group and its inverse, known in closed form up to the
one-variable ``invert1`` of K2, so the generic ``invert2`` is never needed.
The groups:

- straightening and linearization move together, (x - w(y), psi(y)),
  undone by (x + K1(y), K2(y)).  Both come from the parametrization
  K = (K1, K2) of W^ss with H(K(s)) = K(nu s): psi = K2^{-1} and
  w = K1 o psi, so the second component on {x = 0} becomes nu y at every a;
- step 1, (u(y) x, y), undone by (x / u(y), y) through a reciprocal series;
- each shear of step 2, (x + v(y) x^k, y) with its inverse from
  ``poly1d.shear_pair``.  These stay one per k: v_k reads a_k(y) after the
  earlier shears, which reach it through the x h term of the second
  component;
- all of step 3.  Its moves touch x alone, so on {y = 0} they conjugate the
  column H1(x, 0), where ``poly1d.eliminate_constants`` finds them and their
  inverses in one variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .henon import HenonParams, attracting_cycle, henon, uniform_disk
from .poly1d import (LOCAL_DISK_RADIUS, PETAL_CHART_RADIUS, SECTOR_RADIUS,
                     eliminate_constants, repelling_inner_radius, shear_pair)
from .series import (
    TruncSeries1,
    TruncSeries2,
    compose1,
    compose2,
    invert1,
    reciprocal1,
    series1_to_2,
)


def henon_jet(params: HenonParams, D: int):
    """The map written at the fixed point: (2 x_q x + a y + x^2, a x)."""
    H1 = TruncSeries2.from_terms(
        {(1, 0): 2.0 * params.x_q, (0, 1): params.a, (2, 0): 1.0}, D
    )
    H2 = TruncSeries2.from_terms({(1, 0): params.a}, D)
    return H1, H2


def wss_parametrization(params: HenonParams, D: int):
    """Jets (K1, K2) of W^ss parametrized by K(s) = (K1(s), K2(s)), centered
    coords, with H(K(s)) = K(nu s) and K2'(0) = 1.

    H2 = a x gives K1(s) = K2(nu s)/a; H1 then fixes, at each order k >= 2,
    k2_k = nu^k sum_{0<i<k} k2_i k2_{k-i} / (a (nu^k - lambda)(nu^k - nu)),
    written with the slope r = nu/a, which a = 0 makes 0: then K1 = 0 and
    K2 = s.  No divisor vanishes, as |nu^k| < 1/4 < |lambda| and |nu| < 1/2.
    """
    lam, nu = params.lam, params.nu
    if abs(nu) >= 1:
        raise PreconditionError("strong stable graph requires |nu| < 1")
    r = nu / params.a if params.a != 0 else 0.0
    k2 = np.zeros(D + 1, dtype=complex)
    k2[1] = 1.0
    for k in range(2, D + 1):
        square = np.dot(k2[1:k], k2[k - 1 : 0 : -1])
        k2[k] = r * nu ** (k - 2) * square / ((nu**k - lam) * (nu ** (k - 1) - 1.0))
    k1 = np.append(0.0, r * nu ** np.arange(D) * k2[1:])
    return TruncSeries1(k1, D=D), TruncSeries1(k2, D=D)


def wss_graph(params: HenonParams, D: int) -> TruncSeries1:
    """Jet of W^ss as a graph x = w(y) = K1(K2^{-1}(y)), centered coords; the
    tangent is the nu-eigenvector slope -a/lambda, and a = 0 gives w = 0."""
    K1, K2 = wss_parametrization(params, D)
    return compose1(K1, invert1(K2))


@dataclass(frozen=True)
class NormalForm2D:
    params: HenonParams
    D: int
    change: tuple          # phi as a jet pair at the fixed point
    change_inv: tuple
    normal: tuple          # the conjugated map pair
    C_at: complex
    rescale: complex       # the constant A with A^q = (q+1)-coefficient

    def to_normalized(self, X, Y):
        cx = np.asarray(X, dtype=complex) - self.params.x_q
        cy = np.asarray(Y, dtype=complex) - self.params.a * self.params.x_q
        return self.change[0](cx, cy), self.change[1](cx, cy)

    def from_normalized(self, xn, yn):
        return (
            self.params.x_q + self.change_inv[0](xn, yn),
            self.params.a * self.params.x_q + self.change_inv[1](xn, yn),
        )


def reduce(params: HenonParams, D: int | None = None) -> NormalForm2D:
    """Normal form of the map at the fixed point, through total degree D."""
    q = params.q
    if D is None:
        D = 2 * q + 4
    if D < 2 * q + 2:
        raise PreconditionError("truncation order must be at least 2q+2")
    lam, nu = params.lam, params.nu
    if abs(nu) * abs(lam) ** (2 * q) >= 1:
        raise PreconditionError("eigenvalue condition |nu| |lambda|^{2q} < 1 violated")

    H = henon_jet(params, D)
    var_x, var_y = TruncSeries2.var_x(D), TruncSeries2.var_y(D)
    change = change_inv = (var_x, var_y)

    def apply(T, T_inv):
        nonlocal H, change, change_inv
        H = compose2(compose2(T, H), T_inv)
        change = compose2(T, change)
        change_inv = compose2(change_inv, T_inv)

    # straighten W^ss to {x = 0} and linearize along it: one move, read off K
    K1, K2 = wss_parametrization(params, D)
    psi = invert1(K2)
    w = compose1(K1, psi)
    apply((var_x - series1_to_2(w, "y"), series1_to_2(psi, "y")),
          (var_x + series1_to_2(K1, "y"), series1_to_2(K2, "y")))

    # step 1: x-linear coefficient a1(y) -> constant lambda by (u(y) x, y),
    # u(y) = b1(y) u(nu y) with b1 = a1/lambda; no divisor here or in step 2
    # vanishes, as |nu| < 1/2 (|a|, |t| < 1/2) and |nu| |lambda|^{2q} < 1
    b1 = H[0].coeffs[1, :] / lam
    u = np.ones(D + 1, dtype=complex)  # u(0) = 1; u[m] is set in order below
    for m in range(1, D + 1):
        terms = b1[1 : m + 1] * nu ** np.arange(m - 1, -1, -1) * u[m - 1 :: -1]
        u[m] = terms.sum() / (1.0 - nu**m)
    u = TruncSeries1(u, D=D)
    apply((series1_to_2(u, "y") * var_x, var_y),
          (series1_to_2(reciprocal1(u), "y") * var_x, var_y))

    # step 2: a_k(y) -> constants for 2 <= k <= 2q+1 by (x + v(y) x^k, y),
    # v(y) - lambda^{k-1} v(nu y) = (a_k(y) - a_k(0)) / lambda
    for k in range(2, 2 * q + 2):
        a_k = H[0].coeffs[k, :]
        m = np.arange(1, D + 1)
        v = np.append(0.0, a_k[1:] / (lam * (1.0 - nu**m * lam ** (k - 1))))
        T, T_inv = (TruncSeries2(c) for c in shear_pair(TruncSeries1(v, D=D), k))
        apply((T, var_y), (T_inv, var_y))

    # step 3: eliminate non-resonant constants and normalize the (q+1)-slot
    # on the column H1(x, 0), then conjugate by all of its moves at once
    tau, tau_inv, _, A = eliminate_constants(TruncSeries1(H[0].coeffs[:, 0]), lam, q)
    apply((series1_to_2(tau), var_y), (series1_to_2(tau_inv), var_y))

    C_at = H[0].coeff(2 * q + 1, 0) / lam
    return NormalForm2D(
        params=params, D=D, change=change, change_inv=change_inv,
        normal=H, C_at=complex(C_at), rescale=complex(A),
    )


def conjugacy_residual(params: HenonParams, nf: NormalForm2D) -> float:
    """Max coefficient of change o H - normal o change over both components."""
    H = henon_jet(params, nf.D)
    lhs = compose2(nf.change, H)
    rhs = compose2(nf.normal, nf.change)
    return max((lhs[i] - rhs[i]).max_abs() for i in (0, 1))


# --- petal geometry -------------------------------------------------------

def petal_scale(q: int, t: float) -> float:
    """The region parameter R.

    Petals must stay inside the normal-form chart, |x| <= PETAL_CHART_RADIUS,
    which wants R large; the t > 0 rotation bound (1+t)^q < (R+q)/(R+q/2)
    wants R small.
    For q >= 2 these collide unless t is tiny, and we refuse rather than
    evaluate jets out of range.
    """
    R = 2.0 / SECTOR_RADIUS**q
    g = (1.0 + t) ** q
    if g > 1:  # at g <= 1 (t <= 0, or (1+t)^q rounding to 1) the bound holds for every R
        R = min(R, 0.85 * q * (1.0 - g / 2.0) / (g - 1.0))
    if R < math.sqrt(2.0) / PETAL_CHART_RADIUS**q:
        raise PreconditionError(
            f"t={t} too large for a chart-sized petal region at q={q}"
        )
    return R


def in_petal(x, q: int, R: float, slack: float = 0.0):
    w = np.asarray(x, dtype=complex) ** q
    lhs = (w.real + 0.5 / R) ** 2 + (np.abs(w.imag) - 0.5 / R) ** 2
    return lhs < 0.5 / R**2 + slack


def petal_label(x, q: int):
    ang = np.mod(np.angle(np.asarray(x, dtype=complex)), 2.0 * math.pi)
    return np.mod(np.rint((q * ang - math.pi) / (2.0 * math.pi)).astype(int), q)


def sample_petal(rng, n: int, q: int, R: float):
    """n points of the petal union, with their component labels."""
    xs = np.empty(n, dtype=complex)
    js = rng.integers(0, q, size=n)
    got = 0
    while got < n:
        m = 2 * (n - got) + 16
        sign = rng.integers(0, 2, size=m) * 2 - 1
        centers = (-1.0 + 1j * sign) / (2.0 * R)
        radii = np.sqrt(rng.uniform(0, 1, size=m)) / (math.sqrt(2.0) * R)
        w = centers + radii * np.exp(2j * math.pi * rng.uniform(0, 1, size=m))
        w = w[in_petal(w, 1, R) & (np.abs(w) > 1e-3 / R)][: n - got]  # clear of the fixed point
        ang = np.mod(np.angle(w), 2.0 * math.pi)
        xs[got : got + len(w)] = np.abs(w) ** (1.0 / q) * np.exp(
            1j * (ang + 2.0 * math.pi * js[got : got + len(w)]) / q
        )
        got += len(w)
    return xs, js


@dataclass(frozen=True)
class TrappingReport:
    region: str
    rotation_failures: int    # sampled points whose image leaves the next petal
    attraction_failures: int  # orbits that end tol or more from the cycle
    max_final_distance: float
    rows: list = field(repr=False)

    @property
    def passed(self) -> bool:
        return not self.rotation_failures and not self.attraction_failures


def petal_check(params: HenonParams, nf: NormalForm2D, samples: int,
                steps: int, tol: float, seed: int) -> TrappingReport:
    """Sampled verification of petal rotation and trapping.

    Each sampled point of the petals (normalized coordinates) is mapped back to
    ambient coordinates and pushed one step to check the j -> j+p rotation;
    for t != 0 the forward orbit is then run out for `steps` applications of
    the map and compared with the Newton-located q-cycle (t > 0) or the fixed
    point (t < 0).  steps=0 checks rotation only.
    """
    if samples < 10:
        raise PreconditionError("sample count too small to mean anything")
    if steps < 0:
        raise PreconditionError(f"trapping steps (--iters) must be >= 0, got {steps}")
    if not (math.isfinite(tol) and tol > 0):
        raise PreconditionError(f"trapping tolerance (--tol) must be positive and finite, got {tol}")
    rng = np.random.default_rng(seed)
    q, t = params.q, params.t
    R = petal_scale(q, t)
    xs, js = sample_petal(rng, samples, q, R)
    zs = uniform_disk(rng, LOCAL_DISK_RADIUS, samples)

    Px, Py = nf.from_normalized(xs, zs)
    Qx, Qy = henon(params, (Px, Py))
    nx, nz = nf.to_normalized(Qx, Qy)
    good = in_petal(nx, q, R, slack=1e-9) | (np.abs(nx) ** q < 1e-9)
    good &= petal_label(nx, q) == (js + params.p) % q
    good &= np.abs(nz) < LOCAL_DISK_RADIUS * 1.5
    attraction_failures, max_final = 0, 0.0
    rows = []
    if t != 0 and steps > 0:
        if t > 0:
            cycle = attracting_cycle(params)
            Ax, Ay = Px.copy(), Py.copy()
        else:
            ax = uniform_disk(rng, repelling_inner_radius(params) ** (1.0 / q), samples)
            Ax, Ay = nf.from_normalized(ax, zs)
            cycle = np.array([[params.q_fixed[0], params.q_fixed[1]]], dtype=complex)
        start = np.column_stack([Ax, Ay])
        with np.errstate(over="ignore", invalid="ignore"):  # escaping orbits end at inf or nan
            for _ in range(steps):
                Ax, Ay = henon(params, (Ax, Ay))
            dists = np.min(
                np.maximum(
                    np.abs(Ax[:, None] - cycle[None, :, 0]),
                    np.abs(Ay[:, None] - cycle[None, :, 1]),
                ),
                axis=1,
            )
        dists[~np.isfinite(dists)] = np.inf  # nan >= tol is False: an escaped orbit fails as inf
        max_final = float(np.max(dists))
        attraction_failures = int(np.sum(dists >= tol))
        rows = [
            (complex(sx), complex(sy), complex(ex), complex(ey), float(d), "pass" if d < tol else "fail")
            for sx, sy, ex, ey, d in zip(start[:, 0], start[:, 1], Ax, Ay, dists)
        ]
    return TrappingReport(
        region=f"petals R={R:.3f} r_loc={LOCAL_DISK_RADIUS} (q={q}, t={t}, a={params.a})",
        rotation_failures=int(np.sum(~good)),
        attraction_failures=attraction_failures,
        max_final_distance=max_final, rows=rows,
    )
