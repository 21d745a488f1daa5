"""Sampled cone-field hyperbolicity checks, local (normalized) and global.

Local checks run in the normal-form chart against the Euclidean metric and
the sector bounds.  Global checks run on the neighborhood V of the Julia set
with a distance-to-boundary weighted surrogate for the hyperbolic density;
their ``euclid_certified`` and ``weighted_certified`` counts record which
metric certified each sample, and the language is always "verified at
samples", never "proven".

V is one geometry, fixed by module constants (see ``in_V``).  Its tube
B = {|x - alpha| <= TUBE_RADIUS} misses the critical point, as the family
has |alpha| = |1 + t|/2 > 1/4 > TUBE_RADIUS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PreconditionError
from .henon import FILTRATION_RADIUS, HenonParams, henon, make_params, uniform_disk
from .normalform2d import NormalForm2D, reduce
from .poly1d import (
    BASE_RADIUS,
    EPS0,
    EPS1,
    LOCAL_DISK_RADIUS,
    SECTOR_RADIUS,
    caratheodory,
    equipotential_loop,
    green,
    in_repelling_sector,
    repelling_inner_radius,
)

VERTICAL_SENTINEL = 1e15  # reported when DH is singular (a = 0)
N_DIRECTIONS = 16
# boundary directions of the cones, the N_DIRECTIONS roots of unity
DIRECTION_FRAME = np.exp(1j * (2.0 * math.pi * np.arange(N_DIRECTIONS) / N_DIRECTIONS))
DIRECTION_FRAME.setflags(write=False)
# Samples per row block of the cone checks' direction frames: no
# (samples x N_DIRECTIONS) array spans the sample set, and a block's complex
# frame array is 128 KiB.  The 400-sample scan checks fit in one block.
CONE_BLOCK = 512
NEAREST_PAIRS = 1 << 15  # point-site pairs per block of the nearest-site searches
TUBE_RADIUS = 0.2  # tube B around alpha
COLLAR = 0.05      # basin-side thickness of the J neighborhood
CRIT_STRIP = 0.5   # exclude |2x| below this (tube through the critical point)
TAU = 0.25         # vertical cone aperture
# Caratheodory loop behind the V collar: angles and pullbacks
JULIA_TREE_ANGLES = 2048
JULIA_TREE_ITERS = 48
BOUNDARY_LOOP_ANGLES = 512  # outer-equipotential samples of the boundary of U_t
SCAN_SAMPLES = 400  # sector samples per hyp-scan cell, the CLI's --samples default there
# Most uniform-disk draws that sector_samples may expect to need: about 1 to 3
# minutes at the 5 to 14 million draws per second measured on a 2-core host.
SECTOR_DRAW_BUDGET = 10**9


def eps2(q: int) -> float:
    """Constant in the t<0 expansion estimate."""
    return 1.0 / (16.0 * (q + 1))


def expansion_estimate_margin(q: int, t: float, xq_abs):
    """LHS - RHS of the sector expansion estimate at |x|^q = xq_abs.

    LHS is the horizontal-cone factor |lambda_t| (1 + (q+1/2) eps1 |x|^q);
    RHS is (1 + eps2 |t|)(1 + eps1/16 |x|^q).  Positive margin means the
    estimate holds at the sample.
    """
    xq_abs = np.asarray(xq_abs, dtype=float)
    lam_abs = abs(1.0 + t)
    lhs = lam_abs * (1.0 + (q + 0.5) * EPS1 * xq_abs)
    rhs = (1.0 + eps2(q) * abs(t)) * (1.0 + (EPS1 / 16.0) * xq_abs)
    return lhs - rhs


def sector_samples(params: HenonParams, n: int, seed: int) -> np.ndarray:
    """n normalized-coordinate points of W^- = sector x D_{r_loc}."""
    if n < 1:
        raise PreconditionError(f"sample count must be >= 1, got {n}")
    # a draw is kept with probability p: 5/18 of the angles (|arg x^q| < atan(1/EPS0))
    # times the share of the disk outside |x^q| = inner, none for t < 0 at inner >= outer
    inner, outer = repelling_inner_radius(params), SECTOR_RADIUS**params.q
    p = math.atan(1 / EPS0) / math.pi * (1 - (inner / outer) ** (2 / params.q))
    if n > p * SECTOR_DRAW_BUDGET:
        raise PreconditionError(
            f"repelling sector is empty or too thin to sample: between the inner radius "
            f"|x^q| = {inner:.10g} and the outer radius rho^q = {outer:.10g}, {n} samples "
            f"need about {n / p if p > 0 else math.inf:.3g} draws, above {SECTOR_DRAW_BUDGET:.0e}"
        )
    rng = np.random.default_rng(seed)
    out = np.empty((n, 2), dtype=complex)
    got = 0
    while got < n:
        m = 4 * (n - got) + 32
        x = uniform_disk(rng, SECTOR_RADIUS, m)
        x = x[in_repelling_sector(params, x)][: n - got]
        z = uniform_disk(rng, LOCAL_DISK_RADIUS, len(x))
        out[got : got + len(x), 0] = x
        out[got : got + len(x), 1] = z
        got += len(x)
    return out


@dataclass(frozen=True)
class ConeReport:
    worst_h_expansion: float
    worst_v_expansion: float
    invariance_failures: int       # samples that leave a cone
    worst_h_margin: float          # local: min measured/required over samples; global: worst_h_expansion
    extras: dict

    @property
    def verdict(self) -> str:
        if self.invariance_failures or self.worst_h_expansion <= 1.0 or self.worst_v_expansion <= 1.0:
            return "FAIL"
        return "PASS"


def local_cone_check(params: HenonParams, nf: NormalForm2D, sample_grid) -> ConeReport:
    """Cone invariance and expansion for the normal-form map at the samples.

    Horizontal cones |xi| >= |eta| push forward with measured expansion
    checked against |lambda_t|(1 + (q+1/2) eps1 |x|^q); vertical cones
    |xi| <= |x|^{2q} |eta| pull back with the expansion recorded.  Since the
    differential is complex-linear, boundary directions are scanned with
    xi = 1 and eta on a root-of-unity frame.
    """
    pts = np.asarray(sample_grid, dtype=complex).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    if not np.all(in_repelling_sector(params, x)):
        raise PreconditionError("sample outside the repelling sector")
    # |xi_b|, |eta_b| < 4/|a|^2: their numerators stay below 2.01 and |a|^2/|det|
    # below 1.37 (measured on the sector samples over q <= 6, |t| < 1/(2q))
    if params.a != 0 and abs(params.a) ** 2 * np.finfo(float).max <= 4:
        raise PreconditionError(f"|a| = {abs(params.a):.3g} is too small for the local cone check: "
                                "the backward-cone term 4/|a|^2 leaves the float range")
    q = params.q
    N1, N2 = nf.normal
    J11 = N1.partial_x()(x, y)
    J12 = N1.partial_y()(x, y)
    J21 = N2.partial_x()(x, y)
    J22 = N2.partial_y()(x, y)
    e = DIRECTION_FRAME[None, :]

    h_bound = np.abs(params.lam) * (1.0 + (q + 0.5) * EPS1 * np.abs(x) ** q)
    x1 = N1(x, y)
    det = J11 * J22 - J12 * J21
    singular = params.a == 0
    # per sample: cones kept over the frame, least expansion in each direction
    h_ok, v_ok = np.empty(len(x), dtype=bool), np.ones(len(x), dtype=bool)
    h_min, v_min = np.empty(len(x)), np.empty(len(x))
    for s in range(0, len(x), CONE_BLOCK):
        b = slice(s, s + CONE_BLOCK)
        # horizontal cones, forward
        xi_p = J11[b, None] + J12[b, None] * e
        eta_p = J21[b, None] + J22[b, None] * e
        h_ok[b] = (np.abs(xi_p) > np.abs(eta_p)).all(axis=1)
        h_min[b] = np.maximum(np.abs(xi_p), np.abs(eta_p)).min(axis=1)
        if singular:
            continue
        # vertical cones, backward from the image point
        open_img = np.abs(x1[b]) ** (2 * q)
        xi_b = (J22[b, None] * open_img[:, None] * e - J12[b, None]) / det[b, None]
        eta_b = (-J21[b, None] * open_img[:, None] * e + J11[b, None]) / det[b, None]
        v_ok[b] = (np.abs(xi_b) < np.abs(x[b, None]) ** (2 * q) * np.abs(eta_b)).all(axis=1)
        v_norm = np.maximum(np.abs(xi_b), np.abs(eta_b)) / np.maximum(open_img[:, None], 1.0)
        v_min[b] = v_norm.min(axis=1)
    worst_v = VERTICAL_SENTINEL if singular else float(np.min(v_min))

    return ConeReport(
        worst_h_expansion=float(np.min(h_min)),
        worst_v_expansion=worst_v,
        invariance_failures=int(np.sum(~(h_ok & v_ok))),
        # dividing by h_bound > 0 keeps the order, so this is the least ratio
        worst_h_margin=float(np.min(h_min / h_bound)),
        extras={"min_abs_xq": float(np.min(np.abs(x) ** q))},
    )


def nest_aperture(q: int) -> float:
    """Narrow vertical cone nested at dB, below the paper's (SECTOR_RADIUS/2)^{2q}."""
    return min(0.005, 0.8 * (SECTOR_RADIUS / 2.0) ** (2 * q))


def nearest_within(points: np.ndarray, sites: np.ndarray, reach: float) -> np.ndarray:
    """Distance from each point to the nearest site where that distance is at
    most reach > 0, inf elsewhere: complex points, or (n, k) rows of them.
    Points and sites of different column counts (1 for complex points) are refused.

    A distance sums the squared real and imaginary parts left to right, the bits of
    cKDTree.query on (re, im, re, im, ...).  Sites are binned by their first coordinate on
    square cells of side just above reach, so every site within reach of a point lies in
    the 3 x 3 cells around its cell; those pairs are measured in blocks of about NEAREST_PAIRS.
    """
    if not np.isfinite(sites).all():
        raise PreconditionError("nearest_within needs finite sites")
    if math.prod(points.shape[1:]) != math.prod(sites.shape[1:]):
        raise PreconditionError(f"nearest_within needs points and sites of one column count, "
                                f"got {points.shape} and {sites.shape}")
    out = np.full(len(points), np.inf)
    if not len(points) or not len(sites):
        return out
    points, sites = points.reshape(len(points), -1), sites.reshape(len(sites), -1)
    x0, y0 = sites[:, 0].real.min(), sites[:, 0].imag.min()
    # at most 16 n cells cover the sites, so the table below grows with them
    # and rounding moves a cell index by far less than the 2^-20 margin
    side = max(reach * (1 + 2.0**-20),
               max(np.ptp(sites[:, 0].real), np.ptp(sites[:, 0].imag)) / math.sqrt(16 * len(sites)))
    # two spare columns and rows on each side: the 3 x 3 window of a point
    # next to a site's cell stays inside the table
    cx = ((sites[:, 0].real - x0) / side).astype(np.int64) + 2
    cy = ((sites[:, 0].imag - y0) / side).astype(np.int64) + 2
    width, height = cx.max() + 3, cy.max() + 3
    key = cx * height + cy
    sorted_sites = sites[np.argsort(key)]
    start = np.zeros(width * height + 1, dtype=np.int64)  # sites before each cell
    np.cumsum(np.bincount(key, minlength=width * height), out=start[1:])
    ax = np.floor((points[:, 0].real - x0) / side) + 2
    ay = np.floor((points[:, 0].imag - y0) / side) + 2
    # beyond the cells next to the sites' cells no site is within reach
    near = np.flatnonzero((ax >= 1) & (ax <= width - 2) & (ay >= 1) & (ay <= height - 2))
    ax, ay = ax[near, None].astype(np.int64), ay[near, None].astype(np.int64)
    window = (ax + np.arange(-1, 2)) * height + ay  # middle cell of each column
    first = start[window - 1]
    count = start[window + 2] - first
    per = count.sum(axis=1)
    # blocks of whole points; a point's pairs are its three column runs of
    # sorted sites, back to back
    ends = np.cumsum(per)
    i0 = 0
    while i0 < len(near):
        i1 = max(int(np.searchsorted(ends, ends[i0] - per[i0] + NEAREST_PAIRS, "right")), i0 + 1)
        b = slice(i0, i1)
        i0 = i1
        c, n = count[b].ravel(), per[b]
        pair = np.arange(n.sum()) + np.repeat(first[b].ravel() - (np.cumsum(c) - c), c)
        dz = (np.repeat(points[near[b]], n, axis=0) - sorted_sites[pair]).view(float)
        sq = dz[:, 0] * dz[:, 0]
        for col in dz.T[1:]:
            sq += col * col
        has = n > 0
        d = np.sqrt(np.minimum.reduceat(sq, (np.cumsum(n) - n)[has]))
        d[d > reach] = np.inf
        out[near[b][has]] = d
    return out


def julia_slice_tree(params: HenonParams) -> np.ndarray:
    """Complex sites of a sampled J_{p_t}, the backbone of the V collar."""
    return caratheodory(params.poly, JULIA_TREE_ANGLES, JULIA_TREE_ITERS).loop.values


def in_V(params: HenonParams, nf: NormalForm2D, x, y, j_sites: np.ndarray):
    """Membership in the disk realization of the neighborhood V.

    x and y are broadcast against each other; j_sites is julia_slice_tree(params),
    built once per check.  Each test runs only on the points every earlier
    test accepted, and only where it can reject: the |y| bound and the
    critical strip on every point, the Green bound on those kept, the
    Julia-collar query on kept points with G = 0, the tube-B chart on kept
    points in B, then the tube-B' chart on kept points in B'.
    Every test is elementwise, so the mask equals the one from running every
    test on every point.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    shape = np.broadcast_shapes(x.shape, y.shape)
    x = np.broadcast_to(x, shape).ravel()
    y = np.broadcast_to(y, shape).ravel()
    alpha = params.poly.alpha
    ok = (np.abs(y) <= FILTRATION_RADIUS) & (np.abs(2 * x) >= CRIT_STRIP)
    G = np.zeros(x.shape)
    G[ok] = green(params.poly, x[ok])
    ok &= G <= math.log(BASE_RADIUS) / 2.0 + 1e-12
    # Julia collar: only the non-escaping points must lie near J
    near = ok & ~(G > 0)
    if near.any():
        ok[near] = nearest_within(x[near], j_sites, COLLAR) <= COLLAR
    # tube B: keep repelling sectors only
    in_B = np.abs(x - alpha) <= TUBE_RADIUS
    sel = ok & in_B
    ok[sel] = in_repelling_sector(params, nf.to_normalized(x[sel], y[sel])[0])
    # tube B' = H^{-1}(B) - B: keep preimages of the repelling sectors
    hx, hy = henon(params, (x, y))
    sel = ok & (np.abs(hx - alpha) <= TUBE_RADIUS) & ~in_B & (np.abs(x) <= FILTRATION_RADIUS)
    ok[sel] = in_repelling_sector(params, nf.to_normalized(hx[sel], hy[sel])[0])
    return ok.reshape(shape)[()]


def _sample_V_minus_B(params, nf, sample_count: int, rng, j_sites):
    """The first sample_count draws from the sampling box that lie in V - B.

    A round draws m = 4 need + 64 points, enough at an acceptance of 1/4, and
    tests them a quarter at a time until it holds need more samples.  Every
    test is elementwise, so the samples are those of testing the whole draw,
    and a round that keeps nothing has tested all m draws.
    """
    xs = np.empty(0, dtype=complex)
    ys = np.empty(0, dtype=complex)
    alpha = params.poly.alpha
    while len(xs) < sample_count:
        need = sample_count - len(xs)
        m = 4 * need + 64
        x = uniform_disk(rng, 2.5, m)
        y = uniform_disk(rng, FILTRATION_RADIUS, m)
        for lo in range(0, m, need + 16):
            xq, yq = x[lo : lo + need + 16], y[lo : lo + need + 16]
            keep = in_V(params, nf, xq, yq, j_sites) & (np.abs(xq - alpha) > TUBE_RADIUS)
            xs = np.append(xs, xq[keep])
            ys = np.append(ys, yq[keep])
            if len(xs) >= sample_count:
                break
        if not len(xs):
            raise PreconditionError(f"no sample of V - B among {m} draws at t={params.t}, a={params.a}")
    return xs[:sample_count], ys[:sample_count]


def _critical_orbit(params) -> np.ndarray:
    """The first 128 points of the critical orbit of p_t, refused if they
    overflow: c_t then lies outside the Mandelbrot set and J_{p_t} is a
    Cantor set, with no attracting tube to measure the density from."""
    orbit = np.empty(128, dtype=complex)
    z = 0.0 + 0.0j
    for k in range(len(orbit)):
        orbit[k] = z
        z = z * z + params.c_t
    if not np.isfinite(orbit).all():
        raise PreconditionError(f"the critical orbit of p_t escapes at t={params.t}: c_t = "
                                f"{params.c_t:.6g} lies outside the Mandelbrot set")
    return orbit


def _boundary_sites(params, nf, orbit) -> np.ndarray:
    """Complex sites standing in for the boundary of U_t: the outer equipotential
    and the thin attracting tube (the critical orbit plus the axis spine inside B)."""
    outer = equipotential_loop(params.poly, BOUNDARY_LOOP_ANGLES, level=math.log(BASE_RADIUS)).values
    u = np.geomspace(1e-4, TUBE_RADIUS**params.q, 64)  # spine: arg(x^q) = pi
    spines = []
    for j in range(params.q):
        xn = u ** (1.0 / params.q) * np.exp(1j * (math.pi + 2 * math.pi * j) / params.q)
        spines.append(nf.from_normalized(xn, np.zeros_like(xn))[0])
    return np.concatenate([outer] + spines + [orbit])


def _boundary_density(points, sites) -> np.ndarray:
    """The surrogate density 1/clip(d, 0.15, 3) at each complex point, d its distance to
    the nearest site, measured over every site in blocks of about NEAREST_PAIRS pairs."""
    d = np.empty(len(points))
    step = max(1, NEAREST_PAIRS // len(sites))
    px, py, sx, sy = points.real, points.imag, sites.real, sites.imag
    for s in range(0, len(points), step):
        dx, dy = px[s:s + step, None] - sx, py[s:s + step, None] - sy
        d[s:s + step] = np.sqrt((dx * dx + dy * dy).min(axis=1))
    return 1.0 / np.clip(d, 0.15, 3.0)  # bounded like the true density on V - B''


def global_cone_check(params: HenonParams, sample_count: int, seed: int,
                      nf: NormalForm2D) -> ConeReport:
    """Sampled cone verification on the collar V minus the tube B.

    The primary metric is the Euclidean product metric; a sample whose
    horizontal expansion is marginal there is retried against the
    distance-to-boundary weighted surrogate (Koebe-style density) before
    being counted as a failure.  Vertical-cone statistics are taken over
    samples whose backward image stays in the region, matching the
    two-endpoint hypothesis of the invariance statement.
    """
    if params.a == 0:
        raise PreconditionError("global cone check requires a != 0")
    if sample_count < 1:
        raise PreconditionError(f"sample count must be >= 1, got {sample_count}")
    if abs(params.a) ** 3 * np.finfo(float).max <= 2 * FILTRATION_RADIUS:  # |eta_b| < 2r/|a|^3
        raise PreconditionError(f"|a| = {abs(params.a):.3g} is too small for the global cone check: "
                                "the backward-cone term 2r/|a|^3 leaves the float range")
    orbit = _critical_orbit(params)  # refused here, before sampling, whether or not a sample retries
    xs, ys = _sample_V_minus_B(params, nf, sample_count, np.random.default_rng(seed),
                               julia_slice_tree(params))

    a = params.a
    e = DIRECTION_FRAME[None, :]
    # the frame's other coordinate is constant: |eta| = |a| forward, |xi| = |1/a| backward.
    # Each test and expansion is monotone non-decreasing in the frame value (products and
    # quotients by positives round monotonically, as does a max with a constant), so it
    # commutes bit for bit with the per-sample minimum over the frame: only that is kept
    abs_eta_p, abs_xi_b = np.abs(a), np.abs(1.0 / a)
    xpre = ys / a  # first coordinate of H^{-1}(x, y)
    valid = np.abs(2.0 * xpre) >= CRIT_STRIP
    m_h, m_v = np.empty(len(xs)), np.empty(len(xs))
    for s in range(0, len(xs), CONE_BLOCK):
        b = slice(s, s + CONE_BLOCK)
        # horizontal cones under DH, Euclidean frame (xi, eta) = (1, e)
        m_h[b] = np.abs(2.0 * xs[b, None] + a * e).min(axis=1)
        # vertical cones under DH^{-1}: boundary |xi| = tau |eta|, eta = 1,
        # restricted to samples whose preimage stays clear of the critical tube
        m_v[b] = np.abs((TAU * e - 2.0 * xpre[b, None] / a) / a).min(axis=1)
    h_inv, h_exp = m_h > abs_eta_p, np.maximum(m_h, abs_eta_p)
    v_inv, v_exp = abs_xi_b < TAU * m_v, np.maximum(abs_xi_b, m_v)  # ||v|| = max(tau, 1) = 1
    euclid_ok = h_exp > 1.0

    # weighted retry, only where the Euclidean metric leaves a sample
    # uncertified: the same frame reweighted to the surrogate density, whose
    # expansion then stands in h_exp for the Euclidean one
    retry = np.flatnonzero(~euclid_ok)
    if len(retry):
        sites = _boundary_sites(params, nf, orbit)
        xr = xs[retry]
        sig0 = _boundary_density(xr, sites)
        sig1 = _boundary_density(henon(params, (xr, ys[retry]))[0], sites)
        for s in range(0, len(retry), CONE_BLOCK):
            b = slice(s, s + CONE_BLOCK)
            m_w = np.abs(2.0 * xr[b, None] + a * (sig0[b, None] * e)).min(axis=1)
            h_exp[retry[b]] = np.maximum(sig1[b] * m_w, abs_eta_p) / sig0[b]
    h_ok = h_exp > 1.0  # in the Euclidean metric, or in the weighted one on a retry

    worst_h = float(np.min(h_exp))
    worst_v = float(np.min(v_exp[valid])) if valid.any() else float("nan")

    # nesting of the narrow vertical cone inside the normalized cone at dB
    tau_nest = nest_aperture(params.q)
    nest_x = params.poly.alpha + TUBE_RADIUS * np.exp(2j * math.pi * np.arange(64) / 64)
    nest_xn = nf.to_normalized(nest_x, np.zeros(64))[0]
    nest_keep = in_repelling_sector(params, nest_xn, SECTOR_RADIUS * 1.5)
    nest_x, xn = nest_x[nest_keep], nest_xn[nest_keep]
    nest_ratio = float("nan")
    if len(nest_x):
        c1, c2 = nf.change
        cx = nest_x - params.x_q
        cy = np.zeros_like(cx) - params.a * params.x_q
        d1x, d1y = c1.partial_x()(cx, cy), c1.partial_y()(cx, cy)
        d2x, d2y = c2.partial_x()(cx, cy), c2.partial_y()(cx, cy)
        ph = DIRECTION_FRAME[:, None]  # one row per direction
        xi_t = d1x * tau_nest * ph + d1y
        eta_t = d2x * tau_nest * ph + d2y
        nest_ratio = float(np.max(np.abs(xi_t) / (np.abs(xn) ** (2 * params.q) * np.abs(eta_t))))

    return ConeReport(
        worst_h_expansion=worst_h,
        worst_v_expansion=worst_v,
        invariance_failures=int(np.sum(~(h_inv & (v_inv | ~valid) & h_ok))),
        worst_h_margin=worst_h,
        extras={
            "euclid_certified": int(np.sum(euclid_ok)),
            "weighted_certified": int(np.sum(h_ok & ~euclid_ok)),
            "vertical_skipped_preimage": int(np.sum(~valid)),
            "vertical_ok": worst_v >= 0.95 / abs(a),
            "nesting_ratio_at_dB": nest_ratio,
        },
    )


@dataclass(frozen=True)
class ScanCell:
    t: float
    a: float
    verdict: str
    worst_h: float
    worst_v: float


def hyperbolicity_scan(p_over_q, t_values, a_values, local_samples: int = SCAN_SAMPLES,
                       seed: int = 0) -> list:
    """PASS/MARGINAL/FAIL verdict per (t, a) cell from the local cone check
    alone; a = 0 and out-of-range a cells are EXCLUDED.
    An out-of-family t, a non-finite a or a sample count below 1 is a
    precondition error, as it is for every other command."""
    for t in t_values:
        make_params(p_over_q, float(t), 0)
    if not np.all(np.isfinite(a_values)):
        raise PreconditionError("a values must all be finite")
    if local_samples < 1:  # sector_samples would refuse it in every cell
        raise PreconditionError(f"sample count must be >= 1, got {local_samples}")
    cells = []
    for t in t_values:
        for a in a_values:
            verdict, worst_h, worst_v = "EXCLUDED", float("nan"), float("nan")
            try:
                if a != 0:
                    params = make_params(p_over_q, float(t), complex(a))
                    rep = local_cone_check(params, reduce(params),
                                           sector_samples(params, local_samples, seed=seed))
                    # at t = 0 the expansion margin decays to zero toward W^ss, so
                    # a sampled PASS is never uniform: report MARGINAL instead
                    verdict = "MARGINAL" if t == 0 and rep.verdict == "PASS" else rep.verdict
                    worst_h, worst_v = rep.worst_h_expansion, rep.worst_v_expansion
            except (PreconditionError, NumericalError):
                pass
            cells.append(ScanCell(t=float(t), a=float(a), verdict=verdict,
                                  worst_h=worst_h, worst_v=worst_v))
    return cells
