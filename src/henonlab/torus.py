"""Solid tori of vertical-like disks and the graph transform acting on them.

A torus is a family of holomorphic disks phi_s: D_r -> C indexed by dyadic
angles; the transform sends a torus to the vertical-like preimage components
of its fibers, producing f_n -> f* whose image parametrizes J+ inside the
bidisk.  The semiconjugacy sigma(s,z) = (2s, a phi_s(z)) and the polynomial
model psi live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .errors import NumericalError, PreconditionError
from .henon import FILTRATION_RADIUS, HenonParams, henon, mirror_sign, uniform_disk
from .poly1d import LoopSample, check_angles, continue_branch, equipotential_loop
from .series import horner

NODE_RADIUS = 0.9 * FILTRATION_RADIUS  # collocation radius, 0.9 of the disk radius
# A Newton solution from the last level's samples whose distances to its
# pullback seed and to minus that seed differ by less than this fraction of
# |seed| is solved again from the seed.  Near the critical point x = 0 the two
# preimages are almost equidistant from the seed, Newton from the seed can
# reach either one, and which one it reaches decides the branch check.  In
# scans at q = 1, 2, 3 the samples and the seed led to different roots on the
# seed's side only at margins below 0.09.
BRANCH_MARGIN = 0.25
# A torus is mirror-symmetric when its coefficients match their mirror images
# to this many ulps of the largest one.  Measured at q = 1, 2: 0.5 ulp on seed
# tori, 0.2 ulp on later levels (the DFT of exactly symmetric samples).
MIRROR_ULPS = 4
# torus_fixed_point runs levels 1 .. FULL_GRID_LEVELS on the caller's grid, the
# middle ones on BASE_ANGLES angles, then refines.  Refining from level 0 certified
# scan cells that leave their branch at levels 5 to 9 on 1024 angles.
FULL_GRID_LEVELS = 12
BASE_ANGLES = 256
RESIDUAL_SAMPLES = 4096  # (s, z) samples of semiconjugacy_residual
NEWTON_STEPS = 50  # most Newton steps per angle in one graph_transform solve
DISK_DEGREE = 8  # Taylor degree of the disks, the CLI's --degree default


# eq=False: the fields are arrays, so a generated == would raise on them
@dataclass(frozen=True, eq=False)
class SolidTorus:
    coeffs: np.ndarray      # (n_angles, disk_degree+1) Taylor coefficients
    level: int              # iteration index
    # (n_angles, 2 disk_degree) values at the nodes that the coefficients were
    # fitted to; set by graph_transform, whose next step starts Newton there
    samples: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        """Takes the arrays uncopied (np.asarray to complex) and makes them read-only once they
        pass the checks; a caller that still writes to one, or to its base, passes a copy."""
        arrays = {name: np.asarray(x, dtype=complex) for name in ("coeffs", "samples")
                  if (x := getattr(self, name)) is not None}
        c, samples = arrays["coeffs"], arrays.get("samples")
        if c.ndim != 2:
            raise PreconditionError("torus coefficients must be (n_angles, disk_degree+1)")
        check_angles(len(c), 2)
        if samples is not None and samples.shape != (len(c), 2 * (c.shape[1] - 1)):
            raise PreconditionError("torus samples must be (n_angles, 2 disk_degree)")
        for name, x in arrays.items():
            x.setflags(write=False)
            object.__setattr__(self, name, x)

    @property
    def n_angles(self):
        return self.coeffs.shape[0]

    @property
    def disk_degree(self):
        return self.coeffs.shape[1] - 1

    @property
    def centers(self):
        return self.coeffs[:, 0]

    def nodes(self):
        m = 2 * self.disk_degree
        return NODE_RADIUS * np.exp(2j * math.pi * np.arange(m) / m)

    def eval(self, k, z):
        """phi at angle index k (array ok) and points z (broadcast)."""
        return horner(self.coeffs[np.asarray(k) % self.n_angles], z)

    @cached_property
    def node_values(self):
        """(n_angles, 2d) read-only phi_s at the collocation nodes; the coefficients are their truncated DFT."""
        scaled = self.coeffs * NODE_RADIUS ** np.arange(self.disk_degree + 1)
        vals = np.fft.ifft(scaled, n=2 * self.disk_degree, axis=1, norm="forward")
        vals.setflags(write=False)
        return vals

    def max_slope(self):
        """Upper bound for sup |phi_s'| on the collocation circle."""
        m = np.arange(1, self.disk_degree + 1)
        radii = NODE_RADIUS ** (m - 1)
        return float(np.max(np.sum(np.abs(self.coeffs[:, 1:]) * m * radii, axis=1)))

    def separation(self):
        """min over s of the sup-distance between fibers at s and s + 1/2."""
        vals, half = self.node_values, self.n_angles // 2
        return float(np.min(np.max(np.abs(vals[:half] - vals[half:]), axis=1)))


def torus_seed(loop0: LoopSample, disk_degree: int) -> SolidTorus:
    """Constant-in-z disks over the seed equipotential: phi_s = gamma_0(s)."""
    if loop0.level <= 0:
        raise PreconditionError("seed loop must sit at a positive Green level")
    coeffs = np.zeros((loop0.N, disk_degree + 1), dtype=complex)
    coeffs[:, 0] = loop0.values
    return SolidTorus(coeffs=coeffs, level=0)


def graph_transform(params: HenonParams, torus: SolidTorus,
                    _grid: int | None = None) -> SolidTorus:
    """One application of the operator: solve, per angle s and node z_j,

        x^2 + c + a z_j = phi_{2s}(a x)

    for x by Newton, then refit the degree-d Taylor coefficients on the
    collocation circle (least squares = truncated DFT on the uniform node
    grid).  Every solution must keep the label of its 1-D pullback branch
    (the branches of the center loop): it must lie closer to that branch's
    value than to its negative.  The fibers at s and s + 1/2 share phi_{2s}, so
    their branches must be the two square roots.  Newton starts from
    ``torus.samples``, the solution of the step that made ``torus``.  On the
    seed torus, and for each angle where that start stalls or ends within
    BRANCH_MARGIN of the other branch, it starts from the pullback branches
    instead, and their outcome stands.  A stall names its angle on ``_grid``
    angles (default: the torus's).

    On a torus with a mirror (``_mirror_nodes``) only the angles 0 .. n/2 are
    solved.  As conj(a) = e a and conj(phi_s(w)) = phi_{-s}(e conj w), the
    conjugate of the equation at angle k and node z_j is
    conj(x)^2 + c + a e conj(z_j) = phi_{-2k}(a conj x), the one at angle -k and
    node e conj(z_j) = z_{P(j)}.  So X[j, (-k) % n] = conj(X[P(j), k]) fills
    the other angles, and each of them is branch-checked against its own seed."""
    if params.a == 0:
        raise PreconditionError("graph transform requires a != 0")
    n, d = torus.n_angles, torus.disk_degree
    mirror = _mirror_nodes(params, torus)
    h = n if mirror is None else n // 2 + 1  # the angles Newton solves
    target = 2 * np.arange(n) % n  # the fiber at the doubled angle
    seeds = continue_branch(np.sqrt(torus.centers[target] - params.c), unit="angle")
    if not np.array_equal(seeds[n // 2:], -seeds[: n // 2]):
        raise NumericalError("resolution too coarse: fibers at s and s+1/2 took the same preimage")
    tcoeffs, seeds_h = torus.coeffs[target[:h]], seeds[:h]
    solve = partial(_newton, params, torus.nodes())
    X, stalled = solve(tcoeffs, seeds_h if torus.samples is None else torus.samples[:h].T)
    # negative exactly where |X - s| > |X + s|: the node left its branch
    margin = _branch_margin(X, seeds_h)
    if torus.samples is not None:
        redo = np.any(stalled | (margin < BRANCH_MARGIN * np.abs(seeds_h)), axis=0)
        if redo.any():
            X[:, redo], stalled[:, redo] = solve(tcoeffs[redo], seeds_h[redo])
            margin[:, redo] = _branch_margin(X[:, redo], seeds_h[redo])
    if stalled.any():
        k, j = np.argwhere(stalled.T)[0]
        grid = _grid or n
        raise NumericalError(f"Newton stalled at angle {k * grid // n}/{grid}, node {j}")
    if h < n:  # angle-major, so that the samples X.T are contiguous
        X = np.concatenate([X.T, np.conj(X.T[n - np.arange(h, n)][:, mirror])]).T
        margin = np.concatenate([margin, _branch_margin(X[:, h:], seeds[h:])], axis=1)
    if np.any(margin < 0):
        raise NumericalError("resolution too coarse: node left its branch")

    dft = np.fft.fft(X, axis=0)[: d + 1]
    dft /= 2 * d * (NODE_RADIUS ** np.arange(d + 1))[:, None]
    coeffs = dft.T.copy()  # a view would keep all 2d rows of the transform
    return SolidTorus(coeffs=coeffs, level=torus.level + 1, samples=X.T)


def _branch_margin(X, seeds):
    """|X + seeds| - |X - seeds|: how much closer the solutions X are to their
    branch than to the other one."""
    return np.abs(X + seeds) - np.abs(X - seeds)


def _mirror_nodes(params, torus):
    """The node map P of the mirror of ``torus``, or None when it has none.

    The mirror C(x, y) = (conj x, e conj y) of ``mirror_sign`` commutes with
    H.  C maps the torus to itself when phi_{-s}(w) = conj(phi_s(e conj w)),
    i.e. coeffs[-k, m] = e^m conj(coeffs[k, m]), here within MIRROR_ULPS.
    e conj(z_j) is the node z_{P(j)}: P(j) = -j for e = 1 and d - j for
    e = -1, mod 2d."""
    e = mirror_sign(params)
    if e is None:
        return None
    n, d = torus.n_angles, torus.disk_degree
    coeffs = torus.coeffs
    mirrored = np.conj(coeffs[(-np.arange(n)) % n]) * e ** np.arange(d + 1)
    if np.max(np.abs(coeffs - mirrored)) > MIRROR_ULPS * np.spacing(np.max(np.abs(coeffs))):
        return None
    return ((1 - e) // 2 * d - np.arange(2 * d)) % (2 * d)


def _newton(params, nodes, tcoeffs, start):
    """Newton for F(x) = x^2 + c + a z_j - phi_s(a x) = 0 at the nodes z_j, for the (n, d+1)
    coefficients ``tcoeffs`` of phi_s on D_r, from ``start`` (broadcast to (2d, n)).  An angle
    retires when at every node the step s just taken predicts a next step M |s|^2 / (2 |F'(x)|)
    <= eps (1 + |x|) / 2 <= ulp(1 + |x|) (Newton-Kantorovich), M >= sup |F''| per angle on
    |a x| <= max(r, |a| max |start|).  Returns the (2d, n) solutions and the mask of the
    entries not retired after NEWTON_STEPS steps."""
    (n, d1), m2 = tcoeffs.shape, len(nodes)
    a, c, az = params.a, params.c, params.a * nodes[:, None]
    # Node-major: column i holds angle angle[i], so each Horner add is a contiguous coefficient
    # row.  The (rows, k) arrays of the k active angles are the first rows * k entries of flat
    # buffers: steps work in place on contiguous memory, retiring moves the rest to the front.
    k, angle = n, np.arange(n)

    def active(buf):
        return buf[: buf.size // n * k].reshape(buf.size // n, k)

    X, xa, g, gp, phi, dphi = (np.empty(rows * n, dtype=complex)
                               for rows in (m2, m2, m2, m2, d1, d1 - 1))
    active(X)[...] = start
    active(phi)[...] = tcoeffs.T
    np.multiply(tcoeffs[:, 1:].T, np.arange(1, d1)[:, None], out=active(dphi))
    m = np.arange(2, d1)[:, None]
    R = max(FILTRATION_RADIUS, abs(a) * np.max(np.abs(start)))
    M = 2.0 + abs(a) ** 2 * np.sum(np.abs(active(phi)[2:]) * (m * (m - 1) * R ** (m - 2.0)), axis=0)
    M_eps, converged = M / np.finfo(float).eps, np.empty(m2 * n, dtype=bool)
    solved = np.empty((n, m2), dtype=complex)  # angle-major: retiring angles fill rows
    # as if no step had converged, for NEWTON_STEPS = 0
    step_ok, done = np.zeros((m2, n), dtype=bool), np.zeros(n, dtype=bool)
    for _ in range(NEWTON_STEPS):
        x, w, f, fp = active(X), active(xa), active(g), active(gp)
        np.multiply(a, x, out=w)
        # f = F(x) and fp = F'(x) = 2 x - a phi_s'(a x)
        np.multiply(x, x, out=f)
        f += c
        f += az
        f -= horner(active(phi).T, w, out=fp)
        horner(active(dphi).T, w, out=fp)
        fp *= -a
        fp += np.multiply(2.0, x, out=w)
        step = np.divide(f, fp, out=f)
        x -= step
        # M |s|^2 / eps <= (1 + |x|) |F'|, in two real arrays over the spent a x
        s2, tol = w.view(float).reshape(2, m2, k)
        np.add(np.abs(x, out=s2), 1.0, out=s2)
        np.multiply(np.abs(fp, out=tol), s2, out=tol)
        np.square(np.abs(step, out=s2), out=s2)
        s2 *= active(M_eps)
        step_ok = np.less_equal(s2, tol, out=active(converged))
        done = step_ok.all(axis=0)
        if done.any():
            solved[angle[done]] = np.compress(done, x, axis=1).T
            angle = angle[~done]
            rest = [np.compress(~done, active(b), axis=1) for b in (X, phi, dphi, M_eps)]
            k = len(angle)
            for b, v in zip((X, phi, dphi, M_eps), rest):
                active(b)[...] = v
            if k == 0:
                break
    stalled = np.zeros((m2, n), dtype=bool)
    solved[angle] = active(X).T
    # `step_ok` still has the columns from before the last compaction
    stalled[:, angle] = ~step_ok[:, ~done]
    return solved.T, stalled


@dataclass(frozen=True)
class TorusResult:
    torus: SolidTorus
    # per level, the sup-norm Cauchy gap to the level before; see
    # torus_fixed_point for the grid of each entry
    gaps: np.ndarray

    @property
    def final_gap(self):
        return float(self.gaps[-1])


def check_grid(n_iters: int, n_angles: int, disk_degree: int):
    """Refuses what torus_fixed_point cannot run: fewer than one level, an
    angle count that is not a power of two >= 2, or a disk degree below 1."""
    if n_iters < 1:
        raise PreconditionError(f"n_iters must be >= 1, got {n_iters}")
    check_angles(n_angles, 2)
    if disk_degree < 1:
        raise PreconditionError(f"disk degree must be >= 1, got {disk_degree}")


def torus_fixed_point(params: HenonParams, n_iters: int, n_angles: int,
                      disk_degree: int) -> TorusResult:
    """n_iters-fold graph transform of the seed torus, with certificates.

    On N = BASE_ANGLES 2^k angles with n_iters >= FULL_GRID_LEVELS + k + 2,
    k >= 1, levels 1 .. FULL_GRID_LEVELS run on the N angles, then on a copy
    of every 2^k-th fiber up to level n_iters - k - 2.  Each of the k levels up
    to n_iters - 2 refines: it transforms the torus on twice the angles whose
    fiber 2j is fiber j and whose odd fibers, which the step never reads, are
    zero.  The last two levels run on the N angles, within a few ulps of the
    direct solve.  Otherwise every level runs on the N angles.

    Entry i of ``gaps`` compares levels i + 1 and i on the grid of level i, so
    a refining level is compared on its even fibers.  The first
    FULL_GRID_LEVELS entries and the last two are on the N angles.  At q = 1
    all gaps are the direct solve's to rounding.  At q >= 2 the base-grid gaps
    fall up to 85 % below the N-angle ones on 1024 angles and 92 % on 2048, so
    they may rise where the grid changes."""
    check_grid(n_iters, n_angles, disk_degree)
    torus = torus_seed(equipotential_loop(params.poly, n_angles), disk_degree)
    k = max(n_angles // BASE_ANGLES, 1).bit_length() - 1
    k = k if n_iters >= FULL_GRID_LEVELS + k + 2 else 0
    gaps = np.empty(n_iters)
    for level in range(1, n_iters + 1):
        if k and level == FULL_GRID_LEVELS + 1:  # copies: a strided view keeps the N fibers
            s = n_angles // BASE_ANGLES
            torus = SolidTorus(torus.coeffs[::s].copy(), torus.level, torus.samples[::s].copy())
        vals = torus.node_values
        refine = n_iters - 2 - k < level <= n_iters - 2
        if refine:
            coeffs = np.zeros((2 * torus.n_angles, disk_degree + 1), dtype=complex)
            coeffs[::2] = torus.coeffs
            torus = SolidTorus(coeffs, torus.level, np.repeat(torus.samples, 2, axis=0))
        # frees its input: two tori are alive per call
        torus = graph_transform(params, torus, _grid=n_angles)
        gaps[level - 1] = np.max(np.abs(torus.node_values[::1 + refine] - vals))
    return TorusResult(torus=torus, gaps=gaps)


def phi_oa2_residual(params: HenonParams, torus: SolidTorus,
                     loop: LoopSample) -> float:
    """sup over fibers and nodes of |phi_s(z) - gamma(s) + a z / (2 gamma(s))|.

    The loop must be the Caratheodory loop sampled on the same angle grid;
    the residual is the order-a^2 tail of the disk expansion.
    """
    if loop.N != torus.n_angles:
        raise PreconditionError("loop and torus angle grids differ")
    g = loop.values[:, None]
    z = torus.nodes()[None, :]
    resid = torus.node_values - g + params.a * z / (2.0 * g)
    return float(np.max(np.abs(resid)))


def sigma(params: HenonParams, fstar: SolidTorus, point):
    """The semiconjugate model map (s, z) -> (2s mod 1, a phi_s(z)).

    s and z may be arrays (broadcast).  Angles are snapped to the torus grid
    (dyadic angles are exact under doubling).  Requires a converged torus to
    mean anything.
    """
    s, z = point
    zp = params.a * fstar.eval(np.rint(s * fstar.n_angles).astype(int) % fstar.n_angles, z)
    if np.max(np.abs(zp)) >= FILTRATION_RADIUS:
        raise NumericalError("image left D_r: sigma is not into")
    return ((2.0 * s) % 1.0, zp)


def check_depth(depth: int, n_angles: int):
    """Refuses a sigma-orbit depth outside 1 .. 1023 - log2(n_angles): the seeds
    k / (N 2^depth) of ``julia_from_sigma`` need N 2^depth below 2^1024."""
    deepest = 1023 - (n_angles.bit_length() - 1)
    if not 1 <= depth <= deepest:
        raise PreconditionError(f"depth must be in 1 .. {deepest} on {n_angles} angles, got {depth}")


def julia_from_sigma(params: HenonParams, fstar: SolidTorus, depth: int) -> np.ndarray:
    """J sampled as f* of deep sigma-orbits of the seeds (k / (N 2^depth), 0).

    The nested intersection of sigma-images is realized by forward orbits:
    sigma contracts the disk coordinate geometrically, so depth iterations
    land within machine precision of the attractor; one z seed per angle is
    enough, as seeds elsewhere in the disk were measured to land within
    3e-30 of its points.  Seed angles are taken at k / (N 2^depth) so that
    the doubled angles sweep the whole fiber grid instead of collapsing onto
    angle zero (doubling is nilpotent on the dyadic grid itself); off-grid
    ancestors snap to the nearest fiber, an error the z-contraction wipes out.
    N 2^depth must stay below the float range, 2^1024, or every seed is 0
    (``check_depth``).  Returns the distinct points as (n, 2) rows (x, z).
    """
    n = fstar.n_angles
    check_depth(depth, n)
    s, z = np.arange(n) / (n * 2.0**depth), np.zeros(n, dtype=complex)
    for _ in range(depth):
        s, z = sigma(params, fstar, (s, z))
    x = fstar.eval(np.rint(s * n).astype(int) % n, z)
    return np.unique(np.column_stack([x, z]), axis=0)


def semiconjugacy_residual(params: HenonParams, fstar: SolidTorus, seed: int) -> float:
    """sup over samples of dist(H(f*(s,z)), f*(sigma(s,z))), max-norm on C^2."""
    rng = np.random.default_rng(seed)
    n = fstar.n_angles
    k = rng.integers(0, n, RESIDUAL_SAMPLES)
    z = uniform_disk(rng, NODE_RADIUS, RESIDUAL_SAMPLES)
    x = fstar.eval(k, z)
    hx, hy = henon(params, (x, z))
    z1 = params.a * x
    x1 = fstar.eval((2 * k) % n, z1)
    return float(np.max(np.maximum(np.abs(hx - x1), np.abs(hy - z1))))


def model_psi(params: HenonParams, eps: float, point):
    """The quotient model map psi(zeta, z) = (p_t(zeta), eps zeta - eps^2 z / (2 zeta))."""
    zeta, z = point
    if zeta == 0:
        raise PreconditionError("model map undefined at zeta = 0")
    return (zeta * zeta + params.c_t, eps * zeta - eps * eps * z / (2.0 * zeta))
