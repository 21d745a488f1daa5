"""Numerical experiments: Hausdorff continuity of J and J+, connectivity
scans over the parameter disk, and the one-dimensional radial demo."""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .cones import nearest_within
from .errors import NumericalError, PreconditionError, WorkerError
from .henon import jplus_slice, make_params, symmetric_axis
from .poly1d import caratheodory, poly_params
from .torus import DISK_DEGREE, check_depth, check_grid, julia_from_sigma, torus_fixed_point

DEFAULT_WINDOW = (-2.2, 2.2, -2.2, 2.2)
CONTINUITY_ESCAPE_STEPS = 200  # escape-time steps of each J+ slice of continuity


def _pool_map(fn, items):
    """[fn(x) for x in items] on every CPU this process may run on, at most one
    per item: this process takes items from the tail, starting with the last,
    and a fork pool of one worker per further CPU takes them from the head.
    Serial below two CPUs, or where os.sched_getaffinity does not exist.

    Results cross by pickle, so they are the serial bits.  The first failing
    item in input order raises its error; work not yet started is cancelled,
    and every worker is joined before the call returns or raises, on a
    BaseException (a SIGALRM timeout, say) too.  A dead worker raises
    WorkerError with its exit code, where multiprocessing.Pool would wait
    for its result forever.  fork, not spawn: a spawned worker imports numpy
    afresh, about the time the pool saves; the pool forks all its workers at
    the first submit, before it starts its own thread."""
    items = list(items)
    cpus = getattr(os, "sched_getaffinity", None)
    n_cpus = min(len(cpus(0)), len(items)) if cpus else 1
    if n_cpus < 2:
        return [fn(x) for x in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    sys.stdout.flush()  # a worker flushes its copy of the buffers as it exits
    sys.stderr.flush()
    pool = ProcessPoolExecutor(n_cpus - 1, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(fn, x) for x in items[:-1]]
        results, own_error, k = [None] * len(items), None, len(items)
        while k > 0 and (k == len(items) or futures[k - 1].cancel()):
            k -= 1
            try:
                results[k] = fn(items[k])
            except Exception as exc:  # the items after it succeeded; those before may fail first
                own_error = exc
                break
        results[:k] = [f.result() for f in futures[:k]]
        if own_error is not None:
            raise own_error
        return results
    except BrokenProcessPool as exc:
        broken, procs = exc, list((pool._processes or {}).values())
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    # once one worker has died, the pool terminates the others (SIGTERM, exit code -15)
    code = next((p.exitcode for p in procs if p.exitcode not in (0, -15)), -15)
    raise WorkerError(f"a worker process died with exit code {code}") from broken


def hausdorff(A: np.ndarray, B: np.ndarray) -> float:
    """Hausdorff distance (sup-min, Euclidean) between two planar clouds of complex points
    or two clouds of (n, 2) complex rows (x, y) in C^2, with the bits of cKDTree.query on
    (Re x, Im x[, Re y, Im y]): each nearest_within search starts at the least cell side of
    its grid, or one ulp of the largest coordinate, and doubles its reach for the points
    still unresolved.  nearest_within refuses a planar cloud against C^2 rows."""
    if len(A) == 0 or len(B) == 0:
        raise PreconditionError("Hausdorff distance of an empty cloud")
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise PreconditionError("Hausdorff distance of a cloud with a non-finite coordinate")
    A, B = A.reshape(len(A), -1), B.reshape(len(B), -1)
    ulp = np.spacing(max(np.abs(c).max() for c in (A.real, A.imag, B.real, B.imag)))

    def directed(points, sites):
        reach = max(max(np.ptp(sites[:, 0].real), np.ptp(sites[:, 0].imag)) / np.sqrt(16 * len(sites)), ulp)
        d = nearest_within(points, sites, reach)
        while reach < np.inf and np.isinf(d).any():  # an overflowing distance stays inf
            reach *= 2
            d[np.isinf(d)] = nearest_within(points[np.isinf(d)], sites, reach)
        return float(np.max(d))

    return max(directed(A, B), directed(B, A))


@dataclass(frozen=True)
class HausdorffResult:
    t_values: list
    distances: list
    meta: str

    def __post_init__(self):
        if len(self.t_values) != len(self.distances):
            raise PreconditionError("t and distance lists must align")
        if any(d < 0 for d in self.distances):
            raise PreconditionError("distances must be nonnegative")

    @property
    def strictly_decreasing(self) -> bool:
        return all(b < a for a, b in zip(self.distances, self.distances[1:]))


def _check_t_list(t_list, p_over_q):
    t = [poly_params(p_over_q, float(v)).t for v in t_list]  # refused outside the family
    if not t or any(v == 0 for v in t):
        raise PreconditionError("t list must be nonzero values descending to 0")
    if len({np.sign(v) for v in t}) != 1:
        raise PreconditionError("t list must keep one sign")
    if any(abs(b) >= abs(a) for a, b in zip(t, t[1:])):
        raise PreconditionError("t list must descend to 0 in absolute value")
    return t


def continuity_experiment(p_over_q, a, t_list, resolution: int, n_angles: int,
                          n_iters: int, depth: int, disk_degree: int):
    """d_H(J_t, J_0) and d_H of the y=0 slices of J+, against the t=0 clouds.

    All clouds on both sides are built at identical resolution; the reference
    is the semi-parabolic member t = 0.  The J+ slices come first, so that a
    resolution they cannot resolve is refused before any torus is solved,
    and a = 0 or a bad torus grid, degree or depth before any slice is built.
    The t = 0 slice is built here; the other slices with their distances, then
    all J clouds, run in one _pool_map round, so each refusal comes in the serial order.
    """
    t_vals = _check_t_list(t_list, p_over_q)
    check_grid(n_iters, n_angles, disk_degree)
    check_depth(depth, n_angles)
    if a == 0:
        raise PreconditionError("--a must be nonzero: the J tori need a != 0 for the graph transform")

    ref_slice = _slice_boundary(p_over_q, a, resolution, 0.0)
    cloud_at = partial(_julia_cloud, p_over_q, a, n_iters, n_angles, disk_degree, depth)
    results = _pool_map(_call, [partial(_slice_distance, p_over_q, a, resolution, ref_slice, t)
                                for t in t_vals] + [partial(cloud_at, t) for t in [0.0, *t_vals]])
    ds, (ref_j, *clouds) = results[:len(t_vals)], results[len(t_vals):]
    dj = [hausdorff(cloud, ref_j) for cloud in clouds]
    meta = (f"pq={p_over_q} a={a} angles={n_angles} iters={n_iters} res={resolution} "
            f"degree={disk_degree} depth={depth}")
    return (HausdorffResult(t_values=t_vals, distances=dj, meta="J " + meta),
            HausdorffResult(t_values=t_vals, distances=ds, meta="J+slice " + meta))


def _call(job):
    return job()


def _slice_boundary(p_over_q, a, resolution, t):
    boundary = jplus_slice(make_params(p_over_q, t, a), DEFAULT_WINDOW, resolution,
                           CONTINUITY_ESCAPE_STEPS).boundary
    if not len(boundary):
        raise PreconditionError(
            f"the J+ slice y=0 at t={t} has no boundary cell at resolution "
            f"{resolution}: raise --res")
    return boundary


def _slice_distance(p_over_q, a, resolution, ref_slice, t):
    d = hausdorff(_slice_boundary(p_over_q, a, resolution, t), ref_slice)
    if d == 0:
        raise PreconditionError(
            f"the J+ slices at t={t} and t=0 have the same boundary cells at "
            f"resolution {resolution}: raise --res")
    return d


def _julia_cloud(p_over_q, a, n_iters, n_angles, disk_degree, depth, t):
    params = make_params(p_over_q, t, a)
    torus = torus_fixed_point(params, n_iters, n_angles, disk_degree).torus
    return julia_from_sigma(params, torus, depth=depth)


def radial_demo(p_over_q, t_list, N: int, n_iters: int) -> HausdorffResult:
    """1-D continuity: d_H between Caratheodory images at t and at 0."""
    t_vals = _check_t_list(t_list, p_over_q)
    ref = caratheodory(poly_params(p_over_q, 0.0), N, n_iters).loop.values
    dist = []
    for t in t_vals:
        cur = caratheodory(poly_params(p_over_q, t), N, n_iters).loop.values
        dist.append(hausdorff(cur, ref))
    return HausdorffResult(t_values=t_vals, distances=dist,
                           meta=f"radial pq={p_over_q} N={N} iters={n_iters}")


@dataclass(frozen=True)
class ConnectivityCell:
    a: complex
    verdict: str         # CONNECTED-BY-CONSTRUCTION | UNKNOWN | EXCLUDED
    final_gap: float
    separation: float


# Two Cauchy gaps at or below this many ulps of the largest node value are
# rounding noise: at 40 iterations the gaps of converged cells sit at 5e-16 to
# 1.6e-15 (1 to 4 ulps of |phi| ~ 3) and rise or fall by rounding alone.
GAP_FLOOR_ULPS = 8
# The final Cauchy gap and fiber separation a connected cell must beat.
GAP_TOL = 5e-2
SEPARATION_FLOOR = 1e-2


def connectivity_scan(p_over_q, t, a_window, resolution: int, n_angles: int, n_iters: int,
                      disk_degree: int = DISK_DEGREE):
    """Constructive connectivity verdicts on a grid of complex a.

    A cell is CONNECTED-BY-CONSTRUCTION when the graph transform converges
    (final gap below GAP_TOL and not growing above the rounding floor
    GAP_FLOOR_ULPS) with the fiber separation above SEPARATION_FLOOR; anything
    else is UNKNOWN, never DISCONNECTED.

    The cell -a takes the verdict, gap and separation of the cell a when a was computed
    first: c depends on a only through a^2, so S(x, y) = (x, -y) conjugates H_{c,a} to
    H_{c,-a}, and the torus of -a is that of a with z -> -z.  When lam is real (q = 1, 2)
    complex conjugation conjugates H_{c,a} to H_{conj c, conj a} and c(conj a) = conj c(a),
    so the cells conj(a) and -conj(a) take the result of a as well: the torus of conj(a)
    is the mirror image of that of a, with s -> -s and z -> conj z.  These moves keep the
    gaps and the separation in exact arithmetic only: a twin's own solve rounds otherwise,
    so it matches them to rounding, not bit for bit.  A window symmetric about 0 gives a
    grid symmetric about 0 bit for bit, so such a scan computes a quarter of its cells
    when lam is real and half of them otherwise.  On the axes (a real or imaginary) the
    mirror maps each torus to itself, so graph_transform solves only its fibers 0 .. n/2.
    The cells that take no twin's result are solved on _pool_map.
    """
    re_min, re_max, im_min, im_max = a_window
    if not all(abs(v) < 0.5 for v in a_window):  # refuses NaN bounds too
        raise PreconditionError("a window must stay inside |a| < 1/2")
    if n_iters < 2:
        raise PreconditionError(
            f"n_iters must be >= 2, got {n_iters}: the verdict compares the last two gaps")
    check_grid(n_iters, n_angles, disk_degree)
    # a bad p/q or t is refused here, not reported as UNKNOWN in every cell
    real_lam = make_params(p_over_q, t, 0).lam.imag == 0
    grid = [[complex(re, im) for re in symmetric_axis(re_min, re_max, resolution)]
            for im in symmetric_axis(im_min, im_max, resolution)]
    owner = {}  # the first cell, in scan order, of each cell's twins
    for a in (a for row in grid for a in row):
        twins = (-a, a.conjugate(), -a.conjugate()) if real_lam else (-a,)
        owner[a] = next((owner[b] for b in twins if b in owner), a)
    owners = [a for a in dict.fromkeys(owner.values()) if 0 < abs(a) < 0.5]
    solved = dict(zip(owners, _pool_map(
        partial(_connectivity_cell, p_over_q, t, n_angles, n_iters, disk_degree), owners)))
    return [[replace(solved[owner[a]], a=a) if owner[a] in solved else
             ConnectivityCell(a=a, verdict="EXCLUDED", final_gap=float("nan"),
                              separation=float("nan"))
             for a in row] for row in grid]


def _connectivity_cell(p_over_q, t, n_angles, n_iters, disk_degree, a):
    try:
        result = torus_fixed_point(make_params(p_over_q, t, a), n_iters, n_angles, disk_degree)
    except (PreconditionError, NumericalError):
        return ConnectivityCell(a=a, verdict="UNKNOWN",
                                final_gap=float("nan"), separation=float("nan"))
    gaps, separation = result.gaps, result.torus.separation()
    floor = GAP_FLOOR_ULPS * np.spacing(np.max(np.abs(result.torus.node_values)))
    ok = (result.final_gap < GAP_TOL
          and gaps[-1] <= max(gaps[-2], floor)
          and separation > SEPARATION_FLOOR)
    return ConnectivityCell(a=a, verdict="CONNECTED-BY-CONSTRUCTION" if ok else "UNKNOWN",
                            final_gap=result.final_gap, separation=separation)
