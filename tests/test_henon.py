import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import henonlab.henon as hn
from henonlab import lab
from henonlab import poly1d as p1
from henonlab.errors import PreconditionError


def test_curve_values_at_degenerate_a():
    P = hn.make_params((1, 1), 0.0, 0.0)
    assert abs(P.c - 0.25) < 1e-15
    assert abs(P.q_fixed[0] - 0.5) < 1e-15 and abs(P.q_fixed[1]) < 1e-15
    assert P.nu == 0
    P2 = hn.make_params((1, 2), 0.0, 0.0)
    assert abs(P2.c + 0.75) < 1e-12
    assert abs(P2.lam + 1.0) < 1e-12
    assert abs(P2.x_q + 0.5) < 1e-12


def test_eigenvalues_small_a():
    P = hn.make_params((1, 1), 0.0, 0.1)
    e1, e2 = hn.fixed_point_eigenvalues(P)
    assert abs(e1 - 1.0) < 1e-10
    assert abs(e2 + 0.01) < 1e-10


def test_curve_and_eigen_identities_random():
    rng = np.random.default_rng(1)
    for _ in range(200):
        q = int(rng.integers(1, 4))
        t = float(rng.uniform(-0.9, 0.9) / (2 * q))
        a = rng.uniform(0.0, 0.49) * np.exp(2j * np.pi * rng.uniform())
        P = hn.make_params((1, q), t, a)
        assert abs(P.c - P.c_t - a * a * P.w) < 1e-12
        e1, e2 = hn.fixed_point_eigenvalues(P)
        assert abs(e1 - P.lam) < 1e-10
        assert abs(e2 - P.nu) < 1e-10
        assert abs(abs(P.lam) * abs(P.nu) - abs(a) ** 2) < 1e-12


def test_make_params_range_checks():
    with pytest.raises(PreconditionError):
        hn.make_params((1, 2), 0.3, 0.1)
    with pytest.raises(PreconditionError):
        hn.make_params((1, 1), 0.1, 0.6)


def test_fixed_point_and_roundtrip():
    P = hn.make_params((1, 1), 0.0, 0.1)
    fp = P.q_fixed
    im = hn.henon(P, fp)
    assert abs(im[0] - fp[0]) + abs(im[1] - fp[1]) < 1e-12
    pt = (0.3, -0.2)
    rt = hn.henon_inv(P, hn.henon(P, pt))
    assert abs(rt[0] - pt[0]) + abs(rt[1] - pt[1]) < 1e-13


def test_inverse_requires_nonzero_a():
    P = hn.make_params((1, 1), 0.0, 0.0)
    with pytest.raises(PreconditionError, match="degenerate"):
        hn.henon_inv(P, (0.1, 0.2))


def test_degenerate_a_is_polynomial():
    P = hn.make_params((1, 1), 0.05, 0.0)
    x, y = hn.henon(P, (0.3 + 0.1j, 5.0))
    assert y == 0
    assert abs(x - ((0.3 + 0.1j) ** 2 + P.c)) < 1e-15


def test_jacobian_is_minus_a_squared():
    rng = np.random.default_rng(2)
    P = hn.make_params((1, 2), 0.05, 0.2 + 0.1j)
    for _ in range(100):
        pt = (rng.normal() + 1j * rng.normal(), rng.normal() + 1j * rng.normal())
        J = hn.dhenon(P, pt)
        det = J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0]
        assert abs(det + P.a**2) < 1e-12


def test_classify_forward():
    P = hn.make_params((1, 1), 0.0, 0.1)
    assert hn.escape_times(P, [10.0], [0.0], 100)[0] == 0
    assert hn.escape_times(P, [P.q_fixed[0]], [P.q_fixed[1]], 300)[0] == -1


def test_petal_point_is_bounded():
    # t > 0: a point near the attracting cycle stays bounded
    P = hn.make_params((1, 1), 0.05, 0.05)
    cyc = hn.attracting_cycle(P)
    assert hn.escape_times(P, [cyc[0, 0] + 1e-3], [cyc[0, 1]], 500)[0] == -1


def test_attracting_cycle_is_a_cycle():
    P = hn.make_params((1, 2), 0.05, 0.05)
    cyc = hn.attracting_cycle(P)
    assert cyc.shape == (2, 2)
    pt = (cyc[0, 0], cyc[0, 1])
    for _ in range(2):
        pt = hn.henon(P, pt)
    assert abs(pt[0] - cyc[0, 0]) + abs(pt[1] - cyc[0, 1]) < 1e-10
    assert hn.attracting_cycle(hn.make_params((1, 1), 0.05, 0.05)).shape == (1, 2)
    with pytest.raises(PreconditionError):
        hn.attracting_cycle(hn.make_params((1, 1), -0.05, 0.05))


@pytest.fixture(scope="module")
def degenerate_grid():
    P = hn.make_params((1, 1), 0.0, 0.0)
    return P, hn.jplus_slice(P, (-2, 2, -2, 2), 256, 80)


def test_jplus_degenerate_matches_green(degenerate_grid):
    P, grid = degenerate_grid
    axis = hn.symmetric_axis(-2, 2, 256)
    z = axis[None, :] + 1j * axis[:, None]
    gmask = p1.green(P.poly, z) > 0
    agreement = np.mean((grid.times >= 0) == gmask)
    assert agreement >= 0.99


def test_jplus_boundary_near_fixed_point():
    P = hn.make_params((1, 1), 0.05, 0.05)
    x0 = P.q_fixed[0]
    win = (x0.real - 0.2, x0.real + 0.2, x0.imag - 0.2, x0.imag + 0.2)
    grid = hn.jplus_slice(P, win, 128, 200)
    assert len(grid.boundary) >= 1


def test_escaped_fraction_monotone_in_max_iter():
    P = hn.make_params((1, 2), 0.05, 0.05)
    fracs = [np.mean(hn.jplus_slice(P, (-2, 2, -2, 2), 128, m).times >= 0)
             for m in (5, 20, 80)]
    assert fracs[0] <= fracs[1] <= fracs[2]


def test_jplus_resolution_cap():
    P = hn.make_params((1, 1), 0.0, 0.0)
    with pytest.raises(PreconditionError, match="resolution must be in 2 .. 8192, got 9000"):
        hn.jplus_slice(P, (-2, 2, -2, 2), 9000, 10)


def full_grid_escape_times(params, X, Y, max_iter):
    """Reference: every step tests V+ on the whole grid and updates the
    still-active entries, as escape_times did before it tested V+ once per
    block of steps."""
    X = np.array(X, dtype=complex)
    Y = np.array(np.broadcast_to(np.asarray(Y, dtype=complex), X.shape))
    times = np.full(X.shape, -1, dtype=int)
    active = np.ones(X.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(max_iter + 1):
            hit = active & hn.in_vplus(X, Y)
            times[hit] = n
            active &= ~hit
            if not active.any() or n == max_iter:
                break
            Xa, Ya = X[active], Y[active]
            X[active] = Xa * Xa + params.c + params.a * Ya
            Y[active] = params.a * Xa
    return times


def escape_times_without_warnings(*args):
    # a numpy overflow warning would reach the CLI's stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return hn.escape_times(*args)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(shape=st.sampled_from([(), (1,), (1, 1), (17,), (5, 3), (24, 24), (2, 3, 4)]),
       max_iter=st.sampled_from([0, 1, 2, 7, 40, 63, 64, 65, 120, 200]),
       q=st.integers(min_value=1, max_value=3),
       y_size=st.sampled_from([1.0, 1e3]),
       scalar_y=st.booleans(),
       start_in_vplus=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_escape_times_match_full_grid_reference(shape, max_iter, q, y_size, scalar_y,
                                                start_in_vplus, seed):
    # |y| up to 1e3 starts orbits in V-; entries sparse and late enough to
    # overflow inside a long block are the case of the next test
    rng = np.random.default_rng(seed)
    t = float(rng.uniform(-0.9, 0.9) / (2 * q))
    a = rng.uniform(0.0, 0.49) * np.exp(2j * np.pi * rng.uniform())
    P = hn.make_params((1, q), t, a)
    X = np.asarray(rng.uniform(-2.5, 2.5, shape) + 1j * rng.uniform(-2.5, 2.5, shape))
    y_shape = () if scalar_y else shape
    Y = y_size * (rng.uniform(-1.0, 1.0, y_shape) + 1j * rng.uniform(-1.0, 1.0, y_shape))
    if start_in_vplus:
        X.flat[0] = 1e3 * hn.FILTRATION_RADIUS
    got = escape_times_without_warnings(P, X, Y, max_iter)
    want = full_grid_escape_times(P, X, Y, max_iter)
    assert got.shape == shape
    assert np.array_equal(got, want)
    if start_in_vplus:
        assert got.flat[0] == 0


def test_escape_times_replays_late_entries_that_overflow_within_a_block():
    # points just right of the semi-parabolic fixed point x = 0.49875 escape
    # slowly, at steps 25 to 166 here; the entries are sparse enough for
    # the blocks to grow, so they land inside long blocks and overflow to
    # inf/nan before the block ends
    P = hn.make_params((1, 1), 0.0, 0.05)
    X = np.linspace(0.5, 0.55, 25) + 1e-5j
    got = escape_times_without_warnings(P, X, 0.0, 200)
    want = full_grid_escape_times(P, X, 0.0, 200)
    assert np.array_equal(got, want)
    assert got.max() > 2 * hn.BLOCK_CAP


def test_escape_times_stay_exact_off_the_family():
    # with c = -14 the point x = r = 3.5, y = 0 lies in V+ and maps to
    # x' = -1.75, outside it: V+ is not forward invariant, and a block test
    # would miss entries (7 of these 280 with blocks of up to 64 steps).
    # Orbits leaving the saddle fixed point x = -3.36 enter V+ after a quiet
    # stretch of up to ~19 steps, inside long blocks.
    a = 0.45
    P = dataclasses.replace(hn.make_params((1, 1), 0.0, a), c=-14.0 + 0.0j)
    b = 1 - a * a
    xf = (b - np.sqrt(b * b + 56)) / 2
    X = xf + np.logspace(-15, -2, 14)[:, None] * np.exp(2j * np.pi * np.arange(20) / 20)
    got = escape_times_without_warnings(P, X, a * xf, 60)
    assert np.array_equal(got, full_grid_escape_times(P, X, a * xf, 60))


def test_escape_times_refuses_negative_max_iter():
    P = hn.make_params((1, 1), 0.0, 0.1)
    with pytest.raises(PreconditionError, match="max_iter must be >= 0"):
        hn.escape_times(P, [10.0], [0.0], -1)


def full_grid_boundary(X, times):
    """Reference J+ cloud: X at the bounded cells with an escaped neighbour."""
    esc = np.pad(times >= 0, 1)
    near = esc[:-2, 1:-1] | esc[2:, 1:-1] | esc[1:-1, :-2] | esc[1:-1, 2:]
    return X[near & (times < 0)]


# ESCAPE_BLOCK as a function of the resolution: one row per block, three
# rows, and seven rows plus five orbits (7 divides none of the resolutions
# tested, so the last block is short)
ROW_BLOCKS = {"1row": lambda res: 1, "3rows": lambda res: 3 * res,
              "7rows": lambda res: 7 * res + 5}


def assert_slice_matches_full_grid(monkeypatch, block, P, window, res, max_iter,
                                   needs_edge=True):
    """Checks jplus_slice against the full-grid reference and returns the
    number of rows it stepped: res, or res - res//2 when it mirrored the rest."""
    if block is not None:
        monkeypatch.setattr(hn, "ESCAPE_BLOCK", ROW_BLOCKS[block](res))
    blocks = []
    escape_times = hn.escape_times

    def spy(params, X, *args):
        blocks.append(X)
        return escape_times(params, X, *args)

    monkeypatch.setattr(hn, "escape_times", spy)
    grid = hn.jplus_slice(P, window, res, max_iter)
    re_axis, im_axis = hn.symmetric_axis(*window[:2], res), hn.symmetric_axis(*window[2:], res)
    X = re_axis[None, :] + 1j * im_axis[:, None]
    # the blocks tile the stepped rows, the last ones, in order; a row left out
    # would leave its times as whatever np.empty found, which can equal them
    # by chance.  The times of the mirrored rows are checked against the reference.
    stepped = sum(len(b) for b in blocks)
    first = res - stepped
    assert first in (0, res // 2)
    rows = max(1, hn.ESCAPE_BLOCK // res)
    assert [len(b) for b in blocks] == [min(rows, res - i) for i in range(first, res, rows)]
    assert np.concatenate(blocks).tobytes() == X[first:].tobytes()
    times = full_grid_escape_times(P, X, 0.0, max_iter)
    assert np.array_equal(grid.times, times)
    edge = full_grid_boundary(X, times)
    assert grid.boundary.tobytes() == edge.tobytes()
    assert len(edge) > 0 or not needs_edge
    return stepped


@pytest.mark.parametrize("t,block", [pytest.param(t, None, id=str(t))
                                     for t in (0.0, 0.2, 0.1, 0.05, 0.025)]
                         + [pytest.param(0.05, b, id=f"0.05-{b}") for b in ROW_BLOCKS])
def test_jplus_slice_of_the_continuity_experiment_matches_full_grid_reference(
        monkeypatch, t, block):
    # c and a are real and the window is symmetric: half the rows are mirrored
    assert assert_slice_matches_full_grid(monkeypatch, block, hn.make_params((1, 1), t, 0.05),
                                          lab.DEFAULT_WINDOW, 200, 200) == 100


def test_jplus_slice_at_the_default_resolution_matches_full_grid_reference(monkeypatch):
    # res 400, the CLI's default, in the default blocks of 40 rows: 10 blocks
    # step the slice and 10 find its boundary.  At 1/3, t = 0 (c complex, no
    # mirror) 37 boundary cells have their one escaped neighbour across a block
    # edge, in a halo row; at 1/1 none has.
    assert assert_slice_matches_full_grid(monkeypatch, None, hn.make_params((1, 3), 0.0, 0.05),
                                          lab.DEFAULT_WINDOW, 400, 200) == 400


def _off_family():
    # c = -10 leaves V+ not forward invariant, so escape_times steps with
    # block cap 1; one step takes cells within ~1e-4 of x = -2.68612 near the
    # saddle (-2.79, -1.25), and many stay outside V+ for all 6 steps, so the
    # slice has boundary cells (78 at res 64)
    P = dataclasses.replace(hn.make_params((1, 1), 0.0, 0.45), c=-10.0 + 0.0j)
    return P, (-2.68612 - 1e-4, -2.68612 + 1e-4, -1e-4, 1e-4), 64, 6


# slices the continuity experiment does not build: complex a off the axes at
# q = 2, whole (131 boundary cells) and 2 x 2 (2 cells), and a slice off the family
OFF_ZERO_SLICES = {
    "q2": (hn.make_params((1, 2), 0.05, 0.2 - 0.1j), (-2, 2, -2, 2), 64, 120),
    "res2": (hn.make_params((1, 2), 0.05, 0.2 - 0.1j), (0, 3, -0.1, 0.1), 2, 120),
    "off-family": _off_family(),
}


@pytest.mark.parametrize("block", [None, *ROW_BLOCKS], ids=["default", *ROW_BLOCKS])
@pytest.mark.parametrize("case", OFF_ZERO_SLICES)
def test_jplus_slice_off_the_zero_slice_matches_full_grid_reference(monkeypatch, case, block):
    # the off-family slice (c and a real, a window symmetric in Im) is
    # mirrored and steps with block cap 1; the complex-c slices are not
    res = OFF_ZERO_SLICES[case][2]
    stepped = assert_slice_matches_full_grid(monkeypatch, block, *OFF_ZERO_SLICES[case])
    assert stepped == (res - res // 2 if case == "off-family" else res)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from([1, 2]), t=st.floats(-0.9, 0.9), a_abs=st.floats(0.01, 0.45),
       imaginary_a=st.booleans(), a_sign=st.sampled_from([1, -1]),
       center=st.floats(-1.0, 1.0),
       half_re=st.floats(0.05, 2.5), half_im=st.floats(0.05, 2.5),
       res=st.integers(min_value=2, max_value=41),
       max_iter=st.sampled_from([0, 1, 7, 64, 65, 150]),
       broken=st.sampled_from([None, "q3", "a off the axes", "window off the axis"]))
def test_jplus_slice_mirrors_half_the_rows_exactly_when_the_mirror_applies(
        q, t, a_abs, imaginary_a, a_sign, center, half_re, half_im, res, max_iter, broken):
    # C(x, y) = (conj x, e conj y) commutes with H when c is real and a is real
    # (e = 1) or imaginary (e = -1); it maps the slice y = 0 to itself, and
    # the grid when the window is symmetric in Im x.  Each `broken` case
    # breaks one of the three conditions, so every row is stepped.
    e, unit = (-1, 1j) if imaginary_a else (1, 1)
    q = 3 if broken == "q3" else q
    P = hn.make_params((1, q), t / (2 * q), a_sign * a_abs * unit)
    if broken == "a off the axes":  # off the family: c stays real, so only a breaks the mirror
        P = dataclasses.replace(P, a=P.a * np.exp(0.3j), c=complex(P.c.real, 0.0))
    im_lo = -half_im + (0.1 if broken == "window off the axis" else 0.0)
    window = (center - half_re, center + half_re, im_lo, half_im)
    assert (hn.mirror_sign(P) is not None) == (broken not in ("q3", "a off the axes"))
    assert hn.mirror_sign(P) in (None, e)
    with pytest.MonkeyPatch.context() as mp:
        stepped = assert_slice_matches_full_grid(mp, None, P, window, res, max_iter,
                                                 needs_edge=False)
    assert stepped == (res if broken else res - res // 2)


@pytest.mark.parametrize("w", [0.2, 2.2, 1e-3])
def test_symmetric_axis_is_antisymmetric_and_linspace_up_to_rounding(w):
    # np.linspace(-w, w, res) is not antisymmetric for most res (574 of the 800
    # points at res 800, w = 2.2); the mirror of jplus_slice and the twin
    # cells of connectivity_scan need a grid that is
    for res in range(2, 2050):
        axis = hn.symmetric_axis(-w, w, res)
        assert np.array_equal(axis, -axis[::-1])  # bit for bit, up to the sign of a zero
        assert np.max(np.abs(axis - np.linspace(-w, w, res))) <= 4 * np.spacing(w)
    for lo, hi in [(-0.1, 0.2), (0.0, 3.0), (-2.791, -2.789)]:
        for res in (2, 3, 799, 800):
            axis = hn.symmetric_axis(lo, hi, res)
            ulp = np.spacing(max(abs(lo), abs(hi)))
            assert np.max(np.abs(axis - np.linspace(lo, hi, res))) <= 4 * ulp


def test_jplus_slice_allocates_no_full_grid_array():
    # a res-800 continuity slice holds its int32 times (2.4 MiB) and one row
    # block's arrays (1.6 MiB): 4.1 MiB.  int64 times would add 2.4 MiB, a
    # full-grid bool 0.6 MiB each, and blocks of 65,536 orbits 4.9 MiB
    for t in (0.0, 0.1):
        P = hn.make_params((1, 1), t, 0.05)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]  # nonzero if tracing was already on
            tracemalloc.reset_peak()
            grid = hn.jplus_slice(P, lab.DEFAULT_WINDOW, 800, lab.CONTINUITY_ESCAPE_STEPS)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert grid.times.nbytes == 4 * 800**2
        assert peak <= grid.times.nbytes + 2.5 * 2**20, (t, peak)


# slices whose bounded orbits fall into an attracting fixed point: the other
# fixed point at q = 1, t > 0, and the fixed point (x_q, a x_q) where t < 0
TRAP_CASES = {
    "1/1 t=0.2": ((1, 1), 0.2, 0.05),
    "1/1 t=0.025": ((1, 1), 0.025, 0.05),
    "1/1 t=-0.05": ((1, 1), -0.05, 0.05),
    "1/2 t=-0.02 a=0.1": ((1, 2), -0.02, 0.1),
    "1/3 t=-0.05": ((1, 3), -0.05, 0.05),
    "1/1 t=0.2 a=0.2+0.1j": ((1, 1), 0.2, 0.2 + 0.1j),
}


@pytest.mark.parametrize("case", TRAP_CASES)
def test_jplus_slice_with_a_trap_matches_full_grid_reference(monkeypatch, case):
    P = hn.make_params(*TRAP_CASES[case])
    assert hn._trap(P.a, P.c) is not None
    assert_slice_matches_full_grid(monkeypatch, None, P, lab.DEFAULT_WINDOW, 120, 200)
    X = np.linspace(-1.5, 1.5, 61)[None, :] + 1j * np.linspace(-1.5, 1.5, 61)[:, None]
    got = escape_times_without_warnings(P, X, 0.1 - 0.05j, 150)
    assert np.array_equal(got, full_grid_escape_times(P, X, 0.1 - 0.05j, 150))
    assert (got < 0).sum() > 100


@pytest.mark.parametrize("case", TRAP_CASES)
def test_a_float_step_maps_the_trap_boundary_into_the_trap(case):
    # |v_x'| <= rho - rho (s - rho) on P; |v_y'| = |a| |v_x| meets the rim of
    # the y-disk where |v_x| = rho, so there a float step may leave P by
    # rounding, but not P grown by 1e-14, and the next step is inside P
    P = hn.make_params(*TRAP_CASES[case])
    xs, ys, rx, ry = hn._trap(P.a, P.c)
    slack = rx / hn.TRAP_FRACTION
    margin = rx * (slack - rx)
    rng = np.random.default_rng(7)
    u, w = np.exp(2j * np.pi * rng.uniform(size=(2, 3000)))
    inner = rng.uniform(size=3000)
    vx = np.concatenate([rx * u, rx * inner * u, rx * u])  # the two faces of dP and their rim
    vy = np.concatenate([ry * inner * w, ry * w, ry * w])
    x1, y1 = hn.henon(P, (xs + vx, ys + vy))
    assert np.all(np.abs(x1 - xs) <= rx - margin / 2)
    assert np.all(np.abs(y1 - ys) <= ry + 1e-14)
    x2, y2 = hn.henon(P, (x1, y1))
    assert np.all(np.abs(x2 - xs) < rx) and np.all(np.abs(y2 - ys) < ry)
    # P misses V+ by far
    assert abs(xs) + rx < 1


def test_no_trap_where_no_fixed_point_attracts():
    for pq in [(1, 1), (1, 2), (1, 3)]:  # t = 0: the multiplier has modulus 1
        P = hn.make_params(pq, 0.0, 0.05)
        assert hn._trap(P.a, P.c) is None
    P = dataclasses.replace(hn.make_params((1, 1), 0.0, 0.45), c=-10.0 + 0.0j)
    assert hn._trap(P.a, P.c) is None  # a saddle, as in the off-family slice


def test_the_trap_of_an_off_family_c_is_the_fixed_point_of_a_and_c(monkeypatch):
    P = dataclasses.replace(hn.make_params((1, 1), 0.1, 0.05), c=0.2 + 0.05j)
    xs, ys, rx, ry = hn._trap(P.a, P.c)
    assert abs(xs * xs + (P.a * P.a - 1) * xs + P.c) < 1e-15
    assert abs(xs - P.x_q) > 0.1 and ys == P.a * xs
    assert rx == pytest.approx(hn.TRAP_FRACTION * (1 - 2 * abs(xs) - abs(P.a) ** 2))
    assert ry == abs(P.a) * rx
    assert_slice_matches_full_grid(monkeypatch, None, P, lab.DEFAULT_WINDOW, 80, 200)


def test_trapped_orbits_leave_the_active_set(monkeypatch):
    # orbits near the attracting fixed point never enter V+; once they lie in
    # the trap they are dropped, and the loop ends long before max_iter.
    # Without the trap every block would test V+ until step 10^4.
    P = hn.make_params((1, 1), 0.2, 0.05)
    xs, ys, rx, ry = hn._trap(P.a, P.c)
    X = xs + 0.15 * np.exp(2j * np.pi * np.arange(50) / 50)  # y = a x* + 0.2: outside the trap
    sizes = []
    in_vplus = hn.in_vplus

    def spy(x, y):
        sizes.append(np.size(x))
        return in_vplus(x, y)

    monkeypatch.setattr(hn, "in_vplus", spy)
    times = hn.escape_times(P, X, ys + 0.2, 10_000)
    assert np.all(times == -1)
    assert len(sizes) < 20 and sizes[0] == 50


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(q=st.integers(min_value=1, max_value=3), t=st.floats(-0.999, 0.999),
       a_abs=st.floats(0.0, 0.499), a_arg=st.floats(0.0, 1.0),
       x_abs=st.floats(0.0, 1e6), x_arg=st.floats(0.0, 1.0),
       y_rel=st.floats(0.0, 1.0), y_arg=st.floats(0.0, 1.0))
def test_vplus_is_forward_invariant_on_the_family(q, t, a_abs, a_arg, x_abs, x_arg,
                                                  y_rel, y_arg):
    # escape_times tests V+ once per block on the strength of this step, here
    # on V+ = {|x| >= max(|y|, r)} for any r > 3
    r = 3 + 1e-9

    def in_vplus(x, y):
        return abs(x) >= max(abs(y), r)

    P = hn.make_params((1, q), t / (2 * q), a_abs * np.exp(2j * np.pi * a_arg))
    assert abs(P.c) <= 9 / 4
    x = (r + x_abs) * np.exp(2j * np.pi * x_arg)
    y = y_rel * abs(x) * np.exp(2j * np.pi * y_arg)
    assume(in_vplus(x, y))
    x1, y1 = hn.henon(P, (x, y))
    assert in_vplus(x1, y1)
    assert abs(x1) >= abs(x) + 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from([1, 2]), t=st.floats(-0.999, 0.999),
       re=st.floats(-0.35, 0.35), im=st.floats(-0.35, 0.35))
def test_params_of_conjugate_a_are_conjugate_when_lam_is_real(q, t, re, im):
    # == on floats is bit for bit up to the sign of a zero; the connectivity
    # scan relies on it to reuse the cell of a for conj(a)
    a, t = complex(re, im), t / (2 * q)
    P, Q = hn.make_params((1, q), t, a), hn.make_params((1, q), t, a.conjugate())
    for name in ("lam", "c", "x_q", "nu", "w"):
        assert getattr(Q, name) == getattr(P, name).conjugate(), name
