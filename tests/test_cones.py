import dataclasses
import functools
import math
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

import henonlab.henon as hn
from henonlab import cones
from henonlab import normalform2d as nf2
from henonlab.errors import PreconditionError
from henonlab.poly1d import EPS1, green
from henonlab.series import TruncSeries2


def _xy(z, k=1):
    """Complex points, or (n, k) rows of them, as the real rows (re, im, ...) a
    k-d tree takes."""
    return np.ascontiguousarray(z, dtype=complex).view(float).reshape(-1, 2 * k)


class VGeometry(NamedTuple):
    """The constants that fix V, as an argument of the in_V oracle."""

    r: float
    R: float
    tube: float
    rho: float
    collar: float
    crit_strip: float


V_GEOM = VGeometry(r=hn.FILTRATION_RADIUS, R=cones.BASE_RADIUS, tube=cones.TUBE_RADIUS,
                   rho=cones.SECTOR_RADIUS, collar=cones.COLLAR, crit_strip=cones.CRIT_STRIP)


@pytest.fixture(scope="module")
def nf_cache():
    cache = {}

    def get(pq, t, a, D=None):
        key = (pq, t, a, D)
        if key not in cache:
            P = hn.make_params(pq, t, a)
            cache[key] = (P, nf2.reduce(P, D=D or 2 * P.q + 8))
        return cache[key]

    return get


def test_parabolic_real_axis_expansion(nf_cache):
    # q=1, t=0, a=0, x=0.1: p~' = 1+2x = 1.2 beats the sector bound ~1.096
    P, nf = nf_cache((1, 1), 0.0, 0.0)
    rep = cones.local_cone_check(P, nf, np.array([[0.1 + 0j, 0j]]))
    assert abs(rep.worst_h_expansion - 1.2) < 1e-3
    assert rep.worst_h_expansion > 1 + 1.5 * EPS1 * 0.1
    assert rep.worst_v_expansion == cones.VERTICAL_SENTINEL
    assert rep.verdict == "PASS"


def test_degenerate_vertical_sentinel(nf_cache):
    P, nf = nf_cache((1, 1), 0.05, 0.0)
    grid = cones.sector_samples(P, 50, seed=1)
    rep = cones.local_cone_check(P, nf, grid)
    assert rep.worst_v_expansion == cones.VERTICAL_SENTINEL


def test_local_samples_outside_sector_rejected(nf_cache):
    P, nf = nf_cache((1, 1), 0.05, 0.05)
    with pytest.raises(PreconditionError, match="sector"):
        cones.local_cone_check(P, nf, np.array([[0.1j, 0j]]))


def test_sector_samples_respect_annulus():
    P = hn.make_params((1, 2), -0.02, 0.05)
    grid = cones.sector_samples(P, 500, seed=0)
    from henonlab.poly1d import repelling_inner_radius

    assert np.all(np.abs(grid[:, 0]) ** 2 > repelling_inner_radius(P))


def test_sector_samples_refuse_an_empty_sector():
    # q=3, t=-0.01: the inner radius 0.00467 exceeds the outer 0.15^3 = 0.003375,
    # so no sample can ever be accepted
    P = hn.make_params((1, 3), -0.01, 0.05)
    with pytest.raises(PreconditionError, match=r"0\.004667.*0\.003375"):
        cones.sector_samples(P, 10, seed=0)


def test_sector_samples_refuse_a_sector_too_thin_to_sample(monkeypatch):
    # q=3, t=-0.00723136: the inner radius is 8.4e-8 of itself below the outer
    # one, so a draw is kept with probability 1.6e-8 and 1000 samples need 6.4e10
    P = hn.make_params((1, 3), -0.00723136, 0.05)
    radii = r"0\.003374999716 and the outer radius rho\^q = 0\.003375"
    with pytest.raises(PreconditionError, match=radii + r", 1000 samples need about 6\.41e\+10"):
        cones.sector_samples(P, 1000, seed=0)
    # the refusal reads the sampler's own acceptance rate, measured here on 1e6 draws
    P = hn.make_params((1, 3), -0.006, 0.05)
    draws = hn.uniform_disk(np.random.default_rng(0), cones.SECTOR_RADIUS, 10**6)
    kept = np.mean(cones.in_repelling_sector(P, draws))
    monkeypatch.setattr(cones, "SECTOR_DRAW_BUDGET", 1.02 * 100 / kept)
    assert len(cones.sector_samples(P, 100, seed=0)) == 100
    monkeypatch.setattr(cones, "SECTOR_DRAW_BUDGET", 0.98 * 100 / kept)
    with pytest.raises(PreconditionError, match="too thin to sample"):
        cones.sector_samples(P, 100, seed=0)


@pytest.mark.parametrize("q,t", [(1, -0.02), (1, 0.0), (1, 0.05),
                                 (2, -0.02), (2, 0.0), (2, 0.05)])
def test_local_cone_check_passes(nf_cache, q, t):
    P, nf = nf_cache((1, q), t, 0.05)
    rep = cones.local_cone_check(P, nf, cones.sector_samples(P, 2000, seed=3))
    assert not rep.invariance_failures
    assert rep.worst_h_expansion > 1.0
    assert rep.worst_v_expansion > 1.0
    # measured expansion beats the sector bound pointwise
    assert rep.worst_h_margin >= 1.0


@pytest.mark.parametrize("q,t", [(1, -0.02), (1, 0.0), (1, 0.05),
                                 (2, -0.02), (2, 0.0), (2, 0.05)])
def test_normal_form_h_is_order_a_on_the_sector_samples(nf_cache, q, t):
    # the second normal component is nu y + x h(x, y) with h = O(a): both
    # partials of x h stay below 3 |a| where the local cone check samples
    P, nf = nf_cache((1, q), t, 0.05)
    x, y = cones.sector_samples(P, 2000, seed=3).T
    xh = nf.normal[1] - P.nu * TruncSeries2.var_y(nf.D)
    for partial in (xh.partial_x(), xh.partial_y()):
        assert np.max(np.abs(partial(x, y))) < 3 * abs(P.a) + 1e-12


def test_expansion_estimate_lemma():
    rng = np.random.default_rng(0)
    for q in (2, 3):
        for t in (-0.01, -0.003):
            rt = abs(t) / ((q + 1 / 3) * EPS1)
            xq = rng.uniform(rt, max(0.15**q, 3 * rt), 10000)
            assert np.all(cones.expansion_estimate_margin(q, t, xq) > 0)
    assert abs(cones.eps2(1) - 1 / 32) < 1e-15


def test_determinant_consistency(nf_cache):
    # h-expansion times v-contraction tracks |det DH| = |a|^2 up to cone slop
    P, nf = nf_cache((1, 1), 0.05, 0.05)
    rep = cones.local_cone_check(P, nf, cones.sector_samples(P, 500, seed=5))
    prod = rep.worst_h_expansion / rep.worst_v_expansion
    assert abs(P.a) ** 2 / 10 < prod < abs(P.a) ** 2 * 10


@pytest.fixture(scope="module")
def global_pass():
    P = hn.make_params((1, 1), 0.1, 0.05)
    return P, cones.global_cone_check(P, sample_count=2000, seed=2, nf=nf2.reduce(P))


def test_global_vertical_floor(global_pass):
    P, rep = global_pass
    assert rep.worst_v_expansion >= 0.95 / abs(P.a)
    assert rep.extras["vertical_ok"]


def test_global_pass_and_stability(global_pass):
    P, rep = global_pass
    assert rep.verdict == "PASS"
    assert rep.worst_h_expansion > 1.001
    rep2 = cones.global_cone_check(P, sample_count=4000, seed=9, nf=nf2.reduce(P))
    assert rep2.verdict == "PASS"
    assert rep2.worst_h_expansion > 1.001


def test_global_requires_nonzero_a():
    P = hn.make_params((1, 1), 0.1, 0.0)
    nf = nf2.reduce(P)
    with pytest.raises(PreconditionError, match="requires a != 0"):
        cones.global_cone_check(P, sample_count=10, seed=0, nf=nf)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(q=st.integers(1, 6), data=st.data())
def test_tube_B_misses_the_critical_point_and_the_nesting_aperture_stays_below_the_paper_bound(q, data):
    # on the family |alpha| = |1 + t|/2 > 1/4, so B never reaches x = 0; the
    # least |alpha| is at the family's edge t -> -1/(2q), checked every time
    p = data.draw(st.integers(0, q - 1))
    drawn = data.draw(st.floats(-0.5 / q, 0.5 / q, exclude_min=True, exclude_max=True))
    for t in (drawn, np.nextafter(-0.5 / q, 0)):
        P = hn.make_params((p, q), t, 0.05)
        assert abs(P.poly.alpha) > cones.TUBE_RADIUS
        assert 0 < cones.nest_aperture(P.q) < (cones.SECTOR_RADIUS / 2.0) ** (2 * P.q)


def test_nesting_in_small_a_regime():
    # tau below (rho/2)^{2q} nests inside the normalized cone at dB once
    # |a| is small; at desk |a| the measured ratio is reported instead
    for q, a in [(1, 0.002), (2, 0.0005)]:
        P = hn.make_params((1, q), 0.1, a)
        rep = cones.global_cone_check(P, sample_count=300, seed=5, nf=nf2.reduce(P))
        assert rep.extras["nesting_ratio_at_dB"] < 1


def test_hyperbolicity_scan_verdicts():
    cells = cones.hyperbolicity_scan((1, 1), [0.0, 0.05], [-0.05, 0.0, 0.05],
                                     local_samples=300, seed=1)
    by = {(c.t, c.a): c for c in cells}
    assert by[(0.0, 0.0)].verdict == "EXCLUDED"
    assert by[(0.05, 0.0)].verdict == "EXCLUDED"
    assert by[(0.0, 0.05)].verdict == "MARGINAL"
    assert by[(0.05, 0.05)].verdict == "PASS"
    # sign symmetry of verdicts in a
    for t in (0.0, 0.05):
        assert by[(t, 0.05)].verdict == by[(t, -0.05)].verdict


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.1, math.nan)])
def test_hyperbolicity_scan_refuses_non_finite_a(bad):
    with pytest.raises(PreconditionError, match="a values must all be finite"):
        cones.hyperbolicity_scan((1, 1), [0.05], [0.05, bad], local_samples=10)


def test_global_refuses_sample_count_below_one():
    P = hn.make_params((1, 1), 0.1, 0.05)
    nf = nf2.reduce(P)
    for n in (0, -3):
        with pytest.raises(PreconditionError, match=f"sample count must be >= 1, got {n}"):
            cones.global_cone_check(P, sample_count=n, seed=0, nf=nf)


def test_global_runs_down_to_the_least_a_inside_the_float_range(recwarn):
    # the backward frame's |eta| stays below 2r/|a|^3, which a0 puts at the float maximum
    a0 = (2 * hn.FILTRATION_RADIUS / np.finfo(float).max) ** (1 / 3)
    for a in (a0 * (1 + 1e-12), a0 * (1 + 1e-12) * np.exp(0.7j)):
        P = hn.make_params((1, 1), 0.05, a)
        rep = cones.global_cone_check(P, sample_count=300, seed=1, nf=nf2.reduce(P))
        assert np.isfinite(rep.worst_v_expansion) and rep.extras["vertical_ok"]
    P = hn.make_params((1, 1), 0.05, a0 * (1 - 1e-12))
    nf = nf2.reduce(P)
    with pytest.raises(PreconditionError, match=r"\|a\| = 3\.39e-103 is too small"):
        cones.global_cone_check(P, sample_count=300, seed=1, nf=nf)
    assert not recwarn.list


def test_local_measures_the_vertical_cones_down_to_the_least_a_inside_the_float_range(recwarn):
    # |xi_b|, |eta_b| < 4/|a|^2, which a0 puts at the float maximum.  Every
    # |a| below about 3e-7 took min |det| < 1e-13 for DH singular and reported
    # the sentinel without checking the vertical cones
    a0 = (4 / np.finfo(float).max) ** 0.5
    for a in (1e-7, 1e-100, a0 * (1 + 1e-12), a0 * (1 + 1e-12) * np.exp(0.7j)):
        P = hn.make_params((1, 1), 0.05, a)
        rep = cones.local_cone_check(P, nf2.reduce(P), cones.sector_samples(P, 300, seed=1))
        assert rep.verdict == "PASS"
        assert 1 < rep.worst_v_expansion * abs(a) ** 2 < 1.1  # ~ |lambda| / |a|^2
    P = hn.make_params((1, 1), 0.05, a0 * (1 - 1e-12))
    nf, grid = nf2.reduce(P), cones.sector_samples(P, 300, seed=1)
    with pytest.raises(PreconditionError, match=r"\|a\| = 1\.49e-154 is too small for the local"):
        cones.local_cone_check(P, nf, grid)
    # the scan read PASS there, from the horizontal cones alone
    [cell] = cones.hyperbolicity_scan((1, 1), [0.05], [1e-160], local_samples=10)
    assert cell.verdict == "EXCLUDED"
    assert not recwarn.list


def test_global_refuses_an_empty_region(monkeypatch):
    # no draw in the radius-2.5 disk meets |2x| >= 6, so sampling would never end
    monkeypatch.setattr(cones, "CRIT_STRIP", 6.0)
    P = hn.make_params((1, 1), 0.1, 0.05)
    with pytest.raises(PreconditionError, match=r"among 104 draws at t=0\.1, a=\(0\.05\+0j\)"):
        cones.global_cone_check(P, sample_count=10, seed=0, nf=nf2.reduce(P))


# ------------------------------------------------ in_V against its full-array form

def in_V_full(params, nf, x, y, j_sites=None, vs=V_GEOM):
    """in_V as it ran before the narrowing: every test on every point, on the
    geometry vs, with the unbounded k-d tree distance to the J sites."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    alpha = params.poly.alpha
    ok = (np.abs(y) <= vs.r) & (np.abs(2 * x) >= vs.crit_strip)
    G = green(params.poly, x)
    ok &= G <= math.log(vs.R) / 2.0 + 1e-12
    if j_sites is None:
        j_sites = cones.julia_slice_tree(params)
    d, _ = cKDTree(_xy(j_sites)).query(_xy(x))
    ok &= (G > 0) | (d.reshape(x.shape) <= vs.collar)
    in_B = np.abs(x - alpha) <= vs.tube
    xn, _ = nf.to_normalized(x, y)
    ok &= ~in_B | cones.in_repelling_sector(params, xn, vs.rho)
    hx, hy = hn.henon(params, (x, y))
    in_Bp = (np.abs(hx - alpha) <= vs.tube) & ~in_B & (np.abs(x) <= vs.r)
    hxn, _ = nf.to_normalized(hx, hy)
    ok &= ~in_Bp | cones.in_repelling_sector(params, hxn, vs.rho)
    return ok


@functools.lru_cache(maxsize=None)
def _v_setup(q, t):
    P = hn.make_params((1, q), t, 0.05)
    return P, nf2.reduce(P, D=2 * q + 8), cones.julia_slice_tree(P)


def _v_points(P, n, seed):
    """n draws split over four groups: the sampling box of global_cone_check
    (with |y| up to 1.1 r), near alpha (tube B), near H^{-1}(B) (tube B')
    and near the critical strip."""
    rng = np.random.default_rng(seed)
    vs = V_GEOM

    def disk(radius):
        return radius * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))

    alpha = P.poly.alpha
    y = disk(1.1 * vs.r)
    sign = np.where(rng.uniform(0, 1, n) < 0.5, -1.0, 1.0)
    pre_B = sign * np.sqrt(alpha + disk(1.2 * vs.tube) - P.c - P.a * y)
    x = np.select([np.arange(n) % 4 == k for k in range(4)],
                  [disk(2.5), alpha + disk(1.2 * vs.tube), pre_B,
                   disk(0.3 * vs.crit_strip) + 0.25 * vs.crit_strip])
    return x, y


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from([1, 2, 3]), t=st.sampled_from([-0.01, 0.0, 0.05]),
       layout=st.sampled_from(["0-d", "1-d", "2-d", "scalar y"]),
       n=st.integers(min_value=0, max_value=60), seed=st.integers(0, 2**32 - 1))
def test_in_V_matches_full_array_oracle(q, t, layout, n, seed):
    P, nf, sites = _v_setup(q, t)
    x, y = _v_points(P, max(n, 1), seed)
    if layout == "0-d":
        x, y = x[0], y[0]
    elif layout == "1-d":
        x, y = x[:n], y[:n]
    elif layout == "2-d":
        x, y = x[: n - n % 3].reshape(3, -1), y[: n - n % 3].reshape(3, -1)
    else:
        x, y = x[:n], y[0]
    got = cones.in_V(P, nf, x, y, sites)
    want = in_V_full(P, nf, x, y, sites)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("q,t", [(1, -0.01), (2, 0.0), (3, 0.05)])
def test_in_V_oracle_points_reach_both_tubes(q, t):
    # the drawn points make both tube tests decide: each tube holds points
    # that pass every other test, some kept by the chart and some rejected
    P, nf, sites = _v_setup(q, t)
    x, y = _v_points(P, 4000, 7)
    wide = V_GEOM._replace(rho=10.0)  # every point of a tube in its sector
    kept, kept_wide = in_V_full(P, nf, x, y, sites), in_V_full(P, nf, x, y, sites, wide)
    in_B = np.abs(x - P.poly.alpha) <= cones.TUBE_RADIUS
    in_Bp = (np.abs(hn.henon(P, (x, y))[0] - P.poly.alpha) <= cones.TUBE_RADIUS) & ~in_B
    for tube in (in_B, in_Bp):
        assert np.any(kept & tube)
        assert np.any(kept_wide & ~kept & tube)
    assert np.array_equal(cones.in_V(P, nf, x, y, sites), kept)


def _assert_reports_equal(got, want):
    for f in dataclasses.fields(cones.ConeReport):
        assert repr(getattr(got, f.name)) == repr(getattr(want, f.name)), f.name


@pytest.mark.parametrize("pq,t,a", [
    ((1, 1), 0.05, 0.05),                                        # README cone-check line
    ((1, 1), 0.0506888437030501, 0.0506888437030501),            # jets, seed 0
    ((1, 2), -0.020275537481220043, 0.0506888437030501),         # jets, seed 0
])
def test_global_cone_check_matches_full_array_in_V(monkeypatch, pq, t, a):
    P = hn.make_params(pq, t, a)
    nf = nf2.reduce(P, D=2 * P.q + 8)
    got = cones.global_cone_check(P, sample_count=10000, seed=0, nf=nf)
    monkeypatch.setattr(cones, "in_V", in_V_full)
    want = cones.global_cone_check(P, sample_count=10000, seed=0, nf=nf)
    _assert_reports_equal(got, want)


# ------------------------------------------------ nearest_within against the k-d tree

def _assert_nearest_matches_kd_tree(points, sites, reach):
    """nearest_within has the bits of the unbounded k-d tree distance cut at
    reach; returns both."""
    got = cones.nearest_within(points, sites, reach)
    k = 1 if sites.ndim == 1 else sites.shape[1]
    tree = cKDTree(_xy(sites, k))
    d = tree.query(_xy(points, k))[0]
    assert got.tobytes() == np.where(d <= reach, d, np.inf).tobytes()
    # the bounded query keeps d^2 < reach^2 only, so a distance that rounds to
    # reach may read inf there; every distance it keeps has the same bits
    bounded = tree.query(_xy(points, k), distance_upper_bound=reach)[0]
    kept = np.isfinite(bounded)
    assert got[kept].tobytes() == bounded[kept].tobytes()
    assert np.all(got[~kept & np.isfinite(got)] >= reach * (1 - 2.0**-51))
    return got, d


@st.composite
def _clouds(draw):
    """Sites with duplicates, points drawn freely, points at distance reach from
    a site, and points on the edges of nearest_within's cells, binned by the
    first coordinate.  The clouds are complex points, or (n, 2) rows whose
    second coordinate is drawn freely (a point at distance reach from a site
    keeps the site's); a tenth of the point sets are empty."""
    reach = draw(st.sampled_from([cones.COLLAR, 3.0, 0.37, 1e-3, 1e-9]))
    rows = draw(st.booleans())
    coord = st.one_of(st.floats(-2.5, 2.5), st.integers(-50, 50).map(lambda k: k * 0.05))
    row = st.tuples(coord, coord, coord, coord)
    sites = np.array(draw(st.lists(row, min_size=1, max_size=40)))
    sites = sites[draw(st.lists(st.integers(0, len(sites) - 1), min_size=len(sites),
                                max_size=len(sites) + 8))]
    free = np.array(draw(st.lists(row, max_size=40))).reshape(-1, 4)
    ring = np.array([[1, 0], [0, 1], [-1, 0], [0, -1], [0.6, 0.8], [-0.8, 0.6]]) * reach
    at = sites[draw(st.lists(st.integers(0, len(sites) - 1), max_size=6))]
    k = np.array(draw(st.lists(st.tuples(st.integers(-2, 60), st.integers(-2, 60)),
                               max_size=8))).reshape(-1, 2)
    lo = sites[:, :2].min(axis=0)
    side = max(reach * (1 + 2.0**-20),
               np.max(np.ptp(sites[:, :2], axis=0)) / math.sqrt(16 * len(sites)))
    edges = np.concatenate([lo + k * reach, lo + k * side])
    points = np.concatenate([free, (at[:, None, :] + np.pad(ring, ((0, 0), (0, 2)))).reshape(-1, 4),
                             np.pad(edges, ((0, 0), (0, 2)))])
    if draw(st.integers(0, 9)) == 0:
        points = points[:0]

    def complex_cloud(c):
        x = c[:, 0] + 1j * c[:, 1]
        return np.column_stack([x, c[:, 2] + 1j * c[:, 3]]) if rows else x

    return complex_cloud(points), complex_cloud(sites), reach


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cloud=_clouds(), pairs=st.sampled_from([1, 7, cones.NEAREST_PAIRS]))
def test_nearest_within_matches_kd_tree(cloud, pairs):
    points, sites, reach = cloud
    with mock.patch.object(cones, "NEAREST_PAIRS", pairs):  # 1: a block per point
        got, d = _assert_nearest_matches_kd_tree(points, sites, reach)
    if reach == 3.0:  # the density's clip cannot tell inf from a distance above 3
        assert np.clip(got, 0.15, 3.0).tobytes() == np.clip(d, 0.15, 3.0).tobytes()


@pytest.mark.parametrize("q,t", [(1, -0.01), (2, 0.0), (3, 0.05)])
def test_nearest_within_matches_kd_tree_on_the_cone_check_sites(q, t):
    P, nf, sites = _v_setup(q, t)
    z = hn.uniform_disk(np.random.default_rng(q), 2.5, 20000)
    near, _ = _assert_nearest_matches_kd_tree(z, sites, cones.COLLAR)
    assert 0 < np.isfinite(near).sum() < len(z)
    got, d = _assert_nearest_matches_kd_tree(
        z, cones._boundary_sites(P, nf, cones._critical_orbit(P)), 3.0)
    assert np.clip(got, 0.15, 3.0).tobytes() == np.clip(d, 0.15, 3.0).tobytes()


@pytest.mark.parametrize("q,t", [(1, -0.01), (2, 0.0), (3, 0.05)])
@pytest.mark.parametrize("pairs", [1, 7, cones.NEAREST_PAIRS])  # 1: a block per point
def test_boundary_density_matches_kd_tree_on_the_cone_check_sites(q, t, pairs):
    P, nf, _ = _v_setup(q, t)
    sites = cones._boundary_sites(P, nf, cones._critical_orbit(P))
    z = hn.uniform_disk(np.random.default_rng(q), 2.5, 2000 if pairs > 1 else 50)
    with mock.patch.object(cones, "NEAREST_PAIRS", pairs):
        got = cones._boundary_density(z, sites)
    d, _ = cKDTree(_xy(sites)).query(_xy(z))
    assert got.tobytes() == (1.0 / np.clip(d, 0.15, 3.0)).tobytes()


# ------------------------------ the blocked cone checks against their broadcast forms

def local_cone_check_full(params, nf, sample_grid, rho=0.15):
    """local_cone_check as it ran before the row blocks: the whole
    (samples x N_DIRECTIONS) frame at once."""
    pts = np.asarray(sample_grid, dtype=complex).reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    if not np.all(cones.in_repelling_sector(params, x, rho)):
        raise PreconditionError("sample outside the repelling sector")
    q = params.q
    N1, N2 = nf.normal
    J11 = N1.partial_x()(x, y)
    J12 = N1.partial_y()(x, y)
    J21 = N2.partial_x()(x, y)
    J22 = N2.partial_y()(x, y)
    e = cones.DIRECTION_FRAME[None, :]

    xi_p = J11[:, None] + J12[:, None] * e
    eta_p = J21[:, None] + J22[:, None] * e
    h_invariant = np.abs(xi_p) > np.abs(eta_p)
    h_norm = np.maximum(np.abs(xi_p), np.abs(eta_p))
    h_bound = np.abs(params.lam) * (1.0 + (q + 0.5) * EPS1 * np.abs(x) ** q)
    h_margin = h_norm / h_bound[:, None]

    x1 = N1(x, y)
    det = J11 * J22 - J12 * J21
    if float(np.min(np.abs(det))) < 1e-13:
        v_invariant = np.ones_like(h_invariant)
        worst_v = cones.VERTICAL_SENTINEL
    else:
        open_img = np.abs(x1) ** (2 * q)
        xi_b = (J22[:, None] * open_img[:, None] * e - J12[:, None]) / det[:, None]
        eta_b = (-J21[:, None] * open_img[:, None] * e + J11[:, None]) / det[:, None]
        v_invariant = np.abs(xi_b) < np.abs(x[:, None]) ** (2 * q) * np.abs(eta_b)
        v_norm = np.maximum(np.abs(xi_b), np.abs(eta_b)) / np.maximum(open_img[:, None], 1.0)
        worst_v = float(np.min(v_norm))

    bad = ~(h_invariant.all(axis=1) & v_invariant.all(axis=1))
    return cones.ConeReport(
        worst_h_expansion=float(np.min(h_norm)),
        worst_v_expansion=worst_v,
        invariance_failures=int(np.sum(bad)),
        worst_h_margin=float(np.min(h_margin)),
        extras={"min_abs_xq": float(np.min(np.abs(x) ** q))},
    )


def sample_V_minus_B_full(params, nf, sample_count, rng, j_sites):
    """The draw loop of global_cone_check before it tested quarters: every
    draw of a round is tested."""
    xs = np.empty(0, dtype=complex)
    ys = np.empty(0, dtype=complex)
    alpha = params.poly.alpha
    while len(xs) < sample_count:
        m = 4 * (sample_count - len(xs)) + 64
        x = hn.uniform_disk(rng, 2.5, m)
        y = hn.uniform_disk(rng, V_GEOM.r, m)
        keep = cones.in_V(params, nf, x, y, j_sites) & (np.abs(x - alpha) > V_GEOM.tube)
        if not len(xs) and not keep.any():
            raise PreconditionError(
                f"no sample of V - B among {m} draws at t={params.t}, a={params.a}")
        xs = np.append(xs, x[keep])
        ys = np.append(ys, y[keep])
    return xs[:sample_count], ys[:sample_count]


def global_cone_check_full(params, sample_count=2000, seed=0, nf=None):
    """global_cone_check as it ran before the row blocks and the quarter
    tests: every draw tested, the whole (samples x N_DIRECTIONS) frame at once,
    and the density at every sample from the unbounded k-d tree distance."""
    vs, tau = V_GEOM, cones.TAU
    if nf is None:
        nf = nf2.reduce(params)
    xs, ys = sample_V_minus_B_full(params, nf, sample_count, np.random.default_rng(seed),
                                   cones.julia_slice_tree(params))
    tree = cKDTree(_xy(cones._boundary_sites(params, nf, cones._critical_orbit(params))))

    def density(z):
        d, _ = tree.query(_xy(z))
        return 1.0 / np.clip(d, 0.15, 3.0)

    a = params.a
    e = cones.DIRECTION_FRAME[None, :]
    x1, _ = hn.henon(params, (xs, ys))
    sig0, sig1 = density(xs), density(x1)

    xi_p = 2.0 * xs[:, None] + a * e
    eta_p = a * np.ones_like(xi_p)
    h_inv = np.abs(xi_p) > np.abs(eta_p)
    h_exp_e = np.maximum(np.abs(xi_p), np.abs(eta_p))
    euclid_ok = np.min(h_exp_e, axis=1) > 1.0
    xi_w = 2.0 * xs[:, None] + a * (sig0[:, None] * e)
    h_exp_w = np.maximum(sig1[:, None] * np.abs(xi_w), np.abs(eta_p)) / sig0[:, None]
    weighted_ok = np.min(h_exp_w, axis=1) > 1.0

    xpre = ys / a
    valid = np.abs(2.0 * xpre) >= vs.crit_strip
    xi_b = np.full((len(xs), cones.N_DIRECTIONS), 1.0 / a, dtype=complex)
    eta_b = (tau * e - 2.0 * xpre[:, None] / a) / a
    v_inv = np.abs(xi_b) < tau * np.abs(eta_b)
    v_exp = np.maximum(np.abs(xi_b), np.abs(eta_b))
    v_inv_ok = v_inv.all(axis=1) | ~valid

    bad = ~(h_inv.all(axis=1) & v_inv_ok & (euclid_ok | weighted_ok))
    worst_h = float(np.min(np.where(euclid_ok, np.min(h_exp_e, axis=1),
                                    np.min(h_exp_w, axis=1))))
    worst_v = float(np.min(v_exp[valid])) if valid.any() else float("nan")

    tau_nest = min(0.005, 0.8 * (vs.rho / 2.0) ** (2 * params.q))
    nest_x = params.poly.alpha + vs.tube * np.exp(2j * math.pi * np.arange(64) / 64)
    nest_keep = cones.in_repelling_sector(params, nf.to_normalized(nest_x, np.zeros(64))[0],
                                          vs.rho * 1.5)
    nest_x = nest_x[nest_keep]
    nest_ratio = float("nan")
    if len(nest_x):
        c1, c2 = nf.change
        cx = nest_x - params.x_q
        cy = np.zeros_like(cx) - params.a * params.x_q
        d1x, d1y = c1.partial_x()(cx, cy), c1.partial_y()(cx, cy)
        d2x, d2y = c2.partial_x()(cx, cy), c2.partial_y()(cx, cy)
        xn = nf.to_normalized(nest_x, np.zeros_like(nest_x))[0]
        ph = cones.DIRECTION_FRAME[:, None]
        xi_t = d1x * tau_nest * ph + d1y
        eta_t = d2x * tau_nest * ph + d2y
        nest_ratio = float(np.max(np.abs(xi_t) / (np.abs(xn) ** (2 * params.q) * np.abs(eta_t))))

    return cones.ConeReport(
        worst_h_expansion=worst_h,
        worst_v_expansion=worst_v,
        invariance_failures=int(np.sum(bad)),
        worst_h_margin=worst_h,
        extras={
            "euclid_certified": int(np.sum(euclid_ok)),
            "weighted_certified": int(np.sum(weighted_ok & ~euclid_ok)),
            "vertical_skipped_preimage": int(np.sum(~valid)),
            "vertical_ok": worst_v >= 0.95 / abs(a),
            "nesting_ratio_at_dB": nest_ratio,
        },
    )


# global checks whose samples reach the weighted retry and fail; the last is the most
# retried of 370 parameter sets scanned (1,104 of 10,000 samples)
RETRY_PARAMS = [((1, 3), 0.05, 0.1), ((2, 5), 0.05, 0.05), ((1, 5), 0.09, 0.49)]
ORACLE_PARAMS = [
    ((1, 1), 0.05, 0.05),                                        # README cone-check line
    ((1, 1), 0.0506888437030501, 0.0506888437030501),            # jets, seed 0
    ((1, 2), -0.020275537481220043, 0.0506888437030501),         # jets, seed 0
    ((1, 1), 0.0, 0.05),                                         # marginal
]
# block edges: one sample, a block short by one, a block and one more, the jets count
ORACLE_COUNTS = [1, cones.CONE_BLOCK - 1, cones.CONE_BLOCK + 1, 10000]


@pytest.mark.parametrize("n", ORACLE_COUNTS)
@pytest.mark.parametrize("pq,t,a", ORACLE_PARAMS + [((1, 1), 0.05, 0.0)]  # a = 0: singular DH
                         + RETRY_PARAMS)
def test_local_cone_check_matches_broadcast_form(nf_cache, pq, t, a, n):
    P, nf = nf_cache(pq, t, a)
    grid = cones.sector_samples(P, n, seed=1)
    got = cones.local_cone_check(P, nf, grid)
    _assert_reports_equal(got, local_cone_check_full(P, nf, grid))
    assert (got.worst_v_expansion == cones.VERTICAL_SENTINEL) == (a == 0)


@pytest.mark.parametrize("n", ORACLE_COUNTS)
@pytest.mark.parametrize("pq,t,a", ORACLE_PARAMS + RETRY_PARAMS)
def test_global_cone_check_matches_broadcast_form(nf_cache, pq, t, a, n):
    P, nf = nf_cache(pq, t, a)
    got = cones.global_cone_check(P, sample_count=n, seed=0, nf=nf)
    _assert_reports_equal(got, global_cone_check_full(P, sample_count=n, seed=0, nf=nf))


@pytest.mark.parametrize("pq,t,a", RETRY_PARAMS)
def test_oracle_params_reach_the_weighted_retry(nf_cache, pq, t, a):
    # the density is computed only for the samples these send to the retry
    P, nf = nf_cache(pq, t, a)
    rep = cones.global_cone_check(P, sample_count=2000, seed=0, nf=nf)
    assert rep.extras["weighted_certified"] > 0 and rep.invariance_failures


def test_cone_checks_run_in_bounded_memory(nf_cache):
    # at 10,000 samples the broadcast forms peak near 17 MiB (local) and 21 MiB (global)
    import tracemalloc

    P, nf = nf_cache((1, 1), 0.0506888437030501, 0.0506888437030501)
    grid = cones.sector_samples(P, 10000, seed=0)
    cones.global_cone_check(P, sample_count=10, seed=0, nf=nf)  # warm-up: first-call allocations
    peaks = {}
    for name, run, bound in [
        ("local", lambda: cones.local_cone_check(P, nf, grid), 4e6),
        ("global", lambda: cones.global_cone_check(P, sample_count=10000, seed=0, nf=nf), 6e6),
    ]:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]  # nonzero if tracing was already on
            tracemalloc.reset_peak()
            run()
            peaks[name] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peaks[name] <= bound, (name, peaks[name])


@pytest.mark.parametrize("q,t", [(1, -0.01), (2, 0.0), (3, 0.05)])
def test_in_V_bounded_collar_query_at_the_collar_edge(q, t):
    # points whose nearest loop point lies at collar (1 +- k 2^-52): the
    # bounded query must decide the collar test as the unbounded one does
    P, nf, sites = _v_setup(q, t)
    tree = cKDTree(_xy(sites))
    vs = V_GEOM
    rng = np.random.default_rng(q)
    z = hn.uniform_disk(rng, 2.5, 40000)
    d, i = tree.query(_xy(z))
    sel = (d > vs.collar) & (d <= 2 * vs.collar)
    loop = sites[i[sel]]
    k = rng.integers(-8, 9, len(loop))
    # moving toward the nearest loop point keeps it nearest
    x = loop + (z[sel] - loop) * (vs.collar * (1 + k * 2.0**-52) / d[sel])
    x = np.concatenate([x, z[sel]])
    y = hn.uniform_disk(rng, vs.r, len(x))
    assert np.array_equal(cones.in_V(P, nf, x, y, sites), in_V_full(P, nf, x, y, sites))
    # the collar test decides on both sides within a few ulps of the collar
    dx, _ = tree.query(_xy(x))
    reach = (green(P.poly, x) == 0) & (np.abs(2 * x) >= vs.crit_strip)
    edge = reach & (np.abs(dx - vs.collar) <= 16 * 2.0**-52 * vs.collar)
    assert np.any(edge & (dx <= vs.collar)) and np.any(edge & (dx > vs.collar))


@pytest.mark.parametrize("R", [2.0, 1.2])  # acceptance about 18 % and 4 %
@pytest.mark.parametrize("n", [1, 37, 600])
def test_quarter_tests_keep_the_draws_of_the_full_loop(monkeypatch, R, n):
    # an acceptance below 1/4 needs more than one round of draws
    P, nf, sites = _v_setup(1, 0.05)
    monkeypatch.setattr(cones, "BASE_RADIUS", R)
    want = sample_V_minus_B_full(P, nf, n, np.random.default_rng(n), sites)
    draws = []
    monkeypatch.setattr(cones, "uniform_disk", lambda *args: draws.append(args[2]) or hn.uniform_disk(*args))
    got = cones._sample_V_minus_B(P, nf, n, np.random.default_rng(n), sites)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert len(got[0]) == n
    if n == 600:
        assert len(draws) >= 4  # two coordinates a round
