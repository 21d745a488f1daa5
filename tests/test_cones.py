import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import henonlab.henon as hn
from henonlab import cones
from henonlab import normalform2d as nf2
from henonlab.errors import PreconditionError
from henonlab.poly1d import EPS1, green


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
        cones.sector_samples(P, 10)


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
    assert rep.extras["n_at"] < 3 * abs(P.a) + 1e-12


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
    return P, cones.global_cone_check(P, sample_count=2000, seed=2)


def test_global_vertical_floor(global_pass):
    P, rep = global_pass
    assert rep.worst_v_expansion >= 0.95 / abs(P.a)
    assert rep.extras["vertical_ok"]


def test_global_pass_and_stability(global_pass):
    P, rep = global_pass
    assert rep.verdict == "PASS"
    assert rep.worst_h_expansion > 1.001
    rep2 = cones.global_cone_check(P, sample_count=4000, seed=9)
    assert rep2.verdict == "PASS"
    assert rep2.worst_h_expansion > 1.001


def test_global_requires_nonzero_a():
    with pytest.raises(PreconditionError):
        cones.global_cone_check(hn.make_params((1, 1), 0.1, 0.0))


def test_vspec_overlap_guard():
    P = hn.make_params((1, 1), 0.1, 0.05)
    with pytest.raises(PreconditionError, match="overlap"):
        cones.global_cone_check(P, v_spec=cones.VSpec(rho_prime=0.6))


def test_nesting_in_small_a_regime():
    # tau below (rho/2)^{2q} nests inside the normalized cone at dB once
    # |a| is small; at desk |a| the measured ratio is reported instead
    for q, a in [(1, 0.002), (2, 0.0005)]:
        P = hn.make_params((1, q), 0.1, a)
        rep = cones.global_cone_check(P, sample_count=300, seed=5)
        assert rep.extras["tau_nest_below_paper_bound"]
        assert rep.extras["nesting_holds"]


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


def test_global_refuses_sample_count_below_one():
    P = hn.make_params((1, 1), 0.1, 0.05)
    for n in (0, -3):
        with pytest.raises(PreconditionError, match=f"sample count must be >= 1, got {n}"):
            cones.global_cone_check(P, sample_count=n)


def test_global_refuses_an_empty_region():
    # no draw in the radius-2.5 disk meets |2x| >= 6, so sampling would never end
    P = hn.make_params((1, 1), 0.1, 0.05)
    with pytest.raises(PreconditionError, match=r"among 104 draws: VSpec\(.*crit_strip=6\.0"):
        cones.global_cone_check(P, cones.VSpec(crit_strip=6.0), sample_count=10)


# ------------------------------------------------ in_V against its full-array form

def in_V_full(params, nf, vs, x, y, j_tree=None):
    """in_V as it ran before the narrowing: every test on every point."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    alpha = params.poly.alpha
    ok = (np.abs(y) <= vs.r) & (np.abs(2 * x) >= vs.crit_strip)
    G = green(params.poly, x, iters=80)
    ok &= G <= math.log(vs.R) / 2.0 + 1e-12
    if j_tree is None:
        j_tree = cones.julia_slice_tree(params)
    d, _ = j_tree.query(np.column_stack([x.real.ravel(), x.imag.ravel()]))
    ok &= (G > 0) | (d.reshape(x.shape) <= vs.collar)
    in_B = np.abs(x - alpha) <= vs.rho_prime
    xn, _ = nf.to_normalized(x, y)
    ok &= ~in_B | cones.in_repelling_sector(params, xn, vs.rho)
    hx, hy = hn.henon(params, (x, y))
    in_Bp = (np.abs(hx - alpha) <= vs.rho_prime) & ~in_B & (np.abs(x) <= vs.r)
    hxn, _ = nf.to_normalized(hx, hy)
    ok &= ~in_Bp | cones.in_repelling_sector(params, hxn, vs.rho)
    return ok


@functools.lru_cache(maxsize=None)
def _v_setup(q, t):
    P = hn.make_params((1, q), t, 0.05)
    return P, nf2.reduce(P, D=2 * q + 8), cones.julia_slice_tree(P)


def _v_points(P, vs, n, seed):
    """n draws split over four groups: the sampling box of global_cone_check
    (with |y| up to 1.1 r), near alpha (tube B), near H^{-1}(B) (tube B')
    and near the critical strip."""
    rng = np.random.default_rng(seed)

    def disk(radius):
        return radius * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))

    alpha = P.poly.alpha
    y = disk(1.1 * vs.r)
    sign = np.where(rng.uniform(0, 1, n) < 0.5, -1.0, 1.0)
    pre_B = sign * np.sqrt(alpha + disk(1.2 * vs.rho_prime) - P.c - P.a * y)
    x = np.select([np.arange(n) % 4 == k for k in range(4)],
                  [disk(2.5), alpha + disk(1.2 * vs.rho_prime), pre_B,
                   disk(0.3 * vs.crit_strip) + 0.25 * vs.crit_strip])
    return x, y


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from([1, 2, 3]), t=st.sampled_from([-0.01, 0.0, 0.05]),
       layout=st.sampled_from(["0-d", "1-d", "2-d", "scalar y"]),
       n=st.integers(min_value=0, max_value=60), seed=st.integers(0, 2**32 - 1))
def test_in_V_matches_full_array_oracle(q, t, layout, n, seed):
    P, nf, tree = _v_setup(q, t)
    vs = cones.VSpec()
    x, y = _v_points(P, vs, max(n, 1), seed)
    if layout == "0-d":
        x, y = x[0], y[0]
    elif layout == "1-d":
        x, y = x[:n], y[:n]
    elif layout == "2-d":
        x, y = x[: n - n % 3].reshape(3, -1), y[: n - n % 3].reshape(3, -1)
    else:
        x, y = x[:n], y[0]
    got = cones.in_V(P, nf, vs, x, y, tree)
    want = in_V_full(P, nf, vs, x, y, tree)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("q,t", [(1, -0.01), (2, 0.0), (3, 0.05)])
def test_in_V_oracle_points_reach_both_tubes(q, t):
    # the drawn points make both tube tests decide: each tube holds points
    # that pass every other test, some kept by the chart and some rejected
    P, nf, tree = _v_setup(q, t)
    vs = cones.VSpec()
    x, y = _v_points(P, vs, 4000, 7)
    wide = dataclasses.replace(vs, rho=10.0)  # every point of a tube in its sector
    kept, kept_wide = in_V_full(P, nf, vs, x, y, tree), in_V_full(P, nf, wide, x, y, tree)
    in_B = np.abs(x - P.poly.alpha) <= vs.rho_prime
    in_Bp = (np.abs(hn.henon(P, (x, y))[0] - P.poly.alpha) <= vs.rho_prime) & ~in_B
    for tube in (in_B, in_Bp):
        assert np.any(kept & tube)
        assert np.any(kept_wide & ~kept & tube)
    assert np.array_equal(cones.in_V(P, nf, vs, x, y, tree), kept)


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
