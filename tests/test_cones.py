import numpy as np
import pytest

import henonlab.henon as hn
from henonlab import cones
from henonlab import normalform2d as nf2
from henonlab.errors import PreconditionError
from henonlab.poly1d import EPS1


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
