import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import henonlab.henon as hn
import henonlab.series as ser
from henonlab import normalform2d as nf2
from henonlab import poly1d as p1
from henonlab.errors import PreconditionError
from henonlab.series import TruncSeries1, compose1, compose2, invert2


@pytest.fixture(scope="module")
def nf_q1():
    P = hn.make_params((1, 1), 0.05, 0.05)
    return P, nf2.reduce(P, D=8)


@pytest.fixture(scope="module")
def nf_q2():
    P = hn.make_params((1, 2), -0.02, 0.05)
    return P, nf2.reduce(P, D=10)


def test_wss_slope_is_eigenvector():
    P = hn.make_params((1, 1), 0.0, 0.1)
    w = nf2.wss_graph(P, 8)
    assert abs(w.coeffs[0]) == 0
    assert abs(w.coeffs[1] - P.nu / P.a) < 1e-10
    assert abs(w.coeffs[1] + P.a / P.lam) < 1e-10


def test_wss_degenerate_a_is_vertical_line():
    P = hn.make_params((1, 2), 0.05, 0.0)
    assert nf2.wss_graph(P, 8).max_abs() == 0.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(q=st.integers(1, 3), t_frac=st.floats(-0.9, 0.9), log_a=st.floats(-6, np.log10(0.45)),
       kind=st.sampled_from(["real", "imaginary", "complex"]), arg=st.floats(0, 2 * np.pi),
       D=st.integers(2, 18))
def test_wss_parametrization_is_invariant(q, t_frac, log_a, kind, arg, D):
    # H(K(s)) = K(nu s) through degree D, up to rounding on the scale of the terms
    a = 10**log_a * {"real": 1, "imaginary": 1j, "complex": np.exp(1j * arg)}[kind]
    P = hn.make_params((1, q), t_frac / (2 * q), a)
    K1, K2 = nf2.wss_parametrization(P, D)
    assert K2.coeffs[0] == 0 and K2.coeffs[1] == 1
    scaled = P.nu ** np.arange(D + 1)
    H1 = 2.0 * P.x_q * K1 + P.a * K2 + K1 * K1
    scale = max(1.0, K1.max_abs(), K2.max_abs())
    assert (H1 - TruncSeries1(K1.coeffs * scaled, D=D)).max_abs() < 1e-14 * scale
    assert (P.a * K1 - TruncSeries1(K2.coeffs * scaled, D=D)).max_abs() < 1e-14 * scale


def test_wss_invariance_rate():
    # points on the graph contract to the fixed point at rate |nu| +- 20%
    P = hn.make_params((1, 1), 0.0, 0.1)
    w = nf2.wss_graph(P, 10)
    for yv in (0.1, 0.05j, -0.08 + 0.03j):
        pt = (w(yv) + P.x_q, yv + P.a * P.x_q)
        d_prev = max(abs(pt[0] - P.q_fixed[0]), abs(pt[1] - P.q_fixed[1]))
        for _ in range(3):
            pt = hn.henon(P, pt)
            d = max(abs(pt[0] - P.q_fixed[0]), abs(pt[1] - P.q_fixed[1]))
            assert 0.8 * abs(P.nu) < d / d_prev < 1.2 * abs(P.nu)
            d_prev = d


def test_normal_form_shape(nf_q1):
    P, nf = nf_q1
    N1, N2 = nf.normal
    q = P.q
    assert abs(N1.coeff(1, 0) - P.lam) < 1e-12
    assert abs(N1.coeff(q + 1, 0) - P.lam) < 1e-10
    # no forbidden pure-x monomials (none exist for q=1 besides the slots)
    assert abs(N2.coeff(0, 1) - P.nu) < 1e-12
    # second component has no pure-y nonlinearities: nu y + x h(x, y)
    assert max(abs(N2.coeff(0, j)) for j in range(2, nf.D + 1)) < 1e-9
    # h(0,0) is O(a), not zero: the change keeps horizontal slices flat instead
    assert abs(N2.coeff(1, 0)) < 2 * abs(P.a)


@pytest.mark.parametrize("pq,t,D", [((1, 2), -0.02, 10), ((1, 3), 0.01, 14), ((2, 5), 0.01, 14)])
def test_normal_form_kill_list_q2(pq, t, D):
    # at y = 0 the non-resonant x^k, 2 <= k <= 2q+1, die; x^{q+1} carries lam
    # and x^{2q+1} carries lam C
    P = hn.make_params(pq, t, 0.05)
    nf = nf2.reduce(P, D=D)
    N1, q = nf.normal[0], P.q
    for k in range(2, 2 * q + 1):
        if k != q + 1:
            assert abs(N1.coeff(k, 0)) < 1e-9
    assert abs(N1.coeff(q + 1, 0) - P.lam) < 1e-9
    assert abs(N1.coeff(2 * q + 1, 0) - P.lam * nf.C_at) < 1e-12


@pytest.mark.parametrize("pq,most", [((1, 3), 36), ((2, 5), 52)])
def test_reduce_conjugates_once_per_move_group(monkeypatch, pq, most):
    # four compositions per group: straightening with linearization, step 1, one
    # shear per k of step 2, and all of step 3
    calls = []

    def counted(outer, inner):
        calls.append(1)
        return compose2(outer, inner)

    monkeypatch.setattr(nf2, "compose2", counted)
    nf2.reduce(hn.make_params(pq, 0.01, 0.05), D=14)
    assert len(calls) <= most


@pytest.mark.parametrize("pq,D,most", [((1, 1), 6, 10), ((1, 3), 10, 30), ((2, 5), 14, 50)])
def test_reduce_composes_one_variable_jets_sparingly(monkeypatch, pq, D, most):
    # W^ss and its linearizing coordinate come from one parametrization, so the
    # first move costs one invert1 and one compose1; step 3 the rest
    calls = []

    def counted(outer, inner):
        calls.append(1)
        return compose1(outer, inner)

    for module in (ser, nf2, p1):
        monkeypatch.setattr(module, "compose1", counted)
    nf2.reduce(hn.make_params(pq, 0.01, 0.05), D=D)
    assert len(calls) <= most


@pytest.mark.parametrize("a", [1e-5, 5e-5, 1e-4, 2e-4, 1e-3])
def test_first_move_linearizes_along_wss_at_small_a(a):
    # the second component on {x = 0} is exactly nu y, however small nu = -a^2/lambda
    P = hn.make_params((1, 1), 0.05, a)
    column = nf2.reduce(P).normal[1].coeffs[0, :].copy()
    column[1] -= P.nu
    assert np.max(np.abs(column)) <= 1e-12 * abs(P.nu)


def test_conjugacy_residual(nf_q1, nf_q2):
    for P, nf in (nf_q1, nf_q2):
        assert nf2.conjugacy_residual(P, nf) < 1e-8


@pytest.mark.parametrize("pq,t", [((1, 1), 0.05), ((1, 2), -0.02), ((1, 3), 0.01), ((2, 5), 0.01)])
@pytest.mark.parametrize("a", [0.1, 0.05 + 0.1j, 0.45])
def test_steps_1_and_2_leave_the_low_rows_constant_in_y(pq, t, a):
    # the rows x^1 .. x^{2q+1} of the first component carry no y after reduce,
    # up to rounding on the scale of the largest coefficient (5.8e3 at 2/5, a = 0.45)
    P = hn.make_params(pq, t, a)
    nf = nf2.reduce(P)
    N1 = nf.normal[0].coeffs
    worst = max(np.max(np.abs(N1[k, 1 : nf.D + 1 - k])) for k in range(1, 2 * P.q + 2))
    assert worst < 1e-12 * np.max(np.abs(N1))


def test_change_is_horizontal_and_triangular(nf_q1):
    P, nf = nf_q1
    c1, c2 = nf.change
    # second component depends on y alone
    assert max(abs(c2.coeff(i, j)) for i in range(1, nf.D + 1)
               for j in range(nf.D + 1 - i)) < 1e-10
    assert abs(c1.coeff(0, 0)) == 0 and abs(c2.coeff(0, 0)) == 0
    assert abs(c1.coeff(1, 0) - nf.rescale) < 1e-12
    assert abs(c2.coeff(0, 1) - 1.0) < 1e-12
    assert abs(nf.rescale) > 0.1


def test_degenerate_a_matches_1d():
    P = hn.make_params((1, 2), 0.05, 0.0)
    nf = nf2.reduce(P, D=8)
    _, n1, C1 = p1.normal_form_1d(P.poly, D=8)
    diff = max(abs(nf.normal[0].coeff(k, 0) - n1.coeffs[k]) for k in range(9))
    assert diff < 1e-10
    assert nf.normal[1].max_abs() == 0.0
    assert abs(nf.C_at - C1) < 1e-10


def test_small_a_limit_matches_1d():
    for pq, t in [((1, 1), 0.05), ((1, 2), -0.02)]:
        P = hn.make_params(pq, t, 1e-5)
        nf = nf2.reduce(P)
        _, n1, _ = p1.normal_form_1d(P.poly)
        diff = max(abs(nf.normal[0].coeff(k, 0) - n1.coeffs[k]) for k in range(nf.D + 1))
        assert diff < 1e-8


def test_reduce_rejects_bad_eigenvalues():
    P = hn.make_params((1, 1), 0.05, 0.05)
    object.__setattr__(P, "nu", 1.5 + 0j)
    with pytest.raises(PreconditionError):
        nf2.reduce(P)


def test_petal_labels_and_membership():
    R = nf2.petal_scale(2, 0.0)
    rng = np.random.default_rng(0)
    xs, js = nf2.sample_petal(rng, 500, 2, R)
    assert np.all(nf2.in_petal(xs, 2, R))
    assert np.all(nf2.petal_label(xs, 2) == js)


@pytest.mark.parametrize("pq,t", [((1, 1), 0.04), ((1, 2), 0.008),
                                  ((1, 3), 0.0012), ((2, 5), 4e-5)])
def test_petal_rotation_combinatorics(pq, t):
    # one Henon step advances the petal label by p mod q; the admissible t
    # shrinks fast with q (rotation bound vs chart size)
    P = hn.make_params(pq, t, 0.03)
    nf = nf2.reduce(P)
    rep = nf2.petal_check(P, nf, samples=200, steps=0, seed=4, tol=1e-6)
    assert not rep.rotation_failures


def test_petal_scale_rejects_large_t_at_q2():
    with pytest.raises(PreconditionError, match="petal"):
        nf2.petal_scale(2, 0.04)


def test_petal_scale_where_the_rotation_bound_rounds_away():
    # (1 + 1e-17)^1 rounds to 1: the bound divided by g - 1 = 0
    assert nf2.petal_scale(1, 1e-17) == nf2.petal_scale(1, 0.0)


def test_trapping_t_positive():
    P = hn.make_params((1, 1), 0.05, 0.05)
    nf = nf2.reduce(P, D=10)
    rep = nf2.petal_check(P, nf, samples=300, steps=450, tol=1e-6, seed=2)
    assert rep.passed
    assert rep.max_final_distance < 1e-6
    assert len(rep.rows) == 300


def test_trapping_t_zero_checks_rotation_only():
    P = hn.make_params((1, 1), 0.0, 0.05)
    nf = nf2.reduce(P, D=10)
    rep = nf2.petal_check(P, nf, samples=300, seed=2, steps=500, tol=1e-6)
    assert not rep.rotation_failures
    assert not rep.rows and rep.max_final_distance == 0.0  # no orbit was run out


def test_trapping_t_negative_reaches_origin_at_derived_threshold():
    # |lambda_t| = 0.99 forces ~0.99^n decay: after 500 steps the honest
    # bound from the sampled region is about 6e-4, which is what we assert
    P = hn.make_params((1, 2), -0.01, 0.05)
    nf = nf2.reduce(P, D=10)
    rep = nf2.petal_check(P, nf, samples=300, steps=500, tol=1e-3, seed=2)
    assert not rep.rotation_failures
    assert not rep.attraction_failures
    assert rep.max_final_distance < 1e-3


@pytest.mark.parametrize("pq,t,a,D", [((1, 1), 0.05, 0.05, 10), ((1, 2), -0.02, 0.05, 12),
                                      ((1, 3), 0.01, 0.1, 14), ((2, 5), 0.01, 0.05, 14)])
def test_accumulated_inverse_matches_generic_inverse(pq, t, a, D):
    # reduce() builds change_inv from the closed-form inverse of each move;
    # the degree-by-degree invert2 of the final change is the oracle
    P = hn.make_params(pq, t, a)
    nf = nf2.reduce(P, D=D)
    G = invert2(nf.change)
    assert max((G[k] - nf.change_inv[k]).max_abs() for k in (0, 1)) < 1e-10


def test_chart_round_trip(nf_q1, nf_q2):
    rng = np.random.default_rng(5)
    for P, nf in (nf_q1, nf_q2):
        xn = 0.05 * (rng.uniform(-1, 1, 50) + 1j * rng.uniform(-1, 1, 50))
        yn = 0.05 * (rng.uniform(-1, 1, 50) + 1j * rng.uniform(-1, 1, 50))
        X, Y = nf.from_normalized(xn, yn)
        back = nf.to_normalized(X, Y)
        assert np.max(np.abs(back[0] - xn)) < 1e-9
        assert np.max(np.abs(back[1] - yn)) < 1e-9


# C_at recorded from a reduce() that conjugated by the generic invert2 at every
# move and multiplied through scipy's convolve2d: an independent record of the
# certificate, to 1e-12 relative
SEED_C_AT = [
    ((1, 1), 0.05, 0.05, 0.005227305452927139 + 0j),
    ((1, 2), -0.02, 0.05, -1.299660162551204 - 4.696016981489037e-16j),
    ((1, 3), 0.01, 0.1, -3.2439334612156534 - 0.013674179903707473j),
]


@pytest.mark.parametrize("pq,t,a,C_at", SEED_C_AT)
def test_C_at_matches_recorded_values(pq, t, a, C_at):
    nf = nf2.reduce(hn.make_params(pq, t, a))
    assert abs(nf.C_at - C_at) <= 1e-12 * abs(C_at)


def test_reduce_q5_is_fast():
    P = hn.make_params("2/5", 0.01, 0.05)
    start = time.perf_counter()
    nf2.reduce(P, D=14)
    assert time.perf_counter() - start < 1.0
