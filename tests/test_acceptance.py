"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Criterion 5's contraction-to-origin half is expected
red: the attracting eigenvalue 0.99 cannot reach 1e-6 from the sampled
region within 500 steps (see the repository notes)."""

import time

import numpy as np
import pytest

import henonlab.henon as hn
from henonlab import cli, cones, lab
from henonlab import normalform2d as nf2
from henonlab import poly1d as p1
from henonlab import torus as tor


def report(n, ok, detail):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_acceptance_1_curve_identities():
    start = time.time()
    rng = np.random.default_rng(42)
    worst_curve, worst_eig = 0.0, 0.0
    for _ in range(200):
        q = int(rng.integers(1, 4))
        t = float(rng.uniform(-0.9, 0.9) / (2 * q))
        a = rng.uniform(0, 0.49) * np.exp(2j * np.pi * rng.uniform())
        P = hn.make_params((1, q), t, a)
        worst_curve = max(worst_curve, abs(P.c - P.c_t - a * a * P.w))
        e1, e2 = hn.fixed_point_eigenvalues(P)
        worst_eig = max(worst_eig, abs(e1 - P.lam), abs(e2 - P.nu))
    elapsed = time.time() - start
    ok = worst_curve < 1e-12 and worst_eig < 1e-10 and elapsed < 1.0
    assert report(1, ok, f"curve residual {worst_curve:.2e}, eigenvalue error "
                         f"{worst_eig:.2e}, {elapsed:.2f}s")


def test_acceptance_2_normal_form_1d():
    start = time.time()
    worst_forbidden, worst_resid = 0.0, 0.0
    for pq, t in [((1, 1), 0.0), ((1, 2), 0.0), ((1, 3), 0.0),
                  ((1, 1), 0.05), ((1, 2), -0.02)]:
        pp = p1.poly_params(pq, t)
        q = pp.q
        change, normal, _ = p1.normal_form_1d(pp)  # D = 2q+4, residual through 2q+3
        forb = [abs(normal.coeffs[k]) for k in range(2, 2 * q + 2) if k % q != 1 % q]
        worst_forbidden = max([worst_forbidden] + forb)
        worst_resid = max(worst_resid, p1.conjugacy_residual_1d(pp, change, normal))
    elapsed = time.time() - start
    ok = worst_forbidden < 1e-10 and worst_resid < 1e-10 and elapsed < 1.0
    assert report(2, ok, f"forbidden {worst_forbidden:.2e}, residual "
                         f"{worst_resid:.2e}, {elapsed:.2f}s")


def test_acceptance_3_normal_form_2d():
    start = time.time()
    worst_resid = 0.0
    worst_limit = 0.0
    for pq, t in [((1, 1), 0.05), ((1, 2), -0.02)]:
        P = hn.make_params(pq, t, 0.05)
        nf = nf2.reduce(P)
        worst_resid = max(worst_resid, nf2.conjugacy_residual(P, nf))
        Ps = hn.make_params(pq, t, 1e-5)
        nfs = nf2.reduce(Ps)
        _, n1, _ = p1.normal_form_1d(Ps.poly)
        diff = max(abs(nfs.normal[0].coeff(k, 0) - n1.coeffs[k])
                   for k in range(nfs.D + 1))
        worst_limit = max(worst_limit, diff)
    elapsed = time.time() - start
    ok = worst_resid < 1e-8 and worst_limit < 1e-8 and elapsed < 10.0
    assert report(3, ok, f"conjugacy residual {worst_resid:.2e}, a->0 gap "
                         f"{worst_limit:.2e}, {elapsed:.2f}s")


def test_acceptance_4_sector_constants():
    start = time.time()
    rng = np.random.default_rng(4)
    eps_ok = abs(p1.EPS1 - 0.6427876097) < 1e-9 and p1.EPS1 > 0.6
    worst_margin = np.inf
    for q in (2, 3):
        for t in (-0.01, -0.003):
            rt = abs(t) / ((q + 1 / 3) * p1.EPS1)
            xq = rng.uniform(rt, max(0.15**q, 3 * rt), 10000)
            worst_margin = min(worst_margin, float(np.min(
                cones.expansion_estimate_margin(q, t, xq))))
    elapsed = time.time() - start
    ok = eps_ok and worst_margin > 0 and elapsed < 1.0
    assert report(4, ok, f"eps1={p1.EPS1:.10f}, lemma margin {worst_margin:.2e}, "
                         f"{elapsed:.2f}s")


def test_acceptance_5_trapping():
    start = time.time()
    P1 = hn.make_params((1, 1), 0.05, 0.05)
    rep1 = nf2.petal_check(P1, nf2.reduce(P1, D=10), samples=1000,
                           steps=500, tol=1e-6, seed=11)
    P2 = hn.make_params((1, 2), -0.01, 0.05)
    rep2 = nf2.petal_check(P2, nf2.reduce(P2, D=12), samples=1000,
                           steps=500, tol=1e-6, seed=11)
    elapsed = time.time() - start
    ok1 = rep1.passed
    ok2 = rep2.passed
    detail = (f"t>0 cycle: {'ok' if ok1 else 'failed'} "
              f"(max dist {rep1.max_final_distance:.2e}); "
              f"t<0 origin: {'ok' if ok2 else 'failed'} "
              f"(max dist {rep2.max_final_distance:.2e}, rate |lam|=0.99 "
              f"needs ~1124 steps); {elapsed:.1f}s")
    assert report(5, ok1 and ok2 and elapsed < 30.0, detail)


def test_acceptance_6_cones():
    start = time.time()
    worst_gap = np.inf
    all_pass = True
    for q in (1, 2):
        for t in (-0.02, 0.0, 0.05):
            P = hn.make_params((1, q), t, 0.05)
            nf = nf2.reduce(P, D=2 * q + 8)
            rep = cones.local_cone_check(P, nf, cones.sector_samples(P, 10000, seed=6))
            all_pass &= rep.verdict == "PASS"
            required = 0.95 * (1 + (q + 0.5) * p1.EPS1 * rep.extras["min_abs_xq"])
            worst_gap = min(worst_gap, rep.worst_h_expansion - required)
            all_pass &= not rep.invariance_failures
    Pg = hn.make_params((1, 1), 0.05, 0.05)
    glob = cones.global_cone_check(Pg, sample_count=4000, seed=6, nf=nf2.reduce(Pg))
    vert_ok = glob.worst_v_expansion >= 0.95 / abs(Pg.a)
    elapsed = time.time() - start
    ok = all_pass and worst_gap > 0 and vert_ok and elapsed < 60.0
    assert report(6, ok, f"local PASS x6, h margin over bound {worst_gap:.2e}, "
                         f"global vertical {glob.worst_v_expansion:.0f} >= "
                         f"{0.95/abs(Pg.a):.0f}, {elapsed:.1f}s")


def test_acceptance_7_graph_transform():
    start = time.time()
    P = hn.make_params((1, 1), 0.1, 0.05)
    res = tor.torus_fixed_point(P, 40, 2048, 8)
    gaps_ok = bool(np.all(np.diff(res.gaps[5:]) <= 1e-14))
    resid = tor.semiconjugacy_residual(P, res.torus, seed=0)
    resid_ok = resid < 10 * res.final_gap
    gamma = p1.caratheodory(P.poly, 2048, 60).loop
    rs = []
    avals = (0.02, 0.04, 0.08)
    for a in avals:
        Pa = hn.make_params((1, 1), 0.1, a)
        Ta = tor.torus_fixed_point(Pa, 40, 2048, 8).torus
        rs.append(tor.phi_oa2_residual(Pa, Ta, gamma))
    slope = float(np.polyfit(np.log(avals), np.log(rs), 1)[0])
    elapsed = time.time() - start
    ok = gaps_ok and resid_ok and 1.7 <= slope <= 2.3 and elapsed < 300.0
    assert report(7, ok, f"gaps non-increasing={gaps_ok}, residual {resid:.2e} "
                         f"< 10x gap {10*res.final_gap:.2e}, phiOa2 slope "
                         f"{slope:.2f}, {elapsed:.1f}s")


def test_acceptance_8_continuity():
    start = time.time()
    t_list = [0.2, 0.1, 0.05, 0.025]
    rj, rs = lab.continuity_experiment((1, 1), 0.05, t_list, resolution=800,
                                       n_angles=1024, n_iters=40, depth=12,
                                       disk_degree=tor.DISK_DEGREE)
    rd = lab.radial_demo((1, 1), t_list, N=2048, n_iters=48)
    elapsed = time.time() - start
    ok = (rj.strictly_decreasing and rs.strictly_decreasing
          and rd.strictly_decreasing and elapsed < 600.0)
    assert report(8, ok, f"J {['%.4f' % d for d in rj.distances]}, "
                         f"J+ {['%.4f' % d for d in rs.distances]}, "
                         f"radial {['%.4f' % d for d in rd.distances]}, "
                         f"{elapsed:.1f}s")


def test_acceptance_9_degenerate_limit():
    start = time.time()
    P = hn.make_params((1, 1), 0.1, 1e-3)
    T = tor.torus_fixed_point(P, 48, 2048, tor.DISK_DEGREE).torus
    cloud = tor.julia_from_sigma(P, T, depth=12)
    loop = p1.caratheodory(P.poly, 2048, 48).loop.values
    ref = np.column_stack([loop, np.zeros_like(loop)])  # J_poly x {0} in C^2
    d = lab.hausdorff(cloud, ref)
    elapsed = time.time() - start
    ok = d < 5e-2 and elapsed < 120.0
    assert report(9, ok, f"d_H(sigma cloud, J_poly x 0) = {d:.2e}, {elapsed:.1f}s")


def test_acceptance_10_determinism(tmp_path):
    start = time.time()
    outputs = []
    for run in (1, 2):
        out = str(tmp_path / f"radial{run}")
        assert cli.main(["radial-demo", "--pq", "1/1", "--t-list", "0.2,0.1",
                         "--angles", "1024", "--iters", "30", "--out", out]) == 0
        outputs.append((tmp_path / f"radial{run}.csv").read_bytes())
    same_radial = outputs[0] == outputs[1]
    outputs = []
    for run in (1, 2):
        out = str(tmp_path / f"torus{run}")
        assert cli.main(["torus-iterate", "--pq", "1/1", "--t", "0.1", "--a", "0.05",
                         "--angles", "512", "--iters", "20", "--out", out]) == 0
        outputs.append((tmp_path / f"torus{run}.csv").read_bytes())
    same_torus = outputs[0] == outputs[1]
    elapsed = time.time() - start
    ok = same_radial and same_torus
    assert report(10, ok, f"radial CSV identical={same_radial}, torus CSV "
                          f"identical={same_torus}, {elapsed:.1f}s")
