import math
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.spatial import cKDTree

import henonlab
import henonlab.henon as hn
from henonlab import cli, cones, io, lab
from henonlab import poly1d as p1
from henonlab import torus as tor
from henonlab.errors import NumericalError, PreconditionError
from henonlab.normalform2d import reduce


def cloud(pts):
    return np.asarray(pts, dtype=complex).reshape(-1, 2)


def test_hausdorff_identical_is_zero():
    A = cloud([[0, 0], [1, 1j]])
    assert lab.hausdorff(A, A) == 0.0
    z = np.exp(2j * math.pi * np.arange(300) / 300)
    A = cloud(np.column_stack([z, z * z])[np.arange(600) % 300])  # each point twice
    assert lab.hausdorff(A, A[::-1]) == 0.0


def test_hausdorff_point_pair():
    assert abs(lab.hausdorff(cloud([[0, 0]]), cloud([[1, 0]])) - 1.0) < 1e-15


def test_hausdorff_circle_sampling_bound():
    fine = np.exp(2j * math.pi * np.arange(10000) / 10000)
    coarse = np.exp(2j * math.pi * np.arange(1000) / 1000)
    d = lab.hausdorff(cloud(np.column_stack([fine, 0 * fine])),
                      cloud(np.column_stack([coarse, 0 * coarse])))
    assert d <= 2 * math.pi / 1000


def test_hausdorff_empty_cloud_rejected():
    with pytest.raises(PreconditionError):
        lab.hausdorff(cloud([[0, 0]]), np.zeros((0, 2), dtype=complex))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
@pytest.mark.parametrize("where", [(0, 0), (1, 1)])
def test_hausdorff_refuses_a_non_finite_coordinate(bad, where):
    # an inf point lies in no cell window, so the doubling reach would never resolve it
    A = cloud([[0, 0], [1, 1j], [2, 0]])
    A[where] = bad
    for pair in ((A, cloud([[0, 0]])), (cloud([[0, 0]]), A)):
        with pytest.raises(PreconditionError, match="non-finite coordinate"):
            lab.hausdorff(*pair)


def _kd_hausdorff(A, B, k=4):
    """The k-d tree oracle on the first k of the real rows (Re x, Im x, Re y, Im y)
    of (n, 2) complex rows, or (Re x, Im x) of planar points."""
    a, b = (np.ascontiguousarray(c).view(float).reshape(len(c), -1)[:, :k] for c in (A, B))
    return max(cKDTree(b).query(a)[0].max(), cKDTree(a).query(b)[0].max())


@pytest.mark.parametrize("A,B,want", [
    (cloud([[1, 1j]] * 5), cloud([[1, 1j], [4, 1j], [1, 5j]]), 4.0),  # coincident sites
    (cloud([[0, 0]] * 3), cloud([[0, 0]]), 0.0),                         # every point at 0
    (cloud([[0, 0]]), cloud([[3, 4j]]), 5.0),                            # single points
    (cloud([[0, 0]]), cloud([[0, 3 + 4j]]), 5.0),                        # apart in y alone
    (cloud([[0, 0], [1, 0]]), cloud([[1e6, 0], [1e6 + 1, 0]]), 1e6),     # far apart
    (cloud([[1e-300, 0]]), cloud([[-1e-300, 0]]), 0.0),  # (2e-300)^2 underflows in both
])
def test_hausdorff_degenerate_clouds(A, B, want):
    assert lab.hausdorff(A, B) == lab.hausdorff(B, A) == _kd_hausdorff(A, B) == want


def test_hausdorff_overflowing_distance_reads_inf_like_the_kd_tree():
    A, B = cloud([[0, 0]]), cloud([[1e200, 0], [0, 0]])
    with np.errstate(over="ignore"):
        assert lab.hausdorff(A, B) == _kd_hausdorff(A, B) == np.inf


@st.composite
def _cloud_pairs(draw, planar=None):
    """Two clouds in R^2 (planar complex points, or (n, 2) rows with y = 0) or
    R^4, with duplicate points, points of one cloud in the other, and the
    second cloud moved by up to 1e6 in x."""
    planar = draw(st.booleans()) if planar is None else planar
    r4 = not planar and draw(st.booleans())
    coord = st.one_of(st.floats(-2.5, 2.5), st.integers(-50, 50).map(lambda k: k * 0.05))

    def one():
        rows = np.array(draw(st.lists(st.tuples(coord, coord, coord, coord), min_size=1, max_size=30)))
        rows = rows[draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=len(rows) + 8))]
        y = rows[:, 2] + 1j * rows[:, 3] if r4 else np.zeros(len(rows))
        return np.column_stack([rows[:, 0] + 1j * rows[:, 1], y])

    A, B = one(), one()
    B = np.concatenate([B, A[draw(st.lists(st.integers(0, len(A) - 1), max_size=5))]])
    B[:, 0] += draw(st.sampled_from([0.0, 1e-9, 0.5, 3.0, 1e6]))
    return (A[:, 0], B[:, 0], 2) if planar else (A, B, 4 if r4 else 2)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(clouds=_cloud_pairs())
def test_hausdorff_matches_kd_tree(clouds):
    A, B, k = clouds
    want = _kd_hausdorff(A, B, k)
    assert np.float64(lab.hausdorff(A, B)).tobytes() == np.float64(want).tobytes()
    assert lab.hausdorff(A, A) == 0.0


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(clouds=_cloud_pairs(planar=True))
def test_hausdorff_of_planar_points_equals_that_of_rows_with_y_zero(clouds):
    # the zero column adds +0.0 to each squared sum, and moves neither the
    # largest coordinate nor the reach the search starts from
    A, B, _ = clouds
    rows = [np.column_stack([c, np.zeros_like(c)]) for c in (A, B)]
    assert np.float64(lab.hausdorff(A, B)).tobytes() == np.float64(lab.hausdorff(*rows)).tobytes()


@pytest.mark.parametrize("swap", [False, True])
def test_a_planar_cloud_against_rows_in_c2_is_refused(swap):
    # without the refusal, (n,) points against (m, 2) rows broadcast into wrong distances
    planar = np.array([0, 1 + 1j, 2])
    rows = cloud([[0, 0], [1 + 1j, 0]])
    pair = (rows, planar) if swap else (planar, rows)
    with pytest.raises(PreconditionError, match="points and sites of one column count"):
        lab.hausdorff(*pair)
    with pytest.raises(PreconditionError, match="points and sites of one column count"):
        cones.nearest_within(*pair, 1.0)
    with pytest.raises(PreconditionError, match="points and sites of one column count"):
        cones.nearest_within(pair[0][:0], pair[1], 1.0)  # no points to measure


def test_every_public_name_resolves():
    assert all(hasattr(henonlab, name) for name in henonlab.__all__)


def test_t_list_validation():
    with pytest.raises(PreconditionError):
        lab._check_t_list([0.1, 0.2], (1, 1))
    with pytest.raises(PreconditionError):
        lab._check_t_list([0.1, -0.05], (1, 1))
    with pytest.raises(PreconditionError):
        lab._check_t_list([0.1, 0.0], (1, 1))
    with pytest.raises(PreconditionError, match=r"\|t\| must be below 1/\(2q\) = 0.25"):
        lab._check_t_list([0.3, 0.1], (1, 2))
    assert lab._check_t_list([-0.2, -0.1], (1, 1)) == [-0.2, -0.1]


@pytest.mark.parametrize("argv", [
    ["radial-demo", "--pq", "1/1", "--t-list", "5,1"],
    ["continuity", "--pq", "1/1", "--t-list", "5,1"],
])
def test_t_list_outside_the_family_refused_before_the_reference(monkeypatch, capsys, tmp_path, argv):
    def never(*args, **kwargs):
        raise AssertionError("a t = 0 reference was built before the t list was checked")

    monkeypatch.setattr(lab, "caratheodory", never)
    monkeypatch.setattr(lab, "jplus_slice", never)
    assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 2
    assert "|t| must be below 1/(2q)" in capsys.readouterr().err


def test_radial_demo_monotone_both_signs():
    up = lab.radial_demo((1, 1), [0.2, 0.1, 0.05], N=1024, n_iters=40)
    assert up.strictly_decreasing
    down = lab.radial_demo((1, 2), [-0.2, -0.1, -0.05], N=1024, n_iters=40)
    assert down.strictly_decreasing


def test_radial_reference_distance_is_zero():
    ref = p1.caratheodory(p1.poly_params((1, 1), 0.0), 1024, 30).loop.values
    assert lab.hausdorff(ref, ref) == 0.0


def test_negative_control_shifted_reference():
    # distances to a translated reference must not tend to zero
    ref = p1.caratheodory(p1.poly_params((1, 1), 0.0), 1024, 40).loop.values
    shifted = ref + 0.3
    dists = []
    for t in (0.2, 0.1, 0.05):
        cur = p1.caratheodory(p1.poly_params((1, 1), t), 1024, 40).loop.values
        dists.append(lab.hausdorff(cur, shifted))
    assert min(dists) > 0.15


def test_connectivity_scan_small(tmp_path):
    w = 0.08
    cells = lab.connectivity_scan((1, 1), 0.1, (-w, w, -w, w), resolution=3,
                                  n_angles=256, n_iters=10)
    flat = {c.a: c for row in cells for c in row}
    assert flat[0j].verdict == "EXCLUDED"
    connected = [c for c in flat.values() if c.verdict == "CONNECTED-BY-CONSTRUCTION"]
    assert len(connected) >= 4
    # reflection symmetry of verdicts
    for c in flat.values():
        assert flat[-c.a].verdict == c.verdict
    cli._write_verdicts(tmp_path / "conn.pgm", cells, cli.CONNECTIVITY_LEVELS)
    assert (tmp_path / "conn.pgm").read_bytes().startswith(b"P5\n# henonlab v1\n3 3\n")


def _run_pool_here(monkeypatch):
    """Run the items handed to lab._pool_map serially in this process, so that
    a spy inside them records here and not in a worker's copy of its list."""
    monkeypatch.setattr(lab, "_pool_map", lambda fn, items: [fn(x) for x in items])


def _scan_calls(monkeypatch, window, res, pq=(1, 2)):
    """The cells of a scan whose tori are stubbed out, and the a of each
    cell that was computed, in order."""
    computed = []

    def stub(p_over_q, t, n_angles, n_iters, disk_degree, a):
        computed.append(a)
        return lab.ConnectivityCell(a=a, verdict="UNKNOWN", final_gap=len(computed),
                                    separation=1.0)

    _run_pool_here(monkeypatch)
    monkeypatch.setattr(lab, "_connectivity_cell", stub)
    cells = lab.connectivity_scan(pq, 0.1, window, resolution=res, n_angles=256, n_iters=10)
    return cells, computed


def _twins(a, q):
    """The other cells whose result the cell a may take: -a, and at q = 1, 2,
    where lam is real, conj(a) and -conj(a) too."""
    return {-a, a.conjugate(), -a.conjugate()} - {a} if q <= 2 else {-a}


@pytest.mark.parametrize("res", range(2, 34))
def test_connectivity_scan_computes_one_cell_per_pm_a_pair(monkeypatch, res):
    # at q = 3 one cell per pair {a, -a}; at q = 2, where lam is real, one
    # per orbit {a, -a, conj(a), -conj(a)}
    w = 0.2  # np.linspace(-w, w, res) is not antisymmetric for most res
    for q in (2, 3):
        cells, computed = _scan_calls(monkeypatch, (-w, w, -w, w), res, pq=(1, q))
        a = np.array([[c.a for c in row] for row in cells])
        # the grid is antisymmetric bit for bit and is np.linspace up to rounding
        assert np.array_equal(a, -a[::-1, ::-1])
        axis = np.linspace(-w, w, res)
        assert np.max(np.abs(a.real - axis[None, :])) <= 4 * np.spacing(w)
        assert np.max(np.abs(a.imag - axis[:, None])) <= 4 * np.spacing(w)
        flat = [c for row in cells for c in row]
        if q == 2:
            orbits = {frozenset({b, *_twins(b, q)}) for b in a.ravel() if b != 0}
            assert len(computed) == len(orbits)
        else:
            assert len(computed) == (res * res) // 2
        # a cell whose twin came first reuses it; every other nonzero cell is computed
        for i, c in enumerate(flat):
            if c.a == 0:
                assert c.verdict == "EXCLUDED"
            elif c.a in computed:
                assert not _twins(c.a, q) & set(computed)
            else:
                first = next(b for b in flat[:i] if b.a in _twins(c.a, q))
                assert (c.verdict, c.final_gap) == (first.verdict, first.final_gap)


def test_connectivity_scan_asymmetric_window_computes_every_cell(monkeypatch):
    cells, computed = _scan_calls(monkeypatch, (-0.1, 0.2, -0.15, 0.1), 5)
    assert computed == [c.a for row in cells for c in row]


@pytest.mark.parametrize("gaps,verdict", [
    ((1e-15, 7e-16, 1.5e-15), "CONNECTED-BY-CONSTRUCTION"),  # a rise at the rounding floor
    ((1e-15, 1e-15, 8e-15), "UNKNOWN"),                      # a rise above it
])
def test_connectivity_verdict_ignores_gap_rises_at_the_rounding_floor(monkeypatch, gaps, verdict):
    # constant fibers of size 3, where an ulp is 4.4e-16, whose half-turn
    # fibers 3 and -3 stand 6 apart
    torus = tor.SolidTorus(coeffs=[[3, 0, 0]] * 2 + [[-3, 0, 0]] * 2, level=3)
    result = tor.TorusResult(torus=torus, gaps=np.array(gaps))
    monkeypatch.setattr(lab, "torus_fixed_point", lambda *args: result)
    cells = lab.connectivity_scan((1, 2), 0.1, (0.1, 0.2, 0.1, 0.2), resolution=2,
                                  n_angles=256, n_iters=10)
    assert {c.verdict for row in cells for c in row} == {verdict}


def test_connectivity_scan_reused_cells_match_a_direct_solve():
    w = 0.15
    cells = lab.connectivity_scan((1, 2), 0.1, (-w, w, -w, w), resolution=4,
                                  n_angles=256, n_iters=12)
    flat = [c for row in cells for c in row]
    # a cell is reused when an earlier cell is one of its twins; the conj
    # twins of the first row sit in the first half of the grid
    reused = [(i, c) for i, c in enumerate(flat)
              if any(b.a in _twins(c.a, 2) for b in flat[:i])]
    assert len(reused) == 12 and any(i < len(flat) // 2 for i, _ in reused)
    assert {c.verdict for _, c in reused} == {"CONNECTED-BY-CONSTRUCTION", "UNKNOWN"}
    for _, c in reused:
        try:
            direct = tor.torus_fixed_point(hn.make_params((1, 2), 0.1, c.a), 12, 256,
                                           tor.DISK_DEGREE)
        except NumericalError:
            assert math.isnan(c.final_gap)
            continue
        assert abs(direct.final_gap - c.final_gap) < 1e-13
        assert abs(direct.torus.separation() - c.separation) < 1e-13


def test_connectivity_scan_window_guard():
    with pytest.raises(PreconditionError):
        lab.connectivity_scan((1, 1), 0.1, (-0.6, 0.6, -0.1, 0.1), resolution=9,
                              n_angles=256, n_iters=10)


@pytest.mark.parametrize("where", range(4))
def test_connectivity_scan_refuses_a_nan_window_bound(where):
    # a NaN fails every comparison, and Python's max keeps it or drops it by position
    window = [-0.1, 0.1, -0.1, 0.1]
    window[where] = math.nan
    with pytest.raises(PreconditionError, match="a window must stay inside"):
        lab.connectivity_scan((1, 1), 0.1, tuple(window), resolution=3, n_angles=256, n_iters=10)


def test_runconfig_roundtrip(tmp_path):
    cfg = cli.RunConfig(subcommand="continuity", pq="1/2", t=-0.017,
                        a_re=0.0375, a_im=1e-3, angles=512, iters=17,
                        t_list="0.2,0.1", out="somewhere")
    path = tmp_path / "run.cfg"
    cfg.to_file(path)
    back = cli.RunConfig.from_file(path)
    assert back == cfg
    assert back.a == complex(0.0375, 1e-3)
    assert back.p_over_q == (1, 2)
    assert back.ts == [0.2, 0.1]


def test_runconfig_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("nonsense=1\n")
    with pytest.raises(PreconditionError):
        cli.RunConfig.from_file(path)


def test_cli_exit_codes(tmp_path):
    out = str(tmp_path / "x")
    assert cli.main(["caratheodory", "--pq", "1/1", "--t", "0.1",
                     "--angles", "1024", "--iters", "10", "--out", out]) == 0
    # precondition: |a| >= 1/2
    assert cli.main(["torus-iterate", "--pq", "1/1", "--t", "0.1",
                     "--a", "0.7", "--out", out]) == 2
    # numerical: trapping tolerance unreachable in 3 steps
    assert cli.main(["petal-check", "--pq", "1/1", "--t", "0.05", "--a", "0.05",
                     "--samples", "50", "--iters", "3", "--tol", "1e-12",
                     "--out", out]) == 3


@pytest.mark.parametrize("pq,angles", [("1/1", 2), ("1/1", 4), ("1/2", 4)])
def test_cli_torus_iterate_refuses_a_torus_whose_half_turn_fibers_coincide(
        tmp_path, capsys, pq, angles):
    argv = ["torus-iterate", f"--pq={pq}", "--t=0.1", "--a=0.05", f"--angles={angles}",
            "--iters=5", "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 3
    assert "took the same preimage" in capsys.readouterr().err


@pytest.mark.parametrize("argv,cause", [
    (["caratheodory", "--pq=abc"], "rotation number"),
    (["caratheodory", "--pq=1/0"], "rotation number"),
    (["caratheodory", "--pq=1/1", "--t=nan"], "t must be a finite number"),
    (["normal-form", "--pq=1/1", "--t=nan"], "t must be a finite number"),
    # a non-finite a was refused as "|a| must be below 1/2, got a = (nan+0j)"
    (["torus-iterate", "--pq=1/1", "--t=0.1", "--a=nan"], "a must be a finite number"),
    (["cone-check", "--pq=1/3", "--t=-0.01", "--a=0.05", "--samples=100"],
     "repelling sector is empty"),
    (["caratheodory", "--config=missing.cfg"], "cannot read config file missing.cfg"),
    (["caratheodory", "--config=bad.cfg"], "config key angles: 'abc' is not a valid int"),
    (["torus-iterate", "--pq=1/1", "--t=0.1", "--angles=1000"],
     "n_angles must be a power of two >= 2, got 1000"),
    (["torus-iterate", "--pq=1/1", "--t=0.1", "--angles=0"],
     "n_angles must be a power of two >= 2, got 0"),
    (["torus-iterate", "--pq=1/1", "--t=0.1", "--angles=-4"],
     "n_angles must be a power of two >= 2, got -4"),
    (["torus-iterate", "--pq=1/1", "--t=0.1", "--degree=0"], "disk degree must be >= 1"),
    (["torus-iterate", "--pq=1/1", "--t=0.1", "--degree=-1"], "disk degree must be >= 1"),
    (["cone-check", "--pq=1/1", "--t=0.05", "--a=0.05", "--samples=0"],
     "sample count must be >= 1"),
    (["cone-check", "--pq=1/1", "--t=0.05", "--a=0.05", "--samples=-3"],
     "sample count must be >= 1"),
    (["continuity", "--pq=1/1", "--a=0.05", "--t-list=0.2,0.1", "--res=4"],
     "the J+ slice y=0 at t=0.0 has no boundary cell at resolution 4: raise --res"),
    (["continuity", "--pq=1/1", "--a=0.05", "--t-list=0.2,0.1", "--res=8"],
     "the J+ slices at t=0.2 and t=0 have the same boundary cells at resolution 8: raise --res"),
    (["continuity", "--pq=1/1", "--a=0.05", "--t-list=0.2,0.1,0.05,0.025", "--res=200"],
     "the J+ slices at t=0.025 and t=0 have the same boundary cells at resolution 200: "
     "raise --res"),
    # numpy's default_rng raised ValueError on a negative seed: a traceback, exit 1
    (["cone-check", "--pq", "1/1", "--t", "0.05", "--a", "0.05", "--seed", "-1"],
     "--seed must be >= 0, got -1"),
    (["torus-iterate", "--pq=1/1", "--t=0.1", "--a=0.05", "--angles=64", "--seed=-1"],
     "--seed must be >= 0, got -1"),
    (["hyp-scan", "--pq=1/1", "--t-list=0.05", "--a=0.05", "--res=3", "--seed=-1"],
     "--seed must be >= 0, got -1"),
    (["cone-check", "--pq=1/1", "--t=0.05", "--a=0.05", "--config=neg.cfg"],
     "--seed must be >= 0, got -2"),
    # a nan or inf tol passes every distance and negative steps skip the
    # trapping run: each printed passed=True
    (["petal-check", "--pq=1/1", "--t=0.05", "--a=0.05", "--samples=50", "--tol=nan"],
     "trapping tolerance (--tol) must be positive and finite, got nan"),
    (["petal-check", "--pq=1/1", "--t=0.05", "--a=0.05", "--samples=50", "--tol=inf"],
     "trapping tolerance (--tol) must be positive and finite, got inf"),
    (["petal-check", "--pq=1/1", "--t=0.05", "--a=0.05", "--samples=50", "--tol=0"],
     "trapping tolerance (--tol) must be positive and finite, got 0.0"),
    (["petal-check", "--pq=1/1", "--t=0.05", "--a=0.05", "--samples=50", "--iters=-5"],
     "trapping steps (--iters) must be >= 0, got -5"),
    # the scan wrote EXCLUDED rows for the t outside the family and exited 0
    (["hyp-scan", "--pq=1/2", "--t-list=0.05,0.3", "--a=0.05", "--res=3"],
     "|t| must be below 1/(2q) = 0.25"),
    (["torus-iterate", "--pq=1/7", "--t=0.01", "--angles=8"],
     "need at least 2q samples per loop, got 8 angles at q = 7"),
    # continuity built degree-8 tori whatever --degree said
    (["continuity", "--pq=1/1", "--a=0.05", "--t-list=0.2,0.1", "--degree=0"],
     "disk degree must be >= 1, got 0"),
    # hyp-scan read every cell EXCLUDED once --samples reached the scan
    (["hyp-scan", "--pq=1/1", "--t-list=0.05", "--a=0.05", "--res=3", "--samples=0"],
     "sample count must be >= 1, got 0"),
    # the 1-D commands skipped the family's t range: an ambiguous branch, a nan
    # gap with exit 0, lambda = 0, and distances at c_t = -6
    (["caratheodory", "--pq=1/1", "--t=3"], "|t| must be below 1/(2q) = 0.5"),
    (["caratheodory", "--pq=1/1", "--t=1e308"], "|t| must be below 1/(2q) = 0.5"),
    (["caratheodory", "--pq=1/1", "--t=-1"], "|t| must be below 1/(2q) = 0.5"),
    (["radial-demo", "--pq=1/1", "--t-list=5,1"], "|t| must be below 1/(2q) = 0.5"),
    (["torus-iterate", "--pq=1/1", "--t=0.1", "--a=0.5"], "|a| must be below 1/2, got a = (0.5+0j)"),
])
def test_cli_bad_input_is_a_precondition_error(tmp_path, monkeypatch, capsys, argv, cause):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text("pq=1/1\nangles=abc\n")
    (tmp_path / "neg.cfg").write_text("seed=-2\n")
    assert cli.main(argv + ["--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition error:") and cause in err


def test_cli_refuses_a_repelling_sector_too_thin_to_sample(tmp_path, capsys):
    # at q=3, t=-0.00723136 the 1000 sector samples of cone-check need about
    # 6.4e10 draws, hours of drawing at 5 to 14 million draws per second; it
    # refuses before any draw.
    argv = ["cone-check", "--pq=1/3", "--t=-0.00723136", "--a=0.05", "--out", str(tmp_path / "c")]
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert "1000 samples need about 6.41e+10 draws, above 1e+09" in capsys.readouterr().err
    argv = ["hyp-scan", "--pq=1/3", "--t-list=-0.00723136", "--a=0.05", "--res=3",
            "--out", str(tmp_path / "h")]
    assert cli.main(argv) == 0
    rows = (tmp_path / "h.csv").read_text().splitlines()[2:]
    assert [row.split(",")[2] for row in rows] == ["EXCLUDED"] * 3


def test_cli_continuity_refuses_a_depth_past_the_float_range(tmp_path, capsys):
    # 2.0**1100 raised OverflowError: a traceback and exit 1
    argv = ["continuity", "--pq=1/1", "--a=0.05", "--t-list=0.2,0.1", "--res=300",
            "--angles=256", "--iters=12", "--depth=1100", "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("precondition error: depth") and "got 1100" in err


@pytest.mark.parametrize("angles,depth,deepest", [(256, 1016, 1015), (1024, 1014, 1013),
                                                   (1024, 0, 1013)])
def test_cli_continuity_refuses_a_bad_depth_before_building_any_slice(
        tmp_path, monkeypatch, capsys, angles, depth, deepest):
    # the range depends only on --angles; it was checked in julia_from_sigma,
    # after every J+ slice and the t = 0 torus had been built
    def no_slice(*args, **kwargs):
        raise AssertionError("a J+ slice was built before the depth was checked")

    monkeypatch.setattr(lab, "jplus_slice", no_slice)
    argv = ["continuity", "--pq=1/1", "--a=0.05", "--t-list=0.2,0.1", "--res=300",
            f"--angles={angles}", "--iters=12", f"--depth={depth}", "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.strip() == (f"precondition error: depth must be in 1 .. {deepest} on {angles} "
                           f"angles, got {depth}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag,cause,built", [
    ("--angles=1000", "n_angles must be a power of two >= 2, got 1000", 0),
    ("--angles=0", "n_angles must be a power of two >= 2, got 0", 0),
    ("--angles=-4", "n_angles must be a power of two >= 2, got -4", 0),
    ("--iters=0", "n_iters must be >= 1, got 0", 0),
    # the J+ slices ran, then the t = 0 torus raised "graph transform requires a != 0"
    ("--a=0", "--a must be nonzero: the J tori need a != 0 for the graph transform", 0),
    ("--res=4", "the J+ slice y=0 at t=0.0 has no boundary cell at resolution 4: raise --res", 1),
    ("--res=1", "resolution must be in 2 .. 8192, got 1", 1),
    ("--res=9000", "resolution must be in 2 .. 8192, got 9000", 1),
])
def test_cli_continuity_refuses_a_bad_torus_grid_before_building_any_slice(
        tmp_path, monkeypatch, capsys, flag, cause, built):
    # torus_fixed_point refused both, after every J+ slice had been built;
    # the --res case shows that the spy sees the slices that are built
    slices = []
    monkeypatch.setattr(lab, "jplus_slice", lambda *args: slices.append(args) or hn.jplus_slice(*args))
    argv = ["continuity", "--pq=1/1", "--a=0.05", "--t-list=0.2,0.1", "--res=300",
            "--angles=64", "--iters=12", flag, "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"precondition error: {cause}\n"
    assert len(slices) == built
    assert list(tmp_path.iterdir()) == []


def test_cli_radial_demo_refuses_iters_past_the_float_range_before_any_pullback(
        tmp_path, monkeypatch, capsys):
    # 1075 pullbacks left the loop at Green level 0.0 and 100000 exited 2 with
    # "pullback requires a positive Green level" after 1075 pullbacks
    monkeypatch.setattr(p1, "pullback_loop", lambda *args: pytest.fail("a pullback ran"))
    argv = ["radial-demo", "--pq=1/1", "--t-list=0.2,0.1", "--iters=100000",
            "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == ("precondition error: n_iters = 100000 pullbacks halve "
                                       "the Green level log(R)/2 past the least positive float, to 0\n")


@pytest.mark.parametrize("a,check,term", [
    pytest.param("1e-150", "global", "2r/|a|^3", id="1e-150"),
    pytest.param("1e-160", "local", "4/|a|^2", id="1e-160"),
])
def test_cli_cone_check_refuses_an_a_whose_backward_cone_term_leaves_the_float_range(
        tmp_path, capsys, recwarn, a, check, term):
    # numpy warned of overflow, and worst_v read inf at 1e-150 and nan (FAIL) at 1e-160;
    # the local check, which runs first, refuses 1e-160 since it measures the vertical cones
    argv = ["cone-check", "--pq=1/1", "--t=0.05", f"--a={a}", "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and not recwarn.list
    assert err == (f"precondition error: |a| = {a} is too small for the {check} cone check: "
                   f"the backward-cone term {term} leaves the float range\n")


def test_cli_cone_check_runs_at_a_tiny_a_inside_the_float_range(tmp_path, capsys, recwarn):
    argv = ["cone-check", "--pq=1/1", "--t=0.05", "--a=1e-100", "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (
        "local: PASS worst_h=1.054339 worst_v=1.05e+200 failures=0\n"
        "global: PASS worst_h=1.356124 worst_v=4.58e+299 vertical_ok=True\n")
    assert not recwarn.list


def test_continuity_refuses_a_coarse_res_before_solving_any_torus(monkeypatch):
    def no_torus(*args, **kwargs):
        raise AssertionError("torus_fixed_point called before the J+ slice checks")

    monkeypatch.setattr(lab, "torus_fixed_point", no_torus)
    with pytest.raises(PreconditionError) as exc:
        lab.continuity_experiment((1, 1), 0.05, [0.2, 0.1, 0.05, 0.025], resolution=200,
                                  n_angles=1024, n_iters=40, depth=12,
                                  disk_degree=tor.DISK_DEGREE)
    assert str(exc.value) == ("the J+ slices at t=0.025 and t=0 have the same boundary "
                              "cells at resolution 200: raise --res")


def test_continuity_runs_its_slices_and_clouds_in_one_pool_round(monkeypatch):
    # one _pool_map call: a slice job per nonzero t, then a J cloud job per t, t = 0 included
    calls, pool_map = [], lab._pool_map
    monkeypatch.setattr(lab, "_pool_map", lambda fn, items: calls.append(list(items))
                        or pool_map(fn, calls[-1]))
    lab.continuity_experiment((1, 1), 0.05, [0.2, 0.1], 200, 256, 12, 8, 8)
    assert [[(job.func, job.args[-1]) for job in items] for items in calls] == [[
        (lab._slice_distance, 0.2), (lab._slice_distance, 0.1),
        (lab._julia_cloud, 0.0), (lab._julia_cloud, 0.2), (lab._julia_cloud, 0.1)]]


@pytest.mark.parametrize("flags,cause", [
    (["--pq=1/2", "--t=0.3"], "|t| must be below 1/(2q) = 0.25"),
    (["--iters=0"], "n_iters must be >= 2, got 0"),
    (["--iters=1"], "n_iters must be >= 2, got 1"),
    (["--angles=3"], "n_angles must be a power of two >= 2, got 3"),
    (["--degree=0"], "disk degree must be >= 1, got 0"),
])
def test_cli_connectivity_scan_refuses_bad_input_up_front(tmp_path, capsys, flags, cause):
    argv = ["connectivity-scan", "--pq=1/1", "--t=0.1", "--a=0.2", "--res=3"]
    assert cli.main(argv + flags + ["--out", str(tmp_path / "x")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("precondition error:") and cause in err
    assert list(tmp_path.iterdir()) == []


def test_cli_missing_output_directory_is_refused_before_computing(tmp_path, capsys):
    argv = ["caratheodory", "--pq=1/1", "--t=0.1", "--out", str(tmp_path / "nodir" / "x")]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("precondition error: output directory")
    assert "nodir" in err and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["hyp-scan", "connectivity-scan"])
@pytest.mark.parametrize("res", ["0", "-1"])
def test_cli_scans_refuse_a_resolution_below_one(tmp_path, capsys, command, res):
    argv = [command, "--pq=1/1", "--t=0.1", "--t-list=0.05", "--a=0.05", f"--res={res}",
            "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("precondition error: --res")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["hyp-scan", "connectivity-scan"])
@pytest.mark.parametrize("a", ["nan", "inf", "-inf", "nanj", "0.1+infj"])
def test_cli_scans_refuse_a_non_finite_a(tmp_path, capsys, recwarn, command, a):
    argv = [command, "--pq=1/1", "--t=0.1", "--t-list=0.05", f"--a={a}", "--res=3",
            "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("precondition error: --a must be finite")
    assert list(tmp_path.iterdir()) == [] and not recwarn.list


def test_cli_petal_check_fails_an_orbit_that_escapes(tmp_path, capsys, recwarn):
    # an escaping orbit ends at nan, which passed the tolerance test: passed=True, exit 0
    argv = ["petal-check", "--pq=1/2", "--t=-0.2", "--a=0.3", "--samples=200", "--iters=200",
            "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 3
    out = capsys.readouterr().out
    assert out == "petal-check: passed=False rotation_failures=0 attraction_failures=2 max_dist=inf\n"
    rows = [line.split(",") for line in (tmp_path / "x.csv").read_text().splitlines()[2:]]
    assert sum(r[-1] == "fail" for r in rows) == 2
    assert all(r[-2] == "inf" for r in rows if r[-1] == "fail")
    assert not recwarn.list


def test_cli_petal_check_at_a_t_whose_rotation_bound_rounds_away(tmp_path, capsys):
    # petal_scale divided by (1 + t)^q - 1 = 0: a ZeroDivisionError traceback, exit 1
    argv = ["petal-check", "--pq=1/1", "--t=1e-17", "--a=0.05", "--samples=50", "--iters=20",
            "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 3
    assert "attraction_failures=50 " in capsys.readouterr().out


def test_cli_petal_check_runs_500_steps_by_default(tmp_path, capsys):
    # 40 steps, RunConfig's torus default, leave these samples up to 2.9e-2 from the cycle
    argv = ["petal-check", "--pq=1/1", "--t=0.05", "--a=0.05", "--samples=50",
            "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.startswith("petal-check: passed=True ")
    assert len((tmp_path / "x.csv").read_text().splitlines()) == 2 + 50


def test_cli_failure_counts_are_the_report_fields(tmp_path, capsys, monkeypatch):
    # the reports hold their failures as int counts, which the CLI prints as they are;
    # the failing petal orbits themselves are the CSV's fail rows
    reports = []
    for fn in ("petal_check", "local_cone_check"):
        compute = getattr(cli, fn)
        monkeypatch.setattr(cli, fn, lambda *a, compute=compute, **kw:
                            reports.append(compute(*a, **kw)) or reports[-1])
    argv = ["petal-check", "--pq=1/2", "--t=0.008", "--a=0.03", "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 3
    petal = reports.pop()
    assert capsys.readouterr().out.startswith(
        "petal-check: passed=False rotation_failures=0 attraction_failures=994 ")
    assert type(petal.rotation_failures) is int and type(petal.attraction_failures) is int
    assert (petal.rotation_failures, petal.attraction_failures) == (0, 994)
    rows = (tmp_path / "x.csv").read_text().splitlines()[2:]
    assert sum(r.endswith(",fail") for r in rows) == 994 and len(rows) == 1000
    argv = ["cone-check", "--pq=1/5", "--t=0.09", "--a=0.49", "--samples=10000",
            "--out", str(tmp_path / "y")]
    assert cli.main(argv) == 0
    local = reports.pop()
    assert capsys.readouterr().out.startswith("local: FAIL worst_h=1.090000 worst_v=3.97 failures=2417\n")
    assert type(local.invariance_failures) is int and local.invariance_failures == 2417


@pytest.mark.parametrize("command", ["hyp-scan", "connectivity-scan"])
def test_cli_scans_refuse_a_resolution_too_large_to_allocate(tmp_path, capsys, command):
    # 2^58 grid points need 2 EiB per array, refused at once on any host
    argv = [command, "--pq=1/1", "--t=0.1", "--t-list=0.05", "--a=0.05", f"--res={2**58}",
            "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("precondition error: the input is too large to allocate: Unable to allocate")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("line", [
    "connectivity-scan --pq 1/2 --t 0.1 --a 0.2 --res 9",  # the README line
    "hyp-scan --pq 1/1 --t-list 0.0,0.05,0.1 --a 0.05",    # the README line without --res
])
def test_cli_scans_default_to_sizes_they_need_not_clamp(tmp_path, capsys, line):
    assert cli.main(line.split() + ["--out", str(tmp_path / "x")]) == 0
    assert capsys.readouterr().err == ""


def test_cli_scan_sizes_above_their_defaults_run_as_given(tmp_path, capsys, monkeypatch):
    # --angles 512 and --iters 13 are above the defaults, which were once caps
    seen = {}
    scan = cli.connectivity_scan

    def spy(*args, **kwargs):
        seen.update(kwargs)
        return scan(*args, **kwargs)

    monkeypatch.setattr(cli, "connectivity_scan", spy)
    argv = ["connectivity-scan", "--pq=1/1", "--t=0.1", "--a=0.05", "--res=3",
            "--angles=512", "--iters=13", "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""
    assert (seen["resolution"], seen["n_angles"], seen["n_iters"]) == (3, 512, 13)


@pytest.mark.parametrize("argv,module,fn,read", [
    (["torus-iterate", "--t=0.1", "--degree=3"], cli, "torus_fixed_point", lambda a, kw: a[3:]),
    (["continuity", "--t-list=0.2,0.1", "--res=300", "--degree=3"], lab, "torus_fixed_point",
     lambda a, kw: a[3:]),
    (["connectivity-scan", "--t=0.1", "--res=3", "--degree=3"], lab, "torus_fixed_point",
     lambda a, kw: a[3:]),
    (["hyp-scan", "--t-list=0.05", "--res=3", "--samples=3"], cli, "hyperbolicity_scan",
     lambda a, kw: (kw.get("local_samples"),)),
], ids=["torus-iterate", "continuity", "connectivity-scan", "hyp-scan"])
def test_cli_passes_degree_and_samples_through(tmp_path, monkeypatch, argv, module, fn, read):
    # continuity and connectivity-scan built degree-8 tori and hyp-scan drew 400
    # samples per cell whatever the flag said
    seen, compute = [], getattr(module, fn)
    _run_pool_here(monkeypatch)
    monkeypatch.setattr(module, fn, lambda *a, **kw: seen.append(read(a, kw)) or compute(*a, **kw))
    flags = ["--pq=1/1", "--a=0.05", "--angles=64", "--iters=3", "--out", str(tmp_path / "x")]
    assert cli.main(argv + flags) == 0
    assert seen and set(seen) == {(3,)}


def test_cli_normal_form_checks_a_before_printing(tmp_path, capsys):
    argv = ["normal-form", "--pq=1/1", "--t=0.05", "--a=nan", "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command,t_list", [
    ("radial-demo", "0.2,,0.1"), ("radial-demo", "0.2,abc"), ("hyp-scan", "nan"),
])
def test_cli_bad_t_list_is_a_precondition_error(tmp_path, capsys, command, t_list):
    argv = [command, "--pq=1/1", "--t-list", t_list, "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("precondition error: t list")


def test_cli_negative_t_list_as_separate_argument():
    parser = cli.build_parser()
    split = parser.parse_args(["radial-demo", "--t-list", "-0.02,-0.01", "--out", "x"])
    joined = parser.parse_args(["radial-demo", "--t-list=-0.02,-0.01", "--out", "x"])
    assert split == joined
    assert cli.config_from_args(split).ts == [-0.02, -0.01]


@pytest.mark.parametrize("flag,value", [
    ("--t", "-2e-2"), ("--a", "-0.1j"), ("--a", "-0.05-0.05j"), ("--t", "-0.02"),
    ("--pq", "-1/2"),
])
def test_cli_negative_number_as_separate_argument(flag, value):
    parser = cli.build_parser()
    split = parser.parse_args(["normal-form", flag, value])
    assert split == parser.parse_args(["normal-form", f"{flag}={value}"])
    # --pq keeps its text, which the joined form above pins
    assert flag == "--pq" or getattr(split, flag[2:]) == complex(value)


def test_cli_runs_with_negative_numbers_as_separate_arguments(tmp_path, capsys):
    argv = ["normal-form", "--pq", "1/1", "--t", "-2e-2", "--a", "-0.05-0.05j",
            "--out", str(tmp_path / "nf")]
    assert cli.main(argv) == 0
    assert "C_at" in capsys.readouterr().out


def test_cli_help_after_a_joined_flag_is_not_a_value(capsys):
    # only a bare --flag takes the next argument: --t=0.05 -h asks for help
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["cone-check", "--t=0.05", "-h"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: henonlab")


def test_cli_negative_pq_as_separate_argument_runs_as_its_rotation(tmp_path, capsys):
    # -1/2 and 1/2 are the same rotation number mod 1
    outs = []
    for pq in ("-1/2", "1/2"):
        argv = ["normal-form", "--pq", pq, "--t", "0.05", "--a", "0.05", "--out", str(tmp_path / "nf")]
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_every_run_config_field_has_a_flag_that_reaches_it():
    # a flag that config_from_args does not copy would be parsed and silently ignored
    parser = cli.build_parser()
    for f in fields(cli.RunConfig):
        if f.name in ("subcommand", "a_re", "a_im"):
            continue
        value = {"str": "7/9", "float": 0.375, "int": 7}[f.type]
        assert value != f.default, f.name
        args = parser.parse_args(["continuity", f"--{f.name.replace('_', '-')}={value}"])
        assert getattr(cli.config_from_args(args), f.name) == value, f.name
    cfg = cli.config_from_args(parser.parse_args(["continuity", "--a", "-0.125+0.25j"]))
    assert (cfg.a_re, cfg.a_im) == (-0.125, 0.25)


_NO_SCIPY_ARGV = [
    ["caratheodory", "--pq", "1/2", "--t", "0.1", "--iters", "10"],
    ["normal-form", "--t", "0.05"],
    ["petal-check", "--t", "0.05", "--samples", "50"],
    ["cone-check", "--t", "0.05", "--samples", "500"],
    ["hyp-scan", "--res", "3"],
    ["torus-iterate", "--t", "0.1", "--iters", "20"],
    ["continuity", "--t-list", "0.2,0.1", "--res", "200", "--iters", "20"],
    ["connectivity-scan", "--pq", "1/2", "--t", "0.1", "--a", "0.2", "--res", "3"],
    ["radial-demo", "--t-list", "0.2,0.1", "--iters", "20"],
]


@pytest.mark.parametrize("argv", _NO_SCIPY_ARGV, ids=lambda argv: argv[0])
def test_every_command_runs_where_scipy_cannot_be_imported(tmp_path, argv):
    # scipy is a test dependency only: every command, its import included, runs on numpy alone
    assert sorted(a[0] for a in _NO_SCIPY_ARGV) == sorted(cli.COMMANDS)
    code = ("import sys; sys.modules['scipy'] = None; from henonlab.cli import main; "
            "sys.exit(main(sys.argv[1:]))")
    env = dict(os.environ, PYTHONPATH=str(Path(henonlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(tmp_path / "x")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_loads_no_pool_or_scipy_module():
    # lab._pool_map imports multiprocessing and concurrent.futures only when it forks
    code = ("import sys, henonlab.cli; print(sorted({m.split('.')[0] for m in sys.modules}"
            " & {'multiprocessing', 'concurrent', 'scipy'}))")
    env = dict(os.environ, PYTHONPATH=str(Path(henonlab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


def test_cli_deterministic_outputs(tmp_path):
    cfg = cli.RunConfig(subcommand="radial-demo", pq="1/1", angles=1024,
                        iters=30, t_list="0.2,0.1", out=str(tmp_path / "r1"))
    path = tmp_path / "c.cfg"
    cfg.to_file(path)
    assert cli.main(["radial-demo", "--config", str(path)]) == 0
    data1 = (tmp_path / "r1.csv").read_bytes()
    assert cli.main(["radial-demo", "--config", str(path)]) == 0
    assert (tmp_path / "r1.csv").read_bytes() == data1
    assert cli.main(["radial-demo", "--config", str(path),
                     "--out", str(tmp_path / "r2")]) == 0
    assert (tmp_path / "r2.csv").read_bytes() == data1


def test_pgm_writer(tmp_path):
    path = tmp_path / "img.pgm"
    io.write_pgm(path, np.arange(12).reshape(3, 4))
    assert path.read_bytes() == b"P5\n# henonlab v1\n4 3\n255\n" + bytes(range(12))


def test_cli_scan_pgm_keeps_the_verdict_levels(tmp_path, capsys):
    # both cells PASS: the image was rescaled to its own range, which is empty,
    # and came out black
    argv = ["hyp-scan", "--pq", "1/1", "--t-list", "0.05", "--a", "0.05", "--res", "2",
            "--out", str(tmp_path / "scan")]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "hyp-scan: 2/2 PASS\n"
    assert (tmp_path / "scan.pgm").read_bytes() == b"P5\n# henonlab v1\n2 1\n255\n\xff\xff"


def _torus_rows(level, coeffs):
    n = len(coeffs)
    return [(level, k, k / n, m, c) for k in range(n) for m, c in enumerate(coeffs[k])]


# kind -> (command line, library function the command writes from, the
# header after "# henonlab-csv v1 ", the column line, the source rows)
CSV_KINDS = {
    "loop": (
        ["caratheodory", "--pq=1/2", "--t=0.1", "--angles=1024", "--iters=5"],
        "caratheodory", lambda r: "loop", "k,s,re,im,level",
        lambda r: [(k, k / r.loop.N, v, r.loop.level) for k, v in enumerate(r.loop.values)]),
    "torus": (
        ["torus-iterate", "--pq=1/1", "--t=0.1", "--a=0.05", "--angles=64", "--iters=3",
         "--degree=4"],
        "torus_fixed_point", lambda r: "torus", "level,k,s,coeff_index,re,im",
        lambda r: _torus_rows(r.torus.level, r.torus.coeffs)),
    "normal-form": (
        ["normal-form", "--pq=1/2", "--t=0.05", "--a=0.05"],
        "reduce", lambda r: "normal-form", "component,i,j,re,im",
        lambda r: [(k, i, j, h.coeffs[i, j]) for k, h in enumerate(r.normal)
                   for i in range(r.D + 1) for j in range(r.D + 1 - i)]),
    "trapping": (
        ["petal-check", "--pq=1/1", "--t=0.05", "--a=0.05", "--samples=20", "--iters=50"],
        "petal_check", lambda r: f"trapping {r.region}",
        "start_x_re,start_x_im,start_y_re,start_y_im,"
        "end_x_re,end_x_im,end_y_re,end_y_im,final_distance,verdict",
        lambda r: r.rows),
    "hyperbolicity-scan": (
        ["hyp-scan", "--pq=1/1", "--t-list=0.0,0.05", "--a=0.05", "--res=3"],
        "hyperbolicity_scan", lambda r: "hyperbolicity-scan", "t,a,verdict,worst_h,worst_v",
        lambda r: [(c.t, c.a, c.verdict, c.worst_h, c.worst_v) for c in r]),
    "hausdorff": (
        ["radial-demo", "--pq=1/1", "--t-list=0.2,0.1", "--angles=1024", "--iters=20"],
        "radial_demo", lambda r: f"hausdorff {r.meta}", "t,distance",
        lambda r: list(zip(r.t_values, r.distances))),
}


@pytest.mark.parametrize("kind", CSV_KINDS)
def test_csv_format(tmp_path, monkeypatch, kind):
    # every CSV kind the CLI writes: header, column line, one row per source
    # row, and each field parses back to exactly the value it was written from
    argv, fn, header, columns, source_rows = CSV_KINDS[kind]
    results = []
    compute = getattr(cli, fn)
    monkeypatch.setattr(cli, fn, lambda *a, **kw: results.append(compute(*a, **kw)) or results[-1])
    assert cli.main(argv + ["--out", str(tmp_path / "x")]) in (0, 3)
    (path,) = tmp_path.glob("*.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "# henonlab-csv v1 " + header(results[0])
    assert lines[1] == columns
    rows = source_rows(results[0])
    assert len(lines) == 2 + len(rows)
    for line, row in zip(lines[2:], rows):
        fields = iter(line.split(","))

        def parses_back(x):  # repr tells -0.0 from 0.0 and matches nan
            return repr(float(next(fields))) == repr(float(x))

        for v in row:
            if isinstance(v, complex):
                assert parses_back(v.real) and parses_back(v.imag)
            elif isinstance(v, float):
                assert parses_back(v)
            elif isinstance(v, int):
                assert int(next(fields)) == v
            else:
                assert next(fields) == v
        assert next(fields, None) is None


def test_normal_form_csv_has_one_row_per_simplex_coefficient(tmp_path):
    argv = ["normal-form", "--pq=1/1", "--t=0.05", "--a=0.05", "--out", str(tmp_path / "nf")]
    assert cli.main(argv) == 0
    nf = reduce(hn.make_params((1, 1), 0.05, 0.05))
    lines = (tmp_path / "nf_normal.csv").read_text().splitlines()
    assert lines[:2] == ["# henonlab-csv v1 normal-form", "component,i,j,re,im"]
    assert len(lines) - 2 == (nf.D + 1) * (nf.D + 2)
    keys = set()
    for line in lines[2:]:
        c, i, j, re, im = line.split(",")
        c, i, j = int(c), int(i), int(j)
        assert i + j <= nf.D
        assert complex(float(re), float(im)) == nf.normal[c].coeffs[i, j]
        keys.add((c, i, j))
    assert len(keys) == len(lines) - 2


def test_continuity_headers_name_degree_and_depth(tmp_path):
    argv = ["continuity", "--pq=1/1", "--a=0.05", "--t-list=0.2,0.1", "--res=300",
            "--angles=64", "--iters=3", "--degree=3", "--depth=5", "--out", str(tmp_path / "c")]
    assert cli.main(argv) == 0
    meta = "pq=(1, 1) a=(0.05+0j) angles=64 iters=3 res=300 degree=3 depth=5"
    for name, kind in (("c_j.csv", "J"), ("c_jplus.csv", "J+slice")):
        header = (tmp_path / name).read_text().splitlines()[0]
        assert header == f"# henonlab-csv v1 hausdorff {kind} {meta}"


def _per_field_csv(path, kind, columns, rows):
    """The CSV writer that formats one field of a row at a time, as the oracle
    for the column writer."""

    def field(v) -> str:
        if isinstance(v, complex):
            return "%.17g,%.17g" % (v.real, v.imag)
        if isinstance(v, float):
            return "%.17g" % v
        return str(v)

    with open(path, "w") as fh:
        fh.write(f"# henonlab-csv v1 {kind}\n{columns}\n")
        fh.writelines(",".join(map(field, row)) + "\n" for row in rows)


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
                     -2.2250738585072009e-308, 1.7976931348623157e308, -1.7976931348623157e308]))

_CSV_TEXT = st.text(st.characters(codec="utf-8", exclude_characters="\x00"), max_size=6)


def _csv_column(n):
    """One column of n rows of a dtype the CLI writes.  Strings hold no NUL, as a
    numpy str array drops trailing ones."""
    return st.one_of(
        hnp.arrays(np.int64, n, elements=st.integers(-2**63, 2**63 - 1)),
        hnp.arrays(np.bool_, n),
        hnp.arrays("<U6", n, elements=_CSV_TEXT),
        hnp.arrays(np.float64, n, elements=_FLOATS),
        hnp.arrays(np.complex128, n, elements=st.builds(complex, _FLOATS, _FLOATS)))


_CSV_COLUMNS = st.sampled_from([0, 1, io.CSV_CHUNK - 1, io.CSV_CHUNK, io.CSV_CHUNK + 1]).flatmap(
    lambda n: st.lists(_csv_column(n), min_size=1, max_size=6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(columns=_CSV_COLUMNS, as_lists=st.booleans())
def test_csv_rows_match_the_per_field_writer(tmp_path_factory, columns, as_lists):
    # int64, bool, str, float64 and complex128 columns of 0, 1 and about one
    # chunk of rows, with nan, +-inf, -0.0, subnormals and the largest floats,
    # given as arrays or lists: the bytes of the per-field writer on the zipped rows
    path = tmp_path_factory.mktemp("csv")
    io.write_csv(path / "new.csv", "kind x", "a,b",
                 [c.tolist() for c in columns] if as_lists else columns)
    _per_field_csv(path / "old.csv", "kind x", "a,b", zip(*(c.tolist() for c in columns)))
    assert (path / "new.csv").read_bytes() == (path / "old.csv").read_bytes()


@pytest.mark.parametrize("columns", [
    [np.arange(3), np.arange(4.0)],
    [np.arange(3), np.array([1, None, 2])],
    [np.array([1 << 70, 1])],  # past int64: numpy keeps Python ints as objects
], ids=["unequal-length", "object-dtype", "big-int"])
def test_csv_writer_refuses_columns_it_cannot_write(tmp_path, columns):
    with pytest.raises(PreconditionError, match="equal-length arrays of numbers, bools or strings"):
        io.write_csv(tmp_path / "x.csv", "kind", "a,b", columns)
    assert not (tmp_path / "x.csv").exists()


def test_csv_writer_keeps_no_memory_per_row(tmp_path):
    # columns of complex values, floats and strings, as petal-check writes them:
    # after the call nothing allocated per row is still held
    n = 5000
    columns = [np.full(n, 0.5 + 1j), np.full(n, -2j), np.full(n, 0.25), np.full(n, "pass")]
    tracemalloc.start()
    try:
        io.write_csv(tmp_path / "rows.csv", "kind", "a,b", columns)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 32 * 1024
    assert len((tmp_path / "rows.csv").read_text().splitlines()) == 2 + n
