"""Tests of the benchmark's own logic: failure classification, the time
limit, generated command lines, self-time arithmetic, and that tracing does
not change what the program reports."""

import time
from types import SimpleNamespace

import numpy as np
import pytest

import hb_ops
import hb_probe
import hb_trace
import run
from henonlab import cli


class _SlowOp:
    name = "slow"

    def cells(self):
        return 1

    def run(self, workdir):
        while True:          # a hang the limit must end
            time.sleep(0.01)


class _RaisingOp(_SlowOp):
    name = "raising"

    def run(self, workdir):
        raise ZeroDivisionError("boom")


def test_time_limit_fails_the_operation_and_the_pass_continues(tmp_path):
    ops = [_SlowOp(), hb_ops.CliOp("normal-form", {"pq": "1/1", "t": "0.05", "a": "0.05"},
                                   a_abs=0.05, t=0.05)]
    t0 = time.perf_counter()
    outs = [hb_ops.run_op(op, str(tmp_path / str(i)), 0.3) for i, op in enumerate(ops)]
    assert outs[0].failures == ["timeout"] and outs[0].ok == 0
    assert outs[1].failures == [] and outs[1].ok == 1
    assert time.perf_counter() - t0 < 20


def test_no_time_left_counts_every_cell_as_timed_out(tmp_path):
    op = hb_ops.build_ops("scan", 3)[0]
    out = hb_ops.run_op(op, str(tmp_path), 0.0)
    assert out.attempted == 80 and out.failures == ["timeout"] * 80


def test_a_raise_is_a_failure(tmp_path):
    out = hb_ops.run_op(_RaisingOp(), str(tmp_path), 5.0)
    assert out.failures == ["raised ZeroDivisionError"] and out.attempted == 1


def test_cli_error_exits_and_certificate_misses_are_failures():
    op = hb_ops.CliOp("caratheodory", {"pq": "1/2"})
    assert op.judge((2, "", "precondition error: bad t\n")).failures == ["precondition error"]
    assert op.judge((3, "", "numerical failure: Newton stalled\n")).failures == ["numerical failure"]
    miss = op.judge((0, "caratheodory: N=4096 iters=60 final_gap=3.000e-02\n", ""))
    assert miss.failures and miss.failures[0].startswith("check:") and miss.check_misses == 1
    ok = op.judge((0, "caratheodory: N=4096 iters=60 final_gap=0.000e+00\n", ""))
    assert ok.failures == [] and ok.ok == 1
    cont = hb_ops.CliOp("radial-demo", {"pq": "1/1"})
    assert cont.judge((0, "radial: ['0.0732', '0.0800'] decreasing=False\n", "")).check_misses == 1
    assert cont.judge((0, "radial: ['0.0732', '0.0257'] decreasing=True\n", "")).ok == 1


def test_an_honest_verdict_is_not_a_failure():
    cone = hb_ops.CliOp("cone-check", {"pq": "1/1"}, a_abs=0.05, t=0.05)
    out = ("local: FAIL worst_h=0.998000 worst_v=421 failures=3\n"
           "global: PASS worst_h=1.118487 worst_v=224 vertical_ok=True\n")
    assert cone.judge((0, out, "")).failures == []
    lying = out.replace("local: FAIL worst_h=0.998000", "local: PASS worst_h=0.998000")
    assert cone.judge((0, lying, "")).check_misses == 1


def _conn(a, verdict, gap, sep=1.0):
    return SimpleNamespace(a=a, verdict=verdict, final_gap=gap, separation=sep)


def _hyp(t, a, verdict, h=1.05, v=400.0):
    return SimpleNamespace(t=t, a=a, verdict=verdict, worst_h=h, worst_v=v)


def test_scan_cells_a_zero_is_no_attempt_and_raised_cells_fail():
    nan = float("nan")
    conn = hb_ops.ScanOp("connectivity", {})
    out = conn.judge([_conn(0j, "EXCLUDED", nan, nan), _conn(0.1 + 0j, "UNKNOWN", nan, nan),
                      _conn(0.05 + 0j, "UNKNOWN", 0.3), _conn(-0.05 + 0j, "CONNECTED-BY-CONSTRUCTION", 1e-3)])
    assert out.attempted == 3 and out.failures == ["raised"]
    hyp = hb_ops.ScanOp("hyperbolicity", {})
    out = hyp.judge([_hyp(0.05, 0.0, "EXCLUDED", nan, nan), _hyp(0.05, 0.1, "EXCLUDED", nan, nan),
                     _hyp(0.05, 0.2, "FAIL", 0.99), _hyp(0.0, 0.2, "MARGINAL"), _hyp(0.05, -0.2, "PASS")])
    assert out.attempted == 4 and out.failures == ["raised"]
    bad = hyp.judge([_hyp(0.0, 0.2, "PASS")])
    assert bad.check_misses == 1


def test_reference_compare_allows_printed_rounding_only():
    ref = hb_ops.parse_certificate("torus-iterate", "torus: gap=3.862e-04 separation=1.363e+00 "
                                                    "semiconjugacy_residual=2.760e-04")
    near = hb_ops.parse_certificate("torus-iterate", "torus: gap=3.863e-04 separation=1.363e+00 "
                                                     "semiconjugacy_residual=2.760e-04")
    far = hb_ops.parse_certificate("torus-iterate", "torus: gap=3.900e-04 separation=1.363e+00 "
                                                    "semiconjugacy_residual=2.760e-04")
    assert hb_ops.compare_to_reference(near, ref) == []
    assert hb_ops.compare_to_reference(far, ref)
    assert hb_ops.compare_to_reference({"C": {"re": 1.0 + 1e-9, "im": 0.0}},
                                       {"C": {"re": 1.0, "im": 0.0}})


def test_generated_command_lines_use_flag_equals_value():
    for workload in ("jets", "julia"):
        for op in hb_ops.build_ops(workload, 7):
            argv = op.argv("out")
            assert all(a.startswith("--") and "=" in a for a in argv[1:])
            cli.build_parser().parse_args(argv)
    # a negative leading t-list value is read as a value in this form
    args = cli.build_parser().parse_args(["radial-demo", "--t-list=-0.02,-0.01", "--out=x"])
    assert args.t_list == "-0.02,-0.01"


def test_seed_scales_nonzero_values_by_one_factor_and_keeps_zero():
    a, b = hb_ops.build_ops("jets", 1), hb_ops.build_ops("jets", 1)
    assert [op.argv("o") for op in a] == [op.argv("o") for op in b]
    f = hb_ops.seed_factor(1)
    assert hb_ops.FACTOR_RANGE[0] <= f <= hb_ops.FACTOR_RANGE[1]
    assert float(a[0].flags["t"]) == pytest.approx(0.05 * f, rel=1e-15)
    assert a[-1].flags["t"] == "0.0"


def test_self_time_on_synthetic_nested_spans():
    rec = hb_trace.Recorder()
    rec.open("lab.radial_demo", 0.0)
    rec.open("poly1d.caratheodory", 1.0)
    rec.open("poly1d.pullback_loop", 1.5)
    rec.close(2.5)
    rec.close(3.0)
    rec.open("lab.hausdorff", 4.0)
    rec.close(5.0)
    rec.close(10.0)
    assert rec.self_time["lab"] == pytest.approx(7.0 + 1.0)
    assert rec.self_time["poly1d"] == pytest.approx((2.0 - 1.0) + 1.0)
    assert rec.inclusive["lab.radial_demo"] == pytest.approx(10.0)
    assert rec.inclusive["poly1d.caratheodory"] == pytest.approx(2.0)
    # recursion: inclusive time counts the outermost activation once
    rec = hb_trace.Recorder()
    rec.open("series.compose2", 0.0)
    rec.open("series.compose2", 1.0)
    rec.close(3.0)
    rec.close(4.0)
    assert rec.calls["series.compose2"] == 2
    assert rec.inclusive["series.compose2"] == pytest.approx(4.0)
    assert rec.self_time["series"] == pytest.approx(4.0)


SMALL_OPS = [
    hb_ops.CliOp("normal-form", {"pq": "1/1", "t": "0.05", "a": "0.05"}, a_abs=0.05, t=0.05),
    hb_ops.CliOp("caratheodory", {"pq": "1/2", "t": "0.1", "angles": 1024, "iters": 30}),
    hb_ops.CliOp("radial-demo", {"pq": "1/1", "t-list": "0.2,0.1", "angles": 1024, "iters": 30}),
    hb_ops.ScanOp("connectivity", dict(p_over_q=(1, 2), t=0.1, a_window=(-0.2, 0.2, -0.2, 0.2),
                                       resolution=3, n_angles=256, n_iters=6)),
    hb_ops.ScanOp("hyperbolicity", dict(p_over_q=(1, 1), t_values=[0.0, 0.05],
                                        a_values=np.array([0.0, 0.05]), local_samples=100)),
]


def test_traced_and_untraced_runs_report_the_same_certificates(tmp_path):
    from henonlab import series

    plain = [hb_ops.run_op(op, str(tmp_path / "u"), 60.0) for op in SMALL_OPS]
    rec = hb_trace.Recorder()
    with hb_trace.installed(rec):
        assert getattr(cli.reduce, "__wrapped__", None) is not None
        traced = [hb_ops.run_op(op, str(tmp_path / "t"), 60.0, rec) for op in SMALL_OPS]
    assert not hasattr(cli.reduce, "__wrapped__")
    assert not hasattr(series.TruncSeries2.__mul__, "__wrapped__")
    for p, t in zip(plain, traced):
        assert p.failures == t.failures
        assert hb_ops.compare_to_reference(t.cert, p.cert) == []
        assert p.files == t.files
    m = rec.metrics()
    assert m["normalform2d.reduce.calls"] >= 3 and m["series.mul2.calls"] > 0
    assert m["lab.connectivity_scan.calls"] == 1 and m["torus.graph_transform.calls"] > 0
    assert m["io.write.calls"] == 3 and m["io.bytes"] > 0
    assert m["cli.normal-form.s"] > 0 and m["cli.caratheodory.s"] > 0 and m["cli.self_s"] >= 0


def test_probe_samples_untraced_operations_and_its_time_is_not_counted(tmp_path):
    op = SMALL_OPS[1]
    t0 = time.perf_counter()
    plain = hb_ops.run_op(op, str(tmp_path / "u"), 60.0)
    elapsed = time.perf_counter() - t0
    assert plain.probe_s > 0 and plain.seconds < elapsed
    traced = hb_ops.run_op(op, str(tmp_path / "t"), 60.0, hb_trace.Recorder())
    assert traced.probe_s is None


def test_quiet_seconds_scales_by_the_reference_kernel_time():
    ref = hb_probe.REFERENCE_S
    assert hb_probe.quiet_seconds(3.0, 1.5 * ref) == pytest.approx(2.0)
    assert hb_probe.quiet_seconds(3.0, ref) == pytest.approx(3.0)
    assert hb_probe.quiet_seconds(0.0, None) == 0.0
    fast = SimpleNamespace(seconds=1.0, probe_s=ref)
    slow = SimpleNamespace(seconds=3.0, probe_s=2 * ref)
    passes = [SimpleNamespace(outcomes=[slow, fast]), SimpleNamespace(outcomes=[fast, slow])]
    assert run.pass_wall(passes) == pytest.approx(2.0)
    assert run.pass_wall(passes, quiet=True) == pytest.approx(2.0)
    passes = [SimpleNamespace(outcomes=[slow]), SimpleNamespace(outcomes=[SimpleNamespace(
        seconds=2.0, probe_s=ref)])]
    assert run.pass_wall(passes) == pytest.approx(2.0)
    assert run.pass_wall(passes, quiet=True) == pytest.approx(1.5)


def test_importtime_parsing():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:      1032 |      48328 |       numpy\n"
            "import time:       345 |      50263 |                     scipy.spatial\n"
            "import time:       297 |     717610 |           scipy.signal\n"
            "import time:      2965 |     720575 |         henonlab.series\n"
            "import time:       386 |     798927 |   henonlab\n")
    parts = run.parse_importtime(text)
    assert parts["setup.numpy_s"] == pytest.approx(0.048328)
    assert parts["setup.scipy_signal_s"] == pytest.approx(0.71761)
    assert parts["setup.scipy_spatial_s"] == pytest.approx(0.050263)
    assert parts["setup.henonlab_s"] == pytest.approx(0.003351)
