"""Workload operations, their time limit, and their certificate checks.

An operation is one CLI command (``jets``, ``julia``) or one library scan
call (``scan``).  A CLI command counts as one attempt; a scan call counts one
attempt per parameter cell with ``a != 0``.  An attempt fails when it
raises, exits 2/3 with ``precondition error:``/``numerical failure:``, runs
past the time limit, or prints a certificate that misses its own criteria.
Honest verdicts (``FAIL``, ``MARGINAL``, ``UNKNOWN`` with a finite gap) are
outcomes, not failures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import re
import signal
import time
from dataclasses import dataclass, field

import hb_probe

# Longest single operation at the reference sizes is ``continuity`` at about
# 11 s on a 2-core Xeon; the limit leaves room for a machine several times
# slower while still ending a hang well inside one benchmark run.
OP_LIMIT_S = 60.0
# The seed scales every nonzero t and a by one factor from this range.  It is
# narrow enough that the scan's certified cells stay the same set (checked at
# factors 0.97..1.03: at 0.97 four more cells certify).
FACTOR_RANGE = (0.98, 1.02)

CLI_FAIL_PREFIXES = ("precondition error:", "numerical failure:")


class OpTimeout(BaseException):
    """Raised inside an operation when its time limit expires.  A
    BaseException so that no ``except Exception`` in the program absorbs it."""


@contextlib.contextmanager
def time_limit(seconds: float):
    """Interrupt the enclosed Python code after ``seconds`` via SIGALRM."""

    def expire(signum, frame):
        raise OpTimeout()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Outcome:
    """What one operation produced: attempts, failures by reason, certificate."""
    attempted: int
    failures: list = field(default_factory=list)   # one reason per failed attempt
    cert: dict = field(default_factory=dict)
    files: dict = field(default_factory=dict)      # output file name -> sha256
    seconds: float = 0.0
    probe_s: float = None     # mean probe kernel time while the op ran

    @property
    def ok(self) -> int:
        return self.attempted - len(self.failures)

    @property
    def check_misses(self) -> int:
        return sum(r.startswith("check:") for r in self.failures)


# ---------------------------------------------------------------- CLI ops

_NUM = r"([-+0-9.eEnaif]+)"
_CPLX = r"(\(?[-+0-9.eEj]+\)?)"
_LIST = r"\[([^\]]*)\]"


def parse_certificate(command: str, stdout: str) -> dict:
    """Certificate fields printed by one CLI command, as numbers and words.

    Each float is kept with the decimal step of its printed form (``ulp``),
    so references can be compared to printed precision."""
    pats = {
        "caratheodory": [("carat", rf"caratheodory: N=(\d+) iters=(\d+) final_gap={_NUM}",
                          ("N", "iters", "final_gap"))],
        "normal-form": [("nf1", rf"1-D: C_t = {_CPLX}", ("C_t",)),
                        ("nf2", rf"2-D: C_at = {_CPLX}, rescale A = {_CPLX}", ("C_at", "rescale"))],
        "petal-check": [("petal", rf"petal-check: passed=(True|False) rotation_failures=(\d+) "
                                  rf"attraction_failures=(\d+) max_dist={_NUM}",
                         ("passed", "rotation_failures", "attraction_failures", "max_dist"))],
        "cone-check": [("local", rf"local: (\w+) worst_h={_NUM} worst_v={_NUM} failures=(\d+)",
                        ("local_verdict", "local_worst_h", "local_worst_v", "local_failures")),
                       ("global", rf"global: (\w+) worst_h={_NUM} worst_v={_NUM} "
                                  rf"vertical_ok=(True|False)",
                        ("global_verdict", "global_worst_h", "global_worst_v", "vertical_ok"))],
        "torus-iterate": [("torus", rf"torus: gap={_NUM} separation={_NUM} "
                                    rf"semiconjugacy_residual={_NUM}",
                           ("gap", "separation", "residual"))],
        "continuity": [("j", rf"continuity J: {_LIST} decreasing=(True|False)",
                        ("j_distances", "j_decreasing")),
                       ("jp", rf"continuity J\+: {_LIST} decreasing=(True|False)",
                        ("jplus_distances", "jplus_decreasing"))],
        "radial-demo": [("radial", rf"radial: {_LIST} decreasing=(True|False)",
                         ("distances", "decreasing"))],
    }[command]
    cert = {}
    for _, pat, names in pats:
        m = re.search(pat, stdout)
        if m is None:
            raise ValueError(f"certificate line missing: {pat}")
        for name, raw in zip(names, m.groups()):
            cert[name] = int(raw) if name in _COUNTS else _value(raw)
    return cert


_COUNTS = ("N", "iters", "rotation_failures", "attraction_failures", "local_failures")


def _value(raw: str):
    if raw in ("True", "False"):
        return raw == "True"
    if raw.isalpha() and raw.isupper():
        return raw
    if "," in raw or "'" in raw:
        return [_printed_float(v.strip(" '")) for v in raw.split(",") if v.strip(" '")]
    if "j" in raw:
        z = complex(raw)
        return {"re": z.real, "im": z.imag}
    return _printed_float(raw)


def _printed_float(text: str) -> dict:
    """A printed float with the size of one unit in its last printed digit."""
    mant, _, exp = text.lower().partition("e")
    decimals = len(mant.split(".")[1]) if "." in mant else 0
    ulp = 10.0 ** (int(exp or 0) - decimals)
    return {"v": float(text), "ulp": ulp}


def _num(x) -> float:
    return x["v"] if isinstance(x, dict) else float(x)


def check_certificate(command: str, cert: dict, a_abs: float, t: float) -> list:
    """Criteria each printed certificate must meet; returns the misses.

    Thresholds are the acceptance suite's: petal max distance below the
    1e-6 tolerance (acceptance 5, t > 0 half), global vertical expansion at
    least 0.95/|a| (acceptance 6), semiconjugacy residual below 10x the final
    gap (acceptance 7), strictly decreasing distances (acceptance 8).  Verdict
    words must come from the honest vocabulary and agree with their numbers.
    """
    miss = []

    def need(ok, what):
        if not ok:
            miss.append(what)

    def finite(*names):
        for n in names:
            v = cert[n]
            vals = [_num(x) for x in v] if isinstance(v, list) else (
                [v["re"], v["im"]] if isinstance(v, dict) and "re" in v else [_num(v)])
            need(all(math.isfinite(x) for x in vals), f"{n} not finite")

    if command == "caratheodory":
        finite("final_gap")
        need(0 <= _num(cert["final_gap"]) < 1e-6, "pullback did not converge (final_gap >= 1e-6)")
    elif command == "normal-form":
        finite("C_t", "C_at", "rescale")
        need(math.hypot(cert["rescale"]["re"], cert["rescale"]["im"]) > 0, "rescale A is zero")
    elif command == "petal-check":
        finite("max_dist")
        fails = cert["rotation_failures"] + cert["attraction_failures"]
        need(cert["passed"] == (fails == 0), "passed flag disagrees with failure counts")
        need(cert["rotation_failures"] == 0, "petal rotation failures")
        if t != 0:
            need(_num(cert["max_dist"]) < 1e-6, "trapping distance >= 1e-6 (acceptance 5)")
    elif command == "cone-check":
        finite("local_worst_h", "local_worst_v", "global_worst_h", "global_worst_v")
        for side in ("local", "global"):
            verdict = cert[f"{side}_verdict"]
            need(verdict in ("PASS", "FAIL"), f"{side} verdict {verdict!r} not in vocabulary")
            if verdict == "PASS":
                need(_num(cert[f"{side}_worst_h"]) > 1 and _num(cert[f"{side}_worst_v"]) > 1,
                     f"{side} PASS without expansion")
        if cert["local_verdict"] == "PASS":
            need(cert["local_failures"] == 0, "local PASS with invariance failures")
        need(cert["vertical_ok"], "global vertical expansion below 0.95/|a| (acceptance 6)")
        floor = 0.95 / a_abs
        v = cert["global_worst_v"]
        need(_num(v) + v["ulp"] >= floor, "vertical_ok disagrees with worst_v")
    elif command == "torus-iterate":
        finite("gap", "separation", "residual")
        need(_num(cert["residual"]) < 10 * _num(cert["gap"]),
             "semiconjugacy residual >= 10x gap (acceptance 7)")
        need(_num(cert["separation"]) > 0, "fibers not separated")
    elif command == "continuity":
        finite("j_distances", "jplus_distances")
        need(cert["j_decreasing"], "d_H(J_t, J_0) not strictly decreasing (acceptance 8)")
        need(cert["jplus_decreasing"], "d_H of J+ slices not strictly decreasing (acceptance 8)")
    elif command == "radial-demo":
        finite("distances")
        need(cert["decreasing"], "radial distances not strictly decreasing (acceptance 8)")
    return miss


def _fmt(x: float) -> str:
    return repr(float(x))


@dataclass
class CliOp:
    """One ``henonlab`` command line, every flag written as ``--flag=value``
    so that negative values are never read as options."""
    command: str
    flags: dict
    a_abs: float = 0.0
    t: float = 0.0

    @property
    def name(self) -> str:
        keys = ("pq", "t", "a", "t-list")
        return " ".join([self.command] + [f"{k}={self.flags[k]}" for k in keys if k in self.flags])

    def argv(self, out_prefix: str) -> list:
        return [self.command] + [f"--{k}={v}" for k, v in self.flags.items()] + [f"--out={out_prefix}"]

    def cells(self) -> int:
        return 1

    def run(self, workdir: str):
        from henonlab import cli

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = cli.main(self.argv(os.path.join(workdir, "out")))
            except SystemExit as exc:   # argparse usage error
                rc = exc.code if isinstance(exc.code, int) else 2
                print(f"usage error: {exc}", file=stderr)
        return rc, stdout.getvalue(), stderr.getvalue()

    def judge(self, raw) -> Outcome:
        rc, out, err = raw
        reported = [ln for ln in err.splitlines() if ln.startswith(CLI_FAIL_PREFIXES)]
        if rc in (2, 3) and reported:
            return Outcome(1, [reported[0].split(":", 1)[0]])
        if rc not in (0, 3):
            return Outcome(1, [f"exit {rc}"])
        try:
            cert = parse_certificate(self.command, out)
        except ValueError as exc:
            return Outcome(1, [f"check: {exc}"])
        misses = check_certificate(self.command, cert, self.a_abs, self.t)
        if rc == 3 and not misses:
            misses = ["exit 3 without a failing certificate"]
        return Outcome(1, [f"check: {m}" for m in misses[:1]], cert=cert)


# --------------------------------------------------------------- scan ops

@dataclass
class ScanOp:
    """One library scan call; each cell with a != 0 is one attempt."""
    kind: str            # "connectivity" | "hyperbolicity"
    kwargs: dict

    @property
    def name(self) -> str:
        return f"{self.kind}_scan"

    def cells(self) -> int:
        if self.kind == "connectivity":
            import numpy as np
            re0, re1, im0, im1 = self.kwargs["a_window"]
            n = self.kwargs["resolution"]
            return sum(complex(r, i) != 0 for i in np.linspace(im0, im1, n)
                       for r in np.linspace(re0, re1, n))
        return len(self.kwargs["t_values"]) * sum(a != 0 for a in self.kwargs["a_values"])

    def run(self, workdir: str):
        if self.kind == "connectivity":
            from henonlab import lab
            return [c for row in lab.connectivity_scan(**self.kwargs) for c in row]
        from henonlab import cones
        return cones.hyperbolicity_scan(**self.kwargs)

    def judge(self, cells) -> Outcome:
        failures, cert = [], []
        attempted = 0
        for c in cells:
            verdict, raised, miss, row = judge_cell(self.kind, c)
            row["raised"] = raised
            cert.append(row)
            if verdict == "EXCLUDED" and not raised:
                continue
            attempted += 1
            if raised:
                failures.append("raised")
            elif miss:
                failures.append(f"check: {miss}")
        return Outcome(attempted, failures, cert={"cells": cert})


def judge_cell(kind: str, c):
    """(verdict, raised, check miss or "", certificate row) for one scan cell.

    ``a = 0`` cells are EXCLUDED by design.  The scans turn a library error
    into a NaN gap (connectivity) or an EXCLUDED verdict at ``a != 0``
    (hyperbolicity); both mean the cell raised."""
    if kind == "connectivity":
        row = {"a": [c.a.real, c.a.imag], "verdict": c.verdict,
               "final_gap": c.final_gap, "separation": c.separation}
        if c.verdict == "EXCLUDED":
            return c.verdict, c.a != 0, "", row
        if math.isnan(c.final_gap):
            return c.verdict, True, "", row
        miss = ""
        if c.verdict not in ("CONNECTED-BY-CONSTRUCTION", "UNKNOWN"):
            miss = f"verdict {c.verdict!r} not in vocabulary"
        elif not (math.isfinite(c.final_gap) and math.isfinite(c.separation)):
            miss = "gap or separation not finite"
        elif c.verdict.startswith("CONNECTED") and not (c.final_gap < 5e-2 and c.separation > 1e-2):
            miss = "CONNECTED without converged gap and separated fibers"
        return c.verdict, False, miss, row
    row = {"t": c.t, "a": c.a, "verdict": c.verdict, "worst_h": c.worst_h, "worst_v": c.worst_v}
    if c.verdict == "EXCLUDED":
        return c.verdict, c.a != 0, "", row
    miss = ""
    expands = c.worst_h > 1 and c.worst_v > 1
    if c.verdict not in ("PASS", "MARGINAL", "FAIL"):
        miss = f"verdict {c.verdict!r} not in vocabulary"
    elif not (math.isfinite(c.worst_h) and math.isfinite(c.worst_v)):
        miss = "expansion not finite"
    elif c.verdict == "PASS" and (c.t == 0 or not expands):
        miss = "PASS at t = 0 or without expansion"
    elif c.verdict == "MARGINAL" and (c.t != 0 or not expands):
        miss = "MARGINAL away from t = 0 or without expansion"
    return c.verdict, False, miss, row


# --------------------------------------------------------------- workloads

def seed_factor(seed: int) -> float:
    return random.Random(seed).uniform(*FACTOR_RANGE)


def build_ops(workload: str, seed: int) -> list:
    """The operations of one pass; the seed fixes every RNG seed and the
    common factor on nonzero t, a and t-list values."""
    f = seed_factor(seed)
    s = seed % 2**31

    def cli(command, pq, t=None, a=None, **flags):
        fl = {"pq": pq}
        if t is not None:
            fl["t"] = _fmt(t * f)
        if a is not None:
            fl["a"] = _fmt(a * f)
        fl.update(flags)
        fl["seed"] = s
        return CliOp(command, fl, a_abs=abs(a * f) if a else 0.0, t=(t or 0.0) * f)

    def tlist(*ts):
        return ",".join(_fmt(t * f) for t in ts)

    if workload == "jets":
        return [
            cli("normal-form", "1/1", 0.05, 0.05),
            cli("normal-form", "1/2", -0.02, 0.05),
            cli("normal-form", "1/3", 0.01, 0.1),
            cli("cone-check", "1/1", 0.05, 0.05, samples=10000),
            cli("cone-check", "1/2", -0.02, 0.05, samples=10000),
            cli("petal-check", "1/1", 0.05, 0.05, samples=1000, iters=500),
            cli("petal-check", "1/2", 0.0, 0.05, samples=1000, iters=500),
        ]
    if workload == "julia":
        return [
            cli("caratheodory", "1/2", 0.1, angles=4096, iters=60),
            cli("torus-iterate", "1/1", 0.1, 0.05, angles=2048, iters=40),
            cli("continuity", "1/1", a=0.05, **{"t-list": tlist(0.2, 0.1, 0.05, 0.025)}, res=800),
            cli("radial-demo", "1/1", **{"t-list": tlist(0.2, 0.1, 0.05, 0.025)}, angles=2048),
        ]
    if workload == "scan":
        import numpy as np
        w = 0.2 * f
        return [
            ScanOp("connectivity", dict(p_over_q=(1, 2), t=0.1 * f, a_window=(-w, w, -w, w),
                                        resolution=9, n_angles=1024, n_iters=30)),
            ScanOp("hyperbolicity", dict(p_over_q=(1, 1), t_values=[-0.05 * f, 0.0, 0.05 * f],
                                         a_values=np.linspace(-0.3 * f, 0.3 * f, 9), seed=s)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# --------------------------------------------------------------- running

def run_op(op, workdir: str, limit_s: float, rec=None) -> Outcome:
    """Run one operation under the time limit; classify what it produced.

    Only the operation itself is timed; parsing, checking and hashing are
    not.  ``rec`` (a tracing Recorder) gets a ``cli.<command>`` span."""
    os.makedirs(workdir, exist_ok=True)
    for stale in os.listdir(workdir):
        os.remove(os.path.join(workdir, stale))
    if limit_s <= 0:
        return Outcome(op.cells(), ["timeout"] * op.cells())
    span = (rec.span(f"cli.{op.command}") if rec is not None and isinstance(op, CliOp)
            else contextlib.nullcontext())
    probe = hb_probe.Probe()
    sampling = probe.sampling() if rec is None else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        try:
            with time_limit(limit_s), span, sampling:
                raw = op.run(workdir)
        finally:
            seconds = time.perf_counter() - t0 - probe.spent
    except OpTimeout:
        outcome = Outcome(op.cells(), ["timeout"] * op.cells())
    except Exception as exc:  # any raise is a failed attempt, not a benchmark crash
        outcome = Outcome(op.cells(), [f"raised {type(exc).__name__}"] * op.cells())
    else:
        outcome = op.judge(raw)
        outcome.files = hash_files(workdir)
    outcome.seconds = seconds
    outcome.probe_s = probe.mean() if probe.samples else None
    return outcome


def hash_files(workdir: str) -> dict:
    out = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


# --------------------------------------------------------------- reference

FULL_RTOL = 1e-12   # ROADMAP: C_at to 1e-12, torus gaps to 1e-13
ABS_FLOOR = 1e-13


def compare_to_reference(cert, ref, path="") -> list:
    """Differences between a certificate and its reference beyond tolerance.

    Printed floats may differ by one unit in their last printed digit; full
    precision floats by FULL_RTOL relative; words, flags and counts exactly."""
    if isinstance(ref, dict) and "v" in ref:
        tol = max(ref["ulp"], cert["ulp"]) * 1.001 + ABS_FLOOR
        ok = abs(cert["v"] - ref["v"]) <= tol
        return [] if ok else [f"{path}: {cert['v']} vs {ref['v']}"]
    if isinstance(ref, dict):
        if not isinstance(cert, dict) or set(ref) != set(cert):
            return [f"{path}: fields differ"]
        return [d for k in ref for d in compare_to_reference(cert[k], ref[k], f"{path}.{k}")]
    if isinstance(ref, list):
        if not isinstance(cert, list) or len(cert) != len(ref):
            return [f"{path}: length differs"]
        return [d for i, (c, r) in enumerate(zip(cert, ref))
                for d in compare_to_reference(c, r, f"{path}[{i}]")]
    if isinstance(ref, float):
        if math.isnan(ref):
            return [] if isinstance(cert, float) and math.isnan(cert) else [f"{path}: {cert} vs nan"]
        ok = abs(cert - ref) <= FULL_RTOL * abs(ref) + ABS_FLOOR
        return [] if ok else [f"{path}: {cert!r} vs {ref!r}"]
    return [] if cert == ref else [f"{path}: {cert!r} vs {ref!r}"]


def reference_misses(outcome: Outcome, ref_cert: dict) -> list:
    """Differences from the reference certificate, one entry per attempt
    that differs.  Scan cells are compared only where both this run and the
    reference certified them, so a cell that stops raising is not a miss."""
    if not outcome.ok:
        return []
    if "cells" in ref_cert:
        rows, ref_rows = outcome.cert.get("cells", []), ref_cert["cells"]
        if len(rows) != len(ref_rows):
            return ["cell count differs from reference"]
        diffs = [d for row, r in zip(rows, ref_rows)
                 if not (row["raised"] or r["raised"])
                 for d in compare_to_reference(row, r, "cell")[:1]]
        return diffs[:outcome.ok]
    return compare_to_reference(outcome.cert, ref_cert, "cert")[:1]
