#!/usr/bin/env python3
"""henonlab benchmark: three closed-loop workloads driven through the public
entry points (``henonlab.cli.main`` and the two library scans).

    python3 henonbench/run.py --workload jets --seed 1 --seconds 20 --trace 0
    python3 henonbench/run.py --workload all            # every workload, one table

Run from the repository root; the package is imported from ``src/``.  One
run measures ``setup_s`` in fresh child interpreters first, then repeats
passes over the workload in this process, one operation at a time, until
``--seconds`` have been measured.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` runs one untraced pass and then traced passes and
reports the per-layer metrics.  The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".henonbench_out" / str(os.getpid())   # per process: runs may overlap
REFERENCE = HERE / "hb_reference.json"
REFERENCE_SEED = 0
SETUP_REPEATS = 5
SETUP_PROBES = 20      # kernel runs on each side of a set-up measurement
RUN_BUDGET_S = 165.0   # a run must end within 180 s, hangs included
SETUP_PACKAGES = {"numpy": "numpy", "scipy.signal": "scipy_signal",
                  "scipy.spatial": "scipy_spatial"}
WORKLOADS = ("jets", "julia", "scan")


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds of numpy, scipy.signal and scipy.spatial,
    and henonlab's own (self) import seconds, from ``-X importtime``."""
    out = {f"setup.{v}_s": 0.0 for v in SETUP_PACKAGES.values()}
    out["setup.henonlab_s"] = 0.0
    for m in re.finditer(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$", stderr, re.M):
        self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name in SETUP_PACKAGES:
            out[f"setup.{SETUP_PACKAGES[name]}_s"] = cum_us / 1e6
        if name == "henonlab" or name.startswith("henonlab."):
            out["setup.henonlab_s"] += self_us / 1e6
    return out


def measure_setup(repeats: int):
    """Median wall time of a fresh interpreter importing henonlab.cli and
    building its parser, scaled to the probe's reference speed by kernel
    samples taken just before and just after it, and the median (unscaled)
    import breakdown."""
    import hb_probe

    code = "import henonlab.cli as c; c.build_parser()"
    walls, parts = [], []
    for _ in range(repeats):
        before = hb_probe.sample(SETUP_PROBES)
        t0 = time.perf_counter()
        p = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                           env=child_env(), capture_output=True, text=True, timeout=30)
        wall = time.perf_counter() - t0
        speed = (before + hb_probe.sample(SETUP_PROBES)) / 2
        walls.append(hb_probe.quiet_seconds(wall, speed))
        if p.returncode != 0:
            raise SystemExit(f"henonbench: importing henonlab.cli failed:\n{p.stderr[-2000:]}")
        parts.append(parse_importtime(p.stderr))
    return statistics.median(walls), {k: statistics.median(d[k] for d in parts) for k in parts[0]}


def load_reference(workload: str, seed: int):
    if seed != REFERENCE_SEED or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload)


class Pass:
    """One pass over the workload's operations."""

    def __init__(self, outcomes, ops, baseline_files, reference, traced):
        import hb_ops

        self.outcomes = outcomes
        self.traced = traced
        self.wall = sum(o.seconds for o in outcomes)
        for i, o in enumerate(outcomes):
            if reference is not None:
                misses = hb_ops.reference_misses(o, reference[i]["cert"])
                o.failures += [f"check: reference {m}" for m in misses]
        self.attempted = sum(o.attempted for o in outcomes)
        self.failures = Counter(r for o in outcomes for r in o.failures)
        self.failed = sum(self.failures.values())
        self.ok = self.attempted - self.failed
        self.check_misses = sum(o.check_misses for o in outcomes)
        self.outputs_changed = sum(
            base.get(name) != o.files.get(name)
            for o, base in zip(outcomes, baseline_files) for name in set(base) | set(o.files))
        self.cells = Counter()
        for op, o in zip(ops, outcomes):
            if isinstance(op, hb_ops.ScanOp):
                self.cells["attempted"] += o.attempted
                self.cells["raised"] += sum(r == "raised" for r in o.failures)
                self.cells["certified"] += o.ok


def pass_wall(passes, quiet=False) -> float:
    """Wall time of one pass, as the sum over operations of each one's
    fastest time across passes.  With ``quiet``, each operation's time is
    first scaled to the probe's reference speed (see ``hb_probe``), which
    takes out most of a shared host's drift in speed."""
    import hb_probe

    def seconds(o):
        return hb_probe.quiet_seconds(o.seconds, o.probe_s) if quiet else o.seconds

    n_ops = len(passes[0].outcomes)
    return sum(min(seconds(p.outcomes[i]) for p in passes) for i in range(n_ops))


def run_pass(ops, deadline: float, baseline_files, reference, rec=None) -> Pass:
    import hb_ops

    outcomes = []
    for i, op in enumerate(ops):
        limit = min(hb_ops.OP_LIMIT_S, deadline - time.perf_counter())
        outcomes.append(hb_ops.run_op(op, str(OUT / str(i)), limit, rec))
    if baseline_files is None:
        baseline_files = [o.files for o in outcomes]
    return Pass(outcomes, ops, baseline_files, reference, traced=rec is not None)


def run_workload(args) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    setup_s, setup_parts = measure_setup(SETUP_REPEATS)

    sys.path.insert(0, str(SRC))
    import hb_ops
    import hb_trace
    import henonlab.cli  # noqa: F401  (the workload's own import, before timing)

    ops = hb_ops.build_ops(args.workload, args.seed)
    reference = None if args.record else load_reference(args.workload, args.seed)
    baseline = [r["files"] for r in reference] if reference else None
    untraced, traced, layer = [], [], []

    t_meas = time.perf_counter()
    while True:
        p = run_pass(ops, deadline, baseline, reference)
        baseline = baseline or [o.files for o in p.outcomes]
        untraced.append(p)
        if args.trace or time.perf_counter() - t_meas >= args.seconds or time.perf_counter() > deadline:
            break
    while args.trace:
        rec = hb_trace.Recorder()
        with hb_trace.installed(rec):
            p = run_pass(ops, deadline, baseline, reference, rec)
        traced.append(p)
        layer.append(rec.metrics())
        if time.perf_counter() - t_meas >= args.seconds or time.perf_counter() > deadline:
            break

    if args.record:
        record_reference(args.workload, ops, untraced[0])

    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        med = statistics.median
        metrics = {k: med([m[k] for m in layer]) for k in layer[0]}
        metrics.update(setup_parts)
        metrics["io.outputs_changed"] = med([p.outputs_changed for p in traced])
        for k in ("attempted", "certified", "raised"):
            metrics[f"scan.cells.{k}"] = med([p.cells[k] for p in traced])
        metrics["trace.overhead_s"] = pass_wall(traced) - pass_wall(untraced)
        metrics["wall.raw_s"] = pass_wall(untraced)
        metrics["probe.kernel_s"] = statistics.median(
            o.probe_s for p in untraced for o in p.outcomes if o.probe_s is not None)
    else:
        wall = pass_wall(untraced, quiet=True)
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall,
            "goodput_per_s": statistics.median(p.ok for p in untraced) / wall,
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return {
        "passes": passes, "ops": ops, "metrics": metrics,
        "attempted": attempted, "failed": failed,
        "correct": all(p.check_misses == 0 for p in passes),
    }


def record_reference(workload: str, ops, first_pass: Pass):
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    data[workload] = [{"op": op.name, "cert": o.cert, "files": o.files}
                      for op, o in zip(ops, first_pass.outcomes)]
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded reference for {workload} in {REFERENCE.name}")


UNITS = {"setup_s": "s", "wall_s": "s", "goodput_per_s": "1/s", "ok_frac": "ratio",
         "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "bytes" if name == "io.bytes" else "count"


def report(res) -> dict:
    import hb_probe

    for i, p in enumerate(res["passes"]):
        kind = "traced" if p.traced else "untraced"
        times = " ".join(f"{o.seconds:.2f}" for o in p.outcomes)
        if not p.traced:
            times += " (at reference speed: " + " ".join(
                f"{hb_probe.quiet_seconds(o.seconds, o.probe_s):.2f}" for o in p.outcomes) + ")"
        print(f"pass {i} ({kind}): wall {p.wall:.3f} s; per op: {times}; "
              f"ok {p.ok}/{p.attempted}; failures {dict(p.failures)}")
    for op, o in zip(res["ops"], res["passes"][0].outcomes):
        print(f"  op {op.name}: {o.ok}/{o.attempted} ok {sorted(set(o.failures))}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"attempted {attempted}  failed {failed}  failed_frac {failed / attempted:.4f} ratio")
    for name, value in res["metrics"].items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    return {
        "correct": res["correct"], "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in res["metrics"].items()},
    }


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    results = {}
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=400)
        if p.returncode != 0:
            print(p.stdout + p.stderr, file=sys.stderr)
            return p.returncode
        results[w] = json.loads(p.stdout.strip().splitlines()[-1])
    names = list(results[WORKLOADS[0]]["metrics"])
    print(f"{'metric':36s} {'unit':6s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    for name in names:
        row = [results[w]["metrics"][name]["value"] for w in WORKLOADS]
        print(f"{name:36s} {unit_of(name):6s}" + "".join(f"{v:14.6g}" for v in row))
    for key in ("attempted", "failed"):
        print(f"{key:36s} {'count':6s}" + "".join(f"{results[w][key]:14d}" for w in WORKLOADS))
    print(f"{'failed_frac':36s} {'ratio':6s}" + "".join(
        f"{results[w]['failed'] / results[w]['attempted']:14.4f}" for w in WORKLOADS))
    print(f"{'correct':36s} {'':6s}" + "".join(f"{str(results[w]['correct']):>14s}" for w in WORKLOADS))
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help=f"store the first pass as the seed-{REFERENCE_SEED} reference")
    args = ap.parse_args(argv)
    if not (SRC / "henonlab" / "cli.py").is_file():
        print(f"henonbench: no henonlab source under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.record and (args.seed != REFERENCE_SEED or args.trace):
        ap.error(f"--record needs --seed {REFERENCE_SEED} --trace 0")
    if args.workload == "all":
        return run_all(args)
    try:
        res = run_workload(args)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
        try:
            OUT.parent.rmdir()
        except OSError:   # another run still uses it
            pass
    print(json.dumps(report(res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
