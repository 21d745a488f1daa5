"""Command-line front end.  Exit codes: 0 success, 2 precondition error,
3 numerical failure, 4 a worker process died."""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import io
from .cones import SCAN_SAMPLES, global_cone_check, hyperbolicity_scan, local_cone_check, sector_samples
from .errors import NumericalError, PreconditionError, WorkerError
from .henon import make_params
from .lab import connectivity_scan, continuity_experiment, radial_demo
from .normalform2d import petal_check, reduce
from .poly1d import _normalize_pq, caratheodory, normal_form_1d, poly_params
from .torus import DISK_DEGREE, semiconjugacy_residual, torus_fixed_point

COMMANDS = (
    "caratheodory", "normal-form", "petal-check", "cone-check", "hyp-scan",
    "torus-iterate", "continuity", "connectivity-scan", "radial-demo",
)


class _Parser(argparse.ArgumentParser):
    """Reads a value that starts with a single '-' after a bare `--flag` as that
    flag's value (`--pq -1/2` as `--pq=-1/2`): argparse alone reads such a value
    as a flag unless it is a plain negative decimal."""

    def parse_known_args(self, args=None, namespace=None):
        args = list(sys.argv[1:] if args is None else args)
        for i in range(len(args) - 2, -1, -1):
            flag, value = args[i], args[i + 1]
            if (flag.startswith("--") and len(flag) > 2 and "=" not in flag
                    and value.startswith("-") and not value.startswith("--")):
                args[i:i + 2] = [f"{flag}={value}"]
        return super().parse_known_args(args, namespace)


def build_parser():
    ap = _Parser(prog="henonlab")
    ap.add_argument("subcommand", choices=COMMANDS)
    ap.add_argument("--config", help="flat key=value config file; flags override")
    ap.add_argument("--pq", help="rotation number p/q, e.g. 1/2 (every command)")
    ap.add_argument("--t", type=float, help="multiplier perturbation (caratheodory, "
                    "normal-form, petal-check, cone-check, torus-iterate, connectivity-scan)")
    ap.add_argument("--a", type=complex, help="Jacobian parameter, complex ok (every command "
                    "but caratheodory and radial-demo; the scans span -|a| .. |a|)")
    ap.add_argument("--angles", type=int, help="angle samples, a power of two, at least 1024 "
                    "for caratheodory and radial-demo (caratheodory, torus-iterate, continuity, "
                    "connectivity-scan, radial-demo)")
    ap.add_argument("--degree", type=int, help="disk Taylor degree "
                    "(torus-iterate, continuity, connectivity-scan)")
    ap.add_argument("--iters", type=int, help="iteration count (caratheodory, petal-check, "
                    "torus-iterate, continuity, connectivity-scan, radial-demo)")
    ap.add_argument("--res", type=int, help="grid resolution (hyp-scan, continuity, connectivity-scan)")
    ap.add_argument("--depth", type=int, help="sigma-orbit depth (continuity)")
    ap.add_argument("--seed", type=int, help="RNG seed (petal-check, cone-check, hyp-scan, "
                    "torus-iterate)")
    ap.add_argument("--samples", type=int, help="sample count (petal-check, cone-check, hyp-scan)")
    ap.add_argument("--tol", type=float, help="trapping tolerance (petal-check)")
    ap.add_argument("--t-list", help="comma separated t values (hyp-scan, continuity, radial-demo)")
    ap.add_argument("--out", help="output path prefix (every command)")
    return ap


@dataclass
class RunConfig:
    """Flat run description; round-trips losslessly through key=value files."""

    subcommand: str = ""
    pq: str = "1/1"
    t: float = 0.0
    a_re: float = 0.05
    a_im: float = 0.0
    angles: int = 1024
    degree: int = DISK_DEGREE
    iters: int = 40
    res: int = 400
    depth: int = 12
    seed: int = 0
    tol: float = 1e-6
    samples: int = 1000
    t_list: str = "0.2,0.1,0.05,0.025"
    out: str = "out"

    @property
    def a(self) -> complex:
        return complex(self.a_re, self.a_im)

    @property
    def p_over_q(self):
        frac = _normalize_pq(self.pq)
        return (frac.numerator, frac.denominator)

    @property
    def ts(self):
        try:
            ts = [float(v) for v in self.t_list.split(",")]
            if all(math.isfinite(v) for v in ts):
                return ts
        except ValueError:
            pass
        raise PreconditionError(
            f"t list must be comma separated finite numbers, got {self.t_list!r}")

    def to_file(self, path):
        with open(path, "w") as fh:
            fh.write("# henonlab run config v1\n")
            for f in fields(self):
                v = getattr(self, f.name)
                fh.write(f"{f.name}=%.17g\n" % v if isinstance(v, float) else f"{f.name}={v}\n")

    @classmethod
    def from_file(cls, path, **defaults):
        """The config in a key=value file; a key it leaves out takes its value
        from ``defaults``, then from the field default."""
        kwargs = dict(defaults)
        types = {f.name: f.type for f in fields(cls)}
        try:
            fh = open(path)
        except OSError as exc:
            raise PreconditionError(f"cannot read config file {path}: {exc.strerror}") from None
        with fh:
            for line in fh:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, val = line.partition("=")
                key = key.strip()
                if key not in types:
                    raise PreconditionError(f"unknown config key: {key}")
                typ = types[key]
                try:
                    kwargs[key] = (float(val) if typ == "float"
                                   else int(val) if typ == "int" else val.strip())
                except ValueError:
                    raise PreconditionError(
                        f"config key {key}: {val.strip()!r} is not a valid {typ}") from None
        return cls(**kwargs)


# Per-command defaults for the RunConfig sizes, the only defaults of the sizes: the
# library takes each as an argument.  RunConfig's own res/angles/iters defaults belong
# to continuity and torus-iterate.  petal-check runs its orbits 500 steps: 40 leave
# the README line's samples up to 5.8e-2 from the cycle.
COMMAND_DEFAULTS = {
    "petal-check": {"iters": 500},
    "hyp-scan": {"res": 9, "samples": SCAN_SAMPLES},
    "connectivity-scan": {"res": 16, "angles": 256, "iters": 12},
}


def config_from_args(args) -> RunConfig:
    defaults = COMMAND_DEFAULTS.get(args.subcommand, {})
    cfg = RunConfig.from_file(args.config, **defaults) if args.config else RunConfig(**defaults)
    cfg.subcommand = args.subcommand
    for name in ("pq", "t", "angles", "degree", "iters", "res", "depth",
                 "seed", "samples", "tol", "out"):
        v = getattr(args, name)
        if v is not None:
            setattr(cfg, name, v)
    if args.a is not None:
        cfg.a_re, cfg.a_im = args.a.real, args.a.imag
    if args.t_list is not None:
        cfg.t_list = args.t_list
    return cfg


# gray level of each verdict in a scan's PGM
HYP_SCAN_LEVELS = {"PASS": 255, "MARGINAL": 170, "FAIL": 60, "EXCLUDED": 0}
CONNECTIVITY_LEVELS = {"UNKNOWN": 0, "EXCLUDED": 128, "CONNECTED-BY-CONSTRUCTION": 255}


def _write_verdicts(path, rows, levels):
    """PGM of a grid of scan cells, one pixel per cell at its verdict's level."""
    io.write_pgm(path, [[levels[c.verdict] for c in row] for row in rows])


def _write_distances(path, result):
    io.write_csv(path, f"hausdorff {result.meta}", "t,distance",
                 [result.t_values, result.distances])


def run(cfg: RunConfig) -> int:
    out = cfg.out
    out_dir = os.path.dirname(out)
    if out_dir and not os.path.isdir(out_dir):
        raise PreconditionError(f"output directory {out_dir!r} of --out does not exist")
    if cfg.subcommand in ("hyp-scan", "connectivity-scan"):
        if cfg.res < 1:
            raise PreconditionError(f"--res must be at least 1, got {cfg.res}")
        if not np.isfinite(cfg.a):
            raise PreconditionError(f"--a must be finite, got {cfg.a}")
    if cfg.seed < 0:
        raise PreconditionError(f"--seed must be >= 0, got {cfg.seed}")
    if cfg.subcommand == "caratheodory":
        res = caratheodory(poly_params(cfg.p_over_q, cfg.t), cfg.angles, cfg.iters)
        n = res.loop.N
        io.write_csv(out + ".csv", "loop", "k,s,re,im,level",
                     [np.arange(n), np.arange(n) / n, res.loop.values, np.full(n, res.loop.level)])
        print(f"caratheodory: N={cfg.angles} iters={cfg.iters} final_gap={res.final_gap:.3e}")
    elif cfg.subcommand == "normal-form":
        pp = poly_params(cfg.p_over_q, cfg.t)
        params = make_params(cfg.p_over_q, cfg.t, cfg.a) if cfg.a != 0 else None
        change, normal, C_t = normal_form_1d(pp)
        print(f"1-D: C_t = {C_t}")
        if params is not None:
            nf = reduce(params)
            io.write_csv(out + "_normal.csv", "normal-form", "component,i,j,re,im",
                         zip(*((k, i, j, complex(h.coeffs[i, j])) for k, h in enumerate(nf.normal)
                               for i in range(nf.D + 1) for j in range(nf.D + 1 - i))))
            print(f"2-D: C_at = {nf.C_at}, rescale A = {nf.rescale}")
    elif cfg.subcommand == "petal-check":
        params = make_params(cfg.p_over_q, cfg.t, cfg.a)
        rep = petal_check(params, reduce(params, D=2 * params.q + 8),
                          samples=cfg.samples, steps=cfg.iters, tol=cfg.tol, seed=cfg.seed)
        io.write_csv(out + ".csv", f"trapping {rep.region}",
                     "start_x_re,start_x_im,start_y_re,start_y_im,"
                     "end_x_re,end_x_im,end_y_re,end_y_im,final_distance,verdict", zip(*rep.rows))
        print(f"petal-check: passed={rep.passed} rotation_failures={rep.rotation_failures} "
              f"attraction_failures={rep.attraction_failures} max_dist={rep.max_final_distance:.3e}")
        if not rep.passed:
            return 3
    elif cfg.subcommand == "cone-check":
        params = make_params(cfg.p_over_q, cfg.t, cfg.a)
        nf = reduce(params, D=2 * params.q + 8)
        loc = local_cone_check(params, nf, sector_samples(params, cfg.samples, seed=cfg.seed))
        glob = global_cone_check(params, cfg.samples, cfg.seed, nf) if cfg.a != 0 else None
        print(f"local: {loc.verdict} worst_h={loc.worst_h_expansion:.6f} "
              f"worst_v={loc.worst_v_expansion:.3g} failures={loc.invariance_failures}")
        if glob is not None:
            print(f"global: {glob.verdict} worst_h={glob.worst_h_expansion:.6f} "
                  f"worst_v={glob.worst_v_expansion:.3g} vertical_ok={glob.extras['vertical_ok']}")
    elif cfg.subcommand == "hyp-scan":
        pq, ts = cfg.p_over_q, cfg.ts
        a_vals = np.linspace(-abs(cfg.a), abs(cfg.a), cfg.res)
        cells = hyperbolicity_scan(pq, ts, a_vals, local_samples=cfg.samples, seed=cfg.seed)
        io.write_csv(out + ".csv", "hyperbolicity-scan", "t,a,verdict,worst_h,worst_v",
                     zip(*((c.t, c.a, c.verdict, c.worst_h, c.worst_v) for c in cells)))
        n = len(a_vals)
        _write_verdicts(out + ".pgm", (cells[i:i + n] for i in range(0, len(cells), n)),
                        HYP_SCAN_LEVELS)
        print(f"hyp-scan: {sum(c.verdict == 'PASS' for c in cells)}/{len(cells)} PASS")
    elif cfg.subcommand == "torus-iterate":
        params = make_params(cfg.p_over_q, cfg.t, cfg.a)
        result = torus_fixed_point(params, cfg.iters, cfg.angles, cfg.degree)
        torus = result.torus
        n, m = torus.coeffs.shape
        io.write_csv(out + ".csv", "torus", "level,k,s,coeff_index,re,im",
                     [np.full(n * m, torus.level), np.repeat(np.arange(n), m),
                      np.repeat(np.arange(n) / n, m), np.tile(np.arange(m), n), torus.coeffs.ravel()])
        resid = semiconjugacy_residual(params, torus, seed=cfg.seed)
        print(f"torus: gap={result.final_gap:.3e} separation={result.torus.separation():.3e} "
              f"semiconjugacy_residual={resid:.3e}")
    elif cfg.subcommand == "continuity":
        rj, rs = continuity_experiment(cfg.p_over_q, cfg.a, cfg.ts, resolution=cfg.res,
                                       n_angles=cfg.angles, n_iters=cfg.iters, depth=cfg.depth,
                                       disk_degree=cfg.degree)
        _write_distances(out + "_j.csv", rj)
        _write_distances(out + "_jplus.csv", rs)
        print(f"continuity J: {['%.4f' % d for d in rj.distances]} decreasing={rj.strictly_decreasing}")
        print(f"continuity J+: {['%.4f' % d for d in rs.distances]} decreasing={rs.strictly_decreasing}")
    elif cfg.subcommand == "connectivity-scan":
        w = abs(cfg.a)
        cells = connectivity_scan(cfg.p_over_q, cfg.t, (-w, w, -w, w), resolution=cfg.res,
                                  n_angles=cfg.angles, n_iters=cfg.iters, disk_degree=cfg.degree)
        _write_verdicts(out + ".pgm", cells, CONNECTIVITY_LEVELS)
        flat = [c for row in cells for c in row]
        print(f"connectivity: {sum(c.verdict.startswith('CONNECTED') for c in flat)}/{len(flat)} connected")
    elif cfg.subcommand == "radial-demo":
        r = radial_demo(cfg.p_over_q, cfg.ts, N=cfg.angles, n_iters=cfg.iters)
        _write_distances(out + ".csv", r)
        print(f"radial: {['%.4f' % d for d in r.distances]} decreasing={r.strictly_decreasing}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(config_from_args(args))
    except PreconditionError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"precondition error: the input is too large to allocate: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except WorkerError as exc:  # a worker died (the OOM killer, say)
        print(f"worker failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
