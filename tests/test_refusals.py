"""Refusals and failing verdicts that the rest of the suite never reaches."""

import numpy as np
import pytest

import henonlab.henon as hn
from henonlab import cli, cones, io, lab
from henonlab import normalform2d as nf2
from henonlab import poly1d as p1
from henonlab import torus as tor
from henonlab.errors import NumericalError, PreconditionError
from henonlab.series import (
    TruncSeries1,
    TruncSeries2,
    compose1,
    compose2,
    invert1,
    invert2,
    reciprocal1,
)

P11 = hn.make_params((1, 1), 0.05, 0.05)
S1 = TruncSeries1([0.0, 1.0, 2.0], D=3)
X2, Y2 = TruncSeries2.var_x(3), TruncSeries2.var_y(3)
TORUS = tor.SolidTorus(coeffs=np.ones((8, 3), dtype=complex), level=0)


def _loop(n, level):
    return p1.LoopSample(values=np.exp(2j * np.pi * np.arange(n) / n), level=level)


REFUSALS = {
    "petal_check samples": (
        lambda: nf2.petal_check(P11, nf2.reduce(P11), samples=9, steps=0, tol=1e-6, seed=0),
        PreconditionError, "sample count too small"),
    "make_params a nan": (lambda: hn.make_params((1, 1), 0.05, complex("nan")), PreconditionError,
                          r"a must be a finite number, got \(nan\+0j\)"),
    "make_params a inf": (lambda: hn.make_params((1, 1), 0.05, float("inf")), PreconditionError,
                          "a must be a finite number, got inf"),
    "reduce order": (lambda: nf2.reduce(P11, D=3), PreconditionError,
                     r"truncation order must be at least 2q\+2"),
    "equipotential level": (lambda: p1.equipotential_loop(P11.poly, 8, level=0.0),
                            PreconditionError, "equipotential level must be positive"),
    "torus_seed level": (lambda: tor.torus_seed(_loop(8, 0.0), 2), PreconditionError,
                         "seed loop must sit at a positive Green level"),
    "phi_oa2 grids": (lambda: tor.phi_oa2_residual(P11, TORUS, _loop(16, 1.0)),
                      PreconditionError, "loop and torus angle grids differ"),
    "write_pgm 1-D": (lambda: io.write_pgm("unused.pgm", np.zeros(4)), PreconditionError,
                      "graymap needs a 2-D array"),
    "write_pgm levels": (lambda: io.write_pgm("unused.pgm", [[0, 256]]), PreconditionError,
                         r"graymap levels must be integers in 0 \.\. 255"),
    "nearest_within sites": (lambda: cones.nearest_within(np.zeros(1, dtype=complex),
                                                          np.array([complex(np.nan, 0.0)]), 1.0),
                             PreconditionError, "nearest_within needs finite sites"),
    # c_t outside the Mandelbrot set; refused before the normal form is read
    "global_cone_check escaping orbit": (
        lambda: cones.global_cone_check(hn.make_params((1, 8), 0.06187, 0.2), 10, 0, None),
        PreconditionError, "the critical orbit of p_t escapes at t=0.06187"),
    "hausdorff lengths": (lambda: lab.HausdorffResult(t_values=[0.1], distances=[], meta=""),
                          PreconditionError, "t and distance lists must align"),
    "hausdorff sign": (lambda: lab.HausdorffResult(t_values=[0.1], distances=[-1.0], meta=""),
                       PreconditionError, "distances must be nonnegative"),
    "series1 length": (lambda: TruncSeries1([1.0, 2.0, 3.0], D=1), PreconditionError,
                       r"coefficient list longer than D\+1"),
    "series1 sum orders": (lambda: S1 + TruncSeries1([1.0], D=4), PreconditionError,
                           "mixed truncation orders"),
    "series1 product orders": (lambda: S1 * TruncSeries1([1.0], D=4), PreconditionError,
                               "mixed truncation orders"),
    "series2 plus scalar": (lambda: X2 + 1.0, PreconditionError,
                            "a TruncSeries2 adds only to a jet of its own kind"),
    "series1 minus series2": (lambda: S1 - X2, PreconditionError,
                              "a TruncSeries1 adds only to a jet of its own kind"),
    "compose1 orders": (lambda: compose1(S1, TruncSeries1([0.0, 1.0], D=4)), PreconditionError,
                        "mixed truncation orders"),
    "compose1 inner(0)": (lambda: compose1(S1, TruncSeries1([1.0, 1.0], D=3)),
                          PreconditionError, r"composition requires inner\(0\)=0"),
    "invert1 f(0)": (lambda: invert1(TruncSeries1([1.0, 1.0], D=3)), PreconditionError,
                     r"inversion requires f\(0\)=0"),
    "invert1 f'(0)": (lambda: invert1(TruncSeries1([0.0, 0.0, 1.0], D=3)), NumericalError,
                      r"non-invertible jet: f'\(0\)=0"),
    "reciprocal1 f(0)": (lambda: reciprocal1(S1), NumericalError,
                         r"non-invertible jet: f\(0\)=0"),
    "series2 square": (lambda: TruncSeries2(np.zeros((2, 3))), PreconditionError,
                       "coefficient array must be square"),
    "series2 size": (lambda: TruncSeries2(np.zeros((3, 3)), D=3), PreconditionError,
                     r"coefficient array must be \(D\+1\)x\(D\+1\)"),
    "series2 simplex": (lambda: TruncSeries2(np.ones((3, 3))), PreconditionError,
                        "coefficient outside total degree D"),
    "from_terms simplex": (lambda: TruncSeries2.from_terms({(3, 2): 1.0}, 4), PreconditionError,
                           "monomial x\\^3 y\\^2 outside total degree 4"),
    "coeff simplex": (lambda: X2.coeff(2, 2), PreconditionError,
                      r"coefficient \(2,2\) outside total degree 3"),
    "truncate upward": (lambda: X2.truncate(4), PreconditionError, "cannot truncate upward"),
    "series2 product orders": (lambda: X2 * TruncSeries2.var_x(4), PreconditionError,
                               "mixed truncation orders"),
    "compose2 orders": (lambda: compose2((X2, Y2), (X2, TruncSeries2.var_y(4))),
                        PreconditionError, "mixed truncation orders"),
    "compose2 inner(0,0)": (
        lambda: compose2((X2, Y2), (X2, TruncSeries2.from_terms({(0, 0): 1.0}, 3))),
        PreconditionError, r"composition requires inner\(0,0\)=\(0,0\)"),
    "invert2 singular": (lambda: invert2((X2, X2)), NumericalError,
                         "non-invertible jet: singular linear part"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_refusal_names_its_reason(name):
    call, exc, message = REFUSALS[name]
    with pytest.raises(exc, match=message):
        call()


@pytest.mark.parametrize("make,n,least", [
    (lambda n: p1.LoopSample(values=np.zeros(n, dtype=complex), level=1.0), 12, 2),
    (lambda n: p1.caratheodory(P11.poly, n, 1), 512, 1024),
    (lambda n: p1.caratheodory(P11.poly, n, 1), 1536, 1024),
    (lambda n: tor.SolidTorus(coeffs=np.zeros((n, 3), dtype=complex), level=0), 6, 2),
    (lambda n: tor.SolidTorus(coeffs=np.zeros((n, 3), dtype=complex), level=0), 1, 2),
    (lambda n: tor.check_grid(1, n, 1), 0, 2),
], ids=["LoopSample", "caratheodory-small", "caratheodory-odd", "SolidTorus", "SolidTorus-one",
        "check_grid"])
def test_check_angles_message_at_each_entry(make, n, least):
    with pytest.raises(PreconditionError) as err:
        make(n)
    assert str(err.value) == f"n_angles must be a power of two >= {least}, got {n}"


@pytest.mark.parametrize("command", ["caratheodory", "radial-demo"])
def test_cli_refuses_fewer_than_1024_angles(tmp_path, capsys, command):
    argv = [command, "--pq=1/1", "--angles=512", "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == \
        "precondition error: n_angles must be a power of two >= 1024, got 512\n"


def test_local_cone_check_fails_at_a_wide_a():
    (cell,) = cones.hyperbolicity_scan((1, 3), [0.05], [0.3])
    assert cell.verdict == "FAIL"


def test_global_cone_check_fails_at_q3():
    P = hn.make_params((1, 3), 0.05, 0.05)
    rep = cones.global_cone_check(P, 2000, 0, nf2.reduce(P, D=14))
    assert rep.verdict == "FAIL"
    assert rep.invariance_failures
