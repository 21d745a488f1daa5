import numpy as np
import pytest

from henonlab.errors import NumericalError, PreconditionError
from henonlab.series import (
    TruncSeries1,
    TruncSeries2,
    compose1,
    compose2,
    horner,
    invert1,
    invert2,
    series1_to_2,
)


def s1(coeffs, D):
    return TruncSeries1(coeffs, D=D)


def test_compose1_identity_outer():
    out = compose1(TruncSeries1.identity(4), s1([0, 1, 1], 4))
    assert np.allclose(out.coeffs, [0, 1, 1, 0, 0])


def test_compose1_binomial():
    out = compose1(s1([0, 0, 1], 4), s1([0, 1, 1], 4))
    assert np.allclose(out.coeffs, [0, 0, 1, 2, 1])


def test_compose1_derived_example():
    # (x + x^2) o (x - x^2 + x^3) = x + 0 x^2 - x^3 at D = 3
    out = compose1(s1([0, 1, 1], 3), s1([0, 1, -1, 1], 3))
    assert np.allclose(out.coeffs, [0, 1, 0, -1])


def test_compose1_requires_zero_constant():
    with pytest.raises(PreconditionError, match="inner"):
        compose1(s1([0, 1], 2), s1([1, 1], 2))


def test_invert1_examples():
    assert np.allclose(invert1(TruncSeries1.identity(3)).coeffs, [0, 1, 0, 0])
    assert np.allclose(invert1(s1([0, 1, 1], 3)).coeffs, [0, 1, -1, 2])
    assert np.allclose(invert1(s1([0, 2], 2)).coeffs, [0, 0.5, 0])


def test_invert1_rejects_singular_jet():
    with pytest.raises(NumericalError, match="non-invertible"):
        invert1(s1([0, 0, 1], 3))


def test_invert1_roundtrip_random():
    rng = np.random.default_rng(7)
    ident = TruncSeries1.identity(9)
    for _ in range(20):
        # coefficients shaped like a radius-2 convergent germ
        c = (rng.normal(size=10) + 1j * rng.normal(size=10)) * 0.5 ** np.arange(10)
        c[0] = 0.0
        c[1] = 1.0 + 0.3 * c[1]
        f = TruncSeries1(c, D=9)
        err = (compose1(f, invert1(f)) - ident).max_abs()
        assert err < 1e-12


def test_compose2_identity_outer():
    D = 3
    inner = (TruncSeries2.from_terms({(1, 0): 1, (1, 1): 1}, D), TruncSeries2.var_y(D))
    out = compose2((TruncSeries2.var_x(D), TruncSeries2.var_y(D)), inner)
    assert (out[0] - inner[0]).max_abs() < 1e-15
    assert (out[1] - inner[1]).max_abs() < 1e-15


def test_compose2_expansion():
    D = 2
    outer = (TruncSeries2.from_terms({(2, 0): 1}, D), TruncSeries2.var_y(D))
    inner = (TruncSeries2.from_terms({(1, 0): 1, (0, 1): 1}, D), TruncSeries2.var_y(D))
    r1, r2 = compose2(outer, inner)
    expect = TruncSeries2.from_terms({(2, 0): 1, (1, 1): 2, (0, 2): 1}, D)
    assert (r1 - expect).max_abs() < 1e-15
    assert (r2 - TruncSeries2.var_y(D)).max_abs() < 1e-15


def test_compose2_self_composition_against_hand_expansion():
    # F = (x + x^2, 0.5 y + x y); F o F expanded by hand through degree 4
    D = 4
    F = (
        TruncSeries2.from_terms({(1, 0): 1, (2, 0): 1}, D),
        TruncSeries2.from_terms({(0, 1): 0.5, (1, 1): 1}, D),
    )
    r1, r2 = compose2(F, F)
    first = TruncSeries2.from_terms(
        {(1, 0): 1, (2, 0): 2, (3, 0): 2, (4, 0): 1}, D
    )
    second = TruncSeries2.from_terms(
        {(0, 1): 0.25, (1, 1): 1.0, (2, 1): 1.5, (3, 1): 1.0}, D
    )
    assert (r1 - first).max_abs() < 1e-14
    assert (r2 - second).max_abs() < 1e-14


def test_compose2_requires_fixed_origin():
    D = 2
    bad = (TruncSeries2.from_terms({(0, 0): 1.0}, D), TruncSeries2.var_y(D))
    with pytest.raises(PreconditionError):
        compose2((TruncSeries2.var_x(D), TruncSeries2.var_y(D)), bad)


def _random_series2(rng, D):
    c = np.zeros((D + 1, D + 1), dtype=complex)
    for i in range(D + 1):
        for j in range(D + 1 - i):
            c[i, j] = rng.normal() + 1j * rng.normal()
    return TruncSeries2(c, D=D)


def test_ring_axioms_random():
    rng = np.random.default_rng(11)
    D = 5
    for _ in range(10):
        f, g, h = (_random_series2(rng, D) for _ in range(3))
        assert ((f * g) * h - f * (g * h)).max_abs() < 1e-12 * 100
        assert (f * (g + h) - (f * g + f * h)).max_abs() < 1e-12 * 100
        assert (f * g - g * f).max_abs() < 1e-13


def test_truncation_consistency():
    rng = np.random.default_rng(3)
    f, g = (_random_series2(rng, 8) for _ in range(2))
    full = (f * g).truncate(5)
    small = f.truncate(5) * g.truncate(5)
    assert (full - small).max_abs() < 1e-13


def test_coefficient_access_outside_simplex_is_error():
    f = TruncSeries2.from_terms({(0, 0): 0}, 4)
    with pytest.raises(PreconditionError):
        f.coeff(3, 2)
    with pytest.raises(PreconditionError):
        TruncSeries2.from_terms({(3, 2): 1.0}, 4)


def test_mixed_truncation_orders_rejected():
    with pytest.raises(PreconditionError):
        TruncSeries1.identity(3) * TruncSeries1.identity(4)


def test_invert2_roundtrip():
    D = 6
    F = (
        TruncSeries2.from_terms({(1, 0): 1.0, (2, 0): 0.3, (1, 1): -0.2, (0, 2): 0.1}, D),
        TruncSeries2.from_terms({(0, 1): 0.5, (0, 2): 0.1, (1, 1): 0.05}, D),
    )
    G = invert2(F)
    H1, H2 = compose2(F, G)
    assert (H1 - TruncSeries2.var_x(D)).max_abs() < 1e-12
    assert (H2 - TruncSeries2.var_y(D)).max_abs() < 1e-12


def test_series1_lift_and_eval():
    f = TruncSeries1([1, 2, 3], D=4)
    fx = series1_to_2(f, "x")
    fy = series1_to_2(f, "y")
    assert abs(fx(0.5, 99.0) - f(0.5)) < 1e-14
    assert abs(fy(99.0, 0.5) - f(0.5)) < 1e-14


def test_horner_broadcasts_rows_and_fills_the_buffer():
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=(4, 1, 6)) + 1j * rng.normal(size=(4, 1, 6))
    x = rng.normal(size=5) + 1j * rng.normal(size=5)
    want = np.array([[np.polyval(c[0, ::-1], xi) for xi in x] for c in coeffs])
    buf = np.full((4, 5), np.nan, dtype=complex)  # stale contents are overwritten
    horner(coeffs, x, out=buf)
    assert np.allclose(buf, want, rtol=1e-13, atol=0)
    assert np.allclose(horner(coeffs, x), want, rtol=1e-13, atol=0)
    assert isinstance(horner(coeffs[0, 0], 0.5), np.complex128)
