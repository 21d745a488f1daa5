"""Property-based checks of the jet arithmetic in henonlab.series.

The two-variable product is checked against scipy's convolve2d, which the
package itself no longer uses; the rest are the algebraic laws the normal
form relies on.  Coefficients are bounded and decay geometrically, like the
jets of a germ convergent on a radius-2 disk, and linear parts are kept
well away from singular, so tolerances are absolute.  Examples are drawn
from a fixed seed so the suite gives the same verdict on every run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import convolve2d

from henonlab.poly1d import shear_pair
from henonlab.series import (
    TruncSeries1,
    TruncSeries2,
    compose1,
    compose2,
    horner,
    invert1,
    invert2,
    reciprocal1,
)

PROPS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
degrees = st.integers(min_value=1, max_value=9)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _complex(rng, shape):
    return rng.uniform(-1, 1, size=shape) + 1j * rng.uniform(-1, 1, size=shape)


def jet1(rng, D, const=True, unit_linear=False):
    c = _complex(rng, D + 1) * 0.5 ** np.arange(D + 1)
    if not const:
        c[0] = 0.0
    if unit_linear:
        c[1] = 1.0 + 0.3 * c[1]
    return TruncSeries1(c, D=D)


def jet2(rng, D, const=True):
    i, j = np.indices((D + 1, D + 1))
    c = _complex(rng, (D + 1, D + 1)) * 0.5 ** (i + j)
    c[i + j > D] = 0.0
    if not const:
        c[0, 0] = 0.0
    return TruncSeries2(c, D=D)


def near_identity_pair(rng, D):
    """A map pair (x, y) + O(2) with a well-conditioned linear part."""
    F1, F2 = jet2(rng, D, const=False), jet2(rng, D, const=False)
    lin = np.eye(2) + 0.3 * _complex(rng, (2, 2))
    c1, c2 = F1.coeffs.copy(), F2.coeffs.copy()
    c1[1, 0], c1[0, 1], c2[1, 0], c2[0, 1] = lin[0, 0], lin[0, 1], lin[1, 0], lin[1, 1]
    return TruncSeries2(c1, D=D), TruncSeries2(c2, D=D)


def maxdiff(f, g):
    return (f - g).max_abs()


@PROPS
@given(degrees, seeds)
def test_product_matches_convolve2d_reference(D, seed):
    rng = np.random.default_rng(seed)
    f, g = jet2(rng, D), jet2(rng, D)
    ref = convolve2d(f.coeffs, g.coeffs)[: D + 1, : D + 1]
    i, j = np.indices(ref.shape)
    ref[i + j > D] = 0.0
    assert np.max(np.abs((f * g).coeffs - ref)) < 1e-13


@PROPS
@given(degrees, seeds)
def test_ring_laws(D, seed):
    rng = np.random.default_rng(seed)
    f, g, h = jet2(rng, D), jet2(rng, D), jet2(rng, D)
    one = TruncSeries2.from_terms({(0, 0): 1.0}, D)
    assert maxdiff(f * g, g * f) < 1e-14
    assert maxdiff(f * (g + h), f * g + f * h) < 1e-13
    assert maxdiff((f * g) * h, f * (g * h)) < 1e-13
    assert maxdiff(f * one, f) == 0.0


@PROPS
@given(degrees, seeds)
def test_compose1_is_associative(D, seed):
    rng = np.random.default_rng(seed)
    f = jet1(rng, D)
    g, h = jet1(rng, D, const=False), jet1(rng, D, const=False)
    lhs = compose1(compose1(f, g), h)
    rhs = compose1(f, compose1(g, h))
    assert maxdiff(lhs, rhs) < 1e-12


@PROPS
@given(degrees, seeds)
def test_compose2_is_associative(D, seed):
    rng = np.random.default_rng(seed)
    F = (jet2(rng, D), jet2(rng, D))
    G = (jet2(rng, D, const=False), jet2(rng, D, const=False))
    H = (jet2(rng, D, const=False), jet2(rng, D, const=False))
    lhs = compose2(compose2(F, G), H)
    rhs = compose2(F, compose2(G, H))
    assert max(maxdiff(a, b) for a, b in zip(lhs, rhs)) < 1e-11


@PROPS
@given(degrees, seeds)
def test_compose2_matches_pointwise_evaluation(D, seed):
    # on polynomials of total degree <= D composed with linear maps the
    # truncation is exact, so the jet must agree with evaluating F(G(z))
    rng = np.random.default_rng(seed)
    F = (jet2(rng, D), jet2(rng, D))
    lin = _complex(rng, (2, 2))
    G = (TruncSeries2.from_terms({(1, 0): lin[0, 0], (0, 1): lin[0, 1]}, D),
         TruncSeries2.from_terms({(1, 0): lin[1, 0], (0, 1): lin[1, 1]}, D))
    x, y = 0.3 * _complex(rng, 5), 0.3 * _complex(rng, 5)
    out = compose2(F, G)
    for k in (0, 1):
        assert np.max(np.abs(out[k](x, y) - F[k](G[0](x, y), G[1](x, y)))) < 1e-12


@PROPS
@given(degrees, seeds)
def test_invert1_round_trips(D, seed):
    rng = np.random.default_rng(seed)
    f = jet1(rng, D, const=False, unit_linear=True)
    g = invert1(f)
    ident = TruncSeries1.identity(D)
    assert maxdiff(compose1(f, g), ident) < 1e-11
    assert maxdiff(compose1(g, f), ident) < 1e-11


@PROPS
@given(degrees, seeds)
def test_invert2_round_trips(D, seed):
    rng = np.random.default_rng(seed)
    F = near_identity_pair(rng, D)
    G = invert2(F)
    ident = (TruncSeries2.var_x(D), TruncSeries2.var_y(D))
    for pair in (compose2(F, G), compose2(G, F)):
        assert max(maxdiff(a, b) for a, b in zip(pair, ident)) < 1e-10


@PROPS
@given(degrees, seeds)
def test_reciprocal1_is_the_multiplicative_inverse(D, seed):
    rng = np.random.default_rng(seed)
    f = jet1(rng, D)
    f = TruncSeries1(np.append(1.0 + 0.3 * f.coeffs[0], f.coeffs[1:]), D=D)
    assert maxdiff(f * reciprocal1(f), TruncSeries1.constant(1.0, D)) < 1e-12


@PROPS
@given(st.integers(min_value=2, max_value=14), st.integers(min_value=2, max_value=14), seeds)
def test_shear_pair_round_trips(D, k, seed):
    # the inverse of x + v x^k converges for |x|^(k-1) < (k-1)^(k-1) / (k^k |v|):
    # v is scaled down so that the coefficients of the inverse stay of order one
    k = min(k, D)
    rng = np.random.default_rng(seed)
    v = 0.2 * jet1(rng, D)
    y = TruncSeries2.var_y(D)
    T, T_inv = ((TruncSeries2(c, D=D), y) for c in shear_pair(v, k))
    ident = (TruncSeries2.var_x(D), y)
    for pair in (compose2(T, T_inv), compose2(T_inv, T)):
        assert max(maxdiff(a, b) for a, b in zip(pair, ident)) < 1e-13


def _horner_from_zero(coeffs, x, out=None):
    """Horner started at 0, which spends one multiply-add on 0 x + coeffs[..., -1]."""
    if out is None:
        out = np.zeros(np.broadcast(coeffs[..., 0], x).shape, dtype=complex)
    else:
        out.fill(0.0)
    for m in range(coeffs.shape[-1] - 1, -1, -1):
        out *= x
        out += coeffs[..., m]
    return out[()]


@PROPS
@given(st.integers(min_value=0, max_value=9), seeds, st.integers(min_value=1, max_value=4),
       st.booleans(), st.booleans())
def test_horner_from_the_leading_coefficient_matches_a_zero_start(D, seed, rows, buffered, zeros):
    # 0 x + c is c for finite x, so the sums agree bit for bit up to the
    # sign of a zero, which is what == on floats compares; rows broadcast
    # against the points as in SolidTorus
    rng = np.random.default_rng(seed)
    coeffs = _complex(rng, (rows, 1, D + 1)) * 2.0 ** rng.integers(-30, 30, (rows, 1, D + 1))
    x = _complex(rng, 7) * 2.0 ** rng.integers(-8, 8, 7)
    if zeros:  # exact zeros in both, where a sign of zero could differ
        coeffs[rng.uniform(size=coeffs.shape) < 0.3] = 0.0
        x[::3] = 0.0
    want = _horner_from_zero(coeffs, x)
    if buffered:
        buf = np.full((rows, 7), np.nan, dtype=complex)
        horner(coeffs, x, out=buf)
        got = buf
    else:
        got = horner(coeffs, x)
    assert got.shape == want.shape == (rows, 7)
    assert np.array_equal(got, want)
    scalar, scalar_want = horner(coeffs[0, 0], x[0]), _horner_from_zero(coeffs[0, 0], x[0])
    assert isinstance(scalar, np.complex128)
    assert scalar == scalar_want


def _eval2_full_square(f, x, y):
    """TruncSeries2.__call__ as it ran over the whole (D+1)x(D+1) square."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    acc = np.zeros(np.broadcast(x, y).shape, dtype=complex)
    rowval = np.empty_like(acc)
    for row in f.coeffs[::-1]:
        acc *= x
        acc += horner(row, y, out=rowval)
    return acc[()]


def _exact_parts(rng, shape, sparse):
    """Complex values whose real and imaginary parts are each +0, -0, a
    small dyadic (so sums cancel exactly and leave zeros whose sign the
    evaluation order sets) or a scaled uniform draw; sparse values are
    nine parts in ten zeros and otherwise +-1."""
    zero, dyadic = (0.9, 1.0) if sparse else (0.3, 0.7)
    out = np.empty(shape, dtype=complex)
    for part in (out.real, out.imag):  # views; a + 1j b would lose the sign of b = -0
        kind = rng.uniform(size=shape)
        part[...] = np.select(
            [kind < zero / 2, kind < zero, kind < dyadic],
            [0.0, -0.0, rng.choice([-2.0, -1.0, 1.0, 2.0] if not sparse else [-1.0, 1.0], shape)],
            rng.uniform(-1, 1, shape) * 2.0 ** rng.integers(-20, 20, shape))
    return out


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=14), seeds,
       st.sampled_from(["jet", "partial_x", "partial_y"]),
       st.sampled_from(["scalar", "1-d", "2-d", "broadcast"]),
       st.booleans(), st.booleans(), st.booleans())
def test_eval2_over_the_simplex_matches_the_full_square(D, seed, which, layout, sparse, zero_rows,
                                                       negate):
    # bit for bit, signs of zeros included: the skipped entries are zeros,
    # and the -0 parts drawn here (negation turns every +0 into -0, the
    # skipped entries too) are where a sign of zero could differ; sparse
    # jets at low degree give the exact zeros that show it
    rng = np.random.default_rng(seed)

    def draw(shape):
        return _exact_parts(rng, shape, sparse)

    i, j = np.indices((D + 1, D + 1))
    c = draw((D + 1, D + 1))
    if zero_rows:
        c[rng.uniform(size=D + 1) < 0.4] = 0.0
    c[i + j > D] = draw((D + 1, D + 1))[i + j > D] * 0.0  # signed zeros may stand there
    f = TruncSeries2(c, D=D)
    f = -f if negate else f
    f = f if which == "jet" else getattr(f, which)()
    if layout == "scalar":
        x, y = complex(draw(())), draw(())[()]
    elif layout == "1-d":
        x, y = draw((32,)), draw((32,))
    elif layout == "2-d":
        x, y = draw((4, 8)), draw((4, 8))
    else:
        x, y = draw((4, 1)), draw((1, 8))
    got, want = f(x, y), _eval2_full_square(f, x, y)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    bits = lambda v: np.asarray(v).reshape(-1).view(np.uint64)  # noqa: E731
    assert np.array_equal(bits(got), bits(want))
