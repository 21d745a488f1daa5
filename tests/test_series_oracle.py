"""Exact oracle for the jet products and compositions in henonlab.series.

Every coefficient is a Gaussian integer, kept in plain Python as a pair of
ints in a dict of monomials {(i, j): (re, im)}; one-variable jets use the
keys (k, 0).  The oracle multiplies and composes those dicts, truncated at
total degree D.  Each test first bounds every value the float code can meet
on the way: it runs the oracle again on the majorants (|re| + |im| of each
coefficient, a dominating series), whose largest intermediate bounds every
product, partial sum and Horner accumulator of the float computation in any
summation order.  Below 2^53 all of them are integers held exactly in
doubles, so the float result must equal the oracle with ``==``.

The closed-form shear inverse of ``poly1d.shear_pair`` is checked against
the fixed-point passes G = x - v(y) G^k, run on the same dicts with
Gaussian-rational coefficients (pairs of Fractions).
"""

from fractions import Fraction

import numpy as np
import pytest

from henonlab.poly1d import shear_pair
from henonlab.series import TruncSeries1, TruncSeries2, compose1, compose2, invert1

EXACT = 2**53
ONE = {(0, 0): (1, 0)}


def mul(f, g, D):
    out = {}
    for (i1, j1), (a, b) in f.items():
        for (i2, j2), (c, d) in g.items():
            if i1 + j1 + i2 + j2 <= D:
                re, im = out.get((i1 + i2, j1 + j2), (0, 0))
                out[i1 + i2, j1 + j2] = (re + a * c - b * d, im + a * d + b * c)
    return out


def add(f, g):
    out = dict(f)
    for k, (c, d) in g.items():
        a, b = out.get(k, (0, 0))
        out[k] = (a + c, b + d)
    return out


def peak(*jets):
    return max((max(abs(a), abs(b)) for f in jets for a, b in f.values()), default=0)


def major(f):
    return {k: (abs(a) + abs(b), 0) for k, (a, b) in f.items()}


def compose(outer, U, V, D):
    """The jets p(U, V) for each p in outer, by Horner in U over the rows
    sum_j p_ij V^j, and the largest |re| or |im| of any intermediate."""
    vpow = [ONE]
    for _ in range(D):
        vpow.append(mul(vpow[-1], V, D))
    top = peak(*vpow)
    images = []
    for p in outer:
        rows = [{} for _ in range(D + 1)]
        for (i, j), c in p.items():
            rows[i] = add(rows[i], mul({(0, 0): c}, vpow[j], D))
        acc = {}
        for row in reversed(rows):
            acc = add(mul(U, acc, D), row)
            top = max(top, peak(acc, row))
        images.append(acc)
    return images, top


def bound(outer, U, V, D):
    return compose([major(p) for p in outer], major(U), major(V), D)[1]


def to_array(f, D, ndim=2):
    c = np.zeros((D + 1, D + 1), dtype=complex)
    for (i, j), (a, b) in f.items():
        c[i, j] = complex(a, b)
    return c if ndim == 2 else c[:, 0]


def gauss(rng, D, density=1.0, size=1, start=0, one_var=False):
    """A random jet with coefficients in {-size..size} + i {-size..size} on
    a fraction ``density`` of the monomials of total degree start..D."""
    keys = [(i, j) for i in range(D + 1) for j in range(D + 1 - i)
            if i + j >= start and (j == 0 or not one_var)]
    return {k: (int(rng.integers(-size, size + 1)), int(rng.integers(-size, size + 1)))
            for k in keys if rng.random() < density}


def nonlinear_inner(rng, D, one_var=False):
    """A jet vanishing at 0 with a linear part and a few higher terms."""
    f = gauss(rng, 1, start=1, one_var=one_var)
    f = add(f, gauss(rng, D, density=4.0 / D if one_var else 6.0 / D**2, start=2,
                       one_var=one_var))
    return add(f, {(D, 0): (1, -1)})


ORDERS = [1, 2, 3, 5, 8, 10, 12, 14]


@pytest.mark.parametrize("D", [0, *ORDERS])
def test_product_matches_the_exact_oracle(D):
    rng = np.random.default_rng(1000 + D)
    for _ in range(3):
        f, g = gauss(rng, D, size=3), gauss(rng, D, size=3)
        assert peak(mul(major(f), major(g), D)) < EXACT
        got = TruncSeries2(to_array(f, D), D=D) * TruncSeries2(to_array(g, D), D=D)
        assert np.array_equal(got.coeffs, to_array(mul(f, g, D), D))


@pytest.mark.parametrize("D", ORDERS[1:])
def test_compose2_with_nonlinear_inner_maps_matches_the_exact_oracle(D):
    rng = np.random.default_rng(2000 + D)
    outer = [gauss(rng, D, size=2), gauss(rng, D, density=0.5, size=2)]
    U, V = nonlinear_inner(rng, D), nonlinear_inner(rng, D)
    assert bound(outer, U, V, D) < EXACT
    got = compose2([TruncSeries2(to_array(p, D), D=D) for p in outer],
                   [TruncSeries2(to_array(w, D), D=D) for w in (U, V)])
    for g, want in zip(got, compose(outer, U, V, D)[0]):
        assert np.array_equal(g.coeffs, to_array(want, D))


@pytest.mark.parametrize("D", ORDERS)
def test_compose1_matches_the_exact_oracle(D):
    rng = np.random.default_rng(3000 + D)
    f, g = gauss(rng, D, size=2, one_var=True), nonlinear_inner(rng, D, one_var=True)
    assert bound([f], g, {}, D) < EXACT
    got = compose1(TruncSeries1(to_array(f, D, 1), D=D), TruncSeries1(to_array(g, D, 1), D=D))
    assert np.array_equal(got.coeffs, to_array(compose([f], g, {}, D)[0][0], D, 1))


@pytest.mark.parametrize("D", ORDERS)
@pytest.mark.parametrize("unit", [(1, 0), (-1, 0), (0, 1), (0, -1)])
def test_invert1_matches_the_exact_oracle(D, unit):
    rng = np.random.default_rng(4000 + D)
    f = add({(1, 0): unit}, gauss(rng, D, density=2.0 / D, start=2, one_var=True))
    # solve f(g) = x degree by degree; 1/unit is its conjugate
    inv = (unit[0], -unit[1])
    g = {(1, 0): inv}
    for k in range(2, D + 1):
        a, b = compose([f], g, {}, D)[0][0].get((k, 0), (0, 0))
        g[k, 0] = mul({(0, 0): (-a, -b)}, {(0, 0): inv}, 0)[0, 0]
    assert np.array_equal(to_array(compose([f], g, {}, D)[0][0], D, 1), to_array({(1, 0): (1, 0)}, D, 1))
    # invert1 composes f with truncations of g, which the majorant of g dominates
    assert bound([f], g, {}, D) < EXACT
    got = invert1(TruncSeries1(to_array(f, D, 1), D=D))
    assert np.array_equal(got.coeffs, to_array(g, D, 1))


def shear_inverse_by_passes(v, k, D):
    """The inverse G of x + v(y) x^k from G = x by the passes G = x - v G^k;
    after n passes G is exact through degree (n+1)(k-1)."""
    x = {(1, 0): (Fraction(1), Fraction(0))}
    G, exact = x, k - 1
    while exact < D:
        Gk = G
        for _ in range(k - 1):
            Gk = mul(Gk, G, D)
        G = add(x, {m: (-a, -b) for m, (a, b) in mul(v, Gk, D).items()})
        exact += k - 1
    return G


@pytest.mark.parametrize("k", range(2, 8))
@pytest.mark.parametrize("D", [7, 10, 14])
@pytest.mark.parametrize("constant", [False, True])
def test_shear_pair_matches_the_exact_fixed_point_passes(k, D, constant):
    rng = np.random.default_rng(5000 + 100 * k + D)
    # dyadic coefficients (a + ib) / 2^(j+1), |a|, |b| <= 3: exact in doubles
    v = {(0, j): tuple(Fraction(int(c), 2 ** (j + 1)) for c in rng.integers(-3, 4, 2))
         for j in range(1 if constant else D + 1)}
    T, T_inv = shear_pair(TruncSeries1(to_array(v, D)[0, :], D=D), k)
    want_T = add({(1, 0): (1, 0)}, mul(v, {(k, 0): (1, 0)}, D))
    assert np.array_equal(T, to_array(want_T, D))
    want = to_array(shear_inverse_by_passes(v, k, D), D)
    assert np.max(np.abs(T_inv - want)) <= 1e-14 * np.max(np.abs(want))
