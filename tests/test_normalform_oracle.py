"""Exact oracle for the two-dimensional normal form of ``normalform2d.reduce``.

For q in {1, 2} and rational t and a, lambda = (1+t) e^{2 pi i p/q} is
rational.  So are the fixed point x_q = lambda/2 - a^2/(2 lambda), where
DH = [[2x, a], [a, 0]] has the eigenvalue lambda, the map written there,
(2 x_q x + a y + x^2, a x), and every move of the reduction.  The oracle
runs the moves of ``reduce`` in that order on jets kept as dicts
{(i, j): sympy.Rational}, truncated at total degree D.  It calls nothing of
henonlab: it finds each coefficient of a move from the condition that
defines the move, not from the package's recursions and closed forms.

- The free coefficient s of a move is set to make one coefficient of the
  conjugated map vanish.  At that coefficient's own degree, the conjugated
  map is affine in s, because s^2 first enters at a higher degree.  So two
  exact evaluations, at s = 0 and s = 1, give s.
- The inverse of a move is found by the passes G = L^{-1} (id - N(G)), where
  L is its linear part and N the rest.  Each pass is exact to one more
  degree, and they stop at the first pass that changes nothing.
- The rescaling x -> A x is made last.  Conjugating by it after the shear
  x + b x^k gives the same map as the shear x + b A^{1-k} x^k before it, so
  every shear still removes the same coefficient of the final map.  The
  rows x^1 .. x^{2q+1} of the result are then n_k A^{1-k}, with n the map
  before the rescaling and A^q = n_{q+1}/lambda: A is rational at q = 1 and
  a square root at q = 2.

The oracle works to degree 2q+2, where it takes about half a second; the
coefficients it gives do not depend on the truncation order.
"""

import numpy as np
import pytest
import sympy
from sympy import Rational

import henonlab.henon as hn
from henonlab import normalform2d as nf2

X = {(1, 0): Rational(1)}
Y = {(0, 1): Rational(1)}


def add(*jets):
    out = {}
    for f in jets:
        for m, c in f.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c != 0}


def scale(c, f):
    return {m: c * v for m, v in f.items()}


def mul(f, g, D):
    out = {}
    for (i1, j1), a in f.items():
        for (i2, j2), b in g.items():
            if i1 + j1 + i2 + j2 <= D:
                out[i1 + i2, j1 + j2] = out.get((i1 + i2, j1 + j2), 0) + a * b
    return {m: c for m, c in out.items() if c != 0}


def compose(f, U, V, D):
    """f(U, V) through degree D: Horner in U over the rows sum_j f_ij V^j."""
    vpow = [{(0, 0): Rational(1)}]
    for _ in range(D):
        vpow.append(mul(vpow[-1], V, D))
    rows = {}
    for (i, j), c in f.items():
        if i + j <= D:
            rows[i] = add(rows.get(i, {}), scale(c, vpow[j]))
    out = {}
    for i in range(max(rows, default=0), -1, -1):
        out = add(mul(out, U, D), rows.get(i, {}))
    return out


def conjugate(T, H, D):
    """T o H o T^{-1} through degree D."""
    T_inv = inverse(T, D)
    inner = [compose(h, *T_inv, D) for h in H]
    return [compose(t, *inner, D) for t in T]


def inverse(T, D):
    (a, b), (c, d) = [[f.get(m, 0) for m in ((1, 0), (0, 1))] for f in T]
    det = a * d - b * c
    L_inv = ((d / det, -b / det), (-c / det, a / det))
    N = [{m: v for m, v in f.items() if sum(m) > 1} for f in T]
    G = None
    for _ in range(D + 1):
        rest = [add(X, scale(-1, compose(N[0], *G, D))),
                add(Y, scale(-1, compose(N[1], *G, D)))] if G else [X, Y]
        nxt = [add(scale(r0, rest[0]), scale(r1, rest[1])) for r0, r1 in L_inv]
        if nxt == G:
            break
        G = nxt
    return G


def solve(H, move, comp, slot):
    """The s for which coefficient `slot` of component `comp` of
    move(s) o H o move(s)^{-1} vanishes."""
    d = sum(slot)
    c0, c1 = (conjugate(move(Rational(s)), H, d)[comp].get(slot, 0) for s in (0, 1))
    return -c0 / (c1 - c0)


def exact_reduce(q, t, a, D):
    lam = (1 + t) * (1 if q == 1 else -1)
    x_q = lam / 2 - a**2 / (2 * lam)
    H = [{(1, 0): 2 * x_q, (0, 1): a, (2, 0): Rational(1)}, {(1, 0): a}]

    # straighten W^ss to {x = 0}: x - w(y), w tangent to the nu-eigenvector
    w = {(0, 1): -a / lam}
    for m in range(2, D + 1):
        w[0, m] = solve(H, lambda s: [add(X, scale(-1, w), {(0, m): -s}), Y], 0, (0, m))
    H = conjugate([add(X, scale(-1, w)), Y], H, D)

    # Koenigs: psi(y) linearizes the second component on {x = 0}
    psi = dict(Y)
    for m in range(2, D + 1):
        psi[0, m] = solve(H, lambda s: [X, add(psi, {(0, m): s})], 1, (0, m))
    H = conjugate([X, psi], H, D)

    # step 1: the coefficient of x is constant, by (u(y) x, y)
    u = {(1, 0): Rational(1)}
    for m in range(1, D):
        u[1, m] = solve(H, lambda s: [add(u, {(1, m): s}), Y], 0, (1, m))
    H = conjugate([u, Y], H, D)

    # step 2: the coefficients of x^2 .. x^{2q+1} are constant, by x + v(y) x^k
    for k in range(2, 2 * q + 2):
        v = {}
        for m in range(1, D + 1 - k):
            v[k, m] = solve(H, lambda s: [add(X, v, {(k, m): s}), Y], 0, (k, m))
        H = conjugate([add(X, v), Y], H, D)

    # step 3: the non-resonant constants vanish, by x + b x^k
    for k in range(2, 2 * q + 2):
        if k % q != 1 % q and k != q + 1:
            b = solve(H, lambda s: [add(X, {(k, 0): s}), Y], 0, (k, 0))
            H = conjugate([add(X, {(k, 0): b}), Y], H, D)

    n = H[0]
    A = n[q + 1, 0] / lam if q == 1 else sympy.sqrt(n[q + 1, 0] / lam)
    rows = {(k, j): n.get((k, j), 0) * A ** (1 - k)
            for k in range(1, 2 * q + 2) for j in range(D + 1 - k)}
    return rows, n[2 * q + 1, 0] / (A ** (2 * q) * lam), A


@pytest.mark.parametrize("pq,t,a", [((1, 1), Rational(1, 20), Rational(1, 20)),
                                    ((1, 2), Rational(-1, 50), Rational(1, 20))])
def test_reduce_matches_the_exact_moves(pq, t, a):
    q = pq[1]
    rows, C_at, A = exact_reduce(q, t, a, 2 * q + 2)
    nf = nf2.reduce(hn.make_params(pq, float(t), float(a)))
    N1 = nf.normal[0].coeffs
    got = np.array([N1[k, j] for k, j in rows])
    want = np.array([complex(v) for v in rows.values()])
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    assert abs(nf.C_at - complex(C_at)) <= 1e-12 * abs(complex(C_at))
    # A is fixed up to a q-th root of unity: reduce takes the principal root
    # of A^q, whose imaginary part is zero here up to the sign of rounding
    assert abs(nf.rescale**q - complex(A**q)) <= 1e-12 * abs(complex(A**q))
