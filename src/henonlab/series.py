"""Truncated power-series arithmetic in one and two complex variables.

All operations return new objects truncated to the shared order D; there is
no silent degree growth.  One-variable series are plain coefficient vectors
``c[0..D]``; two-variable series are total-degree truncated, i.e. only
coefficients with ``i + j <= D`` are carried.  Both kinds share one base,
``_Jet``, for their linear algebra: sums and differences of two jets of one
kind and order, negation and scalar multiples.  Each kind keeps its own
product ``__mul__`` and evaluation ``__call__``.

Products are linear operators.  A gather table cached per D turns a jet u
into the SxS matrix ``append(u[slots], 0)[table]`` of multiplication by u
over the S = (D+1)(D+2)/2 slots i + j <= D; its leading (D+1)x(D+1) block is
the Toeplitz operator of a one-variable jet, used by ``compose1``.
``compose2`` gathers the operators of U and V once, then builds the powers
of V and the Horner in U for both components as jmax + imax small matmuls.
An SxS operator meets a single vector v as ``np.vecdot(v.conj(), op)``
(vecdot conjugates its first argument), not ``op @ v``: numpy sends that to
BLAS gemv, which OpenBLAS spreads over every core once S >= 64 (D >= 10),
where it runs slower than on one.
``invert2`` is the generic inverse, solving F(G) = id degree by degree;
callers that know their map's inverse in closed form should use it instead.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NumericalError, PreconditionError

_JET_TOL = 1e-14


class _Jet:
    """Coefficients ``coeffs`` truncated at order ``D``, with their linear algebra."""

    __slots__ = ("coeffs", "D")

    def _check(self, v):
        if type(v) is not type(self):
            raise PreconditionError(f"a {type(self).__name__} adds only to a jet of its own kind")
        if v.D != self.D:
            raise PreconditionError("mixed truncation orders")
        return v

    def __add__(self, other):
        return type(self)(self.coeffs + self._check(other).coeffs, D=self.D)

    def __sub__(self, other):
        return type(self)(self.coeffs - self._check(other).coeffs, D=self.D)

    def __neg__(self):
        return type(self)(-self.coeffs, D=self.D)

    def __rmul__(self, other):
        return self.__mul__(other)

    def max_abs(self):
        return float(np.max(np.abs(self.coeffs)))


class TruncSeries1(_Jet):
    """Polynomial jet sum c[k] x^k, k = 0..D, coefficients complex."""

    __slots__ = ()

    def __init__(self, coeffs, D=None):
        c = np.asarray(coeffs, dtype=complex).ravel()
        if D is None:
            D = len(c) - 1
        if len(c) > D + 1:
            raise PreconditionError("coefficient list longer than D+1")
        full = np.zeros(D + 1, dtype=complex)
        full[: len(c)] = c
        full.setflags(write=False)
        self.coeffs = full
        self.D = D

    @classmethod
    def identity(cls, D):
        """The series x."""
        return cls([0.0, 1.0], D=D)

    @classmethod
    def constant(cls, value, D):
        return cls([value], D=D)

    def __mul__(self, other):
        if np.isscalar(other):
            return TruncSeries1(self.coeffs * other, D=self.D)
        if other.D != self.D:
            raise PreconditionError("mixed truncation orders")
        prod = np.convolve(self.coeffs, other.coeffs)[: self.D + 1]
        return TruncSeries1(prod, D=self.D)

    def deriv(self):
        c = self.coeffs
        d = c[1:] * np.arange(1, self.D + 1)
        return TruncSeries1(np.append(d, 0.0), D=self.D)

    def __call__(self, x):
        """Evaluate by Horner; x may be a scalar or ndarray."""
        return horner(self.coeffs, x)

    def __repr__(self):
        return f"TruncSeries1(D={self.D}, coeffs={np.array2string(self.coeffs, precision=4)})"


def horner(coeffs, x, out=None):
    """sum_m coeffs[..., m] x^m by Horner, broadcasting the leading axes of
    coeffs against x.  With ``out`` the sum is built in that array, which
    must have the broadcast shape; a caller that evaluates in a loop passes
    the same buffer every time.  Scalar input gives a scalar."""
    if out is None:
        out = np.empty(np.broadcast(coeffs[..., 0], x).shape, dtype=complex)
    out[...] = coeffs[..., -1]
    for m in range(coeffs.shape[-1] - 2, -1, -1):
        out *= x
        out += coeffs[..., m]
    return out[()]


def compose1(outer: TruncSeries1, inner: TruncSeries1) -> TruncSeries1:
    """outer(inner(x)) truncated to the shared order D.

    Requires inner(0) = 0 so that the truncated composition is exact through
    degree D in exact arithmetic.
    """
    if outer.D != inner.D:
        raise PreconditionError("mixed truncation orders")
    if inner.coeffs[0] != 0:
        raise PreconditionError("composition requires inner(0)=0")
    op = np.append(inner.coeffs, 0.0)[_simplex(outer.D)[2][: outer.D + 1, : outer.D + 1]]
    acc = np.zeros(outer.D + 1, dtype=complex)
    for c in outer.coeffs[::-1]:
        acc = op @ acc
        acc[0] += c
    return TruncSeries1(acc, D=outer.D)


def invert1(f: TruncSeries1) -> TruncSeries1:
    """Compositional inverse g with f(g(x)) = x through degree D."""
    if f.coeffs[0] != 0:
        raise PreconditionError("inversion requires f(0)=0")
    f1 = f.coeffs[1]
    if abs(f1) < _JET_TOL:
        raise NumericalError("non-invertible jet: f'(0)=0")
    D = f.D
    g = np.zeros(D + 1, dtype=complex)
    g[1] = 1.0 / f1
    for k in range(2, D + 1):
        h = compose1(f, TruncSeries1(g, D=D))
        g[k] = -h.coeffs[k] / f1
    return TruncSeries1(g, D=D)


def reciprocal1(f: TruncSeries1) -> TruncSeries1:
    """Multiplicative inverse 1/f through degree D; requires f(0) != 0."""
    c = f.coeffs
    if abs(c[0]) < _JET_TOL:
        raise NumericalError("non-invertible jet: f(0)=0")
    r = np.zeros(f.D + 1, dtype=complex)
    r[0] = 1.0 / c[0]
    for k in range(1, f.D + 1):
        r[k] = -np.dot(c[1 : k + 1], r[k - 1 :: -1]) / c[0]
    return TruncSeries1(r, D=f.D)


@lru_cache(maxsize=None)
def _outside_simplex(D: int) -> np.ndarray:
    """Read-only mask of the slots i + j > D of a (D+1)x(D+1) array."""
    i, j = np.indices((D + 1, D + 1))
    mask = i + j > D
    mask.setflags(write=False)
    return mask


@lru_cache(maxsize=None)
def _simplex(D: int):
    """Slots i + j <= D, row by row (1, y, ..., y^D first), as index arrays
    (i, j), and the product's gather table: entry (k, l) is the slot of
    monomial k over monomial l, or -1 when l does not divide k, so that
    ``np.append(c, 0)[table]`` multiplies by the jet with slot values c."""
    i, j = np.nonzero(~_outside_simplex(D))
    slot = np.full((D + 1, D + 1), -1)
    slot[i, j] = np.arange(len(i))
    di, dj = i[:, None] - i, j[:, None] - j
    table = np.where((di >= 0) & (dj >= 0), slot[di, dj], -1)
    for arr in (i, j, table):
        arr.setflags(write=False)
    return i, j, table


class TruncSeries2(_Jet):
    """Jet sum c[i,j] x^i y^j over the simplex i + j <= D.  Takes ``coeffs`` uncopied
    (np.asarray to complex) and makes it read-only: a caller that still writes to it passes a copy."""

    __slots__ = ()

    def __init__(self, coeffs, D=None):
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise PreconditionError("coefficient array must be square")
        if D is None:
            D = c.shape[0] - 1
        if c.shape[0] != D + 1:
            raise PreconditionError("coefficient array must be (D+1)x(D+1)")
        if np.any(c[_outside_simplex(D)] != 0):
            raise PreconditionError("coefficient outside total degree D")
        c.setflags(write=False)
        self.coeffs = c
        self.D = D

    @classmethod
    def from_terms(cls, terms, D):
        """Build from {(i, j): coeff}; out-of-simplex keys are an error."""
        c = np.zeros((D + 1, D + 1), dtype=complex)
        for (i, j), v in terms.items():
            if i + j > D:
                raise PreconditionError(f"monomial x^{i} y^{j} outside total degree {D}")
            c[i, j] = v
        return cls(c, D=D)

    @classmethod
    def var_x(cls, D):
        return cls.from_terms({(1, 0): 1.0}, D)

    @classmethod
    def var_y(cls, D):
        return cls.from_terms({(0, 1): 1.0}, D)

    def coeff(self, i, j):
        if i < 0 or j < 0 or i + j > self.D:
            raise PreconditionError(f"coefficient ({i},{j}) outside total degree {self.D}")
        return complex(self.coeffs[i, j])

    def truncate(self, Dp):
        if Dp > self.D:
            raise PreconditionError("cannot truncate upward")
        c = self.coeffs[: Dp + 1, : Dp + 1].copy()
        c[_outside_simplex(Dp)] = 0.0
        return TruncSeries2(c, D=Dp)

    def __mul__(self, other):
        if np.isscalar(other):
            return TruncSeries2(self.coeffs * other, D=self.D)
        if other.D != self.D:
            raise PreconditionError("mixed truncation orders")
        i, j, table = _simplex(self.D)
        c = np.zeros_like(self.coeffs)
        op = np.append(self.coeffs[i, j], 0.0)[table]
        c[i, j] = np.vecdot(other.coeffs[i, j].conj(), op)
        return TruncSeries2(c, D=self.D)

    def partial_x(self):
        c = np.zeros_like(self.coeffs)
        c[:-1, :] = self.coeffs[1:, :] * np.arange(1, self.D + 1)[:, None]
        return TruncSeries2(c, D=self.D)

    def partial_y(self):
        c = np.zeros_like(self.coeffs)
        c[:, :-1] = self.coeffs[:, 1:] * np.arange(1, self.D + 1)[None, :]
        return TruncSeries2(c, D=self.D)

    def __call__(self, x, y):
        """Evaluate by Horner in x of Horner-in-y rows; broadcasts over arrays.

        Row i runs over its simplex entries j <= D - i only.  The entries it
        skips are zeros, so at finite y the value is the full row's bit for
        bit, unless the top entry c[i, D - i] has a -0 part, whose sign in
        the sum the skipped steps decide; such a row runs in full."""
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        acc = np.zeros(np.broadcast(x, y).shape, dtype=complex)
        rowval = np.empty_like(acc)
        rows = self.coeffs[::-1]  # row k holds x^(D-k); its top simplex entry is rows[k, k]
        top = rows.diagonal()
        full = (top.real == 0) & np.signbit(top.real) | (top.imag == 0) & np.signbit(top.imag)
        for k, row in enumerate(rows):
            acc *= x
            acc += horner(row[: None if full[k] else k + 1], y, out=rowval)
        return acc[()]

    def homogeneous_part(self, d):
        c = np.zeros_like(self.coeffs)
        i = np.arange(max(0, d - self.D), min(d, self.D) + 1)
        c[i, d - i] = self.coeffs[i, d - i]
        return TruncSeries2(c, D=self.D)

    def __repr__(self):
        return f"TruncSeries2(D={self.D})"


def series1_to_2(f: TruncSeries1, variable="x") -> TruncSeries2:
    """Lift a one-variable jet to two variables, as column 0 (in x) or row 0 (in y)."""
    c = np.zeros((f.D + 1, f.D + 1), dtype=complex)
    if variable == "x":
        c[:, 0] = f.coeffs
    else:
        c[0, :] = f.coeffs
    return TruncSeries2(c, D=f.D)


def compose2(outer, inner):
    """Composition of two-variable map pairs, truncated at the shared D.

    ``outer`` and ``inner`` are pairs (P, Q) of TruncSeries2; the inner pair
    must vanish at the origin.
    """
    P, Q = outer
    U, V = inner
    D = P.D
    if any(s.D != D for s in (Q, U, V)):
        raise PreconditionError("mixed truncation orders")
    if U.coeffs[0, 0] != 0 or V.coeffs[0, 0] != 0:
        raise PreconditionError("composition requires inner(0,0)=(0,0)")
    i, j, table = _simplex(D)
    outer_c = np.stack([P.coeffs, Q.coeffs])
    # the highest powers of y and x the outer pair uses
    jmax = max(np.flatnonzero(outer_c.any(axis=(0, 1))), default=0)
    imax = max(np.flatnonzero(outer_c.any(axis=(0, 2))), default=0)
    vpow = np.zeros((jmax + 1, len(i)), dtype=complex)
    vpow[0, 0] = 1.0
    op_v = np.append(V.coeffs[i, j], 0.0)[table]
    for k in range(jmax):
        vpow[k + 1] = np.vecdot(vpow[k].conj(), op_v)
    # rows[c, r] = sum_j outer_c[c, r, j] V^j, then Horner in U over r
    rows = outer_c[:, : imax + 1, : jmax + 1] @ vpow
    op_u = np.append(U.coeffs[i, j], 0.0)[table]
    acc = rows[:, imax].T
    for r in range(imax - 1, -1, -1):
        acc = op_u @ acc + rows[:, r].T
    out = np.zeros((2, D + 1, D + 1), dtype=complex)
    out[:, i, j] = acc.T
    return TruncSeries2(out[0], D=D), TruncSeries2(out[1], D=D)


def invert2(pair):
    """Compositional inverse of a map pair fixing the origin.

    Solves F(G) = id degree by degree; requires an invertible linear part.
    """
    F1, F2 = pair
    D = F1.D
    jac = np.array(
        [[F1.coeff(1, 0), F1.coeff(0, 1)], [F2.coeff(1, 0), F2.coeff(0, 1)]],
        dtype=complex,
    )
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    if abs(det) < _JET_TOL:
        raise NumericalError("non-invertible jet: singular linear part")
    jinv = np.array([[jac[1, 1], -jac[0, 1]], [-jac[1, 0], jac[0, 0]]], dtype=complex) / det
    G1 = TruncSeries2.from_terms({(1, 0): jinv[0, 0], (0, 1): jinv[0, 1]}, D)
    G2 = TruncSeries2.from_terms({(1, 0): jinv[1, 0], (0, 1): jinv[1, 1]}, D)
    ident = (TruncSeries2.var_x(D), TruncSeries2.var_y(D))
    for d in range(2, D + 1):
        H1, H2 = compose2(pair, (G1, G2))
        E1 = (H1 - ident[0]).homogeneous_part(d)
        E2 = (H2 - ident[1]).homogeneous_part(d)
        G1 = G1 - (jinv[0, 0] * E1 + jinv[0, 1] * E2)
        G2 = G2 - (jinv[1, 0] * E1 + jinv[1, 1] * E2)
    return G1, G2
