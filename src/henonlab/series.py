"""Truncated power-series arithmetic in one and two complex variables.

All operations return new objects truncated to the shared order D; there is
no silent degree growth.  One-variable series are plain coefficient vectors
``c[0..D]``; two-variable series are total-degree truncated, i.e. only
coefficients with ``i + j <= D`` are carried.

The two-variable product is a Kronecker substitution: the (D+1)x(D+1)
coefficient array is laid out row by row with stride 2D+1, one 1-D
``np.convolve`` multiplies the flattened rows, and no carry crosses a row
because j1 + j2 <= 2D.  ``compose2`` is Horner in the first inner component
U over rows that are linear combinations of the powers of V, so a
composition costs about 3D products.  ``invert2`` is the generic inverse,
solving F(G) = id degree by degree; callers that know their map's inverse in
closed form should use it instead.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NumericalError, PreconditionError

_JET_TOL = 1e-14


class TruncSeries1:
    """Polynomial jet sum c[k] x^k, k = 0..D, coefficients complex."""

    __slots__ = ("coeffs", "D")

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
    def zero(cls, D):
        return cls([], D=D)

    @classmethod
    def identity(cls, D):
        """The series x."""
        return cls([0.0, 1.0], D=D)

    @classmethod
    def constant(cls, value, D):
        return cls([value], D=D)

    def truncate(self, Dp):
        if Dp > self.D:
            raise PreconditionError("cannot truncate upward")
        return TruncSeries1(self.coeffs[: Dp + 1], D=Dp)

    def __add__(self, other):
        other = _coerce1(other, self.D)
        return TruncSeries1(self.coeffs + other.coeffs, D=self.D)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce1(other, self.D)
        return TruncSeries1(self.coeffs - other.coeffs, D=self.D)

    def __neg__(self):
        return TruncSeries1(-self.coeffs, D=self.D)

    def __mul__(self, other):
        if np.isscalar(other):
            return TruncSeries1(self.coeffs * other, D=self.D)
        if other.D != self.D:
            raise PreconditionError("mixed truncation orders")
        prod = np.convolve(self.coeffs, other.coeffs)[: self.D + 1]
        return TruncSeries1(prod, D=self.D)

    def __rmul__(self, other):
        return self.__mul__(other)

    def deriv(self):
        c = self.coeffs
        d = c[1:] * np.arange(1, self.D + 1)
        return TruncSeries1(np.append(d, 0.0), D=self.D)

    def __call__(self, x):
        """Evaluate by Horner; x may be a scalar or ndarray."""
        return horner(self.coeffs, x)

    def max_abs(self):
        return float(np.max(np.abs(self.coeffs)))

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


def _coerce1(v, D):
    if isinstance(v, TruncSeries1):
        if v.D != D:
            raise PreconditionError("mixed truncation orders")
        return v
    return TruncSeries1.constant(v, D)


def compose1(outer: TruncSeries1, inner: TruncSeries1) -> TruncSeries1:
    """outer(inner(x)) truncated to the shared order D.

    Requires inner(0) = 0 so that the truncated composition is exact through
    degree D in exact arithmetic.
    """
    if outer.D != inner.D:
        raise PreconditionError("mixed truncation orders")
    if inner.coeffs[0] != 0:
        raise PreconditionError("composition requires inner(0)=0")
    acc = TruncSeries1.constant(outer.coeffs[outer.D], outer.D)
    for k in range(outer.D - 1, -1, -1):
        acc = acc * inner + outer.coeffs[k]
    return acc


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


def _mul2(a: np.ndarray, b: np.ndarray, D: int) -> np.ndarray:
    """Truncated product of two simplex coefficient arrays (Kronecker substitution)."""
    stride = 2 * D + 1
    pa = np.zeros((D + 1, stride), dtype=complex)
    pb = np.zeros((D + 1, stride), dtype=complex)
    pa[:, : D + 1] = a
    pb[:, : D + 1] = b
    flat = np.convolve(pa.ravel(), pb.ravel())[: (D + 1) * stride]
    c = flat.reshape(D + 1, stride)[:, : D + 1].copy()
    c[_outside_simplex(D)] = 0.0
    return c


class TruncSeries2:
    """Jet sum c[i,j] x^i y^j over the simplex i + j <= D."""

    __slots__ = ("coeffs", "D")

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
        c = c.copy()
        c.setflags(write=False)
        self.coeffs = c
        self.D = D

    @classmethod
    def zero(cls, D):
        return cls(np.zeros((D + 1, D + 1), dtype=complex), D=D)

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

    def __add__(self, other):
        other = _coerce2(other, self.D)
        return TruncSeries2(self.coeffs + other.coeffs, D=self.D)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce2(other, self.D)
        return TruncSeries2(self.coeffs - other.coeffs, D=self.D)

    def __neg__(self):
        return TruncSeries2(-self.coeffs, D=self.D)

    def __mul__(self, other):
        if np.isscalar(other):
            return TruncSeries2(self.coeffs * other, D=self.D)
        if other.D != self.D:
            raise PreconditionError("mixed truncation orders")
        return TruncSeries2(_mul2(self.coeffs, other.coeffs, self.D), D=self.D)

    def __rmul__(self, other):
        return self.__mul__(other)

    def partial_x(self):
        c = np.zeros_like(self.coeffs)
        c[:-1, :] = self.coeffs[1:, :] * np.arange(1, self.D + 1)[:, None]
        return TruncSeries2(c, D=self.D)

    def partial_y(self):
        c = np.zeros_like(self.coeffs)
        c[:, :-1] = self.coeffs[:, 1:] * np.arange(1, self.D + 1)[None, :]
        return TruncSeries2(c, D=self.D)

    def __call__(self, x, y):
        """Evaluate by Horner in x of Horner-in-y rows; broadcasts over arrays."""
        x = np.asarray(x, dtype=complex)
        y = np.asarray(y, dtype=complex)
        acc = np.zeros(np.broadcast(x, y).shape, dtype=complex)
        rowval = np.empty_like(acc)
        for row in self.coeffs[::-1]:
            acc *= x
            acc += horner(row, y, out=rowval)
        return acc[()]

    def homogeneous_part(self, d):
        c = np.zeros_like(self.coeffs)
        for i in range(d + 1):
            if d - i <= self.D:
                c[i, d - i] = self.coeffs[i, d - i]
        return TruncSeries2(c, D=self.D)

    def max_abs(self):
        return float(np.max(np.abs(self.coeffs)))

    def __repr__(self):
        return f"TruncSeries2(D={self.D})"


def _coerce2(v, D):
    if isinstance(v, TruncSeries2):
        if v.D != D:
            raise PreconditionError("mixed truncation orders")
        return v
    return TruncSeries2.from_terms({(0, 0): v}, D)


def series1_to_2(f: TruncSeries1, variable="x") -> TruncSeries2:
    """Lift a one-variable jet to two variables, in x or in y."""
    D = f.D
    terms = {}
    for k, c in enumerate(f.coeffs):
        if c != 0:
            terms[(k, 0) if variable == "x" else (0, k)] = c
    return TruncSeries2.from_terms(terms, D)


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
    outer_c = np.stack([P.coeffs, Q.coeffs])
    # powers of V only up to the highest power of y the outer pair uses
    jmax = max(np.flatnonzero(outer_c.any(axis=(0, 1))), default=0)
    vpow = [TruncSeries2.from_terms({(0, 0): 1.0}, D).coeffs]
    for _ in range(jmax):
        vpow.append(_mul2(vpow[-1], V.coeffs, D))
    # rows[c, i] = sum_j outer_c[c, i, j] V^j, then Horner in U over i
    rows = np.tensordot(outer_c[:, :, : jmax + 1], np.stack(vpow), axes=1)
    out = []
    for comp_c, comp_rows in zip(outer_c, rows):
        imax = max(np.flatnonzero(comp_c.any(axis=1)), default=0)
        acc = comp_rows[imax]
        for i in range(imax - 1, -1, -1):
            acc = _mul2(acc, U.coeffs, D) + comp_rows[i]
        out.append(TruncSeries2(acc, D=D))
    return out[0], out[1]


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
