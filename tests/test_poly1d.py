import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from henonlab import poly1d as p1
from henonlab.errors import NumericalError, PreconditionError

# synthetic family members for the classical test cases
SQUARE = p1.PolyParams(p=0, q=1, t=1.0, lam=2.0 + 0j, c=0.0 + 0j, alpha=1.0 + 0j)
CHEBYSHEV = p1.PolyParams(p=0, q=1, t=0.0, lam=0j, c=-2.0 + 0j, alpha=0j)


def test_params_curve_identity():
    pp = p1.poly_params((1, 2), 0.03)
    assert abs(pp.c - (pp.lam / 2 - pp.lam**2 / 4)) < 1e-15
    assert abs(pp.map(pp.alpha) - pp.alpha) < 1e-12
    assert abs(pp.dmap(pp.alpha) - pp.lam) < 1e-12


@pytest.mark.parametrize("t", [0.1, 0.0, -0.02])
def test_multiplier_is_exact_at_quarter_turns(t):
    # real at q = 1, 2, which makes the family symmetric under conjugation
    for pq, root in [((0, 1), 1), ((1, 2), -1), ((1, 4), 1j), ((3, 4), -1j)]:
        lam = p1.poly_params(pq, t).lam
        assert (lam.real, lam.imag) == ((1 + t) * root.real, (1 + t) * root.imag)


def test_green_square_map():
    assert abs(p1.green(SQUARE, 2.0) - np.log(2.0)) < 1e-12


def test_green_fixed_point_is_zero():
    pp = p1.poly_params((1, 1), 0.0)
    assert p1.green(pp, 0.5) == 0.0


def test_green_stability_in_iters(monkeypatch):
    pp = p1.poly_params((1, 1), 0.0)
    vals = []
    for n in (40, 50, 60, 80):
        monkeypatch.setattr(p1, "GREEN_STEPS", n)
        vals.append(p1.green(pp, 2.0))
    assert 0.55 < vals[-1] < 0.75
    assert max(vals) - min(vals) < 1e-8


def green_masked(params, z, iters=60):
    """green as it ran before the active-set compaction: a boolean mask over
    the full array at every iteration."""
    z0 = np.asarray(z, dtype=complex)
    scalar = z0.ndim == 0
    w = np.atleast_1d(z0).copy()
    out = np.zeros(w.shape, dtype=float)
    active = np.ones(w.shape, dtype=bool)
    for n in range(1, iters + 1):
        w[active] = w[active] ** 2 + params.c
        far = active & (np.abs(w) > p1._FAR)
        if np.any(far):
            out[far] = np.log(np.abs(w[far])) / 2.0**n
            active &= ~far
        if not active.any():
            break
    tail = active & (np.abs(w) > p1.ESCAPE_RADIUS)
    out[tail] = np.log(np.abs(w[tail])) / 2.0**iters
    return float(out[0]) if scalar else out.reshape(z0.shape)


def _assert_green_matches(params, z, iters):
    with np.errstate(over="ignore", invalid="ignore"), pytest.MonkeyPatch.context() as mp:
        mp.setattr(p1, "GREEN_STEPS", iters)
        got, want = p1.green(params, z), green_masked(params, z, iters)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    np.testing.assert_array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(pq=st.sampled_from([(1, 1), (1, 2), (1, 3), (2, 5)]), t=st.sampled_from([-0.02, 0.0, 0.1]),
       shape=st.sampled_from([(), (1,), (0,), (33,), (4, 9), (2, 3, 5)]),
       iters=st.sampled_from([1, 2, 3, 7, 60, 80]), scale=st.sampled_from([0.5, 2.0, 1e3]),
       seed=st.integers(0, 2**32 - 1))
def test_green_matches_masked_reference(pq, t, shape, iters, scale, seed):
    if pq == (2, 5) and t == 0.1:
        t = 0.09  # |t| = 1/(2q) lies outside the family
    rng = np.random.default_rng(seed)
    n = int(np.prod(shape))
    z = scale * np.sqrt(rng.uniform(0, 1, n)) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
    _assert_green_matches(p1.poly_params(pq, t), z.reshape(shape) if shape else z[0], iters)


def test_green_matches_masked_reference_at_edges(monkeypatch):
    pp = p1.poly_params((1, 1), 0.0)
    # a scalar returns a float; one iteration
    monkeypatch.setattr(p1, "GREEN_STEPS", 1)
    assert isinstance(p1.green(pp, 2.0), float)
    _assert_green_matches(pp, 2.0, 1)
    _assert_green_matches(pp, np.array([0.3, 2.0, 50.0, 1e60]), 1)
    # past ESCAPE_RADIUS but not _FAR after the last iteration: the tail branch
    z = np.array([[4.0, 12.0, 1e3], [0.2j, 3.0 - 1j, 1e120]])
    _assert_green_matches(pp, z, 3)
    monkeypatch.setattr(p1, "GREEN_STEPS", 3)
    with np.errstate(over="ignore", invalid="ignore"):
        g = p1.green(pp, z)
    assert 0 < g[0, 0] < np.log(1e100) / 8 and g[1, 0] == 0.0
    # infinite and nan input
    _assert_green_matches(pp, np.array([np.inf, complex(np.inf, 1.0), complex(0, -np.inf), np.nan, 0.1]), 60)
    _assert_green_matches(pp, complex(np.inf, np.inf), 5)


def test_pullback_circle():
    loop = p1.LoopSample(values=4.0 * np.exp(2j * np.pi * np.arange(64) / 64),
                         level=np.log(4.0))
    out = p1.pullback_loop(SQUARE, loop)
    assert np.max(np.abs(np.abs(out.values) - 2.0)) < 1e-12
    assert out.level == loop.level / 2


def test_pullback_defining_equation():
    pp = p1.poly_params((1, 1), 0.0)
    loop = p1.equipotential_loop(pp, 256)
    out = p1.pullback_loop(pp, loop)
    n = loop.N
    resid = np.abs(out.values**2 + pp.c - loop.values[(2 * np.arange(n)) % n])
    assert np.max(resid) < 1e-12


def test_pullback_gaps_decrease_basilica():
    pp = p1.poly_params((1, 2), 0.0)  # c = -3/4
    loop = p1.equipotential_loop(pp, 1024, level=np.log(4.0))
    gaps = []
    for _ in range(20):
        nxt = p1.pullback_loop(pp, loop)
        gaps.append(np.max(np.abs(nxt.values - loop.values)))
        loop = nxt
    assert all(b <= a for a, b in zip(gaps[2:], gaps[3:]))


def test_pullback_requires_positive_level():
    loop = p1.LoopSample(values=np.exp(2j * np.pi * np.arange(8) / 8), level=0.0)
    with pytest.raises(PreconditionError):
        p1.pullback_loop(SQUARE, loop)


def test_loop_sample_requires_power_of_two():
    with pytest.raises(PreconditionError):
        p1.LoopSample(values=np.zeros(12, dtype=complex), level=1.0)


def test_caratheodory_square_is_unit_circle():
    res = p1.caratheodory(SQUARE, 1024, 40)
    assert np.max(np.abs(np.abs(res.loop.values) - 1.0)) < 1e-10


def test_caratheodory_parabolic_landing():
    # gamma(0) converges to the double fixed point 1/2 at the parabolic
    # O(1/n) rate: 40 pullbacks leave ~2.6e-2, so the 1e-2 claim needs ~128
    res40 = p1.caratheodory(p1.poly_params((1, 1), 0.0), 4096, 40)
    res128 = p1.caratheodory(p1.poly_params((1, 1), 0.0), 4096, 128)
    d40 = abs(res40.loop.values[0] - 0.5)
    d128 = abs(res128.loop.values[0] - 0.5)
    assert d128 < 1e-2 < d40 < 4e-2


def test_caratheodory_chebyshev_segment():
    # the equipotential pinches at the critical point; 9 levels at N=8192
    # stay on the resolvable side of the pinch and already reach 1e-2
    res = p1.caratheodory(CHEBYSHEV, 8192, 9)
    v = res.loop.values
    # Hausdorff distance to the segment [-2, 2], both directions
    far = np.max(np.hypot(np.clip(v.real, -2, 2) - v.real, v.imag))
    seg = np.linspace(-2.0, 2.0, 401)
    near = max(np.min(np.abs(s - v)) for s in seg)
    assert far < 1e-2 and near < 1e-2


def test_chebyshev_pinch_raises_ambiguity():
    # beyond the resolvable depth the documented branch error must fire
    with pytest.raises(NumericalError, match="resolution too coarse"):
        p1.caratheodory(CHEBYSHEV, 4096, 12)


def test_caratheodory_gaps_noninc_after_burnin():
    for pq, t in [((1, 1), 0.0), ((1, 1), 0.1), ((1, 2), 0.05), ((1, 2), -0.02)]:
        res = p1.caratheodory(p1.poly_params(pq, t), 1024, 30)
        g = res.gaps
        assert np.all(np.diff(g[5:]) <= 1e-14), (pq, t)


def test_caratheodory_preconditions():
    pp = p1.poly_params((1, 1), 0.1)
    with pytest.raises(PreconditionError):
        p1.caratheodory(pp, 512, 10)
    with pytest.raises(PreconditionError):
        p1.caratheodory(pp, 1024, 0)


def test_caratheodory_refuses_pullbacks_past_the_least_positive_level(monkeypatch):
    # log(R)/2 2^-1074 rounds to the least positive float; one more halving gave
    # a loop at level 0.0, and the pullback after it raised on the level
    pp = p1.poly_params((1, 1), 0.1)
    assert p1.caratheodory(pp, 1024, 1074).loop.level == 5e-324
    pullbacks = []
    monkeypatch.setattr(p1, "pullback_loop", lambda *args: pullbacks.append(args))
    for n in (1075, 100_000):
        with pytest.raises(PreconditionError, match=f"^n_iters = {n} pullbacks halve"):
            p1.caratheodory(pp, 1024, n)
    assert pullbacks == []


def test_limit_loop_semiconjugates_doubling():
    pp = p1.poly_params((1, 1), 0.1)
    res = p1.caratheodory(pp, 1024, 60)
    v = res.loop.values
    n = len(v)
    resid = np.max(np.abs(v[np.arange(n)] ** 2 + pp.c - v[(2 * np.arange(n)) % n]))
    assert resid < 10 * max(res.final_gap, 1e-12)


def test_normal_form_cauliflower():
    pp = p1.poly_params((1, 1), 0.0)
    change, normal, C = p1.normal_form_1d(pp)
    assert np.allclose(normal.coeffs[:4], [0, 1, 1, 0], atol=1e-12)
    assert abs(C) < 1e-12
    assert p1.conjugacy_residual_1d(pp, change, normal) < 1e-12


def test_normal_form_basilica_elimination():
    pp = p1.poly_params((1, 2), 0.0)
    change, normal, C = p1.normal_form_1d(pp)
    assert abs(normal.coeffs[2]) < 1e-12        # killed
    assert abs(normal.coeffs[3] - pp.lam) < 1e-12  # the q+1 slot carries lam
    assert p1.conjugacy_residual_1d(pp, change, normal) < 1e-10


@pytest.mark.parametrize("pq,t", [((1, 1), 0.0), ((1, 2), 0.0), ((1, 3), 0.0),
                                  ((1, 1), 0.05), ((1, 2), -0.02)])
def test_normal_form_family(pq, t):
    pp = p1.poly_params(pq, t)
    q = pp.q
    change, normal, C = p1.normal_form_1d(pp)
    forbidden = [abs(normal.coeffs[k]) for k in range(2, 2 * q + 2) if k % q != 1 % q]
    if forbidden:
        assert max(forbidden) < 1e-10
    assert abs(normal.coeffs[q + 1] - pp.lam) < 1e-10
    assert p1.conjugacy_residual_1d(pp, change, normal) < 1e-10
    assert abs(normal.coeffs[2 * q + 1] / pp.lam - C) < 1e-12


def test_normal_form_resonance_guard():
    # in-family the elimination divisors stay bounded below, so the guard
    # needs a synthetic multiplier with lam^2 ~ lam to fire
    lam = 1.0 + 1e-12
    pp = p1.PolyParams(p=0, q=2, t=0.0, lam=lam, c=lam / 2 - lam**2 / 4, alpha=lam / 2)
    with pytest.raises(NumericalError, match="resonance"):
        p1.normal_form_1d(pp)


def test_normal_form_order_precondition():
    with pytest.raises(PreconditionError):
        p1.normal_form_1d(p1.poly_params((1, 2), 0.0), D=4)


def test_sector_classification():
    pp = p1.poly_params((1, 1), 0.0)
    assert p1.sector_1d(pp, 0.1) == "repelling"
    assert p1.sector_1d(pp, 0.1j) == "attracting"
    assert p1.sector_1d(pp, 0.2) == "outside"
    ppn = p1.poly_params((1, 2), -0.01)
    assert abs(p1.repelling_inner_radius(ppn) - 0.0066674) < 1e-6
    assert p1.sector_1d(ppn, np.sqrt(0.004)) == "attracting"
    assert p1.sector_1d(ppn, np.sqrt(0.01)) == "repelling"


def test_eps1_value():
    assert abs(p1.EPS1 - 0.6427876097) < 1e-9
    assert p1.EPS1 > 3 / 5


@pytest.mark.parametrize("pq,t", [((1, 1), 0.0), ((1, 1), 0.05), ((1, 2), 0.0)])
def test_derivative_expansion_on_repelling_sector(pq, t):
    # the operative sector bound carries (q+2/3); the prop's (q+3/2) variant
    # fails on the sector wall and is not asserted
    pp = p1.poly_params(pq, t)
    q = pp.q
    _, normal, _ = p1.normal_form_1d(pp, D=2 * q + 6)
    rng = np.random.default_rng(5)
    xs = []
    while len(xs) < 1000:
        z = 0.15 * (rng.uniform(-1, 1, 4000) + 1j * rng.uniform(-1, 1, 4000))
        w = z**q
        z = z[(w.real > p1.EPS0 * np.abs(w.imag)) & (np.abs(z) <= 0.15)]
        xs.extend(z[: 1000 - len(xs)])
    xs = np.array(xs)
    deriv = np.abs(normal.deriv()(xs))
    bound = abs(pp.lam) * (1 + (q + 2 / 3) * p1.EPS1 * np.abs(xs) ** q)
    assert np.all(deriv > bound)


def sequential_branch(roots, unit="sample"):
    """Reference: the sample-by-sample continuation that pullback_loop and
    the torus seeds ran before continue_branch replaced it."""
    out = np.empty(len(roots), dtype=complex)
    out[0] = max((roots[0], -roots[0]), key=lambda v: (v.real, v.imag))
    prev = out[0]
    for k in range(1, len(roots)):
        r = roots[k]
        d_plus = abs(r - prev)
        d_minus = abs(r + prev)
        if min(d_plus, d_minus) > 2.0 * abs(r):
            raise NumericalError(f"resolution too coarse: ambiguous branch at {unit} {k}")
        prev = r if d_plus <= d_minus else -r
        out[k] = prev
    return out


def _outcome(fn, roots):
    try:
        return fn(roots).tobytes()
    except NumericalError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.integers(min_value=1, max_value=300),
       kind=st.sampled_from(["loop", "coarse", "lattice", "ties"]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_continue_branch_matches_sequential_reference(n, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        # small Gaussian integers: zeros and ambiguous samples
        roots = (rng.integers(-2, 3, n) + 1j * rng.integers(-2, 3, n)).astype(complex)
    elif kind == "ties":
        # never ambiguous, and every perpendicular pair is an exact tie
        units = np.array([1, -1, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
        roots = rng.choice(units, n)
    else:
        s = np.arange(n) / n
        modes = np.arange(-3, 4)
        coeffs = (rng.normal(size=7) + 1j * rng.normal(size=7)) / (1.0 + np.abs(modes))
        loop = np.exp(2j * np.pi * np.outer(s, modes)) @ coeffs
        if kind == "coarse":
            loop += 0.3 * (rng.normal(size=n) + 1j * rng.normal(size=n))
        c = complex(rng.normal(), rng.normal())
        roots = np.sqrt(loop - c) * rng.choice([-1.0, 1.0], n)
    assert _outcome(p1.continue_branch, roots) == _outcome(sequential_branch, roots)


def test_continue_branch_exact_tie_restarts_at_plus():
    # sample 1 flips to +1; sample 2 is equidistant from +-1j and takes +1j
    roots = np.array([1.0, -1.0, 1j])
    assert p1.continue_branch(roots).tolist() == [1.0, 1.0, 1j]
    assert sequential_branch(roots).tolist() == [1.0, 1.0, 1j]
    # abs() ties these two distances, which np.abs rounds one ulp apart
    roots = np.array([1.22 + 1.23j, -1.599 + 1.586j])
    assert abs(roots[1] - roots[0]) == abs(roots[1] + roots[0])
    assert p1.continue_branch(roots).tobytes() == sequential_branch(roots).tobytes() \
        == roots.tobytes()


def test_continue_branch_seed_and_ambiguous_sample():
    assert p1.continue_branch(np.array([-2.0 + 1j, -2.0 + 1.1j]))[0] == 2.0 - 1j
    roots = np.array([1.0, 1.1, 1.2, 0.01, 1.0])
    with pytest.raises(NumericalError, match="ambiguous branch at angle 3$"):
        p1.continue_branch(roots, unit="angle")
    with pytest.raises(NumericalError, match="ambiguous branch at angle 3$"):
        sequential_branch(roots, unit="angle")
