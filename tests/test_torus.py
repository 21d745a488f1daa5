import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import henonlab.henon as hn
from henonlab import poly1d as p1
from henonlab import torus as tor
from henonlab.errors import NumericalError, PreconditionError
from henonlab.series import TruncSeries2, horner

SQUARE = p1.PolyParams(p=0, q=1, t=1.0, lam=2.0 + 0j, c=0.0 + 0j, alpha=1.0 + 0j)


@pytest.fixture(scope="module")
def fixed_q1():
    P = hn.make_params((1, 1), 0.1, 0.05)
    return P, tor.torus_fixed_point(P, 100, 1024, tor.DISK_DEGREE)


def test_seed_square_family():
    # c=0: the level-log(sqrt R) equipotential is the radius-2 circle
    T = tor.torus_seed(p1.equipotential_loop(SQUARE, 64), tor.DISK_DEGREE)
    assert np.max(np.abs(np.abs(T.centers) - 2.0)) < 1e-12
    assert np.max(np.abs(T.coeffs[:, 1:])) == 0.0
    assert T.level == 0


def test_graph_transform_defining_residual():
    P = hn.make_params((1, 1), 0.1, 0.05)
    T0 = tor.torus_seed(p1.equipotential_loop(P.poly, 256), tor.DISK_DEGREE)
    T1 = tor.graph_transform(P, T0)
    # H of the new fiber lands on the input fiber over the doubled angle,
    # for both halves of the two-to-one angle structure
    vals = T1.node_values
    z = T1.nodes()[None, :]
    hx = vals**2 + P.c + P.a * z
    hy = P.a * vals
    tgt = T0.eval((2 * np.arange(T1.n_angles))[:, None] % T1.n_angles, hy)
    assert np.max(np.abs(hx - tgt)) < 1e-10
    assert T1.level == 1


def _full_array_graph_transform(params, torus, max_newton=tor.NEWTON_STEPS):
    """Reference: the graph transform whose Newton solve starts every (angle,
    node) entry at the 1-D pullback seed and updates all of them until the
    last one retires.  An entry retires when the step s just taken predicts a
    next step M |s|^2 / (2 |F'(x)|) of at most eps (1 + |x|) / 2, with
    M = 2 + |a|^2 sum_m m (m-1) |c_m| R^(m-2) per angle and
    R = max(r, |a| max |seed|)."""
    n, d = torus.n_angles, torus.disk_degree
    a, c = params.a, params.c
    doubled = (2 * np.arange(n)) % n
    seeds = p1.continue_branch(np.sqrt(torus.centers[doubled] - c), unit="angle")
    z = torus.nodes()[None, :]
    tcoeffs = torus.coeffs[doubled]
    X = np.broadcast_to(seeds[:, None], (n, z.shape[1])).copy()
    phi = tcoeffs[:, None, :]
    dphi = (tcoeffs[:, 1:] * np.arange(1, d + 1))[:, None, :]
    m = np.arange(2, d + 1)
    R = max(tor.FILTRATION_RADIUS, abs(a) * np.max(np.abs(seeds)))
    M = 2 + abs(a) ** 2 * np.sum(np.abs(tcoeffs[:, 2:]) * (m * (m - 1)) * R ** (m - 2.0), axis=1)
    converged = np.zeros(X.shape, dtype=bool)
    for _ in range(max_newton):
        xa = a * X
        g = X * X + c + a * z - horner(phi, xa)
        gp = 2.0 * X - a * horner(dphi, xa)
        step = g / gp
        X = X - step
        predicted = M[:, None] / 2 * np.abs(step) ** 2
        converged = predicted <= (np.abs(X) + 1.0) * np.abs(gp) * (np.finfo(float).eps / 2)
        if converged.all():
            break
    if not converged.all():
        k, j = np.argwhere(~converged)[0]
        raise NumericalError(f"Newton stalled at angle {k}/{n}, node {j}")
    if np.any(np.abs(X - seeds[:, None]) > np.abs(X + seeds[:, None])):
        raise NumericalError("resolution too coarse: node left its branch")
    dft = np.fft.fft(X, axis=1)[:, : d + 1] / (2 * d)
    scale = tor.NODE_RADIUS ** np.arange(d + 1)
    return tor.SolidTorus(coeffs=dft / scale, level=torus.level + 1)


def _iterate(transform, params, n_iters, n_angles):
    """(tori, gaps, separations) of n_iters transform steps from the seed
    torus, or the level and message of the NumericalError that stopped them."""
    torus = tor.torus_seed(p1.equipotential_loop(params.poly, n_angles), tor.DISK_DEGREE)
    tori, gaps, seps = [torus], [], []
    for level in range(1, n_iters + 1):
        try:
            tori.append(transform(params, tori[-1]))
        except NumericalError as exc:
            return level, str(exc)
        vals = tori[-1].node_values
        gaps.append(np.max(np.abs(vals - tori[-2].node_values)))
        seps.append(tori[-1].separation())
    return tori[-1], np.array(gaps), np.array(seps)


# at a = 0.15 some angles of level 6 leave their branch from the samples of
# level 5 and are solved again from the pullback seeds
@pytest.mark.parametrize("pq,a", [((1, 1), 0.05), ((1, 2), 0.05 + 0.05j), ((1, 2), 0.15)])
def test_fixed_point_matches_full_array_newton(pq, a):
    # warm starts and retiring converged angles change the iterate only by
    # rounding: the reference updates every entry until the last one retires
    _fixed_point_of_full_array_newton(hn.make_params(pq, 0.1, a))


def _fixed_point_of_full_array_newton(P):
    """The 30-level fixed point at 256 angles, checked against the reference."""
    res = tor.torus_fixed_point(P, 30, 256, tor.DISK_DEGREE)
    torus, gaps, _ = _iterate(_full_array_graph_transform, P, 30, 256)
    assert np.max(np.abs(res.torus.coeffs - torus.coeffs)) < 1e-14
    assert np.max(np.abs(res.gaps - gaps)) < 1e-13
    assert abs(res.torus.separation() - torus.separation()) < 1e-13
    return res


def _mirror(vals, e=1):
    """(n_angles, 2d) node values under the mirror (x, y) -> (conj x, e conj y):
    fiber k -> -k, node z_j -> e conj(z_j), values conjugated."""
    (n, m), d = vals.shape, vals.shape[1] // 2
    k = (-np.arange(n)) % n
    j = (-np.arange(m)) % m if e == 1 else (d - np.arange(m)) % m
    return np.conj(vals[k][:, j])


@pytest.mark.parametrize("pq,t,a", [
    ((1, 1), 0.0, 0.05), ((1, 1), 0.1, 0.05),
    ((1, 2), 0.1, 0.05j), ((1, 2), 0.1, -0.05j), ((1, 2), 0.1, -0.1),
])
def test_mirror_symmetric_fixed_point_matches_full_array_newton(pq, t, a):
    # c real and a real or imaginary: graph_transform solves fibers 0 .. n/2
    # and mirrors the rest, which moves the iterate only by rounding
    P = hn.make_params(pq, t, a)
    res = _fixed_point_of_full_array_newton(P)
    # the mirrored fibers are copies bit for bit; fibers 0 and n/2 are their
    # own mirrors and are solved on every node, so they match to rounding
    X, n = res.torus.samples, res.torus.n_angles
    mirrored = _mirror(X, 1 if P.a.imag == 0 else -1)
    paired = np.r_[1:n // 2, n // 2 + 1:n]
    assert np.array_equal(X[paired], mirrored[paired])
    assert np.max(np.abs(X - mirrored)) < 1e-15


def _solved_angles(monkeypatch, params, torus, **kwargs):
    """The number of angles graph_transform hands to its first Newton solve
    on ``torus``, and the transformed torus."""
    widths = []
    newton = tor._newton

    def spy(params, nodes, tcoeffs, start, **kwargs):
        widths.append(len(tcoeffs))
        return newton(params, nodes, tcoeffs, start, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(tor, "_newton", spy)
        out = tor.graph_transform(params, torus, **kwargs)
    return widths[0], out


@pytest.mark.parametrize("pq,t,a,mirrored", [
    ((1, 1), 0.1, 0.05, True), ((1, 2), 0.1, 0.05j, True), ((1, 2), 0.1, -0.05j, True),
    ((1, 2), 0.1, 0.05 + 0.05j, False), ((1, 3), 0.05, 0.05, False),
])
def test_graph_transform_solves_half_the_fibers_only_on_the_mirror_axes(
        monkeypatch, pq, t, a, mirrored):
    P = hn.make_params(pq, t, a)
    T = tor.torus_seed(p1.equipotential_loop(P.poly, 256), tor.DISK_DEGREE)
    for _ in range(3):
        width, T = _solved_angles(monkeypatch, P, T)
        assert width == (129 if mirrored else 256)


def test_graph_transform_solves_every_fiber_of_an_asymmetric_torus(monkeypatch):
    # one fiber moved by 1e-10 breaks the mirror of the input torus, so every
    # fiber is solved, and the result still matches the reference
    P = hn.make_params((1, 1), 0.1, 0.05)
    T = tor.torus_fixed_point(P, 3, 256, tor.DISK_DEGREE).torus
    coeffs = T.coeffs.copy()
    coeffs[5, 0] += 1e-10
    bent = tor.SolidTorus(coeffs=coeffs, level=T.level, samples=T.samples)
    width, out = _solved_angles(monkeypatch, P, bent)
    assert width == 256
    expected = _full_array_graph_transform(P, bent)
    assert np.max(np.abs(out.coeffs - expected.coeffs)) < 1e-14


# at a = -0.1-0.15j the samples of level 3 lead Newton to a root on the seed's
# side where Newton from the seed leaves the branch; within BRANCH_MARGIN the
# seeded solve decides, so the error comes at level 4 in both
@pytest.mark.parametrize("a", [0.2, -0.1 - 0.15j])
def test_fixed_point_raises_like_full_array_newton(a):
    P = hn.make_params((1, 2), 0.1, a)
    expected = _iterate(_full_array_graph_transform, P, 30, 256)
    assert expected == _iterate(tor.graph_transform, P, 30, 256)
    with pytest.raises(NumericalError) as exc:
        tor.torus_fixed_point(P, 30, 256, tor.DISK_DEGREE)
    assert str(exc.value) == expected[1]


def _doubled(T):
    """The torus on twice the angles whose fiber 2k is fiber k of T and whose
    odd fibers are zero, with each sample row repeated."""
    coeffs = np.zeros((2 * T.n_angles, T.disk_degree + 1), dtype=complex)
    coeffs[::2] = T.coeffs
    return tor.SolidTorus(coeffs=coeffs, level=T.level, samples=np.repeat(T.samples, 2, axis=0))


def test_fixed_point_equals_a_chain_of_graph_transforms_bit_for_bit():
    # torus_fixed_point makes one plain graph_transform call per level.  On 256
    # angles every level runs on the caller's grid.  On 1024 angles: 12 levels
    # on the 1024 angles, a cut to every 4th fiber, plain levels on 256, one
    # level on each of two doubled tori, then two levels on the 1024 angles.
    # The q=2 tori are mirrored, the q=3 one is not.
    for pq, t, a, n_iters, n_angles in [((1, 2), 0.1, 0.15, 8, 256),
                                        ((1, 2), 0.1, 0.05, 20, 1024),
                                        ((1, 3), 0.05, 0.05, 20, 1024)]:
        P = hn.make_params(pq, t, a)
        res = tor.torus_fixed_point(P, n_iters, n_angles, tor.DISK_DEGREE)
        cut = n_angles > tor.BASE_ANGLES
        T = tor.torus_seed(p1.equipotential_loop(P.poly, n_angles), tor.DISK_DEGREE)
        gaps = []
        for level in range(1, n_iters + 1):
            if cut and level == tor.FULL_GRID_LEVELS + 1:
                s = n_angles // tor.BASE_ANGLES
                T = tor.SolidTorus(coeffs=T.coeffs[::s], level=T.level, samples=T.samples[::s])
            vals, refine = T.node_values, cut and level in (n_iters - 3, n_iters - 2)
            T = tor.graph_transform(P, _doubled(T) if refine else T)
            gaps.append(np.max(np.abs(T.node_values[::1 + refine] - vals)))
        assert T.n_angles == n_angles and T.level == n_iters
        assert np.array_equal(res.torus.coeffs, T.coeffs)
        assert np.array_equal(res.torus.samples, T.samples)
        assert np.array_equal(res.gaps, gaps) and res.torus.separation() == T.separation()


def test_torus_samples_warm_start_the_next_level(monkeypatch):
    P = hn.make_params((1, 1), 0.1, 0.05)
    T0 = tor.torus_seed(p1.equipotential_loop(P.poly, 256), tor.DISK_DEGREE)
    T1 = tor.graph_transform(P, T0)
    assert T0.samples is None
    assert T1.samples.shape == (256, 16) and not T1.samples.flags.writeable
    # the coefficients are the truncated DFT of the samples
    d = T1.disk_degree
    fit = np.fft.fft(T1.samples, axis=1)[:, : d + 1] / (2 * d)
    assert np.array_equal(T1.coeffs, fit / tor.NODE_RADIUS ** np.arange(d + 1))
    with pytest.raises(PreconditionError, match="samples"):
        tor.SolidTorus(coeffs=T1.coeffs, level=1, samples=T1.samples[:, :8])
    # from the samples of a late level Newton needs fewer steps than from the seeds
    T = tor.torus_fixed_point(P, 60, 256, tor.DISK_DEGREE).torus
    monkeypatch.setattr(tor, "NEWTON_STEPS", 4)
    tor.graph_transform(P, T)
    with pytest.raises(NumericalError, match="stalled"):
        tor.graph_transform(P, tor.SolidTorus(coeffs=T.coeffs, level=T.level))


# each value type's array argument, as the array it stores, and a valid input for it
OWNED = {
    "SolidTorus coeffs": (lambda x: tor.SolidTorus(coeffs=x, level=0).coeffs, [[1, 2], [3, 4]]),
    "SolidTorus samples": (lambda x: tor.SolidTorus(coeffs=np.ones((2, 2)), level=1, samples=x).samples,
                           [[1, 2], [3, 4]]),
    "LoopSample values": (lambda x: p1.LoopSample(values=x, level=1.0).values, [1, 2]),
    "TruncSeries2 coeffs": (lambda x: TruncSeries2(x).coeffs, [[1, 2], [3, 0]]),
}


@pytest.mark.parametrize("owner, given", OWNED.values(), ids=OWNED)
def test_value_types_keep_a_complex_array_and_make_it_read_only(owner, given):
    mine = np.array(given, dtype=complex)
    assert owner(mine) is mine and not mine.flags.writeable
    real = np.array(given, dtype=float)
    for other in (given, real):  # a list and a real array become a new complex array
        got = owner(other)
        assert got is not other and got.dtype == complex and not got.flags.writeable
        assert np.array_equal(got, mine)
    assert real.flags.writeable
    # a refused array is left as it was
    bad = np.zeros((3, *np.shape(given)[1:]), dtype=complex)
    with pytest.raises(PreconditionError):
        owner(bad)
    assert bad.flags.writeable


def _stall_messages(monkeypatch, a, level, max_newton):
    """The stall messages of the reference and of graph_transform on the
    level-``level`` torus at q=2, t=0.1, with max_newton Newton steps."""
    P = hn.make_params((1, 2), 0.1, a)
    T = tor.torus_seed(p1.equipotential_loop(P.poly, 256), tor.DISK_DEGREE)
    for _ in range(level):
        T = tor.graph_transform(P, T)
    with pytest.raises(NumericalError) as expected:
        _full_array_graph_transform(P, T, max_newton=max_newton)
    monkeypatch.setattr(tor, "NEWTON_STEPS", max_newton)
    with pytest.raises(NumericalError) as exc:
        tor.graph_transform(P, T)
    return str(expected.value), str(exc.value)


# from the seeds every angle of levels 0 and 1 needs 4 steps, so with 3 the
# first entry stalls
@pytest.mark.parametrize("level,max_newton,entry", [
    (0, 0, "angle 0/256, node 0"), (0, 1, "angle 0/256, node 0"), (0, 3, "angle 0/256, node 0"),
    # from samples, the stalled angles start again from the pullback seeds
    (1, 1, "angle 0/256, node 0"), (1, 3, "angle 0/256, node 0"),
])
def test_graph_transform_names_the_stalled_entry(monkeypatch, level, max_newton, entry):
    expected = f"Newton stalled at {entry}"
    assert _stall_messages(monkeypatch, 0.05 + 0.05j, level, max_newton) == (expected, expected)


def test_graph_transform_names_the_first_stalled_node(monkeypatch):
    # the first stalled entry in angle-major order, here past node 0
    expected = "Newton stalled at angle 44/256, node 1"
    assert _stall_messages(monkeypatch, 0.05 + 0.05j, 2, 4) == (expected, expected)


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(q=st.sampled_from([1, 2]), levels=st.integers(1, 4),
       a=st.sampled_from([0.05, -0.1, 0.05j, -0.1j, 0.05 + 0.05j, -0.03 + 0.08j]))
def test_newton_retires_samples_that_solve_their_equation_to_rounding(q, levels, a):
    # the samples at level L solve x^2 + c + a z = phi_{2s}(a x) for the torus
    # of level L - 1 within 8 ulps of the largest term, mirrored fibers included
    P = hn.make_params((1, q), 0.1, a)
    T = tor.torus_seed(p1.equipotential_loop(P.poly, 64), tor.DISK_DEGREE)
    for _ in range(levels):
        prev, T = T, tor.graph_transform(P, T)
    x, z = T.samples, T.nodes()[None, :]
    phi = prev.eval((2 * np.arange(T.n_angles))[:, None] % T.n_angles, P.a * x)
    terms = np.broadcast_arrays(np.abs(x * x), abs(P.c), np.abs(P.a * z), np.abs(phi))
    resid = np.abs(x * x + P.c + P.a * z - phi)
    assert np.all(resid <= 8 * np.spacing(np.max(terms, axis=0)))


def test_newton_retires_every_angle_of_a_converged_torus_after_one_step(monkeypatch):
    # from the samples of level 30 (Cauchy gap 7e-13; from level 22 on, gap
    # 6e-9) the first step predicts a next step below one ulp, so with one step
    # allowed nothing stalls and no angle is solved again from the seeds.  A
    # rule that waits for a step of 1e-13 (1 + |x|) stalls here.
    P = hn.make_params((1, 2), 0.1, 0.05 + 0.05j)
    T = tor.torus_fixed_point(P, 30, 256, tor.DISK_DEGREE).torus
    monkeypatch.setattr(tor, "NEWTON_STEPS", 1)
    tor.graph_transform(P, T)


@pytest.mark.parametrize("pq,n_angles", [((1, 1), 2), ((1, 1), 4), ((1, 2), 4)])
def test_fibers_at_s_and_s_plus_half_must_take_different_preimages(pq, n_angles):
    # on these grids the branch continuation gives the fibers at s and s + 1/2
    # the same square root, so the torus would be one disk twice
    P = hn.make_params(pq, 0.1, 0.05)
    with pytest.raises(NumericalError, match=r"s and s\+1/2 took the same preimage"):
        tor.torus_fixed_point(P, 5, n_angles, tor.DISK_DEGREE)


def test_torus_of_minus_a_is_the_torus_of_a_with_z_negated():
    # S(x, y) = (x, -y) conjugates H_{c,a} to H_{c,-a}, and c is even in a, so
    # the fiber of -a at z is the fiber of a at -z, the node half a turn on
    a = 0.1 + 0.1j
    results = [tor.torus_fixed_point(hn.make_params((1, 2), -0.02, b), 20, 512, tor.DISK_DEGREE)
               for b in (a, -a)]
    for res in results:
        assert res.final_gap < 5e-2 and res.torus.separation() > 1e-2
    plus, minus = (res.torus for res in results)
    shifted = np.roll(plus.node_values, plus.disk_degree, axis=1)
    assert np.max(np.abs(minus.node_values - shifted)) < 1e-13


def _conjugate_torus_mismatch(pq, t, a):
    """Largest differences in node values, gaps and final separation between the
    torus of conj(a) and the mirror image of the torus of a: fiber k -> -k,
    node j -> -j, values conjugated."""
    plus, minus = (tor.torus_fixed_point(hn.make_params(pq, t, b), 20, 512, tor.DISK_DEGREE)
                   for b in (a, a.conjugate()))
    return (np.max(np.abs(minus.torus.node_values - _mirror(plus.torus.node_values))),
            np.max(np.abs(minus.gaps - plus.gaps)),
            abs(minus.torus.separation() - plus.torus.separation()))


@pytest.mark.parametrize("pq,t", [((1, 1), 0.1), ((1, 2), 0.02), ((1, 2), -0.02)])
def test_torus_of_conjugate_a_is_the_mirror_image_when_lam_is_real(pq, t):
    # lam real makes c(conj a) = conj c(a), so conjugation carries the torus
    # of a to that of conj(a), with the angle s -> -s and the node z -> conj z
    assert max(_conjugate_torus_mismatch(pq, t, 0.1 + 0.1j)) < 1e-13


def test_torus_of_conjugate_a_is_not_the_mirror_image_at_q3():
    # lam is not real at q = 3: conj(a) belongs to the family of 2/3, so the
    # connectivity scan must not reuse the cell a for it
    assert _conjugate_torus_mismatch((1, 3), 0.05, 0.05 + 0.05j)[0] > 1e-6


def test_solid_tori_compare_by_identity():
    P = hn.make_params((1, 1), 0.1, 0.05)
    T = tor.torus_seed(p1.equipotential_loop(P.poly, 64), tor.DISK_DEGREE)
    copy = tor.SolidTorus(coeffs=T.coeffs, level=T.level)
    assert T == T
    assert T != copy


def test_graph_transform_requires_a():
    P = hn.make_params((1, 1), 0.1, 0.0)
    T0 = tor.torus_seed(p1.equipotential_loop(P.poly, 128), tor.DISK_DEGREE)
    with pytest.raises(PreconditionError):
        tor.graph_transform(P, T0)


def test_fibers_follow_polynomial_pullback_as_a_shrinks():
    # the whole fiber tracks the 1-D pullback to O(a) (slope ~1); the
    # centers do better, O(a^2), because the a-linear term of the disk
    # expansion vanishes at z = 0
    sup_diffs, center_diffs = [], []
    avals = (1e-2, 1e-3, 1e-4)
    for a in avals:
        P = hn.make_params((1, 1), 0.1, a)
        loop = p1.equipotential_loop(P.poly, 256)
        T1 = tor.graph_transform(P, tor.torus_seed(loop, tor.DISK_DEGREE))
        pb = p1.pullback_loop(P.poly, loop)
        sup_diffs.append(np.max(np.abs(T1.node_values - pb.values[:, None])))
        center_diffs.append(np.max(np.abs(T1.centers - pb.values)))
    la = np.log(avals)
    assert 0.8 < np.polyfit(la, np.log(sup_diffs), 1)[0] < 1.2
    assert 1.8 < np.polyfit(la, np.log(center_diffs), 1)[0] < 2.2


def test_gaps_non_increasing_and_separation(fixed_q1):
    P, res = fixed_q1
    assert np.all(np.diff(res.gaps[5:]) <= 1e-14)
    _, _, seps = _iterate(tor.graph_transform, P, 100, 1024)
    assert np.all(seps > 1.0)
    assert res.torus.max_slope() < 0.2


def test_phi_oa2_residual_scales_quadratically():
    N = 1024
    gamma = p1.caratheodory(p1.poly_params((1, 1), 0.1), N, 60).loop
    res = []
    avals = (0.02, 0.04, 0.08)
    for a in avals:
        P = hn.make_params((1, 1), 0.1, a)
        T = tor.torus_fixed_point(P, 40, N, tor.DISK_DEGREE).torus
        res.append(tor.phi_oa2_residual(P, T, gamma))
    slope = np.polyfit(np.log(avals), np.log(res), 1)[0]
    assert 1.7 < slope < 2.3


def test_sigma_basic(fixed_q1):
    P, res = fixed_q1
    s, z = tor.sigma(P, res.torus, (0.25, 0.1 + 0.2j))
    assert s == 0.5  # angle doubling exact
    k = res.torus.n_angles // 4
    assert abs(z - P.a * res.torus.eval(k, 0.1 + 0.2j)) < 1e-15
    # disk coordinate contracts hard: |d(a phi)/dz| <= |a| max|phi'|
    assert abs(P.a) * res.torus.max_slope() < 0.01


def test_sigma_parabolic_center():
    P = hn.make_params((1, 1), 0.0, 0.05)
    T = tor.torus_fixed_point(P, 60, 1024, tor.DISK_DEGREE).torus
    s, z = tor.sigma(P, T, (0.0, 0.0))
    assert s == 0.0
    assert abs(z - 0.025) < 2e-3  # a * phi_0(0) ~ a/2


def test_sigma_leaving_disk_is_error(fixed_q1):
    P, res = fixed_q1
    big = tor.SolidTorus(coeffs=res.torus.coeffs * 1e3, level=0)
    with pytest.raises(NumericalError, match="left"):
        tor.sigma(P, big, (0.0, 0.0))


def test_sigma_on_arrays_is_the_scalar_map_and_drives_julia_from_sigma(fixed_q1):
    P, res = fixed_q1
    T, n = res.torus, res.torus.n_angles
    rng = np.random.default_rng(5)
    # random angles, grid angles and ties halfway between fibers (rounded half to even)
    s = np.concatenate([rng.uniform(0, 1, 40), np.arange(8) / n, (np.arange(8) + 0.5) / n])
    z = 0.5 * (rng.uniform(-1, 1, len(s)) + 1j * rng.uniform(-1, 1, len(s)))
    s1, z1 = tor.sigma(P, T, (s, z))
    # the same fiber and the same sums: numpy's scalar arithmetic and its fused
    # multiply-add array loops may round the last bit differently
    for i in range(len(s)):
        si, zi = tor.sigma(P, T, (float(s[i]), complex(z[i])))
        assert si == s1[i] and abs(zi - z1[i]) <= 2 * np.spacing(abs(z1[i]))
    big = tor.SolidTorus(coeffs=T.coeffs * 1e3, level=0)
    with pytest.raises(NumericalError, match="left"):
        tor.sigma(P, big, (s, z))
    # julia_from_sigma is depth sigma steps from (k / (N 2^depth), 0), then f*
    depth = 6
    s, z = np.arange(n) / (n * 2.0**depth), np.zeros(n, dtype=complex)
    for _ in range(depth):
        s, z = tor.sigma(P, T, (s, z))
    x = T.eval(np.rint(s * n).astype(int) % n, z)
    cloud = tor.julia_from_sigma(P, T, depth=depth)
    assert np.array_equal(cloud, np.unique(np.column_stack([x, z]), axis=0))


def test_julia_from_sigma_refuses_a_depth_past_the_float_range():
    # seeds k / (N 2^depth): at N = 256 the denominator is 2^1023 at depth
    # 1015 and overflows to inf at 1016, where every seed became angle 0 and
    # the cloud one point; from depth 1024 on 2.0**depth itself overflowed
    P = hn.make_params((1, 1), 0.1, 0.05)
    T = tor.torus_fixed_point(P, 12, 256, tor.DISK_DEGREE).torus
    assert len(tor.julia_from_sigma(P, T, depth=1015)) == 256
    for depth in (1016, 1100):
        with pytest.raises(PreconditionError, match=f"got {depth}"):
            tor.julia_from_sigma(P, T, depth=depth)


def test_julia_cloud_membership(fixed_q1):
    # accuracy horizon: the fixed point is known to ~gap, which forward
    # expansion eats in ~log(1/gap)/log|lam| steps and the inverse map's
    # 1/|a|^2 factor eats immediately; test at the supported horizons
    P, res = fixed_q1
    cloud = tor.julia_from_sigma(P, res.torus, depth=12)
    assert len(cloud) > res.torus.n_angles // 2
    esc = hn.escape_times(P, cloud[:, 0], cloud[:, 1], 50)
    assert np.all(esc < 0)
    # backward deviation grows like |2y/a|/|a| ~ 8e2 per step, so one inverse
    # step is what a 1e-6-accurate cloud supports inside the bidisk
    X, Y = hn.henon_inv(P, (cloud[:, 0], cloud[:, 1]))
    assert np.max(np.maximum(np.abs(X), np.abs(Y))) <= tor.FILTRATION_RADIUS


def test_semiconjugacy_residual_and_negative_control(fixed_q1):
    # the residual tracks the distance to the true fixed point, which is the
    # gap amplified by rho/(1-rho) at contraction factor rho ~ 0.9 here
    P, res = fixed_q1
    resid = tor.semiconjugacy_residual(P, res.torus, seed=0)
    rho = res.gaps[-1] / res.gaps[-2]
    assert resid < 2 * res.final_gap * rho / (1 - rho)
    seed = tor.torus_seed(p1.equipotential_loop(P.poly, res.torus.n_angles), tor.DISK_DEGREE)
    assert tor.semiconjugacy_residual(P, seed, seed=0) > 1e3 * resid


def test_semiconjugacy_degenerates_to_1d():
    # at tiny a the residual reduces to the loop's functional-equation error
    P = hn.make_params((1, 1), 0.1, 1e-4)
    res = tor.torus_fixed_point(P, 40, 1024, tor.DISK_DEGREE)
    resid = tor.semiconjugacy_residual(P, res.torus, seed=0)
    v = res.torus.centers
    n = len(v)
    loop_err = np.max(np.abs(v**2 + P.c - v[(2 * np.arange(n)) % n]))
    assert resid < 10 * loop_err + 1e-10


def test_model_psi_values():
    P = hn.make_params((1, 1), 0.0, 0.05)
    out = tor.model_psi(P, 0.05, (0.5, 0.0))
    assert abs(out[0] - 0.5) < 1e-15
    assert abs(out[1] - 0.025) < 1e-15
    with pytest.raises(PreconditionError):
        tor.model_psi(P, 0.05, (0.0, 0.1))
    # z-slope of the second coordinate is -eps^2/(2 zeta)
    z1 = tor.model_psi(P, 0.05, (0.5, 1.0))[1]
    z0 = tor.model_psi(P, 0.05, (0.5, 0.0))[1]
    assert abs((z1 - z0) + 0.05**2 / (2 * 0.5)) < 1e-15


def test_model_attractor_matches_true_julia(fixed_q1):
    P, res = fixed_q1
    n = res.torus.n_angles
    gamma = p1.caratheodory(P.poly, n, 60).loop
    eps = abs(P.a)
    cloud = tor.julia_from_sigma(P, res.torus, depth=12)
    # run the model with the same angle bookkeeping, then map through f*
    depth, z_seeds = 12, (0.0, 0.5, -0.5)
    s = np.tile(np.arange(n) / (n * 2.0**depth), len(z_seeds))
    z = np.repeat(np.asarray(z_seeds, dtype=complex) * tor.FILTRATION_RADIUS, n)
    for _ in range(depth):
        zeta = gamma.values[np.rint(s * n).astype(int) % n]
        z = eps * zeta - eps**2 * z / (2.0 * zeta)
        s = (2.0 * s) % 1.0
    k = np.rint(s * n).astype(int) % n
    mapped = np.column_stack([res.torus.eval(k, z), z])
    from henonlab.lab import hausdorff

    assert hausdorff(mapped, cloud) < 0.1


def test_equivalence_class_stability_fat_basilica():
    # angles 1/3 and 2/3 are identified on the basilica-family loop; the
    # corresponding fibers coincide to the same order
    P = hn.make_params((1, 2), 0.1, 0.05)
    res = tor.torus_fixed_point(P, 48, 1024, tor.DISK_DEGREE)
    T = res.torus
    n = T.n_angles
    k1, k2 = round(n / 3), round(2 * n / 3)
    gamma_gap = abs(T.centers[k1] - T.centers[k2])
    z = T.nodes()
    fiber_gap = np.max(np.abs(T.eval(np.full(z.shape, k1), z) - T.eval(np.full(z.shape, k2), z)))
    scale = max(gamma_gap, res.final_gap, 1.0 / n)
    assert fiber_gap < 30 * scale


# torus_fixed_point solves the middle levels on BASE_ANGLES angles, refines one
# torus back to the full grid and ends with two full-grid levels; the result is
# the full-grid iteration to a few ulps
@pytest.mark.parametrize("pq,t,a,n_iters,n_angles", [
    ((1, 1), 0.1, 0.05, 40, 2048), ((1, 1), 0.0, 0.05, 40, 1024),
    ((1, 2), 0.1, 0.05 + 0.02j, 30, 1024), ((1, 3), 0.01, 0.05, 30, 1024),
    ((1, 2), 0.1, 0.05, 40, 2048),
])
def test_fixed_point_matches_the_full_grid_iteration(pq, t, a, n_iters, n_angles):
    P = hn.make_params(pq, t, a)
    res = tor.torus_fixed_point(P, n_iters, n_angles, tor.DISK_DEGREE)
    torus, gaps, _ = _iterate(tor.graph_transform, P, n_iters, n_angles)
    assert res.torus.n_angles == n_angles and res.torus.level == n_iters
    coeff_ulp = np.spacing(np.max(np.abs(torus.coeffs)))
    assert np.max(np.abs(res.torus.coeffs - torus.coeffs)) <= 8 * coeff_ulp
    node_ulp = np.spacing(np.max(np.abs(torus.node_values)))
    for got, want in ((res.gaps[-1], gaps[-1]), (res.gaps[-2], gaps[-2]),
                      (res.torus.separation(), torus.separation())):
        assert abs(got - want) <= 8 * node_ulp
    # the first FULL_GRID_LEVELS levels run on the full grid as before
    first = slice(tor.FULL_GRID_LEVELS)
    assert np.array_equal(res.gaps[first], gaps[first])


def test_refining_step_is_the_step_on_the_doubled_grid(monkeypatch):
    # on the 512-angle torus whose even fibers are those of a 256-angle torus
    # and whose odd fibers are zero, the plain step reads only the even
    # fibers and solves the equations of the 512-angle step; on the mirror
    # axis it solves the fibers 0 .. 256 only
    P = hn.make_params((1, 2), 0.1, 0.05)
    T = tor.torus_fixed_point(P, 6, 512, tor.DISK_DEGREE).torus
    even = tor.SolidTorus(coeffs=T.coeffs[::2], level=T.level, samples=T.samples[::2])
    width, refined = _solved_angles(monkeypatch, P, _doubled(even))
    direct = tor.graph_transform(P, T)
    assert width == 257
    assert refined.n_angles == 512 and refined.level == T.level + 1
    assert np.max(np.abs(refined.coeffs - direct.coeffs)) <= 8 * np.spacing(np.max(np.abs(direct.coeffs)))


def test_a_stall_on_a_refining_level_names_the_angle_on_the_callers_grid(monkeypatch):
    # level 17 of a 1024x20 torus transforms the doubled 256-angle level 16;
    # with 3 Newton steps its fiber 39 of 512 stalls, angle 78 of 1024
    P = hn.make_params((1, 2), 0.1, 0.05)
    step, inputs = tor.graph_transform, []

    def spy(params, torus, *args, **kwargs):
        inputs.append(torus)
        with monkeypatch.context() as m:
            if torus.level == 16:
                m.setattr(tor, "NEWTON_STEPS", 3)
            return step(params, torus, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(tor, "graph_transform", spy)
        with pytest.raises(NumericalError, match=r"stalled at angle 78/1024, node 0$"):
            tor.torus_fixed_point(P, 20, 1024, tor.DISK_DEGREE)
    doubled = inputs[-1]
    assert doubled.n_angles == 512 and not doubled.coeffs[1::2].any()
    monkeypatch.setattr(tor, "NEWTON_STEPS", 3)
    with pytest.raises(NumericalError, match=r"stalled at angle 39/512, node 0$"):
        tor.graph_transform(P, doubled)


def _raising_level(monkeypatch, params, n_iters, n_angles):
    """The level whose step raised in torus_fixed_point, and the message."""
    levels = []
    step = tor.graph_transform

    def spy(params, torus, *args, **kwargs):
        levels.append(torus.level + 1)
        return step(params, torus, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(tor, "graph_transform", spy)
        with pytest.raises(NumericalError) as exc:
            tor.torus_fixed_point(params, n_iters, n_angles, tor.DISK_DEGREE)
    return levels[-1], str(exc.value)


def test_early_levels_run_on_the_full_grid(monkeypatch):
    # this cell leaves its branch at level 5 on 512 angles and passes on 256;
    # refining from level 0 certifies it in the 1024x30 scan
    P = hn.make_params((1, 3), 0.05, 0.1)
    assert _raising_level(monkeypatch, P, 30, 512) == (
        5, "resolution too coarse: node left its branch")
    tor.torus_fixed_point(P, 30, 256, tor.DISK_DEGREE)


@pytest.mark.parametrize("n_angles", [256, 512, 1024, 2048])
def test_a_stall_on_the_base_grid_names_the_angle_on_the_callers_grid(monkeypatch, n_angles):
    # level 23 runs on the base grid of 256 angles whenever n_angles > 256
    P = hn.make_params((1, 1), 0.1, 0.1)
    assert _raising_level(monkeypatch, P, 30, n_angles) == (
        23, f"Newton stalled at angle 0/{n_angles}, node 0")


def test_fixed_point_holds_two_full_grid_tori_at_most(monkeypatch):
    P = hn.make_params((1, 1), 0.1, 0.05)
    made, alive = weakref.WeakSet(), []
    step = tor.graph_transform

    def spy(params, torus, *args, **kwargs):
        out = step(params, torus, *args, **kwargs)
        made.update((torus, out))  # the inputs include the doubled tori of the refining levels
        alive.append(sum(t.n_angles == 1024 for t in made))
        return out

    monkeypatch.setattr(tor, "graph_transform", spy)
    res = tor.torus_fixed_point(P, 20, 1024, tor.DISK_DEGREE)
    assert res.torus.n_angles == 1024 and max(alive) == 2
    # one step per level: 12 on 1024 angles, 4 on 256, 2 refining, 2 on 1024
    assert len(alive) == 20


def test_connectivity_scan_keeps_the_verdicts_of_the_full_grid():
    # refining from level 0 certifies 14 cells of this grid; the full-grid
    # levels keep the 8 of the direct solve
    from henonlab import lab

    cells = lab.connectivity_scan((1, 3), 0.05, (-0.2, 0.2, -0.2, 0.2), resolution=9,
                                  n_angles=1024, n_iters=30)
    assert sum(c.verdict.startswith("CONNECTED") for row in cells for c in row) == 8
