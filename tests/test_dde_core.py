import numpy as np
import pytest

from mu_lab.admissibility import ParamSet
from mu_lab.dde_core import (
    Perturbation,
    fundamental_jump,
    linear_cross_perturbation,
    saturating_cross_perturbation,
    solution_op_T,
    solve_linear,
    solve_perturbed,
    solve_perturbed_R,
)
from mu_lab.dichotomy import diagonal_model
from mu_lab.errors import NonFiniteState, StepMisaligned, TimeOrder
from mu_lab.growth_rate import rate_by_id
from mu_lab.phase_space import JumpSegment, Segment, sup_norm


def scalar_ode(rate: float, r: float = 1.0):
    """The diagonal model x'(t) = rate x(t), with flow exp(rate (t - s))."""
    return diagonal_model(
        rate_by_id("exp"),
        r,
        log_flow=lambda ts: rate * np.asarray(ts, dtype=float)[None],
        coeff=lambda ts: np.full((1,) + np.shape(ts), float(rate)),
        unstable=[rate > 0],
        label="ode",
    )


def delayed(weight: float, lag: float = 1.0) -> Perturbation:
    """The linear delayed term weight * x(t - lag) as a point-read perturbation."""
    return Perturbation(
        reads=((0, lag),),
        weight=lambda ts: np.full(np.shape(ts), float(weight)),
        value_map=lambda W: W,
        jvp_map=lambda W, V: V,
        n=1,
        gamma=1.0,
        envelope_scale=abs(weight),
        label="delay",
    )


# x'(t) = -0.4 x(t) + 0.2 x(t - 1): the model's lag-0 part plus its delayed read
MIXED, MIXED_DELAY = scalar_ode(-0.4), delayed(0.2)


def test_exponential_decay():
    model = scalar_ode(-1.0)
    phi = Segment.constant(1.0, [1.0], 64)
    traj = solve_linear(model, 0.0, phi, 1.0, 1.0 / 64)
    assert traj.state_at(1.0)[0] == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_zero_segment_stays_zero():
    phi = Segment.zeros(1.0, 1, 32)
    traj = solve_perturbed(MIXED, MIXED_DELAY, 0.0, phi, 3.0, 1.0 / 32)
    assert np.max(np.abs(traj.states)) == 0.0


def test_method_of_steps_first_interval():
    # x'(t) = -x(t-1) with unit history integrates the constant -1 on [0,1]
    phi = Segment.constant(1.0, [1.0], 64)
    traj = solve_perturbed(scalar_ode(0.0), delayed(-1.0), 0.0, phi, 1.0, 1.0 / 64)
    for t in (0.25, 0.5, 1.0):
        assert traj.state_at(t)[0] == pytest.approx(1.0 - t, abs=1e-12)


def test_solution_op_identity_at_equal_times():
    phi = Segment.from_function(lambda w: [np.cos(w)], 1.0, 1, 32)
    assert solution_op_T(MIXED, 0.0, 0.0, phi) is phi


def test_solution_op_closed_form_segment():
    model = scalar_ode(-1.0)
    phi = Segment.constant(1.0, [1.0], 64)
    seg = solution_op_T(model, 2.0, 0.0, phi, step=1.0 / 64)
    expected = np.exp(-(2.0 + seg.omega_grid))
    assert np.max(np.abs(seg.values[:, 0] - expected)) < 1e-6


def test_cocycle_property():
    phi = Segment.from_function(lambda w: [1.0 + 0.3 * np.sin(2 * w)], 1.0, 1, 64)
    rng = np.random.default_rng(7)
    for _ in range(3):
        s = 0.0
        tau = s + float(rng.uniform(0.2, 1.0))
        t = tau + float(rng.uniform(0.2, 1.0))
        step = 1.0 / 64
        direct = solve_perturbed_R(MIXED, MIXED_DELAY, t, s, phi, step=step)
        mid = solve_perturbed_R(MIXED, MIXED_DELAY, tau, s, phi, step=step)
        composed = solve_perturbed_R(MIXED, MIXED_DELAY, t, tau, mid, step=step)
        assert sup_norm(composed - direct) < 5e-5  # step^4 RK error plus interpolation


def test_cocycle_property_perturbed():
    model = MIXED
    pert = small_perturbation()
    phi = Segment.from_function(lambda w: [0.8 - 0.2 * w], 1.0, 1, 64)
    rng = np.random.default_rng(11)
    step = 1.0 / 64
    for _ in range(2):
        s = 0.0
        tau = s + float(rng.uniform(0.2, 0.8))
        t = tau + float(rng.uniform(0.2, 0.8))
        direct = solve_perturbed_R(model, pert, t, s, phi, step=step)
        mid = solve_perturbed_R(model, pert, tau, s, phi, step=step)
        composed = solve_perturbed_R(model, pert, t, tau, mid, step=step)
        assert sup_norm(composed - direct) < 5e-5


def test_linearity_of_T():
    # the delayed linear evolution, the model's part plus its linear read, is linear in phi
    a, b = 1.7, -0.6
    phi = Segment.from_function(lambda w: [np.sin(w)], 1.0, 1, 32)
    psi = Segment.from_function(lambda w: [w * w], 1.0, 1, 32)
    combo = Segment(1.0, a * phi.values + b * psi.values)
    step = 1.0 / 32

    def T(seg):
        return solve_perturbed_R(MIXED, MIXED_DELAY, 1.5, 0.0, seg, step=step)

    left = T(combo)
    right_vals = a * T(phi).values + b * T(psi).values
    assert np.max(np.abs(left.values - right_vals)) < 1e-12


def test_fundamental_jump_zero_vector():
    seg = fundamental_jump(MIXED, 1.0, 0.0, [0.0], m=32)
    assert sup_norm(seg) == 0.0


def test_fundamental_jump_at_start_is_jump_data():
    out = fundamental_jump(MIXED, 0.0, 0.0, [2.0], m=32)
    assert isinstance(out, JumpSegment)
    assert np.allclose(out.jump, [2.0])


def test_fundamental_jump_ode_closed_form():
    model = scalar_ode(-1.0)
    seg = fundamental_jump(model, 2.0, 0.0, [1.0], m=64)
    expected = np.exp(-(2.0 + seg.omega_grid))
    assert np.max(np.abs(seg.values[:, 0] - expected)) < 1e-6


def test_fundamental_jump_history_reads_zero_before_start():
    # half a delay after the jump, the segment is zero before the start and
    # the decaying flow of the jump from it
    seg_half = fundamental_jump(scalar_ode(-1.0), 0.5, 0.0, [1.0], m=64)
    before = seg_half.omega_grid < -0.5
    assert np.all(seg_half.values[before, 0] == 0.0)
    np.testing.assert_allclose(seg_half.values[~before, 0], np.exp(-(0.5 + seg_half.omega_grid[~before])), atol=1e-9)
    # x'(t) = -x(t-1): a delayed read sees the zero history, so x stays at p on [0, 1)
    traj = solve_perturbed(scalar_ode(0.0), delayed(-1.0), 0.0, JumpSegment(1.0, [1.0], 64), 0.5, 1.0 / 64)
    assert traj.state_at(0.5)[0] == pytest.approx(1.0, abs=1e-12)


# envelope constants for the couplings below: delta 0.1, gamma 1.5, lam 0.01, xi 0.6, eps 0.1
ENVELOPE = ParamSet(
    alpha=0.8, beta=0.6, theta=0.4, nu=0.2, eps=0.1, a=1.0, gamma=1.5, xi=0.6,
    delta=0.1, lam=0.01, q=1.0, K=1.0, K_tilde=1.0, N=1.0, D=1.0,
)


def small_perturbation(r: float = 1.0) -> Perturbation:
    # g(t, x_t) = 0.1 sin(t) tanh(x(t - r))
    return Perturbation(
        reads=((0, r),),
        weight=lambda ts: 0.1 * np.sin(ts),
        value_map=np.tanh,
        jvp_map=lambda W, V: V / np.cosh(W) ** 2,
        n=1,
        gamma=1.0,
        envelope_scale=0.1,
        label="tanh",
    )


def test_perturbed_reduces_to_linear_for_zero_g():
    model = MIXED
    phi = Segment.from_function(lambda w: [1.0 + 0.2 * w], 1.0, 1, 64)
    lin = solution_op_T(model, 1.5, 0.0, phi, step=1.0 / 64)
    pert = solve_perturbed_R(model, Perturbation.zero(1), 1.5, 0.0, phi, step=1.0 / 64)
    assert sup_norm(lin - pert) < 1e-8


def test_perturbed_zero_orbit():
    model = MIXED
    phi = Segment.zeros(1.0, 1, 32)
    out = solve_perturbed_R(model, small_perturbation(), 2.0, 0.0, phi, step=1.0 / 32)
    assert sup_norm(out) == 0.0


@pytest.mark.parametrize("shape", ["saturating_cross", "linear_cross", "zero"])
def test_jvp_map_is_the_directional_derivative_of_value_map(shape):
    n, h = 3, 1e-6
    mu, pp = rate_by_id("exp"), ENVELOPE
    reads = [(i, 0.5) for i in range(n)]
    if shape == "saturating_cross":
        pert = saturating_cross_perturbation(mu, pp, reads=reads, n=n)
    elif shape == "linear_cross":
        pert = linear_cross_perturbation(mu, pp, reads=reads, n=n, gain=0.3)
    else:
        pert = Perturbation.zero(n)
    W, V = np.random.default_rng(4).normal(size=(2, n, 5, 7))  # read axis first
    got = pert.jvp_map(W, V)
    fd = (pert.value_map(W + h * V) - pert.value_map(W - h * V)) / (2 * h)
    assert got.shape == (n, 5, 7)
    np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("shape", ["saturating_cross", "linear_cross"])
def test_cross_coupling_component_i_is_driven_by_scenario_read_i_plus_1(shape):
    # three coordinates, because with two a shift folded the wrong way reads
    # the same slot as the right one; every sample of the segment and of the
    # direction differs by coordinate and by lag, so a wrong read shows
    n, m, r, t = 3, 8, 1.0, 0.3
    mu, pp = rate_by_id("exp"), ENVELOPE
    scenario = [(0, 0.25), (2, 0.5), (1, 1.0)]
    j, c = np.meshgrid(np.arange(m + 1), np.arange(n), indexing="ij")
    seg = Segment(r, 1.0 + c + 0.1 * j)
    chi = Segment(r, 0.5 - 0.3 * c + 0.07 * j)
    if shape == "saturating_cross":
        pert = saturating_cross_perturbation(mu, pp, reads=scenario, n=n)
        # mu = exp: mu'(t) mu(t)^(-sgn(t)(gamma + 2 eps + 3 xi) - 1)
        w = min(pp.delta, pp.lam) * np.exp(-t * (pp.gamma + 2 * pp.eps + 3 * pp.xi))
        f = lambda u: u * u / (2.0 * (1.0 + u * u))
        df = lambda u: u / (1.0 + u * u) ** 2
    else:
        pert = linear_cross_perturbation(mu, pp, reads=scenario, n=n, gain=0.3)
        w = 0.3 * np.exp(-t * (pp.gamma + pp.eps))
        f = lambda u: u
        df = lambda u: 1.0
    # lags 0.25, 0.5 and 1.0 sit on samples 6, 4 and 0
    at = {0.25: 6, 0.5: 4, 1.0: 0}
    drive = [scenario[(i + 1) % n] for i in range(n)]
    want = [w * f(seg.values[at[lag], coord]) for coord, lag in drive]
    dwant = [w * df(seg.values[at[lag], coord]) * chi.values[at[lag], coord] for coord, lag in drive]
    assert pert.reads == tuple(drive)
    np.testing.assert_allclose(pert.g(t, seg), want, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(pert.d2g(t, seg)(chi), dwant, rtol=1e-13, atol=0.0)


def test_variation_of_constants_consistency():
    # self-consistency of the perturbed segment against the linear segment
    # plus the quadrature of jump responses driven by g along the orbit
    r = 0.5
    model = scalar_ode(-0.5, r)

    # g(t, x_t) = 0.2 cos(t) tanh(x(t - r))
    pert = Perturbation(
        reads=((0, r),),
        weight=lambda ts: 0.2 * np.cos(ts),
        value_map=np.tanh,
        jvp_map=lambda W, V: V / np.cosh(W) ** 2,
        n=1,
        gamma=1.0,
        envelope_scale=0.2,
    )
    m = 32
    step = r / m
    s, t = 0.0, 0.75
    phi = Segment.from_function(lambda w: [1.0 + 0.4 * np.sin(3 * w)], r, 1, m)
    full = solve_perturbed(model, pert, s, phi, t, step)
    left = full.segment_at(t)
    lin = solution_op_T(model, t, s, phi, step=step)

    omega = left.omega_grid
    correction = np.zeros(m + 1)
    for j, w in enumerate(omega):
        upper = t + w
        if upper <= s + 1e-12:
            continue
        # Simpson nodes on [s, upper]; integrand is continuous there
        k = 24
        taus = np.linspace(s, upper, k + 1)
        weights = np.ones(k + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        weights *= (upper - s) / k / 3.0
        vals = []
        for tau in taus:
            v = pert.g(tau, full.segment_at(tau))
            if tau >= t - 1e-12:
                vals.append(v[0])  # jump response at its own start time
                continue
            resp = fundamental_jump(model, t, tau, v, step=step, m=m)
            vals.append(resp.values[j, 0] if isinstance(resp, Segment) else 0.0)
        correction[j] = float(np.dot(weights, vals))
    recomposed = lin.values[:, 0] + correction
    rel = np.max(np.abs(recomposed - left.values[:, 0])) / max(sup_norm(left), 1e-300)
    assert rel <= 1e-4


def test_rk4_order_on_no_lag_system():
    model = scalar_ode(-1.0)
    phi = Segment.constant(1.0, [1.0], 8)
    errs = []
    for step in (1.0 / 8, 1.0 / 16):
        traj = solve_linear(model, 0.0, phi, 2.0, step)
        errs.append(abs(traj.state_at(2.0)[0] - np.exp(-2.0)))
    ratio = errs[0] / errs[1]
    assert 15.0 <= ratio <= 17.0


def test_step_misaligned():
    model = MIXED
    phi = Segment.constant(1.0, [1.0], 32)
    with pytest.raises(StepMisaligned):
        solve_linear(model, 0.0, phi, 1.0, 0.3)
    with pytest.raises(StepMisaligned):
        solve_linear(model, 0.0, phi, 1.0, -0.1)


def test_time_order_errors():
    model = MIXED
    phi = Segment.constant(1.0, [1.0], 32)
    with pytest.raises(TimeOrder):
        solution_op_T(model, -1.0, 0.0, phi)
    with pytest.raises(TimeOrder):
        fundamental_jump(model, -1.0, 0.0, [1.0])
    with pytest.raises(TimeOrder):
        solve_perturbed_R(model, Perturbation.zero(1), -1.0, 0.0, phi)


def test_non_finite_state():
    model = scalar_ode(1000.0)
    phi = Segment.constant(1.0, [1.0], 4)
    with pytest.raises(NonFiniteState):
        solve_linear(model, 0.0, phi, 12.0, 0.25)
