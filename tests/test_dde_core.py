import numpy as np
import pytest

from mu_lab.dde_core import (
    DelayTerm,
    LinearDelaySystem,
    Perturbation,
    PerturbationParams,
    fundamental_jump,
    linear_cross_perturbation,
    saturating_cross_perturbation,
    solution_op_T,
    solve_linear,
    solve_perturbed_R,
)
from mu_lab.errors import NonFiniteState, StepMisaligned, TimeOrder
from mu_lab.growth_rate import rate_by_id
from mu_lab.phase_space import JumpSegment, Segment, sup_norm


def scalar_ode(rate: float, r: float = 1.0) -> LinearDelaySystem:
    return LinearDelaySystem(r=r, n=1, terms=(DelayTerm(0.0, lambda t: np.array([[rate]])),), label="ode")


def pure_delay(rate: float, r: float = 1.0) -> LinearDelaySystem:
    return LinearDelaySystem(r=r, n=1, terms=(DelayTerm(r, lambda t: np.array([[rate]])),), label="delay")


def mixed(r: float = 1.0) -> LinearDelaySystem:
    return LinearDelaySystem(
        r=r,
        n=1,
        terms=(
            DelayTerm(0.0, lambda t: np.array([[-0.4]])),
            DelayTerm(r, lambda t: np.array([[0.2]])),
        ),
        label="mixed",
    )


def test_exponential_decay():
    sys = scalar_ode(-1.0)
    phi = Segment.constant(1.0, [1.0], 64)
    traj = solve_linear(sys, 0.0, phi, 1.0, 1.0 / 64)
    assert traj.state_at(1.0)[0] == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_zero_segment_stays_zero():
    sys = mixed()
    phi = Segment.zeros(1.0, 1, 32)
    traj = solve_linear(sys, 0.0, phi, 3.0, 1.0 / 32)
    assert np.max(np.abs(traj.states)) == 0.0


def test_method_of_steps_first_interval():
    # x'(t) = -x(t-1) with unit history integrates the constant -1 on [0,1]
    sys = pure_delay(-1.0)
    phi = Segment.constant(1.0, [1.0], 64)
    traj = solve_linear(sys, 0.0, phi, 1.0, 1.0 / 64)
    for t in (0.25, 0.5, 1.0):
        assert traj.state_at(t)[0] == pytest.approx(1.0 - t, abs=1e-12)


def test_solution_op_identity_at_equal_times():
    sys = mixed()
    phi = Segment.from_function(lambda w: [np.cos(w)], 1.0, 1, 32)
    assert solution_op_T(sys, 0.0, 0.0, phi) is phi


def test_solution_op_closed_form_segment():
    sys = scalar_ode(-1.0)
    phi = Segment.constant(1.0, [1.0], 64)
    seg = solution_op_T(sys, 2.0, 0.0, phi, step=1.0 / 64)
    expected = np.exp(-(2.0 + seg.omega_grid))
    assert np.max(np.abs(seg.values[:, 0] - expected)) < 1e-6


def test_cocycle_property():
    sys = mixed()
    phi = Segment.from_function(lambda w: [1.0 + 0.3 * np.sin(2 * w)], 1.0, 1, 64)
    rng = np.random.default_rng(7)
    for _ in range(3):
        s = 0.0
        tau = s + float(rng.uniform(0.2, 1.0))
        t = tau + float(rng.uniform(0.2, 1.0))
        step = 1.0 / 64
        direct = solution_op_T(sys, t, s, phi, step=step)
        mid = solution_op_T(sys, tau, s, phi, step=step)
        composed = solution_op_T(sys, t, tau, mid, step=step)
        assert sup_norm(composed - direct) < 5e-5  # step^4 RK error plus interpolation


def test_cocycle_property_perturbed():
    sys = mixed()
    pert = small_perturbation()
    phi = Segment.from_function(lambda w: [0.8 - 0.2 * w], 1.0, 1, 64)
    rng = np.random.default_rng(11)
    step = 1.0 / 64
    for _ in range(2):
        s = 0.0
        tau = s + float(rng.uniform(0.2, 0.8))
        t = tau + float(rng.uniform(0.2, 0.8))
        direct = solve_perturbed_R(sys, pert, t, s, phi, step=step)
        mid = solve_perturbed_R(sys, pert, tau, s, phi, step=step)
        composed = solve_perturbed_R(sys, pert, t, tau, mid, step=step)
        assert sup_norm(composed - direct) < 5e-5


def test_linearity_of_T():
    sys = mixed()
    a, b = 1.7, -0.6
    phi = Segment.from_function(lambda w: [np.sin(w)], 1.0, 1, 32)
    psi = Segment.from_function(lambda w: [w * w], 1.0, 1, 32)
    combo = Segment(1.0, a * phi.values + b * psi.values)
    step = 1.0 / 32
    left = solution_op_T(sys, 1.5, 0.0, combo, step=step)
    right_vals = a * solution_op_T(sys, 1.5, 0.0, phi, step=step).values + b * solution_op_T(
        sys, 1.5, 0.0, psi, step=step
    ).values
    assert np.max(np.abs(left.values - right_vals)) < 1e-12


def test_fundamental_jump_zero_vector():
    sys = mixed()
    seg = fundamental_jump(sys, 1.0, 0.0, [0.0], m=32)
    assert sup_norm(seg) == 0.0


def test_fundamental_jump_at_start_is_jump_data():
    sys = mixed()
    out = fundamental_jump(sys, 0.0, 0.0, [2.0], m=32)
    assert isinstance(out, JumpSegment)
    assert np.allclose(out.jump, [2.0])


def test_fundamental_jump_ode_closed_form():
    sys = scalar_ode(-1.0)
    seg = fundamental_jump(sys, 2.0, 0.0, [1.0], m=64)
    expected = np.exp(-(2.0 + seg.omega_grid))
    assert np.max(np.abs(seg.values[:, 0] - expected)) < 1e-6


def test_fundamental_jump_history_reads_zero_before_start():
    # x'(t) = -x(t-1): the jump at 0 is invisible to the rhs until t = 1,
    # so x stays at p on [0,1); then decays linearly via the delayed term
    sys = pure_delay(-1.0)
    seg_half = fundamental_jump(sys, 0.5, 0.0, [1.0], m=64)
    assert seg_half.values[-1, 0] == pytest.approx(1.0, abs=1e-12)
    traj = solve_linear(sys, 0.0, JumpSegment(1.0, [1.0], 64), 2.0, 1.0 / 64)
    assert traj.state_at(2.0)[0] == pytest.approx(0.0, abs=1e-9)  # x(t)=2-t on [1,2]


def small_perturbation(r: float = 1.0) -> Perturbation:
    def g(t, seg):
        return np.array([0.1 * np.sin(t) * np.tanh(seg.value_at(-r)[0])])

    def d2g(t, seg):
        base = seg.value_at(-r)[0]
        return lambda chi: np.array([0.1 * np.sin(t) * chi.value_at(-r)[0] / np.cosh(base) ** 2])

    return Perturbation(g=g, d2g=d2g, params=PerturbationParams(0.1, 1.0, 0.1, 0.0, 0.0), label="tanh")


def test_perturbed_reduces_to_linear_for_zero_g():
    sys = mixed()
    phi = Segment.from_function(lambda w: [1.0 + 0.2 * w], 1.0, 1, 64)
    lin = solution_op_T(sys, 1.5, 0.0, phi, step=1.0 / 64)
    pert = solve_perturbed_R(sys, Perturbation.zero(1), 1.5, 0.0, phi, step=1.0 / 64)
    assert sup_norm(lin - pert) < 1e-8


def test_perturbed_zero_orbit():
    sys = mixed()
    phi = Segment.zeros(1.0, 1, 32)
    out = solve_perturbed_R(sys, small_perturbation(), 2.0, 0.0, phi, step=1.0 / 32)
    assert sup_norm(out) == 0.0


@pytest.mark.parametrize("shape", ["saturating_cross", "linear_cross", "zero"])
def test_jvp_map_is_the_directional_derivative_of_value_map(shape):
    # three coordinates, because with two a roll in the wrong direction
    # reads the same slot as the right one
    n, h = 3, 1e-6
    mu, pp = rate_by_id("exp"), PerturbationParams(0.1, 1.5, 0.01, 0.6, 0.1)
    reads = [(i, 0.5) for i in range(n)]
    if shape == "saturating_cross":
        pert = saturating_cross_perturbation(mu, pp, reads=reads, n=n)
    elif shape == "linear_cross":
        pert = linear_cross_perturbation(mu, pp, reads=reads, n=n, gain=0.3)
    else:
        pert = Perturbation.zero(n)
    W, V = np.random.default_rng(4).normal(size=(2, 5, 7, n))
    got = pert.jvp_map(W, V)
    fd = (pert.value_map(W + h * V) - pert.value_map(W - h * V)) / (2 * h)
    assert got.shape == (5, 7, n)
    np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-9)


def test_variation_of_constants_consistency():
    # self-consistency of the perturbed segment against the linear segment
    # plus the quadrature of jump responses driven by g along the orbit
    r = 0.5
    sys = LinearDelaySystem(
        r=r,
        n=1,
        terms=(
            DelayTerm(0.0, lambda t: np.array([[-0.5]])),
            DelayTerm(r, lambda t: np.array([[0.25]])),
        ),
    )

    def g(t, seg):
        return np.array([0.2 * np.cos(t) * np.tanh(seg.value_at(0.0)[0])])

    pert = Perturbation(
        g=g,
        d2g=lambda t, seg: (lambda chi: np.array([0.0])),
        params=PerturbationParams(0.2, 1.0, 0.0, 0.0, 0.0),
    )
    m = 32
    step = r / m
    s, t = 0.0, 0.75
    phi = Segment.from_function(lambda w: [1.0 + 0.4 * np.sin(3 * w)], r, 1, m)
    from mu_lab.dde_core import solve_perturbed

    full = solve_perturbed(sys, pert, s, phi, t, step)
    left = full.segment_at(t)
    lin = solution_op_T(sys, t, s, phi, step=step)

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
            resp = fundamental_jump(sys, t, tau, v, step=step, m=m)
            vals.append(resp.values[j, 0] if isinstance(resp, Segment) else 0.0)
        correction[j] = float(np.dot(weights, vals))
    recomposed = lin.values[:, 0] + correction
    rel = np.max(np.abs(recomposed - left.values[:, 0])) / max(sup_norm(left), 1e-300)
    assert rel <= 1e-4


def test_rk4_order_on_no_lag_system():
    sys = scalar_ode(-1.0)
    phi = Segment.constant(1.0, [1.0], 8)
    errs = []
    for step in (1.0 / 8, 1.0 / 16):
        traj = solve_linear(sys, 0.0, phi, 2.0, step)
        errs.append(abs(traj.state_at(2.0)[0] - np.exp(-2.0)))
    ratio = errs[0] / errs[1]
    assert 15.0 <= ratio <= 17.0


def test_step_misaligned():
    sys = mixed()
    phi = Segment.constant(1.0, [1.0], 32)
    with pytest.raises(StepMisaligned):
        solve_linear(sys, 0.0, phi, 1.0, 0.3)
    with pytest.raises(StepMisaligned):
        solve_linear(sys, 0.0, phi, 1.0, -0.1)


def test_lag_below_step_rejected():
    sys = LinearDelaySystem(r=1.0, n=1, terms=(DelayTerm(1.0 / 64, lambda t: np.array([[1.0]])),))
    phi = Segment.constant(1.0, [1.0], 4)
    with pytest.raises(StepMisaligned):
        solve_linear(sys, 0.0, phi, 1.0, 1.0 / 4)


def test_time_order_errors():
    sys = mixed()
    phi = Segment.constant(1.0, [1.0], 32)
    with pytest.raises(TimeOrder):
        solution_op_T(sys, -1.0, 0.0, phi)
    with pytest.raises(TimeOrder):
        fundamental_jump(sys, -1.0, 0.0, [1.0])
    with pytest.raises(TimeOrder):
        solve_perturbed_R(sys, Perturbation.zero(1), -1.0, 0.0, phi)


def test_non_finite_state():
    sys = scalar_ode(1000.0)
    phi = Segment.constant(1.0, [1.0], 4)
    with pytest.raises(NonFiniteState):
        solve_linear(sys, 0.0, phi, 12.0, 0.25)
