import dataclasses
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from mu_lab import dichotomy
from mu_lab.dde_core import fundamental_jump, solution_op_T, solve_linear
from mu_lab.dichotomy import (
    _BLOCK_NUMBERS,
    _measure_blocks,
    _measure_pairs,
    _probe_segments,
    apply_P0,
    apply_Q0,
    derived_constant_D,
    evolve_P0,
    p0_kernel,
    power_model,
    project_P,
    project_Q,
    q0_kernel,
    seg_T_closed,
    sin_wobble_model,
    verify_bounds,
)
from mu_lab.errors import TimeOrder
from mu_lab.growth_rate import builtin_catalogue, mu_weight, rate_by_id, ratio_bound_N
from mu_lab.phase_space import Segment, sup_norm

EXP = rate_by_id("exp")
R = 0.5
# powers of the diagonal power models: one stable, one unstable, the pair, a two-dimensional unstable block, and
# two unstable coordinates with no stable one
STABLE, UNSTABLE, PAIR, TRIPLE, ALL_UNSTABLE = (-0.8,), (0.6,), (-0.8, 0.6), (-0.8, 0.6, 0.9), (0.3, 0.6)


@pytest.fixture(scope="module")
def diag2():
    return power_model(EXP, R, PAIR)


def evolve(model, t, s, seg):
    """seg_T_closed on one pair and one segment."""
    return Segment(model.r, seg_T_closed(model, [t], [s], seg.values[None, None])[0, 0])


def jump_response(kernel, model, t, s, p, m):
    """The kernel at (t, s) applied to the jump vector p, as a segment."""
    omega = np.linspace(-model.r, 0.0, m + 1)
    kern = kernel(model, t, np.array([s]), omega)[:, 0]  # (n, m+1)
    return Segment(model.r, (np.asarray(p, dtype=float)[:, None] * kern).T)


def random_segment(model, m, seed):
    rng = np.random.default_rng(seed)
    grid = np.linspace(-model.r, 0.0, m + 1)
    vals = np.cos(np.outer(grid, rng.uniform(0.5, 3.0, model.n)) + rng.uniform(0, 6, model.n))
    return Segment(model.r, vals)


def test_projection_idempotence_complementarity_commutation(diag2):
    m = 32
    for seed, s in [(0, -1.3), (1, 0.0), (2, 2.1)]:
        phi = random_segment(diag2, m, seed)
        q = project_Q(diag2, s, phi)
        p = project_P(diag2, s, phi)
        assert sup_norm(project_Q(diag2, s, q) - q) < 1e-8
        assert sup_norm(project_P(diag2, s, p) - p) < 1e-8
        assert sup_norm((p + q) - phi) < 1e-10
        t = s + 0.9
        left = evolve(diag2, t, s, project_P(diag2, s, phi))
        right = project_P(diag2, t, evolve(diag2, t, s, phi))
        assert sup_norm(left - right) < 1e-10


def test_apply_Q0_zero_vector(diag2):
    out = apply_Q0(diag2, 0.3, [0.0, 0.0], m=32)
    assert sup_norm(out) == 0.0


def test_apply_Q0_kills_stable_component(diag2):
    out = apply_Q0(diag2, -0.7, [1.0, 0.0], m=32)
    assert sup_norm(out) < 1e-9
    out2 = apply_Q0(diag2, -0.7, [0.4, 0.8], m=32)
    assert np.max(np.abs(out2.values[:, 0])) < 1e-9  # stable column empty


def test_apply_Q0_scalar_unstable_round_trip():
    model = power_model(EXP, R, UNSTABLE)
    out = apply_Q0(model, 0.0, [1.0], m=64)
    # forward by r then pulled back is the identity on the unstable line
    assert out.values[-1, 0] == pytest.approx(1.0, abs=1e-9)
    shape = np.exp(0.6 * out.omega_grid)
    assert np.max(np.abs(out.values[:, 0] - shape)) < 1e-9


def test_apply_Q0_closed_matches_integration(diag2):
    # the integrated factorization against the closed form q0_kernel at tau = t
    for model in (diag2, power_model(EXP, R, TRIPLE)):
        for t in (-1.0, 0.6):
            p = np.arange(1.0, model.n + 1.0)
            a = apply_Q0(model, t, p, m=48)
            b = jump_response(q0_kernel, model, t, t, p, 48)
            assert sup_norm(a - b) < 1e-8


def test_apply_P0_zero_and_purely_stable():
    model = power_model(EXP, R, STABLE)
    comp = apply_P0(model, 0.2, [0.0], m=32)
    assert sup_norm(comp.segment) == 0.0 and np.all(comp.jump == 0.0)
    comp = apply_P0(model, 0.2, [1.5], m=32)
    assert sup_norm(comp.segment) == 0.0  # no unstable direction: P0 p = X0 p
    assert comp.jump[0] == 1.5
    assert np.allclose(comp.value_at(0.0), [1.5])
    assert np.allclose(comp.value_at(-0.3), [0.0])


def test_apply_P0_proof_identity(diag2):
    # the composite evolved one delay equals P(t+r) applied to the evolved jump
    t, p = -0.4, np.array([0.7, -1.2])
    comp = apply_P0(diag2, t, p, m=48)
    lhs = evolve_P0(diag2, t + R, t, comp, m=48)
    rhs = project_P(diag2, t + R, fundamental_jump(diag2, t + R, t, p, m=48))
    assert sup_norm(lhs - rhs) < 1e-6


def test_round_trip_factorization(diag2):
    # forward evolution of the jump projection recovers Q(t+r) T0(t+r,t) X0 p
    t, p = 0.9, np.array([0.3, 0.8])
    q0 = apply_Q0(diag2, t, p, m=48)
    lhs = solution_op_T(diag2, t + R, t, q0, step=R / 48)
    rhs = project_Q(diag2, t + R, fundamental_jump(diag2, t + R, t, p, m=48))
    assert sup_norm(lhs - rhs) < 1e-6


def test_p0_evolved_closed_matches_integration(diag2):
    t, p = 0.1, np.array([1.0, 0.5])
    comp = apply_P0(diag2, t, p, m=48)
    for dt in (0.2, R, 1.1):
        via_rk = evolve_P0(diag2, t + dt, t, comp, m=48)
        via_closed = jump_response(p0_kernel, diag2, t + dt, t, p, 48)
        # linear interpolation of the history splice dominates: ~ (r/m)^2
        assert sup_norm(via_rk - via_closed) < 2e-5


def test_derived_constant_reference_values(diag2):
    base = dataclasses.replace(
        diag2, K=1.0, K_tilde=1.0, alpha=0.8, beta=0.6, theta=0.4, nu=0.2, a=1.0, N=float(np.e)
    )
    K1 = np.exp(0.6)  # N^(|a-beta|+nu) at N=e
    D = derived_constant_D(base)
    assert D == pytest.approx(np.exp(2.2), rel=1e-12)
    assert D >= np.e * (1.0 + K1) - 1e-12

    uniform = dataclasses.replace(diag2, K=1.0, K_tilde=1.0, theta=0.0, nu=0.0, a=0.0, N=1.0 + 1e-12)
    assert derived_constant_D(uniform) == pytest.approx(2.0, rel=1e-9)

    rng = np.random.default_rng(3)
    for _ in range(20):
        mdl = dataclasses.replace(
            diag2,
            K=float(rng.uniform(1, 5)),
            K_tilde=float(rng.uniform(1, 5)),
            a=float(rng.uniform(0, 2)),
            theta=float(rng.uniform(0, 1)),
            nu=float(rng.uniform(0, 1)),
            N=float(rng.uniform(1.01, 3.0)),
        )
        assert derived_constant_D(mdl) >= mdl.K_tilde


@pytest.mark.parametrize("mu", builtin_catalogue(), ids=lambda g: g.label)
def test_certificate_scalar_models(mu):
    for powers in (STABLE, UNSTABLE):
        model = power_model(mu, R, powers)
        cert = verify_bounds(model, (-10.0, 10.0), samples=120, seed=11, m=40)
        assert cert.passed, f"{model.label}: {[c.to_dict() for c in cert.checks if not c.passed]}"
        # with the honest declared constants the ratios stay at or below one,
        # not merely within the certificate tolerance
        for check in cert.checks:
            assert check.worst_ratio <= 1.0 + 1e-9


def test_stable_flow_value_is_exact_power_law():
    # at omega = 0 the stable flow matches (mu(t)/mu(s))^(-alpha) with no constant
    for mu in builtin_catalogue():
        model = power_model(mu, R, STABLE)
        phi = Segment.constant(R, [1.0], 32)
        for s, t in [(-2.0, 1.0), (0.5, 4.0)]:
            seg = evolve(model, t, s, phi)
            expected = (float(mu.eval(t)) / float(mu.eval(s))) ** (-model.alpha)
            assert seg.values[-1, 0] == pytest.approx(expected, rel=1e-12)


FLOW_MODELS = [pytest.param(partial(power_model, mu, R, PAIR), id=mu.label) for mu in builtin_catalogue()] + [
    pytest.param(partial(sin_wobble_model, R), id="wobble")
]


@pytest.mark.parametrize("build", FLOW_MODELS)
def test_coefficients_are_vectorized_flow_derivatives(build):
    # rho and rho' return every coordinate at once, (n,) + shape(t), for a
    # scalar and for array times (the batched residual check evaluates a
    # stage for every sample at once); rho' matches rho by central
    # difference, and the scalar integrator's linear part is coeff(t) x
    model = build()
    ts = np.array([-2.3, -0.4, 0.0, 0.7, 3.1])
    for t in (0.7, ts, np.stack([ts, ts + 0.25])):
        assert model.log_flow(t).shape == model.coeff(t).shape == (model.n,) + np.shape(t)
    got = model.coeff(ts)
    np.testing.assert_allclose(got, np.stack([model.coeff(t) for t in ts], axis=1), rtol=1e-15, atol=0.0)
    h = 1e-6
    fd = (model.log_flow(ts + h) - model.log_flow(ts - h)) / (2 * h)
    np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-8)
    t, h, y = 0.7, R / 16, np.array([0.9, -1.3])[: model.n]
    a0, a1, a2 = (model.coeff(tt) for tt in (t, t + h / 2.0, t + h))
    k1 = a0 * y
    k2 = a1 * (y + h / 2.0 * k1)
    k3 = a1 * (y + h / 2.0 * k2)
    k4 = a2 * (y + h * k3)
    traj = solve_linear(model, t, Segment.constant(R, y, 16), t + h, h)
    assert np.array_equal(traj.states[-1], y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))


def test_unstable_backward_bound_with_unit_constants():
    # the pure backward family holds with K = 1, nu = 0; the stable family
    # cannot (history transients force K >= 2 N^alpha), which is why the
    # builders declare the larger constant by default
    model = power_model(EXP, R, UNSTABLE, K=1.0, nu=0.0)
    cert = verify_bounds(model, (-10.0, 10.0), samples=150, seed=5, m=40)
    assert cert.check("unstable").worst_ratio <= 1.0 + 1e-9
    assert not cert.check("stable").passed


def test_wobble_certificate_theta_positive_vs_zero():
    good = sin_wobble_model(R)
    cert = verify_bounds(good, (-10.0, 10.0), samples=150, seed=2, m=40)
    assert cert.passed
    bad = sin_wobble_model(R, theta=0.0)
    cert_bad = verify_bounds(bad, (-10.0, 10.0), samples=150, seed=2, m=40)
    assert not cert_bad.check("stable").passed


def test_certificate_monotone_in_constants(diag2):
    cert = verify_bounds(diag2, (-6.0, 6.0), samples=80, seed=9, m=32)
    assert cert.passed
    inflated = dataclasses.replace(
        diag2,
        K=diag2.K * 3.0,
        K_tilde=diag2.K_tilde * 2.0,
        theta=diag2.theta + 0.2,
        nu=diag2.nu + 0.2,
        eps=diag2.eps + 0.1,
    )
    cert2 = verify_bounds(inflated, (-6.0, 6.0), samples=80, seed=9, m=32)
    assert cert2.passed
    for c in cert.checks:
        assert cert2.check(c.name).worst_ratio <= c.worst_ratio + 1e-12


def test_certificate_json_shape(diag2):
    import json

    from mu_lab.cli_report import report_json

    cert = verify_bounds(diag2, (-3.0, 3.0), samples=20, seed=1, m=24)
    doc = json.loads(report_json(cert.to_dict()))
    assert set(doc) == {"window", "tolerance", "pass", "bounds"}
    names = {b["bound_name"] for b in doc["bounds"]}
    assert names == {"stable", "unstable", "bounded_growth", "jump_stable", "jump_unstable"}
    for b in doc["bounds"]:
        assert set(b) == {"bound_name", "worst_ratio", "argmax_pair", "pass"}


def test_three_dim_model_d_u2():
    model = power_model(EXP, R, TRIPLE)
    assert model.d_u == 2
    cert = verify_bounds(model, (-6.0, 6.0), samples=80, seed=4, m=32)
    assert cert.passed
    q0 = apply_Q0(model, 0.2, [1.0, 2.0, 3.0], m=48)
    assert np.max(np.abs(q0.values[:, 0])) < 1e-9
    assert q0.values[-1, 1] == pytest.approx(2.0, abs=1e-8)
    assert q0.values[-1, 2] == pytest.approx(3.0, abs=1e-8)


def test_q0_backward_closed_decays():
    model = power_model(EXP, R, UNSTABLE)
    seg = jump_response(q0_kernel, model, -2.0, 1.0, [1.0], 32)
    assert sup_norm(seg) == pytest.approx(np.exp(0.6 * -3.0), rel=1e-9)


# ---------------------------------------------------------------------------
# per-pair oracle: the certificate one time pair and one probe at a time
# ---------------------------------------------------------------------------


def oracle_rho(model, times):
    return model.log_flow(np.asarray(times, dtype=float))


def oracle_Q(model, s, seg):
    """Q(s): unstable endpoints spread along exp(rho_i(s + omega) - rho_i(s))."""
    rho = oracle_rho(model, s + seg.omega_grid)
    vals = np.zeros_like(seg.values)
    for i in model.unstable_indices:
        vals[:, i] = seg.values[-1, i] * np.exp(rho[i] - rho[i, -1])
    return Segment(seg.r, vals)


def oracle_pull_back(model, t, s, seg):
    """T_bar(t, s) Q(s) seg for t <= s: the unstable endpoints pulled back to t, spread there."""
    rho_t = oracle_rho(model, np.array([t]))[:, 0]
    rho_s = oracle_rho(model, np.array([s]))[:, 0]
    vals = np.zeros_like(seg.values)
    vals[-1] = oracle_Q(model, s, seg).values[-1] * np.exp(rho_t - rho_s)
    return oracle_Q(model, t, Segment(seg.r, vals))


def oracle_seg_T(model, t, s, seg):
    """T(t, s) for diagonal flows: evolve the endpoint, splice the history."""
    if t < s:
        raise TimeOrder(f"t={t} earlier than s={s}")
    grid = t + seg.omega_grid
    rho = oracle_rho(model, grid)
    rho_s = oracle_rho(model, np.array([s]))[:, 0]
    forward = grid >= s - 1e-12
    vals = np.empty((seg.m + 1, model.n))
    end = seg.values[-1]
    for i in range(model.n):
        vals[:, i] = end[i] * np.exp(rho[i] - rho_s[i])
    if not forward.all():
        for j in np.where(~forward)[0]:
            vals[j] = seg.value_at(max(-seg.r, grid[j] - s))
    return Segment(seg.r, vals)


def jump_T0_closed(model, t, s, p, m):
    """T0(t, s) X0 p for diagonal flows (sampled; zero left of s)."""
    if t < s:
        raise TimeOrder(f"t={t} earlier than s={s}")
    p = np.atleast_1d(np.asarray(p, dtype=float))
    grid = t + np.linspace(-model.r, 0.0, m + 1)
    rho = oracle_rho(model, grid)
    rho_s = oracle_rho(model, np.array([s]))[:, 0]
    forward = grid >= s - 1e-12
    vals = np.zeros((m + 1, model.n))
    for i in range(model.n):
        vals[:, i] = np.where(forward, p[i] * np.exp(rho[i] - rho_s[i]), 0.0)
    return Segment(model.r, vals)


def p0_evolved_closed(model, t, s, p, m):
    """T0(t, s) P0(s) p: stable flow forward of s, negated unstable tail before it."""
    if t < s:
        raise TimeOrder(f"t={t} earlier than s={s}")
    p = np.atleast_1d(np.asarray(p, dtype=float))
    grid = t + np.linspace(-model.r, 0.0, m + 1)
    rho = oracle_rho(model, grid)
    rho_s = oracle_rho(model, np.array([s]))[:, 0]
    forward = grid >= s - 1e-12
    vals = np.zeros((m + 1, model.n))
    for i in range(model.n):
        flow = p[i] * np.exp(rho[i] - rho_s[i])
        if not model.unstable[i]:
            vals[:, i] = np.where(forward, flow, 0.0)
        else:
            vals[:, i] = np.where(forward, 0.0, -flow)
    return Segment(model.r, vals)


def q0_backward_closed(model, t, s, p, m):
    """T_bar(t, s) Q0(s) p for t <= s: unstable coordinates pulled back."""
    if t > s:
        raise TimeOrder(f"t={t} later than s={s}")
    p = np.atleast_1d(np.asarray(p, dtype=float))
    grid = t + np.linspace(-model.r, 0.0, m + 1)
    rho = oracle_rho(model, grid)
    rho_s = oracle_rho(model, np.array([s]))[:, 0]
    vals = np.zeros((m + 1, model.n))
    for i in model.unstable_indices:
        vals[:, i] = p[i] * np.exp(rho[i] - rho_s[i])
    return Segment(model.r, vals)


def oracle_probes(model, m, rng):
    n = model.n
    probes = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        probes.append(Segment.constant(model.r, e, m))
        spike = np.zeros((m + 1, n))
        spike[:, i] = -1.0
        spike[-1, i] = 1.0
        probes.append(Segment(model.r, spike))
    grid = np.linspace(-model.r, 0.0, m + 1)
    for _ in range(3):
        freq = rng.uniform(0.5, 4.0, size=n)
        phase = rng.uniform(0, 2 * np.pi, size=n)
        vals = np.cos(np.outer(grid, freq) + phase)
        vals /= np.max(np.abs(vals))
        probes.append(Segment(model.r, vals))
    vectors = [np.eye(n)[i] for i in range(n)]
    for _ in range(3):
        v = rng.normal(size=n)
        vectors.append(v / np.max(np.abs(v)))
    return probes, vectors


def oracle_certificate(model, window, samples, seed, m):
    """Rows (t, s, measured, bound) per family, one pair and one probe at a time."""
    lo, hi = window
    rng = np.random.default_rng(seed)
    mu = model.mu
    D = derived_constant_D(dataclasses.replace(model, N=ratio_bound_N(mu, model.r)))
    probes, vectors = oracle_probes(model, m, rng)
    families = {name: [] for name in ("stable", "unstable", "bounded_growth", "jump_stable", "jump_unstable")}

    def jump_gain(closed, t, s):
        return max(sup_norm(closed(model, t, s, v, m)) / float(np.max(np.abs(v))) for v in vectors)

    for _ in range(samples):
        t1, t2 = np.sort(rng.uniform(lo, hi, size=2))
        s, t = float(t1), float(t2)
        ratio_mu = float(mu.eval(t)) / float(mu.eval(s))
        measured = max(sup_norm(oracle_seg_T(model, t, s, ph - oracle_Q(model, s, ph))) / sup_norm(ph) for ph in probes)
        bound = model.K * ratio_mu ** (-model.alpha) * float(mu_weight(mu, s, -model.theta))
        families["stable"].append((t, s, measured, bound))
        measured = max(sup_norm(oracle_seg_T(model, t, s, ph)) / sup_norm(ph) for ph in probes)
        measured = max(measured, jump_gain(jump_T0_closed, t, s))
        bound = model.K_tilde * ratio_mu**model.a * float(mu_weight(mu, s, -model.eps))
        families["bounded_growth"].append((t, s, measured, bound))
        bound = D * ratio_mu ** (-model.alpha) * float(mu_weight(mu, s, -(model.theta + model.eps)))
        families["jump_stable"].append((t, s, jump_gain(p0_evolved_closed, t, s), bound))

        tb, sb = s, t  # backward pair for the unstable families
        ratio_b = float(mu.eval(tb)) / float(mu.eval(sb))
        meas_u = max(sup_norm(oracle_pull_back(model, tb, sb, ph)) / sup_norm(ph) for ph in probes)
        meas_jump = jump_gain(q0_backward_closed, tb, sb)
        bound = model.K * ratio_b**model.beta * float(mu_weight(mu, sb, -model.nu))
        families["unstable"].append((tb, sb, meas_u, bound))
        bound = D * ratio_b**model.beta * float(mu_weight(mu, sb, -(model.nu + model.eps)))
        families["jump_unstable"].append((tb, sb, meas_jump, bound))
    return families


# the test ids name each power set by its configuration: the scalar stable and unstable
# models, the flagship pair and the three-dimensional model
NAMED_POWERS = (("scalar_stable_model", STABLE), ("scalar_unstable_model", UNSTABLE), ("flagship_model", PAIR))
ORACLE_MODELS = [
    pytest.param(partial(power_model, powers=powers), mu, id=f"{name}-{mu.label}")
    for mu in builtin_catalogue()
    for name, powers in NAMED_POWERS
] + [
    pytest.param(partial(power_model, powers=TRIPLE), EXP, id="three_dim_model-exp"),
    pytest.param(lambda mu, r: sin_wobble_model(r), EXP, id="sin_wobble_model"),
    pytest.param(lambda mu, r: sin_wobble_model(r, theta=0.0), EXP, id="sin_wobble_model-theta0"),
]


@pytest.mark.parametrize("build, mu", ORACLE_MODELS)
def test_certificate_matches_per_pair_oracle(build, mu):
    # a window of +-6 delays holds enough pairs closer than r that the
    # history splice of T(t, s) is measured, not only the evolved endpoint
    model = build(mu, R)
    window, samples, seed, m = (-6.0, 6.0), 120, 17, 40
    cert = verify_bounds(model, window, samples=samples, seed=seed, m=m)
    want = oracle_certificate(model, window, samples, seed, m)
    assert [c.name for c in cert.checks] == list(want)
    short = [t - s < R for t, s, _, _ in want["stable"]]
    assert 3 <= sum(short) < samples
    for check in cert.checks:
        rows = want[check.name]
        got = check.samples
        ref = np.array([(t, s, meas, bnd, meas / bnd) for t, s, meas, bnd in rows])
        assert got.shape == ref.shape == (samples, 5)
        assert np.array_equal(got[:, :2], ref[:, :2])
        np.testing.assert_allclose(got[:, 2:], ref[:, 2:], rtol=1e-12, atol=0.0)
        ratios = ref[:, 4]
        worst = int(np.argmax(ratios))
        assert check.worst_ratio == pytest.approx(ratios[worst], rel=1e-12, abs=0.0)
        assert check.argmax_pair == (rows[worst][0], rows[worst][1])
        assert check.passed == bool(ratios[worst] <= 1.0 + cert.tolerance)


@pytest.mark.parametrize("mu", builtin_catalogue(), ids=lambda g: g.label)
def test_seg_T_closed_matches_per_pair_oracle(mu):
    # every sample, signs included, for pairs inside one delay (history
    # splice) and beyond it, on per-pair and on shared segments
    model = power_model(mu, R, TRIPLE)
    rng = np.random.default_rng(12)
    m, pairs = 24, 30
    s = rng.uniform(-5.0, 5.0, size=pairs)
    t = s + np.concatenate([rng.uniform(0.0, R, size=pairs // 2), rng.uniform(R, 4.0, size=pairs - pairs // 2)])
    t[0] = s[0]
    values = rng.normal(size=(pairs, 4, m + 1, model.n))
    got = seg_T_closed(model, t, s, values)
    shared = seg_T_closed(model, t, s, values[:1])
    assert got.shape == shared.shape == values.shape
    for p in range(pairs):
        for q in range(4):
            want = oracle_seg_T(model, float(t[p]), float(s[p]), Segment(R, values[p, q])).values
            np.testing.assert_allclose(got[p, q], want, rtol=1e-13, atol=0.0)
            want = oracle_seg_T(model, float(t[p]), float(s[p]), Segment(R, values[0, q])).values
            np.testing.assert_allclose(shared[p, q], want, rtol=1e-13, atol=0.0)
    with pytest.raises(TimeOrder):
        seg_T_closed(model, s, t, values)


@pytest.mark.parametrize("mu", builtin_catalogue(), ids=lambda g: g.label)
def test_pairwise_kernels_stack_single_time_calls(mu):
    # one time per tau must give, bit for bit, what the operator's one-time
    # call gives for that tau alone
    rng = np.random.default_rng(8)
    omega = np.linspace(-R, 0.0, 41)
    for model in (power_model(mu, R, PAIR), power_model(mu, R, TRIPLE)):
        t = rng.uniform(-8.0, 8.0, size=23)
        taus = t - rng.uniform(-1.0, 1.0, size=23)
        for kernel in (p0_kernel, q0_kernel):
            pairwise = kernel(model, t, taus, omega)
            single = [kernel(model, float(ti), np.array([ta]), omega)[:, 0] for ti, ta in zip(t, taus)]
            assert pairwise.shape == (model.n, 23, 41)
            assert np.array_equal(pairwise, np.stack(single, axis=1))


def test_certificate_memory_stays_per_block(diag2):
    # pairs are measured in blocks of at most _BLOCK_NUMBERS floats, so the arrays of one block, not of all 2,000
    # pairs, sit beside the certificate's own sample rows.  The call peaks at 1.39 MB at m = 48 and at 1.55 MB at
    # cert_m 2,000, where a near block of two pairs evolves (2, 7, 2001, 1) projected unstable histories; 1.8 MB leaves
    # 0.25 MB (about 16%) for temporaries that differ between numpy versions, and stays under the 1.66 MB and 52.0 MB
    # that the two calls reached with blocks of 64 near and 128 far pairs, whose far pairs exponentiated every flow
    # sample
    verify_bounds(diag2, (-10.0, 10.0), samples=20, seed=0)
    for m in (48, 2000):
        tracemalloc.start()
        try:
            cert = verify_bounds(diag2, (-10.0, 10.0), samples=2000, seed=0, m=m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.check("stable").samples.shape == (2000, 5)
        assert peak <= 1_800_000


# ---------------------------------------------------------------------------
# one measure for every pair: the probe maxima from the log-flow peaks
# ---------------------------------------------------------------------------


def segment_path(model, t, s, probes):
    """The five families' measures (5, pairs) with every pair evolved as whole probe segments by seg_T_closed."""
    omega = np.linspace(-model.r, 0.0, probes.shape[1])
    probe_norms = np.max(np.abs(probes), axis=(1, 2))
    ends = probes[:, -1]

    def probe_gain(values):
        return np.max(np.max(np.abs(seg_T_closed(model, t, s, values)), axis=(2, 3)) / probe_norms, axis=1)

    def jump_gain(kern):
        peak = np.max(np.abs(kern), axis=2)
        return np.max(np.max(np.abs(ends)[:, :, None] * peak, axis=1) / probe_norms[:, None], axis=0)

    spread = q0_kernel(model, s, s, omega).transpose(1, 2, 0)[:, None]
    back = q0_kernel(model, s, t, omega)
    return np.stack(
        [
            probe_gain(probes - ends[:, None, :] * spread),
            jump_gain(back),
            probe_gain(probes[None]),
            np.max(np.abs(p0_kernel(model, t, s, omega)), axis=(0, 2)),
            np.max(np.abs(back), axis=(0, 2)),
        ]
    )


def all_ahead(model, t, s, m):
    """Per pair, whether every column t + omega lies at or past s, with the kernels' 1e-12 tolerance."""
    return np.all(t[:, None] + np.linspace(-model.r, 0.0, m + 1) >= s[:, None] - 1e-12, axis=1)


SPLIT_MODELS = [
    pytest.param(lambda mu, r: sin_wobble_model(r), EXP, id="wobble"),
    pytest.param(partial(power_model, powers=PAIR), EXP, id="flagship_model"),
    pytest.param(partial(power_model, powers=TRIPLE), EXP, id="three_dim_model"),
    # no stable coordinate, so the stable family comes only from the evolved histories of the projected probes
    pytest.param(partial(power_model, powers=ALL_UNSTABLE), EXP, id="all_unstable_model"),
] + [
    pytest.param(partial(power_model, powers=PAIR), mu, id=f"flagship_model-{mu.label}")
    for mu in builtin_catalogue()
    if mu.label != EXP.label
]


@pytest.mark.parametrize("build, mu", SPLIT_MODELS)
def test_near_far_split_at_the_delay_matches_segment_path(build, mu):
    # gaps at r, r +- 1e-13 sit inside the 1e-12 "ahead" tolerance, so those
    # pairs are far; r - 2e-12 and closer are near; every sample row equal
    model, m = build(mu, R), 48
    probes = _probe_segments(model, m, np.random.default_rng(4))
    offsets = np.array([0.0, 1e-13, -1e-13, 5e-13, -5e-13, -2e-12, -1e-11, -1e-3, 1e-3, -R, 2.0])
    s = np.repeat(np.array([-7.3, -0.2, 0.0, 3.1, 8.9]), offsets.size)
    t = s + np.tile(R + offsets, 5)
    ahead = all_ahead(model, t, s, m)
    assert ahead[np.tile(np.abs(offsets) <= 5e-13, 5)].all()
    assert not ahead[np.tile(offsets <= -2e-12, 5)].any()
    assert np.array_equal(_measure_blocks(model, t, s, probes), segment_path(model, t, s, probes))


@pytest.mark.parametrize("build, mu", SPLIT_MODELS)
def test_far_only_pairs_match_segment_path(build, mu):
    model, m = build(mu, R), 40
    rng = np.random.default_rng(21)
    s = rng.uniform(-9.0, 5.0, size=150)
    t = s + rng.uniform(R, 4.0, size=150)
    probes = _probe_segments(model, m, rng)
    assert all_ahead(model, t, s, m).all()
    assert np.array_equal(_measure_blocks(model, t, s, probes), segment_path(model, t, s, probes))


@pytest.mark.parametrize("build, mu", SPLIT_MODELS)
@pytest.mark.parametrize("window, samples", [((0.0, 0.4), 150), ((-10.0, 10.0), 300)], ids=["all_near", "mixed"])
def test_certificate_rows_match_segment_path(build, mu, window, samples):
    # a window narrower than r holds only near pairs; +-10 mixes both over
    # several blocks, which verify_bounds measures in order of t - s
    model, seed, m = build(mu, R), 13, 32
    cert = verify_bounds(model, window, samples=samples, seed=seed, m=m)
    t, s = cert.check("stable").samples[:, :2].T
    near = ~all_ahead(model, t, s, m)
    assert near.all() if window[1] - window[0] < R else 0 < near.sum() < samples
    want = segment_path(model, t, s, _probe_segments(model, m, np.random.default_rng(seed)))
    assert np.array_equal(np.array([c.samples[:, 2] for c in cert.checks]), want)


@pytest.mark.parametrize("build, mu", SPLIT_MODELS)
def test_far_path_matches_segment_path(build, mu):
    # the flow's peak from the largest log-flow difference, also where it lies inside the segment: the wobble's
    # rho(t) = -t - 0.1 t sin t has a local maximum near t = 16.7, where its slope -1 - 0.1 (sin t + t cos t) turns
    model, m = build(mu, R), 48
    rng = np.random.default_rng(8)
    probes = _probe_segments(model, m, rng)
    t = np.concatenate([rng.uniform(-8.0, 10.0, 100), np.linspace(16.0, 17.5, 100)])
    s = t - np.concatenate([[R], rng.uniform(R, 3.0, 199)])
    assert all_ahead(model, t, s, m).all()
    if model.label == "wobble":
        top = np.argmax(model.log_flow(t[:, None] + np.linspace(-R, 0.0, m + 1))[0], axis=1)
        assert np.count_nonzero((0 < top) & (top < m)) >= 20
    assert np.array_equal(_measure_pairs(model, t, s, probes), segment_path(model, t, s, probes))


def near_floats(model, m):
    """Floats per near pair in a certificate block's largest array: its log-flows or its evolved unstable histories."""
    return (m + 1) * max(model.n, (2 * model.n + 3) * model.d_u)  # 2n + 3 probes (_probe_segments)


@pytest.mark.parametrize("m", [48, 2000])
@pytest.mark.parametrize("build, mu", SPLIT_MODELS)
def test_certificate_blocks_hold_at_most_their_budget(build, mu, m, monkeypatch):
    # a block's largest array is its log-flows (n, pairs, m+1) or, for near pairs, its projected probes' evolved
    # unstable coordinates (pairs, probes, m+1, d_u); it holds at most _BLOCK_NUMBERS floats unless the block is one
    # pair, and one pair more would pass the budget in every block but the last of its kind.  At cert_m 2,000 a near
    # pair of the three-dimensional model alone holds 9 x 2001 x 2 floats
    model = build(mu, R)
    blocks, carry = [], dichotomy._carry

    def log_flow(ts):
        out = model.log_flow(ts)
        blocks[-1][2].append(out.size)
        return out

    def carried(*args):
        out = carry(*args)
        blocks[-1][2].append(out.size)
        return out

    def measured(model, t, s, probes):
        far = all_ahead(model, t, s, m)
        assert far.all() or not far.any()
        blocks.append((bool(far[0]), t.size, []))
        return _measure_pairs(model, t, s, probes)

    monkeypatch.setattr(dichotomy, "_carry", carried)
    monkeypatch.setattr(dichotomy, "_measure_pairs", measured)
    verify_bounds(dataclasses.replace(model, log_flow=log_flow), (-10.0, 10.0), samples=300, seed=m, m=m)
    for far in (False, True):
        kind = [(pairs, max(sizes)) for is_far, pairs, sizes in blocks if is_far == far]
        per_pair = (m + 1) * model.n if far else near_floats(model, m)
        assert kind and all(largest == pairs * per_pair for pairs, largest in kind)
        assert all(largest <= _BLOCK_NUMBERS or pairs == 1 for pairs, largest in kind)
        assert all((pairs + 1) * largest > _BLOCK_NUMBERS * pairs for pairs, largest in kind[:-1])


def delay_pairs(model):
    """Pairs at gaps r, r +- 1e-13, r +- 5e-13, r - 2e-12 and others around the delay, at five times s."""
    offsets = np.array([0.0, 1e-13, -1e-13, 5e-13, -5e-13, -2e-12, -1e-11, -1e-3, 1e-3, -R, 2.0])
    s = np.repeat(np.array([-7.3, -0.2, 0.0, 3.1, 8.9]), offsets.size)
    return s + np.tile(model.r + offsets, 5), s


@pytest.mark.parametrize("build, mu", SPLIT_MODELS)
def test_block_sizes_do_not_change_the_certificate(build, mu, monkeypatch):
    # near and far pairs go in blocks of their own, each block all near or all far by the measure's own rule, also at
    # gaps within 1e-12 of the delay; the rows do not depend on the budget, and equal one call on all pairs at once
    model, seed, m = build(mu, R), 5, 32
    want = verify_bounds(model, (-10.0, 10.0), samples=300, seed=seed, m=m)
    t, s = delay_pairs(model)
    probes = _probe_segments(model, m, np.random.default_rng(seed))
    whole = _measure_pairs(model, t, s, probes)
    blocks = []

    def recorded(model, t, s, probes):
        blocks.append(all_ahead(model, t, s, m))
        return _measure_pairs(model, t, s, probes)

    monkeypatch.setattr(dichotomy, "_measure_pairs", recorded)
    for budget in (1, 10**9):
        monkeypatch.setattr(dichotomy, "_BLOCK_NUMBERS", budget)
        got = verify_bounds(model, (-10.0, 10.0), samples=300, seed=seed, m=m)
        for c, w in zip(got.checks, want.checks):
            assert np.array_equal(c.samples, w.samples)
            assert (c.worst_ratio, c.argmax_pair, c.passed) == (w.worst_ratio, w.argmax_pair, w.passed)
        blocks.clear()
        assert np.array_equal(_measure_blocks(model, t, s, probes), whole)
        assert sum(map(len, blocks)) == t.size and all(b.all() or not b.any() for b in blocks)
        assert all(len(b) == 1 for b in blocks) if budget == 1 else len(blocks) == 2
        assert sum(b.all() for b in blocks) == (1 if budget > 1 else np.count_nonzero(all_ahead(model, t, s, m)))


def block_pairs(model, m, budget):
    """The pairs _measure_blocks puts in one near block and in one far block at a budget of that many floats."""
    return max(1, budget // near_floats(model, m)), max(1, budget // ((m + 1) * model.n))


@pytest.mark.parametrize(
    "model",
    [power_model(EXP, R, PAIR), sin_wobble_model(R)],
    ids=["flagship_model", "wobble"],
)
def test_log_flows_are_taken_twice_per_certificate_block(model, monkeypatch):
    # one on t + omega, then one on s + omega for a model with an unstable coordinate, whose backward kernel
    # reads it, or on s alone for a model without one; near and far blocks alike, at the shipped budget and at
    # one that cuts both kinds of pair into several blocks
    m, samples = 32, 500
    for budget in (_BLOCK_NUMBERS, 2**12):
        monkeypatch.setattr(dichotomy, "_BLOCK_NUMBERS", budget)
        calls = []

        def log_flow(ts):
            calls.append(np.shape(ts))
            return model.log_flow(ts)

        traced = dataclasses.replace(model, log_flow=log_flow)
        cert = verify_bounds(traced, (-10.0, 10.0), samples=samples, seed=2, m=m)
        t, s = cert.check("stable").samples[:, :2].T
        far = np.count_nonzero(all_ahead(model, t, s, m))
        near_block, far_block = block_pairs(model, m, budget)
        blocks = -(-(samples - far) // near_block) + -(-far // far_block)
        assert 0 < samples - far < far and len(calls) == 2 * blocks
        assert {shape[1] for shape in calls[::2]} == {m + 1}
        assert {shape[1] for shape in calls[1::2]} == {m + 1 if model.d_u else 1}


@pytest.mark.parametrize("build, mu", SPLIT_MODELS)
@pytest.mark.parametrize("m", [48, 17])
def test_probes_have_unit_norm_and_one_constant_per_coordinate(build, mu, m):
    # the premises under which the probe maxima are the log-flow peaks: every probe's sup norm is exactly 1.0, so the
    # maxima need no division, and each coordinate has a probe that is 1 on it and 0 elsewhere, which attains the peak
    model = build(mu, R)
    for seed in (0, 3, 7, 11):
        probes = _probe_segments(model, m, np.random.default_rng(seed))
        assert probes.shape == (2 * model.n + 3, m + 1, model.n)
        assert np.array_equal(np.max(np.abs(probes), axis=(1, 2)), np.ones(len(probes)))
        for i in range(model.n):
            unit = np.zeros((m + 1, model.n))
            unit[:, i] = 1.0
            assert sum(np.array_equal(p, unit) for p in probes) == 1


@pytest.mark.parametrize(
    "model",
    [power_model(EXP, R, PAIR), sin_wobble_model(R)],
    ids=["flagship_model", "wobble"],
)
@pytest.mark.parametrize("window", [(700.0, 800.0), (-800.0, -700.0)], ids=["above", "below"])
def test_pairs_past_the_rates_float_range_never_pass(model, window):
    # mu = e^t overflows above t = 709.78 and its weights or logarithms leave the float range below -709.78, so the
    # bounds or measures there are NaN; such a pair is unmeasurable and must fail its family, never pass it
    with pytest.warns(RuntimeWarning) as caught:
        cert = verify_bounds(model, window, samples=200, seed=3)
    assert all(w.category is RuntimeWarning for w in caught)
    assert not cert.passed
    for check in cert.checks:
        assert math.isnan(check.worst_ratio) and not check.passed
        assert np.isnan(check.samples[:, 4]).any()
