import dataclasses

import numpy as np
import pytest

from mu_lab.dde_core import fundamental_jump, solution_op_T
from mu_lab.dichotomy import (
    apply_P0,
    apply_Q0,
    derived_constant_D,
    evolve_P0,
    flagship_model,
    p0_evolved_closed,
    q0_backward_closed,
    scalar_stable_model,
    scalar_unstable_model,
    seg_T_closed,
    sin_wobble_model,
    three_dim_model,
    verify_bounds,
)
from mu_lab.errors import SingularUnstableBasis
from mu_lab.growth_rate import builtin_catalogue, rate_by_id
from mu_lab.phase_space import Segment, sup_norm

EXP = rate_by_id("exp")
R = 0.5


@pytest.fixture(scope="module")
def diag2():
    return flagship_model(EXP, R)


def random_segment(model, m, seed):
    rng = np.random.default_rng(seed)
    grid = np.linspace(-model.r, 0.0, m + 1)
    vals = np.cos(np.outer(grid, rng.uniform(0.5, 3.0, model.n)) + rng.uniform(0, 6, model.n))
    return Segment(model.r, vals)


def test_projection_idempotence_complementarity_commutation(diag2):
    m = 32
    for seed, s in [(0, -1.3), (1, 0.0), (2, 2.1)]:
        phi = random_segment(diag2, m, seed)
        q = diag2.Q(s, phi)
        p = diag2.P(s, phi)
        assert sup_norm(diag2.Q(s, q) - q) < 1e-8
        assert sup_norm(diag2.P(s, p) - p) < 1e-8
        assert sup_norm((p + q) - phi) < 1e-10
        t = s + 0.9
        left = seg_T_closed(diag2, t, s, diag2.P(s, phi))
        right = diag2.P(t, seg_T_closed(diag2, t, s, phi))
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
    model = scalar_unstable_model(EXP, R)
    out = apply_Q0(model, 0.0, [1.0], m=64)
    # forward by r then pulled back is the identity on the unstable line
    assert out.values[-1, 0] == pytest.approx(1.0, abs=1e-9)
    shape = np.exp(0.6 * out.omega_grid)
    assert np.max(np.abs(out.values[:, 0] - shape)) < 1e-9


def test_apply_Q0_closed_matches_integration(diag2):
    for model in (diag2, three_dim_model(EXP, R)):
        for t in (-1.0, 0.6):
            p = np.arange(1.0, model.n + 1.0)
            a = apply_Q0(model, t, p, m=48)
            b = apply_Q0(model, t, p, m=48, method="closed")
            assert sup_norm(a - b) < 1e-8


def test_apply_P0_zero_and_purely_stable():
    model = scalar_stable_model(EXP, R)
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
    rhs = diag2.P(t + R, fundamental_jump(diag2.sys, t + R, t, p, m=48))
    assert sup_norm(lhs - rhs) < 1e-6


def test_round_trip_factorization(diag2):
    # forward evolution of the jump projection recovers Q(t+r) T0(t+r,t) X0 p
    t, p = 0.9, np.array([0.3, 0.8])
    q0 = apply_Q0(diag2, t, p, m=48)
    lhs = solution_op_T(diag2.sys, t + R, t, q0, step=R / 48)
    rhs = diag2.Q(t + R, fundamental_jump(diag2.sys, t + R, t, p, m=48))
    assert sup_norm(lhs - rhs) < 1e-6


def test_p0_evolved_closed_matches_integration(diag2):
    t, p = 0.1, np.array([1.0, 0.5])
    comp = apply_P0(diag2, t, p, m=48)
    for dt in (0.2, R, 1.1):
        via_rk = evolve_P0(diag2, t + dt, t, comp, m=48)
        via_closed = p0_evolved_closed(diag2, t + dt, t, p, 48)
        # linear interpolation of the history splice dominates: ~ (r/m)^2
        assert sup_norm(via_rk - via_closed) < 2e-5


def test_derived_constant_reference_values(diag2):
    base = dataclasses.replace(
        diag2, K=1.0, K_tilde=1.0, alpha=0.8, beta=0.6, theta=0.4, nu=0.2, a=1.0
    )
    K1 = np.exp(0.6)  # N^(|a-beta|+nu) at N=e
    D = derived_constant_D(base, float(np.e))
    assert D == pytest.approx(np.exp(2.2), rel=1e-12)
    assert derived_constant_D(base, float(np.e)) >= np.e * (1.0 + K1) - 1e-12

    uniform = dataclasses.replace(diag2, K=1.0, K_tilde=1.0, theta=0.0, nu=0.0, a=0.0)
    assert derived_constant_D(uniform, 1.0 + 1e-12) == pytest.approx(2.0, rel=1e-9)

    rng = np.random.default_rng(3)
    for _ in range(20):
        mdl = dataclasses.replace(
            diag2,
            K=float(rng.uniform(1, 5)),
            K_tilde=float(rng.uniform(1, 5)),
            a=float(rng.uniform(0, 2)),
            theta=float(rng.uniform(0, 1)),
            nu=float(rng.uniform(0, 1)),
        )
        assert derived_constant_D(mdl, float(rng.uniform(1.01, 3.0))) >= mdl.K_tilde


@pytest.mark.parametrize("mu", builtin_catalogue(), ids=lambda g: g.label)
def test_certificate_scalar_models(mu):
    for build in (scalar_stable_model, scalar_unstable_model):
        model = build(mu, R)
        cert = verify_bounds(model, (-10.0, 10.0), samples=120, seed=11, m=40)
        assert cert.passed, f"{model.label}: {[c.to_dict() for c in cert.checks if not c.passed]}"
        # with the honest declared constants the ratios stay at or below one,
        # not merely within the certificate tolerance
        for check in cert.checks:
            assert check.worst_ratio <= 1.0 + 1e-9


def test_stable_flow_value_is_exact_power_law():
    # at omega = 0 the stable flow matches (mu(t)/mu(s))^(-alpha) with no constant
    for mu in builtin_catalogue():
        model = scalar_stable_model(mu, R)
        phi = Segment.constant(R, [1.0], 32)
        for s, t in [(-2.0, 1.0), (0.5, 4.0)]:
            seg = seg_T_closed(model, t, s, phi)
            expected = (float(mu.eval(t)) / float(mu.eval(s))) ** (-model.alpha)
            assert seg.values[-1, 0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("mu", builtin_catalogue(), ids=lambda g: g.label)
def test_coefficients_are_vectorized_flow_derivatives(mu):
    # rho' takes whole time arrays (the batched residual check evaluates a
    # stage for every sample at once), matches rho by central difference,
    # and the system assembled from it still takes a scalar time
    model = flagship_model(mu, R)
    ts = np.array([-2.3, -0.4, 0.0, 0.7, 3.1])
    h = 1e-6
    for c in model.coords:
        got = c.coeff(ts)
        assert got.shape == ts.shape
        np.testing.assert_allclose(got, [float(c.coeff(t)) for t in ts], rtol=1e-15, atol=0.0)
        fd = (c.log_flow(ts + h) - c.log_flow(ts - h)) / (2 * h)
        np.testing.assert_allclose(got, fd, rtol=1e-6, atol=1e-8)
    A = model.sys.terms[0].matrix(0.7)
    assert np.array_equal(A, np.diag([float(c.coeff(0.7)) for c in model.coords]))


def test_unstable_backward_bound_with_unit_constants():
    # the pure backward family holds with K = 1, nu = 0; the stable family
    # cannot (history transients force K >= 2 N^alpha), which is why the
    # builders declare the larger constant by default
    model = scalar_unstable_model(EXP, R, K=1.0, nu=0.0)
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

    cert = verify_bounds(diag2, (-3.0, 3.0), samples=20, seed=1, m=24)
    doc = json.loads(cert.to_json())
    assert set(doc) == {"window", "tolerance", "pass", "bounds"}
    names = {b["bound_name"] for b in doc["bounds"]}
    assert names == {"stable", "unstable", "bounded_growth", "jump_stable", "jump_unstable"}
    for b in doc["bounds"]:
        assert set(b) == {"bound_name", "worst_ratio", "argmax_pair", "pass"}


def test_three_dim_model_d_u2():
    model = three_dim_model(EXP, R)
    assert model.d_u == 2
    cert = verify_bounds(model, (-6.0, 6.0), samples=80, seed=4, m=32)
    assert cert.passed
    q0 = apply_Q0(model, 0.2, [1.0, 2.0, 3.0], m=48)
    assert np.max(np.abs(q0.values[:, 0])) < 1e-9
    assert q0.values[-1, 1] == pytest.approx(2.0, abs=1e-8)
    assert q0.values[-1, 2] == pytest.approx(3.0, abs=1e-8)


def test_singular_basis_detected(diag2):
    # a basis that misses the range of Q leaves a large least-squares residual
    def bad_basis(s, m):
        vals = np.zeros((m + 1, 2))
        vals[:, 0] = 1.0  # stable direction, orthogonal to the unstable range
        return [Segment(R, vals)]

    broken = dataclasses.replace(diag2, unstable_basis=bad_basis)
    with pytest.raises(SingularUnstableBasis):
        apply_Q0(broken, 0.0, [0.0, 1.0], m=32)


def test_q0_backward_closed_decays():
    model = scalar_unstable_model(EXP, R)
    seg = q0_backward_closed(model, -2.0, 1.0, [1.0], 32)
    assert sup_norm(seg) == pytest.approx(np.exp(0.6 * -3.0), rel=1e-9)
