"""Acceptance suite: every shipped claim at its stated tolerance.

Each test prints one [PASS]/[FAIL] line with the measured numbers before
asserting, so a full run doubles as the acceptance report.
"""

import time
from pathlib import Path

import numpy as np
import pytest

import mu_lab
from conftest import COARSE_GRID, COARSE_TRUNC, R
from mu_lab.admissibility import ParamSet, check_core, delta_ceiling, lambda_ceiling, xi_window
from mu_lab.conjugacy import EtaField, GridSpec, picard_solve, verify_residuals, invertibility_check
from mu_lab.dde_core import Perturbation, linear_cross_perturbation, solve_linear
from mu_lab.dichotomy import diagonal_model, power_model, verify_bounds
from mu_lab.errors import NotContracting
from mu_lab.growth_rate import builtin_catalogue, rate_by_id
from mu_lab.phase_space import Segment
from mu_lab.cli_report import load_scenario, resolve, run_pipeline

SCENARIOS = Path(mu_lab.__file__).parent / "scenarios"


def report(num: int, ok: bool, details: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {details}")


def test_criterion_1_growth_rate_constants():
    grid = np.linspace(-50.0, 50.0, 20001)
    t0 = time.perf_counter()
    worst = 0.0
    for g in builtin_catalogue():
        for r in (0.5, 1.0, 2.0):
            pts = np.concatenate([grid, [-r / 2.0, -r, 0.0]])
            sup = float(np.max(g.eval(pts + r) / g.eval(pts)))
            worst = max(worst, abs(sup - g.closed_form_N(r)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    report(1, ok, f"max |sup - closed form| = {worst:.2e}, runtime {elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 1.0


def test_criterion_2_reference_parameter_set():
    t0 = time.perf_counter()
    p = ParamSet(
        alpha=0.8, beta=0.6, theta=0.4, nu=0.2, eps=0.1, a=1.0, gamma=0.5, xi=0.6,
        delta=1e-3, lam=1e-6, q=1.0, K=1.0, K_tilde=1.0, N=float(np.e), D=1.0,
    )
    core_ok = check_core(p).passed
    lo, hi = xi_window(p)
    window_ok = lo == pytest.approx(0.5, abs=1e-15) and hi == pytest.approx(0.7, abs=1e-15)
    coeff = delta_ceiling(p) * (1 + p.q) ** 2 / p.q  # with D = 1
    coeff_ok = abs(coeff - 0.48 / 1.4) < 1e-15 and round(coeff, 2) == 0.34
    lam_ok = True
    for D in (1.0, 3.7):
        for Kt in (1.0, 2.2):
            got = lambda_ceiling(p.with_(D=D, K_tilde=Kt))
            want = 0.018 * p.q**2 / (D * (0.09 * D + 0.48 * Kt) * (1 + p.q) ** 3)
            lam_ok = lam_ok and abs(got - want) < 1e-15
    elapsed = time.perf_counter() - t0
    ok = core_ok and window_ok and coeff_ok and lam_ok and elapsed < 0.1
    report(
        2,
        ok,
        f"core={core_ok}, window=({lo:.3f},{hi:.3f}), delta coeff={coeff:.6f}, "
        f"lambda bracket exact={lam_ok}, runtime {elapsed * 1e3:.1f}ms",
    )
    assert ok


def test_criterion_3_dichotomy_certificates():
    t0 = time.perf_counter()
    worst = 0.0
    details = []
    for mu in builtin_catalogue():
        for powers in ((-0.8,), (0.6,)):
            model = power_model(mu, R, powers)
            cert = verify_bounds(model, (-10.0, 10.0), samples=200, seed=13, m=48)
            w = max(c.worst_ratio for c in cert.checks)
            worst = max(worst, w)
            details.append(f"{model.label}{powers}:{w:.3f}")
            assert cert.passed, f"{model.label}{powers} failed: {[c.to_dict() for c in cert.checks if not c.passed]}"
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.05 and elapsed < 30.0
    report(3, ok, f"worst ratio {worst:.3f} over {', '.join(details)}, runtime {elapsed:.1f}s")
    assert worst <= 1.05
    assert elapsed < 30.0


def test_criterion_4_contraction(flagship_result):
    res = flagship_result["result"]
    p = flagship_result["params"]
    wall = flagship_result["wall"]
    rate_ok = res.contraction_rate_measured <= p.q / (1 + p.q) + 0.05
    norm_bound = p.D * p.delta * (p.alpha + p.beta) / (p.alpha * p.beta) + 1e-3
    norm_ok = res.norms["inf"] <= norm_bound
    sweeps_ok = res.converged and len(res.sweeps) <= 25
    time_ok = wall < 300.0
    ok = rate_ok and norm_ok and sweeps_ok and time_ok
    report(
        4,
        ok,
        f"measured rate {res.contraction_rate_measured:.2e} <= 0.55, "
        f"|eta|_inf {res.norms['inf']:.2e} <= {norm_bound:.2e}, "
        f"{len(res.sweeps)} sweeps, solve {wall:.1f}s",
    )
    assert ok


def test_criterion_5_conjugacy_identity(flagship_result):
    res = flagship_result["result"]
    model, pert = flagship_result["model"], flagship_result["pert"]
    rows = verify_residuals(
        res.eta, model, pert, n_samples=200, horizon=3 * R, core=(-2.0, 2.0), b_scale=2.0, seed=101
    )
    worst = max(r.weighted for r in rows)
    p = flagship_result["params"]
    grid = GridSpec(t_min=-4.5, t_max=4.5, t_step=0.25, b_max=6.0, b_step=0.03125, m=64)
    zero_eta = EtaField.zero(grid, 2, R, flagship_result["mu"], p.xi, p.eps)
    zero_rows = verify_residuals(
        zero_eta, model, Perturbation.zero(2), n_samples=50, horizon=3 * R, core=(-2.0, 2.0), b_scale=2.0, seed=77
    )
    worst_zero = max(r.weighted for r in zero_rows)
    ok = worst <= 5e-3 and worst_zero <= 1e-6
    report(5, ok, f"residual_mu max {worst:.2e} <= 5e-3 on 200 triples; zero-perturbation max {worst_zero:.2e} <= 1e-6")
    assert worst <= 5e-3
    assert worst_zero <= 1e-6


def test_criterion_6_differentiability(flagship_result):
    res = flagship_result["result"]
    p = flagship_result["params"]
    inv = invertibility_check(res, flagship_result["model"])
    dnorm_ok = res.norms["dinf_mu"] <= p.q / (1 + p.q) + 0.05 and res.norms["dinf_mu"] < 1.0
    ok = dnorm_ok and inv["fd_ok"] and inv["monotone"] is True
    report(
        6,
        ok,
        f"|d eta/db|_mu {res.norms['dinf_mu']:.2e} <= 0.55, fd rel err {inv['fd_rel_err']:.2e} <= 1e-3, "
        f"monotone={inv['monotone']}",
    )
    assert ok


def test_criterion_7_negative_controls(flagship):
    # (a) nonuniformity exponent below its floor dies at the parameter stage
    rep = run_pipeline(resolve(load_scenario(SCENARIOS / "example5_2d_negative_theta.json")))
    stage_ok = rep["status"] == "admissibility_failed" and rep["exit_code"] == 2

    # (b) declared delta driven to twice its ceiling with a matching raw-gain
    # perturbation: the solver must detect non-contraction within 10 sweeps
    p = flagship["params"]
    declared = p.with_(delta=2.0 * delta_ceiling(p))
    neg = linear_cross_perturbation(
        flagship["mu"], declared.with_(gamma=0.5, xi=0.6, eps=0.1), reads=[(0, R), (1, R / 2)], n=2, gain=2.0
    )
    outcome = None
    try:
        out = picard_solve(
            flagship["model"], neg, declared, COARSE_GRID, COARSE_TRUNC,
            solver_tol=1e-6, max_sweeps=10,
        )
        ratios = [s.ratio for s in out.sweeps if s.ratio is not None]
        if any(r > 1.0 for r in ratios):
            outcome = f"measured ratio {max(ratios):.2f} > 1"
    except NotContracting as exc:
        outcome = f"NotContracting after {len(exc.sweeps)} sweeps"
    ok = stage_ok and outcome is not None
    report(7, ok, f"theta control: exit {rep['exit_code']} at admissibility; delta control: {outcome}")
    assert stage_ok
    assert outcome is not None


def test_criterion_8_integrator_order():
    # x'(t) = -x(t), a diagonal model with flow exp(-(t - s))
    model = diagonal_model(
        rate_by_id("exp"),
        1.0,
        log_flow=lambda ts: -np.asarray(ts)[None],
        coeff=lambda ts: np.full((1,) + np.shape(ts), -1.0),
        unstable=[False],
    )
    phi = Segment.constant(1.0, [1.0], 8)
    errs = []
    for step in (1.0 / 8, 1.0 / 16):
        traj = solve_linear(model, 0.0, phi, 2.0, step)
        errs.append(abs(traj.state_at(2.0)[0] - np.exp(-2.0)))
    ratio = errs[0] / errs[1]
    ok = 15.0 <= ratio <= 17.0
    report(8, ok, f"error reduction on step halving {ratio:.2f}x (band 15-17)")
    assert ok
