import time

import pytest

from mu_lab.admissibility import delta_ceiling, lambda_ceiling
from mu_lab.conjugacy import GridSpec, TruncationPolicy, picard_solve
from mu_lab.dde_core import saturating_cross_perturbation
from mu_lab.dichotomy import model_params, power_model
from mu_lab.growth_rate import rate_by_id

R = 0.5


def build_flagship(mu_id: str = "exp", r: float = R):
    """Reference two-coordinate scenario pieces used across the suite."""
    mu = rate_by_id(mu_id)
    model = power_model(mu, r, (-0.8, 0.6))
    base = model_params(model, gamma=1.5, xi=0.6, delta=1e-3, lam=1e-6, q=1.0)
    params = base.with_(delta=0.5 * delta_ceiling(base), lam=0.5 * lambda_ceiling(base))
    pert = saturating_cross_perturbation(mu, params, reads=[(0, r), (1, r / 2)], n=2)
    return mu, model, params, pert


DEFAULT_GRID = GridSpec(t_min=-4.5, t_max=4.5, t_step=0.25, b_max=6.0, b_step=0.03125, m=64)
DEFAULT_TRUNC = TruncationPolicy(tail_tol=1e-6, max_span=60.0)
COARSE_GRID = GridSpec(t_min=-3.0, t_max=3.0, t_step=0.5, b_max=4.0, b_step=0.25, m=32)
COARSE_TRUNC = TruncationPolicy(tail_tol=1e-5, max_span=60.0)
SOLVER_TOL = 1e-6


@pytest.fixture(scope="session")
def flagship():
    mu, model, params, pert = build_flagship()
    return {"mu": mu, "model": model, "params": params, "pert": pert}


@pytest.fixture(scope="session")
def flagship_result(flagship):
    t0 = time.perf_counter()
    result = picard_solve(
        flagship["model"],
        flagship["pert"],
        flagship["params"],
        DEFAULT_GRID,
        DEFAULT_TRUNC,
        solver_tol=SOLVER_TOL,
        max_sweeps=25,
    )
    wall = time.perf_counter() - t0
    return {"result": result, "wall": wall, **flagship}
