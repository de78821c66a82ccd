"""The benchmark tracer (perfbench/spans.py) patches library names; each must exist."""

import importlib.util
import json
from pathlib import Path

from mu_lab import cli_report, conjugacy, dde_core, dichotomy, phase_space

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SCENARIOS = Path(cli_report.__file__).parent / "scenarios"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_its_wrappers():
    # installed() looks up every name it wraps, so a renamed or deleted one raises here
    spans = _load_spans()
    names = [
        (cli_report, "verify_bounds"),
        (cli_report, "rate_by_id"),
        (dichotomy, "rate_by_id"),
        (conjugacy, "solve_perturbed_R"),
        (dde_core, "solve_perturbed"),
        (dde_core, "interpolate"),
        (phase_space, "interpolate"),
    ]
    originals = [getattr(owner, attr) for owner, attr in names]
    with spans.installed(spans.Tracer()):
        assert all(getattr(owner, attr) is not fn for (owner, attr), fn in zip(names, originals))
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(names, originals))


def test_tracer_counts_the_rate_calls_of_a_poly_scenario():
    # the rate's callables are wrapped on the GrowthRate that rate_by_id
    # returns, so a scenario resolved and planned under the tracer counts them
    spans = _load_spans()
    doc = json.loads((SCENARIOS / "example5_2d.json").read_text())
    doc["growth_rate"] = "poly"
    doc["grids"] = {"m": 32, "t_min": -3.0, "t_max": 3.0, "t_step": 0.5, "b_max": 4.0, "b_step": 0.25}
    doc["tolerances"]["tail_tol"] = 1e-5
    tracer = spans.Tracer()
    with spans.installed(tracer):
        res = cli_report.resolve(cli_report.parse_scenario(doc))
        eta = conjugacy.EtaField.zero(res.grid, res.model.n, res.model.r, res.model.mu, res.params.xi, res.params.eps)
        conjugacy.plan_operator(res.model, res.pert, eta, eta.t_grid, eta.b_grid, res.trunc, res.params.D)
    counts = tracer.counts[None]
    assert res.model.mu.label == "poly"
    for name in ("eval", "deriv", "inverse"):
        assert counts[f"growth_rate.{name}.calls"] > 0
