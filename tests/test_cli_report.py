import contextlib
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mu_lab
from mu_lab import cli_report
from mu_lab.cli_report import (
    EXIT_ADMISSIBILITY,
    EXIT_CERTIFICATE,
    EXIT_CONFIG,
    EXIT_PASS,
    EXIT_SOLVER,
    emit_plot_data,
    main,
    parse_scenario,
    report_json,
    resolve,
    run_dichotomy,
    run_pipeline,
    strip_timings,
)
from mu_lab.dichotomy import derived_constant_D
from mu_lab.errors import ConfigError, MissingSeries

SCENARIOS = Path(mu_lab.__file__).parent / "scenarios"


def shipped(name: str) -> dict:
    return json.loads((SCENARIOS / f"{name}.json").read_text())


def coarse_flagship(**tweaks) -> dict:
    doc = shipped("example5_2d")
    doc["grids"] = {"m": 32, "t_min": -3.0, "t_max": 3.0, "t_step": 0.5, "b_max": 4.0, "b_step": 0.25}
    doc["tolerances"]["tail_tol"] = 1e-5
    doc["checks"]["cert_samples"] = 60
    doc["checks"]["residual_samples"] = 40
    doc["checks"]["core_window"] = [-1.5, 1.5]
    doc.update(tweaks)
    return doc


def test_unknown_keys_rejected():
    doc = shipped("example5_2d")
    doc["surprise"] = 1
    with pytest.raises(ConfigError, match="surprise"):
        parse_scenario(doc)
    doc = shipped("example5_2d")
    doc["params"]["zeta"] = 0.1
    with pytest.raises(ConfigError, match="zeta"):
        parse_scenario(doc)
    doc = shipped("example5_2d")
    doc["grids"]["nx"] = 3
    with pytest.raises(ConfigError, match="scenario.grids"):
        parse_scenario(doc)


def test_missing_and_invalid_fields():
    doc = shipped("example5_2d")
    del doc["model"]
    with pytest.raises(ConfigError, match="model"):
        parse_scenario(doc)
    doc = shipped("example5_2d")
    doc["growth_rate"] = "exp2"
    with pytest.raises(ConfigError, match="growth_rate"):
        parse_scenario(doc)
    doc = shipped("example5_2d")
    doc["delay"] = -1.0
    with pytest.raises(ConfigError, match="delay"):
        parse_scenario(doc)


def _with(section: str, key: str, value):
    """The shipped flagship with one params/grids/tolerances/checks value replaced."""
    doc = shipped("example5_2d")
    doc[section][key] = value
    return doc


def _absolute_param(key, frac, value) -> dict:
    doc = shipped("example5_2d")
    del doc["params"][frac]
    doc["params"][key] = value
    return doc


@pytest.mark.parametrize(
    "doc, extra",
    [
        ({**shipped("wobble_certificate"), "seed": "abc"}, []),
        ({**shipped("wobble_certificate"), "delay": "half"}, []),
        ({**shipped("wobble_certificate"), "params": {"alpha": -0.8, "gamma": 0.5}}, []),
        # one coordinate, two cross-coupling reads
        ({**shipped("wobble_certificate"), "perturbation": {"shape": "saturating_cross", "reads": [
            {"coord": 0, "lag_frac": 1.0}, {"coord": 0, "lag_frac": 0.5}]}}, []),
        (shipped("wobble_certificate"), ["--tol", "max_sweeps=2.5"]),
        (shipped("wobble_certificate"), ["--tol", "tail_tol=abc"]),
        (_with("tolerances", "max_sweeps", 0), []),
        (_with("tolerances", "max_sweeps", -3), []),
        (_with("tolerances", "solver_tol", -1.0), []),
        (_with("tolerances", "solver_tol", math.nan), []),
        (shipped("example5_2d"), ["--tol", "max_sweeps=0"]),
        (shipped("example5_2d"), ["--tol", "solver_tol=-1"]),
        (shipped("example5_2d"), ["--tol", "solver_tol=nan"]),
        (shipped("example5_2d"), ["--tol", "solver_tol=inf"]),
        (None, []),
        # a constant has one declaration, in params; absolute Lipschitz scales are not scenario keys
        ({**shipped("wobble_certificate"), "model": {"kind": "sin_wobble", "theta_override": 0.0}}, []),
        (_absolute_param("delta", "delta_frac", 1e-3), []),
        (_absolute_param("lambda", "lambda_frac", 1e-6), []),
        # finite values whose model or ceilings leave float range; each ended in an OverflowError
        (_with("params", "q", 1e308), []),
        (_with("params", "a", 1e308), []),
        (_with("params", "alpha", 8e5), []),
        # an infinite envelope exponent passed every stage, and exited 0
        (_with("params", "gamma", math.inf), []),
    ],
    ids=["seed", "delay", "negative_alpha", "reads_per_coordinate", "tol_int", "tol_float",
         "file_no_sweeps", "file_negative_sweeps", "file_negative_tol", "file_nan_tol",
         "flag_no_sweeps", "flag_negative_tol", "flag_nan_tol", "flag_infinite_tol", "missing_result",
         "theta_override", "absolute_delta", "absolute_lambda", "q_overflows", "a_overflows", "alpha_overflows",
         "gamma_infinite"],
)
def test_cli_bad_values_are_config_errors(tmp_path, capsys, doc, extra):
    path = tmp_path / "sc.json"
    if doc is None:
        argv = ["verify-conjugacy", "--result", str(tmp_path / "missing.json")]
    else:
        path.write_text(json.dumps(doc))
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "r.json"), *extra]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert not (tmp_path / "r.json").exists()


def _without_lag_frac(doc):
    doc["perturbation"]["reads"][1] = {"coord": 1}
    return doc


# grids/tolerances/checks values no stage can run on; unchecked, each crashed, exited 3 or 4 or passed vacuously
_OUT_OF_RANGE = {
    "cert_samples_zero": ("checks", "cert_samples", 0),
    "cert_samples_negative": ("checks", "cert_samples", -3),
    "window_reversed": ("checks", "window", [10.0, -10.0]),
    "core_window_reversed": ("checks", "core_window", [2.0, -2.0]),
    "b_scale_negative": ("checks", "b_scale", -1.0),
    "t_step_zero": ("grids", "t_step", 0.0),
    "m_zero": ("grids", "m", 0),
    "b_step_negative": ("grids", "b_step", -0.25),
    "t_window_reversed": ("grids", "t_min", 5.0),
    "residual_samples_negative": ("checks", "residual_samples", -1),
    "residual_samples_zero": ("checks", "residual_samples", 0),
    "cert_m_zero": ("checks", "cert_m", 0),
    "residual_horizon_negative": ("checks", "residual_horizon_delays", -1.0),
    "tail_tol_negative": ("tolerances", "tail_tol", -1e-6),
    "tail_tol_zero": ("tolerances", "tail_tol", 0.0),
    "max_span_negative": ("tolerances", "max_span", -5.0),
    "cert_tol_negative": ("tolerances", "cert_tol", -0.5),
    # 9 / 20 and 12 / 30 round to no cell: one node on the axis, which ended in an IndexError
    "t_step_one_node": ("grids", "t_step", 20.0),
    "b_step_one_node": ("grids", "b_step", 30.0),
    # infinite values and infinitely wide windows ended in an OverflowError, in GridSpec or in numpy's draws
    "b_max_infinite": ("grids", "b_max", math.inf),
    "t_min_infinite": ("grids", "t_min", -math.inf),
    "window_infinitely_wide": ("checks", "window", [-1e308, 1e308]),
    "core_window_infinite": ("checks", "core_window", [-math.inf, 0.0]),
    "b_scale_infinite": ("checks", "b_scale", math.inf),
    # 12 / 12 is one cell: two b nodes, no central difference; the invertibility check's max over it raised ValueError
    "b_step_two_nodes": ("grids", "b_step", 12.0),
    # a field of 37 x 385 x 2 x (m + 1) numbers, 102 GiB at this m, or an m past float range
    "m_over_field_budget": ("grids", "m", 16_000_000),
    "m_past_float_range": ("grids", "m", 10**400),
    # 10^6 samples x (65 + 192 steps) x 2 coordinates in the residual lattice
    "residual_lattice_over_budget": ("checks", "residual_samples", 1_000_000),
    # 2e7 time pairs, the fuzzer's run of over 20 s: 5e8 numbers of certificate sample rows
    "cert_samples_over_series_budget": ("checks", "cert_samples", 20_000_000),
    # a block of 64 near pairs x 7 probes x (10^6 + 1) samples x 2 coordinates
    "cert_m_over_block_budget": ("checks", "cert_m", 1_000_000),
    "cert_m_past_float_range": ("checks", "cert_m", 10**400),
}


@pytest.mark.parametrize(
    "doc",
    [
        {**shipped("example5_2d"), "grids": 5},
        {**shipped("example5_2d"), "tolerances": [1]},
        _without_lag_frac(shipped("example5_2d")),
        {**shipped("example5_2d"), "perturbation": {"shape": "saturating_cross", "reads": 5}},
        {**shipped("example5_2d"), "checks": {"cert_samples": "abc"}},
        {**shipped("example5_2d"), "checks": {"residual_samples": "abc"}},
        {**shipped("example5_2d"), "checks": {"window": "wide"}},
        {**shipped("example5_2d"), "checks": {"cert_samples": 0.5}},
        {**shipped("example5_2d"), "model": {"kind": "diagonal_flow", "theta0": 0.7}},
        {**shipped("example5_2d"), "model": {"kind": "diagonal_flow", "alpha0": 1.0}},
        {**shipped("wobble_certificate"), "model": {"kind": "sin_wobble", "stable_power": -3.0}},
        {**shipped("wobble_certificate"), "model": {"kind": "sin_wobble", "unstable_power": 0.6}},
        {**shipped("example5_2d"), "model": {"kind": "diagonal_flow", "stable_power": "steep"}},
        {**shipped("example5_2d"), "model": {"kind": ["diagonal_flow"]}},
        *(_with(*case) for case in _OUT_OF_RANGE.values()),
    ],
    ids=["grids_number", "tolerances_list", "read_without_lag_frac", "reads_number", "cert_samples", "residual_samples",
         "window", "fractional_count", "flow_theta0", "flow_alpha0", "wobble_stable_power", "wobble_unstable_power",
         "power_string", "kind_list", *_OUT_OF_RANGE],
)
def test_bad_sections_fail_before_any_stage(tmp_path, capsys, monkeypatch, doc):
    # every section is an object and every value has its default's type when
    # the scenario is parsed, so a bad one never reaches the stage that uses it
    ran = []
    monkeypatch.setattr(cli_report, "run_admissibility", lambda res: ran.append(res))
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "r.json")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    assert ran == [] and not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("name", ["example5_2d", "example5_2d_negative_theta", "negative_delta", "wobble_certificate"])
def test_size_budget_counts_the_models_coordinates_and_admits_the_shipped_scenarios(name):
    res = resolve(parse_scenario(shipped(name)))
    assert res.model.n == cli_report._COORDINATES[res.scenario.model["kind"]]
    # the flagship at t_step 0.125 and b_step 0.015625: a field of 73 x 769 x 2 x 65 numbers
    refined = _with("grids", "t_step", 0.125)
    refined["grids"]["b_step"] = 0.015625
    grid = resolve(parse_scenario(refined)).grid
    assert len(grid.t_grid()) * len(grid.b_grid()) * 2 * (grid.m + 1) == 7_297_810 <= cli_report._SIZE_BUDGET


def test_certificate_budgets_reject_at_parse_time_without_allocating(tmp_path, capsys):
    for key, value in (("cert_samples", 20_000_000), ("cert_m", 1_000_000)):
        doc = _with("checks", key, value)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="the scenario's certificate"):
                parse_scenario(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16
    # the edges: 5 x 83,886 x 5 sample numbers fit 2^21, and 64 x 7 x (18,723 + 1) x 2 block numbers fit 2^24
    pairs, samples = cli_report._SERIES_BUDGET // 25, cli_report._SIZE_BUDGET // (64 * 7 * 2)
    for key, fits in (("cert_samples", pairs), ("cert_m", samples - 1)):
        parse_scenario(_with("checks", key, fits))
        with pytest.raises(ConfigError, match="the scenario's certificate"):
            parse_scenario(_with("checks", key, fits + 1))
    # the benchmark's largest certificate, 2000 wobble pairs, passes; --samples takes the same check
    wobble = shipped("wobble_certificate")
    wobble.setdefault("checks", {})["cert_samples"] = 2000
    parse_scenario(wobble)
    path = tmp_path / "wobble.json"
    path.write_text(json.dumps(wobble))
    assert main(["verify-dichotomy", "--config", str(path), "--samples", "20000000"]) == EXIT_CONFIG
    assert "certificate sample rows" in capsys.readouterr().err


# the grid geometry near its edges: one, two or three nodes on an axis, odd or tiny m (reads off the segment
# grid), cells under a node apart; the explicit example has the two b nodes that once ended in a traceback
@given(
    t_step=st.floats(min_value=0.3, max_value=14.0),
    b_max=st.floats(min_value=0.1, max_value=6.0),
    b_cells=st.floats(min_value=0.3, max_value=6.0),
    m=st.sampled_from([1, 2, 3, 4, 6, 8, 16, 32]),
)
@example(t_step=0.5, b_max=4.0, b_cells=1.0, m=32)
@settings(max_examples=25, deadline=None)
def test_grid_geometry_fuzz_ends_in_a_documented_exit(tmp_path_factory, t_step, b_max, b_cells, m):
    doc = coarse_flagship()
    doc["grids"].update(t_step=t_step, b_max=b_max, b_step=2.0 * b_max / b_cells, m=m)
    doc["checks"].update(cert_samples=20, residual_samples=10)
    folder = tmp_path_factory.mktemp("fuzz")
    (folder / "sc.json").write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(folder / "sc.json"), "--out", str(folder / "r.json")])
    assert code in (EXIT_PASS, EXIT_CONFIG, EXIT_ADMISSIBILITY, EXIT_CERTIFICATE, EXIT_SOLVER)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_CONFIG:
        assert err.getvalue().startswith("config error: ")
    else:
        assert json.loads((folder / "r.json").read_text())["exit_code"] == code


def test_perturbation_without_reads_is_a_config_error():
    doc = coarse_flagship()
    del doc["perturbation"]["reads"]
    with pytest.raises(ConfigError, match="'reads' in scenario.perturbation"):
        resolve(parse_scenario(doc))


def test_misaligned_read_lag_is_a_config_error(tmp_path, capsys, monkeypatch):
    # lag 0.3 r sits between samples of the m = 32 segment grid; it is
    # rejected when the scenario is resolved, before any stage runs
    doc = coarse_flagship()
    doc["perturbation"]["reads"][1]["lag_frac"] = 0.3
    with pytest.raises(ConfigError, match="not grid-aligned"):
        resolve(parse_scenario(doc))
    ran = []
    monkeypatch.setattr(cli_report, "run_admissibility", lambda res: ran.append(res))
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(doc))
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    assert "not grid-aligned" in capsys.readouterr().err and ran == []


def test_resolution_matches_reference_build(flagship):
    res = resolve(parse_scenario(shipped("example5_2d")))
    ref = flagship["params"]
    for field in ("alpha", "beta", "theta", "nu", "eps", "a", "gamma", "xi", "q", "K", "K_tilde", "N", "D", "delta", "lam"):
        assert getattr(res.params, field) == pytest.approx(getattr(ref, field), rel=1e-12)
    assert res.pert.label == "saturating_cross"
    assert res.model.d_u == 1


@pytest.mark.parametrize("name", ["example5_2d", "example5_2d_negative_theta", "negative_delta", "wobble_certificate"])
def test_params_copy_the_models_constants(name):
    res = resolve(parse_scenario(shipped(name)))
    for field in ("K", "alpha", "beta", "theta", "nu", "K_tilde", "a", "eps", "N"):
        assert getattr(res.params, field) == getattr(res.model, field), field
    assert res.params.D == derived_constant_D(res.model)


def test_flow_powers_change_the_flow_not_the_declaration():
    doc = shipped("example5_2d")
    doc["model"]["stable_power"] = -1.0
    model = resolve(parse_scenario(doc)).model
    assert (model.alpha, model.beta) == (0.8, 0.6)
    # under mu = e^t a power coordinate's coefficient is the power itself
    assert model.coeff(0.3).tolist() == [-1.0, 0.6]


def test_xi_defaults_to_window_midpoint():
    doc = shipped("example5_2d")
    del doc["params"]["xi"]
    res = resolve(parse_scenario(doc))
    assert res.params.xi == pytest.approx(0.6)


def test_negative_theta_short_circuits():
    res = resolve(parse_scenario(shipped("example5_2d_negative_theta")))
    rep = run_pipeline(res)
    assert rep["status"] == "admissibility_failed"
    assert rep["exit_code"] == EXIT_ADMISSIBILITY
    assert "dichotomy" not in rep["stages"]
    entries = {e["name"]: e for e in rep["stages"]["admissibility"]["report"]["entries"]}
    assert not entries["nonuniformity_floor"]["pass"]


def test_certificate_failure_exits_three():
    # a uniform dichotomy (theta = eps = 0) satisfies the scalar hypotheses,
    # but the wobbling flow is not uniform, so its certificate fails
    doc = shipped("wobble_certificate")
    doc["params"].update(theta=0.0, eps=0.0)
    rep = run_pipeline(resolve(parse_scenario(doc)))
    assert rep["stages"]["admissibility"]["status"] == "pass"
    assert rep["status"] == "certificate_failed"
    assert rep["exit_code"] == EXIT_CERTIFICATE
    assert "conjugacy" not in rep["stages"]


@pytest.mark.parametrize(
    "name, declared, code",
    [
        ("wobble_certificate", {"theta": 0.0, "eps": 0.0}, EXIT_CERTIFICATE),
        ("wobble_certificate", {"alpha": 1.0}, EXIT_CERTIFICATE),
        ("wobble_certificate", {"theta": 0.0}, EXIT_ADMISSIBILITY),
        ("example5_2d", {"K": 1.0}, EXIT_CERTIFICATE),
    ],
    ids=["wobble_uniform", "wobble_alpha0_rate", "wobble_theta_only", "flagship_unit_K"],
)
def test_declared_constants_reach_the_certificate(tmp_path, name, declared, code):
    # the constants that params declare are the ones the certificate checks
    doc = shipped(name)
    doc["params"].update(declared)
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["run", "--config", str(path), "--out", str(out)]) == code
    rep = json.loads(out.read_text())
    if code == EXIT_CERTIFICATE:
        assert rep["stages"]["admissibility"]["status"] == "pass"
        assert rep["status"] == "certificate_failed"


def test_solver_failure_exits_four():
    doc = coarse_flagship()
    doc["name"] = "diverging_control"
    doc["params"]["gamma"] = 0.5
    doc["perturbation"] = {
        "shape": "linear_cross",
        "reads": [{"coord": 0, "lag_frac": 1.0}, {"coord": 1, "lag_frac": 0.5}],
        "gain": 2.0,
    }
    doc["tolerances"]["max_sweeps"] = 10
    rep = run_pipeline(resolve(parse_scenario(doc)))
    assert rep["status"] == "solver_failed"
    assert rep["exit_code"] == EXIT_SOLVER
    assert rep["stages"]["conjugacy"]["status"] == "not_contracting"
    assert len(rep["stages"]["conjugacy"]["sweeps"]) <= 10


def test_two_unstable_coordinates_exit_four_without_a_traceback(tmp_path, capsys):
    # admissibility and the certificate pass; the field solver handles one
    # unstable coordinate, so the conjugacy stage reports it as unsupported
    doc = coarse_flagship()
    doc["model"]["stable_power"] = 0.5
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["run", "--config", str(path), "--out", str(out)]) == EXIT_SOLVER
    assert "Traceback" not in capsys.readouterr().err
    rep = json.loads(out.read_text())
    assert rep["status"] == "solver_failed"
    assert rep["stages"]["dichotomy"]["status"] == "pass"
    assert rep["stages"]["conjugacy"]["status"] == "unsupported"


def test_unconverged_solve_exits_four():
    # the gain-0.3 linear coupling needs more than three sweeps on the coarse grid
    doc = coarse_flagship()
    doc["perturbation"] = {
        "shape": "linear_cross",
        "reads": [{"coord": 0, "lag_frac": 1.0}, {"coord": 1, "lag_frac": 0.5}],
        "gain": 0.3,
    }
    doc["tolerances"]["max_sweeps"] = 3
    rep = run_pipeline(resolve(parse_scenario(doc)))
    assert rep["status"] == "solver_failed"
    assert rep["exit_code"] == EXIT_SOLVER
    conj = rep["stages"]["conjugacy"]
    assert conj["status"] == "no_convergence"
    summary = conj["summary"]
    assert not summary["converged"] and len(summary["sweeps"]) == 3
    assert summary["fixed_point_residual_1mu"] == summary["sweeps"][-1]["delta_1mu"] > summary["solver_tol"]


def test_zero_solver_tol_is_a_legal_setting():
    doc = coarse_flagship()
    doc["tolerances"]["solver_tol"] = 0.0
    assert resolve(parse_scenario(doc)).solver_tol == 0.0


def test_negative_delta_scenario_fails_admissibility():
    rep = run_pipeline(resolve(parse_scenario(shipped("negative_delta"))))
    assert rep["exit_code"] == EXIT_ADMISSIBILITY
    entries = {e["name"]: e for e in rep["stages"]["admissibility"]["report"]["entries"]}
    assert not entries["delta_ceiling"]["pass"]


def test_wobble_pipeline_passes_with_trivial_conjugacy():
    rep = run_pipeline(resolve(parse_scenario(shipped("wobble_certificate"))))
    assert rep["status"] == "pass"
    assert rep["stages"]["conjugacy"]["status"] == "trivial"


def test_report_reproducibility():
    doc = shipped("wobble_certificate")
    a = report_json(strip_timings(run_pipeline(resolve(parse_scenario(doc)))))
    b = report_json(strip_timings(run_pipeline(resolve(parse_scenario(doc)))))
    assert a == b


def test_report_json_serializes_numpy_values():
    doc = {"f": np.float64(0.1), "i": np.int64(3), "b": np.bool_(True), "a": np.array([[1.5, 2.0]])}
    assert json.loads(report_json(doc)) == {"f": 0.1, "i": 3, "b": True, "a": [[1.5, 2.0]]}


def test_seed_changes_certificate_sampling():
    doc = shipped("wobble_certificate")
    r1 = run_pipeline(resolve(parse_scenario(doc)))
    doc2 = dict(doc)
    doc2["seed"] = doc["seed"] + 1
    r2 = run_pipeline(resolve(parse_scenario(doc2)))
    w1 = r1["stages"]["dichotomy"]["certificate"]["bounds"][0]["worst_ratio"]
    w2 = r2["stages"]["dichotomy"]["certificate"]["bounds"][0]["worst_ratio"]
    assert w1 != w2


@pytest.fixture(scope="module")
def coarse_run(tmp_path_factory):
    doc = coarse_flagship()
    path = tmp_path_factory.mktemp("cli") / "coarse.json"
    path.write_text(json.dumps(doc))
    rep = run_pipeline(resolve(parse_scenario(doc)))
    return {"doc": doc, "path": path, "report": rep}


def test_coarse_pipeline_passes(coarse_run):
    assert coarse_run["report"]["status"] == "pass"


def test_shipped_flagship_pipeline_passes():
    rep = run_pipeline(resolve(parse_scenario(shipped("example5_2d"))))
    assert rep["status"] == "pass"
    assert rep["exit_code"] == EXIT_PASS
    conj = rep["stages"]["conjugacy"]
    assert conj["status"] == "converged"
    assert conj["residuals"]["pass"]
    assert conj["invertibility"]["monotone"] is True
    assert len(conj["residuals"]["rows"]) == 200
    assert all(row["mu"] >= 0.0 for row in conj["residuals"]["rows"])


def test_envelope_ratios_below_one_for_scalar_stable():
    rep = run_pipeline(resolve(parse_scenario(shipped("wobble_certificate"))))
    rows = emit_plot_data(rep, "envelope").splitlines()[1:]
    assert all(float(line.split(",")[-1]) <= 1.0 + 1e-9 for line in rows)


def test_emit_plot_kinds(coarse_run):
    rep = coarse_run["report"]
    contraction = emit_plot_data(rep, "contraction").splitlines()
    assert contraction[0] == "k,delta_1mu,ratio"
    assert len(contraction) >= 2
    residual = emit_plot_data(rep, "residual").splitlines()
    assert residual[0] == "t,s,b,raw,mu"
    assert len(residual) == 1 + coarse_run["doc"]["checks"]["residual_samples"]
    envelope = emit_plot_data(rep, "envelope").splitlines()
    assert envelope[0] == "t,s,measured,bound,ratio"
    ratios = [float(line.split(",")[-1]) for line in envelope[1:]]
    assert max(ratios) <= 1.0 + 0.05


def test_emit_plot_missing_series():
    rep = run_pipeline(resolve(parse_scenario(shipped("example5_2d_negative_theta"))))
    with pytest.raises(MissingSeries):
        emit_plot_data(rep, "envelope")
    with pytest.raises(MissingSeries):
        emit_plot_data(rep, "unknown")


def test_residual_plot_zero_perturbation():
    doc = coarse_flagship()
    doc["perturbation"] = {"shape": "zero"}
    rep = run_pipeline(resolve(parse_scenario(doc)))
    rows = emit_plot_data(rep, "residual").splitlines()[1:]
    assert all(float(line.split(",")[4]) < 1e-6 for line in rows)


def test_cli_check_params_exit_codes(tmp_path, capsys):
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(shipped("example5_2d")))
    assert main(["check-params", "--config", str(ok)]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "pass"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(shipped("example5_2d_negative_theta")))
    assert main(["check-params", "--config", str(bad)]) == EXIT_ADMISSIBILITY


def test_cli_config_error_exit(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check-params", "--config", str(path)]) == EXIT_CONFIG
    missing = tmp_path / "missing.json"
    assert main(["check-params", "--config", str(missing)]) == EXIT_CONFIG


def test_cli_run_and_emit_plot(tmp_path, coarse_run):
    out = tmp_path / "report.json"
    assert main(["run", "--config", str(coarse_run["path"]), "--out", str(out)]) == EXIT_PASS
    rep = json.loads(out.read_text())
    assert rep["schema"] == "mu-lab/run-report/v1"
    csv_out = tmp_path / "series.csv"
    assert main(["emit-plot", "--report", str(out), "--kind", "contraction", "--out", str(csv_out)]) == EXIT_PASS
    assert csv_out.read_text().startswith("k,delta_1mu,ratio")


def test_cli_verify_dichotomy(tmp_path):
    path = tmp_path / "wobble.json"
    path.write_text(json.dumps(shipped("wobble_certificate")))
    assert main(["verify-dichotomy", "--config", str(path), "--samples", "50"]) == EXIT_PASS
    doc = shipped("wobble_certificate")
    doc["params"].update(theta=0.0, eps=0.0)
    path.write_text(json.dumps(doc))
    assert main(["verify-dichotomy", "--config", str(path), "--samples", "50"]) == EXIT_CERTIFICATE


@pytest.mark.parametrize("name", ["example5_2d", "example5_2d_negative_theta", "negative_delta", "wobble_certificate"])
def test_verify_dichotomy_prints_the_run_certificate_less_its_series(tmp_path, name):
    out = tmp_path / "cert.json"
    code = main(["verify-dichotomy", "--config", str(SCENARIOS / f"{name}.json"), "--out", str(out)])
    full = run_dichotomy(resolve(parse_scenario(shipped(name))))
    series = full["certificate"].pop("series")
    assert len(series) == 5 and out.read_text() == report_json(full)
    assert code == (EXIT_PASS if full["status"] == "pass" else EXIT_CERTIFICATE)


def test_verify_dichotomy_builds_no_series(tmp_path):
    # 10,000 pairs: the certificate keeps 5 x 10,000 x 5 sample numbers, 2 MB; the series' Python lists of them,
    # which the command once built and then dropped, took the peak to 13.3 MB
    args = ["verify-dichotomy", "--config", str(SCENARIOS / "example5_2d.json"), "--samples", "10000"]
    args += ["--out", str(tmp_path / "cert.json")]
    assert main(args) == EXIT_PASS
    tracemalloc.start()
    try:
        assert main(args) == EXIT_PASS
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6_000_000


def test_cli_build_and_verify_conjugacy(tmp_path, coarse_run):
    result = tmp_path / "result.json"
    assert main(["build-conjugacy", "--config", str(coarse_run["path"]), "--out", str(result)]) == EXIT_PASS
    assert result.exists()
    assert Path(str(result) + ".eta.npz").exists()
    assert Path(str(result) + ".residuals.csv").read_text().startswith("t,s,b,raw,mu")
    assert main(["verify-conjugacy", "--result", str(result), "--samples", "30", "--seed", "5"]) == EXIT_PASS


@pytest.fixture(scope="module")
def built_result(tmp_path_factory, coarse_run):
    result = tmp_path_factory.mktemp("built") / "result.json"
    assert main(["build-conjugacy", "--config", str(coarse_run["path"]), "--out", str(result)]) == EXIT_PASS
    return result


# each sidecar array as the built result saved it, changed so that it no longer fits the result's scenario
_SIDECAR_TAMPERS = {
    "intact": lambda side: side,
    "dropped_coordinate": lambda side: {**side, "values": side["values"][:, :, 1:], "dvalues": side["dvalues"][:, :, 1:]},
    "missing_dvalues": lambda side: {key: a for key, a in side.items() if key != "dvalues"},
    "values_a_row_short": lambda side: {**side, "values": side["values"][1:]},
    "m16_under_m32": lambda side: {**side, "values": side["values"][..., ::2], "dvalues": side["dvalues"][..., ::2]},
    "xi_off": lambda side: {**side, "xi": side["xi"] + 1.0},
}


@pytest.mark.parametrize("tamper", list(_SIDECAR_TAMPERS))
def test_a_sidecar_that_does_not_fit_its_result_is_a_config_error(tmp_path, capsys, built_result, tamper):
    # unless the sidecar is checked against the scenario, the first three tampers end in tracebacks, and the m = 16
    # field under the m = 32 scenario and a field weighted with another xi verify as a pass; the intact copy is the
    # control
    result = tmp_path / "result.json"
    result.write_text(built_result.read_text())
    with np.load(str(built_result) + ".eta.npz") as npz:
        side = dict(npz)
    np.savez_compressed(str(result) + ".eta.npz", **_SIDECAR_TAMPERS[tamper](side))
    capsys.readouterr()
    code = main(["verify-conjugacy", "--result", str(result), "--samples", "3"])
    if tamper == "intact":
        assert code == EXIT_PASS
    else:
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: field sidecar")


@pytest.mark.parametrize("cut", [0, 9, 2000], ids=["empty", "text", "truncated"])
def test_an_unreadable_sidecar_is_a_config_error(tmp_path, capsys, built_result, cut):
    result = tmp_path / "result.json"
    result.write_text(built_result.read_text())
    sidecar = Path(str(built_result) + ".eta.npz").read_bytes()[:cut] if cut != 9 else b"not a zip"
    Path(str(result) + ".eta.npz").write_bytes(sidecar)
    capsys.readouterr()
    assert main(["verify-conjugacy", "--result", str(result), "--samples", "3"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: field sidecar")


def test_tol_override_flag(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(shipped("wobble_certificate")))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "r.json"), "--tol", "cert_tol=0.5"]) == EXIT_PASS
    assert main(["run", "--config", str(path), "--tol", "bogus=1"]) == EXIT_CONFIG


@pytest.mark.parametrize("override", ["tail_tol=-1e-6", "tail_tol=0", "max_span=-5", "cert_tol=-0.5"])
def test_tol_overrides_are_range_checked(tmp_path, capsys, override):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(coarse_flagship()))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "r.json"), "--tol", override]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: scenario.tolerances.") and not (tmp_path / "r.json").exists()


def test_samples_overrides_are_range_checked(tmp_path, capsys, coarse_run):
    # --samples goes into the scenario's checks, so a count no stage can draw is a config error
    path = tmp_path / "wobble.json"
    path.write_text(json.dumps(shipped("wobble_certificate")))
    result = tmp_path / "result.json"
    assert main(["build-conjugacy", "--config", str(coarse_run["path"]), "--out", str(result)]) == EXIT_PASS
    capsys.readouterr()
    for samples in ("0", "-2"):
        assert main(["verify-dichotomy", "--config", str(path), "--samples", samples]) == EXIT_CONFIG
        assert "scenario.checks.cert_samples must be positive" in capsys.readouterr().err
        assert main(["verify-conjugacy", "--result", str(result), "--samples", samples]) == EXIT_CONFIG
        assert "scenario.checks.residual_samples must be positive" in capsys.readouterr().err
    out = tmp_path / "v.json"
    assert main(["verify-conjugacy", "--result", str(result), "--samples", "3", "--out", str(out)]) == EXIT_PASS
    assert json.loads(out.read_text())["samples"] == 3


def test_overrides_leave_a_bad_section_to_the_parser(tmp_path, capsys):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps({**shipped("wobble_certificate"), "tolerances": [1], "checks": 5}))
    assert main(["run", "--config", str(path), "--tol", "tail_tol=1e-5"]) == EXIT_CONFIG
    assert main(["verify-dichotomy", "--config", str(path), "--samples", "50"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("config error: scenario.") == 2 and "Traceback" not in err


@pytest.mark.parametrize("name", ["example5_2d_negative_theta", "negative_delta"])
def test_build_conjugacy_stops_at_admissibility(tmp_path, capsys, name):
    # build-conjugacy runs the admissibility stage first, as run does, and builds nothing past a failure
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(shipped(name)))
    result = tmp_path / "result.json"
    assert main(["check-params", "--config", str(path)]) == EXIT_ADMISSIBILITY
    assert main(["build-conjugacy", "--config", str(path), "--out", str(result)]) == EXIT_ADMISSIBILITY
    assert "admissibility failed" in capsys.readouterr().err
    assert not result.exists() and not Path(str(result) + ".eta.npz").exists()


@pytest.mark.parametrize("gamma, frac", [(1.2, 1e-6), (1.19, 1e-9)], ids=["exp_branch", "power_branch"])
def test_pipeline_runs_past_an_overflowing_tail_cut(gamma, frac):
    # admissible scenarios whose stable tail cut overflows a float: with gamma - theta = alpha
    # (k2 = 0) the closed form is an exponential, otherwise a power; either way the whole tail
    # is below the tolerance, and the pipeline runs through
    doc = coarse_flagship()
    doc["params"].update(gamma=gamma, delta_frac=frac, lambda_frac=frac)
    rep = run_pipeline(resolve(parse_scenario(doc)))
    assert rep["stages"]["admissibility"]["status"] == "pass"
    assert rep["stages"]["conjugacy"]["status"] == "converged"


def test_threads_env_var(monkeypatch):
    # the operator sweeps take their thread count from the CPUs the process may
    # run on; no environment variable sets it, and the report does not name it
    doc = shipped("wobble_certificate")
    monkeypatch.setenv("MU_LAB_THREADS", "zero")
    rep = run_pipeline(resolve(parse_scenario(doc)))
    assert rep["status"] == "pass"
    assert "threads" not in rep


def test_linear_terms_kind_is_rejected(tmp_path):
    # every scenario is a diagonal flow; a raw system's n/terms keys are unknown model keys
    doc = {
        "name": "raw_system",
        "growth_rate": "exp",
        "delay": 1.0,
        "model": {"kind": "linear_terms", "n": 1, "terms": [{"lag": 0.0, "matrix": [[-0.4]]}]},
    }
    with pytest.raises(ConfigError, match=r"scenario\.model"):
        parse_scenario(doc)
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(doc))
    assert main(["check-params", "--config", str(path)]) == EXIT_CONFIG
