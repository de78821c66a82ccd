import json
from pathlib import Path

import numpy as np
import pytest

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
    run_pipeline,
    strip_timings,
)
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
        (None, []),
    ],
    ids=["seed", "delay", "negative_alpha", "reads_per_coordinate", "tol_int", "tol_float", "missing_result"],
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
    ],
    ids=["grids_number", "tolerances_list", "read_without_lag_frac", "reads_number", "cert_samples", "residual_samples",
         "window", "fractional_count"],
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
    # the params block keeps the honest nonuniformity exponent, so the
    # scalar hypotheses pass, while the model's certificate claims theta = 0
    doc = shipped("wobble_certificate")
    doc["model"]["theta_override"] = 0.0
    doc["params"]["theta"] = 0.2
    rep = run_pipeline(resolve(parse_scenario(doc)))
    assert rep["stages"]["admissibility"]["status"] == "pass"
    assert rep["status"] == "certificate_failed"
    assert rep["exit_code"] == EXIT_CERTIFICATE
    assert "conjugacy" not in rep["stages"]


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
    doc["model"]["theta_override"] = 0.0
    path.write_text(json.dumps(doc))
    assert main(["verify-dichotomy", "--config", str(path), "--samples", "50"]) == EXIT_CERTIFICATE


def test_cli_build_and_verify_conjugacy(tmp_path, coarse_run):
    result = tmp_path / "result.json"
    assert main(["build-conjugacy", "--config", str(coarse_run["path"]), "--out", str(result)]) == EXIT_PASS
    assert result.exists()
    assert Path(str(result) + ".eta.npz").exists()
    assert Path(str(result) + ".residuals.csv").read_text().startswith("t,s,b,raw,mu")
    assert main(["verify-conjugacy", "--result", str(result), "--samples", "30", "--seed", "5"]) == EXIT_PASS


def test_tol_override_flag(tmp_path):
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(shipped("wobble_certificate")))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "r.json"), "--tol", "cert_tol=0.5"]) == EXIT_PASS
    assert main(["run", "--config", str(path), "--tol", "bogus=1"]) == EXIT_CONFIG


def test_threads_env_var(monkeypatch):
    # the stages run sequentially; a thread count is neither read nor reported
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
