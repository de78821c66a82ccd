"""Tests of the benchmark itself: names, provenance, output checks, tracing, comparison.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import compare
import run
import spans
import workloads
from mu_lab import cli_report
from mu_lab.conjugacy import EtaField, verify_residuals

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def small_task(seed=3):
    """coarse_poly's scenario with few residual samples and certificate pairs, for speed."""
    doc = workloads.scenario(
        "example5_2d", seed, growth_rate="poly", grids=workloads.COARSE_GRID,
        tolerances={"tail_tol": 1e-5}, checks={"residual_samples": 6, "cert_samples": 20},
    )
    return workloads.Task("small", doc, "pipeline", "pass")


def conjugacy_reference():
    ref = checks.load_reference()["coarse_poly"]["example5_2d_poly_coarse"]
    return {k: ref[k] for k in ("sweeps", "inf_mu", "dinf_mu")}


@pytest.fixture(scope="module")
def small_report():
    return workloads.run_task(cli_report, small_task())


def test_metric_names_are_valid_and_match_the_runner():
    names = [m["name"] for section in ("end_to_end", "per_layer") for m in SPEC[section]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(NAME.fullmatch(w["name"]) for w in SPEC["workloads"])
    emitted = set(run.layer_metrics(spans.Tracer(), 0, {})) | {"trace.overhead_s"}
    assert emitted == {m["name"] for m in SPEC["per_layer"]}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_documents_follow_the_seed():
    for name in workloads.WORKLOADS:
        a, b = workloads.tasks(name, 5), workloads.tasks(name, 5)
        assert [t.doc["seed"] for t in a] == [5] * len(a)
        assert [workloads.digest(t.doc) for t in a] == [workloads.digest(t.doc) for t in b]
        assert [workloads.digest(t.doc) for t in a] != [workloads.digest(t.doc) for t in workloads.tasks(name, 6)]
    assert workloads.shipped("example5_2d")["seed"] == 20240
    assert [t.expect for t in workloads.tasks("certificates", 0)].count("admissibility_failed") == 2
    with pytest.raises(ValueError):
        workloads.tasks("flagship", -1)


def test_checks_pass_the_solved_field(small_report):
    task = small_task()
    assert small_report["status"] == "pass"
    assert checks.check_task(task, small_report, conjugacy_reference()) == []
    wrong = json.loads(json.dumps(small_report))
    wrong["status"] = "solver_failed"
    assert checks.check_task(task, wrong, conjugacy_reference())
    slow = json.loads(json.dumps(small_report))
    slow["stages"]["conjugacy"]["summary"]["contraction_rate_measured"] = 1e-3
    assert [p for p in checks.check_task(task, slow, conjugacy_reference()) if "contraction ratio" in p]


def test_zero_field_negative_control_counts_as_failed(small_report):
    """The residual gate passes an unsolved zero field; the recorded outputs do not."""
    task = small_task()
    res = cli_report.resolve(cli_report.parse_scenario(task.doc))
    eta = EtaField.zero(res.grid, res.model.n, res.model.r, res.mu, res.params.xi, res.params.eps)
    rows = verify_residuals(eta, res.model, res.pert, n_samples=6, horizon=1.5, seed=4)
    max_mu = max(r.weighted for r in rows)
    assert max_mu <= res.checks["residual_mu_max"]  # the program's own gate lets it through

    zero = json.loads(json.dumps(small_report))
    conj = zero["stages"]["conjugacy"]
    conj["summary"]["norms"] = {"inf": eta.norm_inf(), "inf_mu": eta.norm_inf_mu(),
                                "dinf_mu": eta.dnorm_inf_mu(), "one_mu": eta.norm_1mu()}
    conj["residuals"].update(max_mu=max_mu, rows=[r.to_dict() for r in rows], **{"pass": True})
    problems = checks.check_task(task, zero, conjugacy_reference())
    assert any("norms.inf_mu" in p for p in problems)


def test_certificate_band():
    task = workloads.tasks("certificates", 0)[0]
    out = {"status": "pass", "stages": {"dichotomy": {"certificate": {
        "tolerance": 0.05, "bounds": [{"bound_name": "stable", "worst_ratio": 0.99},
                                      {"bound_name": "unstable", "worst_ratio": 0.0}]}}}}
    ref = {"worst_ratio_band": {"stable": [0.98, 0.999], "unstable": [0.0, 0.0]}}
    assert checks.check_task(task, out, ref) == []
    out["stages"]["dichotomy"]["certificate"]["bounds"][0]["worst_ratio"] = 0.2
    out["stages"]["dichotomy"]["certificate"]["bounds"][1]["worst_ratio"] = 1e-3
    assert len(checks.check_task(task, out, ref)) == 2


def traced_ops(task, n):
    tracer = spans.Tracer()
    reports = []
    for op in range(n):
        tracer.op = op
        with spans.installed(tracer):
            reports.append(workloads.run_task(cli_report, task))
    return tracer, reports


def test_traced_run_is_faithful(small_report):
    original = cli_report.resolve
    tracer, reports = traced_ops(small_task(), 2)
    assert cli_report.resolve is original
    for report in reports:
        assert cli_report.report_json(cli_report.strip_timings(report)) == \
            cli_report.report_json(cli_report.strip_timings(small_report))

    first, second = (run.layer_metrics(tracer, op, {}) for op in (0, 1))
    exact = ["dde_core.rk4_steps", "conjugacy.quadrature_nodes", "conjugacy.interp_queries",
             "growth_rate.eval.calls", "growth_rate.deriv.calls", "growth_rate.inverse.calls",
             "growth_rate.ratio_bound_N.calls"]
    for name in exact:
        assert first[name] == second[name], name
    assert all(first[n] > 0 for n in exact if n != "growth_rate.deriv.calls")
    assert first["conjugacy.residual_samples"] == 6 and first["conjugacy.operator_sweeps"] == 3


def test_wobble_rate_calls_are_traced():
    """The wobble model looks its rate up in dichotomy; its certificate's rate calls must be counted."""
    def eval_calls(samples):
        doc = workloads.scenario("wobble_certificate", 3, checks={"cert_samples": samples})
        tracer, _ = traced_ops(workloads.Task("wobble", doc, "pipeline", "pass"), 1)
        return run.layer_metrics(tracer, 0, {})["growth_rate.eval.calls"]

    assert eval_calls(40) > eval_calls(20) > 0


def test_spans_nest_and_yield_self_time():
    tracer, _ = traced_ops(small_task(), 1)
    records = tracer.records()
    assert records and all(r["start"] <= r["end"] and r["op"] == 0 for r in records)
    assert all(-1 <= r["parent"] < r["id"] for r in records)
    inclusive, own = tracer.inclusive(0), tracer.self_times(0)
    assert set(own) == set(inclusive)
    assert all(-1e-9 <= own[n] <= inclusive[n] + 1e-12 for n in own)
    top = sum(inclusive[n] for n in ("cli_report.resolve", "cli_report.run_admissibility",
                                     "cli_report.run_dichotomy", "cli_report.run_conjugacy"))
    assert sum(own.values()) == pytest.approx(top, rel=1e-9)


def write_records(tmp_path, label, values, failed=0, trace=0):
    paths = []
    for i, v in enumerate(values):
        path = tmp_path / f"{label}{i}.json"
        metrics = {m["name"]: {"value": v, "unit": m["unit"]} for m in SPEC["per_layer" if trace else "end_to_end"]}
        path.write_text(json.dumps({"workload": "flagship", "seed": i, "trace": trace, "attempted": 2,
                                    "failed": failed, "metrics": metrics}))
        paths.append(path)
    return paths


def test_compare_verdicts(tmp_path):
    steady = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    parent = write_records(tmp_path, "p", steady)
    faster = write_records(tmp_path, "f", [0.7 * v for v in steady])
    slower = write_records(tmp_path, "s", [1.5 * v for v in steady])
    same = write_records(tmp_path, "q", list(reversed(steady)))
    noisy = write_records(tmp_path, "n", [0.5, 1.5, 0.6, 1.4, 1.0, 0.5, 1.5, 0.7, 1.3, 1.0])
    broken_fast = write_records(tmp_path, "b", [0.5 * v for v in steady], failed=1)
    traced = write_records(tmp_path, "t", steady, trace=1)

    def verdicts(p, c):
        return {r["verdict"] for r in compare.pair_rows(p, c)}

    assert verdicts(parent, faster) == {"gain"}
    assert verdicts(parent, slower) == {"regression"}
    assert verdicts(parent, same) == {"within bound"}
    assert verdicts(noisy, same) == {"unresolved"}
    assert verdicts(parent, broken_fast) == {"more failures"}  # fast because it failed is no gain
    assert compare.main(["pairs", "--parent", *map(str, parent), "--change", *map(str, broken_fast)]) != 0
    assert compare.main(["pairs", "--parent", *map(str, parent), "--change", *map(str, faster)]) == 0
    assert {r["status"] for r in compare.spread_rows(broken_fast)} == {"failed ops"}
    assert {r["metric"] for r in compare.spread_rows(traced)} == {m["name"] for m in SPEC["per_layer"]}
    with pytest.raises(ValueError):
        compare.spread_rows(parent + traced)
    with pytest.raises(ValueError):
        compare.pair_rows(parent, traced)
    row = compare.spread_rows(parent)[0]
    assert row["spread"] == pytest.approx((row["q3"] - row["q1"]) / row["median"])
    assert compare.quartiles(steady) == tuple(__import__("statistics").quantiles(steady, n=4))


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certificates", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_speed_gauge_scales_and_restores_the_alarm_handler():
    import signal
    import time

    import speed

    before = signal.getsignal(signal.SIGALRM)
    with speed.Gauge(interval=0.005) as gauge:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            sum(range(100))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(gauge.speeds) > 2 and 0 < gauge.inside_wall < 0.1
    wall, cpu = gauge.at_reference(1.0, 0.5)
    assert wall == pytest.approx((1.0 - gauge.inside_wall) * gauge.speed())
    assert cpu == pytest.approx((0.5 - gauge.inside_cpu) * gauge.speed())
