"""Scenario-driven pipeline: parameter checks, certificates, conjugacy, reports.

A scenario is a strict JSON document (unknown keys are rejected with their
path).  The `run` subcommand executes check-params -> verify-dichotomy ->
build-conjugacy -> verify-conjugacy, short-circuiting on the first failing
stage; individual subcommands expose each stage on its own.  Reports are
deterministic for a fixed scenario and seed, timings aside.

Exit codes: 0 pass, 1 config error, 2 admissibility failure, 3 certificate
failure, 4 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .admissibility import (
    ParamSet,
    default_xi,
    delta_ceiling,
    full_report,
    lambda_ceiling,
)
from .conjugacy import (
    ConjugacyResult,
    EtaField,
    GridSpec,
    TruncationPolicy,
    check_solver_settings,
    invertibility_check,
    picard_solve,
    verify_residuals,
)
from .dde_core import Perturbation, linear_cross_perturbation, saturating_cross_perturbation
from .dichotomy import (
    REFERENCE_CONSTANTS,
    DichotomyCertificate,
    DichotomyModel,
    model_params,
    power_model,
    sin_wobble_model,
    verify_bounds,
)
from .errors import (
    ConfigError,
    EmptyWindow,
    MissingSeries,
    MuLabError,
    NotContracting,
    OutOfDomain,
    TruncationUnreachable,
    XiOutOfWindow,
)
# ratio_bound_N is not called here; perfbench's tracer wraps it under this module's name
from .growth_rate import rate_by_id, ratio_bound_N  # noqa: F401
from .phase_space import lag_index

SCHEMA_RUN = "mu-lab/run-report/v1"
SCHEMA_RESULT = "mu-lab/conjugacy-result/v1"

EXIT_PASS = 0
EXIT_CONFIG = 1
EXIT_ADMISSIBILITY = 2
EXIT_CERTIFICATE = 3
EXIT_SOLVER = 4


def _check_keys(section: dict, allowed: set, path: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {path}")


def _require(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"missing required key {key!r} in {path}")
    return section[key]


def _number(value, cast, path: str):
    """value cast to a finite float or an int, or a ConfigError naming its path; an int is never truncated."""
    try:
        if cast is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(value)
        number = cast(value)
        if cast is float and not math.isfinite(number):
            raise ValueError(value)
        return number
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path} must be {'an integer' if cast is int else 'a finite number'}, got {value!r}") from exc


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path} must be an object, got {value!r}")
    return dict(value)


def _typed(value, default, path: str):
    """value cast to its default's type: a number, or a pair of numbers for a window."""
    if isinstance(default, list):
        if not isinstance(value, list) or len(value) != len(default):
            raise ConfigError(f"{path} must be a pair of numbers, got {value!r}")
        return [_number(v, float, path) for v in value]
    return _number(value, type(default), path)


@dataclass
class Scenario:
    """Raw but validated scenario sections."""

    name: str
    growth_rate: str
    delay: float
    seed: int
    model: dict
    params: dict
    perturbation: dict
    grids: dict
    tolerances: dict
    checks: dict
    raw: dict


@dataclass
class ResolvedScenario:
    scenario: Scenario
    mu: object
    model: DichotomyModel
    params: ParamSet
    pert: Perturbation
    grid: GridSpec
    trunc: TruncationPolicy
    solver_tol: float
    max_sweeps: int
    cert_tol: float
    checks: dict
    seed: int


_TOP_KEYS = {
    "name",
    "growth_rate",
    "delay",
    "seed",
    "model",
    "params",
    "perturbation",
    "grids",
    "tolerances",
    "checks",
}
# the dichotomy constants a scenario declares for its model; the ParamSet copies them from the model
_DECLARED_KEYS = ("alpha", "beta", "theta", "nu", "eps", "a", "K", "K_tilde")
_PARAM_KEYS = {*_DECLARED_KEYS, "gamma", "xi", "q", "delta_frac", "lambda_frac"}
# each model kind with the numbers its section may set besides "kind"
_MODEL_KEYS = {"diagonal_flow": ("stable_power", "unstable_power"), "sin_wobble": ("alpha0", "theta0")}
_PERT_KEYS = {"shape", "reads", "gain"}
# the optional sections, each key with its default; a scenario may set only these keys
_DEFAULTS = {
    "grids": {"m": 64, "t_min": -4.5, "t_max": 4.5, "t_step": 0.25, "b_max": 6.0, "b_step": 0.03125},
    "tolerances": {"tail_tol": 1e-6, "max_span": 60.0, "solver_tol": 1e-6, "max_sweeps": 25, "cert_tol": 0.05},
    "checks": {
        "window": [-10.0, 10.0],
        "cert_samples": 200,
        "cert_m": 48,
        "residual_samples": 200,
        "residual_horizon_delays": 3.0,
        "core_window": [-2.0, 2.0],
        "b_scale": 2.0,
        "residual_mu_max": 5e-3,
    },
}
# the numbers that a stage divides by, counts with, draws over or cuts a tail at: each must be positive
_POSITIVE = {
    "grids": ("m", "t_step", "b_max", "b_step"),
    "tolerances": ("tail_tol", "max_span"),
    "checks": ("cert_samples", "cert_m", "residual_samples", "residual_horizon_delays", "b_scale"),
}


# numbers in one plane of the solved field, nt * nb * n * (m+1), or in the residual check's lattice: 2^24,
# 128 MiB of float64; a gathered sweep holds four such planes, the values and derivatives it reads and writes
_SIZE_BUDGET = 2**24
# numbers in a certificate's sample rows (5 families x cert_samples x 5 columns), which the report copies into its
# series lists as Python floats, about 32 bytes each plus a list per row: 2^21, some 84,000 time pairs
_SERIES_BUDGET = 2**21
# each model kind's number of coordinates
_COORDINATES = {"diagonal_flow": 2, "sin_wobble": 1}


def _parse_model(model: dict) -> dict:
    """The model section: a known kind, and only that kind's keys, each a number."""
    kind = _require(model, "kind", "scenario.model")
    if not isinstance(kind, str) or kind not in _MODEL_KEYS:
        raise ConfigError(f"unknown model kind {kind!r} in scenario.model")
    keys = _MODEL_KEYS[kind]
    _check_keys(model, {"kind", *keys}, f"scenario.model of kind {kind!r}")
    return {"kind": kind, **{key: _number(model[key], float, f"scenario.model.{key}") for key in keys if key in model}}


def _nodes(span: float, step: float) -> float:
    """GridSpec's node count over span at step, as a float: inf past float range."""
    cells = span / step
    return float(round(cells) + 1) if math.isfinite(cells) else math.inf


def _numbers(*counts) -> float:
    """The product of counts as a float: inf past float range."""
    try:
        return math.prod(float(count) for count in counts)
    except OverflowError:  # an int count past float range
        return math.inf


def _check_ranges(sections: dict, n: int) -> None:
    """Reject values no stage can run on.

    That is a non-positive count, step, scale or tolerance, a reversed or
    infinitely wide window, a grid axis with too few nodes, a field or
    residual lattice of a model with n coordinates over _SIZE_BUDGET
    numbers, a certificate near pair over a 64th of it, or certificate
    sample rows over _SERIES_BUDGET.
    """
    for key, names in _POSITIVE.items():
        for name in names:
            if not sections[key][name] > 0:
                raise ConfigError(f"scenario.{key}.{name} must be positive, got {sections[key][name]!r}")
    cert_tol = sections["tolerances"]["cert_tol"]
    if not cert_tol >= 0:
        raise ConfigError(f"scenario.tolerances.cert_tol must be non-negative, got {cert_tol!r}")
    grids, checks = sections["grids"], sections["checks"]
    windows = {"grids.t_min/t_max": (grids["t_min"], grids["t_max"])}
    windows.update({f"checks.{name}": checks[name] for name in ("window", "core_window")})
    for path, (lo, hi) in windows.items():
        if not lo < hi:
            raise ConfigError(f"scenario.{path} must be increasing, got {[lo, hi]}")
        if not math.isfinite(hi - lo):
            raise ConfigError(f"scenario.{path} must have a finite width, got {[lo, hi]}")
    # t needs one interpolation cell; b also needs the central difference of the invertibility check
    nodes = {}
    for name, span, need in (("t_step", grids["t_max"] - grids["t_min"], 2), ("b_step", 2.0 * grids["b_max"], 3)):
        nodes[name] = _nodes(span, grids[name])
        if nodes[name] < need:
            raise ConfigError(
                f"scenario.grids.{name} {grids[name]!r} leaves {nodes[name]:.0f} grid node(s); this axis needs {need}"
            )
    m = grids["m"]
    _check_size("field (t nodes x b nodes x coordinates x (m + 1))", _numbers(nodes["t_step"], nodes["b_step"], n, m + 1))
    # m is within the budget now, so multiplying it by a float cannot overflow
    steps = m + 1 + checks["residual_horizon_delays"] * m
    _check_size(
        "residual lattice (samples x (m + 1 + horizon steps) x coordinates)",
        _numbers(checks["residual_samples"], steps, n),
    )
    # a near time pair's largest certificate array holds (cert_m + 1) x max(n, probes x unstable coordinates) floats,
    # at most its 2n + 3 probe segments (dichotomy._probe_segments); the check keeps those within a 64th of the budget
    _check_size(
        "certificate near pair (probes x (cert_m + 1) x coordinates)",
        _numbers(2 * n + 3, checks["cert_m"] + 1, n),
        _SIZE_BUDGET // 64,
    )
    _check_size(
        "certificate sample rows (5 families x cert_samples x 5 columns)",
        _numbers(5, checks["cert_samples"], 5),
        _SERIES_BUDGET,
    )


def _check_size(what: str, numbers: float, budget: int = _SIZE_BUDGET) -> None:
    if not numbers <= budget:
        raise ConfigError(f"the scenario's {what} holds {numbers:.3g} numbers, over the budget of {budget}")


def parse_scenario(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ConfigError("scenario root must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "scenario")
    name = str(_require(doc, "name", "scenario"))
    growth = str(_require(doc, "growth_rate", "scenario"))
    if growth not in ("exp", "poly", "log"):
        raise ConfigError(f"growth_rate must be exp/poly/log, got {growth!r}")
    delay = _number(_require(doc, "delay", "scenario"), float, "scenario.delay")
    if delay <= 0:
        raise ConfigError(f"delay must be positive, got {delay}")
    seed = _number(doc.get("seed", 0), int, "scenario.seed")
    model = _parse_model(_object(_require(doc, "model", "scenario"), "scenario.model"))
    params = _object(doc.get("params", {}), "scenario.params")
    _check_keys(params, _PARAM_KEYS, "scenario.params")
    params = {key: _number(value, float, f"scenario.params.{key}") for key, value in params.items()}
    pert = _object(doc.get("perturbation", {"shape": "zero"}), "scenario.perturbation")
    _check_keys(pert, _PERT_KEYS, "scenario.perturbation")
    sections = {}
    for key, defaults in _DEFAULTS.items():
        user = _object(doc.get(key, {}), f"scenario.{key}")
        _check_keys(user, set(defaults), f"scenario.{key}")
        sections[key] = {name: _typed(user.get(name, d), d, f"scenario.{key}.{name}") for name, d in defaults.items()}
    _check_ranges(sections, _COORDINATES[model["kind"]])
    reads = pert.get("reads", [])
    if not isinstance(reads, list):
        raise ConfigError(f"scenario.perturbation.reads must be a list, got {reads!r}")
    for rec in reads:
        rec = _object(rec, "scenario.perturbation.reads[]")
        _check_keys(rec, {"coord", "lag_frac"}, "scenario.perturbation.reads[]")
        for key in ("coord", "lag_frac"):
            _require(rec, key, "scenario.perturbation.reads[]")
    return Scenario(
        name=name,
        growth_rate=growth,
        delay=delay,
        seed=seed,
        model=model,
        params=params,
        perturbation=pert,
        raw=doc,
        **sections,
    )


def _read_json(path, what: str = "scenario"):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def load_scenario(path) -> Scenario:
    return parse_scenario(_read_json(path))


def _resolve_model(sc: Scenario) -> DichotomyModel:
    """The scenario's model; every declared constant in params overrides the builder's, for either kind."""
    kind = sc.model["kind"]
    declared = {key: float(sc.params[key]) for key in _DECLARED_KEYS if key in sc.params}
    if kind == "diagonal_flow":
        # the powers default to the declared rates: (mu(t)/mu(s))^(-alpha) and ^beta
        rates = {**REFERENCE_CONSTANTS, **declared}
        powers = (sc.model.get("stable_power", -rates["alpha"]), sc.model.get("unstable_power", rates["beta"]))
        return power_model(rate_by_id(sc.growth_rate), sc.delay, powers, label=sc.name, **declared)
    # parse_scenario admits no other kind than these two
    if sc.growth_rate != "exp":
        raise ConfigError("sin_wobble model requires growth_rate 'exp'")
    shape = {key: value for key, value in sc.model.items() if key != "kind"}
    return sin_wobble_model(sc.delay, **shape, **declared)


def _resolve_params(sc: Scenario, model: DichotomyModel) -> ParamSet:
    """The model's ParamSet; the scenario adds only gamma, q, xi and the delta/lambda fractions of their ceilings."""
    p = sc.params
    probe = model_params(model, gamma=float(p.get("gamma", 1.5)), q=float(p.get("q", 1.0)), xi=1.0, delta=1.0, lam=1.0)
    try:
        probe = probe.with_(xi=float(p["xi"]) if "xi" in p else default_xi(probe))
    except EmptyWindow as exc:
        raise ConfigError(f"scenario.params: {exc}") from exc
    delta = float(p.get("delta_frac", 0.5)) * delta_ceiling(probe)
    try:
        lam = float(p.get("lambda_frac", 0.5)) * lambda_ceiling(probe)
    except (EmptyWindow, XiOutOfWindow) as exc:
        raise ConfigError(f"scenario.params: lambda_frac needs xi inside its window ({exc})") from exc
    return probe.with_(delta=delta, lam=lam)


def _resolve_perturbation(sc: Scenario, model: DichotomyModel, params: ParamSet, m: int) -> Perturbation:
    """The scenario's perturbation; every read must sit on the field's segment grid of m + 1 samples."""
    shape = sc.perturbation.get("shape", "zero")
    n = model.n
    if shape == "zero":
        return Perturbation.zero(n)
    reads_spec = _require(sc.perturbation, "reads", "scenario.perturbation")
    reads = [(int(rec["coord"]), float(rec["lag_frac"]) * sc.delay) for rec in reads_spec]
    for coord, lag in reads:
        if not 0 <= coord < n:
            raise ConfigError(f"perturbation read coordinate {coord} outside 0..{n - 1}")
        lag_index(sc.delay, m, lag)  # OutOfDomain unless the lag is on the grid, within [0, delay]
    if shape == "saturating_cross":
        return saturating_cross_perturbation(model.mu, params, reads=reads, n=n)
    if shape == "linear_cross":
        gain = float(_require(sc.perturbation, "gain", "scenario.perturbation"))
        return linear_cross_perturbation(model.mu, params, reads=reads, n=n, gain=gain)
    raise ConfigError(f"unknown perturbation shape {shape!r}")


def resolve(sc: Scenario) -> ResolvedScenario:
    """Model, params, perturbation and solver settings; a scenario value they reject raises ConfigError."""
    try:
        grid = GridSpec(**sc.grids)
        model = _resolve_model(sc)
        params = _resolve_params(sc, model)
        pert = _resolve_perturbation(sc, model, params, grid.m)
        t = sc.tolerances
        check_solver_settings(t["solver_tol"], t["max_sweeps"])
        return ResolvedScenario(
            scenario=sc,
            mu=model.mu,
            model=model,
            params=params,
            pert=pert,
            grid=grid,
            trunc=TruncationPolicy(tail_tol=t["tail_tol"], max_span=t["max_span"]),
            solver_tol=t["solver_tol"],
            max_sweeps=t["max_sweeps"],
            cert_tol=t["cert_tol"],
            checks=sc.checks,
            seed=sc.seed,
        )
    except (TypeError, ValueError, OutOfDomain) as exc:
        raise ConfigError(f"scenario {sc.name!r}: {exc}") from exc
    except OverflowError as exc:
        raise ConfigError(f"scenario {sc.name!r}: a value leaves float range: {exc}") from exc


def run_admissibility(res: ResolvedScenario) -> dict:
    report = full_report(res.params)
    return {
        "status": "pass" if report.passed else "fail",
        "report": report.to_dict(),
        "params": {k: getattr(res.params, k) for k in (
            "alpha", "beta", "theta", "nu", "eps", "a", "gamma", "xi", "delta", "lam", "q", "K", "K_tilde", "N", "D",
        )},
    }


def _certificate(res: ResolvedScenario, samples: Optional[int] = None) -> tuple[DichotomyCertificate, dict]:
    """The scenario's certificate and its report section without the series."""
    cert = verify_bounds(
        res.model,
        tuple(res.checks["window"]),
        samples if samples is not None else res.checks["cert_samples"],
        seed=res.seed,
        tol=res.cert_tol,
        m=res.checks["cert_m"],
    )
    return cert, {"status": "pass" if cert.passed else "fail", "certificate": cert.to_dict()}


def run_dichotomy(res: ResolvedScenario, samples: Optional[int] = None) -> dict:
    cert, out = _certificate(res, samples)
    out["certificate"]["series"] = {c.name: c.samples.tolist() for c in cert.checks}
    return out


def _residual_check(res: ResolvedScenario, eta: EtaField, seed: int):
    """Residual rows on the scenario's checks, their largest weighted value, and the residual_mu_max gate."""
    rows = verify_residuals(
        eta,
        res.model,
        res.pert,
        n_samples=res.checks["residual_samples"],
        horizon=res.checks["residual_horizon_delays"] * res.scenario.delay,
        core=tuple(res.checks["core_window"]),
        b_scale=res.checks["b_scale"],
        seed=seed,
    )
    max_mu = max((r.weighted for r in rows), default=0.0)
    return rows, max_mu, max_mu <= res.checks["residual_mu_max"]


def run_conjugacy(res: ResolvedScenario) -> dict:
    if res.model.d_u == 0:
        return {"status": "trivial", "note": "no unstable direction; the conjugacy is the identity"}
    if res.model.d_u > 1:
        note = f"the field solver handles one unstable coordinate, not {res.model.d_u}"
        return {"status": "unsupported", "note": note}
    try:
        result = picard_solve(
            res.model,
            res.pert,
            res.params,
            res.grid,
            res.trunc,
            solver_tol=res.solver_tol,
            max_sweeps=res.max_sweeps,
        )
    except NotContracting as exc:
        return {"status": "not_contracting", "sweeps": getattr(exc, "sweeps", []), "error": str(exc)}
    except TruncationUnreachable as exc:
        return {"status": "truncation_unreachable", "error": str(exc)}
    if not result.converged:
        return {"status": "no_convergence", "summary": result.summary()}
    rows, max_mu, residual_ok = _residual_check(res, result.eta, res.seed + 1)
    inv = invertibility_check(result, res.model)
    return {
        "status": "converged",
        "summary": result.summary(),
        "invertibility": inv,
        "residuals": {
            "samples": len(rows),
            "max_mu": max_mu,
            "max_raw": max((r.raw for r in rows), default=0.0),
            "pass": residual_ok,
            "rows": [r.to_dict() for r in rows],
        },
        "_result": result,
    }


_STAGES = (  # stage, the status a failure sets, its exit code
    ("admissibility", "admissibility_failed", EXIT_ADMISSIBILITY),
    ("dichotomy", "certificate_failed", EXIT_CERTIFICATE),
    ("conjugacy", "solver_failed", EXIT_SOLVER),
)


def run_pipeline(res: ResolvedScenario) -> dict:
    """Full pipeline with short-circuiting; returns the run report dict."""
    report = {
        "schema": SCHEMA_RUN,
        "name": res.scenario.name,
        "seed": res.seed,
        "stages": {},
        "timings": {},
    }
    for stage, failed, code in _STAGES:
        t0 = time.perf_counter()
        out = globals()[f"run_{stage}"](res)  # looked up per call, so wrappers installed on the module see it
        out.pop("_result", None)
        report["timings"][stage] = time.perf_counter() - t0
        report["stages"][stage] = out
        if not (out["status"] in ("pass", "trivial") or (out["status"] == "converged" and out["residuals"]["pass"])):
            report["status"] = failed
            report["exit_code"] = code
            return report
    report["status"] = "pass"
    report["exit_code"] = EXIT_PASS
    return report


def _numpy_json(obj):
    """json.dumps hook: numpy scalars and arrays as their Python values."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, default=_numpy_json)


def strip_timings(report: dict) -> dict:
    out = dict(report)
    out.pop("timings", None)
    return out


def _residual_csv(rows: list) -> str:
    """The residual table as CSV, one line per sample row of a report."""
    lines = ["t,s,b,raw,mu"]
    for r in rows:
        lines.append(f"{r['t']:.12g},{r['s']:.12g},{r['b']:.12g},{r['raw']:.12g},{r['mu']:.12g}")
    return "\n".join(lines) + "\n"


def emit_plot_data(report: dict, kind: str) -> str:
    """CSV series extracted from a run report."""
    stages = report.get("stages", {})
    if kind == "contraction":
        conj = stages.get("conjugacy", {})
        sweeps = conj.get("summary", {}).get("sweeps")
        if not sweeps:
            raise MissingSeries("report has no conjugacy sweeps")
        lines = ["k,delta_1mu,ratio"]
        for s in sweeps:
            ratio = "" if s["ratio"] is None else f"{s['ratio']:.12g}"
            lines.append(f"{s['k']},{s['delta_1mu']:.12g},{ratio}")
        return "\n".join(lines) + "\n"
    if kind == "residual":
        conj = stages.get("conjugacy", {})
        rows = conj.get("residuals", {}).get("rows")
        if rows is None:
            raise MissingSeries("report has no residual table")
        return _residual_csv(rows)
    if kind == "envelope":
        dich = stages.get("dichotomy", {})
        series = dich.get("certificate", {}).get("series", {}).get("stable")
        if series is None:
            raise MissingSeries("report has no stable-bound series")
        lines = ["t,s,measured,bound,ratio"]
        for t, s, meas, bound, ratio in series:
            lines.append(f"{t:.12g},{s:.12g},{meas:.12g},{bound:.12g},{ratio:.12g}")
        return "\n".join(lines) + "\n"
    raise MissingSeries(f"unknown series kind {kind!r}")


# ---------------------------------------------------------------------------
# conjugacy result persistence
# ---------------------------------------------------------------------------


def save_conjugacy_result(path, res: ResolvedScenario, conj: dict) -> None:
    path = Path(path)
    doc = {
        "schema": SCHEMA_RESULT,
        "scenario": res.scenario.raw,
        "status": conj["status"],
    }
    for key in ("summary", "invertibility", "residuals", "sweeps", "error", "note"):
        if key in conj:
            doc[key] = conj[key]
    result: Optional[ConjugacyResult] = conj.get("_result")
    if result is not None:
        eta = result.eta
        np.savez_compressed(
            Path(str(path) + ".eta.npz"),
            t_grid=eta.t_grid,
            b_grid=eta.b_grid,
            values=eta.data[0],
            dvalues=eta.data[1],
            r=np.array(eta.r),
            xi=np.array(eta.xi),
            eps=np.array(eta.eps),
        )
        rows = doc.get("residuals", {}).get("rows", [])
        Path(str(path) + ".residuals.csv").write_text(_residual_csv(rows))
    path.write_text(report_json(doc))


_SIDECAR_KEYS = ("t_grid", "b_grid", "values", "dvalues", "r", "xi", "eps")


def load_conjugacy_result(path, **checks):
    """The result document, its resolved scenario with checks overriding the scenario's, and its field.

    The field sidecar must be an .npz archive that holds every array
    save_conjugacy_result writes and fits the scenario: its t_grid and
    b_grid are the scenario's grid, values and dvalues both have shape
    (nt, nb, n, m + 1) for the scenario's model and segment samples, and r,
    xi and eps are the delay and weight exponents the scenario solves with.
    A sidecar that does not is a ConfigError.
    """
    path = Path(path)
    doc = _read_json(path, "result")
    if doc.get("schema") != SCHEMA_RESULT:
        raise ConfigError(f"{path} is not a conjugacy result document")
    res = resolve(parse_scenario(_apply_overrides(doc["scenario"], None, **checks)))
    npz_path = Path(str(path) + ".eta.npz")
    if not npz_path.exists():
        raise ConfigError(f"field sidecar missing: {npz_path}")
    try:
        with open(npz_path, "rb") as fh:  # np.load leaves its own file open when the archive is cut short
            npz = np.load(fh)
            missing = [key for key in _SIDECAR_KEYS if key not in getattr(npz, "files", ())]  # a .npy has none
            if missing:
                raise ConfigError(f"field sidecar {npz_path} lacks {missing}")
            side = {key: npz[key] for key in _SIDECAR_KEYS}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"field sidecar {npz_path} is not a readable .npz archive: {exc}") from exc
    t_grid, b_grid = res.grid.t_grid(), res.grid.b_grid()
    shape = (len(t_grid), len(b_grid), res.model.n, res.grid.m + 1)
    scalars = {"r": res.model.r, "xi": res.params.xi, "eps": res.params.eps}
    if not (
        np.array_equal(side["t_grid"], t_grid)
        and np.array_equal(side["b_grid"], b_grid)
        and side["values"].shape == side["dvalues"].shape == shape
        and all(side[key].shape == () and side[key] == value for key, value in scalars.items())
    ):
        raise ConfigError(f"field sidecar {npz_path} does not fit its scenario's {shape} field on its grid, {scalars}")
    data = np.stack([side["values"], side["dvalues"]])
    return doc, res, EtaField(t_grid, b_grid, data, scalars["r"], res.mu, scalars["xi"], scalars["eps"])


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _apply_overrides(doc: dict, tol_overrides, **checks) -> dict:
    """A copy of the scenario document with the --tol name=value items and the given checks set in it.

    parse_scenario then checks the overrides as it checks the document's own values.
    """
    overrides = {"tolerances": {}, "checks": {key: value for key, value in checks.items() if value is not None}}
    for item in tol_overrides or ():
        if "=" not in item:
            raise ConfigError(f"--tol expects name=value, got {item!r}")
        key, val = item.split("=", 1)
        if key not in _DEFAULTS["tolerances"]:
            raise ConfigError(f"--tol key must be one of {sorted(_DEFAULTS['tolerances'])}, got {key!r}")
        overrides["tolerances"][key] = _number(val, type(_DEFAULTS["tolerances"][key]), f"--tol {key}")
    doc = json.loads(json.dumps(doc))
    for section, values in overrides.items():
        # a document or section that is not an object is left for parse_scenario to reject
        if values and isinstance(doc, dict) and isinstance(doc.setdefault(section, {}), dict):
            doc[section].update(values)
    return doc


def _load_resolved(args, **checks) -> ResolvedScenario:
    doc = _apply_overrides(_read_json(args.config), args.tol, **checks)
    if args.seed is not None:
        doc["seed"] = args.seed
    return resolve(parse_scenario(doc))


def _emit(args, payload: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(payload)
    else:
        print(payload, end="" if payload.endswith("\n") else "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="mu-lab", description="dichotomy and conjugacy laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="scenario JSON file")
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--seed", type=int, help="override the scenario seed")
        p.add_argument("--tol", action="append", help="override a tolerance, name=value", default=None)

    add_common(sub.add_parser("check-params", help="evaluate every scalar hypothesis"))
    p = sub.add_parser("verify-dichotomy", help="measure the five bound families")
    add_common(p)
    p.add_argument("--samples", type=int, help="override the sample count")
    p = sub.add_parser("build-conjugacy", help="solve for the correction field")
    add_common(p)
    p = sub.add_parser("verify-conjugacy", help="re-check residuals of a stored result")
    p.add_argument("--result", required=True, help="result JSON from build-conjugacy")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", help="write output to this path instead of stdout")
    p = sub.add_parser("run", help="full pipeline with short-circuiting")
    add_common(p)
    p = sub.add_parser("emit-plot", help="extract a CSV series from a run report")
    p.add_argument("--report", required=True)
    p.add_argument("--kind", required=True, choices=["envelope", "residual", "contraction"])
    p.add_argument("--out", help="write CSV here instead of stdout")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except MissingSeries as exc:
        print(f"missing series: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except MuLabError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_SOLVER


def _dispatch(args) -> int:
    if args.command == "check-params":
        res = _load_resolved(args)
        out = run_admissibility(res)
        _emit(args, report_json(out))
        return EXIT_PASS if out["status"] == "pass" else EXIT_ADMISSIBILITY
    if args.command == "verify-dichotomy":
        res = _load_resolved(args, cert_samples=args.samples)
        # the short certificate: the series' Python lists would cost more than the certificate itself
        _, out = _certificate(res)
        _emit(args, report_json(out))
        return EXIT_PASS if out["status"] == "pass" else EXIT_CERTIFICATE
    if args.command == "build-conjugacy":
        res = _load_resolved(args)
        adm = run_admissibility(res)
        if adm["status"] != "pass":
            failed = [e["name"] for e in adm["report"]["entries"] if not e["pass"]]
            print(f"{res.scenario.name}: admissibility failed {failed}; no conjugacy built", file=_sys.stderr)
            return EXIT_ADMISSIBILITY
        out = run_conjugacy(res)
        target = args.out or "result.json"
        save_conjugacy_result(target, res, out)
        status = out["status"]
        print(f"{res.scenario.name}: conjugacy {status} -> {target}")
        if status in ("converged", "trivial"):
            return EXIT_PASS
        return EXIT_SOLVER
    if args.command == "verify-conjugacy":
        doc, res, eta = load_conjugacy_result(args.result, residual_samples=args.samples)
        rows, max_mu, ok = _residual_check(res, eta, args.seed)
        payload = report_json(
            {
                "samples": len(rows),
                "max_mu": max_mu,
                "threshold": res.checks["residual_mu_max"],
                "pass": ok,
            }
        )
        _emit(args, payload)
        return EXIT_PASS if ok else EXIT_SOLVER
    if args.command == "run":
        res = _load_resolved(args)
        report = run_pipeline(res)
        _emit(args, report_json(report))
        return int(report["exit_code"])
    if args.command == "emit-plot":
        report = _read_json(args.report, "report")
        _emit(args, emit_plot_data(report, args.kind))
        return EXIT_PASS
    raise ConfigError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
