"""Output checks for every task of every op.

A task passes when its status is the expected one and, for a converged
conjugacy solve, when

* the solver reports convergence,
* the fixed-point residual is at most twice the solver tolerance,
* the scenario's own residual gate passes,
* the seed-independent outputs match ``reference.json``, recorded from
  this program by ``record.py``: the sweep count exactly, ``norms.inf_mu``
  and ``norms.dinf_mu`` to the relative tolerance ``NORM_RTOL``, and
* the measured contraction ratio is at most ``RATIO_CEIL``.  The solves
  converge in two sweeps, the second of which updates the field by
  roundoff only (about 1e-15), so the ratio is a quotient of roundoff, near
  1e-11: no relative tolerance can hold it, but a ratio above the ceiling
  means the first sweep no longer lands on the fixed point.  For the same
  reason the per-sweep updates add nothing: the first equals the norms,
  the later ones are roundoff.

The recorded outputs are needed because the residual gate alone passes an
unsolved zero field.

Certificate worst ratios depend on the seed, because the time pairs are
random draws.  Each family's worst ratio must pass the certificate
(at most ``1 + cert_tol``) and lie in the band recorded over a survey of
seeds (``SURVEY_SEEDS`` of them), widened to ``[BAND_LO * low, BAND_HI * high]``;
a family recorded as exactly zero must stay zero.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
NORM_RTOL = 1e-8
RATIO_CEIL = 1e-9
SURVEY_SEEDS = 20
BAND_LO = 0.5
BAND_HI = 1.1


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(Path(path).read_text())


def certificate_of(task, out: dict):
    if task.mode == "dichotomy":
        return out["certificate"]
    dich = out.get("stages", {}).get("dichotomy")
    return dich["certificate"] if dich else None


def worst_ratios(cert: dict) -> dict:
    return {b["bound_name"]: float(b["worst_ratio"]) for b in cert["bounds"]}


def conjugacy_outputs(conj: dict) -> dict:
    """The seed-independent outputs of a converged solve, as recorded."""
    summary = conj["summary"]
    return {
        "sweeps": len(summary["sweeps"]),
        "inf_mu": float(summary["norms"]["inf_mu"]),
        "dinf_mu": float(summary["norms"]["dinf_mu"]),
    }


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * abs(b)


def check_task(task, out: dict, ref: dict) -> list:
    """Problems found in one task's output; an empty list means it passed."""
    problems = []
    status = out["status"]
    if status != task.expect:
        problems.append(f"status {status!r}, expected {task.expect!r}")
    cert = certificate_of(task, out)
    if cert is not None:
        tol = float(cert["tolerance"])
        bands = ref.get("worst_ratio_band", {})
        for name, ratio in worst_ratios(cert).items():
            if not ratio <= 1.0 + tol:
                problems.append(f"certificate {name}: worst ratio {ratio} above 1 + {tol}")
            if name not in bands:
                continue
            lo, hi = bands[name]
            if hi == 0.0:
                if ratio != 0.0:
                    problems.append(f"certificate {name}: worst ratio {ratio}, recorded as exactly 0")
            elif not BAND_LO * lo <= ratio <= BAND_HI * hi:
                problems.append(f"certificate {name}: worst ratio {ratio} outside [{BAND_LO * lo}, {BAND_HI * hi}]")
    conj = out.get("stages", {}).get("conjugacy") if task.mode == "pipeline" else None
    if conj is not None and conj.get("status") == "converged":
        summary = conj["summary"]
        if not summary["converged"]:
            problems.append("solver did not converge")
        fpr = float(summary["fixed_point_residual_1mu"])
        if not fpr <= 2.0 * float(summary["solver_tol"]):
            problems.append(f"fixed-point residual {fpr} above 2 * solver_tol")
        if not conj["residuals"]["pass"]:
            problems.append(f"residual gate failed: max_mu {conj['residuals']['max_mu']}")
        got = conjugacy_outputs(conj)
        if "sweeps" in ref and got["sweeps"] != ref["sweeps"]:
            problems.append(f"sweep count {got['sweeps']}, recorded {ref['sweeps']}")
        for key in ("inf_mu", "dinf_mu"):
            if key in ref and not _close(got[key], ref[key], NORM_RTOL):
                problems.append(f"norms.{key} {got[key]!r}, recorded {ref[key]!r}")
        ratio = float(summary["contraction_rate_measured"])
        if not ratio <= RATIO_CEIL:
            problems.append(f"contraction ratio {ratio!r} above {RATIO_CEIL}")
    elif "sweeps" in ref:
        problems.append("no converged conjugacy solve, but one was recorded")
    return problems
