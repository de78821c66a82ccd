"""Scenario documents for the benchmark workloads.

Every document is generated from a scenario shipped in
``src/mu_lab/scenarios`` plus explicit overrides; the shipped files are
only read.  The benchmark seed becomes each document's ``seed``, which
drives the certificate's random time pairs and the residual samples.

An op is one pass over a workload's tasks.  Why each workload exists:

* ``flagship`` -- the shipped ``example5_2d`` as users run it.  The
  conjugacy operator (Picard sweeps) dominates, then the scalar RK4
  residual integrations.
* ``coarse_poly`` -- the same system under the polynomial rate on the
  test suite's coarse grid.  Operator batches are small, so the scalar
  residual integrator and the ``np.piecewise`` rate callables dominate; an
  operator-only change should not move it.
* ``certificates`` -- dichotomy certificates and the admissibility
  short-circuit; the integrator and the conjugacy layer do no work.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "src" / "mu_lab" / "scenarios"

COARSE_GRID = {"m": 32, "t_min": -3.0, "t_max": 3.0, "t_step": 0.5, "b_max": 4.0, "b_step": 0.25}
WOBBLE_CERT_SAMPLES = 2000
FLAGSHIP_DICHOTOMY_SAMPLES = 400


@dataclass(frozen=True)
class Task:
    """One scenario run inside an op.

    ``mode`` is ``pipeline`` (``run_pipeline``) or ``dichotomy``
    (``run_dichotomy`` with ``samples`` time pairs); ``expect`` is the
    status the program must report.
    """

    label: str
    doc: dict
    mode: str
    expect: str
    samples: Optional[int] = None


def shipped(name: str) -> dict:
    return json.loads((SCENARIO_DIR / f"{name}.json").read_text())


def scenario(name: str, seed: int, **sections) -> dict:
    """The shipped scenario ``name`` with ``seed`` set and sections updated key by key."""
    doc = copy.deepcopy(shipped(name))
    doc["seed"] = int(seed)
    for section, values in sections.items():
        if isinstance(values, dict):
            doc.setdefault(section, {}).update(values)
        else:
            doc[section] = values
    return doc


def _flagship(seed: int) -> list:
    return [Task("example5_2d", scenario("example5_2d", seed), "pipeline", "pass")]


def _coarse_poly(seed: int) -> list:
    doc = scenario(
        "example5_2d", seed, growth_rate="poly", grids=COARSE_GRID, tolerances={"tail_tol": 1e-5}
    )
    return [Task("example5_2d_poly_coarse", doc, "pipeline", "pass")]


def _certificates(seed: int) -> list:
    wobble = scenario("wobble_certificate", seed, checks={"cert_samples": WOBBLE_CERT_SAMPLES})
    return [
        Task("wobble_certificate", wobble, "pipeline", "pass"),
        Task("example5_2d_dichotomy", scenario("example5_2d", seed), "dichotomy", "pass", FLAGSHIP_DICHOTOMY_SAMPLES),
        Task("example5_2d_negative_theta", scenario("example5_2d_negative_theta", seed), "pipeline", "admissibility_failed"),
        Task("negative_delta", scenario("negative_delta", seed), "pipeline", "admissibility_failed"),
    ]


WORKLOADS = {"flagship": _flagship, "coarse_poly": _coarse_poly, "certificates": _certificates}


def tasks(workload: str, seed: int) -> list:
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return WORKLOADS[workload](seed)


def digest(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def run_task(cli_report, task: Task) -> dict:
    """Parse, resolve and run one task through mu_lab's public entry points.

    Names are looked up on the module at call time, so the traced run's
    wrappers see every call.
    """
    res = cli_report.resolve(cli_report.parse_scenario(task.doc))
    if task.mode == "dichotomy":
        return cli_report.run_dichotomy(res, samples=task.samples)
    return cli_report.run_pipeline(res)
