"""The benchmark tracer (perfbench/spans.py) patches library names; each must exist."""

import importlib.util
from pathlib import Path

from mu_lab import cli_report, conjugacy, dde_core, phase_space

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
        (conjugacy, "solve_perturbed_R"),
        (dde_core, "solve_perturbed"),
        (dde_core, "interpolate"),
        (phase_space, "interpolate"),
    ]
    originals = [getattr(owner, attr) for owner, attr in names]
    with spans.installed(spans.Tracer()):
        assert all(getattr(owner, attr) is not fn for (owner, attr), fn in zip(names, originals))
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(names, originals))
