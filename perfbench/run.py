"""mu-lab benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload flagship --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

An op is one pass over the workload's tasks (see workloads.py).  Ops run
back to back in this one process, closed loop, until the next op would end
past ``--seconds``; at least one op always runs.  Every task's output is
checked (checks.py) and an op with any problem counts as failed.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json:
median wall and CPU seconds per op, the median of ``SETUP_PROBES`` set-ups,
each timed in a fresh child process, and the peak resident set.  The
machine's speed swings by up to 2x in phases of seconds to minutes, so
every op and set-up time is scaled to a fixed reference speed by the gauge
of speed.py, sampled while it runs; the raw wall times go to the record
and the lines above the result.  The set-ups are spread over the run
between ops, in step with the op time spent, rather than made at once;
their time is not counted in ``--seconds``.  ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics from the traced
ones (spans.py), in raw wall seconds.  The last line of standard output is
the JSON result; the lines above it give the provenance and every metric
with its unit, and ``perfbench/results/`` receives the full record, spans
included.

``--workload all`` runs every workload in turn, each in its own process.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# must precede the first numpy import
os.environ.update({var: BLAS_THREADS for var in THREAD_VARS})

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 12
CHILD_TIMEOUT_S = 170
EXTRA_UNITS = {"run_wall_s": "s", "setup_wall_s": "s", "failed_frac": "ratio", "residual_max_mu": "1", "fixed_point_residual": "1"}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def measure_setup(workload: str, seed: int) -> tuple:
    """(wall, reference-speed) seconds of one set-up in a fresh child process."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    done = subprocess.run(probe, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    wall, scaled = done.stdout.strip().splitlines()[-2:]
    return float(wall), float(scaled)


def setups_due(op_s: float, seconds: float) -> int:
    """Set-ups to have made once ``op_s`` of the run's ``seconds`` are spent on ops."""
    return min(SETUP_PROBES, 1 + int((SETUP_PROBES - 1) * op_s / seconds))


def run_op(cli_report, tasks: list, refs: dict):
    """Run every task once; returns (outputs, problems)."""
    outputs, problems = [], []
    for task in tasks:
        try:
            out = workloads.run_task(cli_report, task)
        except Exception as exc:  # an op that raises is a failed op; keep measuring
            traceback.print_exc()
            problems.append(f"{task.label}: {type(exc).__name__}: {exc}")
            continue
        outputs.append((task, out))
        problems += [f"{task.label}: {p}" for p in checks.check_task(task, out, refs.get(task.label, {}))]
    return outputs, problems


def solver_outputs(outputs: list) -> dict:
    """Residual and clamp figures of the op's converged conjugacy solves (max over tasks)."""
    found = {}
    for task, out in outputs:
        conj = out.get("stages", {}).get("conjugacy", {}) if task.mode == "pipeline" else {}
        if conj.get("status") != "converged":
            continue
        summary = conj["summary"]
        for key, value in (
            ("residual_max_mu", conj["residuals"]["max_mu"]),
            ("fixed_point_residual", summary["fixed_point_residual_1mu"]),
            ("clamp_rate", summary["clamp_rate"]),
        ):
            found[key] = max(found.get(key, value), value)
    return found


def layer_metrics(tracer, op, solved: dict) -> dict:
    """Per-layer values of one traced op."""
    inc = tracer.inclusive(op)
    cnt = tracer.counts[op]
    busy = tracer.busy[op]
    out = {}
    for name in (
        "growth_rate.ratio_bound_N", "dde_core.solve_perturbed_R", "dichotomy.kernel",
        "admissibility.full_report", "conjugacy.orbit_quadrature", "conjugacy.interp_tables",
    ):
        out[f"{name}.calls"] = cnt[f"{name}.calls"]
        out[f"{name}.s"] = inc.get(name, 0.0)
    for name in ("growth_rate.eval", "growth_rate.deriv", "growth_rate.inverse", "phase_space.interpolate"):
        out[f"{name}.calls"] = cnt[f"{name}.calls"]
        out[f"{name}.s"] = busy.get(name, 0.0)
    for name in (
        "dichotomy.verify_bounds", "conjugacy.picard_solve", "conjugacy.verify_residuals",
        "conjugacy.invertibility_check", "cli_report.resolve", "cli_report.run_admissibility",
        "cli_report.run_dichotomy", "cli_report.run_conjugacy",
    ):
        out[f"{name}.s"] = inc.get(name, 0.0)
    for name in (
        "dde_core.rk4_steps", "dichotomy.time_pairs", "conjugacy.quadrature_nodes", "conjugacy.interp_queries",
        "conjugacy.gather_bytes", "conjugacy.contract_flops", "conjugacy.residual_samples",
    ):
        out[name] = cnt[name]
    steps_s = out["dde_core.solve_perturbed_R.s"]
    out["dde_core.steps_per_s"] = out["dde_core.rk4_steps"] / steps_s if steps_s > 0 else 0.0
    pairs_s = out["dichotomy.verify_bounds.s"]
    out["dichotomy.pairs_per_s"] = out["dichotomy.time_pairs"] / pairs_s if pairs_s > 0 else 0.0
    out["conjugacy.operator_sweeps"] = cnt["conjugacy.sweep.calls"]
    sweeps = tracer.durations(op, "conjugacy.sweep")
    out["conjugacy.sweep_s"] = statistics.median(sweeps) if sweeps else 0.0
    for key in ("clamp_rate", "residual_max_mu", "fixed_point_residual"):
        out[f"conjugacy.{key}"] = solved.get(key, 0.0)
    return out


def provenance(seed: int, tasks: list) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "seed": seed,
        "scenario_sha256": {t.label: workloads.digest(t.doc) for t in tasks},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    from mu_lab import cli_report

    import spans

    bench = spec()
    tasks = workloads.tasks(args.workload, args.seed)
    refs = checks.load_reference()[args.workload]
    setup = []

    def catch_up_setups(op_s: float) -> None:
        while not args.trace and len(setup) < setups_due(op_s, args.seconds):
            setup.append(measure_setup(args.workload, args.seed))

    tracer = spans.Tracer()
    walls, ref_walls, ref_cpus, traced_walls, layers = [], [], [], [], []
    attempted = failed = 0
    op_s = 0.0
    solved = {}
    problems_seen = []
    while True:
        catch_up_setups(op_s)
        traced = bool(args.trace) and attempted % 2 == 1
        tracer.op = attempted
        if traced:
            t0 = time.perf_counter()
            with spans.installed(tracer):
                outputs, problems = run_op(cli_report, tasks, refs)
            wall = time.perf_counter() - t0
        else:
            with speed.Gauge() as gauge:
                t0, c0 = time.perf_counter(), time.process_time()
                outputs, problems = run_op(cli_report, tasks, refs)
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        op_s += wall
        attempted += 1
        failed += bool(problems)
        problems_seen += [f"op {attempted - 1}: {p}" for p in problems]
        solved = solver_outputs(outputs)
        if traced:
            traced_walls.append(wall)
            layers.append(layer_metrics(tracer, attempted - 1, solved))
        else:
            walls.append(wall)
            ref_wall, ref_cpu = gauge.at_reference(wall, cpu)
            ref_walls.append(ref_wall)
            ref_cpus.append(ref_cpu)
        typical = statistics.median(walls + traced_walls)
        enough = bool(walls) and (bool(traced_walls) or not args.trace)
        if enough and op_s + typical > args.seconds:
            break
    catch_up_setups(args.seconds)

    values = {
        "run_s": statistics.median(ref_walls),
        "cpu_s": statistics.median(ref_cpus),
        "setup_s": statistics.median(s for _, s in setup) if setup else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        values = {name: statistics.median(op[name] for op in layers) for name in layers[0]}
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench[section]}
    extra = {
        "run_wall_s": statistics.median(walls),
        "setup_wall_s": statistics.median(w for w, _ in setup) if setup else None,
        "failed_frac": failed / attempted,
        "residual_max_mu": solved.get("residual_max_mu"),
        "fixed_point_residual": solved.get("fixed_point_residual"),
    }
    prov = provenance(args.seed, tasks)

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "attempted": attempted, "failed": failed, "problems": problems_seen, "metrics": metrics, "extra": extra,
        "provenance": prov, "op_wall_s": walls, "op_ref_s": ref_walls, "op_ref_cpu_s": ref_cpus,
        "traced_op_wall_s": traced_walls, "setup_wall_s_samples": [w for w, _ in setup],
        "setup_ref_s_samples": [s for _, s in setup],
    }
    if args.trace:
        record["self_s"] = {op: tracer.self_times(op) for op in sorted({s[4] for s in tracer.spans})}
        record["spans"] = tracer.records()
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    for p in problems_seen:
        print(f"perfbench: {p}", file=sys.stderr)
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} ops={attempted} failed={failed}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    if not args.trace:
        for key, value in extra.items():
            shown = "n/a (no conjugacy solve)" if value is None else f"{value!r} {EXTRA_UNITS[key]}"
            print(f"  {key} = {shown}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, timeout=CHILD_TIMEOUT_S + args.seconds * 4)
        if done.returncode != 0:
            print(f"perfbench: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        record = json.loads((RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
        rows += [(name, k, m["value"], m["unit"]) for k, m in record["metrics"].items()]
        if not args.trace:
            rows += [(name, k, v, EXTRA_UNITS[k]) for k, v in record["extra"].items()]
    print(f"{'workload':<14}{'metric':<42}{'value':>24}  unit")
    for name, metric, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<14}{metric:<42}{shown:>24}  {unit}")
    return 0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mu_lab" / "__init__.py").is_file() or not workloads.SCENARIO_DIR.is_dir():
        print(f"perfbench: no mu_lab sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
