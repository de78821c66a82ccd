"""Compare benchmark runs by the rule for claiming a gain or a regression.

    python3 perfbench/compare.py spread RESULT.json...
    python3 perfbench/compare.py pairs --parent P1.json P2.json... --change C1.json C2.json...

Inputs are the records run.py writes to ``perfbench/results/``.  Bounds
and directions come from BENCHMARK.json; rows are per workload and
end-to-end metric, or per-layer metric when the records are traced (traced
and untraced records are not mixed).

``spread`` reports, for one set of runs, the median, quartiles and the
quartile distance as a share of the median; a spread wider than the
metric's bound is ``unresolved``, and a set with failed ops is
``failed ops``.

``pairs`` matches the i-th parent and i-th change record of each workload,
runs that were made alternately.  It reports both sides' medians and
quartiles, the change's wins, ties and losses, and the parent's spread, and
a verdict:

* ``more failures`` -- the change's runs failed more ops than the
  parent's, whatever the times say;
* ``gain`` -- the change wins at least nine tenths of the pairs and the
  medians differ by more than the parent's quartile distance;
* ``regression`` -- the change's median is worse by more than the bound;
* ``unresolved`` -- the parent's spread exceeds the bound, unless every
  change run beats every parent run;
* ``within bound`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def quartiles(values: list):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def metric_specs(trace: int) -> dict:
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def load(paths: list):
    """(trace, workload -> list of records in the order given); traced and untraced records are not mixed."""
    out = defaultdict(list)
    traces = set()
    for path in paths:
        rec = json.loads(Path(path).read_text())
        traces.add(rec["trace"])
        out[rec["workload"]].append(rec)
    if len(traces) != 1:
        raise ValueError(f"records must be all traced or all untraced, got trace values {sorted(traces)}")
    return traces.pop(), out


def values(runs: list, name: str) -> list:
    return [r["metrics"][name]["value"] for r in runs]


def failed(runs: list) -> int:
    return sum(r["failed"] for r in runs)


def spread_rows(paths: list) -> list:
    trace, records = load(paths)
    specs = metric_specs(trace)
    rows = []
    for workload, runs in records.items():
        for name, m in specs.items():
            vals = values(runs, name)
            q1, med, q3 = quartiles(vals)
            sp = spread(vals)
            bound = m.get("bound")
            status = "ok"
            if failed(runs):
                status = "failed ops"
            elif bound is not None and sp > bound:
                status = "unresolved"
            elif bound is not None and sp > bound / 3:
                status = "ok (above a third of the bound)"
            rows.append({"workload": workload, "metric": name, "n": len(vals), "median": med, "q1": q1, "q3": q3,
                         "spread": sp, "bound": bound, "status": status})
    return rows


def _worse(change: float, parent: float, better: str) -> float:
    """How much worse change is than parent, as a share of parent (negative: better)."""
    if parent == 0:
        return 0.0 if change == parent else float("inf")
    diff = (change - parent) / abs(parent)
    return diff if better == "lower" else -diff


def pair_rows(parent_paths: list, change_paths: list) -> list:
    trace, parents = load(parent_paths)
    change_trace, changes = load(change_paths)
    if trace != change_trace:
        raise ValueError("parent and change records must be both traced or both untraced")
    specs = metric_specs(trace)
    rows = []
    for workload in parents:
        p_runs, c_runs = parents[workload], changes.get(workload, [])
        if len(p_runs) != len(c_runs):
            raise ValueError(f"{workload}: {len(p_runs)} parent runs but {len(c_runs)} change runs")
        p_failed, c_failed = failed(p_runs), failed(c_runs)
        for name, m in specs.items():
            better = m["better"]
            pv, cv = values(p_runs, name), values(c_runs, name)
            wins = sum(_worse(c, p, better) < 0 for p, c in zip(pv, cv))
            ties = sum(c == p for p, c in zip(pv, cv))
            p_q1, p_med, p_q3 = quartiles(pv)
            c_q1, c_med, c_q3 = quartiles(cv)
            p_spread = spread(pv)
            worse = _worse(c_med, p_med, better)
            bound = m.get("bound")
            all_better = all(_worse(c, p, better) < 0 for c in cv for p in pv)
            if c_failed > p_failed:
                verdict = "more failures"
            elif wins >= WIN_SHARE * len(pv) and worse < 0 and abs(c_med - p_med) > p_q3 - p_q1:
                verdict = "gain"
            elif bound is not None and worse > bound:
                verdict = "regression"
            elif bound is not None and p_spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "within bound" if bound is not None else "no bound"
            rows.append({"workload": workload, "metric": name, "pairs": len(pv),
                         "parent": [p_q1, p_med, p_q3], "change": [c_q1, c_med, c_q3],
                         "wins": wins, "ties": ties, "losses": len(pv) - wins - ties,
                         "failed": [p_failed, c_failed],
                         "parent_spread": p_spread, "change_vs_parent": worse, "bound": bound, "verdict": verdict})
    return rows


def _fmt(x) -> str:
    return "-" if x is None else f"{x:.4g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("results", nargs="+")
    pp = sub.add_parser("pairs")
    pp.add_argument("--parent", nargs="+", required=True)
    pp.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args(argv)

    if args.mode == "spread":
        rows = spread_rows(args.results)
        print(f"{'workload':<14}{'metric':<34}{'n':>3}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}  status")
        for r in rows:
            print(f"{r['workload']:<14}{r['metric']:<34}{r['n']:>3}{_fmt(r['median']):>12}{_fmt(r['q1']):>12}"
                  f"{_fmt(r['q3']):>12}{_fmt(r['spread']):>9}{_fmt(r['bound']):>7}  {r['status']}")
        return int(any(r["status"] in ("unresolved", "failed ops") for r in rows))

    rows = pair_rows(args.parent, args.change)
    print(f"{'workload':<14}{'metric':<34}{'parent med [q1, q3]':<32}{'change med [q1, q3]':<32}"
          f"{'W/T/L':<10}{'p.spread':>10}{'worse':>10}{'bound':>7}  verdict")
    for r in rows:
        p, c = r["parent"], r["change"]
        wtl = f"{r['wins']}/{r['ties']}/{r['losses']}"
        print(f"{r['workload']:<14}{r['metric']:<34}{_fmt(p[1]) + f' [{_fmt(p[0])}, {_fmt(p[2])}]':<32}"
              f"{_fmt(c[1]) + f' [{_fmt(c[0])}, {_fmt(c[2])}]':<32}{wtl:<10}{_fmt(r['parent_spread']):>10}"
              f"{_fmt(r['change_vs_parent']):>10}{_fmt(r['bound']):>7}  {r['verdict']}")
    return int(any(r["verdict"] in ("regression", "unresolved", "more failures") for r in rows))


if __name__ == "__main__":
    sys.exit(main())
