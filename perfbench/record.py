"""Record reference.json, the outputs checks.py compares against.

    python3 perfbench/record.py

Runs every task once (seed 0) for the seed-independent conjugacy outputs,
then runs the certificate of every task that reaches it on
``checks.SURVEY_SEEDS`` seeds to record each family's range of worst ratios.
Re-record only when a change is meant to alter these outputs, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    sys.path.insert(0, str(SRC))
    from mu_lab import cli_report

    reference = {}
    for name in workloads.WORKLOADS:
        refs = reference[name] = {}
        for task in workloads.tasks(name, 0):
            out = workloads.run_task(cli_report, task)
            ref = refs[task.label] = {"status": out["status"]}
            conj = out.get("stages", {}).get("conjugacy", {})
            if conj.get("status") == "converged":
                ref.update(checks.conjugacy_outputs(conj))
        for seed in range(checks.SURVEY_SEEDS):
            for task in workloads.tasks(name, seed):
                if task.expect != "pass":
                    continue
                res = cli_report.resolve(cli_report.parse_scenario(task.doc))
                cert = cli_report.run_dichotomy(res, samples=task.samples)["certificate"]
                band = refs[task.label].setdefault("worst_ratio_band", {})
                for family, ratio in checks.worst_ratios(cert).items():
                    lo, hi = band.get(family, (ratio, ratio))
                    band[family] = [min(lo, ratio), max(hi, ratio)]
        print(f"recorded {name}", file=sys.stderr)
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
