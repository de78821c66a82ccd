"""Child process that times one set-up: import plus scenario load, parse and resolve.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
Prints the set-up's wall seconds, then the same scaled to the reference
speed of speed.py, gauged with its numpy-free kernel so that numpy's import
stays inside the timed set-up.  The parent puts ``src`` on PYTHONPATH and fixes the
BLAS thread count.
"""

import sys
import time

import speed
import workloads

SAMPLE_INTERVAL_S = 0.02  # a set-up takes about 0.2 s

with speed.Gauge(SAMPLE_INTERVAL_S, speed.python_kernel) as gauge:
    t0, c0 = time.perf_counter(), time.process_time()
    from mu_lab import cli_report

    for task in workloads.tasks(sys.argv[1], int(sys.argv[2])):
        cli_report.resolve(cli_report.parse_scenario(task.doc))
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
print(repr(wall))
print(repr(gauge.at_reference(wall, cpu)[0]))
