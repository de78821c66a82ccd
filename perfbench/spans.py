"""Spans and counters for the traced run, recorded from outside mu_lab.

``installed(tracer)`` replaces names where the pipeline looks them up
(module globals of ``mu_lab.cli_report``, ``mu_lab.conjugacy``,
``mu_lab.dichotomy``, ``mu_lab.dde_core`` and ``mu_lab.phase_space``, the
``EtaField.interp_tables`` method, and the growth-rate callables through a
wrapped ``rate_by_id`` in ``cli_report`` and ``dichotomy``, which builds the
wobble model's rate) with timed wrappers, and puts the originals back on
exit.  Nothing under ``src/`` is edited.

Layer boundaries become spans: name, start, end, parent span and op id,
kept in memory and written out when the run ends.  The growth-rate
callables and segment interpolation run up to millions of times per op, so
they are aggregated into call counts and busy time instead of spans.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

_clock = time.perf_counter


class Tracer:
    """In-memory spans and per-op counters; ``op`` is the id of the op being run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self.counts = defaultdict(lambda: defaultdict(int))  # op -> name -> count
        self.busy = defaultdict(lambda: defaultdict(float))  # op -> leaf name -> seconds
        self.op = None
        self._stack = []

    def parent_name(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def count(self, name: str, amount=1) -> None:
        self.counts[self.op][name] += amount

    def spanned(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a span; ``on_result(result, args)`` may add counts."""

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, _clock(), None, self._stack[-1] if self._stack else -1, self.op])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = _clock()
            self.counts[self.op][name + ".calls"] += 1
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    def leaf(self, name: str, fn):
        """``fn`` wrapped in a call counter and busy-time accumulator."""
        counts, busy = self.counts, self.busy

        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[self.op][name] += _clock() - t0
                counts[self.op][name + ".calls"] += 1

        return wrapper

    def inclusive(self, op) -> dict:
        """Total seconds per span name within one op."""
        out = defaultdict(float)
        for name, start, end, _, span_op in self.spans:
            if span_op == op:
                out[name] += end - start
        return dict(out)

    def durations(self, op, name: str) -> list:
        return [end - start for n, start, end, _, span_op in self.spans if span_op == op and n == name]

    def self_times(self, op) -> dict:
        """Seconds per span name minus the time covered by its child spans."""
        out = defaultdict(float, self.inclusive(op))
        for _, start, end, parent, span_op in self.spans:
            if span_op == op and parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return dict(out)

    def records(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op, "id": i}
            for i, (n, s, e, p, op) in enumerate(self.spans)
        ]


def _interp_counts(tracer: Tracer):
    def on_result(result, args):
        eta, tables, tq, bq = args[:4]
        queries = int(np.broadcast(np.asarray(tq), np.asarray(bq)).size)
        tracer.count("conjugacy.interp_queries", queries)
        # four corner gathers of (queries, L) rows per lookup
        tracer.count("conjugacy.gather_bytes", 4 * queries * tables.shape[-1] * tables.itemsize)
        if tracer.parent_name() == "conjugacy.sweep":
            # each operator-side lookup feeds one value and one derivative
            # contraction per coordinate, S * nb * (m+1) multiply-adds each
            S, nb = np.shape(bq)
            tracer.count("conjugacy.contract_flops", 2 * 2 * eta.n * S * nb * (eta.m + 1))

    return on_result


def _quadrature_nodes(tracer: Tracer):
    def on_result(result, args):
        taus_s, _, taus_u, _ = result
        tracer.count("conjugacy.quadrature_nodes", int(np.size(taus_s) + np.size(taus_u)))

    return on_result


def _sized(tracer: Tracer, name: str, size):
    def on_result(result, args):
        tracer.count(name, size(result))

    return on_result


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    from mu_lab import cli_report, conjugacy, dde_core, dichotomy, phase_space

    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(owner, attr, name, on_result=None):
        patch(owner, attr, tracer.spanned(name, getattr(owner, attr), on_result))

    def leaf(owner, attr, name):
        patch(owner, attr, tracer.leaf(name, getattr(owner, attr)))

    def traced_rate(rate_by_id):
        def wrapper(label):
            rate = rate_by_id(label)
            changes = {
                attr: tracer.leaf(f"growth_rate.{attr}", getattr(rate, attr))
                for attr in ("eval", "deriv", "inverse")
                if getattr(rate, attr) is not None
            }
            return dataclasses.replace(rate, **changes)

        return wrapper

    def counted_steps(solve_perturbed):
        def wrapper(*args, **kwargs):
            traj = solve_perturbed(*args, **kwargs)
            tracer.count("dde_core.rk4_steps", len(traj.times) - 1)
            return traj

        return wrapper

    try:
        for stage in ("resolve", "run_admissibility", "run_dichotomy", "run_conjugacy"):
            span(cli_report, stage, f"cli_report.{stage}")
        for owner in (cli_report, dichotomy):
            patch(owner, "rate_by_id", traced_rate(owner.rate_by_id))
        for owner in (cli_report, dichotomy, conjugacy):
            span(owner, "ratio_bound_N", "growth_rate.ratio_bound_N")
        for owner in (cli_report, conjugacy):
            span(owner, "full_report", "admissibility.full_report")
        span(cli_report, "verify_bounds", "dichotomy.verify_bounds",
             _sized(tracer, "dichotomy.time_pairs", lambda cert: len(cert.checks[0].samples)))
        span(cli_report, "picard_solve", "conjugacy.picard_solve")
        span(cli_report, "verify_residuals", "conjugacy.verify_residuals",
             _sized(tracer, "conjugacy.residual_samples", len))
        span(cli_report, "invertibility_check", "conjugacy.invertibility_check")
        span(conjugacy, "_full_sweep", "conjugacy.sweep")
        span(conjugacy, "orbit_quadrature", "conjugacy.orbit_quadrature", _quadrature_nodes(tracer))
        span(conjugacy, "p0_kernel", "dichotomy.kernel")
        span(conjugacy, "q0_kernel", "dichotomy.kernel")
        span(conjugacy.EtaField, "interp_tables", "conjugacy.interp_tables", _interp_counts(tracer))
        span(conjugacy, "solve_perturbed_R", "dde_core.solve_perturbed_R")
        patch(dde_core, "solve_perturbed", counted_steps(dde_core.solve_perturbed))
        leaf(dde_core, "interpolate", "phase_space.interpolate")
        leaf(phase_space, "interpolate", "phase_space.interpolate")
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
