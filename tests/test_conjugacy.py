import dataclasses
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import COARSE_GRID, COARSE_TRUNC, DEFAULT_GRID, DEFAULT_TRUNC, SOLVER_TOL, R, build_flagship
from mu_lab.admissibility import delta_ceiling, lambda_ceiling
from mu_lab.conjugacy import (
    EtaField,
    GridSpec,
    TruncationPolicy,
    _BLOCK_READS,
    _NEAR_NODES,
    _cells,
    _coords,
    _full_sweep,
    _group_kernels,
    _node_blocks,
    _node_groups,
    conjugacy_residual,
    invertibility_check,
    lattice_residuals,
    orbit_quadrature,
    picard_solve,
    plan_operator,
    propagation_gain,
    verify_residuals,
)
from mu_lab.dde_core import Perturbation, linear_cross_perturbation, saturating_cross_perturbation
from mu_lab.dichotomy import p0_kernel, power_model, q0_kernel, unstable_flow, unstable_shape
from mu_lab.errors import NonFiniteState, NotContracting, OutOfDomain, TimeOrder, TruncationUnreachable
from mu_lab.phase_space import Segment, lag_index, mu_norm, sup_norm


def zero_field(flagship, grid=DEFAULT_GRID):
    p = flagship["params"]
    return EtaField.zero(grid, 2, R, flagship["mu"], p.xi, p.eps)


def _noise_field(flagship, seed=11):
    """A non-zero field on the coarse grid."""
    eta = zero_field(flagship, COARSE_GRID)
    return eta.with_data(0.1 * np.random.default_rng(seed).normal(size=eta.data.shape))


def F_apply(model, pert, eta, t, b, trunc, *, D):
    """Oracle helper: the planned operator at the one point (t, b)."""
    (out, _), _ = _full_sweep(plan_operator(model, pert, eta, [t], [b], trunc, D), eta)
    return Segment(model.r, out[0, 0].T)


def dF_db_apply(model, pert, eta, t, b, trunc, *, D):
    """Oracle helper: the planned operator's b-derivative at the one point (t, b)."""
    (_, dout), _ = _full_sweep(plan_operator(model, pert, eta, [t], [b], trunc, D), eta)
    return Segment(model.r, dout[0, 0].T)


def clamp_count(eta, tq, bq):
    """Oracle: the broadcast queries (tq, bq) that leave the grid on either axis, once each, and the total."""
    outside = _coords(tq, eta.t_grid)[1] | _coords(bq, eta.b_grid)[1]
    return int(np.count_nonzero(outside)), outside.size


def edge_clamp_count(eta, taus, factor, bs):
    """Oracle: the node x query lookups the edge rule clamps, formed whole, and the total.

    A node whose t leaves the grid clamps every query; any other node of
    factor f the queries q < b_grid[0] / f and q > b_grid[-1] / f.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lo, hi = eta.b_grid[0] / factor[:, None], eta.b_grid[-1] / factor[:, None]
    outside = _coords(taus, eta.t_grid)[1][:, None] | (bs < lo) | (bs > hi)
    return int(np.count_nonzero(outside)), outside.size


def scalar_residuals(eta, model, pert, *, n_samples, horizon, core, b_scale, seed):
    """Oracle: verify_residuals' draws, one scalar conjugacy_residual each."""
    rng = np.random.default_rng(seed)
    h = model.r / eta.m
    max_k = max(int(np.floor(horizon / h + 1e-9)), 0)
    draws = zip(
        rng.uniform(*core, size=n_samples).tolist(),
        rng.integers(0, max_k + 1, size=n_samples).tolist(),
        rng.uniform(-b_scale, b_scale, size=n_samples).tolist(),
    )
    return [conjugacy_residual(eta, model, pert, s + h * k, s, b) for s, k, b in draws]


def assert_matches_scalar(rows, eta, model, pert, **draw):
    want = scalar_residuals(eta, model, pert, **draw)
    assert len(rows) == len(want) == draw["n_samples"]
    for got, ref in zip(rows, want):
        assert (got.t, got.s, got.b) == (ref.t, ref.s, ref.b)
        assert abs(got.raw - ref.raw) <= 1e-12
        assert abs(got.weighted - ref.weighted) <= 1e-12


def point_oracle(model, pert, eta, t, b, trunc, D):
    """Oracle: the operator and its b-derivative at (t, b), node by node.

    Each quadrature node gets its own interpolated segment b_tau u(tau) +
    eta(tau, b_tau) and direction, the perturbation's segment-level g and
    d2g, and its kernel column; no read tables, plans or batching.
    """
    n, m = eta.n, eta.m
    omega = np.linspace(-model.r, 0.0, m + 1)
    u_idx = model.unstable_indices[0]

    def rho_u(ts):
        return model.log_flow(np.asarray(ts, dtype=float))[u_idx]

    rho_t = rho_u(np.array([t]))[0]
    taus_s, w_s, taus_u, w_u = orbit_quadrature(model, pert, t, trunc, D, m)
    out = np.zeros((m + 1, n))
    dout = np.zeros((m + 1, n))
    for taus, w, kern_fn, sign in ((taus_s, w_s, p0_kernel, 1.0), (taus_u, w_u, q0_kernel, -1.0)):
        if taus.size == 0:
            continue
        kern = kern_fn(model, t, taus, omega)  # (n, S, m+1)
        for idx, (tau, wk) in enumerate(zip(taus, w)):
            fac = float(np.exp(rho_u(np.array([tau]))[0] - rho_t))
            b_tau = b * fac
            shape = unstable_shape(model, tau, m)[0]
            lin_vals = np.zeros((m + 1, n))
            lin_vals[:, u_idx] = b_tau * shape
            A = Segment(model.r, lin_vals) + eta.segment_at(tau, b_tau)
            v = np.asarray(pert.g(tau, A), dtype=float)
            dvals = np.zeros((m + 1, n))
            dvals[:, u_idx] = shape
            chi = (Segment(model.r, dvals) + eta.segment_at(tau, b_tau, derivative=True)) * fac
            dv = np.asarray(pert.d2g(tau, A)(chi), dtype=float)
            for i in range(n):
                out[:, i] += sign * wk * v[i] * kern[i, idx]
                dout[:, i] += sign * wk * dv[i] * kern[i, idx]
    return Segment(model.r, out), Segment(model.r, dout)


ORACLE_B_CHUNK = 128  # b columns per block of block_oracle_sweep


def block_oracle_sweep(plan, eta, trunc, D, scenario_reads, value_map, jvp_map):
    """Oracle: the sweep in (S, c, k) blocks of b columns, as it was before the read-major node blocks.

    Each row is blended along t whole, with two takes, and walked in blocks
    of ORACLE_B_CHUNK b columns with every node at once.  Reads stay in
    scenario order, and the maps roll them so that component i sees
    scenario read i+1; each block transposes W and V to (S, c, k), scales
    the maps' values by the weight per node and transposes them back for
    one dense kernel matmul.  Only the plan's orbit data is shared; the
    quadrature weights come from orbit_quadrature under trunc and D.
    """
    model, pert = plan.model, plan.pert
    n, m, k = eta.n, eta.m, len(scenario_reads)
    bg = eta.b_grid
    nbg, nb = len(bg), plan.b.size
    omega = np.linspace(-model.r, 0.0, m + 1)
    cs = np.array([c for c, _ in scenario_reads], dtype=int)
    js = np.array([lag_index(eta.r, m, lag) for _, lag in scenario_reads], dtype=int)
    u_idx = model.unstable_indices[0]
    out = np.zeros((len(plan.rows), nb, n, m + 1))
    dout = np.zeros_like(out)
    tables = np.concatenate([plane.transpose(2, 3, 0, 1)[cs, js] for plane in eta.data])
    for i, row in enumerate(plan.rows):
        S = row.taus.size
        if S == 0:
            continue
        lin = np.zeros((k, S))
        for j, (coord, lag) in enumerate(scenario_reads):
            if coord == u_idx:
                lin[j] = unstable_flow(model, row.taus - lag, row.taus)[0]
        w = np.asarray(pert.weight(row.taus), dtype=float)
        along_t = np.take(tables, row.it, axis=1)
        along_t *= 1.0 - row.wt[:, None]
        upper = np.take(tables, row.it + 1, axis=1)
        upper *= row.wt[:, None]
        along_t += upper
        flat = along_t.reshape(2 * k, S * nbg)
        row_start = (np.arange(S) * nbg)[:, None]
        ns = row.n_stable
        _, w_s, _, w_u = orbit_quadrature(model, pert, row.t, trunc, D, m)
        kern = np.concatenate(
            [p0_kernel(model, row.t, row.taus[:ns], omega), q0_kernel(model, row.t, row.taus[ns:], omega)], axis=1
        ) * np.concatenate([w_s, -w_u])[:, None]
        for lo in range(0, nb, ORACLE_B_CHUNK):
            hi = min(lo + ORACLE_B_CHUNK, nb)
            B = row.factor[:, None] * plan.b[lo:hi]
            x = (B - bg[0]) / (bg[1] - bg[0])
            ib = np.clip(np.floor(x).astype(int), 0, nbg - 2)
            wb = np.clip(x - ib, 0.0, 1.0)
            at = ib + row_start
            reads = np.take(flat, np.stack([at, at + 1]), axis=1)
            reads[:, 0] *= 1.0 - wb
            reads[:, 1] *= wb
            reads = reads[:, 0] + reads[:, 1]
            W = lin[:, :, None] * B + reads[:k]
            V = row.factor[:, None] * (lin[:, :, None] + reads[k:])
            W = W.transpose(1, 2, 0)
            g = np.empty((2, n, S, hi - lo))
            g[0] = (value_map(W) * w[:, None, None]).transpose(2, 0, 1)
            g[1] = (jvp_map(W, V.transpose(1, 2, 0)) * w[:, None, None]).transpose(2, 0, 1)
            both = np.matmul(g.swapaxes(2, 3), kern)
            out[i, lo:hi] = both[0].swapaxes(0, 1)
            dout[i, lo:hi] = both[1].swapaxes(0, 1)
    return out, dout


def assert_matches_block_oracle(F, dF, F_ref, dF_ref):
    # the sweep sums each node group before its kernel matmul, so it cannot
    # reproduce the oracle's dense matmul bit for bit; the worst case seen
    # is 1.6e-15 of the maximum
    assert np.max(np.abs(F - F_ref)) <= 4e-15 * np.max(np.abs(F_ref))
    assert np.max(np.abs(dF - dF_ref)) <= 4e-15 * np.max(np.abs(dF_ref))


def assert_rows_span_blocks_with_a_remainder(plan):
    """Some row of the plan spans several node blocks, some row's last block is shorter than its first,
    and some block edge falls strictly inside a near panel."""
    edges = [_node_blocks(rp.taus.size, plan.b.size) for rp in plan.rows]
    sizes = [np.diff(e) for e in edges]
    assert any(len(z) > 1 for z in sizes)
    assert any(len(z) > 1 and z[-1] < z[0] for z in sizes)
    assert any(
        rp.n_far < e < rp.n_stable and (e - rp.n_far) % _NEAR_NODES for rp, es in zip(plan.rows, edges) for e in es
    )


def _rolled(W):
    return np.roll(W, -1, axis=-1)


ROLLED_MAPS = {
    "saturating": (
        lambda W: _rolled(W) * _rolled(W) / (2.0 * (1.0 + _rolled(W) * _rolled(W))),
        lambda W, V: _rolled(W) / (1.0 + _rolled(W) * _rolled(W)) ** 2 * _rolled(V),
    ),
    "linear": (lambda W: _rolled(W), lambda W, V: _rolled(V)),
}


def test_zero_perturbation_gives_zero_operator(flagship):
    eta, D = zero_field(flagship), flagship["params"].D
    out = F_apply(flagship["model"], Perturbation.zero(2), eta, 0.4, 1.2, DEFAULT_TRUNC, D=D)
    assert sup_norm(out) == 0.0
    dout = dF_db_apply(flagship["model"], Perturbation.zero(2), eta, 0.4, 1.2, DEFAULT_TRUNC, D=D)
    assert sup_norm(dout) == 0.0


def test_zero_coordinate_zero_field_gives_zero(flagship):
    eta = zero_field(flagship)
    out = F_apply(flagship["model"], flagship["pert"], eta, -0.8, 0.0, DEFAULT_TRUNC, D=flagship["params"].D)
    assert sup_norm(out) == 0.0


def test_operator_bound_on_zero_field(flagship):
    p = flagship["params"]
    eta = zero_field(flagship)
    bound = p.D * p.delta * (p.alpha + p.beta) / (p.alpha * p.beta) + DEFAULT_TRUNC.tail_tol
    worst = 0.0
    for t in (-2.0, -0.5, 0.0, 1.0, 2.0):
        for b in (-2.0, -0.5, 0.7, 1.8):
            worst = max(worst, sup_norm(F_apply(flagship["model"], flagship["pert"], eta, t, b, DEFAULT_TRUNC, D=p.D)))
    assert worst <= bound


def test_batch_and_segment_paths_agree(flagship_result):
    # the linear coupling feeds the unstable-side integral at full size, as
    # in test_full_row_matches_point_oracle
    model, shipped, eta = flagship_result["model"], flagship_result["pert"], flagship_result["result"].eta
    D = flagship_result["params"].D
    linear = linear_cross_perturbation(flagship_result["mu"], flagship_result["params"], reads=[(1, R), (0, R / 2)], n=2, gain=0.3)
    for pert in (shipped, linear):
        for t, b in [(0.3, 0.7), (-1.1, -1.4), (1.9, 2.3)]:
            batch = F_apply(model, pert, eta, t, b, DEFAULT_TRUNC, D=D)
            point, dpoint = point_oracle(model, pert, eta, t, b, DEFAULT_TRUNC, D)
            assert sup_norm(batch - point) < 1e-14
            dbatch = dF_db_apply(model, pert, eta, t, b, DEFAULT_TRUNC, D=D)
            assert sup_norm(dbatch - dpoint) < 1e-14


@pytest.mark.parametrize("row", [18, 35])
@pytest.mark.parametrize("coupling", ["shipped", "linear"])
def test_full_row_matches_point_oracle(flagship_result, row, coupling):
    # one whole sweep row of the solved field, b chunked as in the Picard
    # solve; the edge columns at -b_max and b_max look up orbits that leave
    # the b grid, and row 35 (t = 4.25) also has nodes past t_max.  The
    # shipped coupling is quadratic in reads of order 1e-5, so its
    # unstable-side integral sits below 1e-14; the linear one feeds that
    # side at full size
    model, pert, eta = flagship_result["model"], flagship_result["pert"], flagship_result["result"].eta
    D = flagship_result["params"].D
    if coupling == "linear":
        pert = linear_cross_perturbation(flagship_result["mu"], flagship_result["params"], reads=[(1, R), (0, R / 2)], n=2, gain=0.3)
    t, nb = float(eta.t_grid[row]), len(eta.b_grid)
    plan = plan_operator(model, pert, eta, [t], eta.b_grid, DEFAULT_TRUNC, D)
    (out, dout), _ = _full_sweep(plan, eta)
    assert out.shape == (1, nb, 2, eta.m + 1)
    (rp,) = plan.rows
    assert row != 35 or np.any(rp.taus > eta.t_grid[-1])
    for j in (0, 1, nb // 2, 200, nb - 2, nb - 1):
        b = float(eta.b_grid[j])
        if j in (0, nb - 1):
            assert clamp_count(eta, rp.taus, rp.factor * b)[0] > 0
        point, dpoint = point_oracle(model, pert, eta, t, b, DEFAULT_TRUNC, D)
        assert np.max(np.abs(out[0, j] - point.values.T)) < 1e-14
        assert np.max(np.abs(dout[0, j] - dpoint.values.T)) < 1e-14


@pytest.mark.parametrize("coupling", ["saturating", "linear"])
def test_sweep_matches_block_oracle(flagship, coupling):
    # a non-zero field on the coarse grid, queried past both ends of the b
    # grid at so many b that rows span several node blocks of 119 nodes, one
    # of them a remainder and some edges inside a near panel (and the
    # oracle's b blocks have a remainder too), so blocks, clamps and both
    # sides of every orbit are exercised
    model, p = flagship["model"], flagship["params"]
    scenario = [(0, R), (1, R / 2)]
    if coupling == "saturating":
        pert = saturating_cross_perturbation(flagship["mu"], flagship["params"], reads=scenario, n=2)
    else:
        pert = linear_cross_perturbation(flagship["mu"], flagship["params"], reads=scenario, n=2, gain=0.3)
    eta = _noise_field(flagship)
    bs = np.linspace(-4.5, 4.5, 2 * ORACLE_B_CHUNK + 18)
    plan = plan_operator(model, pert, eta, eta.t_grid, bs, COARSE_TRUNC, p.D)
    assert_rows_span_blocks_with_a_remainder(plan)
    (F, dF), _ = _full_sweep(plan, eta)
    F_ref, dF_ref = block_oracle_sweep(plan, eta, COARSE_TRUNC, p.D, scenario, *ROLLED_MAPS[coupling])
    assert np.any(F != 0.0) and np.any(dF != 0.0)
    assert_matches_block_oracle(F, dF, F_ref, dF_ref)


def _recording(pert, seen):
    """pert with maps that keep a copy of every W and V they are given."""

    def value_map(W):
        seen.append(W.copy())
        return pert.value_map(W)

    def jvp_map(W, V):
        seen.append(V.copy())
        return pert.jvp_map(W, V)

    return dataclasses.replace(pert, value_map=value_map, jvp_map=jvp_map)


@pytest.mark.parametrize("coupling", ["saturating", "linear", "zero"])
def test_source_term_sweep_is_the_zero_field_sweep_bit_for_bit(flagship, coupling):
    # the first Picard sweep passes no field and skips the tables, blends and
    # gathers; its maps must see the very reads a zero field gives, signed
    # zeros included: at b = -0.0 the linear part lin * B is -0.0, and the
    # gathers' +0.0 plus it is +0.0.  Rows span several node blocks, one of
    # them a remainder and some edges inside a near panel
    model, p = flagship["model"], flagship["params"]
    scenario = [(0, R), (1, R / 2)]
    if coupling == "saturating":
        pert = saturating_cross_perturbation(flagship["mu"], flagship["params"], reads=scenario, n=2)
    elif coupling == "linear":
        pert = linear_cross_perturbation(flagship["mu"], flagship["params"], reads=scenario, n=2, gain=0.3)
    else:
        pert = Perturbation.zero(2)
    eta = zero_field(flagship, COARSE_GRID)
    bs = np.concatenate([np.linspace(-4.5, 4.5, 2 * ORACLE_B_CHUNK + 17), [-0.0]])
    plan = plan_operator(model, pert, eta, eta.t_grid, bs, COARSE_TRUNC, p.D)
    seen, seen_zero = [], []
    (F, dF), _ = _full_sweep(dataclasses.replace(plan, pert=_recording(pert, seen)), None)
    (F0, dF0), _ = _full_sweep(dataclasses.replace(plan, pert=_recording(pert, seen_zero)), eta)
    assert F.tobytes() == F0.tobytes() and dF.tobytes() == dF0.tobytes()
    assert [a.tobytes() for a in seen] == [a.tobytes() for a in seen_zero]
    assert not any(np.any(np.signbit(a) & (a == 0.0)) for a in seen)  # no read is -0.0
    if coupling == "zero":  # no envelope, so no node and nothing to block
        assert not np.any(F) and not np.any(dF)
    else:
        assert_rows_span_blocks_with_a_remainder(plan)
        F_ref, dF_ref = block_oracle_sweep(plan, eta, COARSE_TRUNC, p.D, scenario, *ROLLED_MAPS[coupling])
        assert np.any(F != 0.0) and np.any(dF != 0.0)
        assert_matches_block_oracle(F, dF, F_ref, dF_ref)


ROW_GEOMETRIES = {
    "time zero splits a cell": lambda rp, m: (rp.n_stable - rp.n_far) // 4 > m,
    "no far nodes": lambda rp, m: rp.n_far == 0 < rp.taus.size,
    "no unstable nodes": lambda rp, m: rp.n_stable == rp.taus.size > 0,
    "no nodes": lambda rp, m: rp.taus.size == 0,
}


@pytest.mark.parametrize(
    "tail_tol, geometries",
    [(1e-6, ["time zero splits a cell"]), (0.1, ["no far nodes", "no unstable nodes"]), (0.5, ["no nodes"])],
    ids=["zero-split", "cut-tails", "empty"],
)
def test_row_geometries_match_the_oracles(flagship_result, monkeypatch, tail_tol, geometries):
    # rows the shipped grid never plans: at t = 0.3 and 0.101 time zero splits
    # a segment cell into two near panels, a loose tail tolerance cuts the far
    # nodes or the unstable side, and a looser one every node.  The linear
    # coupling's source term reaches the unstable coordinate, where the
    # saturating one's is 0.  Blocks of 37 nodes for the 4 b queries split
    # rows, and near panels, across blocks
    from mu_lab import conjugacy

    monkeypatch.setattr(conjugacy, "_BLOCK_READS", 4 * 37)
    model, eta, p = flagship_result["model"], flagship_result["result"].eta, flagship_result["params"]
    scenario = [(0, R), (1, R / 2)]
    pert = linear_cross_perturbation(flagship_result["mu"], p, reads=scenario, n=2, gain=0.3)
    trunc = TruncationPolicy(tail_tol=tail_tol, max_span=60.0)
    ts = np.concatenate([eta.t_grid, [0.3, 0.101]])
    bs = eta.b_grid[[0, 100, 250, len(eta.b_grid) - 1]]
    plan = plan_operator(model, pert, eta, ts, bs, trunc, p.D)
    assert_rows_span_blocks_with_a_remainder(plan)
    (F, dF), _ = _full_sweep(plan, eta)
    F_ref, dF_ref = block_oracle_sweep(plan, eta, trunc, p.D, scenario, *ROLLED_MAPS["linear"])
    assert np.any(F != 0.0) and np.any(dF != 0.0)
    assert_matches_block_oracle(F, dF, F_ref, dF_ref)
    for name in geometries:
        rows = [i for i, rp in enumerate(plan.rows) if ROW_GEOMETRIES[name](rp, eta.m)]
        assert rows, name
        for i in rows[:2]:
            for j, b in enumerate(bs):
                point, dpoint = point_oracle(model, pert, eta, float(ts[i]), float(b), trunc, p.D)
                assert np.max(np.abs(F[i, j] - point.values.T)) < 1e-14
                assert np.max(np.abs(dF[i, j] - dpoint.values.T)) < 1e-14
    if tail_tol == 1e-6:
        assert [rp.t for rp in plan.rows if ROW_GEOMETRIES["time zero splits a cell"](rp, eta.m)] == [0.3, 0.101]


def _split_sweeps(monkeypatch, workers):
    """Let every sweep use `workers` threads, however small it is."""
    from mu_lab import conjugacy

    monkeypatch.setattr(conjugacy, "_WORKER_READS", 1)
    monkeypatch.setattr(conjugacy, "_usable_cpus", lambda: workers)


def _thread_recording(pert, threads):
    """pert with a value map that notes the thread it runs on."""

    def value_map(W):
        threads.add(threading.get_ident())
        return pert.value_map(W)

    return dataclasses.replace(pert, value_map=value_map)


@pytest.mark.parametrize("field", ["noise", "source"])
def test_sweep_is_the_same_for_any_worker_count(flagship, monkeypatch, field):
    # one worker computes each row from start to finish, so the bytes of a
    # sweep do not depend on how many share the rows; a short switch interval
    # makes the threads interleave often, so a lost row would show
    model, p = flagship["model"], flagship["params"]
    pert = linear_cross_perturbation(flagship["mu"], p, reads=[(0, R), (1, R / 2)], n=2, gain=0.3)
    eta = _noise_field(flagship)
    before = threading.active_count()
    swept = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for workers in (1, 2, 3):
            _split_sweeps(monkeypatch, workers)
            threads = set()
            plan = plan_operator(model, _thread_recording(pert, threads), eta, eta.t_grid, eta.b_grid, COARSE_TRUNC, p.D)
            (F, dF), _ = _full_sweep(plan, eta if field == "noise" else None)
            assert len(threads) == workers and threading.active_count() == before
            swept.append(F.tobytes() + dF.tobytes())
    finally:
        sys.setswitchinterval(interval)
    assert np.any(F != 0.0) and swept[0] == swept[1] == swept[2]


class _MapFailed(Exception):
    pass


@pytest.mark.parametrize("where", ["helper", "caller"])
def test_a_failing_row_fails_the_sweep_and_stops_its_helpers(flagship, monkeypatch, where):
    # the exception of the first failing row is raised by _full_sweep itself,
    # once every thread has joined; the others stop before their next row, of
    # four or five, and those that meet no failure wait for one in their first
    _split_sweeps(monkeypatch, 3)
    model, p, pert = flagship["model"], flagship["params"], flagship["pert"]
    failure = _MapFailed(f"value map failed on a {where} row")
    raised = threading.Event()
    calls = {}

    def value_map(W):
        me = threading.current_thread()
        calls[me.name] = calls.get(me.name, 0) + 1
        if (me is threading.main_thread()) == (where == "caller"):
            raised.set()
            raise failure
        raised.wait(timeout=10.0)
        return pert.value_map(W)

    eta = _noise_field(flagship)
    failing = dataclasses.replace(pert, value_map=value_map)
    plan = plan_operator(model, failing, eta, eta.t_grid, eta.b_grid, COARSE_TRUNC, p.D)
    nb = eta.b_grid.size
    assert len(plan.rows) == 13 and all(len(_node_blocks(rp.taus.size, nb)) == 2 for rp in plan.rows)
    before = threading.active_count()
    with pytest.raises(_MapFailed) as info:
        _full_sweep(plan, eta)
    assert info.value is failure
    assert threading.active_count() == before
    assert max(calls.values()) <= 2


def test_sweep_memory_stays_per_block(flagship, monkeypatch):
    # two workers on rows of about eight node blocks each: besides out and
    # dout, a sweep holds the read tables and, per worker, one block's
    # temporaries and one row's group sums.  A block's temporaries are the
    # t-blend, the reads and their upper corners (2k = 4 planes each), the b
    # cells, weights and indices, and the maps' planes: up to 24 arrays of
    # _BLOCK_READS doubles, of which about 17 are seen here.  The block's
    # group matrix, n x groups x s with at most s / 4 + 2 groups for s = 32
    # nodes, is at most 5 KB.  The buffer a worker takes a row's maxima in is
    # allocated after that row's temporaries are freed
    _split_sweeps(monkeypatch, 2)
    model, p, pert = flagship["model"], flagship["params"], flagship["pert"]
    eta = _noise_field(flagship)
    bs = np.linspace(-4.5, 4.5, 1000)
    plan = plan_operator(model, pert, eta, eta.t_grid, bs, COARSE_TRUNC, p.D)
    blocks = [len(_node_blocks(rp.taus.size, bs.size)) - 1 for rp in plan.rows]
    assert min(blocks) > 4
    panels = max((rp.n_stable - rp.n_far) // _NEAR_NODES for rp in plan.rows)
    group_sums = 2 * 2 * (panels + 2) * bs.size * 8
    budget = 2 * (24 * 8 * _BLOCK_READS + group_sums)
    for field in (eta, None):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            (F, dF), _ = _full_sweep(plan, field)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak - F.nbytes - dF.nbytes <= budget


def row_max_diff(new, old):
    """Oracle: max |new - old| per time row, one pass over each whole row."""
    return np.array([np.max(np.abs(a - b)) for a, b in zip(new, old)])


def invertibility_oracle(result, model):
    """Oracle: the invertibility report computed on whole-field arrays."""
    eta, dnorm = result.eta, result.norms["dinf_mu"]
    report = {"derivative_norm_mu": dnorm, "margin": 1.0 - dnorm, "margin_positive": 1.0 - dnorm > 0.0}
    vals, dvals = eta.data
    fd = (vals[:, 2:] - vals[:, :-2]) / (2.0 * (eta.b_grid[1] - eta.b_grid[0]))
    scale = max(float(np.max(np.abs(dvals))), 1e-300)
    report["fd_rel_err"] = float(np.max(np.abs(fd - dvals[:, 1:-1]))) / scale
    report["fd_ok"] = report["fd_rel_err"] <= 1e-3
    coord_map = eta.b_grid[None, :] + vals[:, :, model.unstable_indices[0], -1]
    report["monotone"] = bool(np.all(np.diff(coord_map, axis=1) > 0.0))
    return report


@pytest.mark.parametrize("coupling", ["linear", "zero"])
def test_row_statistics_match_whole_field_oracles(flagship, monkeypatch, coupling):
    # the maxima a sweep's workers take of the rows they write, and the
    # invertibility check's per-row statistics, equal the whole-field passes
    # bit for bit on 1, 2 and 3 workers.  Under the zero coupling no row has
    # a node, so the sweep is 0 and its update is the field read, and the
    # sweep still shares its rows' maxima out over the workers; the noise
    # field is not monotone in b, the solved one is
    from mu_lab import conjugacy

    model, p = flagship["model"], flagship["params"]
    pert = _stress_coupling(flagship) if coupling == "linear" else Perturbation.zero(2)
    eta = _noise_field(flagship)
    solved = _coarse_solve(flagship, flagship["pert"])
    zero = zero_field(flagship, COARSE_GRID)
    plan = plan_operator(model, pert, eta, eta.t_grid, eta.b_grid, COARSE_TRUNC, p.D)
    assert all(rp.taus.size for rp in plan.rows) == (coupling == "linear")
    w = eta.time_weights()
    used = []
    in_workers = conjugacy._in_workers
    monkeypatch.setattr(conjugacy, "_in_workers", lambda task, items, n: used.append(n) or in_workers(task, items, n))
    for workers in (1, 2, 3):
        _split_sweeps(monkeypatch, workers)
        for field, read in ((eta, eta), (None, zero)):
            out, maxima = _full_sweep(plan, field)
            F, dF = out
            assert plan.on_grid and maxima.shape == (4, len(plan.rows))
            for got, want in zip(maxima, (np.max(np.abs(F), axis=(1, 2, 3)), np.max(np.abs(dF), axis=(1, 2, 3)),
                                          row_max_diff(F, read.data[0]), row_max_diff(dF, read.data[1]))):
                assert got.tobytes() == want.tobytes()
            swept = eta.with_data(out)
            norms = float(np.max(maxima[0])), float(np.max(maxima[0] * w)), float(np.max(maxima[1] * w))
            assert norms == (swept.norm_inf(), swept.norm_inf_mu(), swept.dnorm_inf_mu())
        # a sweep at other queries takes no update
        other = plan_operator(model, pert, eta, eta.t_grid[:3], [0.1, -2.0], COARSE_TRUNC, p.D)
        (F, dF), maxima = _full_sweep(other, eta)
        assert not other.on_grid and maxima.shape == (2, 3) and maxima[0].tobytes() == np.max(np.abs(F), axis=(1, 2, 3)).tobytes()
        reports = []
        for field in (solved.eta, eta):
            result = dataclasses.replace(solved, eta=field)
            reports.append(invertibility_check(result, model))
            assert reports[-1] == invertibility_oracle(result, model)
        assert [r["monotone"] for r in reports] == [True, False]
        assert used[-2:] == [workers, workers]  # the checks of both fields
        # every sweep is shared out, one of rows without nodes too: its work is the rows' maxima passes
        assert used[:5] == [workers] * 5
        used.clear()


def test_cells_match_floor_and_clip_bit_for_bit():
    # below the grid, at 0, inside, at size - 1 exactly and past it
    size = 5
    x = np.array([-7.5, -0.5, -1e-300, 0.0, 1e-300, 0.25, 1.0, 2.5, 3.0 - 1e-15, 4.0 - 1e-15, 4.0, 4.0 + 1e-12, 9.0])
    i, w = _cells(x, size)
    ref_i = np.clip(np.floor(x).astype(int), 0, size - 2)
    ref_w = np.clip(x - ref_i, 0.0, 1.0)
    assert i.tobytes() == ref_i.tobytes() and w.tobytes() == ref_w.tobytes()
    # a NaN coordinate lands in the first cell, with a NaN weight
    with np.errstate(invalid="ignore"):
        i, w = _cells(np.array([np.nan, 2.5]), size)
    assert list(i) == [0, 2] and np.isnan(w[0]) and w[1] == 0.5


def test_misaligned_read_raises_out_of_domain(flagship):
    # the operator and the batched residuals index reads by phase_space's one lag rule
    pert = saturating_cross_perturbation(
        flagship["mu"], flagship["params"], reads=[(0, 0.3 * R), (1, R / 2)], n=2
    )
    eta = zero_field(flagship, COARSE_GRID)
    with pytest.raises(OutOfDomain, match="not grid-aligned"):
        plan_operator(flagship["model"], pert, eta, [0.0], [1.0], COARSE_TRUNC, flagship["params"].D)
    with pytest.raises(OutOfDomain, match="not grid-aligned"):
        lattice_residuals(eta, flagship["model"], pert, [0.0], [2], [1.0])


def test_plan_counts_clamps_once_from_the_query_geometry(flagship_result):
    # every row's (S, nb) orbit lookups, counted by the clamp_count oracle
    # them; the Picard solve reports the same rate
    model, pert, eta = flagship_result["model"], flagship_result["pert"], flagship_result["result"].eta
    D = flagship_result["params"].D
    plan = plan_operator(model, pert, eta, eta.t_grid, eta.b_grid, DEFAULT_TRUNC, D)
    u_idx = model.unstable_indices[0]
    clamped = total = 0
    for t in eta.t_grid:
        taus_s, _, taus_u, _ = orbit_quadrature(model, pert, float(t), DEFAULT_TRUNC, D, eta.m)
        taus = np.concatenate([taus_s, taus_u])
        factor = np.exp(model.log_flow(taus)[u_idx] - model.log_flow(np.array([t]))[u_idx])
        cl, tot = clamp_count(eta, taus[:, None], factor[:, None] * eta.b_grid)
        clamped += cl
        total += tot
    assert (plan.clamped, plan.total) == (clamped, total)
    assert clamped / total == flagship_result["result"].clamp_rate == pytest.approx(0.155, abs=1e-3)


def _plan_oracle_count(plan, eta, oracle):
    """(clamped, total) of the plan's rows by an oracle that forms each row's (S, nb) lookups whole."""
    counts = [oracle(eta, rp.taus, rp.factor, plan.b) for rp in plan.rows]
    return sum(c for c, _ in counts), sum(tot for _, tot in counts)


def _lookup_clamp_count(eta, taus, factor, bs):
    """Oracle: the node x query lookups (tau, f b) that leave the grid, by the lookup's own rule, and the total."""
    return clamp_count(eta, taus[:, None], factor[:, None] * bs)


@pytest.mark.parametrize("mu_id", ["exp", "poly"])
def test_plan_clamps_are_the_lookups_that_leave_the_coarse_grid(mu_id):
    # no query of a solve on the coarse grid, under either rate, sits at a rounding tie, where the edge rule and
    # the lookup's own rule may part
    mu, model, p, pert = build_flagship(mu_id)
    eta = EtaField.zero(COARSE_GRID, 2, R, mu, p.xi, p.eps)
    plan = plan_operator(model, pert, eta, eta.t_grid, eta.b_grid, COARSE_TRUNC, p.D)
    assert (plan.clamped, plan.total) == _plan_oracle_count(plan, eta, _lookup_clamp_count)
    assert plan.clamped > 0


# b queries from a small pool, so lists repeat them, with 0, -0, the grid's edges and a subnormal
_B_QUERIES = st.lists(st.one_of(st.sampled_from([0.0, -0.0, 4.0, -4.0, 4.25, 5e-324]), st.floats(-6.0, 6.0)), max_size=12)


@given(ts=st.lists(st.floats(-5.0, 5.0), max_size=2), bs=_B_QUERIES, power=st.sampled_from([0.6, 5000.0]))
@settings(max_examples=40, deadline=None)
def test_plan_clamps_match_the_oracle(ts, bs, power):
    # t queries off the coarse grid [-3, 3] put nodes off it; under the unstable
    # power 5000 (the declared constants, and so the nodes, are the flagship's)
    # the orbit factor exp(5000 (tau - t)) underflows to 0 on the stable side and,
    # on the row at t = 0 that every example has, overflows to inf on the unstable side
    ts = [0.0, *ts]
    mu, _, p, pert = build_flagship()
    model = power_model(mu, R, (-0.8, power))
    eta = EtaField.zero(COARSE_GRID, 2, R, mu, p.xi, p.eps)
    with np.errstate(over="ignore", invalid="ignore"):
        plan = plan_operator(model, pert, eta, ts, bs, COARSE_TRUNC, p.D)
        want = _plan_oracle_count(plan, eta, edge_clamp_count)
    assert (plan.clamped, plan.total) == want
    if power > 1.0:
        factors = np.concatenate([rp.factor for rp in plan.rows])
        assert np.any(factors == 0.0) and np.any(np.isinf(factors))


@given(
    taus=st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=8),
    factors=st.lists(
        st.one_of(st.sampled_from([0.0, math.inf, math.nan, 5e-324, 1e-300, 1e300]), st.floats(1e-3, 1e3)),
        min_size=8, max_size=8,
    ),
    bs=_B_QUERIES,
)
@settings(max_examples=80, deadline=None)
def test_clamp_count_matches_the_oracle_for_any_factor(taus, factors, bs):
    # the count behind the plan's, at factors no model on the shipped grid
    # gives: subnormal, huge, 0, inf and NaN, whose edges b_grid[0] / f and
    # b_grid[-1] / f are infinite, 0 or NaN.  Queries at a node's edges and
    # their float neighbours are where the edge rule may part from the
    # lookup's own; a NaN query never leaves the b grid
    from mu_lab.conjugacy import _clamp_count

    eta = EtaField.zero(COARSE_GRID, 2, R, None, 0.0, 0.0)
    taus = np.array(taus)
    factor = np.array(factors[: taus.size])
    with np.errstate(over="ignore", invalid="ignore"):
        edges = np.concatenate([eta.b_grid[[0, -1]] / f for f in factor[np.isfinite(factor) & (factor > 0)][:2]] + [[]])
        bs = np.concatenate([bs, [math.nan], edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        want = edge_clamp_count(eta, taus, factor, bs)
        got = _clamp_count(factor, _coords(taus, eta.t_grid)[1], bs, eta.b_grid)
    assert (got, taus.size * bs.size) == want


def _held_arrays(obj):
    """Every array a plan holds, through its dataclass fields and containers."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            if f.name not in ("model", "pert"):
                yield from _held_arrays(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _held_arrays(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _held_arrays(item)


def test_plan_memory_stays_per_node(flagship):
    # the plan keeps O(S) numbers per row: no array with a b axis or a
    # segment (m+1) axis, such as cached kernels or orbit lookups, apart
    # from the b queries themselves
    model, pert, p = flagship["model"], flagship["pert"], flagship["params"]
    eta = zero_field(flagship)
    plan = plan_operator(model, pert, eta, eta.t_grid, eta.b_grid, DEFAULT_TRUNC, p.D)
    nb, m1 = len(eta.b_grid), eta.m + 1
    nodes = [rp.taus.size for rp in plan.rows]
    assert min(nodes) > 0 and not set(nodes) & {nb, m1}  # the axis test below can tell S apart
    held = [a for a in _held_arrays(plan) if a is not plan.b]
    assert all(nb not in a.shape and m1 not in a.shape for a in held)
    k = len(pert.reads)
    assert sum(a.nbytes for a in held) <= 8 * (k + 6) * sum(nodes) + 1024


def row_plan_oracle(model, pert, eta, t, trunc, D):
    """Oracle: one row's plan from that row's nodes alone, every per-node array formed for the row.

    The node factors come from the row's own log-flows at t and at its
    nodes, each kernel's factor zeroed where the kernel is 0: unstable
    coordinates at the far stable nodes, stable ones on the unstable side.
    The linear parts are those of the unstable coordinate's reads, and each
    near panel's first column is found panel by panel, on the grid the
    sweep forms for the row.
    """
    taus_s, w_s, taus_u, w_u = orbit_quadrature(model, pert, t, trunc, D, eta.m)
    taus = np.concatenate([taus_s, taus_u])
    n_far = int(np.count_nonzero(taus_s < t - model.r))
    it, wt = _cells(_coords(taus, eta.t_grid)[0], len(eta.t_grid))
    lin = np.zeros((0, taus.size))
    for coord, lag in pert.reads:
        if coord == model.unstable_indices[0]:
            lin = np.concatenate([lin, unstable_flow(model, taus - lag, taus)])
    grid = t + np.linspace(-model.r, 0.0, eta.m + 1)
    first = [np.searchsorted(grid, taus[p] - 1e-12) for p in range(n_far, taus_s.size, _NEAR_NODES)]
    unstable = np.array(model.unstable)
    flow = np.exp(model.log_flow(np.asarray(t))[:, None] - model.log_flow(taus))
    flow[unstable, :n_far] = 0.0
    flow[~unstable, taus_s.size :] = 0.0
    return {
        "t": t,
        "taus": taus,
        "n_stable": taus_s.size,
        "n_far": n_far,
        "factor": unstable_flow(model, taus, t)[0],
        "node": flow * (np.concatenate([w_s, -w_u]) * np.asarray(pert.weight(taus), dtype=float)),
        "it": it,
        "wt": wt,
        "lin": lin,
        "first": np.array(first, dtype=np.intp),
    }


@pytest.mark.parametrize("mu_id", ["exp", "poly", "log"])
def test_plan_rows_match_the_per_row_oracle_bit_for_bit(mu_id):
    # the plan forms its per-node arrays once over all rows' nodes, each node
    # with its own row's t; every row's slice equals the row planned alone.
    # The times straddle 0 and the grid's ends, and the log rate needs the
    # wide span of test_log_rate_needs_wide_span_and_solves
    mu, model, params, pert = build_flagship(mu_id)
    trunc = TruncationPolicy(tail_tol=1e-5, max_span=1e12 if mu_id == "log" else 60.0)
    eta = EtaField.zero(COARSE_GRID, 2, R, mu, params.xi, params.eps)
    ts = [-3.7, -3.0, -0.1, 0.0, 0.3, 2.9, 3.4]
    plan = plan_operator(model, pert, eta, ts, eta.b_grid, trunc, params.D)
    assert len(plan.rows) == len(ts)
    for t, row in zip(ts, plan.rows):
        want = row_plan_oracle(model, pert, eta, t, trunc, params.D)
        assert [f.name for f in dataclasses.fields(row)] == list(want)
        for name, value in want.items():
            got = getattr(row, name)
            if isinstance(value, np.ndarray):
                assert got.shape == value.shape and got.dtype == value.dtype, name
                assert got.tobytes() == value.tobytes(), name
            else:
                assert type(got) is type(value) and got == value, name


def test_planned_node_factors_times_group_kernels_are_the_dense_kernels(flagship):
    # the factored kernels of a row, node[:, j] times its group's kernel
    # column, are p0_kernel's column on the stable side and q0_kernel's on
    # the unstable side times the node's quadrature weight (negated on the
    # unstable side) and perturbation weight, with the same zeros.  Every row
    # of the shipped grid, and t = 0.3 and 0.101, where time zero splits a
    # segment cell into two near panels
    model, p, pert = flagship["model"], flagship["params"], flagship["pert"]
    eta = zero_field(flagship)
    ts = np.concatenate([eta.t_grid, [0.3, 0.101]])
    plan = plan_operator(model, pert, eta, ts, [0.5], DEFAULT_TRUNC, p.D)
    assert [rp.t for rp in plan.rows if ROW_GEOMETRIES["time zero splits a cell"](rp, eta.m)] == [0.3, 0.101]
    omega = np.linspace(-model.r, 0.0, eta.m + 1)
    for row in plan.rows:
        grid = row.t + omega
        kern = _group_kernels(model, row, model.log_flow(grid))
        got = row.node[:, :, None] * kern[:, _node_groups(row)]  # (n, S, m+1)
        _, w_s, _, w_u = orbit_quadrature(model, pert, row.t, DEFAULT_TRUNC, p.D, eta.m)
        ns = row.n_stable
        dense = np.concatenate(
            [p0_kernel(model, row.t, row.taus[:ns], omega), q0_kernel(model, row.t, row.taus[ns:], omega)], axis=1
        ) * (np.concatenate([w_s, -w_u]) * pert.weight(row.taus))[:, None]
        assert np.array_equal(got == 0.0, dense == 0.0)
        scale = np.max(np.abs(dense), axis=(1, 2))
        assert np.all(np.max(np.abs(got - dense), axis=(1, 2)) <= 1e-15 * scale)


@pytest.mark.parametrize("rows", [1, 5, 13])
def test_log_flows_are_taken_once_per_plan_and_once_per_sweep(flagship, monkeypatch, rows):
    # a plan takes the log-flows on every node's tau, on the rows' t and on
    # tau - lag for each of the two reads of the unstable coordinate; a sweep
    # takes them once, on every row's t + omega, whatever its number of rows
    # and workers
    _split_sweeps(monkeypatch, 2)
    model, p = flagship["model"], flagship["params"]
    calls = []

    def log_flow(ts):
        calls.append(np.shape(ts))
        return model.log_flow(ts)

    counted = dataclasses.replace(model, log_flow=log_flow)
    pert = linear_cross_perturbation(flagship["mu"], p, reads=[(1, R), (1, R / 2)], n=2, gain=0.3)
    eta = _noise_field(flagship)
    plan = plan_operator(counted, pert, eta, eta.t_grid[:rows], eta.b_grid, COARSE_TRUNC, p.D)
    assert len(calls) == 4
    for field in (eta, None):
        calls.clear()
        (F, _), _ = _full_sweep(plan, field)
        assert calls == [(rows, eta.m + 1)] and np.any(F != 0.0)


def test_derivative_matches_finite_difference_of_operator(flagship_result):
    model, pert, eta = flagship_result["model"], flagship_result["pert"], flagship_result["result"].eta
    D = flagship_result["params"].D
    h = 1e-4
    for t, b in [(0.3, 0.7), (-0.9, 1.3)]:
        up = F_apply(model, pert, eta, t, b + h, DEFAULT_TRUNC, D=D)
        dn = F_apply(model, pert, eta, t, b - h, DEFAULT_TRUNC, D=D)
        fd = (up.values - dn.values) / (2 * h)
        dseg = dF_db_apply(model, pert, eta, t, b, DEFAULT_TRUNC, D=D)
        scale = max(np.max(np.abs(dseg.values)), 1e-300)
        assert np.max(np.abs(fd - dseg.values)) / scale <= 1e-3


def test_derivative_norm_bound(flagship_result):
    p = flagship_result["params"]
    gap = p.alpha + p.beta - 2 * p.xi
    quad = (p.xi - p.eps) ** 2 - (p.a - p.beta) ** 2
    bound = p.D * p.lam * (p.D * quad + 4 * p.xi * p.K_tilde * gap) / (gap * quad) * (1 + p.q)
    assert flagship_result["result"].norms["dinf_mu"] <= bound + 1e-6


def _simpson(f, lo, hi, k=4096):
    if hi <= lo:
        return -_simpson(f, hi, lo, k) if hi < lo else 0.0
    if lo < 0.0 < hi:  # the envelope weight has a kink at time zero
        return _simpson(f, lo, 0.0, k) + _simpson(f, 0.0, hi, k)
    xs = np.linspace(lo, hi, k + 1)
    w = np.ones(k + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return float(np.dot(w, f(xs))) * (hi - lo) / k / 3.0


@pytest.mark.parametrize("reads", [((0, R), (1, R / 2)), ((1, R), (0, R / 2))])
def test_operator_matches_direct_quadrature_oracle(flagship, reads):
    # independent route: with the linear coupling and the zero field, both
    # orbit integrals have smooth exponential integrands; integrate them
    # densely per omega, splitting at the kernel's switch point, and compare
    # whole segments against the panel machinery
    mu, model, p = flagship["mu"], flagship["model"], flagship["params"]
    gain = 0.3
    pert = linear_cross_perturbation(mu, p, reads=list(reads), n=2, gain=gain)
    eta = zero_field(flagship)
    trunc = TruncationPolicy(tail_tol=1e-10, max_span=80.0)

    def amp(tau):
        return gain * np.exp(tau) * np.exp(tau) ** (-np.sign(tau) * (p.gamma + p.eps) - 1.0)

    def g_vec(tau, t, b):
        b_tau = b * np.exp(0.6 * (tau - t))
        w = []
        for coord, lag in reads:
            w.append(b_tau * np.exp(-0.6 * lag) if coord == 1 else 0.0 * tau)
        rolled = [w[1], w[0]]
        return amp(tau) * rolled[0], amp(tau) * rolled[1]

    for t, b in [(0.4, 1.3), (-1.1, -0.8)]:
        got = F_apply(model, pert, eta, t, b, trunc, D=p.D)
        omega = got.omega_grid
        want = np.zeros_like(got.values)
        span = 55.0
        for j, w_j in enumerate(omega):
            knot = t + w_j
            # stable coordinate: forward flow from the jump, alive for tau <= t+omega
            want[j, 0] = _simpson(
                lambda tau: np.exp(-0.8 * (knot - tau)) * g_vec(tau, t, b)[0], knot - span, knot
            )
            # unstable coordinate: negated backward tail on tau in (t+omega, t],
            # minus the pulled-back projection over tau >= t
            want[j, 1] = -_simpson(
                lambda tau: np.exp(0.6 * (knot - tau)) * g_vec(tau, t, b)[1], knot, t
            ) - _simpson(lambda tau: np.exp(0.6 * (knot - tau)) * g_vec(tau, t, b)[1], t, t + span)
        scale = max(np.max(np.abs(want)), 1e-300)
        assert np.max(np.abs(got.values - want)) / scale < 1e-7


def _numeric_stable_tail(mu, T, alpha, theta, gamma):
    # independent route: trapezoid on a dense log-spaced grid in u = mu(tau)
    u_hi = float(mu.eval(T))
    us = np.geomspace(1e-30, u_hi, 300001)
    integrand = us ** (alpha - 1.0) * us ** (np.sign(np.log(us)) * (theta - gamma))
    return float(np.trapezoid(integrand, us))


def _numeric_unstable_tail(mu, T, beta, nu, gamma):
    u_lo = float(mu.eval(T))
    us = np.geomspace(u_lo, 1e30, 300001)
    integrand = us ** (-beta - 1.0) * us ** (np.sign(np.log(us)) * (nu - gamma))
    return float(np.trapezoid(integrand, us))


@pytest.mark.parametrize("mu_id", ["exp", "poly", "log"])
@pytest.mark.parametrize("gamma", [0.5, 1.5])  # flips the sign of the upper-piece exponent
def test_truncation_cuts_meet_tolerance(mu_id, gamma):
    from mu_lab.conjugacy import _tail_cut
    from mu_lab.growth_rate import rate_by_id

    from mu_lab.errors import TruncationUnreachable

    mu = rate_by_id(mu_id)
    # the logarithmic rate reaches small mu-values only at times ~ e^(1/u),
    # so honest spans are astronomical and, past float range, the refusal
    # is the correct outcome
    trunc = TruncationPolicy(tail_tol=1e-5, max_span=1e300)
    alpha, theta, beta, nu = 0.8, 0.4, 0.6, 0.2
    checked = 0
    for t in (-2.0, 0.0, 1.5):
        for scale in (1e-3, 0.05, 2.0):
            try:
                T_lo = _tail_cut(mu, t, scale, alpha + gamma - theta, alpha + theta - gamma, 1.0, trunc)
            except TruncationUnreachable:
                assert mu_id == "log"
                continue
            if T_lo < t:  # nonempty truncation: the remaining tail meets the target
                tail = scale * _numeric_stable_tail(mu, T_lo, alpha, theta, gamma)
                assert tail <= trunc.tail_tol * 1.01
                checked += 1
            T_hi = _tail_cut(mu, t, scale, beta + gamma - nu, -(gamma - nu - beta), -1.0, trunc)
            if T_hi > t:
                tail = scale * _numeric_unstable_tail(mu, T_hi, beta, nu, gamma)
                assert tail <= trunc.tail_tol * 1.01
                checked += 1
    assert checked >= 2


@pytest.mark.parametrize("mu_id", ["exp", "poly", "log"])
def test_tail_cut_past_float_range_keeps_no_tail(mu_id):
    # a tail amplitude so small that the cut leaves float range: on the stable
    # side the closed form overflows, by its exponential (k2 = 0) or its power
    # branch; on the unstable side it underflows to mu = 0.  Either way the
    # whole tail is below the tolerance, so the cut is t itself, with no warning
    from mu_lab.conjugacy import _tail_cut
    from mu_lab.growth_rate import rate_by_id

    mu, trunc, t, scale = rate_by_id(mu_id), TruncationPolicy(tail_tol=1e-6, max_span=60.0), 0.3, 1e-300
    for k2 in (0.0, 0.01):
        assert _tail_cut(mu, t, scale, 1.2, k2, 1.0, trunc) == t
    for k2 in (0.0, 0.5, -0.5):
        assert _tail_cut(mu, t, scale, 0.8, k2, -1.0, trunc) == t


@pytest.mark.parametrize("mu_id", ["exp", "poly", "log"])
def test_panel_weights_integrate_the_time_measure(mu_id):
    # with the Jacobian folded into the weights, integrating f = 1 over the
    # panels must reproduce the plain time length of the range
    from mu_lab.conjugacy import _u_panels
    from mu_lab.growth_rate import rate_by_id

    mu = rate_by_id(mu_id)
    for lo, hi in [(-3.0, -0.5), (-1.2, 2.3), (0.4, 5.0)]:
        taus, w = _u_panels(mu, lo, hi)
        assert np.sum(w) == pytest.approx(hi - lo, rel=1e-9)
        assert np.all((taus > lo) & (taus < hi))


def loop_gl_panels(edges, nodes):
    """Oracle: Gauss-Legendre nodes and weights panel by panel, as the loop built them."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    if len(edges) < 2:
        return np.empty(0), np.empty(0)
    taus, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        taus.append(0.5 * (a + b) + 0.5 * (b - a) * x)
        weights.append(0.5 * (b - a) * w)
    return np.concatenate(taus), np.concatenate(weights)


def loop_u_panels(mu, lo_t, hi_t):
    """Oracle: the u-panels with one mu.inverse and mu.deriv call per panel."""
    from mu_lab.conjugacy import _GL_NODES, _geometric_edges

    u_lo, u_hi = float(mu.eval(lo_t)), float(mu.eval(hi_t))
    if u_hi <= u_lo * (1.0 + 1e-13):
        return np.empty(0), np.empty(0)
    if u_lo < 1.0 < u_hi:
        edges = np.concatenate([_geometric_edges(u_lo, 1.0)[:-1], _geometric_edges(1.0, u_hi)])
    else:
        edges = _geometric_edges(u_lo, u_hi)
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    taus, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        u = 0.5 * (a + b) + 0.5 * (b - a) * x
        tau = np.asarray(mu.inverse(u), dtype=float)
        weights.append(0.5 * (b - a) * w / np.asarray(mu.deriv(tau), dtype=float))
        taus.append(tau)
    return np.concatenate(taus), np.concatenate(weights)


@pytest.mark.parametrize("mu_id", ["exp", "poly", "log"])
def test_panels_match_the_panel_loop_bit_for_bit(monkeypatch, mu_id):
    # every node set of the 37 flagship rows, built in one broadcast, equals
    # the panel-by-panel loop; the log rate's tails need spans past any
    # finite max_span, so it runs with none
    from mu_lab import conjugacy

    mu, model, p, pert = build_flagship(mu_id)
    trunc = TruncationPolicy(DEFAULT_TRUNC.tail_tol, math.inf if mu_id == "log" else DEFAULT_TRUNC.max_span)
    ts = DEFAULT_GRID.t_grid()
    got = [orbit_quadrature(model, pert, float(t), trunc, p.D, DEFAULT_GRID.m) for t in ts]
    monkeypatch.setattr(conjugacy, "_u_panels", loop_u_panels)
    monkeypatch.setattr(conjugacy, "_gl_panels", loop_gl_panels)
    want = [orbit_quadrature(model, pert, float(t), trunc, p.D, DEFAULT_GRID.m) for t in ts]
    assert len(got) == 37
    for g, w in zip(got, want):
        assert all(a.size and a.tobytes() == b.tobytes() for a, b in zip(g, w))
    for edges in (np.empty(0), np.array([0.3])):  # no panel at all
        assert all(a.size == 0 for a in conjugacy._gl_panels(edges, 4))


def test_picard_zero_perturbation_converges_immediately(flagship):
    res = picard_solve(
        flagship["model"], Perturbation.zero(2), flagship["params"], COARSE_GRID, COARSE_TRUNC,
        solver_tol=SOLVER_TOL,
    )
    assert res.converged and len(res.sweeps) == 1
    assert res.norms["one_mu"] == 0.0
    assert res.derivative_margin == 1.0


def test_picard_contraction_and_norm_bounds(flagship_result):
    res = flagship_result["result"]
    p = flagship_result["params"]
    assert res.converged and len(res.sweeps) <= 25
    assert res.contraction_rate_measured <= p.q / (1 + p.q) + 0.05
    assert res.norms["inf"] <= p.D * p.delta * (p.alpha + p.beta) / (p.alpha * p.beta) + 1e-3
    assert res.norms["one_mu"] <= p.q  # stays inside the iteration ball
    assert abs(res.norms["one_mu"] - (res.norms["inf_mu"] + res.norms["dinf_mu"])) < 1e-15
    assert res.fixed_point_residual_1mu <= 2 * res.solver_tol
    assert 0.0 <= res.clamp_rate < 1.0


def _stress_coupling(flagship):
    """Linear cross coupling at gain 0.3: it takes several sweeps to converge on the coarse grid."""
    return linear_cross_perturbation(flagship["mu"], flagship["params"], reads=[(0, R), (1, R / 2)], n=2, gain=0.3)


def _coarse_solve(flagship, pert, solver_tol=SOLVER_TOL, **kw):
    return picard_solve(
        flagship["model"], pert, flagship["params"], COARSE_GRID, COARSE_TRUNC, solver_tol=solver_tol, **kw
    )


def _swept(flagship, pert, eta):
    """F(eta) as EtaField.data and the update ||F(eta) - eta||_{1,mu}, by one freshly planned sweep over eta."""
    plan = plan_operator(flagship["model"], pert, eta, eta.t_grid, eta.b_grid, COARSE_TRUNC, flagship["params"].D)
    F = np.asarray(_full_sweep(plan, eta)[0])
    w = eta.time_weights()
    delta = float(np.max(np.max(np.abs(F[0] - eta.data[0]), axis=(1, 2, 3)) * w))
    ddelta = float(np.max(np.max(np.abs(F[1] - eta.data[1]), axis=(1, 2, 3)) * w))
    return F, delta + ddelta


@pytest.mark.parametrize("coupling, max_sweeps", [("saturating", 25), ("linear", 25), ("linear", 3)])
def test_reported_residual_is_the_returned_fields_update(flagship, coupling, max_sweeps):
    # the solve returns the field its last sweep wrote, F(eta), and reports the update that sweep measured,
    # ||F(eta) - eta||; eta is what the same solve returns one sweep sooner, also when max_sweeps stops it
    pert = flagship["pert"] if coupling == "saturating" else _stress_coupling(flagship)
    res = _coarse_solve(flagship, pert, max_sweeps=max_sweeps)
    assert len(res.sweeps) >= 2
    assert res.converged == (res.fixed_point_residual_1mu <= res.solver_tol) == (max_sweeps > 3)
    F, update = _swept(flagship, pert, _coarse_solve(flagship, pert, max_sweeps=len(res.sweeps) - 1).eta)
    assert np.array_equal(F, res.eta.data)
    assert update == res.fixed_point_residual_1mu == res.sweeps[-1].delta_1mu
    # the norms come from the row maxima of the sweep that wrote the returned field
    eta = res.eta
    assert res.norms == {"inf": eta.norm_inf(), "inf_mu": eta.norm_inf_mu(), "dinf_mu": eta.dnorm_inf_mu(), "one_mu": eta.norm_1mu()}


@pytest.mark.parametrize("case, sweeps", [("saturating", 2), ("zero", 1), ("limited", 3)])
def test_solve_runs_one_sweep_per_reported_sweep(flagship, monkeypatch, case, sweeps):
    from mu_lab import conjugacy

    calls = []
    full_sweep = conjugacy._full_sweep
    monkeypatch.setattr(conjugacy, "_full_sweep", lambda plan, eta: calls.append(eta) or full_sweep(plan, eta))
    if case == "saturating":
        res = _coarse_solve(flagship, flagship["pert"])
    elif case == "zero":
        res = _coarse_solve(flagship, Perturbation.zero(2))
    else:
        res = _coarse_solve(flagship, _stress_coupling(flagship), max_sweeps=3)
    assert len(calls) == len(res.sweeps) == sweeps
    assert res.converged == (case != "limited")


@pytest.mark.parametrize(
    "settings",
    [{"max_sweeps": 0}, {"max_sweeps": -3}, {"solver_tol": -1.0}, {"solver_tol": math.nan}, {"solver_tol": math.inf}],
    ids=["no_sweeps", "negative_sweeps", "negative_tol", "nan_tol", "infinite_tol"],
)
def test_settings_that_cannot_converge_raise(flagship, monkeypatch, settings):
    from mu_lab import conjugacy

    monkeypatch.setattr(conjugacy, "plan_operator", None)  # rejected before any planning
    with pytest.raises(ValueError, match="max_sweeps|solver_tol"):
        _coarse_solve(flagship, flagship["pert"], **settings)


def test_a_solve_stopped_after_its_first_sweep_returns_that_sweeps_field(flagship_result):
    # flagship's first update, ||F(0)||_{1,mu} = 1.77e-5, is under a solver_tol of 1e-4: the solve stops after the
    # source-term sweep and returns F(0), not the zero field it started from, and F(0) meets the residual check as
    # the fully solved field does
    model, pert, solved = flagship_result["model"], flagship_result["pert"], flagship_result["result"]
    res = picard_solve(model, pert, flagship_result["params"], DEFAULT_GRID, DEFAULT_TRUNC, solver_tol=1e-4)
    assert res.converged and len(res.sweeps) == 1 and len(solved.sweeps) == 2
    assert res.fixed_point_residual_1mu == res.sweeps[0].delta_1mu < 1e-4
    assert np.any(res.eta.data != 0.0) and res.norms["one_mu"] > 0.0
    draw = dict(n_samples=200, horizon=3 * R, core=(-2.0, 2.0), b_scale=2.0, seed=20241)
    first, full = (max(x.weighted for x in verify_residuals(f.eta, model, pert, **draw)) for f in (res, solved))
    assert first == pytest.approx(full, rel=1e-9, abs=0.0)


def test_zero_solver_tol_converges_to_an_exact_fixed_point(flagship):
    res = _coarse_solve(flagship, flagship["pert"], solver_tol=0.0)
    assert res.converged and res.fixed_point_residual_1mu == 0.0


B_MAX_BOUND = 0.01  # relative change of the core residual maximum that doubling b_max may make


def _core_residual_max(flagship, b_max):
    """The largest weighted residual at |b| <= 1.4, per seed 1, 3 and 7, of the coarse-grid solve at b_max."""
    grid = dataclasses.replace(COARSE_GRID, b_max=b_max)
    model, pert = flagship["model"], flagship["pert"]
    eta = picard_solve(model, pert, flagship["params"], grid, COARSE_TRUNC, solver_tol=SOLVER_TOL).eta
    return np.array([max(r.weighted for r in verify_residuals(eta, model, pert, b_scale=1.4, seed=seed)) for seed in (1, 3, 7)])


def test_doubling_b_max_leaves_the_core_residual_unchanged(flagship):
    # clamping measured by its effect, which clamp_rate cannot see: the coarse
    # grid's b_max 4 gives the core residual of b_max 8 within the bound, while
    # b_max 1.5, inside the reach of the residual's orbits, is the negative
    # control that fails it (clamp_rate reads 0.153, 0.155 and 0.161).  The
    # exp rate, since under the poly rate the core residual is the RK4
    # integrator's own error, which b_max does not move
    wide = _core_residual_max(flagship, 8.0)

    def change(b_max):
        return float(np.max(np.abs(_core_residual_max(flagship, b_max) / wide - 1.0)))

    assert change(4.0) <= B_MAX_BOUND
    assert change(1.5) > B_MAX_BOUND


def test_refinement_stability(flagship):
    fine_grid = GridSpec(t_min=-4.5, t_max=4.5, t_step=0.125, b_max=6.0, b_step=0.015625, m=64)
    fine_trunc = TruncationPolicy(tail_tol=5e-7, max_span=60.0)
    base = picard_solve(
        flagship["model"], flagship["pert"], flagship["params"], DEFAULT_GRID, DEFAULT_TRUNC,
        solver_tol=SOLVER_TOL,
    )
    fine = picard_solve(
        flagship["model"], flagship["pert"], flagship["params"], fine_grid, fine_trunc,
        solver_tol=SOLVER_TOL,
    )
    assert abs(base.norms["inf_mu"] - fine.norms["inf_mu"]) <= 2 * SOLVER_TOL


def test_residual_zero_perturbation(flagship):
    eta = zero_field(flagship)
    for t, s, b in [(1.0, 0.0, 1.0), (0.3, -0.9, -1.7), (2.0, 1.9, 0.4)]:
        sample = conjugacy_residual(eta, flagship["model"], Perturbation.zero(2), t, s, b)
        assert sample.raw <= 1e-6


def test_residual_zero_coordinate(flagship_result):
    res = flagship_result["result"]
    sample = conjugacy_residual(res.eta, flagship_result["model"], flagship_result["pert"], 0.8, -0.2, 0.0)
    assert sample.weighted <= 2 * res.solver_tol + 1e-8


def test_residual_sampled_window(flagship_result):
    eta, model, pert = flagship_result["result"].eta, flagship_result["model"], flagship_result["pert"]
    draw = dict(n_samples=60, horizon=3 * R, core=(-2.0, 2.0), b_scale=2.0, seed=7)
    rows = verify_residuals(eta, model, pert, **draw)
    assert max(x.weighted for x in rows) <= 5e-3
    assert all(x.raw >= 0 for x in rows)
    assert_matches_scalar(rows, eta, model, pert, **draw)


def test_residual_check_tells_solved_field_from_zero_field(flagship_result):
    # negative control: the absolute 5e-3 gate passes the unsolved zero field
    # too, but on the shipped scenario's draws (seed 20240 + 1) the solved
    # field's largest residual is well under the zero field's (ratio ~0.07)
    eta, model, pert = flagship_result["result"].eta, flagship_result["model"], flagship_result["pert"]
    draw = dict(n_samples=200, horizon=3 * R, core=(-2.0, 2.0), b_scale=2.0, seed=20241)
    solved = max(x.weighted for x in verify_residuals(eta, model, pert, **draw))
    unsolved = max(x.weighted for x in verify_residuals(zero_field(flagship_result), model, pert, **draw))
    assert solved <= 0.2 * unsolved


def test_residual_time_order(flagship_result):
    with pytest.raises(TimeOrder):
        conjugacy_residual(flagship_result["result"].eta, flagship_result["model"], flagship_result["pert"], -1.0, 0.0, 1.0)


def test_residual_semigroup_coherence(flagship_result):
    # triangle-style sanity: the (s -> t) mismatch is controlled by the
    # (s -> tau) mismatch amplified by the measured propagation gain plus the
    # (tau -> t) mismatch
    model, pert, eta = flagship_result["model"], flagship_result["pert"], flagship_result["result"].eta
    s, tau, t, b = -0.5, 0.1, 0.75, 1.1
    rho = lambda x: float(np.log(model.mu.eval(x)))
    b_tau = b * np.exp(0.6 * (rho(tau) - rho(s)))
    r_st = conjugacy_residual(eta, model, pert, t, s, b).raw
    r_stau = conjugacy_residual(eta, model, pert, tau, s, b).raw
    r_taut = conjugacy_residual(eta, model, pert, t, tau, float(b_tau)).raw
    seg = eta.segment_at(tau, float(b_tau))
    gain = propagation_gain(model, pert, tau, t, seg)
    assert r_st <= gain * r_stau + r_taut + 1e-9


def test_batched_residuals_match_scalar_loop_on_coarse_poly():
    mu, model, params, pert = build_flagship("poly")
    res = picard_solve(model, pert, params, COARSE_GRID, COARSE_TRUNC, solver_tol=SOLVER_TOL)
    draw = dict(n_samples=40, horizon=3 * R, core=(-2.0, 2.0), b_scale=2.0, seed=11)
    assert_matches_scalar(verify_residuals(res.eta, model, pert, **draw), res.eta, model, pert, **draw)


def test_batched_residuals_match_scalar_loop_on_zero_field(flagship):
    # the residual gate's negative control: zero field, zero perturbation
    eta, model, pert = zero_field(flagship), flagship["model"], Perturbation.zero(2)
    draw = dict(n_samples=40, horizon=3 * R, core=(-2.0, 2.0), b_scale=2.0, seed=77)
    rows = verify_residuals(eta, model, pert, **draw)
    assert max(x.raw for x in rows) <= 1e-6
    assert_matches_scalar(rows, eta, model, pert, **draw)


@pytest.mark.parametrize(
    "reads, k",
    [(None, [0, 5, 17, 0, 96, 1]), (((1, 0.0), (0, R / 64)), [0, 5, 17, 0, 96, 1]), (None, [0, 31, 32, 0, 33, 67])],
    ids=["shipped", "lag0_and_one_step", "block_edges"],
)
def test_lattice_residuals_mixed_offsets(flagship_result, reads, k):
    # repeated starts, t = s (k = 0) beside several different k, in no order;
    # the second read set has a lag-0 read (the stage state) and a one-step
    # lag.  The shipped reads lag r and r/2, so the pass runs in blocks of
    # L = m - m/2 = 32 steps: the third case ends at L - 1, L, L + 1 and
    # 2L + 3, so an off-by-one at a block edge fails it
    eta, model, pert = flagship_result["result"].eta, flagship_result["model"], flagship_result["pert"]
    if reads is not None:
        pert = saturating_cross_perturbation(flagship_result["mu"], flagship_result["params"], reads=reads, n=2)
    h = R / eta.m
    s = np.array([0.3, -1.2, 0.3, 1.1, -0.45, 0.3])
    k = np.array(k)
    b = np.array([1.4, -0.7, 1.4, 0.2, -1.9, 0.0])
    rows = lattice_residuals(eta, model, pert, s, k, b)
    for row, si, ki, bi in zip(rows, s, k, b):
        ref = conjugacy_residual(eta, model, pert, si + h * ki, si, bi)
        assert (row.t, row.s, row.b) == (ref.t, ref.s, ref.b)
        assert abs(row.raw - ref.raw) <= 1e-12
    assert rows[0].t == rows[0].s and rows[3].t == rows[3].s


def test_verify_residuals_without_samples(flagship):
    assert verify_residuals(zero_field(flagship), flagship["model"], flagship["pert"], n_samples=0) == []


def _blows_up_after(t_blow: float, reads=((0, R), (1, 0.0))) -> Perturbation:
    # g is zero until t_blow and infinite after it
    return Perturbation(
        reads=reads,
        weight=lambda ts: np.where(np.asarray(ts) > t_blow, np.inf, 0.0),
        value_map=lambda W: np.ones((2,) + np.shape(W)[1:]),
        jvp_map=lambda W, V: np.zeros((2,) + np.shape(W)[1:]),
        n=2,
        gamma=1.0,
        envelope_scale=0.0,
    )


def test_lattice_residuals_blow_up_only_within_own_steps(flagship):
    eta, model = zero_field(flagship, COARSE_GRID), flagship["model"]
    h = R / eta.m
    pert = _blows_up_after(4.5 * h)
    with pytest.raises(NonFiniteState):
        lattice_residuals(eta, model, pert, [0.0], [10], [1.0])
    # the first sample would pass t_blow only if integrated past its own
    # k = 2, up to the k = 8 of the second, which ends before t_blow
    s, k, b = [0.0, -1.0], [2, 8], [1.0, -0.5]
    rows = lattice_residuals(eta, model, pert, s, k, b)
    for row, si, ki, bi in zip(rows, s, k, b):
        assert np.isfinite(row.raw)
        assert abs(row.raw - conjugacy_residual(eta, model, pert, si + h * ki, si, bi).raw) <= 1e-12
    # the error names the per-step rule's sample: at the first step at which a
    # live sample's state is not finite, the first such sample in order of
    # decreasing k.  A step's state is infinite once its last stage time
    # passes t_blow; h is a power of 2, so every time here is exact
    s, k, b = [0.0, -2 * h, h, h], [10, 3, 6, 12], [1.0, -0.5, 0.25, -0.75]
    blown = []
    for j in range(max(k)):
        for i in sorted(range(len(s)), key=lambda i: -k[i]):
            if j < k[i] and s[i] + h * (j + 1) > 4.5 * h:
                blown.append((j, i))
    j, i = min(blown, key=lambda step: step[0])
    assert (j, i) == (3, 3)  # sample 2 blows up at the same step, but is later in that order
    message = f"state blew up at t = {s[i] + h * (j + 1)} (sample from s = {s[i]}, b = {b[i]})"
    with pytest.raises(NonFiniteState, match=re.escape(message)):
        lattice_residuals(eta, model, pert, s, k, b)


def test_lattice_residuals_blow_up_rule_on_the_block_path(flagship):
    # reads at lags m and m/2 steps and none at lag 0, so the pass runs in
    # blocks of L = m - m/2 = 16 steps.  The samples here stay finite, their
    # own t ending before t_blow, though the second block's perturbation
    # term runs past t_blow for the first one, after its own k = 20
    eta, model = zero_field(flagship, COARSE_GRID), flagship["model"]
    h = R / eta.m
    t_blow = (16 + 4.5) * h
    pert = _blows_up_after(t_blow, ((0, R), (1, R / 2)))
    s, k, b = [0.0, -2 * h], [20, 22], [1.0, -0.5]
    rows = lattice_residuals(eta, model, pert, s, k, b)
    for row, si, ki, bi in zip(rows, s, k, b):
        assert np.isfinite(row.raw)
        assert abs(row.raw - conjugacy_residual(eta, model, pert, si + h * ki, si, bi).raw) <= 1e-12
    # the error names the per-step rule's sample: at the first step at which
    # a live sample's state is not finite, the first such sample in order of
    # decreasing k; here step 19, inside the second block, where sample 2
    # blows up too but comes later in that order
    s, k, b = [0.0, -2 * h, h, h], [26, 19, 22, 28], [1.0, -0.5, 0.25, -0.75]
    blown = []
    for j in range(max(k)):
        for i in sorted(range(len(s)), key=lambda i: -k[i]):
            if j < k[i] and s[i] + h * (j + 1) > t_blow:
                blown.append((j, i))
    j, i = min(blown, key=lambda step: step[0])
    assert (j, i) == (19, 3)
    message = f"state blew up at t = {s[i] + h * (j + 1)} (sample from s = {s[i]}, b = {b[i]})"
    with pytest.raises(NonFiniteState, match=re.escape(message)):
        lattice_residuals(eta, model, pert, s, k, b)


def test_lattice_residuals_locate_only_a_state_that_is_not_finite(flagship):
    # the sum of twenty finite states of about 1e307 overflows; that alone
    # raises nothing, and each sample matches its residual integrated alone
    eta, model = zero_field(flagship, COARSE_GRID), flagship["model"]
    s, k, b = np.linspace(-1.0, 1.0, 20), np.full(20, 3), np.full(20, 1e307)
    rows = lattice_residuals(eta, model, Perturbation.zero(2), s, k, b)
    assert all(np.isfinite(row.raw) for row in rows)
    for row, si, ki, bi in zip(rows, s, k, b):
        assert row == lattice_residuals(eta, model, Perturbation.zero(2), [si], [ki], [bi])[0]


def test_clamp_rate_counts_queries():
    # a query is clamped when its t or its b leaves the grid, once, even
    # when both do; t queries broadcast as (S, 1) against b as (S, nb)
    tg = bg = np.array([0.0, 1.0, 2.0])
    eta = EtaField(tg, bg, np.zeros((2, 3, 3, 1, 2)), R, None, 0.0, 0.0)
    assert clamp_count(eta, np.array([[-1.0], [0.5]]), np.array([[0.5, 0.5, 0.5], [0.5, 3.0, -1.0]])) == (5, 6)
    assert clamp_count(eta, np.array([[-1.0], [5.0]]), np.array([[-1.0, 9.0], [-2.0, 7.0]])) == (4, 4)
    assert clamp_count(eta, np.array([0.5, 1.5]), np.array([1.0, 2.0])) == (0, 2)


def test_invertibility_report(flagship_result):
    res = flagship_result["result"]
    p = flagship_result["params"]
    report = invertibility_check(res, flagship_result["model"])
    assert report["margin_positive"]
    assert report["margin"] >= 1.0 / (1 + p.q) - 0.05
    assert report["fd_ok"] and report["fd_rel_err"] <= 1e-3
    assert report["monotone"] is True


def test_negative_control_gain_diverges(flagship):
    p = flagship["params"]
    declared = p.with_(delta=2.0 * delta_ceiling(p))
    neg = linear_cross_perturbation(flagship["mu"], declared.with_(gamma=0.5, xi=0.6, eps=0.1), reads=[(0, R), (1, R / 2)], n=2, gain=2.0)
    with pytest.raises(NotContracting) as err:
        picard_solve(
            flagship["model"], neg, declared, COARSE_GRID, COARSE_TRUNC,
            solver_tol=SOLVER_TOL, max_sweeps=10,
        )
    assert len(err.value.sweeps) <= 10


def test_doubled_deriv_scale_shrinks_margin(flagship):
    # envelope-honest perturbation pushed past the derivative ceiling: the
    # solver still contracts, and the recorded margin shrinks
    p = flagship["params"]
    base = picard_solve(flagship["model"], flagship["pert"], p, COARSE_GRID, COARSE_TRUNC, solver_tol=SOLVER_TOL)
    hot_params = p.with_(lam=2.0 * lambda_ceiling(p))
    hot = saturating_cross_perturbation(flagship["mu"], hot_params, reads=[(0, R), (1, R / 2)], n=2)
    res = picard_solve(
        flagship["model"], hot, hot_params, COARSE_GRID, COARSE_TRUNC,
        solver_tol=SOLVER_TOL,
    )
    assert res.derivative_margin < base.derivative_margin
    assert res.derivative_margin > 0.0  # recorded outcome: margin shrank, no divergence


def test_truncation_unreachable(flagship):
    tight = TruncationPolicy(tail_tol=1e-12, max_span=1.0)
    eta = zero_field(flagship)
    with pytest.raises(TruncationUnreachable):
        F_apply(flagship["model"], flagship["pert"], eta, 0.0, 1.0, tight, D=flagship["params"].D)


def test_log_rate_needs_wide_span_and_solves():
    mu, model, params, pert = build_flagship("log")
    grid = GridSpec(t_min=-2.0, t_max=2.0, t_step=0.5, b_max=3.0, b_step=0.25, m=32)
    with pytest.raises(TruncationUnreachable):
        picard_solve(model, pert, params, grid, TruncationPolicy(tail_tol=1e-5, max_span=60.0))
    res = picard_solve(
        model, pert, params, grid, TruncationPolicy(tail_tol=1e-5, max_span=1e12), solver_tol=SOLVER_TOL
    )
    assert res.converged
    draw = dict(n_samples=10, horizon=1.0, core=(-1.0, 1.0), b_scale=1.0, seed=3)
    rows = verify_residuals(res.eta, model, pert, **draw)
    assert max(x.weighted for x in rows) <= 5e-3
    assert_matches_scalar(rows, res.eta, model, pert, **draw)


def test_eta_field_interpolation_exact_at_nodes(flagship_result):
    eta = flagship_result["result"].eta
    ti, bj = 5, 40
    seg = eta.segment_at(float(eta.t_grid[ti]), float(eta.b_grid[bj]))
    assert np.allclose(seg.values.T, eta.data[0, ti, bj], atol=1e-14)


def test_shipped_perturbation_envelopes(flagship):
    # both declared envelopes hold on sampled pairs; the weighted one binds
    mu, pert, p = flagship["mu"], flagship["pert"], flagship["params"]
    rng = np.random.default_rng(12)
    worst_mu, worst_plain = 0.0, 0.0
    worst_d = 0.0
    for _ in range(150):
        t = float(rng.uniform(-3, 3))
        m = 32
        mk = lambda: Segment(R, rng.normal(scale=rng.uniform(0.05, 2.0), size=(m + 1, 2)))
        phi, psi = mk(), mk()
        dphi = phi - psi
        env_t = float(mu.deriv(t)) * float(mu.eval(t)) ** (-np.sign(t) * (p.gamma + p.eps) - 1.0)
        gap = np.max(np.abs(np.asarray(pert.g(t, phi)) - np.asarray(pert.g(t, psi))))
        cap_mu = p.delta * min(1.0, mu_norm(dphi, t, mu, p.xi, p.eps)) * env_t
        cap_plain = p.delta * min(1.0, sup_norm(dphi)) * env_t
        if cap_mu > 0:
            worst_mu = max(worst_mu, gap / cap_mu)
        if cap_plain > 0:
            worst_plain = max(worst_plain, gap / cap_plain)
        denv_t = float(mu.deriv(t)) * float(mu.eval(t)) ** (
            -np.sign(t) * (p.gamma + p.eps) - 2 * np.sign(t) * p.xi - 1.0
        )
        chi = mk()
        dgap = np.max(
            np.abs(np.asarray(pert.d2g(t, phi)(chi)) - np.asarray(pert.d2g(t, psi)(chi)))
        )
        cap_d = p.lam * min(1.0, mu_norm(dphi, t, mu, p.xi, p.eps)) * denv_t * sup_norm(chi)
        if cap_d > 0:
            worst_d = max(worst_d, dgap / cap_d)
    assert worst_mu <= 1.0 + 1e-9
    assert worst_plain <= 1.0 + 1e-9
    assert worst_d <= 1.0 + 1e-9
    assert worst_mu >= worst_plain - 1e-12  # the weighted envelope binds
