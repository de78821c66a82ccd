import dataclasses
import math

import numpy as np
import pytest

from conftest import COARSE_GRID, COARSE_TRUNC, DEFAULT_GRID, DEFAULT_TRUNC, SOLVER_TOL, R, build_flagship
from mu_lab.admissibility import delta_ceiling, lambda_ceiling
from mu_lab.conjugacy import (
    EtaField,
    GridSpec,
    TruncationPolicy,
    _B_CHUNK,
    _cells,
    _coords,
    _full_sweep,
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
from mu_lab.dichotomy import p0_kernel, q0_kernel, unstable_flow, unstable_shape
from mu_lab.errors import NonFiniteState, NotContracting, OutOfDomain, TimeOrder, TruncationUnreachable
from mu_lab.phase_space import Segment, lag_index, mu_norm, sup_norm


def zero_field(flagship, grid=DEFAULT_GRID):
    p = flagship["params"]
    return EtaField.zero(grid, 2, R, flagship["mu"], p.xi, p.eps)


def F_apply(model, pert, eta, t, b, trunc, *, D):
    """Oracle helper: the planned operator at the one point (t, b)."""
    out, _ = _full_sweep(plan_operator(model, pert, eta, [t], [b], trunc, D), eta)
    return Segment(model.r, out[0, 0].T)


def dF_db_apply(model, pert, eta, t, b, trunc, *, D):
    """Oracle helper: the planned operator's b-derivative at the one point (t, b)."""
    _, dout = _full_sweep(plan_operator(model, pert, eta, [t], [b], trunc, D), eta)
    return Segment(model.r, dout[0, 0].T)


def clamp_count(eta, tq, bq):
    """Oracle: the broadcast queries (tq, bq) that leave the grid on either axis, once each, and the total."""
    outside = _coords(tq, eta.t_grid)[1] | _coords(bq, eta.b_grid)[1]
    return int(np.count_nonzero(outside)), outside.size


def scalar_residuals(eta, model, pert, *, n_samples, horizon, core, b_scale, seed):
    """Oracle: verify_residuals' draws, one scalar conjugacy_residual each."""
    rng = np.random.default_rng(seed)
    h = model.r / eta.m
    max_k = max(int(np.floor(horizon / h + 1e-9)), 0)
    rows = []
    for _ in range(n_samples):
        s = float(rng.uniform(*core))
        t = s + h * int(rng.integers(0, max_k + 1))
        b = float(rng.uniform(-b_scale, b_scale))
        rows.append(conjugacy_residual(eta, model, pert, t, s, b))
    return rows


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
        return np.asarray(model.coords[u_idx].log_flow(np.asarray(ts, dtype=float)), dtype=float)

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


def block_oracle_sweep(plan, eta, scenario_reads, value_map, jvp_map):
    """Oracle: the sweep in (S, c, k) blocks, as it was before the read-major block.

    Reads stay in scenario order, and the maps roll them so that component
    i sees scenario read i+1; each block transposes W and V to (S, c, k),
    scales the maps' values by the weight per node and transposes them back
    for the same batched matmul.  Only the plan's orbit data is shared.
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
    tables = np.concatenate([eta.values.transpose(2, 3, 0, 1)[cs, js], eta.dvalues.transpose(2, 3, 0, 1)[cs, js]])
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
        kern = np.concatenate(
            [p0_kernel(model, row.t, row.taus[:ns], omega), q0_kernel(model, row.t, row.taus[ns:], omega)], axis=1
        ) * row.weights[:, None]
        for lo in range(0, nb, _B_CHUNK):
            hi = min(lo + _B_CHUNK, nb)
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
    out, dout = _full_sweep(plan, eta)
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
    # a non-zero field on the coarse grid, queried at more b than one block
    # holds and past both ends of the b grid, so blocks, clamps and both
    # sides of every orbit are exercised
    model, p = flagship["model"], flagship["params"]
    scenario = [(0, R), (1, R / 2)]
    if coupling == "saturating":
        pert = saturating_cross_perturbation(flagship["mu"], flagship["params"], reads=scenario, n=2)
    else:
        pert = linear_cross_perturbation(flagship["mu"], flagship["params"], reads=scenario, n=2, gain=0.3)
    eta = zero_field(flagship, COARSE_GRID)
    values, dvalues = 0.1 * np.random.default_rng(11).normal(size=(2,) + eta.values.shape)
    eta = eta.with_data(values, dvalues)
    bs = np.linspace(-4.5, 4.5, 2 * _B_CHUNK + 17)
    plan = plan_operator(model, pert, eta, eta.t_grid, bs, COARSE_TRUNC, p.D)
    F, dF = _full_sweep(plan, eta)
    F_ref, dF_ref = block_oracle_sweep(plan, eta, scenario, *ROLLED_MAPS[coupling])
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
    # gathers' +0.0 plus it is +0.0.  The b queries leave a remainder block
    model, p = flagship["model"], flagship["params"]
    scenario = [(0, R), (1, R / 2)]
    if coupling == "saturating":
        pert = saturating_cross_perturbation(flagship["mu"], flagship["params"], reads=scenario, n=2)
    elif coupling == "linear":
        pert = linear_cross_perturbation(flagship["mu"], flagship["params"], reads=scenario, n=2, gain=0.3)
    else:
        pert = Perturbation.zero(2)
    eta = zero_field(flagship, COARSE_GRID)
    bs = np.concatenate([np.linspace(-4.5, 4.5, 2 * _B_CHUNK + 17), [-0.0]])
    plan = plan_operator(model, pert, eta, eta.t_grid, bs, COARSE_TRUNC, p.D)
    seen, seen_zero = [], []
    F, dF = _full_sweep(dataclasses.replace(plan, pert=_recording(pert, seen)), None)
    F0, dF0 = _full_sweep(dataclasses.replace(plan, pert=_recording(pert, seen_zero)), eta)
    assert F.tobytes() == F0.tobytes() and dF.tobytes() == dF0.tobytes()
    assert [a.tobytes() for a in seen] == [a.tobytes() for a in seen_zero]
    assert not any(np.any(np.signbit(a) & (a == 0.0)) for a in seen)  # no read is -0.0
    if coupling == "zero":
        assert not np.any(F) and not np.any(dF)
    else:
        F_ref, dF_ref = block_oracle_sweep(plan, eta, scenario, *ROLLED_MAPS[coupling])
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
def test_row_geometries_match_the_oracles(flagship_result, tail_tol, geometries):
    # rows the shipped grid never plans: at t = 0.3 and 0.101 time zero splits
    # a segment cell into two near panels, a loose tail tolerance cuts the far
    # nodes or the unstable side, and a looser one every node.  The linear
    # coupling's source term reaches the unstable coordinate, where the
    # saturating one's is 0
    model, eta, p = flagship_result["model"], flagship_result["result"].eta, flagship_result["params"]
    scenario = [(0, R), (1, R / 2)]
    pert = linear_cross_perturbation(flagship_result["mu"], p, reads=scenario, n=2, gain=0.3)
    trunc = TruncationPolicy(tail_tol=tail_tol, max_span=60.0)
    ts = np.concatenate([eta.t_grid, [0.3, 0.101]])
    bs = eta.b_grid[[0, 100, 250, len(eta.b_grid) - 1]]
    plan = plan_operator(model, pert, eta, ts, bs, trunc, p.D)
    F, dF = _full_sweep(plan, eta)
    F_ref, dF_ref = block_oracle_sweep(plan, eta, scenario, *ROLLED_MAPS["linear"])
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
    u = model.coords[model.unstable_indices[0]]
    clamped = total = 0
    for t in eta.t_grid:
        taus_s, _, taus_u, _ = orbit_quadrature(model, pert, float(t), DEFAULT_TRUNC, D, eta.m)
        taus = np.concatenate([taus_s, taus_u])
        factor = np.exp(u.log_flow(taus) - u.log_flow(np.array([t])))
        cl, tot = clamp_count(eta, taus[:, None], factor[:, None] * eta.b_grid)
        clamped += cl
        total += tot
    assert (plan.clamped, plan.total) == (clamped, total)
    assert clamped / total == flagship_result["result"].clamp_rate == pytest.approx(0.155, abs=1e-3)


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
    from mu_lab.conjugacy import _stable_cut, _unstable_cut
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
                T_lo = _stable_cut(mu, t, scale, alpha, theta, gamma, trunc)
            except TruncationUnreachable:
                assert mu_id == "log"
                continue
            if T_lo < t:  # nonempty truncation: the remaining tail meets the target
                tail = scale * _numeric_stable_tail(mu, T_lo, alpha, theta, gamma)
                assert tail <= trunc.tail_tol * 1.01
                checked += 1
            T_hi = _unstable_cut(mu, t, scale, beta, nu, gamma, trunc)
            if T_hi > t:
                tail = scale * _numeric_unstable_tail(mu, T_hi, beta, nu, gamma)
                assert tail <= trunc.tail_tol * 1.01
                checked += 1
    assert checked >= 2


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


@pytest.mark.parametrize("reads", [None, ((1, 0.0), (0, R / 64))], ids=["shipped", "lag0_and_one_step"])
def test_lattice_residuals_mixed_offsets(flagship_result, reads):
    # repeated starts, t = s (k = 0) beside several different k, in no order;
    # the second read set has a lag-0 read (the stage state) and a one-step lag
    eta, model, pert = flagship_result["result"].eta, flagship_result["model"], flagship_result["pert"]
    if reads is not None:
        pert = saturating_cross_perturbation(flagship_result["mu"], flagship_result["params"], reads=reads, n=2)
    h = R / eta.m
    s = np.array([0.3, -1.2, 0.3, 1.1, -0.45, 0.3])
    k = np.array([0, 5, 17, 0, 96, 1])
    b = np.array([1.4, -0.7, 1.4, 0.2, -1.9, 0.0])
    rows = lattice_residuals(eta, model, pert, s, k, b)
    for row, si, ki, bi in zip(rows, s, k, b):
        ref = conjugacy_residual(eta, model, pert, si + h * ki, si, bi)
        assert (row.t, row.s, row.b) == (ref.t, ref.s, ref.b)
        assert abs(row.raw - ref.raw) <= 1e-12
    assert rows[0].t == rows[0].s and rows[3].t == rows[3].s


def test_verify_residuals_without_samples(flagship):
    assert verify_residuals(zero_field(flagship), flagship["model"], flagship["pert"], n_samples=0) == []


def _blows_up_after(t_blow: float) -> Perturbation:
    # g is zero until t_blow and infinite after it
    return Perturbation(
        reads=((0, R), (1, 0.0)),
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


def test_clamp_rate_counts_queries():
    # a query is clamped when its t or its b leaves the grid, once, even
    # when both do; t queries broadcast as (S, 1) against b as (S, nb)
    tg = bg = np.array([0.0, 1.0, 2.0])
    eta = EtaField(tg, bg, np.zeros((3, 3, 1, 2)), np.zeros((3, 3, 1, 2)), R, None, 0.0, 0.0)
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
            solver_tol=SOLVER_TOL, max_sweeps=10, require_admissible=False,
        )
    assert len(err.value.sweeps) <= 10


def test_admissibility_gate_blocks_solver(flagship):
    p = flagship["params"]
    bad = p.with_(delta=2.0 * delta_ceiling(p))
    with pytest.raises(ValueError, match="admissibility"):
        picard_solve(flagship["model"], flagship["pert"], bad, COARSE_GRID, COARSE_TRUNC)


def test_doubled_deriv_scale_shrinks_margin(flagship):
    # envelope-honest perturbation pushed past the derivative ceiling: the
    # solver still contracts, and the recorded margin shrinks
    p = flagship["params"]
    base = picard_solve(flagship["model"], flagship["pert"], p, COARSE_GRID, COARSE_TRUNC, solver_tol=SOLVER_TOL)
    hot_params = p.with_(lam=2.0 * lambda_ceiling(p))
    hot = saturating_cross_perturbation(flagship["mu"], hot_params, reads=[(0, R), (1, R / 2)], n=2)
    res = picard_solve(
        flagship["model"], hot, hot_params, COARSE_GRID, COARSE_TRUNC,
        solver_tol=SOLVER_TOL, require_admissible=False,
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
    assert np.allclose(seg.values.T, eta.values[ti, bj], atol=1e-14)


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
