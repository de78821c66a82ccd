"""Fixed-point construction of the conjugacy correction field.

The correction eta(t, b) maps a time and an unstable coordinate to a
segment; together with its b-derivative it is iterated as one object,
because the contraction estimate couples the two.  Each evaluation of the
defining operator is a pair of improper integrals over the orbit through
(t, b): a stable-side integral over tau <= t driven by projected jump
responses, and an unstable-side integral over tau >= t pulled back along
the unstable flow.  Both are truncated where their proof-grade envelopes
integrate below a requested tail tolerance, and quadrature runs in the
substituted variable u = mu(tau), where every envelope is a pure power --
panels are geometric in u with fixed Gauss-Legendre nodes per panel.

Only the field changes between sweeps, so the operator is planned once per
solve (plan_operator, O(S) numbers per row of S nodes); its clamp count
takes every row's nodes at once and finds each node's clamped b queries
at the edges of the sorted b queries (_clamp_count), so no (S, nb) lookup
is formed.  A sweep (_full_sweep) walks
each row in blocks of its nodes with every b query at once, gathers the
perturbation's point reads from the field read-major, applies its maps
there and adds them, with one group matmul per block, to sums over the
node groups on which the diagonal kernels' step is constant; each row ends
by contracting those sums with a small per-row matrix (_group_kernels).  A
block is any run of nodes capped by its number of node x b-query reads, so
a worker's temporaries stay small whatever the grid.  The rows are
shared out over one thread per usable CPU (os.sched_getaffinity), as long
as each thread gets at least _WORKER_READS reads: a small sweep stays on
the calling thread.  One thread computes each row whole, so the field does
not depend on the thread count.  The solve starts from the zero field, so
its first sweep is the source term F(0): it reads no field and gathers
nothing.  Every sweep measures the update ||F(eta) - eta|| of the field it
reads, and the solve returns the last field so measured: its reported
fixed-point residual is that update, and no sweep is run only to measure it.
The worker that writes a row also takes the row's update maximum and its
absolute maximum while the row is in cache; the solve reads the update
norms and the returned field's norms from those, and invertibility_check
takes its per-row statistics on the same workers, so no pass over the
whole field runs on one thread.

Off the stored grid the field is evaluated by bilinear interpolation,
clamped to the boundary value outside; clamp events are counted and
reported.  The error induced by clamping is second order: the integrand
envelope already decays below the tail tolerance wherever clamping can
trigger for core evaluations.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .admissibility import ParamSet, full_report  # noqa: F401  (perfbench/spans.py traces full_report here)
from .dde_core import Perturbation, solve_perturbed_R
from .dichotomy import DichotomyModel, unstable_flow, unstable_shape
from .dichotomy import p0_kernel, q0_kernel  # noqa: F401  (perfbench/spans.py traces them here)
from .errors import NonFiniteState, NotContracting, TimeOrder, TruncationUnreachable
from .growth_rate import mu_weight, ratio_bound_N  # noqa: F401  (perfbench/spans.py traces it here)
from .phase_space import Segment, lag_index, sup_norm


@lru_cache
def _gl(nodes: int):
    return np.polynomial.legendre.leggauss(nodes)


_GL_NODES = 16  # Gauss-Legendre nodes per geometric panel, one panel per octave of u


@dataclass(frozen=True)
class TruncationPolicy:
    tail_tol: float = 1e-4
    max_span: float = 60.0


@dataclass(frozen=True)
class GridSpec:
    t_min: float
    t_max: float
    t_step: float
    b_max: float
    b_step: float
    m: int = 64

    def t_grid(self) -> np.ndarray:
        k = int(round((self.t_max - self.t_min) / self.t_step))
        return self.t_min + self.t_step * np.arange(k + 1)

    def b_grid(self) -> np.ndarray:
        k = int(round(2 * self.b_max / self.b_step))
        return -self.b_max + self.b_step * np.arange(k + 1)


def _cells(x: np.ndarray, size: int):
    """Cell index and in-cell weight of grid coordinates x, clamped to the grid.

    The cast floors the clamped x; a NaN x casts below 0 and lands in cell 0.
    """
    xc = np.clip(x, 0.0, size - 1)
    i = np.clip(xc.astype(np.intp), 0, size - 2)
    return i, xc - i


def _coords(q, grid: np.ndarray):
    """Coordinates of queries q on a uniform grid, and where they leave it."""
    x = (np.asarray(q, dtype=float) - grid[0]) / (grid[1] - grid[0])
    return x, (x < 0) | (x > len(grid) - 1)


@dataclass
class EtaField:
    """Correction field and its b-derivative on a (t, b) tensor grid.

    values and dvalues have shape (nt, nb, n, m+1): per grid node one
    segment sampled on omega_j = -r + j r/m.
    """

    t_grid: np.ndarray
    b_grid: np.ndarray
    values: np.ndarray
    dvalues: np.ndarray
    r: float
    mu: object
    xi: float
    eps: float

    @classmethod
    def zero(cls, grid: GridSpec, n: int, r: float, mu, xi: float, eps: float) -> "EtaField":
        tg, bg = grid.t_grid(), grid.b_grid()
        shape = (len(tg), len(bg), n, grid.m + 1)
        return cls(tg, bg, np.zeros(shape), np.zeros(shape), r, mu, xi, eps)

    @property
    def n(self) -> int:
        return self.values.shape[2]

    @property
    def m(self) -> int:
        return self.values.shape[3] - 1

    def with_data(self, values: np.ndarray, dvalues: np.ndarray) -> "EtaField":
        return EtaField(self.t_grid, self.b_grid, values, dvalues, self.r, self.mu, self.xi, self.eps)

    def interp_tables(self, tables: np.ndarray, tq, bq):
        """Bilinear lookup of stacked tables (nt, nb, L) at broadcast queries, clamped to the grid."""
        it, wt = _cells(_coords(tq, self.t_grid)[0], len(self.t_grid))
        ib, wb = _cells(_coords(bq, self.b_grid)[0], len(self.b_grid))
        wt = wt[..., None]
        wb = wb[..., None]
        v00 = tables[it, ib]
        v10 = tables[it + 1, ib]
        v01 = tables[it, ib + 1]
        v11 = tables[it + 1, ib + 1]
        out = (1 - wt) * ((1 - wb) * v00 + wb * v01) + wt * ((1 - wb) * v10 + wb * v11)
        return out

    def segment_at(self, t: float, b: float, derivative: bool = False) -> Segment:
        data = self.dvalues if derivative else self.values
        stacked = data.reshape(data.shape[0], data.shape[1], -1)
        out = self.interp_tables(stacked, np.array([t]), np.array([b]))
        return Segment(self.r, out[0].reshape(self.n, self.m + 1).T)

    def time_weights(self) -> np.ndarray:
        return np.asarray(mu_weight(self.mu, self.t_grid, self.xi + self.eps), dtype=float)

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def _weighted_max(self, data: np.ndarray) -> float:
        """max over t of the time weight times the largest |data| on that time row."""
        return float(np.max(np.max(np.abs(data), axis=(1, 2, 3)) * self.time_weights()))

    def norm_inf_mu(self) -> float:
        return self._weighted_max(self.values)

    def dnorm_inf_mu(self) -> float:
        return self._weighted_max(self.dvalues)

    def norm_1mu(self) -> float:
        return self.norm_inf_mu() + self.dnorm_inf_mu()


# ---------------------------------------------------------------------------
# truncation from the proof-grade envelopes
# ---------------------------------------------------------------------------


def _tail_cut(mu, t: float, scale: float, k1: float, k2: float, sign: float, trunc: TruncationPolicy) -> float:
    """The cut T of one envelope tail: integral of the envelope beyond T <= tail_tol.

    sign 1 is the stable side: the tail runs over tau <= T_lo <= t and the
    envelope is mu'(tau) mu(tau)^(alpha-1) mu(tau)^(sgn(tau)(theta-gamma)),
    with k1 = alpha + gamma - theta and k2 = alpha + theta - gamma.  sign -1
    is the unstable side, tau >= T_hi >= t, with k1 = beta + gamma - nu and
    k2 = -(gamma - nu - beta).  scale is the amplitude D delta mu(t)^(-alpha)
    or mu(t)^beta; the tail has the closed form of a mu-power on each side
    of zero.  A cut past float range leaves the whole tail below the
    tolerance, so T = t.
    """
    if scale <= 0.0:
        return t
    if k1 <= 0:
        raise ValueError(f"envelope decay too weak: k1 = {k1} must be positive")
    target = trunc.tail_tol / scale
    try:
        if target <= 1.0 / k1:
            v = (k1 * target) ** (sign / k1)
        elif abs(k2) < 1e-14:
            v = math.exp(sign * (target - 1.0 / k1))
        else:
            arg = 1.0 + k2 * (target - 1.0 / k1)
            if arg <= 0.0:
                return t  # the whole tail is below the tolerance
            v = arg ** (sign / k2)
    except OverflowError:
        return t
    with np.errstate(divide="ignore"):  # an unstable v that underflows to 0 inverts to T = -inf
        T = float(mu.inverse(np.asarray(v)))
    if sign * (T - t) > 0:
        return t
    if sign * (t - T) > trunc.max_span:
        side = "stable" if sign > 0 else "unstable"
        raise TruncationUnreachable(
            f"{side} tail needs span {sign * (t - T):.1f} > max_span {trunc.max_span} at t={t}"
        )
    return T


def _geometric_edges(u_lo: float, u_hi: float) -> np.ndarray:
    n_pan = max(1, int(math.ceil(math.log2(u_hi / u_lo))))
    return u_lo * (u_hi / u_lo) ** (np.arange(n_pan + 1) / n_pan)


def _gl_panels(edges: np.ndarray, nodes: int):
    """Gauss-Legendre nodes and weights on every panel between the edges, as (x, w)."""
    x, w = _gl(nodes)
    a, b = edges[:-1, None], edges[1:, None]
    return (0.5 * (a + b) + 0.5 * (b - a) * x).ravel(), (0.5 * (b - a) * w).ravel()


def _u_panels(mu, lo_t: float, hi_t: float):
    """Gauss-Legendre nodes in u = mu(tau) on geometric panels, as (taus, w).

    Weights carry the d tau measure (the Jacobian 1/mu' is folded in), so
    callers integrate f(tau) directly.  u = 1 (time zero) is always a panel
    edge: the sign-switching weights are merely continuous there.
    """
    u_lo = float(mu.eval(lo_t))
    u_hi = float(mu.eval(hi_t))
    if u_hi <= u_lo * (1.0 + 1e-13):
        return np.empty(0), np.empty(0)
    if u_lo < 1.0 < u_hi:
        edges = np.concatenate([_geometric_edges(u_lo, 1.0)[:-1], _geometric_edges(1.0, u_hi)])
    else:
        edges = _geometric_edges(u_lo, u_hi)
    u, wu = _gl_panels(edges, _GL_NODES)
    tau = np.asarray(mu.inverse(u), dtype=float)
    return tau, wu / np.asarray(mu.deriv(tau), dtype=float)


_NEAR_NODES = 4


def _near_cell_edges(t: float, r: float, m: int, lo: float) -> np.ndarray:
    """Cell edges on [max(lo, t-r), t] aligned with the segment grid t + omega.

    The projected-jump kernels switch branch exactly at tau = t + omega_j;
    aligning panel edges with those points keeps every panel smooth.  Time
    zero is inserted as an extra edge when it falls inside a cell, for the
    same reason as in the geometric panels.
    """
    grid = t + np.linspace(-r, 0.0, m + 1)
    edges = grid[grid > lo + 1e-13]
    if len(edges) == 0 or edges[0] > lo + 1e-13:
        edges = np.concatenate([[lo], edges])
    if edges[0] < 0.0 < edges[-1] and np.min(np.abs(edges)) > 1e-13:
        edges = np.sort(np.concatenate([edges, [0.0]]))
    return edges


def orbit_quadrature(model: DichotomyModel, pert: Perturbation, t: float, trunc: TruncationPolicy, D: float, m: int):
    """Truncated node sets for both sides of the defining operator at time t.

    The truncation scale is D times the honest envelope amplitude of the
    perturbation, so the certified tail error is absolute.  The stable side
    is split at t - r: beyond one delay every segment sample sees the pure
    forward branch of the projected-jump kernel, while inside the last
    delay interval the kernel switches branch at tau = t + omega_j, so the
    panels there are aligned with the segment grid.
    """
    mu = model.mu
    mu_t = float(mu.eval(t))
    scale_s = D * pert.envelope_scale * mu_t ** (-model.alpha)
    scale_u = D * pert.envelope_scale * mu_t**model.beta
    a, b, gamma = model.alpha, model.beta, pert.gamma
    t_lo = _tail_cut(mu, t, scale_s, a + gamma - model.theta, a + model.theta - gamma, 1.0, trunc)
    t_hi = _tail_cut(mu, t, scale_u, b + gamma - model.nu, -(gamma - model.nu - b), -1.0, trunc)
    if t_lo >= t:
        taus_s = w_s = np.empty(0)
    else:
        far_hi = max(t_lo, t - model.r)
        taus_far, w_far = _u_panels(mu, t_lo, far_hi)
        taus_near, w_near = _gl_panels(_near_cell_edges(t, model.r, m, far_hi), _NEAR_NODES)
        taus_s = np.concatenate([taus_far, taus_near])
        w_s = np.concatenate([w_far, w_near])
    taus_u, w_u = _u_panels(mu, t, t_hi)
    return taus_s, w_s, taus_u, w_u


# ---------------------------------------------------------------------------
# operator evaluation: plan once, apply many
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RowPlan:
    """The part of one time row of the operator that does not depend on eta.

    Every array has one entry per quadrature node, S in all, so a row holds
    O(S) numbers: nothing with a b or a segment axis.  Apart from weights,
    they are the row's slices of arrays over all the plan's nodes
    (plan_operator).  The nodes come in
    the groups the sweep contracts by: n_far far stable nodes, the near
    panels of _NEAR_NODES each up to n_stable, then the unstable side.
    """

    t: float
    taus: np.ndarray  # (S,) orbit_quadrature nodes, stable then unstable
    weights: np.ndarray  # (S,) quadrature weights, negated on the unstable side
    n_stable: int
    n_far: int  # stable nodes before t - r, where the kernels have no step
    factor: np.ndarray  # (S,) orbit factor unstable_flow(tau, t)
    pert_weight: np.ndarray  # (S,) perturbation weight pert.weight(tau)
    it: np.ndarray  # (S,) t-interpolation cell of each node
    wt: np.ndarray  # (S,) t-interpolation weight of each node
    lin: np.ndarray  # (k, S) linear part b_tau u(tau) at each read per unit b_tau, unstable_flow(tau - lag, tau)


@dataclass(frozen=True)
class OperatorPlan:
    """Everything the operator needs at fixed query points, except eta.

    Built once per solve by plan_operator; each sweep (_full_sweep) then
    only gathers, blends and contracts.  The clamp counts follow from the
    query geometry alone, so they are counted here, once.
    """

    model: DichotomyModel
    pert: Perturbation
    b: np.ndarray  # (nb,) unstable coordinates queried at every time row
    rows: tuple  # one RowPlan per queried time
    cs: np.ndarray  # (k,) coordinate of each read
    js: np.ndarray  # (k,) segment index of each read's lag
    m: int  # segment samples per delay of the field's grid
    clamped: int
    total: int
    on_grid: bool  # the queries are the grid's nodes, where a sweep measures the update of the field it reads


def _read_slots(pert: Perturbation, eta: EtaField):
    """The coordinate (k,) and segment index (k,) of each of the perturbation's reads on eta's segment grid."""
    cs = np.array([c for c, _ in pert.reads], dtype=int)
    js = np.array([lag_index(eta.r, eta.m, lag) for _, lag in pert.reads], dtype=int)
    return cs, js


def _first_past(guess: np.ndarray, past, size: int) -> np.ndarray:
    """The first index in [0, size] at which past(index) holds, per node, stepping from guess.

    past must be false and then true along the index for every node; it is
    only called at indices inside [0, size).
    """
    i = guess
    while True:  # back over indices already past
        back = (i > 0) & past(np.maximum(i - 1, 0))
        if not back.any():
            break
        i = i - back
    while True:  # forward over indices not yet past
        ahead = (i < size) & ~past(np.minimum(i, size - 1))
        if not ahead.any():
            break
        i = i + ahead
    return i


def _clamp_count(factor: np.ndarray, out_t: np.ndarray, bs: np.ndarray, b_grid: np.ndarray) -> int:
    """The node x b-query orbit lookups (tau, b factor) that leave the grid, for nodes whose t leaves it at out_t.

    Exactly the count of _coords(factor[:, None] * bs, b_grid) leaving
    the b grid or out_t[:, None], without forming it.  A node whose t leaves
    the grid clamps every query.  For a finite factor f > 0 the b
    coordinate is nondecreasing in b on the increasing grid, each rounding
    step being monotone, so the queries below the grid are a prefix of the
    sorted distinct b queries and those above it a suffix:
    each boundary starts from a searchsorted guess at the grid edge over f
    and steps to where _coords' own predicate changes.  A NaN query never
    leaves the grid.  A node with any other factor (0, inf, NaN) is counted
    query by query.
    """
    regular = ~out_t & np.isfinite(factor) & (factor > 0)
    odd = ~out_t & ~regular
    clamped = bs.size * int(np.count_nonzero(out_t))
    clamped += int(np.count_nonzero(_coords(factor[odd, None] * bs, b_grid)[1]))
    u, repeats = np.unique(bs[~np.isnan(bs)], return_counts=True)
    f = factor[regular]
    if f.size and u.size:
        before = np.concatenate([[0], np.cumsum(repeats)])  # queries before each distinct b
        top = len(b_grid) - 1

        def x(i):
            return _coords(f * u[i], b_grid)[0]

        with np.errstate(over="ignore"):  # a tiny f puts a guess past float range, where searchsorted still places it
            guess_lo, guess_hi = np.searchsorted(u, b_grid[0] / f), np.searchsorted(u, b_grid[-1] / f)
        below = _first_past(guess_lo, lambda i: ~(x(i) < 0), u.size)
        above = _first_past(guess_hi, lambda i: x(i) > top, u.size)
        clamped += int(np.sum(before[below]) + np.sum(before[-1] - before[above]))
    return clamped


def plan_operator(model: DichotomyModel, pert: Perturbation, eta: EtaField, ts, bs, trunc: TruncationPolicy, D: float) -> OperatorPlan:
    """Plan the operator at the queries ts x bs on the grid of eta.

    Only eta's grid is used.  Each row's nodes come from its own
    orbit_quadrature; the per-node arrays (orbit factors, t cells and
    weights, linear parts, perturbation weight) are then formed in one pass
    over all rows' nodes, each node with its row's t, and every RowPlan
    holds its row's slice.  They are elementwise, so each row gets the bits
    it would get planned alone, at a few calls per plan instead of a few
    per row.  A query clamps when either axis of its orbit lookup
    (tau, b unstable_flow(tau, t)) leaves the grid, counted once over every
    row's (S, nb) lookups, so clamped / total lies in [0, 1].  The count
    takes all rows' nodes at once (_clamp_count) and forms no lookup, so no
    b coordinate or cell is formed here.
    """
    bs = np.asarray(bs, dtype=float)
    cs, js = _read_slots(pert, eta)
    u_idx = model.unstable_indices[0]
    ts = [float(t) for t in ts]
    sides = [orbit_quadrature(model, pert, t, trunc, D, eta.m) for t in ts]
    sizes = [taus_s.size + taus_u.size for taus_s, _, taus_u, _ in sides]
    taus = np.concatenate([np.empty(0), *(part for side in sides for part in side[::2])])
    # every per-node array in one pass over all rows' nodes, each node with its row's t
    factor = unstable_flow(model, taus, np.repeat(ts, sizes))[0]
    xt, out_t = _coords(taus, eta.t_grid)
    it, wt = _cells(xt, len(eta.t_grid))
    lin = np.zeros((len(cs), taus.size))
    for j, (coord, lag) in enumerate(pert.reads):
        if coord == u_idx:
            lin[j] = unstable_flow(model, taus - lag, taus)[0]
    pert_weight = np.asarray(pert.weight(taus), dtype=float)
    rows, edges = [], np.cumsum([0, *sizes]).tolist()
    for t, (taus_s, w_s, _, w_u), lo, hi in zip(ts, sides, edges[:-1], edges[1:]):
        n_far = int(np.count_nonzero(taus_s < t - model.r))
        per_node = (factor[lo:hi], pert_weight[lo:hi], it[lo:hi], wt[lo:hi], lin[:, lo:hi])
        rows.append(RowPlan(t, taus[lo:hi], np.concatenate([w_s, -w_u]), taus_s.size, n_far, *per_node))
    clamped = _clamp_count(factor, out_t, bs, eta.b_grid)
    on_grid = np.array_equal(np.asarray(ts, dtype=float), eta.t_grid) and np.array_equal(bs, eta.b_grid)
    return OperatorPlan(model, pert, bs, tuple(rows), cs, js, eta.m, clamped, factor.size * bs.size, on_grid)


_BLOCK_READS = 2**15  # node x b-query reads per gather block; bounds a worker's temporaries
_WORKER_READS = 2**20  # reads a sweep needs per worker before it starts a helper thread


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def _node_blocks(size: int, nb: int) -> list:
    """Edges of a row's node blocks for nb b queries, from 0 to size: at most _BLOCK_READS // nb nodes each, or one."""
    return [*range(0, size, max(1, _BLOCK_READS // max(nb, 1))), size]


def _group_kernels(model: DichotomyModel, row: RowPlan, omega: np.ndarray):
    """The row's jump-response kernels, factored: node groups (S,), node factors (n, S), group kernels (n, P+2, m+1).

    Every kernel entry is exp(rho_i(t + omega) - rho_i(tau)) under a step
    mask, so it is the node factor exp(rho_i(t) - rho_i(tau)) times
    exp(rho_i(t + omega) - rho_i(t)) times the mask.  The mask is one
    column per group of nodes: the far stable nodes, which every t + omega
    is ahead of, each near panel of _NEAR_NODES, inside one segment cell,
    and the unstable side.  On the stable side p0_kernel's mask is "ahead"
    for stable coordinates and -(not ahead) for unstable ones; on the
    unstable side q0_kernel's is 1.  The node factors carry the quadrature
    and perturbation weights, and are 0 wherever the kernel is (unstable
    coordinates at far nodes, stable ones on the unstable side), so an
    overflowing exp never meets a zero mask.  Node j lies in group
    group[j]: 0 for the far nodes, 1 + p for near panel p, P + 1 for the
    unstable side.
    """
    unstable = np.array(model.unstable)
    nf, ns = row.n_far, row.n_stable
    grid = row.t + omega
    rho_g = model.log_flow(grid)  # (n, m+1), rho_i(t) last
    expo = rho_g[:, -1:] - model.log_flow(row.taus)
    expo[unstable, :nf] = -np.inf
    expo[~unstable, ns:] = -np.inf
    node = np.exp(expo) * (row.weights * row.pert_weight)
    # the number of group starts (each near panel's first node, then the unstable side's) at or before each node
    group = np.searchsorted(np.arange(nf, ns + 1, _NEAR_NODES), np.arange(row.taus.size), side="right")
    # first column ahead of each stable-side group: 0 for the far nodes, a
    # panel's first grid point at or past its nodes (p0_kernel's tolerance)
    first = np.concatenate([[0], np.searchsorted(grid, row.taus[nf:ns:_NEAR_NODES] - 1e-12)])
    mask = np.empty((model.n, first.size + 1, omega.size))
    mask[:, :-1] = (np.arange(omega.size) >= first[:, None]) - unstable[:, None, None].astype(float)
    mask[:, -1] = 1.0
    return group, node, mask * np.exp(rho_g - rho_g[:, -1:])[:, None]


def _blended_reads(tables: np.ndarray, b_grid: np.ndarray, it: np.ndarray, wts: np.ndarray, B: np.ndarray):
    """The read tables (2k, nt, nb) at one node block's orbit lookups, read-major (2k, s, c).

    The block's s nodes come in runs that share a t cell, and each run is
    blended along t by one (s, 2) @ (2, nb) matmul per table with the
    weights wts (s, 2); two takes along b then blend at the b coordinates
    B (s, c).  The temporaries are freed on return.
    """
    s, nbg = it.size, b_grid.size
    along_t = np.empty((tables.shape[0], s, nbg))
    edges = [0, *(np.flatnonzero(it[1:] != it[:-1]) + 1).tolist(), s]
    for lo, hi in zip(edges[:-1], edges[1:]):
        np.matmul(wts[lo:hi], tables[:, it[lo] : it[lo] + 2], out=along_t[:, lo:hi])
    ib, wb = _cells((B - b_grid[0]) / (b_grid[1] - b_grid[0]), nbg)
    at = ib + (np.arange(s) * nbg)[:, None]
    flat = along_t.reshape(tables.shape[0], s * nbg)
    reads = np.take(flat, at, axis=1)
    upper = np.take(flat, at + 1, axis=1)
    reads *= 1 - wb
    upper *= wb
    reads += upper
    return reads


def _in_workers(task, items: list, workers: int) -> None:
    """task(item) for every item, on the calling thread and up to workers - 1 helper threads.

    Worker w takes items w, w + workers, ... in turn.  The first exception
    stops every worker before its next item and is raised here once all of
    them have joined, so no helper outlives the call.
    """
    workers = max(1, min(workers, len(items)))
    failed = []

    def run(w):
        try:
            for item in items[w::workers]:
                if failed:
                    return
                task(item)
        except BaseException as exc:  # handed to the calling thread, which raises it
            failed.append(exc)

    helpers = []
    try:
        for w in range(1, workers):
            helper = threading.Thread(target=run, args=(w,), name=f"mu-lab-sweep-{w}")
            helper.start()
            helpers.append(helper)
        run(0)
    finally:
        for helper in helpers:
            helper.join()
    if failed:
        raise failed[0]


def _workers(work: int) -> int:
    """One worker per usable CPU, while each gets at least _WORKER_READS of the work (reads, or numbers passed over).

    A smaller share would leave the threads waiting on one another for the
    interpreter lock in numpy's call overhead.
    """
    return max(1, min(_usable_cpus(), work // _WORKER_READS))


def _full_sweep(plan: OperatorPlan, eta: Optional[EtaField]):
    """The operator and its b-derivative at every planned query, from eta, with each row's maxima.

    Returns (F, dF, maxima); F and dF have shape (rows, nb, n, m+1).  The
    read tables are cut once in read-major layout (2k, nt, nb).  A row is
    walked in blocks of its nodes (_node_blocks), each with every b query
    at once: the block's reads W and directions V, (k, s, nb), are blended
    from the tables along t and then along b (_blended_reads), the
    perturbation's maps give the value and derivative planes (n, s, nb),
    and one matmul per plane adds them to the row's group sums
    (n, P+2, nb), for P near panels, by the block's group matrix (n, g, s):
    the node factors of _group_kernels in the rows of the g groups the
    block spans.  The row ends with one matmul per plane against the group
    kernels, written straight into the output.
    eta None stands for the zero field, every read of which is 0: that
    sweep is the source term F(0), with no tables, blends or gathers.

    maxima holds per row max |F| and max |dF| and, for a plan on the grid's
    nodes (plan.on_grid), the row's update max |F - eta| and
    max |dF - d eta|: shape (4, rows), else (2, rows); a sweep at other
    queries takes no update.  The worker that writes a row takes its maxima
    while the row is still in cache, so no pass over the whole field
    follows the sweep.

    The rows are shared out over the calling thread and one helper thread
    per further usable CPU (_workers), which take every w-th row;
    numpy releases the interpreter lock in the block arithmetic.  The work
    shared is the reads plus the numbers the row maxima pass over; a sweep
    with less than _WORKER_READS of it per worker stays on fewer threads,
    a small one on the calling thread alone.  One worker computes each row
    from start to finish, so the result does not depend on the worker count.
    """
    model, pert = plan.model, plan.pert
    n, m, k = model.n, plan.m, len(plan.cs)
    nb = plan.b.size
    omega = np.linspace(-model.r, 0.0, m + 1)
    # np.zeros, not zeros_like: fresh zeroed pages, no memset pass, faulted in by the workers that write them
    out = np.zeros((len(plan.rows), nb, n, m + 1))
    dout = np.zeros(out.shape)
    maxima = np.empty((4 if plan.on_grid else 2, len(plan.rows)))
    if eta is not None:
        tables = np.concatenate(
            [eta.values.transpose(2, 3, 0, 1)[plan.cs, plan.js], eta.dvalues.transpose(2, 3, 0, 1)[plan.cs, plan.js]]
        )  # (2k, nt, nb)

    def row_maxima(i):
        buf = np.empty(out.shape[1:])  # taken once sweep_row has freed the row's temporaries
        for p, new in enumerate((out[i], dout[i])):  # initial 0.0 is the maximum of no queries
            maxima[p, i] = np.max(np.abs(new, out=buf), initial=0.0)
            if plan.on_grid and eta is None:  # the update from the zero field is the row itself
                maxima[2 + p, i] = maxima[p, i]
            elif plan.on_grid:
                old = (eta.values, eta.dvalues)[p][i]
                maxima[2 + p, i] = np.max(np.abs(np.subtract(new, old, out=buf), out=buf), initial=0.0)

    def sweep_row(i):
        row = plan.rows[i]
        group, node, kern = _group_kernels(model, row, omega)
        sums = np.zeros((2, n, kern.shape[1], nb))  # per plane and group: far, each near panel, unstable
        live = [j for j in range(k) if row.lin[j].any()]  # reads of the unstable coordinate
        if eta is not None:
            wts = np.stack([1.0 - row.wt, row.wt], axis=1)  # (S, 2) t-blend weights
        edges = _node_blocks(row.taus.size, nb)
        for lo, hi in zip(edges[:-1], edges[1:]):
            B = row.factor[lo:hi, None] * plan.b  # (s, nb)
            if eta is None:
                # zeros to add the linear part to, as the gathers' +0.0 sums are:
                # 0.0 + (-0.0) is +0.0, where assigning lin * B would keep -0.0
                reads = np.zeros((2 * k, hi - lo, nb))
            else:
                reads = _blended_reads(tables, eta.b_grid, row.it[lo:hi], wts[lo:hi], B)
            W, V = reads[:k], reads[k:]
            for j in live:
                W[j] += row.lin[j, lo:hi, None] * B
                V[j] += row.lin[j, lo:hi, None]
            V *= row.factor[lo:hi, None]
            del B
            # the group matrix (n, g, s): each node's factor in the row of its group, 0 elsewhere;
            # built here, where the gathers' temporaries are freed, so it does not enlarge the heap
            g0, g1 = group[lo], group[hi - 1] + 1
            groups = np.where(group[lo:hi] == np.arange(g0, g1)[:, None], node[:, None, lo:hi], 0.0)
            sums[0, :, g0:g1] += groups @ pert.value_map(W)
            sums[1, :, g0:g1] += groups @ pert.jvp_map(W, V)
        for dst, plane in zip((out, dout), sums):
            np.matmul(plane.swapaxes(1, 2), kern, out=dst[i].swapaxes(0, 1))  # (n, nb, m+1)

    def task(i):
        if plan.rows[i].taus.size:  # a row without nodes stays 0
            sweep_row(i)
        row_maxima(i)

    # the work to share: every node x b-query read, and each row's maxima pass over its output and, for an update,
    # over the field rows it reads, so that rows without nodes are shared out too
    passes = out[0].size * (4 if plan.on_grid and eta is not None else 2)
    work = nb * sum(row.taus.size for row in plan.rows) + passes * len(plan.rows)
    _in_workers(task, list(range(len(plan.rows))), _workers(work))
    return out, dout, maxima


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepStats:
    k: int
    delta_inf_mu: float
    ddelta_inf_mu: float
    delta_1mu: float
    ratio: Optional[float]

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "delta_inf_mu": self.delta_inf_mu,
            "ddelta_inf_mu": self.ddelta_inf_mu,
            "delta_1mu": self.delta_1mu,
            "ratio": self.ratio,
        }


@dataclass
class ConjugacyResult:
    eta: EtaField
    params: ParamSet
    sweeps: list
    converged: bool
    fixed_point_residual_1mu: float
    contraction_rate_measured: float
    contraction_rate_theoretical: float
    sup_rate_theoretical: float
    clamp_rate: float
    norms: dict
    solver_tol: float

    @property
    def derivative_margin(self) -> float:
        return 1.0 - self.norms["dinf_mu"]

    def summary(self) -> dict:
        return {
            "converged": self.converged,
            "sweeps": [s.to_dict() for s in self.sweeps],
            "fixed_point_residual_1mu": self.fixed_point_residual_1mu,
            "contraction_rate_measured": self.contraction_rate_measured,
            "contraction_rate_theoretical": self.contraction_rate_theoretical,
            "sup_rate_theoretical": self.sup_rate_theoretical,
            "clamp_rate": self.clamp_rate,
            "derivative_margin": self.derivative_margin,
            "norms": dict(self.norms),
            "solver_tol": self.solver_tol,
        }


def check_solver_settings(solver_tol: float, max_sweeps: int) -> None:
    """Raise ValueError unless max_sweeps >= 1 and solver_tol is finite and >= 0."""
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps}")
    if not (math.isfinite(solver_tol) and solver_tol >= 0.0):
        raise ValueError(f"solver_tol must be finite and non-negative, got {solver_tol}")


def picard_solve(
    model: DichotomyModel,
    pert: Perturbation,
    params: ParamSet,
    grid: GridSpec,
    trunc: TruncationPolicy,
    *,
    solver_tol: float = 2e-5,
    max_sweeps: int = 25,
) -> ConjugacyResult:
    """Iterate the operator and its derivative jointly from the zero field.

    The first sweep is then the source term F(0), which reads no field.
    Sweep k measures the combined weighted update norm
    delta = ||F(eta_{k-1}) - eta_{k-1}||_{1,mu} and stops once it is at most
    solver_tol, or at max_sweeps.  Either way the field returned is
    eta_{k-1}, the last one whose update was measured, and
    fixed_point_residual_1mu is that delta; F(eta_{k-1}) itself is dropped.
    A measured update ratio >= 1 on two consecutive sweeps raises
    NotContracting: the scenario's perturbation is inconsistent with the
    declared contraction constants.  Settings under which no solve can
    converge raise ValueError (check_solver_settings).  The parameter set's
    admissibility is the caller's stage to check (admissibility.full_report).
    """
    check_solver_settings(solver_tol, max_sweeps)
    if model.d_u != 1:
        raise ValueError("the field solver handles one-dimensional unstable coordinates")

    eta = EtaField.zero(grid, model.n, model.r, model.mu, params.xi, params.eps)
    plan = plan_operator(model, pert, eta, eta.t_grid, eta.b_grid, trunc, params.D)
    w_t = eta.time_weights()
    peaks = np.zeros((2, len(eta.t_grid)))  # eta's max |values| and max |dvalues| per row: the zero field's
    sweeps: list[SweepStats] = []
    ratios: list[float] = []
    prev_delta = None
    for k in range(1, max_sweeps + 1):
        new_vals, new_dvals, maxima = _full_sweep(plan, eta if k > 1 else None)  # maxima[2:] are the updates
        delta_inf = float(np.max(maxima[2] * w_t))
        ddelta_inf = float(np.max(maxima[3] * w_t))
        delta = delta_inf + ddelta_inf
        ratio = None if prev_delta is None else (delta / prev_delta if prev_delta > 0 else 0.0)
        sweeps.append(SweepStats(k, delta_inf, ddelta_inf, delta, ratio))
        if ratio is not None:
            ratios.append(ratio)
        if ratio is not None and len(ratios) >= 2 and ratios[-1] >= 1.0 and ratios[-2] >= 1.0:
            exc = NotContracting(
                f"update ratios {ratios[-2]:.3f}, {ratios[-1]:.3f} on consecutive sweeps"
            )
            exc.sweeps = [s.to_dict() for s in sweeps]
            raise exc
        prev_delta = delta
        converged = delta <= solver_tol
        if converged or k == max_sweeps:
            break  # eta is the field whose update delta was just measured
        eta = eta.with_data(new_vals, new_dvals)
        peaks = maxima[:2]
    # eta's norms (EtaField.norm_inf, norm_inf_mu, dnorm_inf_mu) from the row maxima of the sweep that wrote it
    inf_mu, dinf_mu = float(np.max(peaks[0] * w_t)), float(np.max(peaks[1] * w_t))
    norms = {"inf": float(np.max(peaks[0])), "inf_mu": inf_mu, "dinf_mu": dinf_mu, "one_mu": inf_mu + dinf_mu}
    return ConjugacyResult(
        eta=eta,
        params=params,
        sweeps=sweeps,
        converged=converged,
        fixed_point_residual_1mu=delta,
        contraction_rate_measured=float(max(ratios)) if ratios else 0.0,
        contraction_rate_theoretical=params.q / (1.0 + params.q),
        sup_rate_theoretical=params.D * params.delta * (params.alpha + params.beta) / (params.alpha * params.beta),
        clamp_rate=plan.clamped / max(plan.total, 1),
        norms=norms,
        solver_tol=solver_tol,
    )


# ---------------------------------------------------------------------------
# conjugacy identity and invertibility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualSample:
    t: float
    s: float
    b: float
    raw: float
    weighted: float

    def to_dict(self) -> dict:
        return {"t": self.t, "s": self.s, "b": self.b, "raw": self.raw, "mu": self.weighted}


def conjugacy_residual(eta: EtaField, model: DichotomyModel, pert, t: float, s: float, b: float) -> ResidualSample:
    """Mismatch of corrected-linear versus nonlinear evolution through (s, b)."""
    if t < s:
        raise TimeOrder(f"t={t} earlier than s={s}")
    m = eta.m
    u_idx = model.unstable_indices[0]
    b_t = b * float(unstable_flow(model, t, s)[0])

    lin_t = np.zeros((m + 1, model.n))
    lin_t[:, u_idx] = b_t * unstable_shape(model, t, m)[0]
    lhs = Segment(model.r, lin_t) + eta.segment_at(t, b_t)

    lin_s = np.zeros((m + 1, model.n))
    lin_s[:, u_idx] = b * unstable_shape(model, s, m)[0]
    start = Segment(model.r, lin_s) + eta.segment_at(s, b)
    rhs = solve_perturbed_R(model, pert, t, s, start, step=model.r / m)

    raw = sup_norm(lhs - rhs)
    weighted = raw * float(mu_weight(model.mu, t, eta.xi + eta.eps))
    return ResidualSample(t=float(t), s=float(s), b=float(b), raw=float(raw), weighted=float(weighted))


def _corrected_segments(eta: EtaField, model: DichotomyModel, t: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Segments b u(t) + eta(t, b) of the corrected linear flow, shape (S, m+1, n)."""
    m = eta.m
    stacked = eta.values.reshape(eta.values.shape[0], eta.values.shape[1], -1)
    flat = eta.interp_tables(stacked, t, b)
    segs = flat.reshape(len(t), eta.n, m + 1).transpose(0, 2, 1).copy()
    segs[:, :, model.unstable_indices[0]] += b[:, None] * unstable_shape(model, t, m)[0]
    return segs


def lattice_residuals(eta: EtaField, model: DichotomyModel, pert: Perturbation, s, k, b) -> list:
    """Residuals at t = s + k h, h = r/m, with all samples integrated together.

    Every sample starts on its own segment, but in time relative to its own
    s all of them share the step lattice, and the perturbation's read lags
    sit on it too.  So one array X[sample, m + node, n] holds every history
    and state, node 0 being time s, and one RK4 method-of-steps pass (the
    arithmetic of dde_core's scalar integrator, vectorized across initial
    data) advances every sample whose own k is not yet reached: a stage-1
    read is a node, a half-step read the mean of two neighbouring nodes, a
    closing-stage read the next node, and a lag-0 read the stage state.
    The linear part is the diagonal flow's coefficient rho_i'.  Samples are
    processed in order of decreasing k, so the live ones form a prefix and
    none is integrated (or checked for blow-up) past its own t.  Whatever
    depends only on the step is formed before the pass: the time-only
    factors at every stage time, each step's live count, its h/2 and h/6,
    and the nodes it reads, which one gather takes at a node and the next.
    Each step checks for blow-up with one sum and locates the first
    non-finite sample only when that sum is not finite, so a NonFiniteState
    names the step and sample a per-sample check would.  The arithmetic and
    its order are the scalar integrator's.
    conjugacy_residual stays the scalar path for single, off-lattice
    triples and the reference this one is tested against.
    """
    s = np.asarray(s, dtype=float)
    k = np.asarray(k, dtype=int)
    b = np.asarray(b, dtype=float)
    if s.size == 0:
        return []
    if np.any(k < 0):
        raise TimeOrder("lattice offsets k must be non-negative")
    m, n = eta.m, model.n
    h = model.r / m
    t = s + h * k
    lhs = _corrected_segments(eta, model, t, b * unstable_flow(model, t, s)[0])

    order = np.argsort(-k, kind="stable")
    ks, so, bo = k[order], s[order], b[order]
    K = int(ks[0])
    X = np.zeros((len(ks), m + 1 + K, n))
    X[:, : m + 1] = _corrected_segments(eta, model, so, bo)
    times = so[:, None] + h * np.arange(K + 1)
    cs, js = _read_slots(pert, eta)
    now = js == m  # reads of x(t) itself come from the stage state
    c_now = cs[now]
    # each step's fractions, and the time-only factors rho_i' and weight(t) at its three stage times
    t0 = times[:, :-1]
    hs = times[:, 1:] - t0
    halves, sixths = hs / 2.0, hs / 6.0
    stages = (t0, t0 + halves, t0 + hs)
    lins = [np.moveaxis(model.coeff(tt), 0, -1) for tt in stages]
    weights = [np.asarray(pert.weight(tt), dtype=float) for tt in stages]
    # the samples live at step j, those with ks > j: a prefix, since ks decreases
    live = np.searchsorted(-ks, -np.arange(K), side="left").tolist()
    # step j's reads at node j + js, then at node j + js + 1, as one gather
    nodes = np.arange(K)[:, None] + np.concatenate([js, js + 1])
    coords = np.concatenate([cs, cs])

    def rhs(stage, j, y, reads):
        # overwrites only the lag-0 columns, so callers may share `reads`
        reads[:, now] = y[:, c_now]
        a = len(y)
        return lins[stage][:a, j] * y + pert.value_map(reads.T).T * weights[stage][:a, j, None]

    with np.errstate(over="ignore", invalid="ignore"):
        for j, a in enumerate(live):
            y = X[:a, m + j]
            both = X[:a, nodes[j], coords]
            at_node, next_node = both[:, : cs.size], both[:, cs.size :]
            mid = 0.5 * (at_node + next_node)
            k1 = rhs(0, j, y, at_node)
            k2 = rhs(1, j, y + halves[:a, j, None] * k1, mid)
            k3 = rhs(1, j, y + halves[:a, j, None] * k2, mid)
            k4 = rhs(2, j, y + hs[:a, j, None] * k3, next_node)
            new = X[:a, m + j + 1]
            new[...] = y + sixths[:a, j, None] * (k1 + 2 * k2 + 2 * k3 + k4)
            # one reduction per step; only a sum that is not finite, as an overflowing sum of finite states
            # can be too, sends for the per-sample check
            if not math.isfinite(new.sum()):
                blown = ~np.all(np.isfinite(new), axis=1)
                if blown.any():
                    i = int(np.argmax(blown))
                    raise NonFiniteState(
                        f"state blew up at t = {times[i, j + 1]} (sample from s = {so[i]}, b = {bo[i]})"
                    )

    closing = np.empty_like(lhs)
    closing[order] = X[np.arange(len(ks))[:, None], ks[:, None] + np.arange(m + 1)]
    raw = np.max(np.abs(lhs - closing), axis=(1, 2))
    weighted = raw * np.asarray(mu_weight(model.mu, t, eta.xi + eta.eps), dtype=float)
    return [
        ResidualSample(t=float(ti), s=float(si), b=float(bi), raw=float(ri), weighted=float(wi))
        for ti, si, bi, ri, wi in zip(t, s, b, raw, weighted)
    ]


def verify_residuals(
    eta: EtaField,
    model: DichotomyModel,
    pert: Perturbation,
    *,
    n_samples: int = 200,
    horizon: float = 1.5,
    core: tuple[float, float] = (-2.0, 2.0),
    b_scale: float = 2.0,
    seed: int = 0,
) -> list:
    """Residuals on random (t, s, b) triples with 0 <= t - s <= horizon.

    The time offset is drawn from the integration step lattice h = r/m so
    the nonlinear evolution reads its history splice at exact sample points;
    this isolates the conjugacy mismatch from the segment-resampling error
    of off-lattice reads.  s and b remain continuous draws.  The samples are
    integrated together on their shared step lattice (lattice_residuals);
    conjugacy_residual remains the single-triple scalar path.
    """
    rng = np.random.default_rng(seed)
    h = model.r / eta.m
    max_k = max(int(np.floor(horizon / h + 1e-9)), 0)
    s, k, b = np.empty(n_samples), np.empty(n_samples, dtype=int), np.empty(n_samples)
    for i in range(n_samples):
        s[i] = rng.uniform(*core)
        k[i] = rng.integers(0, max_k + 1)
        b[i] = rng.uniform(-b_scale, b_scale)
    return lattice_residuals(eta, model, pert, s, k, b)


def invertibility_check(result: ConjugacyResult, model: DichotomyModel) -> dict:
    """Derivative margin, grid-consistency of the derivative, monotonicity.

    Failures are recorded, not raised.  The finite-difference agreement is
    measured relative to the derivative field's own maximum magnitude and
    passes within 1e-3.  Each time row's central-difference error,
    derivative maximum and monotonicity are taken on the sweep's workers
    (_workers of the field's values and derivatives, so a small field stays
    on the calling thread), with one row's temporaries at a time; the
    report takes the maxima over the rows.
    """
    eta = result.eta
    dnorm = result.norms["dinf_mu"]
    margin = 1.0 - dnorm
    report = {"derivative_norm_mu": dnorm, "margin": margin, "margin_positive": margin > 0.0}

    vals, dvals = eta.values, eta.dvalues
    db = eta.b_grid[1] - eta.b_grid[0]
    u_idx = model.unstable_indices[0]  # picard_solve only solves models with one unstable coordinate
    fd_max, d_max = np.empty(len(vals)), np.empty(len(vals))
    monotone = np.empty(len(vals), dtype=bool)

    def check_row(i):
        fd = (vals[i, 2:] - vals[i, :-2]) / (2.0 * db)
        fd -= dvals[i, 1:-1]
        fd_max[i] = np.max(np.abs(fd, out=fd))
        d_max[i] = np.max(np.abs(dvals[i]))
        monotone[i] = np.all(np.diff(eta.b_grid + vals[i, :, u_idx, -1]) > 0.0)

    _in_workers(check_row, list(range(len(vals))), _workers(vals.size + dvals.size))
    scale = max(float(np.max(d_max)), 1e-300)
    fd_err = float(np.max(fd_max)) / scale
    report["fd_rel_err"] = fd_err
    report["fd_ok"] = fd_err <= 1e-3
    report["monotone"] = bool(np.all(monotone))
    return report


def propagation_gain(model: DichotomyModel, pert, tau: float, t: float, seg: Segment, scale: float = 1e-4) -> float:
    """Measured local Lipschitz gain of the nonlinear evolution over [tau, t]."""
    bumped = Segment(seg.r, seg.values + scale)
    a = solve_perturbed_R(model, pert, t, tau, seg, step=model.r / seg.m)
    bb = solve_perturbed_R(model, pert, t, tau, bumped, step=model.r / seg.m)
    return sup_norm(bb - a) / (scale if scale > 0 else 1.0)
