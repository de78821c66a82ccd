"""Fixed-point construction of the conjugacy correction field.

The correction eta(t, b) maps a time and an unstable coordinate to a
segment; together with its b-derivative it is iterated, and stored
(EtaField.data), as one object, because the contraction estimate couples
the two.  Each evaluation of the defining operator is a pair of improper
integrals over the orbit through (t, b): a stable-side integral over
tau <= t driven by projected jump responses, and an unstable-side integral
over tau >= t pulled back along the unstable flow.  Both are truncated
where their proof-grade envelopes integrate below a requested tail
tolerance, and quadrature runs in the substituted variable u = mu(tau),
where every envelope is a pure power -- panels are geometric in u with
fixed Gauss-Legendre nodes per panel.

Only the field changes between sweeps, so the operator is planned once per
solve (plan_operator, O(S) numbers per row of S nodes, the kernels' node
factors and its near panels' first columns among them); its clamp count
takes every row's nodes at once and counts each node's clamped b queries
from its grid edges (_clamp_count), so no (S, nb) lookup is formed.  A
sweep (_full_sweep) takes the log-flows of every row's t + omega in one
pass and walks each row in blocks of its nodes with every b query at once, gathers the
perturbation's point reads from the field read-major, applies its maps
there and adds them, with one group matmul per block, to sums over the
node groups on which the diagonal kernels' step is constant; each row ends
by contracting those sums with a small per-row matrix (_group_kernels).
A block is any run of nodes capped by its number of node x b-query reads,
so a worker's temporaries stay small whatever the grid.  The rows are
shared out over one thread per usable CPU (os.sched_getaffinity), as long
as each thread gets at least _WORKER_READS reads: a small sweep stays on
the calling thread.  One thread computes each row whole, so the field does
not depend on the thread count.  The solve starts from the zero field, so
its first sweep is the source term F(0): it reads no field and gathers
nothing.  Every sweep measures the update ||F(eta) - eta|| of the field it
reads, and the solve returns the newest field, F(eta): its reported
fixed-point residual is the update that wrote it, and no sweep is run only
to measure it.
Every sweep after the first writes F(eta) over the array of the eta it
reads, since it reads eta only through read tables cut before any row is
written and each row's old values, which the row's worker copies first;
so a solve holds one field, not two.
The worker that writes a row also takes the row's update maximum and its
absolute maximum while the row is in cache; the solve reads the update
norms and the returned field's norms from those, and invertibility_check
takes its per-row statistics on the same workers, so no pass over the
whole field runs on one thread.

Off the stored grid the field is evaluated by bilinear interpolation,
clamped to the boundary value outside; clamped lookups are counted and
reported as clamp_rate.  That rate counts lookups, not error: on flagship,
cutting b_max to 1.5 grew the residual at |b| <= 1.4 4.6-fold while
clamp_rate moved only from 0.156 to 0.159.  Clamping is measured by its
effect instead: on the coarse grid under the exp rate, doubling b_max from
4 to 8 leaves the largest residual at |b| <= 1.4 the same to 7 digits (a
test bounds the change by 1%), while b_max 1.5 doubles it.
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
    """Correction field and its b-derivative on a (t, b) tensor grid, as one array.

    data has shape (2, nt, nb, n, m+1), the values then their b-derivatives:
    per grid node one segment sampled on omega_j = -r + j r/m.
    """

    t_grid: np.ndarray
    b_grid: np.ndarray
    data: np.ndarray
    r: float
    mu: object
    xi: float
    eps: float

    @classmethod
    def zero(cls, grid: GridSpec, n: int, r: float, mu, xi: float, eps: float) -> "EtaField":
        tg, bg = grid.t_grid(), grid.b_grid()
        return cls(tg, bg, np.zeros((2, len(tg), len(bg), n, grid.m + 1)), r, mu, xi, eps)

    @property
    def n(self) -> int:
        return self.data.shape[3]

    @property
    def m(self) -> int:
        return self.data.shape[4] - 1

    def with_data(self, data: np.ndarray) -> "EtaField":
        return EtaField(self.t_grid, self.b_grid, data, self.r, self.mu, self.xi, self.eps)

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
        plane = self.data[int(derivative)]
        stacked = plane.reshape(plane.shape[0], plane.shape[1], -1)
        out = self.interp_tables(stacked, np.array([t]), np.array([b]))
        return Segment(self.r, out[0].reshape(self.n, self.m + 1).T)

    def time_weights(self) -> np.ndarray:
        return np.asarray(mu_weight(self.mu, self.t_grid, self.xi + self.eps), dtype=float)

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.data[0]))) if self.data[0].size else 0.0

    def _weighted_max(self, plane: np.ndarray) -> float:
        """max over t of the time weight times the largest |plane| on that time row."""
        return float(np.max(np.max(np.abs(plane), axis=(1, 2, 3)) * self.time_weights()))

    def norm_inf_mu(self) -> float:
        return self._weighted_max(self.data[0])

    def dnorm_inf_mu(self) -> float:
        return self._weighted_max(self.data[1])

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

    Every array but first has one entry per quadrature node, S in all (per
    coordinate in node, per read of the unstable coordinate in lin), and
    first one per near panel, so a row holds O(S) numbers: nothing with a b
    or a segment axis.  The per-node arrays are the row's slices of arrays
    over all the plan's nodes (plan_operator).  The nodes come in the groups
    the sweep contracts by: n_far far stable nodes, the near panels of
    _NEAR_NODES each up to n_stable, then the unstable side.
    """

    t: float
    taus: np.ndarray  # (S,) orbit_quadrature nodes, stable then unstable
    n_stable: int
    n_far: int  # stable nodes before t - r, where the kernels have no step
    factor: np.ndarray  # (S,) orbit factor unstable_flow(tau, t)
    node: np.ndarray  # (n, S) node factors of the jump-response kernels, weights folded in (_group_kernels)
    it: np.ndarray  # (S,) t-interpolation cell of each node
    wt: np.ndarray  # (S,) t-interpolation weight of each node
    lin: np.ndarray  # (live, S) linear part b_tau u(tau) at each read of the unstable coordinate per unit b_tau
    first: np.ndarray  # (P,) first column of t + omega at or past each near panel's nodes (_group_kernels)


@dataclass(frozen=True)
class OperatorPlan:
    """Everything the operator needs at fixed query points, except eta.

    Built once per solve by plan_operator; each sweep (_full_sweep) then
    only gathers, blends and contracts.  The clamp count (clamped of total
    node x b-query lookups) follows from the query geometry alone, so it is
    counted here, once, by _clamp_count's edge rule.
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


def _clamp_count(factor: np.ndarray, out_t: np.ndarray, bs: np.ndarray, b_grid: np.ndarray) -> int:
    """The node x b-query orbit lookups (tau, b factor) that leave the grid, for nodes whose t leaves it at out_t.

    A node whose t leaves the grid clamps every query.  Any other node, of
    factor f, clamps the queries q < b_grid[0] / f and q > b_grid[-1] / f,
    counted on the sorted non-NaN queries; searchsorted places NaN last,
    so a NaN edge counts no query.  The rule holds as it stands for f = 0,
    inf, NaN or subnormal.  It is the lookup's own rule (_coords on f q
    leaving the b grid) except at rounding ties, where f q lands within an
    ulp of a grid edge.
    """
    q = np.sort(bs[~np.isnan(bs)])
    f = factor[~out_t]
    with np.errstate(divide="ignore", over="ignore"):
        lo, hi = b_grid[0] / f, b_grid[-1] / f
    below = q.size - np.searchsorted(-q[::-1], -lo, side="right")  # q < lo as -q > -lo, so NaN sorts last here too
    above = q.size - np.searchsorted(q, hi, side="right")
    return bs.size * int(np.count_nonzero(out_t)) + int(below.sum() + above.sum())


def plan_operator(model: DichotomyModel, pert: Perturbation, eta: EtaField, ts, bs, trunc: TruncationPolicy, D: float) -> OperatorPlan:
    """Plan the operator at the queries ts x bs on the grid of eta.

    Only eta's grid is used.  Each row's nodes come from its own
    orbit_quadrature; the per-node arrays (orbit factors, kernel node
    factors, t cells and weights, linear parts) are then formed in one pass
    over all rows' nodes, each node with its row's t, and every RowPlan
    holds its row's slice.  The log-flows are taken once on every node's
    tau, once on the rows' t and once on tau - lag per read of the unstable
    coordinate; every array is elementwise in them, so each row gets the
    bits it would get planned alone.  Only the reads of the unstable
    coordinate have a linear part, the others' being 0, so lin holds a row
    for each of those alone.  Each row also holds its near panels' first
    segment columns, found on its own t + omega as the sweep forms it.  A
    query clamps when either axis of its orbit lookup
    (tau, b unstable_flow(tau, t)) leaves the grid, counted once over every
    row's (S, nb) lookups, so clamped / total lies in [0, 1].  The count
    takes all rows' nodes at once and each node's grid edges (_clamp_count),
    so no lookup, b coordinate or cell is formed here.
    """
    bs = np.asarray(bs, dtype=float)
    cs, js = _read_slots(pert, eta)
    u_idx = model.unstable_indices[0]
    unstable = np.array(model.unstable)
    ts = [float(t) for t in ts]
    sides = [orbit_quadrature(model, pert, t, trunc, D, eta.m) for t in ts]
    sizes = [taus_s.size + taus_u.size for taus_s, _, taus_u, _ in sides]
    edges = np.cumsum([0, *sizes]).tolist()
    taus = np.concatenate([np.empty(0), *(part for side in sides for part in side[::2])])
    weights = np.concatenate([np.empty(0), *(w for _, w_s, _, w_u in sides for w in (w_s, -w_u))])
    rho_tau = model.log_flow(taus)
    rho_t = np.repeat(model.log_flow(np.array(ts)), sizes, axis=1)  # each node's row's rho(t)
    factor = np.exp(rho_tau[u_idx] - rho_t[u_idx])
    xt, out_t = _coords(taus, eta.t_grid)
    it, wt = _cells(xt, len(eta.t_grid))
    lags = [lag for coord, lag in pert.reads if coord == u_idx]
    lin = np.empty((len(lags), taus.size))
    for q, lag in enumerate(lags):
        lin[q] = np.exp(model.log_flow(taus - lag)[u_idx] - rho_tau[u_idx])
    # each row's nodes lo:hi, and its counts of stable and of far stable nodes
    spans = [(lo, hi, side[0].size, int(np.count_nonzero(side[0] < t - model.r)))
             for t, side, lo, hi in zip(ts, sides, edges[:-1], edges[1:])]
    expo = rho_t - rho_tau
    for lo, hi, ns, nf in spans:
        expo[unstable, lo : lo + nf] = -np.inf  # the unstable kernels are 0 at the far stable nodes
        expo[~unstable, lo + ns : hi] = -np.inf  # the stable ones on the unstable side
    node = np.exp(expo) * (weights * np.asarray(pert.weight(taus), dtype=float))
    omega = np.linspace(-model.r, 0.0, eta.m + 1)
    rows = tuple(
        RowPlan(
            t, taus[lo:hi], ns, nf, factor[lo:hi], node[:, lo:hi], it[lo:hi], wt[lo:hi], lin[:, lo:hi],
            # p0_kernel's tolerance: a grid point within 1e-12 of a node counts as past it
            np.searchsorted(t + omega, taus[lo + nf : lo + ns : _NEAR_NODES] - 1e-12),
        )
        for t, (lo, hi, ns, nf) in zip(ts, spans)
    )
    clamped = _clamp_count(factor, out_t, bs, eta.b_grid)
    on_grid = np.array_equal(np.asarray(ts, dtype=float), eta.t_grid) and np.array_equal(bs, eta.b_grid)
    return OperatorPlan(model, pert, bs, rows, cs, js, eta.m, clamped, factor.size * bs.size, on_grid)


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


def _node_groups(row: RowPlan) -> np.ndarray:
    """The group of each of the row's nodes (S,): 0 far, 1 + p in near panel p, P + 1 on the unstable side.

    Each near panel holds _NEAR_NODES nodes, so the groups follow from
    n_far and the panel count alone.
    """
    return np.clip((np.arange(row.taus.size) - row.n_far) // _NEAR_NODES + 1, 0, row.first.size + 1)


def _group_kernels(model: DichotomyModel, row: RowPlan, rho_g: np.ndarray) -> np.ndarray:
    """The row's jump-response kernels, factored: group kernels (n, P+2, m+1), for the node groups of _node_groups.

    rho_g is the log-flows rho_i(t + omega) on the row's t + omega, (n,
    m+1), rho_i(t) last.  Every kernel entry is
    exp(rho_i(t + omega) - rho_i(tau)) under a step mask, so it is the
    planned node factor exp(rho_i(t) - rho_i(tau)) (RowPlan.node) times
    exp(rho_i(t + omega) - rho_i(t)) times the mask.  The mask is one
    column per group of nodes: the far stable nodes, which every t + omega
    is ahead of, each near panel of _NEAR_NODES, inside one segment cell,
    and the unstable side.  On the stable side p0_kernel's mask is "ahead"
    (from the group's first column, 0 for the far nodes, RowPlan.first for
    the near panels) for stable coordinates and -(not ahead) for unstable
    ones; on the unstable side q0_kernel's is 1.  The node factors carry the
    quadrature weight (negated on the unstable side) and pert.weight(tau),
    and are 0 wherever the kernel is (unstable coordinates at far nodes,
    stable ones on the unstable side), so an overflowing exp never meets a
    zero mask.
    """
    unstable = np.array(model.unstable)
    first = np.concatenate([[0], row.first])
    cols = np.arange(rho_g.shape[1])
    mask = np.empty((model.n, first.size + 1, cols.size))
    mask[:, :-1] = (cols >= first[:, None]) - unstable[:, None, None].astype(float)
    mask[:, -1] = 1.0
    return mask * np.exp(rho_g - rho_g[:, -1:])[:, None]


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


def _full_sweep(plan: OperatorPlan, eta: Optional[EtaField], out: Optional[np.ndarray] = None):
    """The operator and its b-derivative at every planned query, from eta, with each row's maxima.

    Returns (F, maxima); F has shape (2, rows, nb, n, m+1), the values then
    their b-derivatives, as EtaField.data.  F is out when out is given,
    which may be eta.data itself: eta is read only through the read tables
    and, for the update, each row's old values, which the row's worker
    copies just before it writes the row.  Without out, F is a fresh array
    and eta is left as it was.  The read tables are cut once
    in read-major layout (2k, nt, nb), and the log-flows of every row's
    t + omega are taken in one pass; the rest of each row's kernels is
    planned (RowPlan.node, RowPlan.first).  A row is walked in blocks of
    its nodes (_node_blocks), each with every b query at once: the block's
    reads W and directions V, (k, s, nb), are blended from the tables along
    t and then along b (_blended_reads), the perturbation's maps give the
    value and derivative planes (n, s, nb), and one matmul per plane adds
    them to the row's group sums (2, n, P+2, nb), for P near panels, by the
    block's group matrix (n, g, s): the planned node factors in the rows of
    the g groups the block spans (_node_groups).  The row ends with one
    matmul for both planes against the group kernels (_group_kernels),
    written straight into F; a row without nodes is written as 0.
    eta None stands for the zero field, every read of which is 0: that
    sweep is the source term F(0), with no tables, blends or gathers.

    maxima holds per row max |F[0]| and max |F[1]| and, for a plan on the
    grid's nodes (plan.on_grid), the row's update maxima |F[0] - eta.data[0]|
    and |F[1] - eta.data[1]|, against the row's old values: shape (4, rows),
    else (2, rows); a sweep at other queries takes no update.  The worker
    that writes a row takes its maxima while the row is still in cache, in
    one row's buffer, so no pass over the whole field follows the sweep.

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
    grids = np.array([row.t for row in plan.rows]).reshape(-1, 1) + np.linspace(-model.r, 0.0, m + 1)
    rho = model.log_flow(grids)  # (n, rows, m+1)
    live = np.flatnonzero(plan.cs == model.unstable_indices[0])  # reads of the unstable coordinate
    # np.zeros, not zeros_like: fresh zeroed pages, no memset pass, faulted in by the workers that write them
    F = np.zeros((2, len(plan.rows), nb, n, m + 1)) if out is None else out
    maxima = np.empty((4 if plan.on_grid else 2, len(plan.rows)))
    update = plan.on_grid and eta is not None
    if eta is not None:
        # a copy (fancy indexing), so the sweep may write over the field it reads
        tables = eta.data.transpose(0, 3, 4, 1, 2)[:, plan.cs, plan.js].reshape(2 * k, *eta.data.shape[1:3])

    def row_sums(i):
        """Row i's group sums (2, n, P+2, nb) and group kernels (n, P+2, m+1)."""
        row = plan.rows[i]
        kern = _group_kernels(model, row, rho[:, i])
        group = _node_groups(row)
        sums = np.zeros((2, n, kern.shape[1], nb))  # per plane and group: far, each near panel, unstable
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
            for q, j in enumerate(live):
                W[j] += row.lin[q, lo:hi, None] * B
                V[j] += row.lin[q, lo:hi, None]
            V *= row.factor[lo:hi, None]
            del B
            # the group matrix (n, g, s): each node's factor in the row of its group, 0 elsewhere;
            # built here, where the gathers' temporaries are freed, so it does not enlarge the heap
            g0, g1 = group[lo], group[hi - 1] + 1
            groups = np.where(group[lo:hi] == np.arange(g0, g1)[:, None], row.node[:, None, lo:hi], 0.0)
            sums[0, :, g0:g1] += groups @ pert.value_map(W)
            sums[1, :, g0:g1] += groups @ pert.jvp_map(W, V)
        return sums, kern

    def task(i):
        if plan.rows[i].taus.size:
            sums, kern = row_sums(i)
        new = F[:, i]
        # the row's buffer, taken once row_sums has freed the block temporaries; for an update it first holds
        # the row's old values, copied before the row is written, as out may be the field read
        buf = eta.data[:, i].copy() if update else np.empty(new.shape)
        if plan.rows[i].taus.size:
            np.matmul(sums.swapaxes(2, 3), kern, out=new.swapaxes(1, 2))  # (2, n, nb, m+1)
        else:
            new[...] = 0.0
        if update:
            np.abs(np.subtract(new, buf, out=buf), out=buf)
            maxima[2:, i] = np.max(buf, axis=(1, 2, 3), initial=0.0)
        maxima[:2, i] = np.max(np.abs(new, out=buf), axis=(1, 2, 3), initial=0.0)  # 0.0 is the maximum of no queries
        if plan.on_grid and eta is None:  # the update from the zero field is the row itself
            maxima[2:, i] = maxima[:2, i]

    # the work to share: every node x b-query read, and each row's maxima pass over its output and, for an update,
    # over the field rows it reads, so that rows without nodes are shared out too
    passes = F[:, 0].size * (2 if update else 1)
    work = nb * sum(row.taus.size for row in plan.rows) + passes * len(plan.rows)
    _in_workers(task, list(range(len(plan.rows))), _workers(work))
    return F, maxima


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
    Sweep k writes eta_k = F(eta_{k-1}), measures the combined weighted
    update norm delta = ||eta_k - eta_{k-1}||_{1,mu} and stops once it is at
    most solver_tol, or at max_sweeps.  Either way the field returned is the
    newest, eta_k, with its norms from that sweep's row maxima, and
    fixed_point_residual_1mu is the update delta that sweep measured.
    The source-term sweep allocates the field; every later sweep writes
    eta_k over eta_{k-1}'s array (_full_sweep's out), so a solve holds one
    field, plus the read tables and one row per sweep worker.
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
    sweeps: list[SweepStats] = []
    ratios: list[float] = []
    prev_delta = None
    for k in range(1, max_sweeps + 1):
        # maxima[2:] are the updates; every sweep after the source term writes F(eta) over eta's own array
        new, maxima = _full_sweep(plan, eta, out=eta.data) if k > 1 else _full_sweep(plan, None)
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
        eta = eta.with_data(new)
        converged = delta <= solver_tol
        if converged or k == max_sweeps:
            break
    # eta's norms (EtaField.norm_inf, norm_inf_mu, dnorm_inf_mu) from the row maxima of the sweep that wrote it
    inf_mu, dinf_mu = float(np.max(maxima[0] * w_t)), float(np.max(maxima[1] * w_t))
    norms = {"inf": float(np.max(maxima[0])), "inf_mu": inf_mu, "dinf_mu": dinf_mu, "one_mu": inf_mu + dinf_mu}
    return ConjugacyResult(
        eta=eta,
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
    stacked = eta.data[0].reshape(eta.data.shape[1], eta.data.shape[2], -1)
    flat = eta.interp_tables(stacked, t, b)
    segs = flat.reshape(len(t), eta.n, m + 1).transpose(0, 2, 1).copy()
    segs[:, :, model.unstable_indices[0]] += b[:, None] * unstable_shape(model, t, m)[0]
    return segs


def _rk4_fold(r0, r1, r2, c1, c2, sixths):
    """The RK4 increment (h/6)(k1 + 2 k2 + 2 k3 + k4) of k1 = r0, k2 = r1 + c1 k1, k3 = r1 + c1 k2, k4 = r2 + c2 k3.

    On y' = a(t) y + g(t), with c1 = (h/2) a(t + h/2) and c2 = h a(t + h),
    the stage slopes are linear in y: from y = 1 without g (r the stage
    rates a) the increment is P - 1, and from y = 0 with g (r the stage
    forcings g) it is Q, so that one step is y + increment = P y + Q.
    """
    k2 = c1 * r0
    k2 += r1
    k3 = c1 * k2
    k3 += r1
    k4 = c2 * k3
    k4 += r2
    k2 += k3
    k2 *= 2.0
    k2 += r0
    k2 += k4
    k2 *= sixths
    return k2


def lattice_residuals(eta: EtaField, model: DichotomyModel, pert: Perturbation, s, k, b) -> list:
    """Residuals at t = s + k h, h = r/m, with all samples integrated together.

    Every sample starts on its own segment, but in time relative to its own
    s all of them share the step lattice, and the perturbation's read lags
    sit on it too.  So one array X[sample, m + node, n] holds every history
    and state, node 0 being time s, and one RK4 method-of-steps pass
    (dde_core's scalar integrator, vectorized across initial data) advances
    every sample whose own k is not yet reached: a stage-1 read is a node, a
    half-step read the mean of two neighbouring nodes, a closing-stage read
    the next node, and a lag-0 read the stage state.  The linear part is
    the diagonal flow's coefficient rho_i'.  Samples are processed in order
    of decreasing k, so the live ones form a prefix and none is integrated
    (or checked for blow-up) past its own t.  Whatever depends only on the
    step is formed before the pass: rho_i' and the perturbation's weight at
    every stage time (each a node time or a step midpoint, so both are taken
    on those two arrays), each step's live count and fractions of h, and
    the nodes it reads.

    Without a lag-0 read (every read's segment index js < m) the pass runs
    by the method of steps in blocks of L = m - max(js) steps: a read of
    any step in a block lags far enough to see only nodes integrated before
    the block starts.  Each block gathers its reads at a node and at the
    next with one index, evaluates weight times value_map once on its three
    stage read sets, and folds the RK4 step of y' = rho'(t) y + g(t) into
    y_{j+1} = P_j y_j + Q_j (_rk4_fold): P_j, from the stage rates alone,
    and Q_j are formed per block for the samples live at its start, so each
    step is one multiply-add.  The fold reorders the scalar integrator's
    arithmetic; the residuals agree with conjugacy_residual's to 1e-12 raw
    (at most 7e-15 seen on the benchmark's scenarios).  A perturbation with a lag-0
    read is stepped stage by stage, in the scalar integrator's order, the
    stage state supplying that read.

    Blow-up is checked with one sum per block (per step on the stage path),
    and the first non-finite sample is located only when that sum is not
    finite, so a NonFiniteState names the step and sample a per-sample,
    per-step check would.  conjugacy_residual stays the scalar path for
    single, off-lattice triples and the reference this one is tested
    against.
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
    # each step's fractions, and the time-only factors rho_i' and weight(t) at its three stage times: its node,
    # its midpoint and the next node, so each factor is taken on the node times and on the midpoints
    t0 = times[:, :-1]
    hs = times[:, 1:] - t0
    halves, sixths = hs / 2.0, hs / 6.0
    mids = t0 + halves
    node_lin, mid_lin = (np.moveaxis(model.coeff(tt), 0, -1) for tt in (times, mids))
    node_w, mid_w = (np.asarray(pert.weight(tt), dtype=float) for tt in (times, mids))
    lins = (node_lin[:, :-1], mid_lin, node_lin[:, 1:])  # (samples, K, n) per stage
    weights = (node_w[:, :-1], mid_w, node_w[:, 1:])  # (samples, K) per stage
    # the samples live at step j, those with ks > j: a prefix, since ks decreases
    live = np.searchsorted(-ks, -np.arange(K), side="left").tolist()
    # step j's reads at node j + js, then at node j + js + 1, as one gather
    nodes = np.arange(K)[:, None] + np.concatenate([js, js + 1])
    coords = np.concatenate([cs, cs])

    def check(j0, j1):
        # one reduction over the states of steps j0 .. j1 - 1 (0 where a sample was no longer live); only a sum
        # that is not finite, as an overflowing sum of finite states can be too, sends for the per-sample check
        if math.isfinite(X[: live[j0], m + j0 + 1 : m + j1 + 1].sum()):
            return
        for j in range(j0, j1):
            blown = ~np.all(np.isfinite(X[: live[j], m + j + 1]), axis=1)
            if blown.any():
                i = int(np.argmax(blown))
                raise NonFiniteState(f"state blew up at t = {times[i, j + 1]} (sample from s = {so[i]}, b = {bo[i]})")

    now = js == m  # reads of x(t) itself come from the stage state
    with np.errstate(over="ignore", invalid="ignore"):
        if now.any():
            c_now = cs[now]

            def rhs(stage, j, y, reads):
                # overwrites only the lag-0 columns, so callers may share `reads`
                reads[:, now] = y[:, c_now]
                a = len(y)
                return lins[stage][:a, j] * y + pert.value_map(reads.T).T * weights[stage][:a, j, None]

            for j, a in enumerate(live):
                y = X[:a, m + j]
                both = X[:a, nodes[j], coords]
                at_node, next_node = both[:, : cs.size], both[:, cs.size :]
                mid = 0.5 * (at_node + next_node)
                k1 = rhs(0, j, y, at_node)
                k2 = rhs(1, j, y + halves[:a, j, None] * k1, mid)
                k3 = rhs(1, j, y + halves[:a, j, None] * k2, mid)
                k4 = rhs(2, j, y + hs[:a, j, None] * k3, next_node)
                X[:a, m + j + 1] = y + sixths[:a, j, None] * (k1 + 2 * k2 + 2 * k3 + k4)
                check(j, j + 1)
        else:
            # the reads of steps j0 .. j0 + L - 1 reach at most node j0 + m, the state the block starts from
            L = m - int(np.max(js, initial=0))
            for j0 in range(0, K, L):
                j1 = min(j0 + L, K)
                a0 = live[j0]
                block = (slice(None, a0), slice(j0, j1))
                r0, r1, r2 = (lin[block] for lin in lins)
                c1 = halves[block][..., None] * r1
                c2 = hs[block][..., None] * r2
                sixth = sixths[block][..., None]
                P = _rk4_fold(r0, r1, r2, c1, c2, sixth)
                P += 1.0
                reads = X[:a0, nodes[j0:j1], coords].transpose(2, 0, 1)  # (2k, a0, steps)
                at_node, next_node = reads[: cs.size], reads[cs.size :]
                W = np.stack([at_node, 0.5 * (at_node + next_node), next_node], axis=1)  # (k, 3, a0, steps)
                w = np.stack([wt[block] for wt in weights])
                g = np.moveaxis(pert.value_map(W) * w, 0, -1)  # (3, a0, steps, n)
                Q = _rk4_fold(g[0], g[1], g[2], c1, c2, sixth)
                for j in range(j0, j1):
                    a = live[j]
                    new = np.multiply(P[:a, j - j0], X[:a, m + j], out=X[:a, m + j + 1])
                    new += Q[:a, j - j0]
                check(j0, j1)

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
    of off-lattice reads.  s and b remain continuous draws.  The generator
    draws every s, then every offset, then every b, one vector each.  The
    samples are integrated together on their shared step lattice (lattice_residuals);
    conjugacy_residual remains the single-triple scalar path.
    """
    rng = np.random.default_rng(seed)
    h = model.r / eta.m
    max_k = max(int(np.floor(horizon / h + 1e-9)), 0)
    s = rng.uniform(*core, size=n_samples)
    k = rng.integers(0, max_k + 1, size=n_samples)
    b = rng.uniform(-b_scale, b_scale, size=n_samples)
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

    vals, dvals = eta.data
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

    _in_workers(check_row, list(range(len(vals))), _workers(eta.data.size))
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
