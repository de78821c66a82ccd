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
solve (plan_operator, O(S) numbers per row of S nodes, with the clamp
counts taken from the query geometry alone); a sweep (_full_sweep) gathers
the perturbation's point reads from the field in read-major blocks,
applies its maps there, sums them over the node groups on which the
diagonal kernels' step is constant and contracts those sums with a small
per-row matrix (_group_kernels).  The solve starts from the zero field, so
its first sweep is the source term F(0): it reads no field and gathers
nothing.

Off the stored grid the field is evaluated by bilinear interpolation,
clamped to the boundary value outside; clamp events are counted and
reported.  The error induced by clamping is second order: the integrand
envelope already decays below the tail tolerance wherever clamping can
trigger for core evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .admissibility import ParamSet, full_report
from .dde_core import Perturbation, solve_perturbed_R
from .dichotomy import DichotomyModel, _rho_matrix, unstable_flow, unstable_shape
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
        return np.array([float(mu_weight(self.mu, float(t), self.xi + self.eps)) for t in self.t_grid])

    def norm_inf(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def norm_inf_mu(self) -> float:
        w = self.time_weights()
        per_t = np.max(np.abs(self.values), axis=(1, 2, 3))
        return float(np.max(per_t * w))

    def dnorm_inf_mu(self) -> float:
        w = self.time_weights()
        per_t = np.max(np.abs(self.dvalues), axis=(1, 2, 3))
        return float(np.max(per_t * w))

    def norm_1mu(self) -> float:
        return self.norm_inf_mu() + self.dnorm_inf_mu()


# ---------------------------------------------------------------------------
# truncation from the proof-grade envelopes
# ---------------------------------------------------------------------------


def _stable_cut(mu, t: float, scale: float, alpha: float, theta: float, gamma: float, trunc: TruncationPolicy) -> float:
    """Largest T_lo <= t with integral_{-inf}^{T_lo} envelope <= tail_tol.

    The envelope is mu'(tau) mu(tau)^(alpha-1) mu(tau)^(sgn(tau)(theta-gamma)),
    scaled by `scale` = D delta mu(t)^(-alpha); its tail has the closed form
    of a mu-power on each side of zero.
    """
    if scale <= 0.0:
        return t
    c1 = alpha + gamma - theta
    c2 = alpha + theta - gamma
    if c1 <= 0:
        raise ValueError("envelope decay too weak: alpha + gamma must exceed theta")
    target = trunc.tail_tol / scale
    if target <= 1.0 / c1:
        v = (c1 * target) ** (1.0 / c1)
    else:
        rem = target - 1.0 / c1
        if abs(c2) < 1e-14:
            v = math.exp(rem)
        elif c2 > 0:
            v = (1.0 + c2 * rem) ** (1.0 / c2)
        else:
            if rem >= 1.0 / (-c2):
                return t  # entire upper piece is below the tolerance
            v = (1.0 + c2 * rem) ** (1.0 / c2)
    T = float(mu.inverse(np.asarray(v)))
    if T > t:
        return t
    if t - T > trunc.max_span:
        raise TruncationUnreachable(
            f"stable tail needs span {t - T:.1f} > max_span {trunc.max_span} at t={t}"
        )
    return T


def _unstable_cut(mu, t: float, scale: float, beta: float, nu: float, gamma: float, trunc: TruncationPolicy) -> float:
    """Smallest T_hi >= t with integral_{T_hi}^{inf} envelope <= tail_tol."""
    if scale <= 0.0:
        return t
    d1 = beta + gamma - nu
    d2 = gamma - nu - beta
    if d1 <= 0:
        raise ValueError("envelope decay too weak: beta + gamma must exceed nu")
    target = trunc.tail_tol / scale
    if target <= 1.0 / d1:
        v = (d1 * target) ** (-1.0 / d1)
    else:
        rem = target - 1.0 / d1
        if abs(d2) < 1e-14:
            v = math.exp(-rem)
        elif d2 > 0:
            arg = 1.0 - d2 * rem
            if arg <= 0.0:
                return t
            v = arg ** (1.0 / d2)
        else:
            v = (1.0 - d2 * rem) ** (1.0 / d2)
    T = float(mu.inverse(np.asarray(v)))
    if T < t:
        return t
    if T - t > trunc.max_span:
        raise TruncationUnreachable(
            f"unstable tail needs span {T - t:.1f} > max_span {trunc.max_span} at t={t}"
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
    t_lo = _stable_cut(mu, t, scale_s, model.alpha, model.theta, pert.gamma, trunc)
    t_hi = _unstable_cut(mu, t, scale_u, model.beta, model.nu, pert.gamma, trunc)
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
    O(S) numbers: nothing with a b or a segment axis.  The nodes come in
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


def plan_operator(model: DichotomyModel, pert: Perturbation, eta: EtaField, ts, bs, trunc: TruncationPolicy, D: float) -> OperatorPlan:
    """Plan the operator at the queries ts x bs on the grid of eta.

    Only eta's grid is used.  A query clamps when either axis of its orbit
    lookup (tau, b unstable_flow(tau, t)) leaves the grid, counted once
    over each row's (S, nb) lookups, so clamped / total lies in [0, 1];
    only the t cells are kept, so no b cell is formed here.
    """
    bs = np.asarray(bs, dtype=float)
    cs = np.array([c for c, _ in pert.reads], dtype=int)
    js = np.array([lag_index(eta.r, eta.m, lag) for _, lag in pert.reads], dtype=int)
    u_idx = model.unstable_indices[0]
    rows = []
    clamped = total = 0
    for t in ts:
        t = float(t)
        taus_s, w_s, taus_u, w_u = orbit_quadrature(model, pert, t, trunc, D, eta.m)
        taus = np.concatenate([taus_s, taus_u])
        factor = unstable_flow(model, taus, t)[0]
        xt, out_t = _coords(taus, eta.t_grid)
        _, out_b = _coords(factor[:, None] * bs, eta.b_grid)
        outside = out_t[:, None] | out_b
        clamped += int(np.count_nonzero(outside))
        total += outside.size
        it, wt = _cells(xt, len(eta.t_grid))
        lin = np.zeros((len(cs), taus.size))
        for j, (coord, lag) in enumerate(pert.reads):
            if coord == u_idx:
                lin[j] = unstable_flow(model, taus - lag, taus)[0]
        weights, pert_weight = np.concatenate([w_s, -w_u]), np.asarray(pert.weight(taus), dtype=float)
        n_far = int(np.count_nonzero(taus_s < t - model.r))
        rows.append(RowPlan(t, taus, weights, taus_s.size, n_far, factor, pert_weight, it, wt, lin))
    return OperatorPlan(model, pert, bs, tuple(rows), cs, js, eta.m, clamped, total)


_B_CHUNK = 128  # b columns per gather-and-contract block; bounds the temporaries


def _group_kernels(model: DichotomyModel, row: RowPlan, omega: np.ndarray):
    """The row's jump-response kernels, factored: node factors (n, S) and group kernels (n, P+2, m+1).

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
    overflowing exp never meets a zero mask.
    """
    unstable = np.array([c.role == "unstable" for c in model.coords])
    nf, ns = row.n_far, row.n_stable
    grid = row.t + omega
    rho_g = _rho_matrix(model.coords, grid)  # (n, m+1), rho_i(t) last
    expo = rho_g[:, -1:] - _rho_matrix(model.coords, row.taus)
    expo[unstable, :nf] = -np.inf
    expo[~unstable, ns:] = -np.inf
    node = np.exp(expo) * (row.weights * row.pert_weight)
    # first column ahead of each stable-side group: 0 for the far nodes, a
    # panel's first grid point at or past its nodes (p0_kernel's tolerance)
    first = np.concatenate([[0], np.searchsorted(grid, row.taus[nf:ns:_NEAR_NODES] - 1e-12)])
    mask = np.empty((model.n, first.size + 1, omega.size))
    mask[:, :-1] = (np.arange(omega.size) >= first[:, None]) - unstable[:, None, None].astype(float)
    mask[:, -1] = 1.0
    return node, mask * np.exp(rho_g - rho_g[:, -1:])[:, None]


def _full_sweep(plan: OperatorPlan, eta: Optional[EtaField]):
    """The operator and its b-derivative at every planned query, from eta.

    Returns (F, dF) of shape (rows, nb, n, m+1).  The read tables are cut
    once in read-major layout (2k, nt, nb); per row they are blended along
    t with the planned weights.  A block of c b columns stays read-major,
    (k, S, c), from the gathers to the maps: two takes along b blend into
    the reads W and directions V, and the perturbation's maps give the
    value and derivative planes (n, S, c).  Each plane is summed over the
    row's node groups with the node factors of _group_kernels, (n, P+2, c)
    for P near panels, and contracted with the group kernels by one small
    matmul per plane, written straight into the output.
    eta None stands for the zero field, every read of which is 0: that
    sweep is the source term F(0), with no tables, blends or gathers.
    """
    model, pert = plan.model, plan.pert
    n, m, k = model.n, plan.m, len(plan.cs)
    nb = plan.b.size
    omega = np.linspace(-model.r, 0.0, m + 1)
    out = np.zeros((len(plan.rows), nb, n, m + 1))
    dout = np.zeros_like(out)
    if eta is not None:
        bg, nbg = eta.b_grid, len(eta.b_grid)
        tables = np.concatenate(
            [eta.values.transpose(2, 3, 0, 1)[plan.cs, plan.js], eta.dvalues.transpose(2, 3, 0, 1)[plan.cs, plan.js]]
        )  # (2k, nt, nb)
    for i, row in enumerate(plan.rows):
        S = row.taus.size
        if S == 0:
            continue
        if eta is not None:
            along_t = np.take(tables, row.it, axis=1)
            along_t *= 1.0 - row.wt[:, None]
            upper = np.take(tables, row.it + 1, axis=1)
            upper *= row.wt[:, None]
            along_t += upper  # (2k, S, nb)
            del upper  # freed before the blocks allocate, which keeps the peak RSS down
            flat = along_t.reshape(2 * k, S * nbg)
            row_start = (np.arange(S) * nbg)[:, None]
        nf, ns = row.n_far, row.n_stable
        node, kern = _group_kernels(model, row, omega)
        panels = kern.shape[1] - 2
        live = [j for j in range(k) if row.lin[j].any()]  # reads of the unstable coordinate
        for lo in range(0, nb, _B_CHUNK):
            hi = min(lo + _B_CHUNK, nb)
            B = row.factor[:, None] * plan.b[lo:hi]  # (S, c)
            if eta is None:
                # zeros to add the linear part to, as the gathers' +0.0 sums are:
                # 0.0 + (-0.0) is +0.0, where assigning lin * B would keep -0.0
                reads = np.zeros((2 * k, S, hi - lo))
            else:
                ib, wb = _cells((B - bg[0]) / (bg[1] - bg[0]), nbg)
                at = ib + row_start
                reads = np.take(flat, at, axis=1)  # (2k, S, c)
                upper = np.take(flat, at + 1, axis=1)
                reads *= 1 - wb
                upper *= wb
                reads += upper
            W, V = reads[:k], reads[k:]
            for j in live:
                W[j] += row.lin[j][:, None] * B
                V[j] += row.lin[j][:, None]
            V *= row.factor[:, None]
            for dst, mapped in zip((out, dout), (pert.value_map(W), pert.jvp_map(W, V))):  # (n, S, c) each
                sums = np.empty((n, panels + 2, hi - lo))  # weighted per group: far, each near panel, unstable
                np.matmul(node[:, None, :nf], mapped[:, :nf], out=sums[:, :1])
                near = mapped[:, nf:ns] * node[:, nf:ns, None]
                np.sum(near.reshape(n, panels, _NEAR_NODES, hi - lo), axis=2, out=sums[:, 1:-1])
                np.matmul(node[:, None, ns:], mapped[:, ns:], out=sums[:, -1:])
                np.matmul(sums.swapaxes(1, 2), kern, out=dst[i, lo:hi].swapaxes(0, 1))  # (n, c, m+1)
    return out, dout


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


def _row_max_diff(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """max |new - old| per time row, with one row's temporaries at a time."""
    return np.array([np.max(np.abs(a - b)) for a, b in zip(new, old)])


def picard_solve(
    model: DichotomyModel,
    pert: Perturbation,
    params: ParamSet,
    grid: GridSpec,
    trunc: TruncationPolicy,
    *,
    solver_tol: float = 2e-5,
    max_sweeps: int = 25,
    require_admissible: bool = True,
) -> ConjugacyResult:
    """Iterate the operator and its derivative jointly from the zero field.

    The first sweep is then the source term F(0), which reads no field.
    Sweeps stop when the combined update norm drops below solver_tol.  A
    measured update ratio >= 1 on two consecutive sweeps raises
    NotContracting: the scenario's perturbation is inconsistent with the
    declared contraction constants.
    """
    if model.d_u != 1:
        raise ValueError("the field solver handles one-dimensional unstable coordinates")
    if require_admissible:
        rep = full_report(params)
        if not rep.passed:
            bad = [e.name for e in rep.entries if not e.passed]
            raise ValueError(f"parameter set fails admissibility: {bad}")

    eta = EtaField.zero(grid, model.n, model.r, model.mu, params.xi, params.eps)
    plan = plan_operator(model, pert, eta, eta.t_grid, eta.b_grid, trunc, params.D)
    w_t = eta.time_weights()
    sweeps: list[SweepStats] = []
    ratios: list[float] = []
    converged = False
    prev_delta = None
    for k in range(1, max_sweeps + 1):
        new_vals, new_dvals = _full_sweep(plan, eta if k > 1 else None)
        dv = _row_max_diff(new_vals, eta.values) * w_t
        dd = _row_max_diff(new_dvals, eta.dvalues) * w_t
        delta_inf = float(np.max(dv))
        ddelta_inf = float(np.max(dd))
        delta = delta_inf + ddelta_inf
        ratio = None if prev_delta is None else (delta / prev_delta if prev_delta > 0 else 0.0)
        sweeps.append(SweepStats(k, delta_inf, ddelta_inf, delta, ratio))
        if ratio is not None:
            ratios.append(ratio)
        eta = eta.with_data(new_vals, new_dvals)
        if ratio is not None and len(ratios) >= 2 and ratios[-1] >= 1.0 and ratios[-2] >= 1.0:
            exc = NotContracting(
                f"update ratios {ratios[-2]:.3f}, {ratios[-1]:.3f} on consecutive sweeps"
            )
            exc.sweeps = [s.to_dict() for s in sweeps]
            raise exc
        prev_delta = delta
        if delta <= solver_tol:
            converged = True
            break
    # one extra application measures the fixed-point residual without updating
    new_vals, new_dvals = _full_sweep(plan, eta)
    res_inf = float(np.max(_row_max_diff(new_vals, eta.values) * w_t))
    res_dinf = float(np.max(_row_max_diff(new_dvals, eta.dvalues) * w_t))
    norms = {
        "inf": eta.norm_inf(),
        "inf_mu": eta.norm_inf_mu(),
        "dinf_mu": eta.dnorm_inf_mu(),
        "one_mu": eta.norm_1mu(),
    }
    return ConjugacyResult(
        eta=eta,
        params=params,
        sweeps=sweeps,
        converged=converged,
        fixed_point_residual_1mu=res_inf + res_dinf,
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
    rhs = solve_perturbed_R(model.sys, pert, t, s, start, step=model.r / m)

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
    none is integrated (or checked for blow-up) past its own t.
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
    cs = np.array([c for c, _ in pert.reads], dtype=int)
    js = np.array([lag_index(eta.r, eta.m, lag) for _, lag in pert.reads], dtype=int)
    now = js == m  # reads of x(t) itself come from the stage state
    # the time-only factors rho_i' and weight(t) at every step's three stage times
    t0 = times[:, :-1]
    hs = times[:, 1:] - t0
    stages = (t0, t0 + hs / 2.0, t0 + hs)
    lins = [np.stack([np.asarray(c.coeff(tt), dtype=float) for c in model.coords], axis=-1) for tt in stages]
    weights = [np.asarray(pert.weight(tt), dtype=float) for tt in stages]

    def rhs(stage, j, y, reads):
        # overwrites only the lag-0 columns, so callers may share `reads`
        reads[:, now] = y[:, cs[now]]
        a = len(y)
        return lins[stage][:a, j] * y + pert.value_map(reads.T).T * weights[stage][:a, j, None]

    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(K):
            a = int(np.count_nonzero(ks > j))
            y = X[:a, m + j]
            hc = hs[:a, j, None]
            at_node = X[:a, j + js, cs]
            next_node = X[:a, j + js + 1, cs]
            mid = 0.5 * (at_node + next_node)
            k1 = rhs(0, j, y, at_node)
            k2 = rhs(1, j, y + hc / 2.0 * k1, mid)
            k3 = rhs(1, j, y + hc / 2.0 * k2, mid)
            k4 = rhs(2, j, y + hc * k3, next_node)
            X[:a, m + j + 1] = y + hc / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            blown = ~np.all(np.isfinite(X[:a, m + j + 1]), axis=1)
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
    passes within 1e-3.
    """
    eta = result.eta
    dnorm = result.norms["dinf_mu"]
    margin = 1.0 - dnorm
    report = {"derivative_norm_mu": dnorm, "margin": margin, "margin_positive": margin > 0.0}

    vals, dvals = eta.values, eta.dvalues
    db = eta.b_grid[1] - eta.b_grid[0]
    fd = (vals[:, 2:] - vals[:, :-2]) / (2.0 * db)
    scale = max(float(np.max(np.abs(dvals))), 1e-300)
    fd_err = float(np.max(np.abs(fd - dvals[:, 1:-1]))) / scale
    report["fd_rel_err"] = fd_err
    report["fd_ok"] = fd_err <= 1e-3

    # picard_solve only solves models with one unstable coordinate
    coord_map = eta.b_grid[None, :] + vals[:, :, model.unstable_indices[0], -1]
    report["monotone"] = bool(np.all(np.diff(coord_map, axis=1) > 0.0))
    return report


def propagation_gain(model: DichotomyModel, pert, tau: float, t: float, seg: Segment, scale: float = 1e-4) -> float:
    """Measured local Lipschitz gain of the nonlinear evolution over [tau, t]."""
    bumped = Segment(seg.r, seg.values + scale)
    a = solve_perturbed_R(model.sys, pert, t, tau, seg, step=model.r / seg.m)
    bb = solve_perturbed_R(model.sys, pert, t, tau, bumped, step=model.r / seg.m)
    return sup_norm(bb - a) / (scale if scale > 0 else 1.0)
