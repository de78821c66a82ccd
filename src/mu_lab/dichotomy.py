"""Dichotomy models: projections, jump-data projectors, and bound certificates.

A model is a diagonal system whose coordinates evolve by exact scalar
flows exp(rho_i(t) - rho_i(s)); it holds every log-primitive rho_i as one
vectorized function of time and flags each coordinate stable or unstable.
This module is the one place that derives the unstable direction from them.
The unstable projector reads the coordinate value at omega = 0 and spreads
it along the backward-decaying solution shape (unstable_shape), which
commutes with the evolution exactly; pull-backs along the unstable flow are
unstable_flow.  The jump responses have one closed form, p0_kernel and
q0_kernel, which the conjugacy operator integrates over tau at one time t
and the certificate evaluates at one time pair per entry.  Certificates
estimate the segment families' operator norms by maximizing over a finite
probe family, so those numbers are lower bounds of the true norms; the
certificate tolerance absorbs that slack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .admissibility import ParamSet
from .dde_core import fundamental_jump, solution_op_T
from .errors import TimeOrder
from .growth_rate import GrowthRate, mu_weight, rate_by_id, ratio_bound_N
from .phase_space import JumpSegment, Segment


@dataclass(frozen=True)
class DichotomyModel:
    """A diagonal flow, its declared dichotomy constants and its ratio bound N = N(r) of mu.

    Coordinate i evolves by exp(rho_i(t) - rho_i(s)).  log_flow(t) returns
    every rho_i at once and coeff(t) every rho_i', the system coefficients,
    both with shape (n,) + np.shape(t); unstable flags each coordinate.
    """

    label: str
    mu: GrowthRate
    r: float
    log_flow: Callable[[np.ndarray], np.ndarray]
    coeff: Callable[[np.ndarray], np.ndarray]
    unstable: tuple[bool, ...]
    K: float
    alpha: float
    beta: float
    theta: float
    nu: float
    K_tilde: float
    a: float
    eps: float
    N: float

    @property
    def n(self) -> int:
        return len(self.unstable)

    @property
    def d_u(self) -> int:
        return len(self.unstable_indices)

    @property
    def unstable_indices(self) -> list[int]:
        return [i for i, u in enumerate(self.unstable) if u]


@dataclass(frozen=True)
class P0Composite:
    """X0 p minus the unstable jump projection: a jump plus a continuous part."""

    jump: np.ndarray
    segment: Segment

    def value_at(self, omega: float) -> np.ndarray:
        v = self.segment.value_at(omega)
        if abs(omega) <= 1e-12:
            v = v + self.jump
        return v


# ---------------------------------------------------------------------------
# diagonal exact-flow machinery
# ---------------------------------------------------------------------------


def _log_flows(model: DichotomyModel, t, taus: np.ndarray, omega: np.ndarray):
    """Log-primitives rho_i(t + omega) (n, 1 or n_tau, n_omega) and rho_i(tau) (n, n_tau, 1), and t + omega >= tau.

    t is one time for every tau (the operator's row) or one time per tau
    (the certificate's pairs); the flows are exp of the differences.
    """
    grid = np.asarray(t)[..., None] + omega
    rho_g = model.log_flow(grid).reshape(model.n, -1, len(omega))
    return rho_g, model.log_flow(taus)[:, :, None], _ahead(grid, taus)


def _ahead(grid: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """The kernels' mask t + omega >= tau on grid = t + omega, a grid point within 1e-12 of tau counting as past it."""
    return grid >= taus[:, None] - 1e-12


def _flows(model: DichotomyModel, t, taus: np.ndarray, omega: np.ndarray):
    """The flows exp(rho_i(t + omega) - rho_i(tau)) (n, n_tau, n_omega) and the mask t + omega >= tau of _log_flows."""
    rho_g, rho_t, ahead = _log_flows(model, t, taus, omega)
    return np.exp(rho_g - rho_t), ahead


def _p0_masked(model: DichotomyModel, flow: np.ndarray, ahead: np.ndarray) -> np.ndarray:
    """p0_kernel from _flows: the stable flow ahead of tau, the negated unstable flow before it."""
    out = np.where(ahead, flow, 0.0)
    u = model.unstable_indices
    out[u] = np.where(ahead, 0.0, -flow[u])
    return out


def p0_kernel(model: DichotomyModel, t, taus: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Per-coordinate kernels (n, n_tau, n_omega) of v -> T0(t,tau) P0(tau) v; t as in _log_flows."""
    return _p0_masked(model, *_flows(model, t, taus, omega))


def _q0(model: DichotomyModel, rho_g: np.ndarray, rho_t: np.ndarray) -> np.ndarray:
    """q0_kernel from _log_flows' log-primitives: the unstable flow exp(rho_g - rho_t), zero on stable coordinates."""
    out = np.zeros(np.broadcast_shapes(rho_g.shape, rho_t.shape))
    u = model.unstable_indices
    out[u] = np.exp(rho_g[u] - rho_t[u])
    return out


def q0_kernel(model: DichotomyModel, t, taus: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Per-coordinate kernels (n, n_tau, n_omega) of v -> T_bar(t,tau) Q0(tau) v; t as in _log_flows."""
    rho_g, rho_t, _ = _log_flows(model, t, taus, omega)
    return _q0(model, rho_g, rho_t)


def seg_T_closed(model: DichotomyModel, t: np.ndarray, s: np.ndarray, values: np.ndarray) -> np.ndarray:
    """T(t, s) for diagonal flows on arrays: pair p carries values[p] from s[p] to t[p].

    values has shape (pairs, probes, m+1, n), or (1, probes, m+1, n) for
    segments shared by every pair; so has the result.  Where t + omega >= s
    a sample is the endpoint carried by the flow, which is its jump response
    p0_kernel + q0_kernel; before s it reads the history by linear
    interpolation, in the arithmetic of Segment.value_at.
    """
    t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
    if np.any(t < s):
        raise TimeOrder(f"t earlier than s in {np.count_nonzero(t < s)} of {t.size} pairs")
    return _carry(model, t, s, values, *_flows(model, t, s, np.linspace(-model.r, 0.0, values.shape[-2])))


def _carry(model: DichotomyModel, t: np.ndarray, s: np.ndarray, values: np.ndarray, flow, ahead) -> np.ndarray:
    """seg_T_closed on ordered pairs, given _flows(model, t, s, omega) on its segments' omega grid."""
    r, m = model.r, values.shape[-2] - 1
    omega = np.linspace(-r, 0.0, m + 1)
    x = (np.clip(t[:, None] + omega - s[:, None], -r, 0.0) + r) / r * m
    j = np.minimum(np.floor(x).astype(int), m - 1)[:, None, :, None]
    w = x[:, None, :, None] - j
    # (1 - w) * lower + w * upper and the carried endpoint, in place: each is one (pairs, probes, m+1, n) array
    out = np.take_along_axis(values, j, axis=-2)
    out *= 1.0 - w
    upper = np.take_along_axis(values, j + 1, axis=-2)
    upper *= w
    out += upper
    del upper
    np.copyto(out, values[..., -1:, :] * flow.transpose(1, 2, 0)[:, None], where=ahead[:, None, :, None])
    return out


def unstable_shape(model: DichotomyModel, t, m: int) -> np.ndarray:
    """Backward-decaying solution shapes normalized to 1 at omega = 0: unstable_flow(t + omega, t).

    (d_u, m+1) for one time t, (d_u, len(t), m+1) for an array of times.
    """
    t = np.asarray(t, dtype=float)[..., None]
    return unstable_flow(model, t + np.linspace(-model.r, 0.0, m + 1), t)


def unstable_flow(model: DichotomyModel, t, s) -> np.ndarray:
    """exp(rho_i(t) - rho_i(s)) per unstable coordinate i, shape (d_u,) + the broadcast shape of t and s."""
    t, s = np.asarray(t, dtype=float), np.asarray(s, dtype=float)
    # leading unit axes on the one with fewer, so that log_flow's coordinate axes line up
    t = t.reshape((1,) * (s.ndim - t.ndim) + t.shape)
    s = s.reshape((1,) * (t.ndim - s.ndim) + s.shape)
    u = model.unstable_indices
    return np.exp(model.log_flow(t)[u] - model.log_flow(s)[u])


def project_Q(model: DichotomyModel, s: float, seg: Segment) -> Segment:
    """Q(s): each unstable coordinate's value at omega = 0, spread along its unstable shape."""
    vals = np.zeros_like(seg.values)
    idx = model.unstable_indices
    vals[:, idx] = seg.values[-1, idx] * unstable_shape(model, s, seg.m).T
    return Segment(seg.r, vals)


def project_P(model: DichotomyModel, s: float, seg: Segment) -> Segment:
    """P(s) = I - Q(s)."""
    return seg - project_Q(model, s, seg)


# ---------------------------------------------------------------------------
# model builders
# ---------------------------------------------------------------------------


# the reference set of declared constants that a model takes unless it declares its own
REFERENCE_CONSTANTS = {"alpha": 0.8, "beta": 0.6, "theta": 0.4, "nu": 0.2, "K_tilde": 1.05, "a": 1.0, "eps": 0.1}


def diagonal_model(
    mu: GrowthRate,
    r: float,
    log_flow: Callable[[np.ndarray], np.ndarray],
    coeff: Callable[[np.ndarray], np.ndarray],
    unstable: Sequence[bool],
    *,
    label: str = "diagonal",
    K: Optional[float] = None,
    **declared: float,
) -> DichotomyModel:
    """Assemble a DichotomyModel from a vectorized diagonal flow (see DichotomyModel).

    Declared constants default to REFERENCE_CONSTANTS; K defaults to the
    honest worst case for these projections: the unstable projector has
    norm one, so the transient of I - Q on one delay interval costs a
    factor 2, and reading the segment at omega = -r costs N(r)^alpha.
    """
    unstable = tuple(bool(u) for u in unstable)
    constants = {**REFERENCE_CONSTANTS, **declared}
    N = ratio_bound_N(mu, r)
    if K is None:
        K = (2.0 if any(unstable) else 1.0) * N ** constants["alpha"]
    return DichotomyModel(label, mu, r, log_flow, coeff, unstable, K=K, N=N, **constants)


def power_model(mu: GrowthRate, r: float, powers: Sequence[float], **declared) -> DichotomyModel:
    """Coordinates with exact flows (mu(t)/mu(s))^p, one per power p; p < 0 is stable.

    mu is evaluated once per time array for all coordinates; declared takes
    diagonal_model's keywords.
    """
    p = np.asarray(powers, dtype=float)

    def log_flow(ts):
        return np.multiply.outer(p, np.log(np.asarray(mu.eval(ts), dtype=float)))

    def coeff(ts):
        return np.multiply.outer(p, np.asarray(mu.deriv(ts), dtype=float)) / np.asarray(mu.eval(ts), dtype=float)

    declared.setdefault("label", f"power[{mu.label}]")
    return diagonal_model(mu, r, log_flow, coeff, p >= 0, **declared)


def sin_wobble_model(r: float, *, alpha0: float = 1.0, theta0: float = 0.1, **declared) -> DichotomyModel:
    """Stable scalar whose decay wobbles with d/dt(t sin t), under mu = e^t.

    The primitive of the coefficient is rho(t) = -alpha0 t - theta0 t sin t,
    so the flow is exp(rho(t) - rho(s)); the one coordinate is a leading
    axis of length 1.  The honest declaration weakens the rate to
    alpha = alpha0 - theta0 and charges the wobble to the nonuniformity
    exponents theta = eps = 2*theta0; K is diagonal_model's default
    N^alpha = e^(alpha r).  declared overrides any of these constants
    (diagonal_model's keywords), so theta = 0 is the shipped negative control.
    """
    mu = rate_by_id("exp")
    if alpha0 <= theta0:
        raise ValueError("alpha0 must exceed theta0")

    def log_flow(ts):
        ts = np.asarray(ts, dtype=float)
        return (-alpha0 * ts - theta0 * ts * np.sin(ts))[None]

    def coeff(t):
        return np.asarray(-alpha0 - theta0 * (np.sin(t) + t * np.cos(t)))[None]

    honest = dict(alpha=alpha0 - theta0, theta=2.0 * theta0, nu=0.0, K_tilde=1.0, a=0.5, eps=2.0 * theta0)
    return diagonal_model(mu, r, log_flow, coeff, [False], label="wobble", **{**honest, **declared})


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def apply_Q0(model: DichotomyModel, t: float, p, *, m: int = 64) -> Segment:
    """Project jump data onto the unstable directions at time t, by integration.

    The paper's factorization: evolve the jump one delay forward, read its
    unstable coordinates there (what Q(t + r) keeps), pull them back to t
    along the unstable flow and spread them along the unstable shapes at t.
    The integration reference for the closed form q0_kernel at tau = t.
    """
    p = np.atleast_1d(np.asarray(p, dtype=float))
    idx = model.unstable_indices
    vals = np.zeros((m + 1, model.n))
    if idx:
        s_up = t + model.r
        ahead = fundamental_jump(model, s_up, t, p, m=m).values[-1, idx]
        vals[:, idx] = ((ahead * unstable_flow(model, t, s_up))[:, None] * unstable_shape(model, t, m)).T
    return Segment(model.r, vals)


def apply_P0(model: DichotomyModel, t: float, p, *, m: int = 64) -> P0Composite:
    """X0 p minus the unstable jump projection, kept as (jump, continuous)."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    return P0Composite(jump=p.copy(), segment=-1.0 * apply_Q0(model, t, p, m=m))


def evolve_P0(model: DichotomyModel, t_to: float, t: float, comp: P0Composite, *, m: int = 64) -> Segment:
    """T0(t_to, t) applied to a (jump, continuous) composite, by integration with step r/m."""
    jumped = fundamental_jump(model, t_to, t, comp.jump, m=m)
    if isinstance(jumped, JumpSegment):
        raise TimeOrder("evolve_P0 needs t_to > t")
    return jumped + solution_op_T(model, t_to, t, comp.segment, step=model.r / m)


def derived_constant_D(c) -> float:
    """Safe constant for the projected-jump bounds, max over proof branches.

    c is a DichotomyModel; only its constants K, K_tilde, a, alpha, beta,
    theta, nu and its ratio bound N are read.
    """
    N = c.N
    K1 = c.K * c.K_tilde * N ** (abs(c.a - c.beta) + c.nu)
    return float(max(K1, c.K_tilde * N**c.a * (1.0 + K1), c.K * c.K_tilde * N ** (c.a + c.alpha + c.theta)))


def model_params(model: DichotomyModel, **rest) -> ParamSet:
    """The ParamSet of a model: its declared constants and N, D = derived_constant_D(model), and rest.

    rest holds what the model does not declare: gamma, xi, delta, lam and q.
    """
    declared = {key: getattr(model, key) for key in ("K", "alpha", "beta", "theta", "nu", "K_tilde", "a", "eps", "N")}
    return ParamSet(D=derived_constant_D(model), **declared, **rest)


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    name: str
    worst_ratio: float
    argmax_pair: tuple[float, float]
    passed: bool
    samples: np.ndarray = field(repr=False, compare=False)  # (pairs, 5): the row's two times, measured, bound, ratio

    def to_dict(self) -> dict:
        return {
            "bound_name": self.name,
            "worst_ratio": self.worst_ratio,
            "argmax_pair": list(self.argmax_pair),
            "pass": self.passed,
        }


@dataclass(frozen=True)
class DichotomyCertificate:
    window: tuple[float, float]
    checks: tuple[BoundCheck, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> BoundCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "window": list(self.window),
            "tolerance": self.tolerance,
            "pass": self.passed,
            "bounds": [c.to_dict() for c in self.checks],
        }


def _probe_segments(model: DichotomyModel, m: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm probes (probes, m+1, n): constants, steep near-jump profiles, smooth noise."""
    n = model.n
    probes = []
    for i in range(n):
        constant = np.zeros((m + 1, n))
        constant[:, i] = 1.0
        spike = np.zeros((m + 1, n))
        spike[:, i] = -1.0
        spike[-1, i] = 1.0
        probes += [constant, spike]
    grid = np.linspace(-model.r, 0.0, m + 1)
    for _ in range(3):
        freq = rng.uniform(0.5, 4.0, size=n)
        phase = rng.uniform(0, 2 * np.pi, size=n)
        vals = np.cos(np.outer(grid, freq) + phase)
        probes.append(vals / np.max(np.abs(vals)))
    return np.stack(probes)


# time pairs measured together.  A block of near pairs evolves (block, probes, m+1, n) segments, so larger blocks
# raise peak memory for little speed; a block of far pairs holds only a few (n, block, m+1) flows and kernels, so it
# can be wider at the same peak
_PAIR_BLOCK = 64
_FAR_BLOCK = 128


def _end_gain(peak: np.ndarray, ends: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Per pair, max over probes of max_i |ends_i| * peak_i / norm.

    peak (n, pairs) is each coordinate's largest kernel or flow sample, ends
    (probes, n, 1) or (probes, n, pairs) the probes' values at omega = 0.
    Rounding is monotone, so this is the sup norm of the endpoint carried by
    the kernel, bit for bit.
    """
    return np.max(np.max(np.abs(ends) * peak, axis=1) / norms[:, None], axis=0)


def _unit_gain(kern: np.ndarray) -> np.ndarray:
    """Per pair, the jump response's norm over unit vectors: max |kern|, since the kernels are diagonal."""
    return np.max(np.abs(kern), axis=(0, 2))


def _measure_pairs(model: DichotomyModel, t, s, probes: np.ndarray) -> np.ndarray:
    """Measured norms (5, pairs) of the five families, in verify_bounds' order.

    The forward families evolve from s to t; the unstable ones pull back
    from t to s.  The block takes its log-flows once: rho on t + omega, and
    on s + omega for a model with an unstable coordinate (on s alone
    otherwise, since only the unstable coordinates have a backward kernel).
    The flow, its mask, p0_kernel, both uses of q0_kernel and the near
    pairs' seg_T_closed segments are all built from those two arrays, with
    the public kernels' formulas, and the arrays are freed before any
    segment is evolved.  A pair a delay or more apart (t + omega >= s for
    every omega) carries only the probe's endpoint, along the flow, so its
    two segment families are the endpoint times each coordinate's flow
    peak; only closer pairs evolve whole probe segments.  The unstable
    family's jumps are the probes' endpoints; the projected-jump families
    take the sup-norm unit vectors, and because every kernel is diagonal,
    coordinate i of the response to v is |v_i| <= 1 times kernel i, so the
    unit vectors e_i attain the norm exactly.  The bounded-growth family
    needs no jump part: p0 + q0 is the flow where t + omega >= s and 0
    elsewhere, which the constant probes already see.
    """
    omega = np.linspace(-model.r, 0.0, probes.shape[1])
    probe_norms = np.max(np.abs(probes), axis=(1, 2))
    ends = probes[:, -1]  # (probes, n)
    # omega ends at 0, so the grids' last columns are rho(t) and rho(s)
    grid = t[:, None] + omega
    rho_tg = model.log_flow(grid)
    rho_sg = model.log_flow(s[:, None] + (omega if model.d_u else omega[-1:]))
    rho_t, rho_s = rho_tg[..., -1:].copy(), rho_sg[..., -1:].copy()
    flow, ahead = np.exp(rho_tg - rho_s), _ahead(grid, s)  # _flows(model, t, s, omega)
    near = ~np.all(ahead, axis=1)
    back = _q0(model, rho_sg, rho_t)  # q0_kernel(model, s, t, omega)
    # P(s) of a probe: the probe minus its unstable endpoint spread along the backward solution
    # q0_kernel(model, s, s, omega), which is the endpoint itself at omega = 0
    spread = _q0(model, rho_sg[:, near], rho_s[:, near])
    spread_end = _q0(model, rho_s, rho_s)[:, :, 0]  # (n, pairs)
    del grid, rho_tg, rho_sg
    peak = np.max(flow, axis=2)  # (n, pairs)
    measured = np.stack(
        [
            _end_gain(peak, ends[:, :, None] - ends[:, :, None] * spread_end, probe_norms),
            _end_gain(np.max(back, axis=2), ends[:, :, None], probe_norms),
            _end_gain(peak, ends[:, :, None], probe_norms),
            _unit_gain(_p0_masked(model, flow, ahead)),
            _unit_gain(back),
        ]
    )
    del back
    if np.any(near):
        t_near, s_near, flow, ahead = t[near], s[near], flow[:, near], ahead[near]

        def probe_gain(values):
            evolved = _carry(model, t_near, s_near, values, flow, ahead)
            return np.max(np.max(np.abs(evolved, out=evolved), axis=(2, 3)) / probe_norms, axis=1)

        measured[0, near] = probe_gain(probes - ends[:, None, :] * spread.transpose(1, 2, 0)[:, None])
        measured[2, near] = probe_gain(probes[None])
    return measured


def _measure_blocks(model: DichotomyModel, t: np.ndarray, s: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """_measure_pairs on every pair: near pairs _PAIR_BLOCK at a time, far pairs _FAR_BLOCK at a time.

    A pair is far by _measure_pairs' rule, t + omega past s for every omega,
    read at omega = -r, where t + omega is least.
    """
    measured = np.empty((5, t.size))
    far = _ahead(t[:, None] - model.r, s)[:, 0]
    for pairs, block in ((np.flatnonzero(~far), _PAIR_BLOCK), (np.flatnonzero(far), _FAR_BLOCK)):
        for i in range(0, pairs.size, block):
            blk = pairs[i : i + block]
            measured[:, blk] = _measure_pairs(model, t[blk], s[blk], probes)
    return measured


def verify_bounds(
    model: DichotomyModel,
    window: tuple[float, float],
    samples: int = 200,
    *,
    seed: int = 0,
    tol: float = 5e-2,
    m: int = 48,
) -> DichotomyCertificate:
    """Measure all five bound families on random time pairs in the window.

    Pairs s <= t are measured as arrays; the two unstable families use them
    with the times swapped.  Pairs a delay or more apart, most of a wide
    window's, are measured from the probes' endpoints and the flow's peak,
    _FAR_BLOCK at a time; only closer pairs evolve whole probe segments,
    _PAIR_BLOCK at a time (_measure_blocks).  Failures are recorded
    in the certificate, never raised.  The diagonal closed forms are what
    make this affordable: sampling windows of +-10 sit far outside what
    step-by-step integration covers in reasonable time.  The three segment
    families probe a finite family and so measure lower bounds; the two
    projected-jump families probe the unit vectors, which is exact for
    diagonal kernels (see _measure_pairs).
    """
    lo, hi = window
    rng = np.random.default_rng(seed)
    mu = model.mu
    D = derived_constant_D(model)
    probes = _probe_segments(model, m, rng)
    rng.normal(size=(3, model.n))  # keeps the stream, so time pairs and recorded reports stay as they were
    s, t = np.sort(rng.uniform(lo, hi, size=(samples, 2)), axis=1).T
    measured = _measure_blocks(model, t, s, probes)

    mu_s, mu_t = np.asarray(mu.eval(s), dtype=float), np.asarray(mu.eval(t), dtype=float)
    fwd, bwd = mu_t / mu_s, mu_s / mu_t

    def weight(at, exponent):
        return np.asarray(mu_weight(mu, at, -exponent), dtype=float)

    families = (  # name, the row's two times, bound
        ("stable", t, s, model.K * fwd ** (-model.alpha) * weight(s, model.theta)),
        ("unstable", s, t, model.K * bwd**model.beta * weight(t, model.nu)),
        ("bounded_growth", t, s, model.K_tilde * fwd**model.a * weight(s, model.eps)),
        ("jump_stable", t, s, D * fwd ** (-model.alpha) * weight(s, model.theta + model.eps)),
        ("jump_unstable", s, t, D * bwd**model.beta * weight(t, model.nu + model.eps)),
    )
    checks = []
    for (name, first, second, bound), meas in zip(families, measured):
        ratios = meas / bound
        worst = int(np.argmax(ratios))
        checks.append(
            BoundCheck(
                name=name,
                worst_ratio=float(ratios[worst]),
                argmax_pair=(float(first[worst]), float(second[worst])),
                passed=bool(ratios[worst] <= 1.0 + tol),
                samples=np.column_stack([first, second, meas, bound, ratios]),
            )
        )
    return DichotomyCertificate(window=(float(lo), float(hi)), checks=tuple(checks), tolerance=tol)
