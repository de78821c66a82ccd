"""Method-of-steps integration of a diagonal model, optionally perturbed.

The right-hand side of x_i'(t) = coeff_i(t) x_i(t) [+ g(t, x_t)] takes the
linear part from the model's vectorized coefficients; the delay enters only
through the perturbation's point reads, which see history through
piecewise-linear interpolation.  The step is forced to divide the delay so
that the derivative-discontinuity points s, s+r, s+2r, ... of the solution
sit exactly on the integration grid; between them the classical RK4 order
is preserved.  Jump initial data keeps exact semantics: reads strictly left
of the start time are zero, the read at the start time itself returns the
jump vector, and no interpolation ever blends across the start.  This
integrator is the scalar reference that the closed-form kernels and the
batched residual lattice are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .admissibility import ParamSet
from .errors import NonFiniteState, StepMisaligned, TimeOrder
from .phase_space import JumpSegment, Segment, interpolate

History = Union[Segment, JumpSegment]


@dataclass(frozen=True)
class Trajectory:
    """Dense output of one integration, with segment views."""

    s: float
    t_end: float
    r: float
    step: float
    times: np.ndarray  # integration grid from s to t_end
    states: np.ndarray  # shape (len(times), n)
    history: History

    @property
    def n(self) -> int:
        return self.states.shape[1]

    def state_at(self, t: float) -> np.ndarray:
        if t > self.t_end + 1e-9 or t < self.s - self.r - 1e-9:
            raise TimeOrder(f"time {t} outside [{self.s - self.r}, {self.t_end}]")
        return _read(self.history, self.s, self.times, self.states, t)

    def segment_at(self, t: float) -> Segment:
        m = int(round(self.r / self.step))
        grid = t + np.linspace(-self.r, 0.0, m + 1)
        vals = np.array([self.state_at(tau) for tau in grid])
        return Segment(self.r, vals)


def _read(history: History, s: float, times: np.ndarray, states: np.ndarray, t: float) -> np.ndarray:
    """Value of the solution (or its history) at time t, jump-exact at s."""
    if t < s - 1e-12:
        if isinstance(history, JumpSegment):
            return np.zeros(history.n)
        return interpolate(history, max(-history.r, t - s))
    if abs(t - s) <= 1e-12:
        if isinstance(history, JumpSegment):
            return history.jump.copy()
        return history.values[-1].copy()
    # forward region: linear interpolation on the computed grid
    idx = int(np.searchsorted(times, t))
    if idx >= len(times):
        return states[-1].copy()
    if idx == 0:
        return states[0].copy()
    t0, t1 = times[idx - 1], times[idx]
    w = (t - t0) / (t1 - t0)
    return (1.0 - w) * states[idx - 1] + w * states[idx]


def _check_step(r: float, step: float) -> int:
    if step <= 0:
        raise StepMisaligned(f"step must be positive, got {step}")
    ratio = r / step
    if abs(ratio - round(ratio)) > 1e-12 * max(1.0, ratio):
        raise StepMisaligned(f"step {step} does not divide the delay {r}")
    return int(round(ratio))


def _integrate(
    model,
    s: float,
    phi: History,
    t_end: float,
    step: float,
    pert: Optional[Perturbation] = None,
) -> Trajectory:
    """RK4 method of steps for a DichotomyModel, duck-typed (r, n and coeff) as dichotomy imports this module."""
    if t_end < s:
        raise TimeOrder(f"t_end {t_end} earlier than start {s}")
    m_seg = _check_step(model.r, step)
    if isinstance(phi, JumpSegment):
        x0 = phi.jump.astype(float).copy()
    else:
        x0 = phi.values[-1].astype(float).copy()
    # a partial first step absorbs any misalignment of t_end with the step
    # grid, so the closing segment reads its samples at exact grid times
    span = t_end - s
    n_full = int(np.floor(span / step + 1e-12))
    rem = span - n_full * step
    if rem < 1e-12 * max(1.0, abs(span)):
        times = s + step * np.arange(n_full + 1)
    else:
        times = np.concatenate([[s], s + rem + step * np.arange(n_full + 1)])
    n_steps = len(times) - 1
    states = np.empty((n_steps + 1, model.n))
    states[0] = x0

    seg_offsets = np.linspace(-model.r, 0.0, m_seg + 1)
    # sampled history prepended to the computed grid; the duplicated start
    # abscissa makes np.interp return the jump value at s and zero below it
    if isinstance(phi, JumpSegment):
        hist_t = s + np.linspace(-phi.r, 0.0, phi.m + 1)
        hist_x = np.zeros((phi.m + 1, model.n))
    else:
        hist_t = s + phi.omega_grid
        hist_x = phi.values
    n_hist = len(hist_t)
    known_t = np.concatenate([hist_t, times])
    known_x = np.empty((n_hist + len(times), model.n))
    known_x[:n_hist] = hist_x
    known_x[n_hist] = states[0]

    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps):
            t = times[i]
            h = times[i + 1] - times[i]
            y = states[i]
            kt = known_t[: n_hist + i + 1]
            kx = known_x[: n_hist + i + 1]

            def rhs(tt: float, yy: np.ndarray) -> np.ndarray:
                out = model.coeff(tt) * yy
                if pert is not None:
                    q = tt + seg_offsets
                    vals = np.empty((m_seg + 1, model.n))
                    for c in range(model.n):
                        vals[:, c] = np.interp(q, kt, kx[:, c])
                    vals[-1] = yy
                    out = out + np.asarray(pert.g(tt, Segment(model.r, vals)), dtype=float)
                return out

            k1 = rhs(t, y)
            k2 = rhs(t + h / 2.0, y + h / 2.0 * k1)
            k3 = rhs(t + h / 2.0, y + h / 2.0 * k2)
            k4 = rhs(t + h, y + h * k3)
            states[i + 1] = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            known_x[n_hist + i + 1] = states[i + 1]
            if not np.all(np.isfinite(states[i + 1])):
                raise NonFiniteState(f"state blew up at t = {times[i + 1]}")
    return Trajectory(s=s, t_end=max(t_end, s), r=model.r, step=step, times=times, states=states, history=phi)


def solve_linear(model, s: float, phi: History, t_end: float, step: float) -> Trajectory:
    """Integrate x_i'(t) = coeff_i(t) x_i(t) from the segment (or jump data) phi."""
    return _integrate(model, s, phi, t_end, step)


def solve_perturbed(model, pert: Perturbation, s: float, phi: History, t_end: float, step: float) -> Trajectory:
    """Integrate x_i'(t) = coeff_i(t) x_i(t) + g_i(t, x_t); g sees interpolated segments."""
    return _integrate(model, s, phi, t_end, step, pert=pert)


def solution_op_T(model, t: float, s: float, phi: Segment, step: Optional[float] = None) -> Segment:
    """Segment view of the linear solution at time t; identity at t = s."""
    if t < s:
        raise TimeOrder(f"t={t} earlier than s={s}")
    if t == s:
        return phi
    step = step if step is not None else model.r / 64
    return solve_linear(model, s, phi, t, step).segment_at(t)


def fundamental_jump(model, t: float, s: float, p, step: Optional[float] = None, m: int = 64):
    """Evolve jump data p at time s to the segment at time t.

    Returns the JumpSegment itself at t = s; a Segment for t > s (continuous
    once t >= s + r).
    """
    if t < s:
        raise TimeOrder(f"t={t} earlier than s={s}")
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if t == s:
        return JumpSegment(model.r, p, m)
    step = step if step is not None else model.r / m
    return solve_linear(model, s, JumpSegment(model.r, p, m), t, step).segment_at(t)


def solve_perturbed_R(
    model, pert: Perturbation, t: float, s: float, phi: Segment, step: Optional[float] = None
) -> Segment:
    """Segment of the perturbed solution at t; reduces to T(t,s) for g = 0."""
    if t < s:
        raise TimeOrder(f"t={t} earlier than s={s}")
    if t == s:
        return phi
    step = step if step is not None else model.r / 64
    return solve_perturbed(model, pert, s, phi, t, step).segment_at(t)


# ---------------------------------------------------------------------------
# perturbations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Perturbation:
    """Nonlinear term g(t, x_t) that reads a few lagged point values of the segment.

    The scalar prefactor `weight(t)` carries the whole time envelope; the
    value map and its directional derivative (jvp_map(W, V), the Jacobian
    at the reads W applied to the read directions V) take the read axis
    first and return the component axis first, vectorized over trailing
    batch axes, so the correction-field solver maps whole read-major
    quadrature blocks.  The cross couplings store reads[i] as the read that
    drives component i, so their maps are slot-wise.  The orbit integrals
    are truncated against the envelope's decay margin and honest amplitude.
    """

    reads: tuple[tuple[int, float], ...]  # (coordinate, lag)
    weight: Callable[[np.ndarray], np.ndarray]
    value_map: Callable[[np.ndarray], np.ndarray]  # (k, ...) -> (n, ...)
    jvp_map: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (k, ...), (k, ...) -> (n, ...)
    n: int
    gamma: float  # decay margin of the envelope
    envelope_scale: float  # honest amplitude of the envelope
    label: str = ""

    @classmethod
    def zero(cls, n: int) -> "Perturbation":
        """g = 0: no reads and no envelope."""
        zeros = lambda W, V=None: np.zeros((n,) + np.shape(W)[1:])  # noqa: E731
        return cls((), lambda ts: np.ones(np.shape(ts)), zeros, zeros, n, gamma=1.0, envelope_scale=0.0, label="zero")

    def _read_vector(self, seg: Segment) -> np.ndarray:
        return np.array([seg.value_at(-lag)[coord] for coord, lag in self.reads])

    def g(self, t: float, seg: Segment) -> np.ndarray:
        w = self._read_vector(seg)
        return float(self.weight(np.asarray(t))) * np.asarray(self.value_map(w), dtype=float)

    def d2g(self, t: float, seg: Segment):
        """The derivative in the segment slot, as a callable on direction segments."""
        w = self._read_vector(seg)
        scale = float(self.weight(np.asarray(t)))

        def apply(chi: Segment) -> np.ndarray:
            return scale * np.asarray(self.jvp_map(w, self._read_vector(chi)), dtype=float)

        return apply


def _saturator(u: np.ndarray) -> np.ndarray:
    # value in [0, 1/2], slope bounded by 0.65, curvature bounded by 1;
    # u*u / (2 (1 + u*u)) with u*u formed once and the rest in place
    uu = u * u
    d = 1.0 + uu
    d *= 2.0
    uu /= d
    return uu


def _saturator_slope(u: np.ndarray) -> np.ndarray:
    # u / (1 + u*u)**2, in place
    d = u * u
    d += 1.0
    d *= d
    return np.divide(u, d, out=d)


def _cross_coupling(mu, params, reads, n: int, scale: float, expo: float, value_map, jvp_map, label: str):
    """Cross coupling under the weight scale mu'(t) mu(t)^(-sgn(t) expo - 1).

    Its reads are the scenario's shifted one slot: scenario read i+1
    (cyclically) is reads[i], the read that drives component i.
    """
    reads = tuple((int(c), float(l)) for c, l in reads)
    if len(reads) != n:
        raise ValueError("cyclic cross coupling needs one read per coordinate")

    def weight(ts):
        ts = np.asarray(ts, dtype=float)
        vals = np.asarray(mu.eval(ts), dtype=float)
        derivs = np.asarray(mu.deriv(ts), dtype=float)
        return scale * derivs * vals ** (-np.sign(ts) * expo - 1.0)

    return Perturbation(reads[1:] + reads[:1], weight, value_map, jvp_map, n, params.gamma, scale, label)


def saturating_cross_perturbation(mu, params: ParamSet, reads, n: int) -> Perturbation:
    """Cross-coupled saturating nonlinearity honoring both declared envelopes.

    Component i saturates the read of scenario slot i+1 (cyclically), its
    reads[i].  The prefactor mu'(t) mu(t)^(-sgn(t)(gamma + 2 eps + 3 xi) - 1)
    times min(delta, lam) makes the value envelope hold with constant delta
    and the derivative envelope with constant lam: the extra mu-power pays
    for the weighted norm inside the min-terms, and the saturator family
    has unit Lipschitz budget for both the value and the slope.
    """
    c0 = min(params.delta, params.lam)
    expo = params.gamma + 2.0 * params.eps + 3.0 * params.xi
    jvp_map = lambda W, V: _saturator_slope(W) * V  # noqa: E731
    return _cross_coupling(mu, params, reads, n, c0, expo, _saturator, jvp_map, "saturating_cross")


def linear_cross_perturbation(mu, params: ParamSet, reads, n: int, gain: float) -> Perturbation:
    """Unsaturated cross coupling; deliberately ignores the min-cap envelope.

    Negative-control material: its raw gain can be driven past the
    contraction threshold of the correction-field operator while the
    declared envelope constants stay whatever the scenario claims.
    Component i is the read of scenario slot i+1 (cyclically), its reads[i].
    """
    expo = params.gamma + params.eps
    return _cross_coupling(mu, params, reads, n, gain, expo, lambda W: W, lambda W, V: V, "linear_cross")
