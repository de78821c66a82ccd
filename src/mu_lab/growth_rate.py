"""Growth rates: strictly increasing positive weights generalizing e^t.

A rate mu has mu(0) = 1, tends to 0 at -inf and to +inf at +inf.  The
delay-compatibility constant N(r) bounds mu(s + r) / mu(s) uniformly in s;
every rate carries its closed form, plus a closed-form inverse used by the
change-of-variable quadratures elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateGrid, NonPositiveDelay

ArrayLike = "float | np.ndarray"


@dataclass(frozen=True)
class GrowthRate:
    """A differentiable growth rate with its closed-form inverse.

    eval, deriv and inverse accept scalars or numpy arrays.  inverse is the
    functional inverse of eval, which the truncated improper integrals need.
    closed_form_N maps a delay r to the ratio bound N(r) > 1, the exact
    supremum of mu(s+r)/mu(s) over s.
    """

    label: str
    eval: Callable
    deriv: Callable
    inverse: Callable
    closed_form_N: Callable

    def __call__(self, t):
        return self.eval(t)


def mu_weight(g: GrowthRate, t: float, exponent: float) -> float:
    """mu(t)^(-sgn(t) * exponent) with sgn(0) = 0, so the weight at 0 is 1."""
    s = np.sign(t)
    return np.asarray(g.eval(t)) ** (-s * exponent)


def ratio_bound_N(g: GrowthRate, r: float) -> float:
    """sup_s mu(s+r)/mu(s), from the rate's closed form; every catalogued rate attains it at s = -r/2."""
    if r <= 0:
        raise NonPositiveDelay(f"delay must be positive, got {r}")
    return float(g.closed_form_N(r))


def verify_property_H(g: GrowthRate, r: float, grid, N: float) -> bool:
    """True iff mu(s+r)/mu(s) <= N (up to 1e-12 slack) for every s in grid."""
    if N <= 1:
        raise ValueError(f"ratio bound N must exceed 1, got {N}")
    if r <= 0:
        raise NonPositiveDelay(f"delay must be positive, got {r}")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DegenerateGrid("empty grid for property check")
    ratios = g.eval(grid + r) / g.eval(grid)
    return bool(np.all(ratios <= N * (1.0 + 1e-12)))


def _exp_rate() -> GrowthRate:
    return GrowthRate(
        label="exp",
        eval=np.exp,
        deriv=np.exp,
        closed_form_N=lambda r: float(np.exp(r)),
        inverse=np.log,
    )


def _poly_rate() -> GrowthRate:
    # t + 1 on the right half line, 1/(1 - t) on the left; C^1 across 0.
    def ev(t):
        t = np.asarray(t, dtype=float)
        return np.piecewise(t, [t >= 0], [lambda x: x + 1.0, lambda x: 1.0 / (1.0 - x)])

    def dv(t):
        t = np.asarray(t, dtype=float)
        return np.piecewise(t, [t >= 0], [lambda x: np.ones_like(x), lambda x: 1.0 / (1.0 - x) ** 2])

    def inv(u):
        u = np.asarray(u, dtype=float)
        return np.piecewise(u, [u >= 1], [lambda x: x - 1.0, lambda x: 1.0 - 1.0 / x])

    return GrowthRate(
        label="poly",
        eval=ev,
        deriv=dv,
        closed_form_N=lambda r: r * r / 4.0 + r + 1.0,
        inverse=inv,
    )


def _log_rate() -> GrowthRate:
    # ln(t + e) on the right, 1/ln(e - t) on the left; C^1 across 0.
    def ev(t):
        t = np.asarray(t, dtype=float)
        return np.piecewise(t, [t >= 0], [lambda x: np.log(x + np.e), lambda x: 1.0 / np.log(np.e - x)])

    def dv(t):
        t = np.asarray(t, dtype=float)
        return np.piecewise(
            t,
            [t >= 0],
            [lambda x: 1.0 / (x + np.e), lambda x: 1.0 / ((np.e - x) * np.log(np.e - x) ** 2)],
        )

    def inv(u):
        u = np.asarray(u, dtype=float)
        # small u maps to times near -exp(1/u); past ~1/709 that overflows
        # to -inf, the honest signal that the horizon is unrepresentable
        with np.errstate(over="ignore"):
            return np.piecewise(u, [u >= 1], [lambda x: np.exp(x) - np.e, lambda x: np.e - np.exp(1.0 / x)])

    return GrowthRate(
        label="log",
        eval=ev,
        deriv=dv,
        closed_form_N=lambda r: float(np.log(np.e + r / 2.0) ** 2),
        inverse=inv,
    )


def builtin_catalogue() -> list[GrowthRate]:
    """The three built-in rates: exponential, polynomial-type, logarithmic-type."""
    return [_exp_rate(), _poly_rate(), _log_rate()]


def rate_by_id(label: str) -> GrowthRate:
    for g in builtin_catalogue():
        if g.label == label:
            return g
    raise KeyError(f"unknown growth rate id {label!r}; known: exp, poly, log")


def verify_growth_rate(g: GrowthRate, grid, fd_step: float = 1e-7) -> list[str]:
    """Check the defining invariants on a grid; returns a list of violations.

    fd_step is small enough that the one-sided curvature mismatch of the
    piecewise rates at t = 0 stays below the 1e-6 relative tolerance on the
    central difference.
    """
    grid = np.sort(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise DegenerateGrid("empty grid for invariant check")
    problems: list[str] = []
    vals = np.asarray(g.eval(grid), dtype=float)
    if np.any(vals <= 0):
        problems.append("mu must be positive on the grid")
    if np.any(np.diff(vals) <= 0):
        problems.append("mu must be strictly increasing on the grid")
    if abs(float(g.eval(0.0)) - 1.0) > 1e-12:
        problems.append(f"mu(0) = {float(g.eval(0.0))!r} differs from 1 beyond 1e-12")
    fd = (np.asarray(g.eval(grid + fd_step)) - np.asarray(g.eval(grid - fd_step))) / (2 * fd_step)
    dv = np.asarray(g.deriv(grid), dtype=float)
    rel = np.abs(fd - dv) / np.maximum(np.abs(dv), 1e-300)
    if np.any(rel > 1e-6):
        worst = grid[int(np.argmax(rel))]
        problems.append(f"derivative mismatch vs central difference at t={worst}")
    return problems
