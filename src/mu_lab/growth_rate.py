"""Growth rates: strictly increasing positive weights generalizing e^t.

A rate mu has mu(0) = 1, tends to 0 at -inf and to +inf at +inf.  The
delay-compatibility constant N(r) bounds mu(s + r) / mu(s) uniformly in s;
every rate carries its closed form, plus a closed-form inverse used by the
change-of-variable quadratures elsewhere.

The poly and log rates have two branches, split at t = 0 (at u = 1 for
the inverses).  Their callables evaluate each branch on its own entries
only (_split), exactly as np.piecewise does, so the bits and the
floating-point warnings are np.piecewise's, without its Python overhead
of some 20 us a call; a rate is called a few hundred times per solve,
mostly on small arrays or single times.  No branch sees the other side's
entries: 1/(1 - t) at t = 1 and log(e - t) past e would warn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonPositiveDelay


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


def mu_weight(g: GrowthRate, t: float, exponent: float) -> float:
    """mu(t)^(-sgn(t) * exponent) with sgn(0) = 0, so the weight at 0 is 1."""
    s = np.sign(t)
    return np.asarray(g.eval(t)) ** (-s * exponent)


def ratio_bound_N(g: GrowthRate, r: float) -> float:
    """sup_s mu(s+r)/mu(s), from the rate's closed form; every catalogued rate attains it at s = -r/2."""
    if r <= 0:
        raise NonPositiveDelay(f"delay must be positive, got {r}")
    return float(g.closed_form_N(r))


def _exp_rate() -> GrowthRate:
    return GrowthRate(
        label="exp",
        eval=np.exp,
        deriv=np.exp,
        closed_form_N=lambda r: float(np.exp(r)),
        inverse=np.log,
    )


def _split(t, seam: float, right, left) -> np.ndarray:
    """right(t) where t >= seam, left(t) elsewhere (NaN too): np.piecewise(t, [t >= seam], [right, left]).

    As in np.piecewise, each branch sees only its own entries, as one
    contiguous 1-D array, so the values and the floating-point warnings are
    the same bit for bit; what goes is np.piecewise's per-call overhead.
    An array on one side of the seam goes to its branch whole, and 0-d t
    (a 0-d array is returned) skips the masks.
    """
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        one = t.reshape(1)
        return (right if one[0] >= seam else left)(one).reshape(())
    upper = t >= seam
    count = np.count_nonzero(upper)
    if count == t.size or count == 0:
        return (right if count else left)(t.ravel()).reshape(t.shape)
    out = np.empty(t.shape)
    out[upper] = right(t[upper])
    lower = ~upper
    out[lower] = left(t[lower])
    return out


def _poly_rate() -> GrowthRate:
    # t + 1 on the right half line, 1/(1 - t) on the left; C^1 across 0.
    def ev(t):
        return _split(t, 0.0, lambda x: x + 1.0, lambda x: 1.0 / (1.0 - x))

    def dv(t):
        return _split(t, 0.0, np.ones_like, lambda x: 1.0 / (1.0 - x) ** 2)

    def inv(u):
        return _split(u, 1.0, lambda x: x - 1.0, lambda x: 1.0 - 1.0 / x)

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
        return _split(t, 0.0, lambda x: np.log(x + np.e), lambda x: 1.0 / np.log(np.e - x))

    def dv(t):
        return _split(t, 0.0, lambda x: 1.0 / (x + np.e), lambda x: 1.0 / ((np.e - x) * np.log(np.e - x) ** 2))

    def inv(u):
        # small u maps to times near -exp(1/u); past ~1/709 that overflows
        # to -inf, the honest signal that the horizon is unrepresentable
        with np.errstate(over="ignore"):
            return _split(u, 1.0, lambda x: np.exp(x) - np.e, lambda x: np.e - np.exp(1.0 / x))

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
