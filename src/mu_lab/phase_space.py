"""Discretized phase space: segments on [-r, 0] and their norms.

A segment samples a continuous history on the uniform grid
omega_j = -r + j * r/m and is the value object every operator acts on.
Jump data (zero history with a vector attached at omega = 0) gets its own
type so interpolation can never smooth the discontinuity away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomain
from .growth_rate import GrowthRate, mu_weight

DEFAULT_RESOLUTION = 64


@dataclass(frozen=True)
class Segment:
    """A sampled element of C([-r, 0], R^n); values has shape (m+1, n)."""

    r: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] < 2:
            raise ValueError("segment values must be a (m+1, n) array with m >= 1")
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return self.values.shape[0] - 1

    @property
    def n(self) -> int:
        return self.values.shape[1]

    @property
    def omega_grid(self) -> np.ndarray:
        return np.linspace(-self.r, 0.0, self.m + 1)

    @classmethod
    def zeros(cls, r: float, n: int, m: int = DEFAULT_RESOLUTION) -> "Segment":
        return cls(r, np.zeros((m + 1, n)))

    @classmethod
    def constant(cls, r: float, vec, m: int = DEFAULT_RESOLUTION) -> "Segment":
        vec = np.atleast_1d(np.asarray(vec, dtype=float))
        return cls(r, np.tile(vec, (m + 1, 1)))

    @classmethod
    def from_function(cls, fn, r: float, n: int, m: int = DEFAULT_RESOLUTION) -> "Segment":
        grid = np.linspace(-r, 0.0, m + 1)
        vals = np.array([np.atleast_1d(fn(w)) for w in grid], dtype=float)
        if vals.shape != (m + 1, n):
            raise ValueError(f"function produced shape {vals.shape}, expected {(m + 1, n)}")
        return cls(r, vals)

    def value_at(self, omega: float) -> np.ndarray:
        return interpolate(self, omega)

    def __add__(self, other: "Segment") -> "Segment":
        self._check_compatible(other)
        return Segment(self.r, self.values + other.values)

    def __sub__(self, other: "Segment") -> "Segment":
        self._check_compatible(other)
        return Segment(self.r, self.values - other.values)

    def __mul__(self, c: float) -> "Segment":
        return Segment(self.r, self.values * float(c))

    __rmul__ = __mul__

    def _check_compatible(self, other: "Segment") -> None:
        if self.values.shape != other.values.shape or self.r != other.r:
            raise ValueError("segments live on different grids")


@dataclass(frozen=True)
class JumpSegment:
    """Zero on [-r, 0) with the vector `jump` attached at omega = 0."""

    r: float
    jump: np.ndarray
    m: int = DEFAULT_RESOLUTION

    def __post_init__(self):
        object.__setattr__(self, "jump", np.atleast_1d(np.asarray(self.jump, dtype=float)))

    @property
    def n(self) -> int:
        return self.jump.shape[0]

    def value_at(self, omega: float) -> np.ndarray:
        if omega < -self.r - 1e-12 or omega > 1e-12:
            raise OutOfDomain(f"omega {omega} outside [-r, 0]")
        if abs(omega) <= 1e-12:
            return self.jump.copy()
        return np.zeros(self.n)


def lag_index(r: float, m: int, lag: float) -> int:
    """Index of omega = -lag on the grid omega_j = -r + j r/m; the lag must sit on the grid."""
    j = (1.0 - lag / r) * m
    ji = int(round(j))
    if abs(j - ji) > 1e-9:
        raise OutOfDomain(f"lag {lag} is not grid-aligned for m={m}, r={r}")
    if not 0 <= ji <= m:
        raise OutOfDomain(f"lag {lag} outside [0, r={r}]")
    return ji


def sup_norm(seg) -> float:
    """Supremum norm: max over grid points of the max-norm of the entries."""
    if isinstance(seg, JumpSegment):
        return float(np.max(np.abs(seg.jump)))
    return float(np.max(np.abs(seg.values))) if seg.values.size else 0.0


def mu_norm(seg, t: float, g: GrowthRate, xi: float, eps: float) -> float:
    """Weighted norm at time t: sup_norm(seg) * mu(t)^(-sgn(t)(xi+eps))."""
    return sup_norm(seg) * float(mu_weight(g, t, xi + eps))


def interpolate(seg: Segment, omega: float) -> np.ndarray:
    """Piecewise-linear evaluation; exact at grid nodes."""
    if omega < -seg.r - 1e-12 or omega > 1e-12:
        raise OutOfDomain(f"omega {omega} outside [-{seg.r}, 0]")
    omega = min(0.0, max(-seg.r, omega))
    x = (omega + seg.r) / seg.r * seg.m
    j = int(np.floor(x))
    if j >= seg.m:
        return seg.values[seg.m].copy()
    w = x - j
    return (1.0 - w) * seg.values[j] + w * seg.values[j + 1]
