"""Scalar admissibility checks for the dichotomy and conjugacy hypotheses.

Everything here is plain arithmetic over a parameter set: the three core
exponent inequalities, the envelope-decay floor on gamma, the open window
for the weight exponent xi, and the ceilings on the two perturbation
Lipschitz scales delta and lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import EmptyWindow, XiOutOfWindow


@dataclass(frozen=True)
class ParamSet:
    """Dimensionless exponents, ceilings, and model constants in one record."""

    alpha: float
    beta: float
    theta: float
    nu: float
    eps: float
    a: float
    gamma: float
    xi: float
    delta: float
    lam: float
    q: float
    K: float
    K_tilde: float
    N: float
    D: float

    def __post_init__(self):
        positive = {
            "alpha": self.alpha,
            "beta": self.beta,
            "q": self.q,
            "delta": self.delta,
            "lam": self.lam,
            "K": self.K,
            "K_tilde": self.K_tilde,
            "N": self.N,
            "D": self.D,
        }
        for name, value in positive.items():
            if not value > 0:
                raise ValueError(f"{name} must be strictly positive, got {value}")
        nonnegative = {"theta": self.theta, "nu": self.nu, "eps": self.eps, "a": self.a}
        for name, value in nonnegative.items():
            if value < 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")

    def with_(self, **kw) -> "ParamSet":
        return replace(self, **kw)


@dataclass(frozen=True)
class CheckEntry:
    name: str
    lhs: float
    rhs: float
    passed: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "pass": self.passed}


@dataclass(frozen=True)
class AdmissibilityReport:
    entries: tuple[CheckEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def entry(self, name: str) -> CheckEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"entries": [e.to_dict() for e in self.entries], "pass": self.passed}


def check_core(p: ParamSet) -> AdmissibilityReport:
    """The three exponent inequalities tying nonuniformity to the rates."""
    entries = (
        CheckEntry("nonuniformity_floor", p.theta, p.eps + p.nu, p.theta >= p.eps + p.nu),
        CheckEntry("stable_rate_gap", p.alpha, p.theta + p.eps, p.alpha > p.theta + p.eps),
        CheckEntry("unstable_rate_gap", p.beta, p.nu + p.eps, p.beta > p.nu + p.eps),
    )
    return AdmissibilityReport(entries)


def xi_window(p: ParamSet) -> tuple[float, float]:
    """Open window (lo, hi) admissible for the weight exponent xi."""
    lo = max(p.nu + p.eps, abs(p.a - p.beta) + p.eps)
    hi = (p.alpha + p.beta) / 2.0
    if lo >= hi:
        raise EmptyWindow(f"empty xi window: lo={lo} >= hi={hi}")
    return lo, hi


def delta_ceiling(p: ParamSet) -> float:
    """Largest admissible Lipschitz scale for the nonlinearity itself."""
    return p.q * p.alpha * p.beta / (p.D * (p.alpha + p.beta) * (1.0 + p.q) ** 2)


def lambda_ceiling(p: ParamSet) -> float:
    """Largest admissible Lipschitz scale for the derivative of the nonlinearity."""
    lo, hi = xi_window(p)
    if not lo < p.xi < hi:
        raise XiOutOfWindow(f"xi={p.xi} outside open window ({lo}, {hi})")
    gap = p.alpha + p.beta - 2.0 * p.xi
    quad = (p.xi - p.eps) ** 2 - (p.a - p.beta) ** 2
    num = p.q**2 * gap * quad
    den = p.D * (p.D * quad + 4.0 * p.xi * p.K_tilde * gap) * (1.0 + p.q) ** 3
    return num / den


def full_report(p: ParamSet) -> AdmissibilityReport:
    """Every scalar hypothesis in one report; never raises."""
    entries = list(check_core(p).entries)
    entries.append(
        CheckEntry("envelope_decay", p.gamma, max(p.theta, p.nu), p.gamma > max(p.theta, p.nu))
    )
    try:
        lo, hi = xi_window(p)
        entries.append(CheckEntry("xi_above_floor", p.xi, lo, p.xi > lo))
        entries.append(CheckEntry("xi_below_cap", p.xi, hi, p.xi < hi))
        window_ok = lo < p.xi < hi
    except EmptyWindow:
        entries.append(CheckEntry("xi_above_floor", p.xi, float("nan"), False))
        entries.append(CheckEntry("xi_below_cap", p.xi, float("nan"), False))
        window_ok = False
    entries.append(CheckEntry("delta_ceiling", p.delta, delta_ceiling(p), p.delta <= delta_ceiling(p)))
    if window_ok:
        ceil = lambda_ceiling(p)
        entries.append(CheckEntry("lambda_ceiling", p.lam, ceil, p.lam <= ceil))
    else:
        entries.append(CheckEntry("lambda_ceiling", p.lam, float("nan"), False))
    return AdmissibilityReport(tuple(entries))


def default_xi(p: ParamSet) -> float:
    """Window midpoint, the default when a scenario leaves xi unspecified."""
    lo, hi = xi_window(p)
    return 0.5 * (lo + hi)
