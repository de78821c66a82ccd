import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mu_lab.errors import NonPositiveDelay
from mu_lab.growth_rate import GrowthRate, builtin_catalogue, mu_weight, rate_by_id, ratio_bound_N

DENSE = np.linspace(-50.0, 50.0, 20001)


def verify_property_H(g: GrowthRate, r: float, grid, N: float) -> bool:
    """True iff mu(s+r)/mu(s) <= N (up to 1e-12 slack) for every s in grid."""
    if N <= 1:
        raise ValueError(f"ratio bound N must exceed 1, got {N}")
    if r <= 0:
        raise NonPositiveDelay(f"delay must be positive, got {r}")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("empty grid for property check")
    ratios = g.eval(grid + r) / g.eval(grid)
    return bool(np.all(ratios <= N * (1.0 + 1e-12)))


def verify_growth_rate(g: GrowthRate, grid, fd_step: float = 1e-7) -> list[str]:
    """Check the defining invariants on a grid; returns a list of violations.

    fd_step is small enough that the one-sided curvature mismatch of the
    piecewise rates at t = 0 stays below the 1e-6 relative tolerance on the
    central difference.
    """
    grid = np.sort(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ValueError("empty grid for invariant check")
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


@pytest.fixture(scope="module")
def catalogue():
    return builtin_catalogue()


def test_catalogue_ids_and_order(catalogue):
    assert [g.label for g in catalogue] == ["exp", "poly", "log"]
    for g in catalogue:
        assert rate_by_id(g.label).label == g.label
    with pytest.raises(KeyError):
        rate_by_id("nope")


def test_catalogue_invariants(catalogue):
    grid = np.linspace(-30.0, 30.0, 4001)
    for g in catalogue:
        assert verify_growth_rate(g, grid) == []


def test_point_values(catalogue):
    poly, log = catalogue[1], catalogue[2]
    assert poly.eval(1.0) == pytest.approx(2.0, abs=1e-14)
    assert poly.eval(-1.0) == pytest.approx(0.5, abs=1e-14)
    assert log.eval(0.0) == pytest.approx(1.0, abs=1e-14)


def test_limits_proxy(catalogue):
    # weak proxy for mu -> 0 / mu -> inf; the logarithmic rate decays so
    # slowly that the 1e-1 threshold needs a far longer horizon
    horizons = {"exp": -50.0, "poly": -50.0, "log": -1e6}
    for g in catalogue:
        assert g.eval(horizons[g.label]) < 1e-1
        assert g.eval(-50.0) < 1.0 < g.eval(50.0)


def test_ratio_bound_exponential(catalogue):
    g = catalogue[0]
    assert ratio_bound_N(g, 1.0) == pytest.approx(np.e, rel=1e-12)


def test_ratio_bound_poly(catalogue):
    g = catalogue[1]
    assert ratio_bound_N(g, 2.0) == pytest.approx(4.0, rel=1e-12)


def test_ratio_bound_log(catalogue):
    g = catalogue[2]
    expected = np.log(np.e + 0.5) ** 2  # evaluate ln(e + r/2), then square
    assert ratio_bound_N(g, 1.0) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_scanned_sup_below_closed_form(catalogue, r):
    for g in catalogue:
        ratios = g.eval(DENSE + r) / g.eval(DENSE)
        assert np.max(ratios) <= g.closed_form_N(r) + 1e-9


def test_property_H_exponential(catalogue):
    g = catalogue[0]
    assert verify_property_H(g, 1.0, DENSE, np.e)
    assert not verify_property_H(g, 1.0, DENSE, 2.0)


def test_property_H_poly_sup_inside_middle_branch(catalogue):
    g = catalogue[1]
    r = 2.0
    grid = np.linspace(-10.0, 10.0, 40001)
    assert verify_property_H(g, r, grid, 4.0)
    # brute-force argmax of the ratio lands at s = -r/2, inside [-r, 0]
    ratios = g.eval(grid + r) / g.eval(grid)
    argmax = grid[np.argmax(ratios)]
    assert -r <= argmax <= 0
    assert argmax == pytest.approx(-r / 2.0, abs=1e-3)


def test_seam_smoothness(catalogue):
    h = 1e-7
    for g in catalogue:
        left = (g.eval(0.0) - g.eval(-h)) / h
        right = (g.eval(h) - g.eval(0.0)) / h
        assert abs(left - right) / max(abs(right), 1e-300) < 1e-6


def test_errors(catalogue):
    g = catalogue[0]
    with pytest.raises(NonPositiveDelay):
        ratio_bound_N(g, 0.0)
    with pytest.raises(NonPositiveDelay):
        ratio_bound_N(g, -1.0)
    with pytest.raises(ValueError):
        verify_property_H(g, 1.0, DENSE, 1.0)


def test_inverse_closed_forms(catalogue):
    ts = np.linspace(-20.0, 20.0, 401)
    for g in catalogue:
        back = g.inverse(g.eval(ts))
        assert np.allclose(back, ts, atol=1e-9)


def test_mu_weight_sign_convention(catalogue):
    g = catalogue[0]
    assert mu_weight(g, 0.0, 0.7) == pytest.approx(1.0, abs=1e-15)
    assert mu_weight(g, 1.0, 0.7) == pytest.approx(np.exp(-0.7), rel=1e-12)
    assert mu_weight(g, -1.0, 0.7) == pytest.approx(np.exp(-0.7), rel=1e-12)


@given(r=st.floats(min_value=0.1, max_value=3.0))
@settings(max_examples=60, deadline=None)
def test_ratio_bound_dominates_every_sample(r):
    grid = np.linspace(-25.0, 25.0, 2001)
    for g in builtin_catalogue():
        N = ratio_bound_N(g, r)
        assert N > 1.0
        assert verify_property_H(g, r, grid, N)


@given(s=st.floats(min_value=-40.0, max_value=40.0), d=st.floats(min_value=1e-3, max_value=5.0))
@settings(max_examples=100, deadline=None)
def test_strict_monotonicity_random_pairs(s, d):
    for g in builtin_catalogue():
        assert g.eval(s) < g.eval(s + d)


def _piecewise(seam, right, left):
    def rate(t):
        t = np.asarray(t, dtype=float)
        return np.piecewise(t, [t >= seam], [right, left])

    return rate


def _log_inverse_oracle(u):
    with np.errstate(over="ignore"):
        return _piecewise(1.0, lambda x: np.exp(x) - np.e, lambda x: np.e - np.exp(1.0 / x))(u)


# the poly and log callables as np.piecewise computes them: each branch on its own entries
PIECEWISE_ORACLES = {
    ("poly", "eval"): _piecewise(0.0, lambda x: x + 1.0, lambda x: 1.0 / (1.0 - x)),
    ("poly", "deriv"): _piecewise(0.0, lambda x: np.ones_like(x), lambda x: 1.0 / (1.0 - x) ** 2),
    ("poly", "inverse"): _piecewise(1.0, lambda x: x - 1.0, lambda x: 1.0 - 1.0 / x),
    ("log", "eval"): _piecewise(0.0, lambda x: np.log(x + np.e), lambda x: 1.0 / np.log(np.e - x)),
    ("log", "deriv"): _piecewise(
        0.0, lambda x: 1.0 / (x + np.e), lambda x: 1.0 / ((np.e - x) * np.log(np.e - x) ** 2)
    ),
    ("log", "inverse"): _log_inverse_oracle,
}

# signed zeros, NaN, infinities, subnormals and the floats at and beside both seams (t = 0 and u = mu(0) = 1)
_SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
            1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), -1.0, np.e, -np.e, 1e300, -1e300]
_float = st.one_of(st.sampled_from(_SPECIAL), st.floats(-60.0, 60.0), st.floats(allow_nan=True, allow_infinity=True))
_rate_inputs = st.one_of(
    _float,  # a Python float
    _float.map(np.array),  # a 0-d array
    st.lists(_float, max_size=12).map(np.array),
    st.lists(_float, min_size=2, max_size=12).map(lambda xs: np.array(xs)[1:]),  # a view one entry in
    st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda shape: st.lists(_float, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]).map(
            lambda xs: np.array(xs).reshape(shape)
        )
    ),
    st.lists(_float, min_size=6, max_size=6).map(lambda xs: np.array(xs).reshape(2, 3).T),  # not contiguous
)


def _with_warnings(fn, x):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(x)
    return out, [(w.category, str(w.message)) for w in caught]


@given(x=_rate_inputs)
@settings(max_examples=300, deadline=None)
def test_rates_match_np_piecewise_bit_for_bit(x):
    # each callable is np.piecewise's result, bytes, type and shape, with the
    # same warnings: none at the seams, signed zeros, NaN or infinities of t,
    # only the inverses' division by a zero or subnormal u and the
    # derivatives' overflow at t below about -1e154
    for (label, name), oracle in PIECEWISE_ORACLES.items():
        got, got_warned = _with_warnings(getattr(rate_by_id(label), name), x)
        want, want_warned = _with_warnings(oracle, x)
        assert type(got) is type(want) is np.ndarray
        assert got.shape == want.shape == np.shape(x) and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert got_warned == want_warned
