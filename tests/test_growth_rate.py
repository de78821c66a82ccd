import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mu_lab.errors import NonPositiveDelay
from mu_lab.growth_rate import (
    builtin_catalogue,
    mu_weight,
    rate_by_id,
    ratio_bound_N,
    verify_growth_rate,
    verify_property_H,
)

DENSE = np.linspace(-50.0, 50.0, 20001)


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
