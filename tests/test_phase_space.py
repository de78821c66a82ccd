import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mu_lab.errors import OutOfDomain
from mu_lab.growth_rate import rate_by_id
from mu_lab.phase_space import JumpSegment, Segment, interpolate, lag_index, mu_norm, sup_norm


def test_sup_norm_zero_and_constant():
    z = Segment.zeros(1.0, 2, 10)
    assert sup_norm(z) == 0.0
    c = Segment.constant(1.0, [3.0, -4.0], 10)
    assert sup_norm(c) == 4.0


def test_sup_norm_linear_sampled():
    seg = Segment.from_function(lambda w: [w], 1.0, 1, 100)
    assert sup_norm(seg) == pytest.approx(1.0)  # attained at omega = -1


def test_sup_norm_zero_iff_zero():
    seg = Segment.zeros(0.5, 1, 8)
    assert sup_norm(seg) == 0.0
    bumped = Segment(0.5, seg.values.copy())
    bumped.values[3, 0] = 1e-9
    assert sup_norm(bumped) > 0.0


def test_mu_norm_at_zero_equals_sup():
    g = rate_by_id("exp")
    seg = Segment.constant(1.0, [2.0, 1.0], 16)
    assert mu_norm(seg, 0.0, g, 0.6, 0.1) == pytest.approx(sup_norm(seg))


@pytest.mark.parametrize("t", [1.0, -1.0])
def test_mu_norm_unit_segment_exponential(t):
    # brute-force substitution: weight is mu(t)^(-sgn(t)(xi+eps))
    g = rate_by_id("exp")
    seg = Segment.constant(1.0, [1.0], 16)
    expected = float(np.exp(t) ** (-np.sign(t) * 0.7))
    assert expected == pytest.approx(np.exp(-0.7))
    assert mu_norm(seg, t, g, 0.6, 0.1) == pytest.approx(expected, rel=1e-12)


@given(c=st.floats(min_value=-1e3, max_value=1e3))
@settings(max_examples=100, deadline=None)
def test_mu_norm_scales_linearly(c):
    g = rate_by_id("poly")
    seg = Segment.from_function(lambda w: [np.sin(3 * w), np.cos(w)], 1.0, 2, 32)
    assert mu_norm(c * seg, 2.0, g, 0.6, 0.1) == pytest.approx(
        abs(c) * mu_norm(seg, 2.0, g, 0.6, 0.1), rel=1e-9, abs=1e-12
    )


def test_interpolate_exact_at_nodes():
    seg = Segment.from_function(lambda w: [w * w, w], 1.0, 2, 8)
    for j, w in enumerate(seg.omega_grid):
        assert np.allclose(interpolate(seg, w), seg.values[j], atol=1e-14)


def test_interpolate_midpoint_of_equal_neighbors():
    seg = Segment.constant(2.0, [5.0], 4)
    assert interpolate(seg, -0.25)[0] == pytest.approx(5.0)


def test_interpolate_reproduces_linear_function():
    seg = Segment.from_function(lambda w: [w], 1.0, 1, 2)
    assert interpolate(seg, -0.25)[0] == pytest.approx(-0.25, abs=1e-14)


def test_interpolate_domain_error():
    seg = Segment.zeros(1.0, 1, 4)
    with pytest.raises(OutOfDomain):
        interpolate(seg, -1.5)
    with pytest.raises(OutOfDomain):
        interpolate(seg, 0.5)


def test_refinement_stability_of_sup_norm():
    # doubling m moves the sampled sup by at most C/m^2 for smooth samples
    r = 1.0
    fn = lambda w: [np.sin(2 * np.pi * w)]
    curvature = (2 * np.pi) ** 2
    C = curvature * r * r  # generous constant from |f''| and the grid pitch
    for m in (16, 32, 64):
        a = sup_norm(Segment.from_function(fn, r, 1, m))
        b = sup_norm(Segment.from_function(fn, r, 1, 2 * m))
        assert abs(a - b) <= C / m**2


def test_jump_segment_semantics():
    j = JumpSegment(1.0, [2.0, 0.0], 8)
    assert np.allclose(j.value_at(0.0), [2.0, 0.0])
    assert np.allclose(j.value_at(-0.5), [0.0, 0.0])
    assert np.allclose(j.value_at(-1.0), [0.0, 0.0])
    assert sup_norm(j) == 2.0
    with pytest.raises(OutOfDomain):
        j.value_at(0.5)


def test_lag_index_alignment():
    assert lag_index(0.5, 64, 0.5) == 0
    assert lag_index(0.5, 64, 0.25) == 32
    assert lag_index(0.5, 64, 0.0) == 64
    with pytest.raises(OutOfDomain):
        lag_index(0.5, 64, 0.21)


def test_segment_arithmetic_and_grid_checks():
    a = Segment.constant(1.0, [1.0, 2.0], 4)
    b = Segment.constant(1.0, [0.5, -1.0], 4)
    assert np.allclose((a + b).values, [[1.5, 1.0]] * 5)
    assert np.allclose((a - b).values, [[0.5, 3.0]] * 5)
    assert np.allclose((2.0 * a).values, [[2.0, 4.0]] * 5)
    with pytest.raises(ValueError):
        a + Segment.constant(1.0, [1.0, 2.0], 8)
