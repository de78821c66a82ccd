import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mu_lab.admissibility import (
    ParamSet,
    check_core,
    default_xi,
    delta_ceiling,
    full_report,
    lambda_ceiling,
    xi_window,
)
from mu_lab.errors import EmptyWindow, XiOutOfWindow


def params(**kw) -> ParamSet:
    base = dict(
        alpha=0.8,
        beta=0.6,
        theta=0.4,
        nu=0.2,
        eps=0.1,
        a=1.0,
        gamma=0.5,
        xi=0.6,
        delta=1e-3,
        lam=1e-5,
        q=1.0,
        K=1.0,
        K_tilde=1.0,
        N=float(np.e),
        D=1.0,
    )
    base.update(kw)
    return ParamSet(**base)


def test_core_reference_set_passes():
    rep = check_core(params())
    assert rep.passed
    assert [e.name for e in rep.entries] == [
        "nonuniformity_floor",
        "stable_rate_gap",
        "unstable_rate_gap",
    ]


def test_core_fails_on_small_theta():
    rep = check_core(params(theta=0.25))
    assert not rep.passed
    assert not rep.entry("nonuniformity_floor").passed  # 0.25 < 0.3


def test_core_uniform_limit_passes():
    rep = check_core(params(eps=0.0, theta=0.0, nu=0.0, alpha=1.0, beta=1.0))
    assert rep.passed


def test_xi_window_reference_values():
    lo, hi = xi_window(params())
    assert lo == pytest.approx(0.5, abs=1e-15)
    assert hi == pytest.approx(0.7, abs=1e-15)


def test_xi_window_floor_when_a_equals_beta():
    lo, _ = xi_window(params(a=0.6))
    assert lo == pytest.approx(max(0.2 + 0.1, 0.1), abs=1e-15)


def test_xi_window_empty():
    with pytest.raises(EmptyWindow):
        xi_window(params(a=2.0))  # lo = 1.5 >= hi = 0.7


def test_delta_ceiling_reference_coefficient():
    # exact coefficient 0.48/1.4 = 0.342857..., quoted rounded as 0.34
    p = params(q=1.0, D=1.0)
    coeff = delta_ceiling(p) * (1.0 + p.q) ** 2 / p.q
    assert coeff == pytest.approx(0.48 / 1.4, rel=1e-12)
    assert round(coeff, 2) == 0.34


def test_delta_ceiling_simple_value():
    assert delta_ceiling(params(q=1.0, D=1.0, alpha=1.0, beta=1.0)) == pytest.approx(0.125)


def test_delta_ceiling_vanishes_for_large_q():
    p = params()
    big = delta_ceiling(p.with_(q=1e6))
    assert big < 1e-5
    assert big * 1e6 == pytest.approx(delta_ceiling(p.with_(q=1.0)) * 4.0, rel=1e-3)  # ~ 1/q tail


def test_lambda_ceiling_reference_coefficients():
    # numerator coefficient (alpha+beta-2xi)((xi-eps)^2-(a-beta)^2) = 0.2*0.09
    p = params(xi=0.6)
    num = (p.alpha + p.beta - 2 * p.xi) * ((p.xi - p.eps) ** 2 - (p.a - p.beta) ** 2)
    assert num == pytest.approx(0.018, rel=1e-12)
    for D in (1.0, 2.5):
        for Kt in (1.0, 3.0):
            got = lambda_ceiling(p.with_(D=D, K_tilde=Kt))
            expected = 0.018 * p.q**2 / (D * (0.09 * D + 0.48 * Kt) * (1 + p.q) ** 3)
            assert got == pytest.approx(expected, rel=1e-12)


def test_lambda_ceiling_vanishes_at_window_edges():
    p = params()
    lo, hi = xi_window(p)
    assert lambda_ceiling(p.with_(xi=hi - 1e-9)) < 1e-8
    assert lambda_ceiling(p.with_(xi=lo + 1e-9)) < 1e-7
    with pytest.raises(XiOutOfWindow):
        lambda_ceiling(p.with_(xi=hi + 0.01))
    with pytest.raises(XiOutOfWindow):
        lambda_ceiling(p.with_(xi=lo - 0.01))


def test_full_report_pass_and_isolated_failures():
    p0 = params(D=2.0, K_tilde=1.5)
    good = p0.with_(
        delta=0.9 * delta_ceiling(p0),
        lam=0.9 * lambda_ceiling(p0),
        gamma=0.5,
    )
    rep = full_report(good)
    assert rep.passed

    bad_gamma = full_report(good.with_(gamma=0.3))
    assert not bad_gamma.passed
    assert not bad_gamma.entry("envelope_decay").passed
    assert bad_gamma.entry("delta_ceiling").passed

    bad_delta = full_report(good.with_(delta=1.01 * delta_ceiling(good)))
    failing = [e.name for e in bad_delta.entries if not e.passed]
    assert failing == ["delta_ceiling"]


def test_full_report_with_empty_window_does_not_raise():
    rep = full_report(params(a=2.0))
    assert not rep.passed
    assert not rep.entry("lambda_ceiling").passed


def test_monotonicity_in_D():
    p = params()
    for field, fn in (("delta", delta_ceiling), ("lam", lambda_ceiling)):
        c1 = fn(p.with_(D=1.0))
        c2 = fn(p.with_(D=2.0))
        assert c2 < c1


def test_delta_ceiling_maximal_at_q_one():
    p = params()
    qs = np.linspace(0.2, 5.0, 60)
    vals = [delta_ceiling(p.with_(q=float(q))) for q in qs]
    best = qs[int(np.argmax(vals))]
    assert best == pytest.approx(1.0, abs=0.1)
    assert delta_ceiling(p.with_(q=0.5)) < delta_ceiling(p.with_(q=1.0))
    assert delta_ceiling(p.with_(q=2.0)) < delta_ceiling(p.with_(q=1.0))


def test_report_determinism():
    p = params(D=3.3, K_tilde=1.2, delta=1e-4, lam=1e-6)
    a = full_report(p).to_dict()
    b = full_report(ParamSet(**json.loads(json.dumps(p.__dict__)))).to_dict()
    assert a == b


def test_default_xi_is_window_midpoint():
    assert default_xi(params()) == pytest.approx(0.6)


def test_paramset_validation():
    with pytest.raises(ValueError):
        params(alpha=0.0)
    with pytest.raises(ValueError):
        params(theta=-0.1)
    with pytest.raises(ValueError):
        params(D=-1.0)


@given(
    q=st.floats(min_value=0.05, max_value=20.0),
    D=st.floats(min_value=0.5, max_value=50.0),
)
@settings(max_examples=80, deadline=None)
def test_ceilings_positive_inside_window(q, D):
    p = params(q=q, D=D)
    assert delta_ceiling(p) > 0
    assert lambda_ceiling(p) > 0
