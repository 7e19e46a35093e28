import inspect
import json
import math
import re
import sys
import time
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gensob import weights
from gensob.weights import (
    K_MAX,
    WEIGHT_NODES,
    ComposeRatio,
    ConstraintError,
    DyadicIntegralResult,
    ExprPower,
    IterLogPower,
    NikolskiiEmbedding,
    OscPower,
    PiecewiseGlue,
    Power,
    PowerCompose,
    Product,
    Scale,
    check_or_window,
    compose_param,
    dyadic_integral_test,
    embed_hormander,
    embed_nikolskii,
    eta_construct,
    indices,
    interp_param,
    weight_from_json,
    weight_to_json,
)

TS = np.geomspace(1.0, 1e8, 120)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_power():
    assert Power(-0.5).eval(4.0) == pytest.approx(0.5, abs=0.0)


def test_eval_product_log_at_e():
    a = Product(Power(0.7), IterLogPower(1, 3.0))
    # log(e) = 1, so the log factor contributes 1 exactly
    assert a.eval(math.e) == pytest.approx(math.e**0.7, rel=1e-15)


def test_eval_osc_at_glue_point():
    # direct substitution: at t = e the oscillating exponent branch starts at
    # sin(0) = 0 and matches the t^theta branch
    w = OscPower(0.0, 1.0, 0.5)
    assert w.eval(math.e) == 1.0
    assert w.eval(1.0) == 1.0
    t = 50.0
    expected = t ** (0.0 + 1.0 * math.sin(math.log(math.log(t)) ** 0.5))
    assert w.eval(t) == pytest.approx(expected, rel=1e-14)


def test_eval_domain_error():
    with pytest.raises(ConstraintError):
        Power(1.0).eval(0.5)
    for t in (0.0, -1.0, np.array([0.5, 0.0])):  # a glued weight is defined on (0, inf)
        with pytest.raises(ConstraintError, match="^glued weight defined for t > 0$"):
            PiecewiseGlue(Power(2.0), 1.0).eval(t)


def test_eval_huge_argument_stays_finite_in_log_space():
    # ratios at t = 1e300 are fine even where the value itself overflows
    a = Product(Power(2.0), IterLogPower(1, -1.0))
    u = np.log(1e300)
    assert np.isfinite(a.log_value(u))
    # slope ~ 2 with a tiny log-factor correction
    assert a.log_value(u + math.log(2.0)) - a.log_value(u) == pytest.approx(
        2.0 * math.log(2.0), rel=1e-3
    )


def test_eval_vectorized_matches_scalar():
    a = Product(OscPower(0.2, 0.3, 1.0), IterLogPower(2, -1.0))
    vals = a.eval(TS)
    for i in (0, 17, 119):
        assert vals[i] == a.eval(float(TS[i]))


def test_glue_extends_domain_below_one():
    w = PiecewiseGlue(Power(2.0), 1.0)
    assert w.eval(0.25) == 1.0
    assert w.eval(3.0) == pytest.approx(9.0, rel=1e-15)


def test_osc_rejects_lam_beyond_one():
    with pytest.raises(ConstraintError):
        OscPower(0.0, 1.0, 1.5)


# ---------------------------------------------------------------------------
# symbolic indices
# ---------------------------------------------------------------------------


def test_symbolic_power_log_family():
    a = Product(Power(1.25), Product(IterLogPower(1, -2.0), IterLogPower(2, 0.5)))
    assert a.symbolic_indices() == (1.25, 1.25)


@pytest.mark.parametrize("lam", [0.25, 0.5, 0.99])
def test_symbolic_osc_below_one(lam):
    assert OscPower(0.3, 0.8, lam).symbolic_indices() == (0.3 - 0.8, 0.3 + 0.8)


def test_symbolic_osc_at_one():
    theta, delta = 0.3, 0.8
    expected = (theta - math.sqrt(2.0) * delta, theta + math.sqrt(2.0) * delta)
    assert OscPower(theta, delta, 1.0).symbolic_indices() == expected


def test_symbolic_shift_by_power_is_exact():
    phi = OscPower(0.0, 1.0, 0.5)
    s = 0.75
    shifted = Product(phi, Power(s))
    p0, p1 = phi.symbolic_indices()
    assert shifted.symbolic_indices() == (p0 + s, p1 + s)


def test_symbolic_product_of_two_osc_undefined():
    a = Product(OscPower(0.0, 1.0, 0.5), OscPower(0.0, 0.5, 0.5))
    assert a.symbolic_indices() is None


def test_symbolic_compose_and_exprpower():
    assert PowerCompose(Power(2.0), 0.25).symbolic_indices() == (0.5, 0.5)
    assert ExprPower(OscPower(0.0, 1.0, 0.5), -2.0).symbolic_indices() == (-2.0, 2.0)
    assert Scale(5.0).symbolic_indices() == (0.0, 0.0)
    uncovered = Product(OscPower(0.0, 1.0, 0.5), OscPower(0.0, 0.5, 0.5))  # no indices of its own
    assert PowerCompose(uncovered, 0.25).symbolic_indices() is None
    assert ExprPower(uncovered, -2.0).symbolic_indices() is None


# ---------------------------------------------------------------------------
# window index estimates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "tree",
    [
        Power(2.0),
        Product(Power(1.5), IterLogPower(1, 1.0)),
        Product(Power(-0.7), IterLogPower(1, -1.0)),
        Product(Power(0.25), IterLogPower(2, 0.5)),
    ],
)
def test_window_estimates_near_symbolic_on_power_log(tree):
    est = indices(tree, window=(1e9, 1e12), lambda_max=16.0)
    assert est["sigma0_win"] <= est["sigma1_win"]
    assert abs(est["sigma0_win"] - est["sigma0_sym"]) <= 0.05
    assert abs(est["sigma1_win"] - est["sigma1_sym"]) <= 0.05


def test_window_estimate_brackets_symbolic():
    est = indices(Product(Power(1.0), IterLogPower(1, 1.0)), window=(1e6, 1e10))
    # positive log factor pushes finite-window slopes above the symbolic index
    assert est["sigma1_win"] >= est["sigma1_sym"]


# ---------------------------------------------------------------------------
# bounded-ratio window check
# ---------------------------------------------------------------------------


def test_or_check_power_closed_form():
    # exact ratio lambda^r, so the window constant is b^|r|
    for r, b in [(2.0, 2.0), (-1.5, 3.0)]:
        res = check_or_window(Power(r), b)
        assert res["c_est"] == pytest.approx(b ** abs(r), rel=1e-12)
        assert res["verdict"] == "pass"


def test_or_check_constant_weight():
    res = check_or_window(Scale(7.0), 2.0)
    assert res["c_est"] == 1.0
    assert res["verdict"] == "pass"


def test_or_check_osc():
    res = check_or_window(OscPower(0.0, 1.0, 0.5), 2.0, t_max=1e8)
    assert res["verdict"] == "pass"
    assert np.isfinite(res["c_est"])


@pytest.mark.parametrize("r,c_est,verdict", [(1000.0, 2.0**1000, "pass"), (1100.0, math.inf, "fail"),
                                             (1e300, math.inf, "fail")])
def test_or_check_fails_when_the_constant_is_not_finite(r, c_est, verdict):
    # lam^r on [1, 2]: the constant is 2^r, which overflows a double past r = 1024
    res = check_or_window(Power(r), 2.0)
    assert (res["c_est"], res["verdict"]) == (pytest.approx(c_est, rel=1e-9), verdict)
    assert res["segment_max"] == pytest.approx((c_est,) * 8, rel=1e-9)


@pytest.mark.parametrize("t_min,t_max", [(1e9, 1e8), (0.5, 1e8), (10.0, 10.0), (math.nan, 1e8)],
                         ids=["reversed", "below-one", "empty", "nan"])
def test_window_checks_refuse_what_indices_refuses(t_min, t_max):
    with pytest.raises(ConstraintError, match="window must satisfy 1 <= t_min < t_max"):
        indices(Power(2.0), window=(t_min, t_max))
    with pytest.raises(ConstraintError, match="window must satisfy 1 <= t_min < t_max"):
        check_or_window(Power(2.0), 2.0, t_min=t_min, t_max=t_max)


@pytest.mark.parametrize("call,match", [
    (lambda: indices(Power(2.0), lambda_max=1.0), "lambda_max must exceed 1$"),
    (lambda: indices(Power(2.0), lambda_max=math.nan), "lambda_max must exceed 1$"),
    (lambda: check_or_window(Power(2.0), 1.0), "b must exceed 1$"),
    (lambda: embed_hormander(Power(2.0), -1, 2), r"requires p >= 0 and n >= 1$"),
    (lambda: embed_hormander(Power(2.0), 0, 0), r"requires p >= 0 and n >= 1$"),
], ids=["indices-lambda-1", "indices-lambda-nan", "or-check-b-1",
        "hormander-p", "hormander-n"])
def test_a_scale_or_order_outside_its_domain_is_refused_by_name(call, match):
    with pytest.raises(ConstraintError, match=f"^{match}"):
        call()


def test_window_checks_evaluate_the_weight_once_per_ratio_scale():
    calls = []

    class CountedPower(Power):
        def log_value(self, u):
            calls.append(np.size(u))
            return super().log_value(u)

    alpha = CountedPower(1.5)
    check_or_window(alpha, 2.0, t_min=2, t_max=1e4)  # lam = 1 is skipped
    assert calls == [241] * 17
    calls.clear()
    indices(alpha)  # the base grid, then one row per ratio scale
    assert calls == [96] * 17


@settings(max_examples=25, deadline=None)
@given(
    r=st.floats(min_value=-3.0, max_value=3.0),
    k=st.floats(min_value=-2.0, max_value=2.0),
)
def test_or_ratio_property(r, k):
    # ratios at probe points stay inside the estimated band (small slack for
    # probes between grid nodes)
    tree = Product(Power(r), IterLogPower(1, k))
    res = check_or_window(tree, 2.0)
    probes_t = np.geomspace(1.3, 7.1e7, 37)
    probes_lam = np.linspace(1.0, 2.0, 9)
    for lam in probes_lam:
        ratio = tree.eval(lam * probes_t) / tree.eval(probes_t)
        assert np.all(ratio <= res["c_est"] * 1.02)
        assert np.all(ratio >= 1.02**-1 / res["c_est"])


# ---------------------------------------------------------------------------
# interpolation parameter and composition
# ---------------------------------------------------------------------------


def test_interp_param_power_square_root():
    psi = interp_param(Power(2.0), 1.0, 3.0)
    ts = TS
    assert np.max(np.abs(psi.eval(ts) - np.sqrt(ts))) <= 1e-12 * np.max(np.sqrt(ts))


def test_interp_param_lower_power_is_constant():
    psi = interp_param(Power(1.0), 1.0 - 1e-9, 3.0)
    assert psi.eval(10.0) == pytest.approx(1.0, rel=1e-6)


def test_interp_param_formula_oracle():
    # tree evaluation against the defining formula on a log grid
    alpha = Product(Power(0.5), IterLogPower(1, 0.8))
    r0, r1 = -0.5, 1.5
    psi = interp_param(alpha, r0, r1)
    gap = r1 - r0
    direct = TS ** (-r0 / gap) * alpha.eval(TS ** (1.0 / gap))
    assert np.max(np.abs(psi.eval(TS) - direct) / direct) <= 1e-12


def test_interp_param_constant_branch():
    alpha = Product(Scale(3.0), Power(1.0))
    psi = interp_param(alpha, 0.0, 2.0)
    assert psi.eval(0.5) == pytest.approx(3.0, rel=1e-15)  # alpha(1)


def test_interp_param_preconditions():
    with pytest.raises(ConstraintError):
        interp_param(Power(1.0), 2.0, 1.0)
    with pytest.raises(ConstraintError, match="sigma0"):
        interp_param(Power(1.0), 1.5, 3.0)
    with pytest.raises(ConstraintError, match="sigma1"):
        interp_param(Power(1.0), 0.0, 0.5)


def test_compose_param_roundtrip():
    for alpha, r0, r1 in [
        (Power(2.0), 1.0, 3.0),
        (Product(Power(0.5), IterLogPower(1, -0.8)), -0.5, 1.5),
        (OscPower(0.0, 0.5, 0.5), -1.0, 1.0),
    ]:
        psi = interp_param(alpha, r0, r1)
        back = compose_param(Power(r0), Power(r1), psi)
        rel = np.abs(back.eval(TS) - alpha.eval(TS)) / alpha.eval(TS)
        assert np.max(rel) <= 1e-12


def test_compose_param_trivial_parameter():
    a0 = Power(0.5)
    out = compose_param(a0, Power(2.0), PiecewiseGlue(Scale(1.0), 1.0))
    assert np.allclose(out.eval(TS), a0.eval(TS), rtol=1e-14)


def test_compose_param_glues_a_parameter_defined_from_one():
    # alpha1/alpha0 = 1/2 lies below 1, where psi = t^0.5 alone is undefined: psi(1) = 1 there
    alpha0, alpha1, psi = Product(Power(1.0), Scale(2.0)), Power(1.0), Power(0.5)
    out = compose_param(alpha0, alpha1, psi)
    assert out == Product(alpha0, ComposeRatio(PiecewiseGlue(psi, 1.0), alpha1, alpha0))
    assert np.allclose(out.eval(TS), 2.0 * TS, rtol=1e-14)


def test_compose_param_equal_weights_scalar():
    a0 = Power(1.0)
    psi = interp_param(Power(2.0), 1.0, 3.0)  # psi(1)=1
    out = compose_param(a0, a0, psi)
    assert np.allclose(out.eval(TS), a0.eval(TS) * psi.eval(1.0), rtol=1e-14)


def test_compose_param_rejects_unbounded_ratio():
    with pytest.raises(ConstraintError, match="unbounded"):
        compose_param(Power(2.0), Power(1.0), interp_param(Power(1.5), 1.0, 2.0))


def test_compose_ratio_requires_glued_outer():
    with pytest.raises(ConstraintError):
        ComposeRatio(Power(1.0), Power(2.0), Power(1.0))


# ---------------------------------------------------------------------------
# eta construction
# ---------------------------------------------------------------------------


def test_eta_first_branch_closed_form():
    # theta = (s1-lam)/(s1-s0) = 1/4 and eta(t) = t^(-1/8)
    eta, theta = eta_construct(Power(-0.5), -1.0, 0.0, -0.25)
    assert theta == pytest.approx(0.25)
    assert eta.eval(16.0) == pytest.approx(16.0**-0.125, rel=1e-14)


def test_eta_second_branch_power():
    eta, theta = eta_construct(Power(-1.0), -2.0, -0.6, 0.0)
    assert theta is None
    assert eta.eval(123.0) == 1.0


def test_eta_degenerate_theta_zero():
    eta, theta = eta_construct(Power(-0.5), -1.0, 0.0, 0.0)
    assert theta == 0.0
    assert eta.eval(77.0) == pytest.approx(1.0, rel=1e-15)


def _eta_identity_error(phi, s0, s1, lam, shift):
    eta, _ = eta_construct(phi, s0, s1, lam)
    psi = interp_param(Product(phi, Power(shift)), s0 + shift, s1 + shift)
    ref = TS**lam * psi.eval(TS ** (s1 - lam))
    vals = eta.eval(TS)
    return float(np.max(np.abs(vals - ref) / vals))


@pytest.mark.parametrize("shift", [2.0, 4.0])
def test_eta_matches_interpolated_form(shift):
    assert _eta_identity_error(Power(-0.5), -1.0, 0.0, -0.25, shift) <= 1e-12
    assert _eta_identity_error(Power(-1.0), -2.0, -0.6, 0.0, shift) <= 1e-12


def test_eta_constraint_errors_name_the_inequality():
    with pytest.raises(ConstraintError, match="s0 < sigma0"):
        eta_construct(Power(-0.5), -0.2, 0.0, -0.25)
    with pytest.raises(ConstraintError, match="s1 > sigma1"):
        eta_construct(Power(-0.5), -1.0, -0.7, -0.25)
    with pytest.raises(ConstraintError, match="lam > -1/2"):
        eta_construct(Power(-0.5), -1.0, 0.0, -0.75)
    with pytest.raises(ConstraintError, match="lam <= s1"):
        eta_construct(Power(-0.5), -1.0, 0.0, 0.5)
    with pytest.raises(ConstraintError, match="s1 < -1/2"):
        eta_construct(Power(-1.0), -2.0, -0.3, 0.0)
    with pytest.raises(ConstraintError, match=r"^requires lam > s0; got lam=-0.4, s0=-0.3$"):
        eta_construct(Power(0.0), -0.3, 1.0, -0.4)
    with pytest.raises(ConstraintError, match="^eta_construct needs symbolic indices for phi"):
        eta_construct(ComposeRatio(PiecewiseGlue(Power(1.0)), Power(2.0), Power(1.0)), -1.0, 2.0, 0.0)


# ---------------------------------------------------------------------------
# dyadic integral deciders
# ---------------------------------------------------------------------------


def _trend_oracle(omega, m=2_500_000):
    """Independent partial-sum trend classification of sum_k omega(2^k).

    Uses the doubling-increment ratio at k ~ 10^7, far beyond the window the
    implementation looks at: convergent sums have shrinking increments,
    divergent ones do not.
    """
    ks = np.arange(m, 4 * m, dtype=float)
    terms = np.exp(omega.log_value(ks * math.log(2.0)))
    d1 = terms[:m].sum()  # one doubling of k: [m, 2m)
    d2 = terms[m:].sum()  # the next doubling: [2m, 4m)
    return "diverges" if d2 / d1 >= 0.95 else "converges"


def test_dyadic_symbolic_shortcuts():
    assert dyadic_integral_test(Power(-0.5)).verdict == "converges"
    assert dyadic_integral_test(Power(0.3)).verdict == "diverges"


@pytest.mark.parametrize(
    "k,expected",
    [(-1.0, "diverges"), (-1.5, "converges"), (-3.0, "converges")],
)
def test_dyadic_log_weights_match_trend_oracle(k, expected):
    omega = IterLogPower(1, k)
    assert _trend_oracle(omega) == expected
    res = dyadic_integral_test(omega)
    assert res.verdict == expected
    assert len(res.partial_sums) == 61


def test_dyadic_constant_diverges():
    assert dyadic_integral_test(Scale(1.0)).verdict == "diverges"


def test_dyadic_borderline_is_honest():
    # 1/k^1.1 decay cannot be resolved at this window; anything but a wrong
    # divergence verdict is acceptable
    res = dyadic_integral_test(IterLogPower(1, -1.1))
    assert res.verdict in ("inconclusive", "converges")


def test_dyadic_partial_sums_are_cumulative():
    res = dyadic_integral_test(Power(-1.0))
    assert np.all(np.diff(res.partial_sums) >= 0.0)  # saturates in double precision
    assert res.partial_sums[0] == pytest.approx(1.0)  # omega(1)


# ---------------------------------------------------------------------------
# embedding deciders
# ---------------------------------------------------------------------------


def test_embed_hormander_power_threshold():
    # int t^(2p+n-1-2r) dt converges iff r > p + n/2
    assert embed_hormander(Power(1.5), 0, 2).verdict == "converges"
    assert embed_hormander(Power(1.0), 0, 2).verdict == "diverges"
    assert embed_hormander(Power(2.1), 1, 2).verdict == "converges"
    assert embed_hormander(Power(2.0), 1, 2).verdict == "diverges"


def test_embed_hormander_log_refinement():
    base = Power(1.0)
    assert embed_hormander(Product(base, IterLogPower(1, 0.75)), 0, 2).verdict == "converges"
    assert embed_hormander(Product(base, IterLogPower(1, -1.0)), 0, 2).verdict == "diverges"


def test_nikolskii_embedding_is_a_decider_result():
    res = embed_nikolskii(Power(-0.3), 0.0)
    assert isinstance(res, DyadicIntegralResult) and isinstance(res, NikolskiiEmbedding)
    assert res.converges and res.constant is not None
    res = embed_nikolskii(Power(1.0), 0.0)
    assert not res.converges and res.constant is None and res.tail_bound is None


def test_embed_nikolskii_remark_weight():
    s = -0.5
    for eps, expected in [(0.5, "converges"), (0.0, "diverges")]:
        alpha = Product(Power(s), IterLogPower(1, -eps - 0.5))
        res = embed_nikolskii(alpha, s)
        assert res.verdict == expected
    assert embed_nikolskii(Product(Power(s), IterLogPower(1, -1.0)), s).constant is not None


@pytest.mark.parametrize("r", [-0.6, -1.0])
def test_embed_nikolskii_tail_bound_is_none_when_the_last_terms_round_away(r):
    # the summand 4^(r k) falls below the rounding of the partial sums long before K_MAX,
    # so the recovered terms read 0 and neither tail model has a term to scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = embed_nikolskii(Power(r), 0.0)
    assert res.converges
    assert res.constant == pytest.approx(1.0 / (1.0 - 4.0**r), rel=1e-12)
    assert res.tail_bound is None


@pytest.mark.parametrize("gap", [0.1, 0.01, 0.0005])
def test_embed_nikolskii_geometric_closed_form(gap):
    # alpha = t^(s-gap): the dyadic sum is geometric with ratio r = 4^-gap, so the
    # truncated constant and the tail beyond K_MAX both have closed forms
    s = -0.3
    res = embed_nikolskii(Power(s - gap), s)
    r = 4.0**-gap
    closed = 1.0 / (1.0 - r)
    assert res.verdict == "converges"
    assert res.constant <= closed <= res.constant + res.tail_bound * (1.0 + 1e-9)
    assert res.constant == pytest.approx((1.0 - r ** (K_MAX + 1)) / (1.0 - r), rel=1e-9)
    assert res.constant + res.tail_bound == pytest.approx(closed, rel=1e-9)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def test_json_roundtrip_all_nodes():
    tree = Product(
        PiecewiseGlue(
            Product(Power(-0.25), PowerCompose(OscPower(0.1, 0.2, 1.0), 0.5)), 1.0
        ),
        Product(ExprPower(IterLogPower(2, -1.0), -2.0), Scale(3.0)),
    )
    back = weight_from_json(weight_to_json(tree))
    assert np.allclose(back.eval(TS), tree.eval(TS), rtol=1e-15)
    assert weight_to_json(back) == weight_to_json(tree)


def test_json_compose_ratio_roundtrip():
    psi = interp_param(Power(1.0), 0.0, 2.0)
    tree = compose_param(Power(0.0), Power(2.0), psi)
    back = weight_from_json(json.loads(json.dumps(weight_to_json(tree))))
    assert np.allclose(back.eval(TS), tree.eval(TS), rtol=1e-15)


LOG_GRID = np.log(np.geomspace(3.0, 1e12, 20001))


def test_json_nested_product_roundtrips_exactly():
    # a nested product is written nested: flattening it into one args list re-associated
    # the sum of log values and moved the last bit at 2665 of these 20001 points
    tree = Product(Power(0.3), Product(Scale(2.0), IterLogPower(1, 0.7)))
    doc = weight_to_json(tree)
    assert [arg["op"] for arg in doc["args"]] == ["power", "product"]
    back = weight_from_json(json.loads(json.dumps(doc)))
    assert back == tree
    assert back.log_value(LOG_GRID).tobytes() == tree.log_value(LOG_GRID).tobytes()


FACTORS = {
    "power-log": (Power(0.3), Scale(2.0), IterLogPower(1, 0.7)),
    "two-osc": (OscPower(0.1, 0.2, 0.5), Power(-1.0), OscPower(0.0, 0.3, 1.0)),
    "glued": (PiecewiseGlue(Power(1.0), 2.0), ExprPower(IterLogPower(2, -1.0), -2.0), Power(0.5)),
}


@pytest.mark.parametrize("factors", FACTORS.values(), ids=FACTORS.keys())
def test_nary_product_is_the_left_fold_of_binary_products(factors):
    a, b, c = factors
    nary, folded = Product(a, b, c), Product(Product(a, b), c)
    assert nary.log_value(LOG_GRID).tobytes() == folded.log_value(LOG_GRID).tobytes()
    assert nary.symbolic_indices() == folded.symbolic_indices()
    assert nary.domain_min == folded.domain_min
    doc = {"op": "product", "args": [weight_to_json(f) for f in factors]}
    assert weight_from_json(doc) == nary


def test_product_needs_two_factors():
    with pytest.raises(ConstraintError, match="at least two factors, got 1"):
        Product(Power(1.0))
    with pytest.raises(ConstraintError, match="at least two factors, got 0"):
        Product()


def test_json_layer_names_no_node_class():
    names = [cls.__name__ for cls in WEIGHT_NODES]
    for fn in (weight_to_json, weights._json_field, weight_from_json):
        source = inspect.getsource(fn)
        assert [n for n in names if re.search(rf"\b{n}\b", source)] == [], fn.__name__


# finite floats in JSON (repr) read back to the same double
NUMBER = st.floats(-3.0, 3.0, allow_nan=False)
GLUE_AT = st.floats(1.0, 10.0)
NODES = {  # node class -> strategy of that node over a strategy of subtrees
    Power: lambda sub: st.builds(Power, NUMBER),
    Scale: lambda sub: st.builds(Scale, st.floats(0.01, 100.0)),
    IterLogPower: lambda sub: st.builds(IterLogPower, st.integers(1, 3), NUMBER),
    OscPower: lambda sub: st.builds(OscPower, NUMBER, st.floats(0.01, 1.0), st.floats(0.01, 1.0)),
    Product: lambda sub: st.lists(sub, min_size=2, max_size=3).map(lambda fs: Product(*fs)),
    PowerCompose: lambda sub: st.builds(PowerCompose, sub, st.floats(0.1, 3.0)),
    ExprPower: lambda sub: st.builds(ExprPower, sub, NUMBER),
    PiecewiseGlue: lambda sub: st.builds(PiecewiseGlue, sub, GLUE_AT),
    ComposeRatio: lambda sub: st.builds(ComposeRatio, st.builds(PiecewiseGlue, sub, GLUE_AT),
                                        sub, sub),
}
LEAVES = (Power, Scale, IterLogPower, OscPower)


def _trees(depth: int):
    """Weight trees of at most ``depth`` levels of inner nodes over the leaves."""
    if depth == 0:
        return st.one_of([NODES[cls](None) for cls in LEAVES])
    sub = _trees(depth - 1)
    return st.one_of([NODES[cls](sub) for cls in NODES])


def test_tree_strategy_covers_every_node_class():
    assert set(NODES) == set(WEIGHT_NODES)


@settings(max_examples=300, deadline=None)
@given(tree=_trees(3))
def test_json_roundtrip_is_exact_for_every_tree(tree):
    back = weight_from_json(json.loads(json.dumps(weight_to_json(tree))))
    assert back == tree
    u = LOG_GRID[::10]
    with np.errstate(all="ignore"):
        assert back.log_value(u).tobytes() == tree.log_value(u).tobytes()


def test_json_rejects_unknown_op():
    with pytest.raises(ValueError, match="unknown weight op"):
        weight_from_json({"op": "exp", "r": 1.0})
    with pytest.raises(TypeError, match="^unknown weight node dict$"):  # JSON where a tree belongs
        weight_to_json({"op": "power", "r": 1.0})


INNER = {"op": "power", "r": 1.0}


@pytest.mark.parametrize("obj,match", [
    ({"op": "power"}, "'power' is missing field 'r'"),
    ({"op": "iter_log", "k": 1}, "'iter_log' is missing field 'depth'"),
    ({"op": "glue"}, "'glue' is missing field 'inner'"),
    ({"op": "glue", "inner": INNER}, "'glue' is missing field 't_star'"),
    ({"op": "expr_power", "inner": INNER}, "'expr_power' is missing field 'a'"),
    ({"op": "product"}, "'product' is missing field 'args'"),
    ({"op": "compose_ratio", "outer": INNER, "num": INNER}, "'compose_ratio' is missing field"),
    ({"op": "iter_log", "depth": 1.5, "k": 1}, "'depth' of 'iter_log' must be an integer"),
    ({"op": "power", "r": float("nan")}, "'r' of 'power' must be a finite number"),
    ({"op": "scale", "c": float("inf")}, "'c' of 'scale' must be a finite number"),
    ({"op": "iter_log", "depth": 1, "k": -float("inf")}, "'k' of 'iter_log' must be a finite"),
    pytest.param(json.loads('{"op": "power", "r": NaN}'), "'r' of 'power' must be a finite number",
                 id='{"op": "power", "r": NaN}-\'r\' of \'power\' must be a finite number'),
    ({"op": "power", "r": 10**400}, "'r' of 'power' must be a finite number"),
    ({"op": "power", "r": 10**5000}, "'r' of 'power' must be a finite number, got an integer of 5001 digits"),
    ({"op": "iter_log", "depth": 10**5000, "k": 1}, "'depth' of 'iter_log' must be a finite number"),
    ({"op": "power", "r": 1.0, "x": 2.0}, r"'power' has unknown fields \['x'\]"),
    ({"op": "product", "args": [INNER, INNER], "left": INNER}, r"'product' has unknown fields \['left'\]"),
    ({"op": "product", "args": [INNER, {"op": "scale", "c": 2.0, "r": 1.0}]},
     r"'scale' has unknown fields \['r'\]"),
    ({"op": 10**5000}, "unknown weight op an integer of 5001 digits"),
    ({"op": "product", "args": [INNER]}, "Product needs at least two factors, got 1"),
    ({"op": "product", "args": INNER}, "field 'args' of 'product' must be a list of weights"),
    ([INNER], "^weight JSON must be an object with an 'op' field$"),
    ({"r": 1.0}, "^weight JSON must be an object with an 'op' field$"),
    ({"op": "product", "args": [INNER, 2.0]}, "^weight JSON must be an object with an 'op' field$"),
])
def test_json_names_the_bad_field(obj, match):
    with pytest.raises(ValueError, match=match):
        weight_from_json(obj)


@pytest.mark.parametrize("build,match", [
    (lambda: Power(math.inf), "'r' of 'power' must be a finite number, got inf"),
    (lambda: Power(-2.0 * 1e308), "'r' of 'power' must be a finite number, got -inf"),
    (lambda: Scale(math.nan), "'c' of 'scale' must be a finite number, got nan"),
    (lambda: IterLogPower(1, -math.inf), "'k' of 'iter_log' must be a finite number"),
    (lambda: IterLogPower(10**400, 1.0), "'depth' of 'iter_log' must be a finite number, got an "
                                         "integer of 401 digits"),
    (lambda: OscPower(math.inf, 0.1, 1.0), "'theta' of 'osc_power' must be a finite number"),
    (lambda: OscPower(0.0, math.inf, 1.0), "'delta' of 'osc_power' must be a finite number"),
    (lambda: PowerCompose(Power(1.0), math.inf), "'theta' of 'power_compose' must be a finite"),
    (lambda: ExprPower(Power(1.0), math.nan), "'a' of 'expr_power' must be a finite number"),
    (lambda: PiecewiseGlue(Power(1.0), math.inf), "'t_star' of 'glue' must be a finite number"),
    (lambda: Power("x"), "'r' of 'power' must be a finite number, got 'x'$"),
    (lambda: Power(True), "'r' of 'power' must be a finite number, got True$"),
    (lambda: Power(np.bool_(True)), "'r' of 'power' must be a finite number, got np.True_$"),
    (lambda: Power(np.float32("inf")), r"'r' of 'power' must be a finite number, got np.float32\(inf\)$"),
    (lambda: ExprPower(None, 2.0), "'inner' of 'expr_power' takes weight trees, got None$"),
    (lambda: Product(Power(1.0), 3.0), "'args' of 'product' takes weight trees, got 3.0$"),
    (lambda: ComposeRatio(PiecewiseGlue(Power(1.0)), Power(1.0), "x"),
     "'den' of 'compose_ratio' takes weight trees, got 'x'$"),
    (lambda: Power("x" * 5000), "'r' of 'power' must be a finite number, got '" + "x" * 35 + "...$"),
    (lambda: Scale(0.0), r"'c' of 'scale' must be > 0.0, got 0.0$"),
    (lambda: Scale(-5e-324), r"'c' of 'scale' must be > 0.0, got -5e-324$"),
    (lambda: IterLogPower(0, 1.0), "'depth' of 'iter_log' must be >= 1, got 0$"),
    (lambda: IterLogPower(-1e300, 1.0),
     "'depth' of 'iter_log' must be >= 1, got -10000000000000000525047602552044202...$"),
    (lambda: OscPower(0.0, 0.0, 0.5), "'delta' of 'osc_power' must be > 0.0, got 0.0$"),
    (lambda: OscPower(0.0, 0.1, 0.0), "'lam' of 'osc_power' must be > 0.0, got 0.0$"),
    (lambda: OscPower(0.0, 0.1, 1.5), "'lam' of 'osc_power' must be <= 1.0, got 1.5$"),
    (lambda: OscPower(0.0, 0.1, math.nextafter(1.0, 2.0)),
     "'lam' of 'osc_power' must be <= 1.0, got 1.0000000000000002$"),
    (lambda: PowerCompose(Power(1.0), 0.0), "'theta' of 'power_compose' must be > 0.0, got 0.0$"),
    (lambda: PiecewiseGlue(Power(1.0), 0.5), "'t_star' of 'glue' must be >= 1.0, got 0.5$"),
    (lambda: PiecewiseGlue(Power(1.0), math.nextafter(1.0, 0.0)),
     "'t_star' of 'glue' must be >= 1.0, got 0.9999999999999999$"),
], ids=["power-inf", "power-derived", "scale-nan", "iter-log-k", "iter-log-depth", "osc-theta",
        "osc-delta", "compose-theta", "expr-power-a", "glue-t-star", "power-str", "power-bool",
        "power-numpy-bool", "power-float32-inf", "expr-power-none", "product-number",
        "compose-ratio-str", "power-long-str", "scale-0", "scale-negative", "iter-log-depth-0",
        "iter-log-depth-huge", "osc-delta-0", "osc-lam-0", "osc-lam-1.5", "osc-lam-above-1",
        "compose-theta-0", "glue-t-star-0.5", "glue-t-star-below-1"])
def test_a_node_refuses_a_parameter_that_is_not_a_finite_double(build, match):
    # every field is checked from its declaration, for a tree built in code as for JSON
    with pytest.raises(ConstraintError, match=f"^field {match}"):
        build()


@pytest.mark.parametrize("build", [
    lambda: Scale(5e-324), lambda: IterLogPower(1, 0.0), lambda: OscPower(0.0, 5e-324, 1.0),
    lambda: OscPower(0.0, 0.1, 5e-324), lambda: PowerCompose(Power(1.0), 5e-324),
    lambda: PiecewiseGlue(Power(1.0), 1.0),
], ids=["scale", "iter-log", "osc-delta", "osc-lam", "compose-theta", "glue-t-star"])
def test_a_node_accepts_each_bound_at_its_edge(build):
    build()


def test_every_number_field_declares_its_domain():
    """Each node field is a tree, a tail of trees or a number; a number's bounds are in its metadata."""
    assert {f.type for cls in WEIGHT_NODES for f in fields(cls)} \
        == {"int", "float", "WeightExpr", "tuple[WeightExpr, ...]"}
    domains = {(cls.op, f.name): dict(f.metadata) for cls in WEIGHT_NODES for f in fields(cls)
               if f.type in ("int", "float")}
    assert {k: v for k, v in domains.items() if v} == {
        ("scale", "c"): {">": 0.0}, ("iter_log", "depth"): {">=": 1},
        ("osc_power", "delta"): {">": 0.0}, ("osc_power", "lam"): {">": 0.0, "<=": 1.0},
        ("power_compose", "theta"): {">": 0.0}, ("glue", "t_star"): {">=": 1.0},
    }
    assert not any("__post_init__" in vars(cls) for cls in WEIGHT_NODES if cls is not ComposeRatio)


def test_numpy_scalars_build_the_same_tree_bit_for_bit():
    tree = OscPower(np.float64(0.25), np.float32(0.5), np.float64(1.0))
    assert tree == OscPower(0.25, 0.5, 1.0) and type(tree.delta) is float
    assert IterLogPower(np.int64(2), np.int8(-1)) == IterLogPower(2, -1.0)
    assert type(IterLogPower(np.int64(2), 1.0).depth) is int


def test_a_node_owns_the_number_rules_the_json_layer_leaves_to_it():
    with pytest.raises(ConstraintError, match="^field 'depth' of 'iter_log' must be an integer, got 1.5$"):
        IterLogPower(1.5, 1.0)
    with pytest.raises(ConstraintError, match="^field 'depth' of 'iter_log' must be >= 1, got 0$"):
        IterLogPower(0, 1.0)
    assert type(IterLogPower(2.0, 1).depth) is int and type(IterLogPower(2.0, 1).k) is float
    assert repr(Power(2)) == repr(weight_from_json({"op": "power", "r": 2})) \
        == '{"op": "power", "r": 2.0}'


def test_derived_exponents_that_overflow_are_refused_by_name(monkeypatch):
    monkeypatch.setattr(weights, "dyadic_integral_test", lambda omega: pytest.fail("decided"))
    with pytest.raises(ConstraintError, match="^requires -2s finite; got s=1e\\+308$"):
        embed_nikolskii(Power(1.0), 1e308)  # the summand exponent -2 s
    with pytest.raises(ConstraintError, match=r"^requires r1 - r0 and 1/\(r1 - r0\) finite; "
                                              r"got r0=-1e\+308, r1=1e\+308$"):
        interp_param(Power(1.0), -1e308, 1e308)  # theta = 1/(r1 - r0) would read 0
    with pytest.raises(ConstraintError, match=r"^requires s1 - s0 finite; got s0=-1e\+308, s1=1e\+308$"):
        eta_construct(Power(-0.5), -1e308, 1e308, 0.0)  # theta = (s1 - lam)/(s1 - s0) would read 0
    with pytest.raises(ConstraintError, match="^2p \\+ n must be a finite double, got an integer of 309 digits$"):
        embed_hormander(Power(1.0), 10**308, 1)  # float(2 p + n) would raise OverflowError
    with pytest.raises(ConstraintError, match="^2p \\+ n must be a finite double, got inf$"):
        embed_hormander(Power(1.0), 1e308, 1)


def test_a_power_of_order_1e308_is_decided_without_a_warning():
    est = indices(Power(1e308))
    assert math.isnan(est["sigma0_win"]) and math.isnan(est["sigma1_win"])  # not inf above -inf
    assert (est["sigma0_sym"], est["sigma1_sym"]) == (1e308, 1e308)
    assert math.isnan(check_or_window(Power(1e308), 2.0)["c_est"])
    assert embed_nikolskii(Power(1e308), -0.5).verdict == "diverges"
    assert embed_hormander(Power(1e308), 0, 1).verdict == "converges"
    assert dyadic_integral_test(IterLogPower(1, -1e308)).verdict != "converges"  # 0/0 term ratios


def test_json_accepts_integral_float_depth():
    assert weight_from_json({"op": "iter_log", "depth": 2.0, "k": 1}) == IterLogPower(2, 1.0)


def _iter_log_every_iteration(u, depth, k):
    """``IterLogPower.log_value`` as it reads without an early exit: all depth - 1 iterations."""
    v = np.asarray(u, dtype=float)
    glued = v <= 1.0
    for _ in range(depth - 1):
        v = np.log(np.where(glued, math.e, v))
        glued = glued | (v <= 1.0)
    return np.where(glued, 0.0, k * np.log(np.where(glued, math.e, v)))


ITER_LOG_GRID = np.array([-np.inf, -1.0, 0.0, 1.0, 1.5, math.e, 15.2, 709.0, 1e300,
                          sys.float_info.max, np.inf, np.nan])


@pytest.mark.parametrize("depth", [1, 2, 3, 4, 5, 6, 8])
def test_iter_log_stops_early_bit_for_bit(depth):
    got = IterLogPower(depth, -1.0).log_value(ITER_LOG_GRID)
    assert got.tobytes() == _iter_log_every_iteration(ITER_LOG_GRID, depth, -1.0).tobytes()


def test_iter_log_of_depth_1e9_stops_once_every_point_is_glued():
    """Every finite point is glued within four iterated logs, and ±inf and NaN stay put, so depth
    10**9 is depth 6 to the bit, and ends at once."""
    alpha = IterLogPower(10**9, -1.0)
    t0 = time.perf_counter()
    got = alpha.log_value(ITER_LOG_GRID)
    embed_nikolskii(alpha, -0.5)
    assert time.perf_counter() - t0 < 1.0
    assert got.tobytes() == _iter_log_every_iteration(ITER_LOG_GRID, 6, -1.0).tobytes()


def _power_chain(nodes: int) -> dict:
    tree = {"op": "power", "r": 1.0}
    for _ in range(nodes - 1):
        tree = {"op": "expr_power", "inner": tree, "a": 1.0}
    return tree


@pytest.mark.parametrize("tree,power", [  # each tree is t ** power
    pytest.param(_power_chain, 1, id="chain"),
    pytest.param(lambda n: {"op": "product", "args": [_power_chain(n - 1)] * 3}, 3, id="product"),
])
def test_weight_json_nested_past_max_depth_is_refused_by_name(tree, power):
    assert weight_from_json(tree(weights.MAX_DEPTH)).eval(2.0) == pytest.approx(2.0**power)
    with pytest.raises(ConstraintError,
                       match=f"^weight JSON is nested deeper than {weights.MAX_DEPTH} nodes$"):
        weight_from_json(tree(weights.MAX_DEPTH + 1))
