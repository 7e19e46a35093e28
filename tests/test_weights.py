import json
import math
from dataclasses import fields
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gensob.weights import (
    ComposeRatio,
    ConstraintError,
    DomainError,
    ExprPower,
    IterLogPower,
    OscPower,
    PiecewiseGlue,
    Power,
    PowerCompose,
    Product,
    WEIGHT_NODES,
    Scale,
    WindowGrid,
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
    with pytest.raises(DomainError):
        Power(1.0).eval(0.5)


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
    assert est.sigma0_win <= est.sigma1_win
    assert abs(est.sigma0_win - est.sigma0_sym) <= 0.05
    assert abs(est.sigma1_win - est.sigma1_sym) <= 0.05


def test_window_estimate_brackets_symbolic():
    est = indices(Product(Power(1.0), IterLogPower(1, 1.0)), window=(1e6, 1e10))
    # positive log factor pushes finite-window slopes above the symbolic index
    assert est.sigma1_win >= est.sigma1_sym


# ---------------------------------------------------------------------------
# bounded-ratio window check
# ---------------------------------------------------------------------------


def test_or_check_power_closed_form():
    # exact ratio lambda^r, so the window constant is b^|r|
    for r, b in [(2.0, 2.0), (-1.5, 3.0)]:
        res = check_or_window(Power(r), b)
        assert res.c_est == pytest.approx(b ** abs(r), rel=1e-12)
        assert res.verdict == "pass"


def test_or_check_constant_weight():
    res = check_or_window(Scale(7.0), 2.0)
    assert res.c_est == 1.0
    assert res.verdict == "pass"


def test_or_check_osc():
    res = check_or_window(OscPower(0.0, 1.0, 0.5), 2.0, WindowGrid(t_max=1e8))
    assert res.verdict == "pass"
    assert np.isfinite(res.c_est)


def test_or_check_rejects_violating_callback():
    res = check_or_window(lambda t: t ** np.log(t), 2.0, WindowGrid(t_max=1e8))
    assert res.verdict == "fail"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_callback_returning_non_finite_values_rejected(bad):
    with pytest.raises(DomainError, match="finite"):
        indices(lambda t: np.full_like(t, bad))
    with pytest.raises(DomainError, match="finite"):
        check_or_window(lambda t: np.where(np.asarray(t) > 1e3, bad, 1.0), 2.0)


def test_or_check_accepts_tame_callback():
    res = check_or_window(lambda t: np.asarray(t) ** 1.5, 2.0)
    assert res.verdict == "pass"


def test_or_check_c_cap():
    assert check_or_window(Power(2.0), 2.0, c_cap=3.0).verdict == "fail"
    assert check_or_window(Power(1.0), 2.0, c_cap=3.0).verdict == "pass"


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
        assert np.all(ratio <= res.c_est * 1.02)
        assert np.all(ratio >= 1.02**-1 / res.c_est)


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


def test_embed_nikolskii_remark_weight():
    s = -0.5
    for eps, expected in [(0.5, "converges"), (0.0, "diverges")]:
        alpha = Product(Power(s), IterLogPower(1, -eps - 0.5))
        res = embed_nikolskii(alpha, s)
        assert res.verdict == expected
    assert embed_nikolskii(Product(Power(s), IterLogPower(1, -1.0)), s).constant is not None


def test_embed_nikolskii_geometric_closed_form():
    # alpha = t^(s-0.1): the dyadic sum is geometric with ratio 4^-0.1
    s = -0.3
    res = embed_nikolskii(Power(s - 0.1), s)
    closed = 1.0 / (1.0 - 4.0**-0.1)
    assert res.verdict == "converges"
    assert res.constant <= closed <= res.constant + res.tail_bound * (1.0 + 1e-9)
    assert res.constant == pytest.approx(closed, rel=1e-3)


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
    back = weight_from_json(json.dumps(weight_to_json(tree)))
    assert np.allclose(back.eval(TS), tree.eval(TS), rtol=1e-15)


def test_json_product_flattens_to_args_list():
    tree = Product(Power(1.0), Product(Scale(2.0), IterLogPower(1, 1.0)))
    doc = weight_to_json(tree)
    assert doc["op"] == "product"
    assert len(doc["args"]) == 3


def test_json_rejects_unknown_op():
    with pytest.raises(ValueError, match="unknown weight op"):
        weight_from_json({"op": "exp", "r": 1.0})


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
    ('{"op": "power", "r": NaN}', "'r' of 'power' must be a finite number"),
    ({"op": "power", "r": 10**400}, "'r' of 'power' must be a finite number"),
    ({"op": "power", "r": 10**5000}, "'r' of 'power' must be a finite number, got an integer of 5001 digits"),
    ({"op": "iter_log", "depth": 10**5000, "k": 1}, "'depth' of 'iter_log' must be a finite number"),
])
def test_json_names_the_bad_field(obj, match):
    with pytest.raises(ValueError, match=match):
        weight_from_json(obj)


def test_weight_schema_matches_node_registry():
    text = resources.files("gensob").joinpath("schemas/weight_expr_schema.json").read_text()
    defs = json.loads(text)["$defs"]
    variants = {ref["$ref"].removeprefix("#/$defs/") for ref in defs.pop("expr")["oneOf"]}
    ops = {cls.op for cls in WEIGHT_NODES}
    assert len(ops) == len(WEIGHT_NODES)
    assert variants == set(defs) == ops
    json_type = {"int": {"type": "integer"}, "float": {"type": "number"},
                 "WeightExpr": {"$ref": "#/$defs/expr"}}
    for cls in WEIGHT_NODES:
        node = defs[cls.op]
        names = ["args"] if cls is Product else [f.name for f in fields(cls)]
        assert node["required"] == ["op", *names]
        assert list(node["properties"]) == ["op", *names]
        assert node["properties"]["op"] == {"const": cls.op}
        if cls is not Product:
            for f in fields(cls):
                prop = node["properties"][f.name]
                assert {k: prop[k] for k in json_type[f.type]} == json_type[f.type], (cls.op, f.name)


def test_json_accepts_integral_float_depth():
    assert weight_from_json({"op": "iter_log", "depth": 2.0, "k": 1}) == IterLogPower(2, 1.0)
