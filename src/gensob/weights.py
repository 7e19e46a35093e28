"""Calculus of O-regularly varying weight functions.

A weight is a positive Borel function on [1, inf) whose ratios
``alpha(lam*t)/alpha(t)`` stay within a fixed band while ``lam`` runs over a
bounded window; equivalently the ratio is pinched between two power laws,
and the best power-law exponents are the lower/upper Matuszewska indices.
Weights are immutable expression trees over a small primitive set, every
function here takes a tree, and every evaluation happens in log-space so
arguments up to ~1e300 stay finite.  Each node class declares its JSON
``op``; its dataclass fields are exactly the JSON fields (a field that holds
a tuple of trees is the node's variadic tail, a JSON list), and
``WEIGHT_NODES`` is the registry that ``weight_from_json`` reads, so every
tree survives its JSON round trip unchanged.

Provided here:

* evaluation, symbolic index rules, and finite-window index estimation,
* a finite-window estimate of the ratio constant (``check_or_window``; trees
  are O-regular by construction, so it fails only when the estimate is not finite),
* construction of interpolation parameters from a weight and a bracketing
  pair of Sobolev orders (``interp_param``) and the closure operation that
  recovers a weight from a parameter (``compose_param``),
* the auxiliary exponent function splitting a rough weight against a pair of
  orders (``eta_construct``),
* dyadic deciders for the convergence of ``int_1^inf omega(t)/t dt`` and the
  embedding constants derived from such sums (``dyadic_integral_test``,
  ``embed_hormander``, ``embed_nikolskii``).

Symbolic index rule table (exactness over generality):
``Power(r) -> (r, r)``; ``IterLogPower -> (0, 0)``; ``Scale -> (0, 0)``;
``OscPower(theta, delta, lam) -> (theta - delta, theta + delta)`` for
``lam < 1`` and ``(theta - sqrt(2) delta, theta + sqrt(2) delta)`` for
``lam = 1``; ``PowerCompose`` multiplies both indices by its exponent;
the n-ary ``Product``, folded left to right, adds indices only when at most
one factor has unequal indices (Matuszewska indices are not additive in
general); ``ExprPower`` scales and, for negative exponents, swaps them.
Trees not covered report ``None``.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import sys
from dataclasses import dataclass, fields

import numpy as np

LOG2 = math.log(2.0)
K_MAX = 60  # length of the dyadic sums in the embedding deciders
_SQRT2 = math.sqrt(2.0)


class DomainError(ValueError):
    """Evaluation outside the weight's domain."""


class ConstraintError(ValueError):
    """A stated precondition is provably violated."""


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------


class WeightExpr:
    """Base class for weight expression trees.

    Instances are immutable and safe to share across threads.  ``eval``
    accepts scalars or numpy arrays; ``log_value`` maps u = log(t) to
    log(alpha(t)) and is the primitive every node implements.
    """

    #: smallest admissible argument (1.0, or 0.0 for glue-extended trees)
    domain_min = 1.0

    def __post_init__(self):
        # refuses a parameter that is not a finite double, read from JSON or derived (-2 s)
        for f in fields(self):
            val = getattr(self, f.name)
            if f.type in (_TREE, _TREES):
                continue
            if not abs(val) <= sys.float_info.max:  # compares a huge int exactly
                raise ConstraintError(f"field {f.name!r} of {self.op!r} must be a finite number, "
                                      f"got {_show(val)}")
            if f.type == "float":
                object.__setattr__(self, f.name, float(val))

    def log_value(self, u):
        raise NotImplementedError

    def symbolic_indices(self):
        """Exact (sigma0, sigma1) per the rule table, or None."""
        return None

    def eval(self, t):
        arr = np.asarray(t, dtype=float)
        if self.domain_min > 0.0:
            if np.any(arr < self.domain_min * (1.0 - 1e-12)):
                raise DomainError(
                    f"weight defined for t >= {self.domain_min}, got {np.min(arr)}"
                )
        elif np.any(arr <= 0.0):
            raise DomainError("glued weight defined for t > 0")
        # values beyond double range saturate to inf (inf - inf in a log-value reads NaN);
        # ratios and indices are computed from log_value directly and never overflow
        with np.errstate(over="ignore", invalid="ignore"):
            out = np.exp(self.log_value(np.log(np.maximum(arr, np.finfo(float).tiny))))
        return float(out) if np.ndim(t) == 0 else out

    def __repr__(self):
        return json.dumps(weight_to_json(self))


@dataclass(frozen=True, repr=False)
class Power(WeightExpr):
    """t ** r."""

    op = "power"
    r: float

    def log_value(self, u):
        return self.r * np.asarray(u, dtype=float)

    def symbolic_indices(self):
        return (self.r, self.r)


@dataclass(frozen=True, repr=False)
class Scale(WeightExpr):
    """The constant weight c > 0."""

    op = "scale"
    c: float

    def __post_init__(self):
        super().__post_init__()
        if not self.c > 0.0:
            raise ConstraintError("Scale requires c > 0")

    def log_value(self, u):
        return np.asarray(u, dtype=float) * 0.0 + math.log(self.c)

    def symbolic_indices(self):
        return (0.0, 0.0)


@dataclass(frozen=True, repr=False)
class IterLogPower(WeightExpr):
    """(log o ... o log t) ** k, depth-fold, glued to 1 below the tower point.

    The glue point is e for depth 1, e**e for depth 2, and so on; the j-fold
    iterated logarithm equals 1 there, so the glue is continuous (not smooth).
    """

    op = "iter_log"
    depth: int
    k: float

    def __post_init__(self):
        super().__post_init__()
        if int(self.depth) != self.depth:
            raise ConstraintError(f"field 'depth' of 'iter_log' must be an integer, "
                                  f"got {self.depth!r}")
        if self.depth < 1:
            raise ConstraintError("IterLogPower requires integer depth >= 1")
        object.__setattr__(self, "depth", int(self.depth))  # 1.0 evaluates as 1 does

    def log_value(self, u):
        v = np.asarray(u, dtype=float)
        glued = v <= 1.0
        for _ in range(self.depth - 1):
            v = np.log(np.where(glued, math.e, v))
            glued = glued | (v <= 1.0)
        return np.where(glued, 0.0, self.k * np.log(np.where(glued, math.e, v)))

    def symbolic_indices(self):
        return (0.0, 0.0)


@dataclass(frozen=True, repr=False)
class OscPower(WeightExpr):
    """t ** (theta + delta * sin((log log t) ** lam)) for t > e, t ** theta below.

    The two Matuszewska indices genuinely differ here; lam > 1 would leave the
    bounded-ratio class entirely and is rejected.
    """

    op = "osc_power"
    theta: float
    delta: float
    lam: float

    def __post_init__(self):
        super().__post_init__()
        if not self.delta > 0.0:
            raise ConstraintError("OscPower requires delta > 0")
        if not 0.0 < self.lam <= 1.0:
            raise ConstraintError("OscPower requires lam in (0, 1]; larger lam is not O-regular")

    def log_value(self, u):
        u = np.asarray(u, dtype=float)
        inner = np.log(np.maximum(u, 1.0)) ** self.lam
        expo = np.where(u <= 1.0, self.theta, self.theta + self.delta * np.sin(inner))
        return expo * u

    def symbolic_indices(self):
        spread = _SQRT2 * self.delta if self.lam == 1.0 else self.delta
        return (self.theta - spread, self.theta + spread)


@dataclass(frozen=True, repr=False, init=False)
class Product(WeightExpr):
    """args[0](t) * args[1](t) * ..., two or more factors multiplied left to right."""

    op = "product"
    args: tuple[WeightExpr, ...]

    def __init__(self, *args):
        if len(args) < 2:
            raise ConstraintError(f"Product needs at least two factors, got {len(args)}")
        object.__setattr__(self, "args", args)

    @property
    def domain_min(self):
        return max(f.domain_min for f in self.args)

    def log_value(self, u):
        return functools.reduce(operator.add, (f.log_value(u) for f in self.args))

    def symbolic_indices(self):
        a = self.args[0].symbolic_indices()
        for f in self.args[1:]:
            b = f.symbolic_indices()
            # additivity is exact only if one of the two has equal indices
            if a is None or b is None or not (a[0] == a[1] or b[0] == b[1]):
                return None
            a = (a[0] + b[0], a[1] + b[1])
        return a


@dataclass(frozen=True, repr=False)
class PowerCompose(WeightExpr):
    """t -> inner(t ** theta) with theta > 0."""

    op = "power_compose"
    inner: WeightExpr
    theta: float

    def __post_init__(self):
        super().__post_init__()
        if not self.theta > 0.0:
            raise ConstraintError("PowerCompose requires theta > 0")

    @property
    def domain_min(self):
        return self.inner.domain_min ** (1.0 / self.theta)

    def log_value(self, u):
        return self.inner.log_value(self.theta * np.asarray(u, dtype=float))

    def symbolic_indices(self):
        s = self.inner.symbolic_indices()
        if s is None:
            return None
        return (self.theta * s[0], self.theta * s[1])


@dataclass(frozen=True, repr=False)
class ExprPower(WeightExpr):
    """inner(t) ** a (pointwise power of a weight)."""

    op = "expr_power"
    inner: WeightExpr
    a: float

    @property
    def domain_min(self):
        return self.inner.domain_min

    def log_value(self, u):
        return self.a * self.inner.log_value(u)

    def symbolic_indices(self):
        s = self.inner.symbolic_indices()
        if s is None:
            return None
        lo, hi = self.a * s[0], self.a * s[1]
        return (lo, hi) if self.a >= 0 else (hi, lo)


@dataclass(frozen=True, repr=False)
class PiecewiseGlue(WeightExpr):
    """inner(max(t, t_star)); constant inner(t_star) below the boundary.

    Extends the domain to all t > 0, which is how interpolation parameters
    acquire their constant branch below 1.
    """

    op = "glue"
    inner: WeightExpr
    t_star: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not self.t_star >= 1.0:
            raise ConstraintError("PiecewiseGlue requires t_star >= 1")

    domain_min = 0.0

    def log_value(self, u):
        return self.inner.log_value(np.maximum(np.asarray(u, dtype=float), math.log(self.t_star)))

    def symbolic_indices(self):
        return self.inner.symbolic_indices()


@dataclass(frozen=True, repr=False)
class ComposeRatio(WeightExpr):
    """t -> outer(num(t) / den(t)).

    The ratio may fall below 1, so the outer tree must be defined on (0, inf);
    wrap it in PiecewiseGlue if it is not.
    """

    op = "compose_ratio"
    outer: WeightExpr
    num: WeightExpr
    den: WeightExpr

    def __post_init__(self):
        if self.outer.domain_min > 0.0:
            raise ConstraintError(
                "ComposeRatio outer must be defined on (0, inf); wrap it in PiecewiseGlue"
            )

    @property
    def domain_min(self):
        return max(self.num.domain_min, self.den.domain_min)

    def log_value(self, u):
        u = np.asarray(u, dtype=float)
        return self.outer.log_value(self.num.log_value(u) - self.den.log_value(u))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

#: the serializable node classes; each declares its JSON ``op``, and its
#: dataclass fields are the JSON fields in order
WEIGHT_NODES = (Power, Scale, IterLogPower, OscPower, Product, PowerCompose, ExprPower,
                PiecewiseGlue, ComposeRatio)
_TREE, _TREES = "WeightExpr", "tuple[WeightExpr, ...]"  # a subtree; a variadic tail of them


def weight_to_json(expr: WeightExpr) -> dict:
    """Serializable dict form of a weight tree; :func:`weight_from_json` reads it back."""
    if not isinstance(expr, WEIGHT_NODES):
        raise TypeError(f"unknown weight node {type(expr).__name__}")
    out = {"op": expr.op}
    for f in fields(expr):
        val = getattr(expr, f.name)
        if f.type == _TREE:
            val = weight_to_json(val)
        elif f.type == _TREES:
            val = [weight_to_json(v) for v in val]
        out[f.name] = val
    return out


def _show(val) -> str:
    """A rejected JSON value for an error message; an integer too long to repr gives its length."""
    if isinstance(val, int) and abs(val) > sys.float_info.max:
        return f"an integer of {math.floor(math.log10(abs(val))) + 1} digits"
    return repr(val)


def _json_field(op: str, f, obj: dict):
    """Field ``f`` of node ``op`` read from ``obj``: tree(s) or a number, which the node checks."""
    if f.name not in obj:
        raise ValueError(f"weight op {op!r} is missing field {f.name!r}")
    val = obj[f.name]
    if f.type == _TREE:
        return weight_from_json(val)
    if f.type == _TREES:
        if not isinstance(val, list):
            raise ValueError(f"field {f.name!r} of {op!r} must be a list of weights")
        return [weight_from_json(v) for v in val]
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        raise ValueError(f"field {f.name!r} of {op!r} must be a finite number, got {_show(val)}")
    return val


def weight_from_json(obj: dict) -> WeightExpr:
    """Parse the dict form produced by :func:`weight_to_json` (a parsed JSON object)."""
    if not isinstance(obj, dict) or "op" not in obj:
        raise ValueError("weight JSON must be an object with an 'op' field")
    op = obj["op"]
    cls = next((c for c in WEIGHT_NODES if c.op == op), None)
    if cls is None:
        raise ValueError(f"unknown weight op {_show(op)}")
    names = [f.name for f in fields(cls)]
    unknown = [key for key in obj if key != "op" and key not in names]
    if unknown:
        raise ValueError(f"weight op {op!r} has unknown fields {unknown}")
    args = []
    for f in fields(cls):  # a variadic tail is splatted
        val = _json_field(op, f, obj)
        args += val if f.type == _TREES else [val]
    return cls(*args)


# ---------------------------------------------------------------------------
# index estimation and the bounded-ratio window check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexEstimate:
    sigma0_sym: float | None
    sigma1_sym: float | None
    sigma0_win: float
    sigma1_win: float
    window: tuple
    lambda_max: float


@dataclass(frozen=True)
class OrCheckResult:
    b: float
    c_est: float
    window: tuple
    verdict: str  # "fail" only when c_est is not finite: trees are O-regular by construction
    segment_max: tuple


def _log_ratios(alpha: WeightExpr, t_min, t_max, n_t, lams) -> list:
    """(log lam, log(alpha(lam t)/alpha(t))) on a log grid of n_t points t in [t_min, t_max],
    one pair per lam; lam = 1 is skipped, as its ratio is 1 by definition.  The window is
    checked here for both callers."""
    if not 1.0 <= t_min < t_max:
        raise ConstraintError("window must satisfy 1 <= t_min < t_max")
    u = np.log(np.geomspace(t_min, t_max, n_t))
    with np.errstate(over="ignore", invalid="ignore"):  # a log-ratio past the double range: NaN
        base = alpha.log_value(u)
        return [(dl, alpha.log_value(u + dl) - base) for dl in map(math.log, lams) if dl != 0.0]


def indices(alpha: WeightExpr, window=(1e4, 1e12), lambda_max=16.0) -> IndexEstimate:
    """Symbolic Matuszewska indices plus finite-window estimates.

    The window estimate for the lower/upper index is the min/max over 16 log-spaced
    ratio scales lam <= lambda_max of the inf/sup over 96 log-spaced t in the window
    of log(alpha(lam t)/alpha(t)) / log(lam).  On power-log trees the window values
    approach the symbolic ones as the window moves out; the oscillating family
    traverses its range only at astronomical t, so for it the symbolic table is
    authoritative and the window values are merely what the window saw.
    """
    if not lambda_max > 1.0:
        raise ConstraintError("lambda_max must exceed 1")
    sym = alpha.symbolic_indices()
    lams = np.geomspace(lambda_max ** (1.0 / 16), lambda_max, 16)
    lo, hi = math.inf, -math.inf
    for dl, log_ratio in _log_ratios(alpha, window[0], window[1], 96, lams):
        h = log_ratio / dl
        lo = float(np.minimum(lo, h.min()))  # np.minimum keeps a NaN that min() would drop
        hi = float(np.maximum(hi, h.max()))
    return IndexEstimate(
        sigma0_sym=None if sym is None else sym[0],
        sigma1_sym=None if sym is None else sym[1],
        sigma0_win=lo,
        sigma1_win=hi,
        window=(float(window[0]), float(window[1])),
        lambda_max=float(lambda_max),
    )


def check_or_window(alpha: WeightExpr, b, t_min=1.0, t_max=1e8) -> OrCheckResult:
    """Estimate the ratio constant of a weight tree on a window.

    ``c_est`` is the sampled max of max(ratio, 1/ratio) over 241 log-spaced t
    in the window [t_min, t_max] and 17 log-spaced lam in [1, b]; lam = 1
    adds nothing, so 16 ratio scales enter.  ``segment_max`` is the same max
    over each of 8 consecutive segments of the window.  Trees built from the
    primitives are O-regular by construction, so only a c_est of inf or NaN fails.
    """
    if not b > 1.0:
        raise ConstraintError("b must exceed 1")
    worst = np.zeros(241)
    for _, log_ratio in _log_ratios(alpha, t_min, t_max, 241, np.geomspace(1.0, b, 17)):
        worst = np.maximum(worst, np.abs(log_ratio))
    with np.errstate(over="ignore"):  # a constant past the largest double reads inf
        seg_max = tuple(float(np.exp(s.max())) for s in np.array_split(worst, 8))
        c_est = float(np.exp(worst.max()))
    return OrCheckResult(b=float(b), c_est=c_est, window=(t_min, t_max),
                         verdict="pass" if math.isfinite(c_est) else "fail", segment_max=seg_max)


# ---------------------------------------------------------------------------
# interpolation parameters
# ---------------------------------------------------------------------------


def interp_param(alpha: WeightExpr, r0: float, r1: float) -> WeightExpr:
    """Interpolation parameter of a weight between bracketing orders r0 < r1.

    Returns the tree for psi(t) = t^(-r0/(r1-r0)) * alpha(t^(1/(r1-r0))) on
    t >= 1, extended by the constant alpha(1) below 1.  Requires
    r0 < sigma0(alpha) and r1 > sigma1(alpha) whenever the symbolic indices
    exist; with indices unavailable the caller asserts the bracketing.
    """
    if not r0 < r1:
        raise ConstraintError(f"requires r0 < r1; got r0={r0}, r1={r1}")
    sym = alpha.symbolic_indices()
    if sym is not None:
        if not r0 < sym[0]:
            raise ConstraintError(f"requires r0 < sigma0(alpha); got r0={r0}, sigma0={sym[0]}")
        if not r1 > sym[1]:
            raise ConstraintError(f"requires r1 > sigma1(alpha); got r1={r1}, sigma1={sym[1]}")
    gap = r1 - r0
    if not (math.isfinite(gap) and math.isfinite(1.0 / gap)):  # else theta = 1/gap is 0 or inf
        raise ConstraintError(f"requires r1 - r0 and 1/(r1 - r0) finite; got r0={r0}, r1={r1}")
    body = Product(Power(-r0 / gap), PowerCompose(alpha, 1.0 / gap))
    return PiecewiseGlue(body, 1.0)


def compose_param(alpha0: WeightExpr, alpha1: WeightExpr, psi: WeightExpr) -> WeightExpr:
    """Weight recovered from a parameter: t -> alpha0(t) * psi(alpha1(t)/alpha0(t)).

    Requires alpha0/alpha1 bounded near infinity; rejected when the symbolic
    indices prove otherwise.  The parameter is glued to a constant below 1 if
    it is not already defined there.
    """
    s0, s1 = alpha0.symbolic_indices() or (None, None)
    t0, t1 = alpha1.symbolic_indices() or (None, None)
    if s0 is not None and t1 is not None and s0 > t1 + 1e-12:
        raise ConstraintError(
            "alpha0/alpha1 is provably unbounded near infinity: "
            f"sigma0(alpha0)={s0} > sigma1(alpha1)={t1}"
        )
    if psi.domain_min > 0.0:
        psi = PiecewiseGlue(psi, 1.0)
    return Product(alpha0, ComposeRatio(psi, alpha1, alpha0))


def eta_construct(phi: WeightExpr, s0: float, s1: float, lam: float):
    """Auxiliary exponent weight for a rough factor phi against orders (s0, s1).

    Returns ``(eta, theta)``.  When the upper index of phi is >= -1/2 the
    construction is eta(t) = t^((1-theta) s1) * phi(t^theta) with
    theta = (s1 - lam)/(s1 - s0) in [0, 1); otherwise eta(t) = t^lam and
    theta is None.  In either branch eta(t) equals
    t^lam * psi(t^(s1-lam)) for psi = interp_param(phi * t^(2q), s0+2q, s1+2q)
    with any order shift 2q, provided phi(1) = 1 (the constant branch of psi
    contributes the factor phi(1)).
    """
    sym = phi.symbolic_indices()
    if sym is None:
        raise ConstraintError(
            "eta_construct needs symbolic indices for phi; tree not covered by the rule table"
        )
    sig0, sig1 = sym
    if not s0 < sig0:
        raise ConstraintError(f"requires s0 < sigma0(phi); got s0={s0}, sigma0={sig0}")
    if not s1 > sig1:
        raise ConstraintError(f"requires s1 > sigma1(phi); got s1={s1}, sigma1={sig1}")
    if not math.isfinite(s1 - s0):  # else theta = (s1 - lam)/(s1 - s0) reads 0 or NaN
        raise ConstraintError(f"requires s1 - s0 finite; got s0={s0}, s1={s1}")
    if not lam > -0.5:
        raise ConstraintError(f"requires lam > -1/2; got lam={lam}")
    if sig1 >= -0.5:
        if not lam <= s1:
            raise ConstraintError(
                f"requires lam <= s1 when sigma1(phi) >= -1/2; got lam={lam}, s1={s1}"
            )
        if not lam > s0:
            raise ConstraintError(f"requires lam > s0; got lam={lam}, s0={s0}")
        theta = (s1 - lam) / (s1 - s0)
        if theta == 0.0:
            eta = Product(Power(s1), Scale(phi.eval(1.0)))
        else:
            eta = Product(Power((1.0 - theta) * s1), PowerCompose(phi, theta))
        return eta, theta
    if not s1 < -0.5:
        raise ConstraintError(f"requires s1 < -1/2 when sigma1(phi) < -1/2; got s1={s1}")
    return Power(lam), None


# ---------------------------------------------------------------------------
# dyadic convergence deciders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DyadicIntegralResult:
    verdict: str  # "converges" | "diverges" | "inconclusive"
    partial_sums: np.ndarray
    reason: str

    @property
    def converges(self):
        return self.verdict == "converges"


@dataclass(frozen=True)
class NikolskiiEmbedding(DyadicIntegralResult):
    constant: float | None
    tail_bound: float | None


def dyadic_integral_test(omega: WeightExpr) -> DyadicIntegralResult:
    """Decide int_1^inf omega(t)/t dt < inf via the dyadic sum of omega(2^k), k <= K_MAX.

    Symbolic shortcut: a negative upper index forces convergence, a positive
    lower index divergence.  Otherwise the dyadic partial sums are classified
    by a trend test: a sustained increment ratio a_{k+1}/a_k <= 1 - 1.25/(k+1)
    over the last quarter of terms fits a summable power model, while
    doubling increments S(m) - S(m/2) that fail to shrink indicate divergence.
    Borderline decay near 1/k is honestly reported as inconclusive.
    """
    ks = np.arange(K_MAX + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # past the double range: +-inf or NaN
        log_a = np.asarray(omega.log_value(ks * LOG2), dtype=float)
    a = np.exp(np.minimum(log_a, 700.0))
    sums = np.cumsum(a)
    sym = omega.symbolic_indices()
    if sym is not None:
        if sym[1] < 0.0:
            return DyadicIntegralResult("converges", sums, "upper index negative")
        if sym[0] > 0.0:
            return DyadicIntegralResult("diverges", sums, "lower index positive")
    if log_a[-1] > 690.0:
        return DyadicIntegralResult("diverges", sums, "terms exceed double range")
    q = (3 * K_MAX) // 4
    with np.errstate(divide="ignore", invalid="ignore"):  # terms that underflow to 0: NaN ratios
        ratio = a[q + 1 :] / a[q:-1]
    thresholds = 1.0 - 1.25 / (np.arange(q, K_MAX, dtype=float) + 1.0)
    if np.all(ratio <= thresholds):
        return DyadicIntegralResult(
            "converges", sums, "tail increments decay like k^-1.25 or faster"
        )
    d2 = sums[K_MAX] - sums[K_MAX // 2]
    d1 = sums[K_MAX // 2] - sums[K_MAX // 4]
    if d1 > 0.0 and d2 / d1 >= 0.99:
        return DyadicIntegralResult("diverges", sums, "doubling increments do not shrink")
    return DyadicIntegralResult("inconclusive", sums, "borderline decay at this window")


def embed_hormander(alpha: WeightExpr, p: int, n: int) -> DyadicIntegralResult:
    """Sup-norm embedding decider: convergence of int t^(2p+n-1) / alpha(t)^2 dt.

    Reduces to the dyadic test for omega(t) = t^(2p+n) * alpha(t)^-2.
    """
    if p < 0 or n < 1:
        raise ConstraintError("requires p >= 0 and n >= 1")
    if not abs(2 * p + n) <= sys.float_info.max:  # compares a huge int exactly
        raise ConstraintError(f"2p + n must be a finite double, got {_show(2 * p + n)}")
    omega = Product(Power(float(2 * p + n)), ExprPower(alpha, -2.0))
    return dyadic_integral_test(omega)


def embed_nikolskii(alpha: WeightExpr, s: float) -> NikolskiiEmbedding:
    """Embedding of the dyadic-sup space of order s into the alpha-weighted space.

    Decides convergence of sum_k alpha(2^k)^2 4^(-s k) (equivalently of
    int alpha(t)^2 t^(-2s-1) dt) and, in the convergent case, returns the
    truncated constant together with a model-based tail bound: the geometric
    tail a_last * rho / (1 - rho) alone when the upper symbolic index of the
    summand is negative and the tail ratio rho (observed, and at least 2^index)
    is below 1, else the k^-1.25 power model 4 * a_last * K_MAX.  When a term the
    bound reads (the last quarter of a_k, recovered from the partial sums) is not
    positive, as when it vanishes into the sums' rounding, ``tail_bound`` is None.
    """
    if not math.isfinite(-2.0 * s):
        raise ConstraintError(f"requires -2s finite; got s={s}")
    omega = Product(ExprPower(alpha, 2.0), Power(-2.0 * s))
    res = dyadic_integral_test(omega)
    if not res.converges:
        return NikolskiiEmbedding(res.verdict, res.partial_sums, res.reason, None, None)
    a = np.diff(res.partial_sums, prepend=0.0)
    q = (3 * K_MAX) // 4
    tail_bound = float(4.0 * a[-1] * K_MAX) if np.all(a[q:] > 0.0) else None
    sym = omega.symbolic_indices()
    if tail_bound is not None and sym is not None and sym[1] < 0.0:
        rho = max(float(np.max(a[q + 1 :] / a[q:-1])), 2.0 ** sym[1])
        if rho < 1.0:
            tail_bound = float(a[-1] * rho / (1.0 - rho))
    return NikolskiiEmbedding(res.verdict, res.partial_sums, res.reason,
                              float(res.partial_sums[-1]), tail_bound)
