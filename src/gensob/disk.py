"""Spectral Dirichlet solver on the unit disk with rough boundary data.

Every coefficient of a solution lives in one symmetric layout: index k + K
holds mode k, k = -K..K, where K = N/2 comes from the boundary data g.  A
solution stores the trace g_k verbatim and the source coefficients a_k of
f = sum a_k r^|k| e^(i k theta), the analytic basis for which Delta u_p = f
holds in closed form: u_p = sum p_k r^(|k|+2) e^(i k theta) with
p_k = a_k / (4(|k|+1)).  The harmonic part u_h = sum c_k r^|k| e^(i k theta)
has c = g - p.  Sources lie in the band of g, |m| <= K.

Interior norms of the harmonic part are surrogates through the boundary
trace: the Dirichlet problem has trivial kernel and cokernel on the disk,
so the harmonic part's alpha-weighted interior norm is equivalent to the
boundary norm with weight alpha(t)/sqrt(t), i.e.
``sum alpha(chi_k)^2 chi_k^-1 |c_k|^2``.  The particular part carries the
source-order weight chi_m^(2(lambda+2)).  The weight enters through one
read-only table per (alpha, K), ``_weight_table``, which the norms, the convergence
bound and the boundary data that ``alpha_decay_data`` builds read.
Every a-priori statement here is a boundedness test of ratios over
ensembles, never an absolute-constant claim.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .spectra import (SpectralField, _ascending, _check_size, _lattice_powers, _read_only,
                      _refuse_overflow, _refuse_weight, nikolskii_norm)
from .weights import (ConstraintError, ExprPower, Power, Product, WeightExpr, dyadic_integral_test,
                      embed_hormander)
from .noise import ensemble, sample_white_noise


# ---------------------------------------------------------------------------
# solution container
# ---------------------------------------------------------------------------


def _sym_index(arr: np.ndarray) -> int:
    return (len(arr) - 1) // 2


def _nonzero_modes(coeffs: np.ndarray) -> list:
    """(index, k, c_k) as Python numbers for the nonzero symmetric-layout coefficients."""
    k_max = _sym_index(coeffs)
    return [(int(i), int(i) - k_max, complex(coeffs[i])) for i in np.flatnonzero(coeffs != 0)]


@dataclass(frozen=True, eq=False)
class HarmonicSolution:
    """Disk solution in the symmetric layout: index k + K holds mode k, k = -K..K.

    Stored: the trace g (``trace_coeffs``), verbatim, so it stays exact rather than
    rebuilt as c + p, and the source a (``source_coeffs``).  Derived once, read-only:
    ``source_modes`` (the nonzero a_k), ``particular_coeffs`` p and ``boundary_coeffs``
    c = g - p.
    """

    trace_coeffs: np.ndarray
    source_coeffs: np.ndarray

    def __post_init__(self):
        if len(self.trace_coeffs) % 2 != 1 or len(self.trace_coeffs) != len(self.source_coeffs):
            raise ConstraintError("coefficient arrays must share an odd symmetric length")
        self.trace_coeffs.setflags(write=False)
        self.source_coeffs.setflags(write=False)

    @property
    def k_max(self) -> int:
        return _sym_index(self.trace_coeffs)

    @functools.cached_property
    def source_modes(self) -> list:
        return _nonzero_modes(self.source_coeffs)

    @functools.cached_property
    def particular_coeffs(self) -> np.ndarray:
        p = np.zeros_like(self.source_coeffs)
        for i, k, a in self.source_modes:
            p[i] = a / (4.0 * (abs(k) + 1.0))
        return _read_only(p)

    @functools.cached_property
    def boundary_coeffs(self) -> np.ndarray:
        return _read_only(self.trace_coeffs - self.particular_coeffs)


def _check_terms(f_terms, k_max: int) -> tuple:
    """(m, a) source terms: each m a finite integer in the band |m| <= k_max, given once,
    and each amplitude a finite, with |a| < 2^512 so that the norms can square it.  Checked
    before anything is allocated."""
    terms, seen = [], set()
    for m, a in f_terms:
        if not isinstance(m, numbers.Integral) and not np.isfinite(m):
            raise ConstraintError(f"source term frequency must be finite, got {m!r}")
        if int(m) != m:
            raise ConstraintError(f"source term frequency must be an integer, got {m!r}")
        m = int(m)
        if abs(m) > k_max:
            shown = f"m={m}" if abs(m) < 1e300 else "|m| >= 1e300"  # str() refuses huge ints
            raise ConstraintError(f"source term frequency {shown} lies outside the band "
                                  f"|m| <= {k_max} of the boundary data")
        if m in seen:
            raise ConstraintError(f"duplicate source frequency m={m}")
        seen.add(m)
        a = complex(a)
        if not np.hypot(a.real, a.imag) < 2.0**512:  # so NaN, inf and |a|^2 = inf fail
            raise ConstraintError(f"source amplitude at m={m} must be finite, with |a| < 2^512")
        terms.append((m, a))
    return tuple(terms)


def _boundary_sym_coeffs(g: SpectralField) -> np.ndarray:
    """Symmetric-layout coefficients c_-K..c_K from a 1-d field.

    The single stored Nyquist bin g_K is split between +-K: c_{-K} = g_K / 2 and c_{+K}
    the remainder, so on the N-point grid they add back to g_K exactly, a subnormal too.
    """
    if g.dim != 1:
        raise ConstraintError("boundary data must be a 1-d field")
    k_max = g.n // 2
    out = np.empty(2 * k_max + 1, dtype=np.complex128)
    out[1:k_max] = g.coeffs[k_max + 1 :]  # c_k = g[k mod N] for -K < k < K
    out[k_max:-1] = g.coeffs[:k_max]
    out[0] = 0.5 * g.coeffs[k_max]  # c_{-K}
    out[2 * k_max] = g.coeffs[k_max] - out[0]  # c_{+K}: halving a subnormal rounds
    return out


def trace_field(sol: HarmonicSolution) -> SpectralField:
    """Boundary trace as a 1-d field of size N = 2K; +-K bins recombine into the Nyquist bin."""
    k_max = sol.k_max
    coeffs = np.fft.ifftshift(sol.trace_coeffs[:-1])
    coeffs[k_max] = sol.trace_coeffs[0] + sol.trace_coeffs[2 * k_max]
    return SpectralField(coeffs)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def solve_dirichlet(f_terms, g: SpectralField) -> HarmonicSolution:
    """Unique solution of Delta u = f, trace u = g (trivial kernel on the disk).

    f = sum a_m r^|m| e^(i m theta) over (m, a) terms with |m| <= N/2, the band of g;
    u = u_p + harmonic extension of (g - trace u_p), and the boundary trace of the
    result is the supplied g verbatim.
    """
    k_max = g.n // 2
    terms = _check_terms(f_terms, k_max)
    trace = _boundary_sym_coeffs(g)
    source = np.zeros_like(trace)
    for m, a in terms:
        source[m + k_max] = a
    return HarmonicSolution(trace_coeffs=trace, source_coeffs=source)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate_points(sol: HarmonicSolution, r, theta) -> np.ndarray:
    """Pointwise values u(r, theta); direct mode summation, fine for small K."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    out = np.zeros(np.broadcast(r, theta).shape, dtype=np.complex128)
    for extra_power, coeffs in ((0, sol.boundary_coeffs), (2, sol.particular_coeffs)):
        for _, k, c in _nonzero_modes(coeffs):
            out += c * r ** (abs(k) + extra_power) * np.exp(1j * k * theta)
    return out


def _rings(coeffs: np.ndarray, extra_power: float, radii: np.ndarray, n_theta: int) -> np.ndarray:
    """Values of sum_k d_k r^(|k| + extra_power) e^(i k theta_j) for symmetric-layout
    coefficients d, one ring per radius, via one folded IFFT.

    Only the nonzero modes enter, and r^p is taken once per distinct power (+-k share
    it).  Each ring's terms fold into its n_theta bins k mod n_theta by one
    ``np.bincount`` per part, which adds each bin's terms in ascending k; the zero
    modes left out would only add +-0 to a sum that starts at +0.
    """
    nz = np.flatnonzero(coeffs)
    d, ks = coeffs[nz], nz - _sym_index(coeffs)
    powers, power_of = np.unique(np.abs(ks) + extra_power, return_inverse=True)
    bins = ks % n_theta
    folded = np.empty((len(radii), n_theta), dtype=np.complex128)
    for ring, r in zip(folded, radii):
        table = (r**powers)[power_of]
        ring.real = np.bincount(bins, weights=table * d.real, minlength=n_theta)
        ring.imag = np.bincount(bins, weights=table * d.imag, minlength=n_theta)
    return np.fft.ifft(folded, axis=1) * n_theta


def evaluate_polar_grid(sol: HarmonicSolution, radii, n_theta: int) -> np.ndarray:
    """u on the polar grid radii x (2 pi j / n_theta); exact mode sums per node.

    Per ring, one table r^p over the nonzero modes and one fold of the terms into
    n_theta bins; then one IFFT along theta for all rings.  A ring's values do not
    depend on the other radii, so a grid is bitwise the rings evaluated one at a time.
    """
    radii = np.asarray(radii, dtype=float)
    harmonic = _rings(sol.boundary_coeffs, 0.0, radii, n_theta)
    return harmonic + _rings(sol.particular_coeffs, 2.0, radii, n_theta)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SolutionNorms:
    snorm_alpha: float
    source_norm: float
    boundary_norm: float
    lower_order: float


@functools.lru_cache(maxsize=2)
def _weight_table(alpha: WeightExpr, k_max: int) -> tuple:
    """(chi_k, alpha(chi_k)^-1, alpha(chi_k)^2/chi_k, chi_k/alpha(chi_k)^2), k = -K..K, read-only,
    one per (alpha, K); refused by name when alpha^2, which snorm and the bound read, overflows.
    The inverse weights read inf there, for ``alpha_decay_data`` and the bound to refuse."""
    ks = np.arange(-k_max, k_max + 1, dtype=float)
    chi = np.sqrt(1.0 + ks * ks)
    a2, inv_a2, inv_a = _lattice_powers(alpha, np.log(chi), (2.0, -2.0, -1.0), 2 * k_max)
    with np.errstate(over="ignore"):  # inf past the double range; the bound refuses it by name
        bound_weight = chi * inv_a2
    return tuple(_read_only(arr) for arr in (chi, inv_a, a2 / chi, bound_weight))


def alpha_decay_data(alpha: WeightExpr, n: int, extra_exponent: float) -> SpectralField:
    """Boundary data g_k = alpha(chi_k)^-1 chi_k^(-1/2 - extra_exponent) on the N-point grid."""
    _check_size(n)  # an odd N would give N - 1 modes, a grid at N = 1025
    chi, inv_a, _, _ = _weight_table(alpha, n // 2)
    _refuse_weight(alpha, "alpha(chi)^-1", inv_a, n)
    with np.errstate(over="ignore", invalid="ignore"):  # k = -K..K-1; -K is the Nyquist bin
        mags = inv_a[:-1] * chi[:-1] ** (-0.5 - extra_exponent)
    if not np.isfinite(mags).all():
        raise ConstraintError(f"alpha_decay extra_exponent {extra_exponent} overflows a double "
                              f"on N = {n}")
    return SpectralField(np.fft.ifftshift(mags).astype(np.complex128))


def snorm(sol: HarmonicSolution, alpha: WeightExpr, lam: float) -> SolutionNorms:
    """Surrogate interior norms of a disk solution.

    snorm_alpha^2 = sum_k alpha(chi_k)^2 chi_k^-1 |c_k|^2
                  + sum_m chi_m^(2(lam+2)) |a_m / (4(|m|+1))|^2;
    lower_order applies one extra factor 1/chi to both parts (the weight
    alpha drops to alpha/t); source_norm is the order-lam norm of f, and
    boundary_norm is the trace norm with weight alpha(t)/sqrt(t).  The source sums
    run over the nonzero a_m alone, in ascending m.
    """
    chi, _, trace_weight, _ = _weight_table(alpha, sol.k_max)
    with np.errstate(over="ignore", invalid="ignore"):  # past the double range, or 0 * inf: inf, NaN
        harm = trace_weight * np.abs(sol.boundary_coeffs) ** 2
        bdry = trace_weight * np.abs(sol.trace_coeffs) ** 2
    part = part_lo = src = 0.0
    for i, m, a in sol.source_modes:
        up = abs(complex(sol.particular_coeffs[i])) ** 2
        part += chi[i] ** (2.0 * (lam + 2.0)) * up
        part_lo += chi[i] ** (2.0 * (lam + 2.0) - 2.0) * up
        src += chi[i] ** (2.0 * lam) * abs(a) ** 2
    return SolutionNorms(
        snorm_alpha=float(np.sqrt(np.sum(harm) + part)),
        source_norm=float(np.sqrt(src)),
        boundary_norm=float(np.sqrt(np.sum(bdry))),
        lower_order=float(np.sqrt(np.sum(harm / (chi * chi)) + part_lo)),
    )


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AprioriRow:
    n: int
    seed: int
    ratio: float
    snorm: float
    source_norm: float
    boundary_norm: float


def check_apriori_weight(alpha: WeightExpr, s: float) -> WeightExpr:
    """Validate that alpha factors as t^(s+1/2) * alpha0 with index-zero alpha0
    whose squared dyadic integral converges; returns alpha0 or raises."""
    alpha0 = Product(alpha, Power(-(s + 0.5)))
    sym = alpha0.symbolic_indices()
    if sym is not None and (abs(sym[0]) > 1e-12 or abs(sym[1]) > 1e-12):
        raise ConstraintError(
            "alpha must factor as t^(s+1/2) * alpha0 with alpha0 of index zero; "
            f"got residual indices {sym}"
        )
    res = dyadic_integral_test(ExprPower(alpha0, 2.0))
    if not res.converges:
        raise ConstraintError(
            f"boundary-weight integral {_unproven(res.verdict)}: int alpha0(t)^2 dt/t has "
            f"verdict '{res.verdict}' (dyadic partial sums reached {res.partial_sums[-1]:.4g}); "
            "choose an alpha0 with a summable square"
        )
    return alpha0


def _unproven(verdict: str) -> str:
    """How a gate names an integral whose convergence was not established."""
    return "diverges" if verdict == "diverges" else "is not shown to converge"


def apriori_rows(alpha: WeightExpr, lam: float, s: float, terms, n: int, seeds) -> list:
    """One AprioriRow per seed: white-noise boundary data of size n, source terms."""
    rows = []
    for seed in seeds:
        g = sample_white_noise(1, n, seed).field
        norms = snorm(solve_dirichlet(terms, g), alpha, lam)
        bn = nikolskii_norm(g, s)
        rows.append(
            AprioriRow(n=n, seed=seed, ratio=float(norms.snorm_alpha / (norms.source_norm + bn)),
                       snorm=norms.snorm_alpha, source_norm=norms.source_norm, boundary_norm=bn)
        )
    return rows


def apriori_sweep(alpha: WeightExpr, lam: float, s: float, f_terms, n_list,
                  n_seeds: int, seed_base: int = 0, map=map, max_growth=1.5):
    """Ratio ensemble snorm_alpha / (source + boundary dyadic-sup norm).

    Boundary data are white noise samples; the contract under a valid weight
    is boundedness of the per-N max ratio as N grows, so n_list must be strictly
    ascending.  The rows come from ``noise.ensemble`` over (N, seed chunk), through
    ``map``.  Every source frequency must lie in the band of the smallest N,
    |m| <= n_list[0]/2.  Before the first draw, an s whose 4^(s j) overflows a double at the
    top block of the largest N is refused, and so is an alpha whose table overflows there.
    Returns (rows, verdicts), the rows in (N, seed) order; the record's ``max_per_N`` maps
    str(N) to the largest ratio over the seeds, and it passes when the last N's over the
    first N's is at most ``max_growth`` (NaN fails).
    """
    n_list = _ascending(n_list)
    _refuse_overflow(s, 1, n_list[-1])
    if not lam > -0.5:
        raise ConstraintError(f"requires lam > -1/2; got lam={lam}")
    check_apriori_weight(alpha, s)
    terms = _check_terms(f_terms, n_list[0] // 2)
    _weight_table(alpha, n_list[-1] // 2)
    args_list = [(alpha, lam, s, terms, n) for n in n_list]
    per_n = ensemble(apriori_rows, args_list, n_seeds, seed_base, map)
    rows = {n: [row for chunk in chunks for row in chunk] for n, chunks in zip(n_list, per_n)}
    max_ratio = {n: float(np.max([row.ratio for row in r])) for n, r in rows.items()}
    growth = max_ratio[n_list[-1]] / max_ratio[n_list[0]]
    verdicts = {"max_ratio_growth": growth, "limit": max_growth, "pass": growth <= max_growth,
                "max_per_N": {str(n): m for n, m in max_ratio.items()}}
    return [row for r in rows.values() for row in r], verdicts


@dataclass(frozen=True)
class ConvergenceRow:
    k: int
    sup_error: float
    bound: float


def uniform_convergence_experiment(alpha: WeightExpr, g: SpectralField, k_list, decay_check=None):
    """Sup-norm error of truncated harmonic extensions against the tail bound.

    Requires the sup-norm control integral int t / alpha(t)^2 dt (surface
    dimension 2, no derivatives) to converge; rejected otherwise with the
    control integral named.  The error of the truncation at K is the tail
    u_K = sum_{|k|>K} c_k r^|k| e^(i k theta), which is harmonic, so |u_K| is
    subharmonic and E(K) = sup |u_K| over the closed disk is reached on r = 1.
    ``sup_error`` is max |u_K| over 512 equispaced nodes of that circle: a
    sampled lower bound on E(K), exact when the nodes hit the maximum.  The
    bound is T(K) = sqrt(sum_{|k|>K} chi_k / alpha(chi_k)^2) * ||tail of g||
    with the trace weight alpha(t)/sqrt(t); Cauchy-Schwarz makes E(K) <= T(K)
    unconditional.  Returns (rows, verdicts): ``bound_holds`` if each sup_error <= bound, and
    ``decay_ok`` if E(k_hi) <= factor * E(k_lo) for a ``decay_check`` whose K are in k_list.
    """
    for key in ("k_lo", "k_hi"):
        if decay_check is not None and decay_check[key] not in k_list:
            raise ConstraintError(f"decay_check {key} = {decay_check[key]} is not in K_list")
    res = embed_hormander(alpha, 0, 2)
    if not res.converges:
        raise ConstraintError(
            f"sup-norm control integral {_unproven(res.verdict)}: "
            f"int t^(2p+n-1) / alpha(t)^2 dt with p=0, n=2 has verdict '{res.verdict}'; "
            "the weight must grow fast enough for it to converge"
        )
    c = _boundary_sym_coeffs(g)
    _, _, trace_weight, bound_weight = _weight_table(alpha, _sym_index(c))
    ks = np.arange(len(c)) - _sym_index(c)
    k_cuts = [int(k) for k in k_list]
    if k_cuts:
        _refuse_weight(alpha, "chi/alpha(chi)^2", bound_weight[np.abs(ks) > min(k_cuts)], g.n)
    no_source = np.zeros_like(c)
    rows = []
    for k_cut in k_cuts:
        tail_mask = np.abs(ks) > k_cut
        tail = HarmonicSolution(trace_coeffs=np.where(tail_mask, c, 0.0), source_coeffs=no_source)
        err = float(np.max(np.abs(evaluate_polar_grid(tail, [1.0], 512))))
        factor1 = float(np.sqrt(np.sum(bound_weight[tail_mask])))
        with np.errstate(over="ignore", invalid="ignore"):  # past the double range: inf or NaN
            factor2 = float(np.sqrt(np.sum(trace_weight[tail_mask] * np.abs(c[tail_mask]) ** 2)))
        rows.append(ConvergenceRow(k=k_cut, sup_error=err, bound=factor1 * factor2))
    bound_holds = all(r.sup_error <= r.bound for r in rows)
    if decay_check is None:
        return rows, {"bound_holds": bound_holds, "pass": bound_holds}
    by_k = {r.k: r.sup_error for r in rows}
    decay_ok = by_k[decay_check["k_hi"]] <= decay_check["factor"] * by_k[decay_check["k_lo"]]
    return rows, {"bound_holds": bound_holds, "decay_ok": decay_ok, "pass": bound_holds and decay_ok}
