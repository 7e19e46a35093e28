import re

import numpy as np
import pytest

from gensob import disk
from gensob.disk import (
    AprioriRow,
    HarmonicSolution,
    SolutionNorms,
    _boundary_sym_coeffs,
    _weight_table,
    apriori_sweep,
    check_apriori_weight,
    evaluate_points,
    evaluate_polar_grid,
    snorm,
    solve_dirichlet,
    trace_field,
    uniform_convergence_experiment,
)
from gensob.noise import regularity_sweep, sample_white_noise
from gensob.spectra import SpectralField, chi_grid, embedding_ratio_sweep, field_from_modes
from gensob.weights import ConstraintError, IterLogPower, Power, Product


def _fd_laplacian(fn, x, y, h=1e-3):
    return (fn(x + h, y) + fn(x - h, y) + fn(x, y + h) + fn(x, y - h) - 4.0 * fn(x, y)) / h**2


def _cartesian_eval(sol):
    def fn(x, y):
        r = np.hypot(x, y)
        theta = np.arctan2(y, x)
        return evaluate_points(sol, r, theta)

    return fn


# ---------------------------------------------------------------------------
# harmonic extension
# ---------------------------------------------------------------------------


def test_single_mode_extension():
    g = field_from_modes(1, 16, {3: 1.0})
    sol = solve_dirichlet((), g)
    assert evaluate_points(sol, 0.5, 0.0) == pytest.approx(0.125)
    assert evaluate_points(sol, 1.0, 0.2) == pytest.approx(np.exp(1j * 0.6))


def test_mean_value_property():
    g = sample_white_noise(1, 64, 11).field
    sol = solve_dirichlet((), g)
    assert evaluate_points(sol, 0.0, 0.0) == pytest.approx(complex(g.coeffs[0]), rel=1e-14)


def test_extension_is_harmonic_fd_oracle():
    # rapidly decaying boundary data keep the finite-difference truncation
    # error below 1e-8 away from the boundary
    rng = np.random.default_rng(5)
    modes = {0: rng.standard_normal(), -8: rng.standard_normal() * 8.0**-8}
    for k in range(1, 8):
        modes[k] = (rng.standard_normal() + 1j * rng.standard_normal()) * 8.0**-k
        modes[-k] = np.conj(modes[k])
    g = field_from_modes(1, 16, modes)
    assert g.hermitian
    fn = _cartesian_eval(solve_dirichlet((), g))
    worst = 0.0
    for r in np.linspace(0.1, 0.95, 8):
        for th in np.linspace(0.0, 2 * np.pi, 9)[:-1]:
            worst = max(worst, abs(_fd_laplacian(fn, r * np.cos(th), r * np.sin(th))))
    assert worst <= 1e-8


def test_trace_of_extension_matches_boundary_data():
    g = sample_white_noise(1, 128, 2).field
    sol = solve_dirichlet((), g)
    assert np.array_equal(trace_field(sol).coeffs, g.coeffs)


@pytest.mark.parametrize("n", [2, 4, 64])
def test_boundary_layout_matches_definition(n):
    # c_k = g[k mod N] for |k| < K; the Nyquist bin is split in half over +-K
    rng = np.random.default_rng(n)
    g = SpectralField(rng.standard_normal(n) + 1j * rng.standard_normal(n))
    k_max = n // 2
    c = _boundary_sym_coeffs(g)
    assert len(c) == 2 * k_max + 1
    for k in range(-k_max + 1, k_max):
        assert c[k + k_max] == g.coeffs[k % n]
    assert c[0] == c[2 * k_max] == 0.5 * g.coeffs[k_max]


def test_trace_round_trip_at_n2():
    for seed in range(5):
        g = sample_white_noise(1, 2, seed).field
        assert np.array_equal(trace_field(solve_dirichlet((), g)).coeffs, g.coeffs)


@pytest.mark.parametrize("g_nyquist", [5e-324, 1.5e-323, -5e-324, 5e-324j, 3e-323 - 5e-324j, 1e-310,
                                       0.75 - 0.5j])
def test_trace_round_trip_keeps_the_nyquist_bin_bitwise(g_nyquist):
    # halving a subnormal rounds, so c_{+K} is the remainder g_K - c_{-K}, which adds back exactly
    coeffs = np.zeros(16, dtype=np.complex128)
    coeffs[[1, 8, 15]] = [1.0, g_nyquist, 1.0]
    g = SpectralField(coeffs)
    assert trace_field(solve_dirichlet([], g)).coeffs.tobytes() == g.coeffs.tobytes()


# ---------------------------------------------------------------------------
# particular solution
# ---------------------------------------------------------------------------


def _particular_only(terms, k_max=4):
    """The particular solution of f = sum a_m r^|m| e^(i m theta) alone: its trace is p,
    so the harmonic part c = p - p vanishes."""
    a = np.zeros(2 * k_max + 1, dtype=np.complex128)
    for m, am in terms:
        a[m + k_max] = am
    p = HarmonicSolution(trace_coeffs=np.zeros_like(a), source_coeffs=a).particular_coeffs
    sol = HarmonicSolution(trace_coeffs=p.copy(), source_coeffs=a)
    assert not np.any(sol.boundary_coeffs)
    return sol


def test_constant_source_quarter_r_squared():
    sol = _particular_only([(0, 1.0)])
    rr = np.linspace(0.0, 1.0, 11)
    assert np.allclose(evaluate_points(sol, rr, 0.0), rr**2 / 4.0)


def test_rotating_source_closed_form():
    # Delta(r^3 e^(i theta)/8) = r e^(i theta): the polar Laplacian gives
    # (p^2 - m^2) r^(p-2) with p = 3, m = 1, i.e. the divisor 4(|m|+1) = 8
    sol = _particular_only([(1, 1.0)])
    assert evaluate_points(sol, 0.5, 0.7) == pytest.approx(0.5**3 * np.exp(1j * 0.7) / 8.0)
    fn = _cartesian_eval(sol)
    for x, y in [(0.3, 0.1), (-0.2, 0.4), (0.5, -0.5)]:
        ref = np.hypot(x, y) * np.exp(1j * np.arctan2(y, x))
        assert abs(_fd_laplacian(fn, x, y) - ref) <= 1e-6


def test_zero_source():
    sol = _particular_only([])
    assert np.all(evaluate_points(sol, np.linspace(0, 1, 5), 0.3) == 0.0)


def test_fd_residual_scales_with_source_sup_norm():
    sol = _particular_only([(2, 1.0)])
    fn = _cartesian_eval(sol)
    worst = 0.0
    for x, y in [(0.2, 0.1), (0.4, -0.3), (-0.6, 0.2)]:
        r, th = np.hypot(x, y), np.arctan2(y, x)
        ref = r**2 * np.exp(2j * th)
        worst = max(worst, abs(_fd_laplacian(fn, x, y) - ref))
    assert worst <= 1e-6  # against ||f||_inf = 1


def test_invalid_source_terms_rejected():
    zero = field_from_modes(1, 16, {})
    with pytest.raises(ConstraintError, match="duplicate"):
        solve_dirichlet([(1, 1.0), (1, 2.0)], zero)
    with pytest.raises(ConstraintError, match="integer"):
        solve_dirichlet([(0.5, 1.0)], zero)


@pytest.mark.parametrize("m,match", [(np.inf, "finite"), (-np.inf, "finite"), (np.nan, "finite"),
                                     (1e15, "m=1000000000000000 lies outside the band"),
                                     (9, "m=9 lies outside the band"),
                                     (-9, "m=-9 lies outside the band"),
                                     pytest.param(10**200, "m=10000000000", id="10^200"),
                                     pytest.param(-10**5000, "|m| >= 1e300 lies outside the band",
                                                  id="-10^5000")])
def test_source_frequency_outside_the_band_rejected(m, match):
    # |m| <= N/2 = 8; nothing of length 2|m|+1 is allocated before the check
    with pytest.raises(ConstraintError, match=re.escape(match)):
        solve_dirichlet([(0, 1.0), (m, 1.0)], field_from_modes(1, 16, {}))


def test_source_frequency_on_the_band_edge_accepted():
    g = sample_white_noise(1, 16, 3).field
    sol = solve_dirichlet([(8, 1.0), (-8, 2.0)], g)
    assert sol.source_coeffs[0] == 2.0 and sol.source_coeffs[16] == 1.0
    assert np.array_equal(trace_field(sol).coeffs, g.coeffs)


def test_apriori_sweep_takes_the_band_of_the_smallest_n():
    alpha = Product(Power(0.0), IterLogPower(1, -0.75))
    with pytest.raises(ConstraintError, match="m=129 lies outside the band"):
        apriori_sweep(alpha, 0.0, -0.5, [(129, 1.0)], [256, 512], 5)
    rows, _ = apriori_sweep(alpha, 0.0, -0.5, [(128, 1.0)], [256, 512], 5)
    assert len(rows) == 10


# ---------------------------------------------------------------------------
# full solve
# ---------------------------------------------------------------------------


def test_solve_constant_source_zero_boundary():
    zero = field_from_modes(1, 16, {})
    sol = solve_dirichlet([(0, 1.0)], zero)
    rr = np.linspace(0.0, 1.0, 9)
    assert np.allclose(evaluate_points(sol, rr, 1.1), rr**2 / 4.0 - 0.25)


def test_solve_trace_is_exact_bitwise():
    g = sample_white_noise(1, 256, 17).field
    sol = solve_dirichlet([(0, 1.0), (1, 0.5 + 0.25j)], g)
    assert np.array_equal(trace_field(sol).coeffs, g.coeffs)


def test_trace_of_noise_driven_solution_is_real():
    g = sample_white_noise(1, 256, 17).field
    trace = trace_field(solve_dirichlet([(0, 1.0), (2, 0.5)], g))
    assert trace.hermitian
    assert not np.iscomplexobj(trace.to_samples())


def test_solve_noise_boundary_coefficients():
    g = sample_white_noise(1, 64, 23).field
    sol = solve_dirichlet([], g)
    # harmonic coefficients are the boundary data themselves when f = 0
    r = 0.5
    ks = np.arange(-32, 33)
    direct = np.sum(
        sol.boundary_coeffs * r ** np.abs(ks) * np.exp(1j * ks * 0.4)
    )
    assert evaluate_points(sol, r, 0.4) == pytest.approx(direct)


def test_solve_linearity():
    g1 = sample_white_noise(1, 64, 1).field
    g2 = sample_white_noise(1, 64, 2).field
    both = SpectralField(g1.coeffs + g2.coeffs)
    a = solve_dirichlet([(0, 1.0)], both)
    b1 = solve_dirichlet([(0, 1.0)], g1)
    b2 = solve_dirichlet([], g2)
    lhs = a.boundary_coeffs
    rhs = b1.boundary_coeffs + b2.boundary_coeffs
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


def test_polar_grid_evaluation_matches_pointwise():
    g = sample_white_noise(1, 32, 4).field
    sol = solve_dirichlet([(0, 0.5)], g)
    radii = np.array([0.0, 0.3, 1.0])
    grid = evaluate_polar_grid(sol, radii, 64)
    theta = 2.0 * np.pi * np.arange(64) / 64
    for i, r in enumerate(radii):
        direct = evaluate_points(sol, np.full_like(theta, r), theta)
        assert np.max(np.abs(grid[i] - direct)) <= 1e-12


def _rings_per_ring(coeffs, powers, radii, n_theta):
    """Ring-by-ring evaluation: one r^|k| row, one bincount fold and one IFFT per radius."""
    k_max = (len(coeffs) - 1) // 2
    bins = np.arange(-k_max, k_max + 1) % n_theta
    out = np.empty((len(radii), n_theta), dtype=np.complex128)
    for i, r in enumerate(radii):
        ring = coeffs * r**powers
        folded = np.bincount(bins, weights=ring.real, minlength=n_theta) + 1j * np.bincount(
            bins, weights=ring.imag, minlength=n_theta
        )
        out[i] = np.fft.ifft(folded) * n_theta
    return out


def _polar_grid_per_ring(sol, radii, n_theta):
    """The polar grid as the ring-by-ring loop gives it: harmonic rings plus particular rings."""
    pk = np.abs(np.arange(-sol.k_max, sol.k_max + 1)).astype(float)
    vals = _rings_per_ring(sol.boundary_coeffs, pk, radii, n_theta)
    return vals + _rings_per_ring(sol.particular_coeffs, pk + 2.0, radii, n_theta)


def _grid_case(case, k_max, rng):
    c = rng.standard_normal(2 * k_max + 1) + 1j * rng.standard_normal(2 * k_max + 1)
    ks = np.abs(np.arange(-k_max, k_max + 1))
    a = np.zeros_like(c)
    if case == "sparse":
        c[rng.random(len(c)) < 0.6] = 0.0
    elif case == "tail":  # what the convergence experiment evaluates
        c[ks <= k_max // 3] = 0.0
    elif case == "zero":
        c[:] = 0.0
    elif case == "sources":
        c[rng.random(len(c)) < 0.3] = 0.0
        for m, am in ((0, 1.5 + 0.0j), (-3, 0.25 - 1.0j), (7, -2.0 + 0.5j), (2, 0.0j)):
            a[m + k_max] = am
    elif case == "sources-only":
        c[:] = 0.0
        a[5 + k_max] = 1.0 + 1.0j
    return HarmonicSolution(trace_coeffs=c, source_coeffs=a)


@pytest.mark.parametrize("case", ["dense", "sparse", "tail", "zero", "sources", "sources-only"])
@pytest.mark.parametrize("n_theta", [8, 80, 81, 200])  # 2K+1 = 81: folded, exact and padded
@pytest.mark.parametrize("n_r", [1, 16, 37])
def test_polar_grid_is_bitwise_the_ring_by_ring_evaluation(case, n_theta, n_r):
    rng = np.random.default_rng(n_r * 1000 + n_theta)
    sol = _grid_case(case, 40, rng)
    for radii in (np.linspace(0.0, 1.0, n_r), np.concatenate([[0.0, 1.0], rng.random(n_r)])):
        grid = evaluate_polar_grid(sol, radii, n_theta)
        assert grid.tobytes() == _polar_grid_per_ring(sol, radii, n_theta).tobytes()


def test_no_interior_node_beats_the_sampled_boundary_maximum():
    # Why the convergence experiment reads r = 1 alone.  For a tail of degree K, let m be
    # max |u| over M = 8(2K+1) equispaced boundary nodes.  Every boundary point lies within
    # pi/M of a node, so Bernstein's ||p'|| <= K ||p|| gives ||p|| <= m / (1 - pi K / M) on
    # the circle, and the maximum-modulus principle carries that bound into the disk.
    rng = np.random.default_rng(8)
    for _ in range(60):
        k_max = int(rng.integers(1, 201))
        c = _grid_case("dense", k_max, rng).boundary_coeffs.copy()
        c[np.abs(np.arange(-k_max, k_max + 1)) <= rng.integers(0, k_max)] = 0.0
        tail = HarmonicSolution(trace_coeffs=c, source_coeffs=np.zeros_like(c))
        m_nodes = 8 * (2 * k_max + 1)
        m = np.max(np.abs(evaluate_polar_grid(tail, [1.0], m_nodes)))
        interior = evaluate_polar_grid(tail, rng.random(37), int(rng.integers(3, 1500)))
        assert np.max(np.abs(interior)) <= m / (1.0 - np.pi * k_max / m_nodes) * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_snorm_single_harmonic_mode():
    g = field_from_modes(1, 16, {3: 1.0})
    sol = solve_dirichlet((), g)
    alpha = Product(Power(1.0), IterLogPower(1, -0.5))
    chi = np.sqrt(10.0)
    norms = snorm(sol, alpha, 0.0)
    assert norms.snorm_alpha == pytest.approx(alpha.eval(chi) * chi**-0.5, rel=1e-14)
    assert norms.source_norm == 0.0


def test_snorm_constant_source_closed_form():
    zero = field_from_modes(1, 16, {})
    sol = solve_dirichlet([(0, 1.0)], zero)
    norms = snorm(sol, Power(1.0), 0.0)
    # hand computation: harmonic part c_0 = -1/4 at chi = 1, particular part
    # weight chi_0^(2*(0+2)) = 1 on amplitude 1/4
    assert norms.snorm_alpha == pytest.approx(np.sqrt(0.25**2 + 0.25**2), rel=1e-14)
    assert norms.source_norm == pytest.approx(1.0)
    assert norms.lower_order <= norms.snorm_alpha


def test_snorm_monotone_in_order():
    g = sample_white_noise(1, 64, 9).field
    sol = solve_dirichlet((), g)
    values = [snorm(sol, Power(r), 0.0).snorm_alpha for r in (0.0, 0.5, 1.0, 2.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_snorm_window_envelope_against_power_weight():
    # a weight with indices (r, r) stays inside the window-constant envelope
    # of the plain power norm on random solutions
    r = 1.0
    alpha = Product(Power(r), IterLogPower(1, 0.6))
    k_max = 32
    chi = np.sqrt(1.0 + np.arange(-k_max, k_max + 1, dtype=float) ** 2)
    ratio = alpha.eval(chi) / chi**r
    lo, hi = min(float(np.min(ratio)), 1.0), max(float(np.max(ratio)), 1.0)
    for seed in range(25):
        g = sample_white_noise(1, 2 * k_max, seed).field
        sol = solve_dirichlet([(0, 1.0)], g)
        n_pow = snorm(sol, Power(r), 0.0).snorm_alpha
        n_alpha = snorm(sol, alpha, 0.0).snorm_alpha
        assert lo * n_pow * (1 - 1e-12) <= n_alpha <= hi * n_pow * (1 + 1e-12)


def _solve_and_snorm_with_term_tuples(terms, g, alpha, lam):
    """Bitwise reference: the solver and snorm formulas of the (m, a)-term layout, with a
    chi grid built per call.  Returns (harmonic coefficients, norms)."""
    k_max = g.n // 2
    trace = _boundary_sym_coeffs(g)
    pt = np.zeros(2 * k_max + 1, dtype=np.complex128)
    for m, a in terms:
        pt[m + k_max] += a / (4.0 * (abs(m) + 1.0))
    c = trace - pt
    ks = np.arange(-k_max, k_max + 1, dtype=float)
    chi = np.sqrt(1.0 + ks * ks)
    a2 = np.exp(2.0 * alpha.log_value(np.log(chi)))
    harm = a2 / chi * np.abs(c) ** 2
    bdry = a2 / chi * np.abs(trace) ** 2
    part = part_lo = src = 0.0
    for m, a in terms:
        chim = np.sqrt(1.0 + float(m) ** 2)
        up = abs(a / (4.0 * (abs(m) + 1.0))) ** 2
        part += chim ** (2.0 * (lam + 2.0)) * up
        part_lo += chim ** (2.0 * (lam + 2.0) - 2.0) * up
        src += chim ** (2.0 * lam) * abs(a) ** 2
    norms = SolutionNorms(
        snorm_alpha=float(np.sqrt(np.sum(harm) + part)),
        source_norm=float(np.sqrt(src)),
        boundary_norm=float(np.sqrt(np.sum(bdry))),
        lower_order=float(np.sqrt(np.sum(harm / (chi * chi)) + part_lo)),
    )
    return c, norms


@pytest.mark.parametrize("n", [4, 64, 4096])
def test_one_layout_is_bitwise_the_term_tuple_solver(n):
    rng = np.random.default_rng(n)
    alphas = [Product(Power(0.0), IterLogPower(1, -0.75)), Power(1.0),
              Product(Power(0.5), IterLogPower(1, 0.8))]
    for draw in range(12):
        g = sample_white_noise(1, n, int(rng.integers(0, 2**31))).field
        ms = np.sort(rng.choice(np.arange(-(n // 2), n // 2 + 1), size=draw % 5, replace=False))
        terms = [(int(m), complex(rng.standard_normal(), rng.standard_normal())) for m in ms]
        alpha, lam = alphas[draw % 3], float(rng.uniform(-0.4, 2.0))
        c, want = _solve_and_snorm_with_term_tuples(terms, g, alpha, lam)
        sol = solve_dirichlet(terms, g)
        got = snorm(sol, alpha, lam)
        assert sol.boundary_coeffs.tobytes() == c.tobytes()
        for field in ("snorm_alpha", "source_norm", "boundary_norm", "lower_order"):
            assert np.float64(getattr(got, field)).tobytes() == np.float64(getattr(want, field)).tobytes()


def test_weight_table_is_read_only_and_a_hit_equals_a_fresh_evaluation():
    alpha = Product(Power(0.5), IterLogPower(1, 0.8))
    first = _weight_table(alpha, 96)
    assert _weight_table(Product(Power(0.5), IterLogPower(1, 0.8)), 96) is first  # a cache hit
    for arr, fresh in zip(first, _weight_table.__wrapped__(alpha, 96)):
        assert arr.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_weight_table_holds_the_lattice_and_its_three_weights_bitwise():
    alpha = Product(Power(0.5), IterLogPower(1, 0.8))
    chi, inv_a, trace_weight, bound_weight = _weight_table(alpha, 96)
    ks = np.arange(-96, 97, dtype=float)
    assert chi.tobytes() == np.sqrt(1.0 + ks * ks).tobytes()
    log_a = alpha.log_value(np.log(chi))
    assert inv_a.tobytes() == np.exp(-log_a).tobytes()
    assert trace_weight.tobytes() == (np.exp(2.0 * log_a) / chi).tobytes()
    assert bound_weight.tobytes() == (chi * np.exp(-2.0 * log_a)).tobytes()


def test_snorm_and_the_convergence_bound_read_their_weights_from_the_table(monkeypatch):
    g = sample_white_noise(1, 64, 3).field
    chi, trace_weight, bound_weight = (np.full(65, v) for v in (4.0, 2.0, 3.0))  # no lattice's
    monkeypatch.setattr(disk, "_weight_table", lambda alpha, k_max: (chi, None, trace_weight,
                                                                     bound_weight))
    c = _boundary_sym_coeffs(g)
    norms = snorm(solve_dirichlet([(3, 1.0)], g), Power(1.0), 1.0)
    assert norms.boundary_norm == float(np.sqrt(np.sum(2.0 * np.abs(c) ** 2)))
    assert norms.source_norm == 4.0  # sqrt(chi_3^2 |a_3|^2) with the table's chi_3, not sqrt(10)
    rows, _ = uniform_convergence_experiment(Product(Power(1.0), IterLogPower(1, 0.75)), g, [4])
    tail = np.abs(np.arange(-32, 33)) > 4
    want = np.sqrt(np.sum(bound_weight[tail])) * np.sqrt(np.sum(2.0 * np.abs(c[tail]) ** 2))
    assert rows[0].bound == float(want)


def test_solution_arrays_are_read_only():
    sol = solve_dirichlet([(1, 2.0)], sample_white_noise(1, 16, 5).field)
    for arr in (sol.trace_coeffs, sol.source_coeffs, sol.particular_coeffs, sol.boundary_coeffs):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


# ---------------------------------------------------------------------------
# a-priori sweep
# ---------------------------------------------------------------------------


def test_apriori_weight_gate():
    alpha0 = check_apriori_weight(Product(Power(0.0), IterLogPower(1, -0.75)), -0.5)
    assert alpha0.symbolic_indices() == (0.0, 0.0)


def test_apriori_rejects_divergent_factor():
    with pytest.raises(ConstraintError, match="diverges"):
        check_apriori_weight(Product(Power(0.0), IterLogPower(1, -0.5)), -0.5)
    with pytest.raises(ConstraintError, match="diverges"):
        apriori_sweep(Power(0.0), 0.0, -0.5, [(0, 1.0)], [256], 5)


def test_gates_word_inconclusive_verdicts_without_diverges():
    # int dt / (t (ln t)^1.2) converges, but the deciders only reach "inconclusive"
    g = field_from_modes(1, 64, {1: 1.0})
    calls = [
        lambda: check_apriori_weight(Product(Power(0.0), IterLogPower(1, -0.6)), -0.5),
        lambda: uniform_convergence_experiment(Product(Power(1.0), IterLogPower(1, 0.6)), g, [4]),
    ]
    for call in calls:
        with pytest.raises(ConstraintError) as info:
            call()
        assert "inconclusive" in str(info.value)
        assert "diverges" not in str(info.value)


def test_apriori_rejects_wrong_factorization():
    with pytest.raises(ConstraintError, match="index zero"):
        check_apriori_weight(Power(0.3), -0.5)


def test_apriori_bounded_ratios_small_run():
    alpha = Product(Power(0.0), IterLogPower(1, -0.75))
    rows, verdicts = apriori_sweep(alpha, 0.0, -0.5, [(0, 1.0)], [256, 512], 50)
    max_ratio = {int(n): m for n, m in verdicts["max_per_N"].items()}
    assert len(rows) == 100
    assert all(np.isfinite(r.ratio) and r.ratio > 0 for r in rows)
    assert max_ratio == {n: max(r.ratio for r in rows if r.n == n) for n in (256, 512)}
    assert max_ratio[512] <= 1.5 * max_ratio[256]


def test_apriori_zero_source_branch():
    alpha = Product(Power(0.0), IterLogPower(1, -0.75))
    rows, verdicts = apriori_sweep(alpha, 0.0, -0.5, [], [256], 50)
    max_ratio = {int(n): m for n, m in verdicts["max_per_N"].items()}
    assert all(r.source_norm == 0.0 for r in rows)
    assert max_ratio[256] < 10.0


@pytest.mark.parametrize("s,message", [
    (46.4, r'alpha\(chi\)\^2 overflows a double on the lattice of N = 4096'),  # 4^(s j) is finite
    (46.6, r"s = 46.6 is too large: 4\^\(s j\) overflows a double at the top dyadic block "
           r"j = 11 of N = 4096"),
])
def test_apriori_sweep_refuses_an_overflowing_order_or_table_before_the_first_draw(monkeypatch,
                                                                                   s, message):
    monkeypatch.setattr("gensob.noise._draw", _no_compute)
    alpha = Product(Power(s + 0.5), IterLogPower(1, -0.75))
    with pytest.raises(ValueError, match=message):
        apriori_sweep(alpha, 0.0, s, [(0, 1.0)], [256, 4096], 3)


def test_apriori_requires_lambda_above_minus_half():
    with pytest.raises(ConstraintError, match="lam"):
        apriori_sweep(Product(Power(0.0), IterLogPower(1, -0.75)), -0.6, -0.5, [], [256], 5)


SWEEPS = {  # id -> (a sweep over an n_list, the per-N kernel it runs)
    "apriori": (lambda ns: apriori_sweep(Product(Power(0.0), IterLogPower(1, -0.75)), 0.0, -0.5,
                                         [], ns, 5), "gensob.disk.apriori_rows"),
    "regularity": (lambda ns: regularity_sweep(1, -0.5, ns, 100), "gensob.noise.regularity_norms"),
    "embedding-ratio": (lambda ns: embedding_ratio_sweep(Power(-0.7), -0.5, ns),
                        "gensob.spectra.extremal_nikolskii_field"),
}


@pytest.mark.parametrize("n_list", [[4096, 256], [256, 256], [64, 256, 128]])
@pytest.mark.parametrize("sweep", [sweep for sweep, _ in SWEEPS.values()], ids=list(SWEEPS))
def test_sweeps_refuse_an_n_list_out_of_order(sweep, n_list):
    # each verdict compares the first and last N as the smallest and largest: a descending
    # list would read growth as decay
    with pytest.raises(ValueError, match="n_list must be strictly ascending"):
        sweep(n_list)


def _no_compute(*args, **kwargs):
    raise AssertionError("compute started before the n_list was checked")


@pytest.mark.parametrize("name", list(SWEEPS))
def test_sweeps_refuse_a_bad_last_n_before_the_first_is_computed(monkeypatch, name):
    sweep, kernel = SWEEPS[name]
    monkeypatch.setattr(kernel, _no_compute)
    with pytest.raises(AssertionError, match="compute started"):  # the patch is the kernel run
        sweep([64, 256])
    with pytest.raises(ValueError, match="N must be a power of two >= 2, got 384"):
        sweep([64, 256, 384])


# ---------------------------------------------------------------------------
# uniform convergence
# ---------------------------------------------------------------------------


def _decaying_boundary(alpha, n, extra):
    chi = chi_grid(1, n)
    mags = np.exp(-alpha.log_value(np.log(chi))) * chi ** (-0.5 - extra)
    return SpectralField(mags.astype(np.complex128))


def test_convergence_bound_holds_everywhere():
    alpha = Product(Power(1.0), IterLogPower(1, 0.75))
    g = _decaying_boundary(alpha, 256, 0.6)
    rows, _ = uniform_convergence_experiment(alpha, g, [4, 8, 16, 32, 64])
    for row in rows:
        assert row.sup_error <= row.bound
    errs = [row.sup_error for row in rows]
    assert all(a > b for a, b in zip(errs, errs[1:]))


def test_convergence_bound_holds_for_noise_boundary():
    alpha = Product(Power(1.0), IterLogPower(1, 0.75))
    g = sample_white_noise(1, 128, 31).field
    rows, _ = uniform_convergence_experiment(alpha, g, [4, 16, 64])
    for row in rows:
        assert row.sup_error <= row.bound


def test_convergence_single_mode_drops_to_zero():
    alpha = Product(Power(1.0), IterLogPower(1, 0.75))
    g = field_from_modes(1, 64, {5: 1.0, -5: 1.0})
    rows, _ = uniform_convergence_experiment(alpha, g, [4, 8, 16])
    assert rows[0].sup_error > 1.0  # modes +-5 both present
    assert rows[1].sup_error == 0.0
    assert rows[2].sup_error == 0.0


def test_convergence_precondition_names_divergent_integral():
    g = field_from_modes(1, 64, {1: 1.0})
    with pytest.raises(ConstraintError, match="diverges"):
        uniform_convergence_experiment(Power(1.0), g, [4, 8])


# ---------------------------------------------------------------------------
# the verdict rules: each pinned at equality, and failed by a NaN statistic
# ---------------------------------------------------------------------------

A_PRIORI_ALPHA = Product(Power(0.0), IterLogPower(1, -0.75))


def _ratios(monkeypatch, by_n):
    """Make every a-priori row at N carry the ratio by_n[N]."""
    monkeypatch.setattr(disk, "apriori_rows", lambda alpha, lam, s, terms, n, seeds: [
        AprioriRow(n=n, seed=seed, ratio=by_n[n], snorm=1.0, source_norm=1.0, boundary_norm=1.0)
        for seed in seeds])
    return list(by_n)


def test_apriori_verdict_is_growth_at_most_max_growth(monkeypatch):
    n_list = _ratios(monkeypatch, {256: 1.0, 512: 1.5})
    _, record = apriori_sweep(A_PRIORI_ALPHA, 0.0, -0.5, [], n_list, 3)  # the default limit
    assert record == {"max_ratio_growth": 1.5, "limit": 1.5, "pass": True,
                      "max_per_N": {"256": 1.0, "512": 1.5}}
    below = float(np.nextafter(1.5, 0.0))
    _, record = apriori_sweep(A_PRIORI_ALPHA, 0.0, -0.5, [], n_list, 3, max_growth=below)
    assert (record["limit"], record["pass"]) == (below, False)


def test_apriori_sweep_refuses_an_empty_ensemble():
    # with no seed there is no max ratio to compare
    with pytest.raises(ValueError, match="^an ensemble needs at least one seed, got 0$"):
        apriori_sweep(A_PRIORI_ALPHA, 0.0, -0.5, [], [256, 512], 0)


@pytest.mark.parametrize("by_n", [{256: np.nan, 512: 1.0}, {256: 1.0, 512: np.nan}])
def test_apriori_verdict_fails_a_nan_ratio(monkeypatch, by_n):
    n_list = _ratios(monkeypatch, by_n)
    _, record = apriori_sweep(A_PRIORI_ALPHA, 0.0, -0.5, [], n_list, 3, max_growth=1e300)
    assert np.isnan(record["max_ratio_growth"]) and record["pass"] is False


CONVERGENCE_ALPHA = Product(Power(1.0), IterLogPower(1, 0.75))


def _sup_errors(monkeypatch, values):
    """Make the sampled sup error of the i-th truncation values[i]."""
    values = iter(values)
    monkeypatch.setattr(disk, "evaluate_polar_grid",
                        lambda sol, radii, n_theta: np.array([[next(values)]]))


def test_convergence_verdict_is_sup_error_at_most_bound(monkeypatch):
    g = _decaying_boundary(CONVERGENCE_ALPHA, 256, 0.6)
    rows, record = uniform_convergence_experiment(CONVERGENCE_ALPHA, g, [4, 8])
    assert record == {"bound_holds": True, "pass": True}
    bounds = [r.bound for r in rows]
    for values, ok in ((bounds, True), ([bounds[0], float(np.nextafter(bounds[1], 1.0))], False),
                       ([np.nan, 0.0], False)):
        _sup_errors(monkeypatch, values)
        _, record = uniform_convergence_experiment(CONVERGENCE_ALPHA, g, [4, 8])
        assert record == {"bound_holds": ok, "pass": ok}


def test_convergence_decay_check_is_e_hi_at_most_factor_times_e_lo(monkeypatch):
    g = _decaying_boundary(CONVERGENCE_ALPHA, 256, 0.6)
    rows, _ = uniform_convergence_experiment(CONVERGENCE_ALPHA, g, [4, 8])
    assert min(r.bound for r in rows) > 2.0**-40  # so both sup errors below are under the bound
    for factor, ok in ((0.5, True), (float(np.nextafter(0.5, 0.0)), False)):
        _sup_errors(monkeypatch, [2.0**-40, 2.0**-41])
        check = {"k_lo": 4, "k_hi": 8, "factor": factor}
        _, record = uniform_convergence_experiment(CONVERGENCE_ALPHA, g, [4, 8], decay_check=check)
        assert record == {"bound_holds": True, "decay_ok": ok, "pass": ok}


@pytest.mark.parametrize("values", [[np.nan, 2.0**-41], [2.0**-40, np.nan]])
def test_convergence_decay_check_fails_a_nan_sup_error(monkeypatch, values):
    g = _decaying_boundary(CONVERGENCE_ALPHA, 256, 0.6)
    _sup_errors(monkeypatch, values)
    check = {"k_lo": 4, "k_hi": 8, "factor": 1e300}
    _, record = uniform_convergence_experiment(CONVERGENCE_ALPHA, g, [4, 8], decay_check=check)
    assert record == {"bound_holds": False, "decay_ok": False, "pass": False}


@pytest.mark.parametrize("key", ["k_lo", "k_hi"])
def test_convergence_decay_check_of_a_k_not_in_k_list_refused_before_compute(monkeypatch, key):
    def no_compute(*args, **kwargs):
        raise AssertionError("compute started before the decay check was checked")

    for step in ("embed_hormander", "_boundary_sym_coeffs", "evaluate_polar_grid"):
        monkeypatch.setattr(disk, step, no_compute)
    check = {"k_lo": 4, "k_hi": 8, "factor": 0.5, key: 16}
    g = field_from_modes(1, 64, {1: 1.0})
    with pytest.raises(ConstraintError, match=f"^decay_check {key} = 16 is not in K_list$"):
        uniform_convergence_experiment(CONVERGENCE_ALPHA, g, [4, 8], decay_check=check)
