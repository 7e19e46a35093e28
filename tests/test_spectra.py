import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gensob import spectra
from gensob.noise import sample_white_noise
from gensob.spectra import (
    DyadicBlocks,
    SpectralField,
    chi_grid,
    embedding_ratio_sweep,
    extremal_nikolskii_field,
    field_from_modes,
    field_from_samples,
    halpha_norm,
    interp_norm,
    ksq_grid,
    nikolskii_norm,
    random_field,
)
from gensob.weights import (
    ComposeRatio,
    ConstraintError,
    ExprPower,
    IterLogPower,
    OscPower,
    PiecewiseGlue,
    Power,
    PowerCompose,
    Product,
    Scale,
    indices,
    interp_param,
    weight_from_json,
)


# ---------------------------------------------------------------------------
# construction and roundtrip
# ---------------------------------------------------------------------------


def test_constant_field_single_coefficient():
    w = field_from_samples(np.ones(32))
    assert w.coeffs[0] == 1.0
    assert np.max(np.abs(w.coeffs[1:])) == 0.0


def test_pure_mode_lands_on_its_frequency():
    n = 64
    theta = 2.0 * np.pi * np.arange(n) / n
    w = field_from_samples(np.exp(1j * 3 * theta))
    assert abs(w.coeffs[3] - 1.0) <= 1e-12
    others = np.delete(w.coeffs, 3)
    assert np.max(np.abs(others)) <= 1e-12


def test_real_samples_give_exact_hermitian_symmetry():
    rng = np.random.default_rng(0)
    w = field_from_samples(rng.standard_normal(128))
    assert w.hermitian
    flipped = np.conj(w.coeffs[(-np.arange(128)) % 128])
    assert np.array_equal(w.coeffs, flipped)
    assert w.coeffs[0].imag == 0.0 and w.coeffs[64].imag == 0.0


@pytest.mark.parametrize("dim,n", [(1, 2**14), (2, 256)])
def test_parseval_roundtrip(dim, n):
    rng = np.random.default_rng(1)
    samples = rng.standard_normal((n,) * dim)
    w = field_from_samples(samples)
    back = w.to_samples()
    assert np.max(np.abs(back - samples)) <= 1e-12 * np.max(np.abs(samples))
    # Parseval with unit constant under the 1/N_total cell measure
    assert np.sum(np.abs(w.coeffs) ** 2) == pytest.approx(
        np.sum(samples**2) / samples.size, rel=1e-12
    )


def test_size_mismatch_rejected():
    with pytest.raises(ValueError):
        field_from_samples(np.ones(17))
    with pytest.raises(ValueError):
        field_from_samples(np.ones((8, 16)))


BAD_GRIDS = {"0-d": (), "3-d": (4, 4, 4), "non-square": (8, 16), "non-power-of-two": (12,),
             "empty": (0,)}
GRID_MAKERS = {"field_from_samples": field_from_samples,
               "SpectralField": lambda arr: SpectralField(arr.astype(np.complex128))}


@pytest.mark.parametrize("maker", sorted(GRID_MAKERS))
@pytest.mark.parametrize("shape", sorted(BAD_GRIDS))
def test_bad_grid_refused_by_name(maker, shape):
    # each refusal names the grid rule, none falls through to a numpy reshape or FFT error
    with pytest.raises(ValueError, match=r"field grid must have shape|N must be a power of two"):
        GRID_MAKERS[maker](np.ones(BAD_GRIDS[shape]))


@pytest.mark.parametrize("shape", [(2,), (64,), (2, 2), (16, 16)])
def test_field_size_comes_from_the_array(shape):
    w = SpectralField(np.zeros(shape, dtype=np.complex128))
    assert (w.dim, w.n) == (len(shape), shape[0])


@pytest.mark.parametrize("dim,key", [(2, (3,)), (2, 3), (1, (3, 4)), (2, (1, 1.0, 0.0)),
                                     (1, (1.5,)), (2, (1, 0.5))])
def test_mode_frequency_must_be_dim_integers(dim, key):
    with pytest.raises(ValueError, match=re.escape(f"mode frequency {key!r}")):
        field_from_modes(dim, 8, {key: 1.0})


@pytest.mark.parametrize("dim,key", [(1, 300), (1, 128), (1, -129), (2, (3, -200))])
def test_mode_frequency_outside_the_band_rejected(dim, key):
    # no wrap modulo N: 300 on N = 256 would otherwise land on frequency 44
    with pytest.raises(ValueError, match=re.escape(f"mode frequency {key!r} lies outside the band [-128, 127]")):
        field_from_modes(dim, 256, {key: 1.0})


def test_mode_frequency_as_integer_or_tuple():
    w = field_from_modes(1, 8, {3: 1.0})
    assert np.array_equal(w.coeffs, field_from_modes(1, 8, {(3,): 1.0}).coeffs)
    assert np.flatnonzero(w.coeffs).tolist() == [3]


def _hermitian_part_by_fancy_index(c):
    """The projection as an ``np.ix_`` gather of the -k partners, the reference formula."""
    idx = (-np.arange(c.shape[0])) % c.shape[0]
    return 0.5 * (c + np.conj(c[np.ix_(*[idx] * c.ndim)]))


@pytest.mark.parametrize("dim,n", [(1, 2), (1, 4), (1, 8), (1, 16), (1, 32), (1, 64), (1, 256),
                                   (1, 1024), (1, 16384), (2, 2), (2, 4), (2, 8), (2, 16),
                                   (2, 32), (2, 64), (2, 128), (2, 256)])
def test_hermitian_part_is_bitwise_the_fancy_index_formula(dim, n):
    rng = np.random.default_rng(100 * dim + n)
    c = rng.standard_normal((n,) * dim) + 1j * rng.standard_normal((n,) * dim)
    for part in (c.real, c.imag):  # signed zeros, whose sums depend on both signs
        part[rng.random(c.shape) < 0.2] = 0.0
        part[rng.random(c.shape) < 0.2] = -0.0
    c.setflags(write=False)
    before = c.tobytes()
    assert spectra.hermitian_part(c).tobytes() == _hermitian_part_by_fancy_index(c).tobytes()
    assert c.tobytes() == before


@pytest.mark.parametrize("dim,n", [(1, 2), (1, 64), (2, 2), (2, 16)])
def test_hermitian_part_of_a_stack_projects_each_field(dim, n):
    rng = np.random.default_rng(7 * dim + n)
    c = rng.standard_normal((5,) + (n,) * dim) + 1j * rng.standard_normal((5,) + (n,) * dim)
    for part in (c.real, c.imag):
        part[rng.random(c.shape) < 0.2] = -0.0
    out = np.empty_like(c)
    assert spectra.hermitian_part(c, dim, out=out) is out
    for field, row in zip(c, out, strict=True):
        assert row.tobytes() == spectra.hermitian_part(field).tobytes()


def test_hermitian_is_derived_from_exact_symmetry():
    c = np.zeros(8, dtype=np.complex128)
    c[1] = 1.0  # missing the conjugate partner
    w = SpectralField(c.copy())  # the field freezes its array
    assert not w.hermitian
    assert np.iscomplexobj(w.to_samples())
    c[-1] = 1.0  # conj(c[1])
    w = SpectralField(c.copy())
    assert w.hermitian
    assert not np.iscomplexobj(w.to_samples())


@pytest.mark.parametrize("call,match", [
    (lambda: ksq_grid(3, 8), "dim must be 1 or 2$"),
    (lambda: SpectralField(np.ones(8, dtype=np.complex64)), "coeffs must be complex128$"),
    (lambda: SpectralField(np.ones((4, 4))), "coeffs must be complex128$"),
    (lambda: extremal_nikolskii_field(2, -0.5), "N >= 4 required$"),
], ids=["ksq-grid-3-d", "complex64", "float64", "extremal-n2"])
def test_a_lattice_or_field_outside_its_domain_is_refused_by_name(call, match):
    with pytest.raises(ConstraintError, match=f"^{match}"):
        call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
@pytest.mark.parametrize("dim", [1, 2])
def test_non_finite_coefficients_rejected(dim, bad):
    c = np.ones((8,) * dim, dtype=np.complex128)
    c[(3,) * dim] = bad
    with pytest.raises(ValueError, match="finite"):
        SpectralField(c)


def test_non_finite_samples_rejected():
    x = np.ones(16)
    x[5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        field_from_samples(x)


REAL_FIELDS = {
    "samples-1d": lambda: field_from_samples(np.random.default_rng(2).standard_normal(64)),
    "samples-2d": lambda: field_from_samples(np.random.default_rng(2).standard_normal((8, 8))),
    "modes-1d": lambda: field_from_modes(1, 32, {3: 1.0 + 2.0j, -3: 1.0 - 2.0j, 5: -0.5j, -5: 0.5j}),
    "modes-2d": lambda: field_from_modes(2, 16, {(1, 2): 1.0 - 1.0j, (-1, -2): 1.0 + 1.0j}),
    "random-1d": lambda: random_field(1, 128, seed=4),
    "random-2d": lambda: random_field(2, 16, seed=4),
    "extremal-1d": lambda: extremal_nikolskii_field(64, -0.5),
    "extremal-2d": lambda: extremal_nikolskii_field(16, -1.0, dim=2),
    "noise-1d": lambda: sample_white_noise(1, 128, 6).field,
    "noise-2d": lambda: sample_white_noise(2, 16, 6).field,
}


@pytest.mark.parametrize("name", sorted(REAL_FIELDS))
def test_real_field_constructors_give_hermitian_fields(name):
    w = REAL_FIELDS[name]()
    assert w.hermitian
    samples = w.to_samples()
    assert not np.iscomplexobj(samples) and samples.shape == (w.n,) * w.dim


# ---------------------------------------------------------------------------
# dyadic blocks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim,n", [(1, 16), (1, 2**12), (2, 64)])
def test_blocks_partition_every_frequency_once(dim, n):
    blocks = DyadicBlocks(dim, n)
    assert int(np.sum(blocks.counts)) == n**dim
    ksq = ksq_grid(dim, n).ravel()
    j = blocks.jmap.ravel()
    inner = j == 0
    assert np.all(ksq[inner] <= 1)
    outer = ~inner
    assert np.all(ksq[outer] <= 4.0 ** j[outer])
    assert np.all(ksq[outer] > 4.0 ** (j[outer] - 1))


def test_block_cardinalities_1d():
    blocks = DyadicBlocks(1, 16)
    # {0,+-1}, {+-2}, {+-3,+-4}, {+-5..+-8 with -8 the lone Nyquist bin}
    assert list(blocks.counts) == [3, 2, 4, 7]


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_halpha_single_mode():
    alpha = Product(Power(1.5), IterLogPower(1, -0.5))
    w = field_from_modes(1, 32, {5: 1.0})
    assert halpha_norm(w, alpha) == pytest.approx(alpha.eval(np.sqrt(26.0)), rel=1e-14)


def test_halpha_power_zero_is_l2():
    w = random_field(2, 32, seed=3)
    assert halpha_norm(w, Power(0.0)) == pytest.approx(np.linalg.norm(w.coeffs), rel=1e-14)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), scale=st.floats(min_value=1e-3, max_value=1e3))
def test_halpha_homogeneous_and_triangle(seed, scale):
    alpha = Product(Power(0.7), IterLogPower(1, 0.3))
    a = random_field(1, 256, seed)
    b = random_field(1, 256, seed + 77_000)
    na, nb = halpha_norm(a, alpha), halpha_norm(b, alpha)
    scaled = SpectralField(a.coeffs * scale)
    assert halpha_norm(scaled, alpha) == pytest.approx(scale * na, rel=1e-12)
    summed = SpectralField(a.coeffs + b.coeffs)
    assert halpha_norm(summed, alpha) <= (na + nb) * (1.0 + 1e-12)


def test_embedding_chain_with_window_constants():
    # r0 < sigma0 <= sigma1 < r1 pins the weighted norm between Sobolev norms
    # with constants read off the ratio alpha(chi)/chi^r over the window
    alpha = Product(Power(1.0), IterLogPower(1, -0.8))
    r0, r1 = 0.5, 1.5
    est = indices(alpha)
    assert r0 < est["sigma0_sym"] and est["sigma1_sym"] < r1
    chi = chi_grid(1, 512)
    avals = alpha.eval(chi)
    c_low = float(np.min(avals / chi**r0))
    c_high = float(np.max(avals / chi**r1))
    for seed in range(100):
        w = random_field(1, 512, seed)
        mid = halpha_norm(w, alpha)
        assert c_low * halpha_norm(w, Power(r0)) <= mid * (1 + 1e-12)
        assert mid <= c_high * halpha_norm(w, Power(r1)) * (1 + 1e-12)


def test_nikolskii_single_modes():
    w0 = field_from_modes(1, 16, {0: 1.0})
    assert nikolskii_norm(w0, -0.5) == pytest.approx(1.0)
    w4 = field_from_modes(1, 16, {4: 1.0})
    # |k| = 4 sits in block 2; 4^(s*2) = 1/4 at s = -1/2
    assert nikolskii_norm(w4, -0.5) == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("dim,n,s", [(1, 16, -0.5), (1, 2**12, -0.5), (2, 32, -1.0)])
def test_extremal_field_has_unit_norm(dim, n, s):
    v = extremal_nikolskii_field(n, s, dim)
    assert nikolskii_norm(v, s) == pytest.approx(1.0, abs=1e-12)
    # every block contributes equally
    blocks = DyadicBlocks(dim, n)
    e = blocks.energies(v)
    j = np.arange(blocks.n_blocks, dtype=float)
    assert np.max(np.abs(4.0 ** (s * j) * e - 1.0)) <= 1e-12


def test_extremal_field_s_zero_counting_oracle():
    v = extremal_nikolskii_field(16, 0.0, 1)
    blocks = DyadicBlocks(1, 16)
    assert np.linalg.norm(v.coeffs) ** 2 == pytest.approx(blocks.n_blocks, rel=1e-14)


# ---------------------------------------------------------------------------
# interpolation norm
# ---------------------------------------------------------------------------


def test_interp_norm_sqrt_parameter_is_h1():
    from gensob.weights import PiecewiseGlue, Scale

    w = random_field(1, 512, seed=11)
    psi = interp_param(Power(1.0), 0.0, 2.0)  # psi(t) = sqrt(t)
    assert interp_norm(w, 0.0, 2.0, psi) == pytest.approx(halpha_norm(w, Power(1.0)), rel=1e-12)
    one = PiecewiseGlue(Scale(1.0), 1.0)
    assert interp_norm(w, 0.7, 2.0, one) == pytest.approx(halpha_norm(w, Power(0.7)), rel=1e-12)


@pytest.mark.parametrize(
    "alpha,r0,r1",
    [
        (Product(Power(0.5), IterLogPower(1, 0.8)), 0.0, 1.0),
        (Product(Power(-1.0), IterLogPower(2, -1.2)), -2.0, 0.0),
        (OscPower(0.0, 0.5, 0.5), -1.0, 1.0),
    ],
)
def test_interp_norm_equals_weighted_norm(alpha, r0, r1):
    psi = interp_param(alpha, r0, r1)
    for seed in range(20):
        for dim, n in ((1, 1024), (2, 64)):
            w = random_field(dim, n, seed + 13 * dim)
            ha = halpha_norm(w, alpha)
            assert abs(interp_norm(w, r0, r1, psi) - ha) / ha <= 1e-10


CRIT1 = Path(__file__).resolve().parent.parent / "configs" / "acceptance" / "crit1-interp.json"


def _crit1_cases() -> list:
    """(alpha, r0, r1, psi) of each criterion 1 case."""
    cases = []
    for case in json.loads(CRIT1.read_text())["cases"]:
        alpha, r0, r1 = weight_from_json(case["weight"]), case["r0"], case["r1"]
        cases.append((alpha, r0, r1, interp_param(alpha, r0, r1)))
    return cases


@pytest.mark.parametrize("dim,n", [(1, 4096), (2, 128)])
def test_crit1_weight_grids_are_built_once_per_lattice(dim, n):
    # a field-major loop reads every case's two trees on each field; none may evict another
    cases = _crit1_cases()
    spectra._weight_grid.cache_clear()
    for seed in range(3):
        w = random_field(dim, n, seed)
        for alpha, r0, r1, psi in cases:
            halpha_norm(w, alpha)
            interp_norm(w, r0, r1, psi)
    assert spectra._weight_grid.cache_info().misses == 2 * len(cases)


def test_interp_norm_refuses_an_empty_pair():
    with pytest.raises(ValueError, match="requires r0 < r1"):
        interp_norm(random_field(1, 16, 0), 1.0, 1.0, Power(0.5))


# ---------------------------------------------------------------------------
# embedding-ratio sweep
# ---------------------------------------------------------------------------


def test_sweep_bounded_for_summable_weight():
    s = -0.5
    alpha = Product(Power(s), IterLogPower(1, -1.0))
    rows, _, embedding = embedding_ratio_sweep(alpha, s, [2**j for j in range(4, 12)])
    assert embedding.converges
    assert all(row["verdict"] == "bounded" for row in rows)
    c = embedding.constant
    assert np.all(np.array([row["ratio"] for row in rows]) ** 2 <= c * 1.1)  # the default slack 0.1


def test_summable_weight_misses_divergence_floor():
    # Negative control for criterion 4b: the floor b_j = 2^j / (X_j ln X_j),
    # X_j = sqrt(1 + 4^j), that the divergent weight t^-1/2 (log t)^-1/2 meets
    # every octave (notes/decisions.md) must fail on the summable 4a weight.
    s = -0.5
    n_list = [2**j for j in range(6, 15)]
    rows, _, _ = embedding_ratio_sweep(Product(Power(s), IterLogPower(1, -1.0)), s, n_list)
    ratios = np.array([row["ratio"] for row in rows])
    j = np.arange(7, 15)
    x = np.sqrt(1.0 + 4.0**j)
    b = 2.0**j / (x * np.log(x))
    r2 = ratios**2
    assert np.all(np.diff(r2) < b)
    assert ratios[-1] / ratios[0] < np.sqrt(1.0 + b.sum() / r2[0])


def test_sweep_pure_power_grows_like_block_count():
    # each block contributes O(1), so R(N)^2 grows ~ linearly in log2 N
    s = -0.5
    rows, _, embedding = embedding_ratio_sweep(Power(s), s, [2**j for j in range(4, 13)])
    assert not embedding.converges
    r2 = np.array([row["ratio"] for row in rows]) ** 2
    increments = np.diff(r2)
    assert np.all(increments > 0.5)
    assert np.all(increments < 2.5)


def test_sweep_geometric_weight_bound():
    s = -0.4
    rows, _, embedding = embedding_ratio_sweep(Power(s - 0.1), s, [16, 64, 256, 1024])
    c = embedding.constant
    assert c == pytest.approx(1.0 / (1.0 - 4.0**-0.1), rel=1e-3)
    assert np.all(np.array([row["ratio"] for row in rows]) ** 2 <= c * 1.1)  # the default slack 0.1


def test_sweep_passes_when_every_row_reads_its_regime(monkeypatch):
    bounded = (Product(Power(-0.5), IterLogPower(1, -1.0)), "bounded", "exceeds", 1e6)
    increasing = (Power(-0.5), "increasing", "not-increasing", 0.0)
    norm = spectra.halpha_norm
    for alpha, regime, other, factor in (bounded, increasing):
        rows, verdicts, _ = embedding_ratio_sweep(alpha, -0.5, [64, 256])
        assert [row["verdict"] for row in rows] == [regime, regime] and verdicts["pass"]
        # the last row's statistic, scaled out of its regime: past the bound, or to 0 <= R(64)
        monkeypatch.setattr(spectra, "halpha_norm",
                            lambda v, a, factor=factor: norm(v, a) * (factor if v.n == 256 else 1.0))
        rows, verdicts, _ = embedding_ratio_sweep(alpha, -0.5, [64, 256])
        assert [row["verdict"] for row in rows] == [regime, other] and not verdicts["pass"]
        monkeypatch.undo()


@pytest.mark.parametrize("seed", [-1, -5, 2**128])
def test_seed_outside_the_philox_key_range_refused_by_name(seed):
    for draw in (spectra.random_field, sample_white_noise):
        with pytest.raises(ValueError, match=rf"seed {seed} lies outside \[0, 2\*\*128\)"):
            draw(1, 8, seed)


def _fresh_stream(seed):
    return np.random.Generator(np.random.Philox(key=seed))


def test_stream_keys_philox_by_the_seed():
    for seed in (0, 1, 7, 123456789, 2**64 - 1, 2**64, 2**64 + 3, 2**127 + 5, 2**128 - 1):
        expected = _fresh_stream(seed).standard_normal(4)
        assert spectra._stream(seed).standard_normal(4).tobytes() == expected.tobytes()


def test_rekeyed_stream_restarts_for_interleaved_keys():
    a, b = 11, 2**64 + 11  # equal low words: the high word must be re-keyed too
    first = spectra._stream(a).standard_normal(9)  # leaves words in the 4-word block buffer
    assert spectra._stream(b).standard_normal(9).tobytes() \
        == _fresh_stream(b).standard_normal(9).tobytes()
    assert spectra._stream(a).standard_normal(9).tobytes() == first.tobytes()


def test_rekey_drops_a_cached_32_bit_half():
    rng = spectra._stream(5)
    rng.integers(0, 2**32, size=3, dtype=np.uint32)  # an odd count caches the other half
    assert rng.bit_generator.state["has_uint32"] == 1
    got = spectra._stream(6).integers(0, 2**32, size=5, dtype=np.uint32)
    assert got.tobytes() == _fresh_stream(6).integers(0, 2**32, size=5, dtype=np.uint32).tobytes()


def test_sweep_requires_ascending_sizes():
    with pytest.raises(ValueError):
        embedding_ratio_sweep(Power(-0.5), -0.5, [64, 32])


# ---------------------------------------------------------------------------
# lattice-table memos
# ---------------------------------------------------------------------------


def test_cached_tables_refuse_writes():
    blocks = spectra._dyadic_blocks(2, 16)
    tables = [blocks.jmap, blocks.counts, spectra._weight_grid(Power(1.0), 2, 16),
              spectra._chi_decay(2, 16)]
    for table in tables:
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 0


# one tree per weight op, each with a twin that compares equal but holds ints where the
# first holds floats; a grid cached for one is served to the other
TWIN_TREES = {
    "power": (Power(1.5), Power(1.5)),
    "power-int": (Power(1.0), Power(1)),
    "scale": (Scale(2.0), Scale(2)),
    "iter_log": (IterLogPower(2, -1.0), IterLogPower(2.0, -1)),
    "osc_power": (OscPower(0.0, 0.5, 1.0), OscPower(0, 0.5, 1)),
    "product": (Product(Power(0.0), IterLogPower(1, 0.5)), Product(Power(0), IterLogPower(1, 0.5))),
    "power_compose": (PowerCompose(Power(1.0), 2.0), PowerCompose(Power(1), 2)),
    "expr_power": (ExprPower(Power(-1.0), 3.0), ExprPower(Power(-1), 3)),
    "glue": (PiecewiseGlue(IterLogPower(1, 1.0), 4.0), PiecewiseGlue(IterLogPower(1, 1), 4)),
    "compose_ratio": (ComposeRatio(PiecewiseGlue(Power(2.0)), Power(1.0), Scale(3.0)),
                      ComposeRatio(PiecewiseGlue(Power(2)), Power(1), Scale(3))),
}


def _halpha_uncached(field, alpha):
    a2 = np.exp(2.0 * alpha.log_value(0.5 * np.log1p(ksq_grid(field.dim, field.n).astype(float))))
    return float(np.sqrt(np.sum(a2 * np.abs(field.coeffs) ** 2)))


@pytest.mark.parametrize("name", sorted(TWIN_TREES))
@pytest.mark.parametrize("dim,n", [(1, 256), (2, 32)])
def test_weight_grid_hit_equals_a_fresh_evaluation(name, dim, n):
    first, twin = TWIN_TREES[name]
    assert first == twin and hash(first) == hash(twin)
    field = random_field(dim, n, 7)
    spectra._weight_grid.cache_clear()
    cached = halpha_norm(field, first)  # a miss fills the memo
    assert repr(halpha_norm(field, first)) == repr(cached) == repr(_halpha_uncached(field, first))
    assert repr(halpha_norm(field, twin)) == repr(_halpha_uncached(field, twin))
    assert spectra._weight_grid.cache_info()[:2] == (2, 1)  # (hits, misses): the twin hit


def test_interp_norm_alternation_hits_the_weight_grid():
    # a check alternates halpha_norm and interp_norm on one lattice: two grids, built once each
    alpha = Product(Power(0.5), IterLogPower(1, 0.8))
    psi = interp_param(alpha, 0.0, 1.0)
    spectra._weight_grid.cache_clear()
    for seed in range(5):
        field = random_field(1, 128, seed)
        halpha_norm(field, alpha)
        interp_norm(field, 0.0, 1.0, psi)
    assert spectra._weight_grid.cache_info()[:2] == (8, 2)


def test_random_field_chi_factor_hit_equals_a_fresh_draw():
    spectra._chi_decay.cache_clear()
    for dim, n in [(1, 64), (2, 16), (1, 64)]:
        rng = np.random.Generator(np.random.Philox(key=3))
        z = rng.standard_normal((n,) * dim) + 1j * rng.standard_normal((n,) * dim)
        expected = spectra.hermitian_part(z * chi_grid(dim, n) ** (-1.5))
        assert random_field(dim, n, 3).coeffs.tobytes() == expected.tobytes()
    assert spectra._chi_decay.cache_info()[:2] == (1, 2)


def test_ratio_sweep_builds_each_sizes_blocks_once():
    spectra._dyadic_blocks.cache_clear()
    rows, _, _ = embedding_ratio_sweep(Power(-0.7), -0.5, [16, 64, 256])
    # each norm reuses its field's blocks, and the largest N's field those the overflow check built
    assert spectra._dyadic_blocks.cache_info()[:2] == (4, 3)
    for row in rows:
        v = extremal_nikolskii_field(row["n"], -0.5)
        blocks = DyadicBlocks(1, row["n"])
        fresh = np.sqrt(np.max(4.0 ** (-0.5 * np.arange(blocks.n_blocks)) * blocks.energies(v)))
        assert repr(nikolskii_norm(v, -0.5)) == repr(float(fresh))
        assert repr(row["ratio"]) == repr(halpha_norm(v, Power(-0.7)) / float(fresh))
