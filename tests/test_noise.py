import functools
import tracemalloc

import numpy as np
import pytest

from gensob import cli, noise
from gensob.noise import (
    covariance_check,
    ensemble,
    inner,
    pairing,
    regularity_norms,
    regularity_sweep,
    sample_white_noise,
)
from gensob.spectra import (
    DyadicBlocks,
    SpectralField,
    field_from_modes,
    freq_1d,
    hermitian_part,
)


def test_sampling_is_deterministic_per_seed():
    a = sample_white_noise(1, 128, 42)
    b = sample_white_noise(1, 128, 42)
    c = sample_white_noise(1, 128, 43)
    assert np.array_equal(a.field.coeffs, b.field.coeffs)
    assert not np.array_equal(a.field.coeffs, c.field.coeffs)


def test_self_conjugate_bins_are_real():
    s = sample_white_noise(1, 64, 7)
    assert s.field.coeffs[0].imag == 0.0
    assert s.field.coeffs[32].imag == 0.0
    t = sample_white_noise(2, 16, 7)
    for idx in [(0, 0), (0, 8), (8, 0), (8, 8)]:
        assert t.field.coeffs[idx].imag == 0.0


@pytest.mark.parametrize("dim,n", [(1, 1024), (2, 32)])
def test_noise_bits_are_the_projected_fft_of_the_philox_draw(dim, n):
    # pins every bit of the sampler: a cheaper construction must reproduce these
    for seed in (0, 12345):
        x = np.random.Generator(np.random.Philox(key=seed)).standard_normal((n,) * dim)
        expected = hermitian_part(np.fft.fftn(x) / np.sqrt(x.size))
        got = sample_white_noise(dim, n, seed).field.coeffs
        assert got.tobytes() == expected.tobytes()


def test_conjugate_symmetry_exact():
    s = sample_white_noise(2, 32, 99)
    idx = (-np.arange(32)) % 32
    flipped = np.conj(s.field.coeffs[np.ix_(idx, idx)])
    assert np.array_equal(s.field.coeffs, flipped)


def test_realization_is_real():
    s = sample_white_noise(1, 256, 3)
    vals = np.fft.ifft(np.asarray(s.field.coeffs)) * 256
    assert np.max(np.abs(vals.imag)) <= 1e-12 * np.max(np.abs(vals.real))


def test_coefficient_variance_monte_carlo():
    # E|g_k|^2 = 1 for every k, probed over 10^4 samples (CLT tolerance 5%)
    n_samples = 10_000
    probes = [0, 1, 3, 7, 12, 20, 27, 32]
    acc = np.zeros(len(probes))
    for i in range(n_samples):
        c = sample_white_noise(1, 64, i).field.coeffs
        acc += np.abs(c[probes]) ** 2
    acc /= n_samples
    assert np.all(np.abs(acc - 1.0) <= 0.05)


def test_covariance_single_mode_and_orthogonal():
    e3 = field_from_modes(1, 64, {3: 1.0})
    e5 = field_from_modes(1, 64, {5: 1.0})
    same, cross = covariance_check([(e3, e3), (e3, e5)], 2000)
    assert same.expected == 1.0
    assert same.z_score <= 3.0
    assert cross.expected == 0.0
    assert cross.z_score <= 3.0


def test_covariance_lowpass_bump():
    k = np.concatenate([np.arange(0, 32), np.arange(-32, 0)]).astype(float)
    bump = np.exp(-(k**2) / 18.0).astype(np.complex128)
    v = SpectralField(bump)
    (res,) = covariance_check([(v, v)], 1500)
    assert res.expected == pytest.approx(inner(v, v).real)
    assert res.z_score <= 3.0


def test_covariance_requires_enough_samples():
    v = field_from_modes(1, 32, {1: 1.0})
    with pytest.raises(ValueError, match="1000"):
        covariance_check([(v, v)], 10)


def _no_draw(*args):
    raise AssertionError("noise drawn for a covariance check that must be refused")


def test_covariance_refuses_empty_pairs_before_drawing(monkeypatch):
    monkeypatch.setattr(noise, "sample_white_noise", _no_draw)
    with pytest.raises(ValueError, match="at least one"):
        covariance_check([], 2000)


@pytest.mark.parametrize("pairs", [
    lambda: [(field_from_modes(1, 64, {3: 1.0}), field_from_modes(1, 32, {3: 1.0}))],
    lambda: [(field_from_modes(1, 64, {3: 1.0}), field_from_modes(2, 8, {(3, 0): 1.0}))],
    lambda: [(field_from_modes(1, 64, {3: 1.0}),) * 2, (field_from_modes(1, 32, {3: 1.0}),) * 2],
], ids=["N-within-pair", "dim-within-pair", "N-across-pairs"])
def test_covariance_refuses_fields_of_different_sizes_before_drawing(monkeypatch, pairs):
    pairs = pairs()
    monkeypatch.setattr(noise, "sample_white_noise", _no_draw)
    with pytest.raises(ValueError, match=r"share one \(dim, N\)"):
        covariance_check(pairs, 2000)


def _seeds_of(tag, seeds):
    """Toy ensemble kernel: names its args and returns its seeds."""
    return tag, list(seeds)


@pytest.mark.parametrize("mapper", ["builtin", "workers-1", "workers-2"])
def test_ensemble_returns_chunks_in_seed_order(mapper):
    mapper = {"builtin": map, "workers-1": functools.partial(cli._map_tasks, workers=1),
              "workers-2": functools.partial(cli._map_tasks, workers=2)}[mapper]
    per_args = ensemble(_seeds_of, [("a",), ("b",)], 60, seed_base=5, map=mapper)
    chunks = [list(range(5, 30)), list(range(30, 55)), list(range(55, 65))]  # 25, 25, 10
    assert per_args == [[(tag, c) for c in chunks] for tag in ("a", "b")]


def _list_covariance(samples, v1, v2):
    """The former covariance_check over a list of held samples: the oracle of the streamed sweep."""
    prods = np.array([pairing(xi, v1) * np.conj(pairing(xi, v2)) for xi in samples])
    emp = complex(prods.mean())
    expected = 1.0 * inner(v1, v2)  # the samples' variance times the inner product
    nn = len(prods)
    var = float(np.sum(np.abs(prods - emp) ** 2)) / (nn - 1)
    z = abs(emp - expected) / np.sqrt(var / nn) if var > 0 else np.inf * abs(emp - expected)
    if var == 0.0 and emp == expected:
        z = 0.0
    return emp, expected, float(z)


@pytest.mark.parametrize("seed_base", [0, 7])
def test_streamed_covariance_equals_list_of_samples_bitwise(seed_base):
    n, n_samples = 256, 2000
    e2, e3, e5 = (field_from_modes(1, n, {k: 1.0}) for k in (2, 3, 5))
    k = freq_1d(n).astype(float)
    bump = SpectralField(np.exp(-(k**2) / 72.0).astype(np.complex128))
    pairs = [(e3, e3), (e2, e5), (bump, bump)]
    samples = [sample_white_noise(1, n, seed_base + i).field for i in range(n_samples)]
    results = covariance_check(pairs, n_samples, seed_base)
    for (v1, v2), res in zip(pairs, results, strict=True):
        # repr tells every bit of a float apart, the sign of zero included
        got = (res.empirical, res.expected, res.z_score)
        assert repr(got) == repr(_list_covariance(samples, v1, v2))


def test_covariance_sends_each_distinct_field_once():
    n = 64
    pairs = [(field_from_modes(1, n, {k1: 1.0}), field_from_modes(1, n, {k2: 1.0}))
             for k1, k2 in ((3, 3), (2, 5), (5, 3))]  # six equal-or-not field objects
    tasks = []

    def recording_map(fn, chunk_tasks):
        tasks.extend(chunk_tasks)
        return map(fn, chunk_tasks)

    results = covariance_check(pairs, 1000, map=recording_map)
    for _, (fields, index_pairs), _ in tasks:
        assert [np.flatnonzero(v.coeffs).tolist() for v in fields] == [[3], [2], [5]]
        assert index_pairs == [(0, 0), (1, 2), (2, 0)]
    samples = [sample_white_noise(1, n, i).field for i in range(1000)]
    for (v1, v2), res in zip(pairs, results, strict=True):
        got = (res.empirical, res.expected, res.z_score)
        assert repr(got) == repr(_list_covariance(samples, v1, v2))


def test_covariance_holds_no_sample_ensemble():
    # 2000 held samples at N = 1024 are ~32 MiB of coefficients; the sweep keeps one chunk
    n = 1024
    e3 = field_from_modes(1, n, {3: 1.0})
    tracemalloc.start()
    try:
        covariance_check([(e3, e3)], 2000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_independent_seeds_have_null_cross_covariance():
    v = field_from_modes(1, 64, {2: 1.0})
    pairs = [
        (pairing(sample_white_noise(1, 64, 2 * i).field, v),
         pairing(sample_white_noise(1, 64, 2 * i + 1).field, v))
        for i in range(1000)
    ]
    prods = np.array([a * np.conj(b) for a, b in pairs])
    emp = prods.mean()
    sd = np.sqrt(np.sum(np.abs(prods - emp) ** 2) / (len(prods) - 1) / len(prods))
    assert abs(emp) <= 3.0 * sd


def test_block_energy_oracle():
    # each dyadic block j holds ~2^j unit-variance modes, so 4^(s j) * energy
    # has mean ~ 2^((2s+1) j); at s = -1/2 every block sits at O(1)
    n, s = 1024, -0.5
    blocks = DyadicBlocks(1, n)
    acc = np.zeros(blocks.n_blocks)
    n_samples = 400
    for i in range(n_samples):
        acc += blocks.energies(sample_white_noise(1, n, i).field)
    acc /= n_samples
    j = np.arange(blocks.n_blocks, dtype=float)
    scaled = 4.0 ** (s * j) * acc
    expected = 4.0 ** (s * j) * blocks.counts
    assert np.all(np.abs(scaled - expected) / expected <= 0.25)
    assert np.all(expected[1:] >= 0.9) and np.all(expected[1:] <= 1.3)


def test_regularity_sweep_bounded_at_critical_order():
    rows = regularity_sweep(1, -0.5, [256, 512, 1024, 2048], 100)
    meds = [r.median for r in rows]
    assert max(meds) / min(meds) < 2.0
    assert all(r.q25 <= r.median <= r.q75 for r in rows)


def test_regularity_sweep_grows_above_critical_order():
    rows = regularity_sweep(1, -0.4, [2**8, 2**11, 2**14], 100)
    meds = [r.median for r in rows]
    assert meds[-1] > meds[0]
    # module contract: median ratio within 30% of (N_max/N_min)^0.1
    target = (2.0**14 / 2.0**8) ** 0.1
    assert abs(meds[-1] / meds[0] / target - 1.0) <= 0.3


def test_regularity_sweep_2d_bounded():
    rows = regularity_sweep(2, -1.0, [32, 64, 128], 100)
    meds = [r.median for r in rows]
    assert max(meds) / min(meds) < 2.0


def test_regularity_norms_bitwise_reproducible():
    seeds = list(range(50, 150))
    a = regularity_norms(1, -0.5, 512, seeds)
    b = regularity_norms(1, -0.5, 512, seeds)
    assert np.array_equal(a, b)


def test_regularity_sweep_preconditions():
    with pytest.raises(ValueError, match="n_seeds"):
        regularity_sweep(1, -0.5, [256], 10)
    with pytest.raises(ValueError, match="ascending"):
        regularity_sweep(1, -0.5, [512, 256], 100)
