import functools
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gensob import cli, disk, noise, spectra
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
    nikolskii_norm,
    random_field,
)
from gensob.weights import ConstraintError, IterLogPower, Power, Product


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
    (same, cross), _ = covariance_check([(e3, e3), (e3, e5)], 2000)
    assert same["expected"] == 1.0
    assert same["z_score"] <= 3.0
    assert cross["expected"] == 0.0
    assert cross["z_score"] <= 3.0


def test_covariance_lowpass_bump():
    k = np.concatenate([np.arange(0, 32), np.arange(-32, 0)]).astype(float)
    bump = np.exp(-(k**2) / 18.0).astype(np.complex128)
    v = SpectralField(bump)
    (res,), _ = covariance_check([(v, v)], 1500)
    assert res["expected"] == pytest.approx(inner(v, v).real)
    assert res["z_score"] <= 3.0


def test_covariance_requires_enough_samples():
    v = field_from_modes(1, 32, {1: 1.0})
    with pytest.raises(ValueError, match="1000"):
        covariance_check([(v, v)], 10)


def _no_draw(*args):
    raise AssertionError("noise drawn for a covariance check that must be refused")


def test_covariance_refuses_empty_pairs_before_drawing(monkeypatch):
    monkeypatch.setattr(noise, "_draw", _no_draw)
    with pytest.raises(ValueError, match="at least one"):
        covariance_check([], 2000)


@pytest.mark.parametrize("pairs", [
    lambda: [(field_from_modes(1, 64, {3: 1.0}), field_from_modes(1, 32, {3: 1.0}))],
    lambda: [(field_from_modes(1, 64, {3: 1.0}), field_from_modes(2, 8, {(3, 0): 1.0}))],
    lambda: [(field_from_modes(1, 64, {3: 1.0}),) * 2, (field_from_modes(1, 32, {3: 1.0}),) * 2],
], ids=["N-within-pair", "dim-within-pair", "N-across-pairs"])
def test_covariance_refuses_fields_of_different_sizes_before_drawing(monkeypatch, pairs):
    pairs = pairs()
    monkeypatch.setattr(noise, "_draw", _no_draw)
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
    results, _ = covariance_check(pairs, n_samples, seed_base)
    for (v1, v2), res in zip(pairs, results, strict=True):
        # repr tells every bit of a float apart, the sign of zero included
        got = (res["empirical"], res["expected"], res["z_score"])
        assert repr(got) == repr(_list_covariance(samples, v1, v2))


def test_covariance_sends_each_distinct_field_once():
    n = 64
    pairs = [(field_from_modes(1, n, {k1: 1.0}), field_from_modes(1, n, {k2: 1.0}))
             for k1, k2 in ((3, 3), (2, 5), (5, 3))]  # six equal-or-not field objects
    tasks = []

    def recording_map(fn, chunk_tasks):
        tasks.extend(chunk_tasks)
        return map(fn, chunk_tasks)

    results, _ = covariance_check(pairs, 1000, map=recording_map)
    for _, (fields, index_pairs), _ in tasks:
        assert [np.flatnonzero(v.coeffs).tolist() for v in fields] == [[3], [2], [5]]
        assert index_pairs == [(0, 0), (1, 2), (2, 0)]
    samples = [sample_white_noise(1, n, i).field for i in range(1000)]
    for (v1, v2), res in zip(pairs, results, strict=True):
        got = (res["empirical"], res["expected"], res["z_score"])
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
    rows, _ = regularity_sweep(1, -0.5, [256, 512, 1024, 2048], 100)
    meds = [r["median"] for r in rows]
    assert max(meds) / min(meds) < 2.0
    assert all(r["q25"] <= r["median"] <= r["q75"] for r in rows)


def test_regularity_sweep_grows_above_critical_order():
    rows, _ = regularity_sweep(1, -0.4, [2**8, 2**11, 2**14], 100)
    meds = [r["median"] for r in rows]
    assert meds[-1] > meds[0]
    # module contract: median ratio within 30% of (N_max/N_min)^0.1
    target = (2.0**14 / 2.0**8) ** 0.1
    assert abs(meds[-1] / meds[0] / target - 1.0) <= 0.3


def test_regularity_sweep_2d_bounded():
    rows, _ = regularity_sweep(2, -1.0, [32, 64, 128], 100)
    meds = [r["median"] for r in rows]
    assert max(meds) / min(meds) < 2.0


def test_regularity_norms_bitwise_reproducible():
    seeds = list(range(50, 150))
    a = regularity_norms(1, -0.5, [512], seeds)
    b = regularity_norms(1, -0.5, [512], seeds)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("dim", [0, 3])
def test_noise_off_the_1_and_2_torus_is_refused_by_name(dim):
    with pytest.raises(ConstraintError, match="^dim must be 1 or 2$"):
        sample_white_noise(dim, 8, 0)


def test_regularity_sweep_preconditions():
    with pytest.raises(ValueError, match="n_seeds"):
        regularity_sweep(1, -0.5, [256], 10)
    with pytest.raises(ValueError, match="ascending"):
        regularity_sweep(1, -0.5, [512, 256], 100)


# ---------------------------------------------------------------------------
# the sampler's engine: reused buffers, one FFT call per stack of draws
# ---------------------------------------------------------------------------


def _fresh_noise(dim, n, seed):
    """The allocating per-sample construction, from a fresh Philox: the oracle of every row."""
    x = np.random.Generator(np.random.Philox(key=seed)).standard_normal((n,) * dim)
    return hermitian_part(np.fft.fftn(x) / np.sqrt(x.size))


def _rows(dim, n, seeds):
    return noise._transform(noise._draw(dim, n, seeds), dim, n)


@pytest.mark.parametrize("dim,n", [(1, 2**k) for k in range(1, 11)] + [(2, 2**k) for k in range(1, 7)])
def test_chunk_rows_are_bitwise_the_per_sample_construction(dim, n):
    seeds = range(3 * n, 3 * n + 7)
    rows = _rows(dim, n, seeds)
    assert rows.shape == (7,) + (n,) * dim
    for row, seed in zip(rows, seeds, strict=True):
        assert row.tobytes() == _fresh_noise(dim, n, seed).tobytes()


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 8)])
def test_chunks_of_any_length_share_the_buffers(dim, n):
    for length in (1, 25, 7, 1):  # a shorter stack after a longer one is a view of its buffer
        seeds = range(100, 100 + length)
        assert [row.tobytes() for row in _rows(dim, n, seeds)] == \
            [_fresh_noise(dim, n, seed).tobytes() for seed in seeds]


@pytest.mark.parametrize("seed", [0, 2**64, 2**128 - 1])
def test_extreme_seeds_key_the_sampler(seed):
    for dim, n in ((1, 256), (2, 16)):
        expected = _fresh_noise(dim, n, seed).tobytes()
        assert sample_white_noise(dim, n, seed).field.coeffs.tobytes() == expected
        assert _rows(dim, n, [seed, 1])[0].tobytes() == expected
        norms = regularity_norms(dim, -0.5, [4, n], [seed])
        expected = nikolskii_norm(SpectralField(_fresh_noise(dim, n, seed)), -0.5)
        assert repr(float(norms[1, 0])) == repr(expected)


@pytest.mark.parametrize("dim,n_max", [(1, 16384), (2, 256)])
def test_a_smaller_draw_is_a_prefix_of_the_largest(dim, n_max):
    # Philox fills in C order, so one draw per seed at the largest N serves every N of a sweep
    big = noise._draw(dim, n_max, [9])[0].copy()
    for n in (2, 4, 32, n_max // 2):
        fresh = np.random.Generator(np.random.Philox(key=9)).standard_normal((n,) * dim)
        assert big[: n**dim].tobytes() == fresh.tobytes()


@pytest.mark.parametrize("dim,n_list", [(1, [2, 64, 1024]), (2, [2, 8, 32])])
def test_regularity_norms_are_the_norms_of_each_sample_at_each_n(dim, n_list):
    seeds = range(40, 47)
    norms = regularity_norms(dim, -0.5 * dim, n_list, seeds)
    assert norms.shape == (len(n_list), len(seeds))
    for row, n in zip(norms, n_list, strict=True):
        expected = [nikolskii_norm(SpectralField(_fresh_noise(dim, n, seed)), -0.5 * dim)
                    for seed in seeds]
        assert repr(row.tolist()) == repr(expected)


def test_regularity_sweep_of_a_partial_last_chunk():
    n_list, n_seeds = [64, 256], 107  # chunks of 25, 25, 25, 25 and 7 seeds
    rows, _ = regularity_sweep(1, -0.4, n_list, n_seeds, seed_base=3)
    for row, n in zip(rows, n_list, strict=True):
        norms = [nikolskii_norm(sample_white_noise(1, n, seed).field, -0.4)
                 for seed in range(3, 3 + n_seeds)]
        q25, med, q75 = np.percentile(norms, [25.0, 50.0, 75.0])
        assert repr((row["q25"], row["median"], row["q75"])) == repr((float(q25), float(med), float(q75)))


def test_streamed_covariance_of_a_partial_last_chunk():
    n, n_samples = 64, 1007  # 40 chunks of 25 seeds and one of 7
    e3 = field_from_modes(1, n, {3: 1.0})
    results, _ = covariance_check([(e3, e3)], n_samples)
    samples = [sample_white_noise(1, n, i).field for i in range(n_samples)]
    res = results[0]
    assert repr((res["empirical"], res["expected"], res["z_score"])) == repr(_list_covariance(samples, e3, e3))


def test_pairing_products_are_bitwise_the_scalar_products():
    # np.vecdot has the bits of np.vdot per (field, sample), and the unfused product those of
    # the scalar a * np.conj(b); a matmul pairing or an array a * np.conj(b) does not
    n = 1024
    k = freq_1d(n).astype(float)
    fields = [field_from_modes(1, n, {m: 1.0}) for m in (3, 2, 5)]
    fields.append(SpectralField(np.exp(-(k**2) / 72.0).astype(np.complex128)))
    index_pairs = [(0, 0), (1, 2), (3, 3), (3, 1)]
    seeds = range(11, 511)
    prods = np.concatenate([noise.pairing_products(fields, index_pairs, seeds[i : i + noise.CHUNK])
                            for i in range(0, len(seeds), noise.CHUNK)], axis=1)
    expected = np.empty_like(prods)
    for j, seed in enumerate(seeds):
        values = [pairing(sample_white_noise(1, n, seed).field, v) for v in fields]
        for i, (i1, i2) in enumerate(index_pairs):
            expected[i, j] = values[i1] * np.conj(values[i2])
    assert prods.tobytes() == expected.tobytes()


def test_no_result_aliases_a_reused_buffer():
    held = sample_white_noise(1, 64, 3)
    e3 = field_from_modes(1, 64, {3: 1.0})
    prods = noise.pairing_products([e3], [(0, 0)], range(25))
    norms = regularity_norms(1, -0.5, [16, 64], range(25))
    kept = [a.tobytes() for a in (held.field.coeffs, prods, norms)]
    for dim, n in ((1, 64), (1, 16), (2, 8)):  # every buffer written again, at other sizes too
        _rows(dim, n, range(50, 75))
        sample_white_noise(dim, n, 11)
    assert [a.tobytes() for a in (held.field.coeffs, prods, norms)] == kept
    for a in (held.field.coeffs, prods, norms):
        assert not any(np.shares_memory(a, buf) for buf in spectra._sampler.buffers.values())


def _sweeps(mapper):
    e3, e5 = field_from_modes(1, 256, {3: 1.0, -3: 1.0}), field_from_modes(1, 256, {5: 1.0})
    alpha = Product(Power(0.0), IterLogPower(1, -0.75))
    return repr([
        covariance_check([(e3, e3), (e3, e5)], 1000, map=mapper),
        regularity_sweep(1, -0.5, [64, 1024], 100, map=mapper),
        regularity_sweep(2, -1.0, [8, 32], 100, map=mapper),
        disk.apriori_sweep(alpha, 0.0, -0.5, [(0, 1.0)], [256, 512], 100, map=mapper),
    ])


def test_a_thread_pool_mapper_gives_the_builtin_maps_bits():
    # each thread re-keys its own generator and draws into its own buffers, so two tasks that
    # run at once share no sampler state
    with ThreadPoolExecutor(2) as pool:
        assert _sweeps(pool.map) == _sweeps(map)


def test_random_fields_drawn_on_two_threads_are_the_serial_draws():
    with ThreadPoolExecutor(2) as pool:
        drawn = [f.coeffs.tobytes() for f in pool.map(functools.partial(random_field, 1, 1024),
                                                      range(200))]
    assert drawn == [random_field(1, 1024, s).coeffs.tobytes() for s in range(200)]


# ---------------------------------------------------------------------------
# the verdict rules: each pinned at equality, and failed by a NaN statistic
# ---------------------------------------------------------------------------


def test_covariance_verdict_is_z_at_most_z_max():
    e3 = field_from_modes(1, 64, {3: 1.0})
    (res,), record = covariance_check([(e3, e3)], 1000)
    assert record == {"z_max": 3.0, "pass": res["z_score"] <= 3.0}  # the default bound
    z = res["z_score"]
    assert covariance_check([(e3, e3)], 1000, z_max=z)[1] == {"z_max": z, "pass": True}
    below = float(np.nextafter(z, 0.0))
    assert covariance_check([(e3, e3)], 1000, z_max=below)[1] == {"z_max": below, "pass": False}


def test_covariance_verdict_fails_a_nan_z_score(monkeypatch):
    monkeypatch.setattr(noise, "inner", lambda v1, v2: complex(np.nan, np.nan))
    e3 = field_from_modes(1, 64, {3: 1.0})
    (res,), record = covariance_check([(e3, e3)], 1000, z_max=1e300)
    assert np.isnan(res["z_score"])
    assert record == {"z_max": 1e300, "pass": False}


def _doubled_inner(monkeypatch):
    """Make every expected covariance twice the truth, which the check must be able to fail."""
    inner = noise.inner
    monkeypatch.setattr(noise, "inner", lambda v1, v2: 2.0 * inner(v1, v2))


@pytest.mark.parametrize("doubled", [False, True])
def test_covariance_check_fails_a_doubled_expectation_at_unit_amplitude(monkeypatch, doubled):
    v = field_from_modes(1, 16, {1: 1.0, -1: 1.0})
    if doubled:
        _doubled_inner(monkeypatch)
    (res,), record = covariance_check([(v, v)], 1000)
    assert record["pass"] is not doubled
    assert res["z_score"] > 20.0 if doubled else res["z_score"] < 1.0


@pytest.mark.parametrize("doubled", [False, True])
@pytest.mark.parametrize("amplitude", [1e77, 1e78, 1e100, 1e150])
def test_covariance_pair_whose_variance_scale_overflows_refused_before_drawing(monkeypatch, amplitude,
                                                                               doubled):
    # ||v||^2 ||v||^2 = 4 a^4 passes the largest double from a = 1e77 on
    v = field_from_modes(1, 16, {1: amplitude, -1: amplitude})
    e2 = field_from_modes(1, 16, {2: 1.0})
    if doubled:
        _doubled_inner(monkeypatch)
    monkeypatch.setattr(noise, "_draw", _no_draw)
    with pytest.raises(ValueError, match=r"^covariance pair 1: \|\|v1\|\|\^2 \|\|v2\|\|\^2 overflows a double"):
        covariance_check([(e2, e2), (v, v)], 1000)


@pytest.mark.parametrize("doubled", [False, True])
@pytest.mark.parametrize("amplitude", [3e76, 4.5e76, 2.0**255])
def test_covariance_check_below_its_refusal_decides_as_at_unit_amplitude(monkeypatch, amplitude,
                                                                         doubled):
    # 4 a^4 is finite, but squares of single deviations pass the largest double; the deviations
    # are divided by a power of two, which z does not see, to the last bit at a = 2^255
    if doubled:
        _doubled_inner(monkeypatch)
    pairs = [(v, v) for v in (field_from_modes(1, 16, {1: a, -1: a}) for a in (1.0, amplitude))]
    (unit, res), record = covariance_check(pairs, 1000)
    assert record["pass"] is not doubled
    exact = amplitude == 2.0**255
    assert res["z_score"] == (unit["z_score"] if exact else pytest.approx(unit["z_score"], rel=1e-12))


def _medians(monkeypatch, by_n):
    """Make every norm at N equal by_n[N], so each N's quartiles are exactly by_n[N]."""
    monkeypatch.setattr(noise, "regularity_norms",
                        lambda dim, s, n_list, seeds: np.array([np.full(len(seeds), by_n[n])
                                                                for n in n_list]))
    return list(by_n)


def test_regularity_verdict_without_a_contract_passes(monkeypatch):
    n_list = _medians(monkeypatch, {64: np.nan, 128: 1.0})
    assert regularity_sweep(1, -0.5, n_list, 100)[1] == {"pass": True}


def test_bounded_contract_is_factor_strictly_below_max_factor(monkeypatch):
    n_list = _medians(monkeypatch, {64: 1.0, 128: 2.0})
    for max_factor, ok in ((2.0, False), (float(np.nextafter(2.0, 3.0)), True)):
        contract = {"kind": "bounded", "max_factor": max_factor}
        assert regularity_sweep(1, -0.5, n_list, 100, contract=contract)[1] == \
            {"kind": "bounded", "factor": 2.0, "pass": ok}


@pytest.mark.parametrize("by_n", [{64: np.nan, 128: 1.0}, {64: 1.0, 128: np.nan},
                                  {64: 1.0, 128: np.nan, 256: 1.0}])
def test_bounded_contract_fails_a_nan_median(monkeypatch, by_n):
    n_list = _medians(monkeypatch, by_n)
    contract = {"kind": "bounded", "max_factor": 1e300}
    record = regularity_sweep(1, -0.5, n_list, 100, contract=contract)[1]
    assert np.isnan(record["factor"]) and record["pass"] is False


@pytest.mark.parametrize("squared,target", [(False, 1.0), (True, 2.0)])
def test_growth_contract_is_rel_dev_at_most_rtol(monkeypatch, squared, target):
    # last/first median 2 (4 squared) against the target: rel_dev is exactly 1
    n_list = _medians(monkeypatch, {64: 1.0, 128: 2.0})
    for rtol, ok in ((1.0, True), (float(np.nextafter(1.0, 0.0)), False)):
        contract = {"kind": "growth", "target": target, "rtol": rtol, "squared": squared}
        assert regularity_sweep(1, -0.5, n_list, 100, contract=contract)[1] == \
            {"kind": "growth", "ratio": 4.0 if squared else 2.0, "rel_dev": 1.0, "pass": ok}


def test_growth_contract_is_not_squared_by_default(monkeypatch):
    n_list = _medians(monkeypatch, {64: 1.0, 128: 2.0})
    contract = {"kind": "growth", "target": 2.0, "rtol": 0.0}
    assert regularity_sweep(1, -0.5, n_list, 100, contract=contract)[1]["pass"] is True


@pytest.mark.parametrize("by_n", [{64: np.nan, 128: 1.0}, {64: 1.0, 128: np.nan}])
def test_growth_contract_fails_a_nan_median(monkeypatch, by_n):
    n_list = _medians(monkeypatch, by_n)
    contract = {"kind": "growth", "target": 1.0, "rtol": 1e300}
    record = regularity_sweep(1, -0.5, n_list, 100, contract=contract)[1]
    assert np.isnan(record["rel_dev"]) and record["pass"] is False
