"""Gaussian white noise on the 1- and 2-torus.

Sampling uses one counter-based stream (Philox) keyed by the seed, so a
sample is a pure function of (dim, N, seed) and identical under any thread
or process schedule.  The noise is drawn as i.i.d. standard normals on the
sample grid and transformed with the unitary-variance scaling
``fftn(x)/sqrt(N_total)``, which makes every coefficient unit-variance:
the zero and Nyquist bins are real N(0,1), every other coefficient is
(a+ib)/sqrt(2) with independent standard normal a, b, and conjugate
symmetry is exact.

Pairing convention (fixing the covariance constant at exactly 1):
``pairing(xi, v) = sum_k xi_k conj(v_k)`` and the test-field inner product
is antilinear in its first slot, ``inner(v1, v2) = sum_k conj(v1_k) v2_k``;
then E[pairing(xi, v1) * conj(pairing(xi, v2))] = inner(v1, v2).

All three seed ensembles (the covariance check and the regularity sweep here,
and ``disk.apriori_sweep``) run on one engine, :func:`ensemble`: one task per
(arguments, CHUNK-sized seed range) draws its samples and keeps only its
statistics, and the tasks run through a ``map`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectra import SpectralField, _ascending, _check_size, _stream, hermitian_part, nikolskii_norm


@dataclass(frozen=True)
class NoiseSample:
    field: SpectralField


@dataclass(frozen=True)
class CovarianceResult:
    empirical: complex
    expected: complex
    z_score: float


@dataclass(frozen=True)
class RegularityRow:
    n: int
    median: float
    q25: float
    q75: float


def sample_white_noise(dim: int, n: int, seed: int) -> NoiseSample:
    """Truncated white noise realization; deterministic given (dim, N, seed)."""
    _check_size(n)
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    x = _stream(seed).standard_normal((n,) * dim)
    coeffs = np.fft.fftn(x) / np.sqrt(x.size)
    return NoiseSample(field=SpectralField(hermitian_part(coeffs)))


def pairing(xi: SpectralField, test_field: SpectralField) -> complex:
    """xi(v) = sum_k xi_k conj(v_k) for a noise field xi (a ``NoiseSample``'s ``.field``)."""
    return complex(np.vdot(test_field.coeffs, xi.coeffs))


def inner(v1: SpectralField, v2: SpectralField) -> complex:
    """Test-field inner product, antilinear in the first slot."""
    return complex(np.vdot(v1.coeffs, v2.coeffs))


def regularity_norms(dim: int, s: float, n: int, seeds) -> np.ndarray:
    """Dyadic-sup norms of fresh noise samples, one per seed, in seed order."""
    return np.array([nikolskii_norm(sample_white_noise(dim, n, seed).field, s) for seed in seeds])


CHUNK = 25  # seeds per task: fixed, so no result depends on how the tasks are mapped


def _run_chunk(task):  # (kernel, args, seeds)
    return task[0](*task[1], task[2])


def ensemble(kernel, args_list, n_seeds: int, seed_base: int = 0, map=map) -> list:
    """For each args in ``args_list``, ``kernel(*args, seeds)`` per CHUNK-sized range of the
    seeds seed_base, ..., seed_base + n_seeds - 1, as a list in seed order.

    One task per (args, range) runs through ``map`` (the builtin by default; the CLI passes
    a process-pool mapper, so ``kernel`` must be a module-level function).  Each sample
    depends only on its seed, so any mapper that keeps task order gives the same bits.
    """
    seeds = range(seed_base, seed_base + n_seeds)
    chunks = [seeds[i : i + CHUNK] for i in range(0, n_seeds, CHUNK)]
    results = list(map(_run_chunk, [(kernel, args, c) for args in args_list for c in chunks]))
    k = len(chunks)
    return [results[i * k : (i + 1) * k] for i in range(len(args_list))]


def pairing_products(fields, index_pairs, seeds) -> np.ndarray:
    """Pairing products xi(v1) * conj(xi(v2)) over the seeds' noise, shape (pairs, seeds),
    for v1, v2 = fields[i1], fields[i2] per (i1, i2) in ``index_pairs``; each sample is
    paired once with each field."""
    dim, n = fields[0].dim, fields[0].n
    prods = np.empty((len(index_pairs), len(seeds)), dtype=np.complex128)
    for j, seed in enumerate(seeds):
        xi = sample_white_noise(dim, n, seed).field
        values = [pairing(xi, v) for v in fields]
        for i, (i1, i2) in enumerate(index_pairs):
            prods[i, j] = values[i1] * np.conj(values[i2])
    return prods


def covariance_check(pairs, n_samples: int, seed_base: int = 0, map=map) -> list:
    """Empirical vs expected covariance of the pairings, one result per (v1, v2) in ``pairs``.

    The noise takes the (dim, N) that every field must share, and :func:`ensemble`
    streams it over the seeds seed_base, ..., seed_base + n_samples - 1; a chunk keeps
    only its per-pair products.  Fields with equal coefficients are sent to the chunks,
    and paired with each sample, once.  The z-score uses the sample variance of the products
    xi(v1) * conj(xi(v2)); deviations in both real and imaginary parts are folded into
    the complex magnitude.
    """
    if n_samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {n_samples}")
    if not pairs:
        raise ValueError("covariance_check needs at least one (v1, v2) pair")
    if len({v.coeffs.shape for pair in pairs for v in pair}) != 1:
        raise ValueError("every field of the covariance pairs must share one (dim, N)")
    distinct = {v.coeffs.tobytes(): v for pair in pairs for v in pair}
    slot = {key: i for i, key in enumerate(distinct)}
    index_pairs = [(slot[v1.coeffs.tobytes()], slot[v2.coeffs.tobytes()]) for v1, v2 in pairs]
    args = (list(distinct.values()), index_pairs)
    (chunks,) = ensemble(pairing_products, [args], n_samples, seed_base, map)
    products = np.concatenate(chunks, axis=1)
    results = []
    for prods, (v1, v2) in zip(products, pairs):
        emp, expected = complex(prods.mean()), inner(v1, v2)
        var = float(np.sum(np.abs(prods - emp) ** 2)) / (n_samples - 1)
        dev = abs(emp - expected)
        z = dev / np.sqrt(var / n_samples) if var > 0 else (np.inf if dev else 0.0)
        results.append(CovarianceResult(empirical=emp, expected=expected, z_score=float(z)))
    return results


def regularity_sweep(dim: int, s: float, n_list, n_seeds: int, seed_base: int = 0, map=map):
    """Per-N quartile statistics of the dyadic-sup norm over a seed ensemble.

    At s = -dim/2 the medians are truncation-stable; slightly above, the
    median grows like N^(s + dim/2) (block energies scale as 2^((2s+dim) j)).
    The norms come from :func:`ensemble` over (N, seed chunk), through ``map``.
    """
    if n_seeds < 100:
        raise ValueError("n_seeds >= 100 required for stable quartiles")
    n_list = _ascending(n_list)
    per_n = ensemble(regularity_norms, [(dim, s, n) for n in n_list], n_seeds, seed_base, map)
    quartiles = [np.percentile(np.concatenate(chunks), [25.0, 50.0, 75.0]) for chunks in per_n]
    return [RegularityRow(n=n, median=float(med), q25=float(q25), q75=float(q75))
            for n, (q25, med, q75) in zip(n_list, quartiles)]
