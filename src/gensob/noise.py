"""Gaussian white noise on the 1- and 2-torus.

Sampling uses one counter-based stream (Philox) keyed by the seed, so a
sample is a pure function of (dim, N, seed) and identical under any thread
or process schedule.  The noise is drawn as i.i.d. standard normals on the
sample grid and transformed with the unitary-variance scaling
``fftn(x)/sqrt(N_total)``, which makes every coefficient unit-variance:
the zero and Nyquist bins are real N(0,1), every other coefficient is
(a+ib)/sqrt(2) with independent standard normal a, b, and conjugate
symmetry is exact.

Pairing convention (fixing the covariance constant at exactly C):
``pairing(xi, v) = sum_k xi_k conj(v_k)`` and the test-field inner product
is antilinear in its first slot, ``inner(v1, v2) = sum_k conj(v1_k) v2_k``;
then E[pairing(xi, v1) * conj(pairing(xi, v2))] = C * inner(v1, v2).

Both seed ensembles (covariance check, regularity sweep) are streamed: one
task per CHUNK-sized seed range (:func:`seed_chunks`) draws its samples and
keeps only its statistics, and the tasks run through a ``map`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectra import SpectralField, hermitian_part, nikolskii_norm


@dataclass(frozen=True)
class NoiseSample:
    field: SpectralField
    seed: int
    variance: float = 1.0


@dataclass(frozen=True)
class CovarianceResult:
    empirical: complex
    expected: complex
    z_score: float
    n_samples: int


@dataclass(frozen=True)
class RegularityRow:
    dim: int
    s: float
    n: int
    seed_count: int
    median: float
    q25: float
    q75: float


def sample_white_noise(dim: int, n: int, seed: int, variance: float = 1.0) -> NoiseSample:
    """Truncated white noise realization; deterministic given (dim, N, seed)."""
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError("N must be a power of two")
    if dim not in (1, 2):
        raise ValueError("dim must be 1 or 2")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    x = rng.standard_normal((n,) * dim)
    coeffs = np.fft.fftn(x) / np.sqrt(x.size) * np.sqrt(variance)
    field = SpectralField(dim=dim, n=n, coeffs=hermitian_part(coeffs))
    return NoiseSample(field=field, seed=int(seed), variance=variance)


def pairing(sample, test_field: SpectralField) -> complex:
    """xi(v) = sum_k xi_k conj(v_k)."""
    field = sample.field if isinstance(sample, NoiseSample) else sample
    return complex(np.vdot(test_field.coeffs, field.coeffs))


def inner(v1: SpectralField, v2: SpectralField) -> complex:
    """Test-field inner product, antilinear in the first slot."""
    return complex(np.vdot(v1.coeffs, v2.coeffs))


def regularity_norms(dim: int, s: float, n: int, seeds) -> np.ndarray:
    """Dyadic-sup norms of fresh noise samples, one per seed, in seed order."""
    return np.array([nikolskii_norm(sample_white_noise(dim, n, seed).field, s) for seed in seeds])


CHUNK = 25  # seeds per task: fixed, so no result depends on how the tasks are mapped


def seed_chunks(n_seeds: int, seed_base: int) -> list:
    """The seed ensemble seed_base, ..., seed_base + n_seeds - 1 as CHUNK-sized ranges."""
    seeds = range(seed_base, seed_base + n_seeds)
    return [seeds[i : i + CHUNK] for i in range(0, n_seeds, CHUNK)]


def _covariance_task(task):
    """Pairing products xi(v1) * conj(xi(v2)) of one seed chunk, shape (pairs, seeds)."""
    dim, n, pairs, seeds = task
    prods = np.empty((len(pairs), len(seeds)), dtype=np.complex128)
    for j, seed in enumerate(seeds):
        xi = sample_white_noise(dim, n, seed)
        for i, (v1, v2) in enumerate(pairs):
            prods[i, j] = pairing(xi, v1) * np.conj(pairing(xi, v2))
    return prods


def covariance_check(dim: int, n: int, pairs, n_samples: int, seed_base: int = 0,
                     map=map) -> list:
    """Empirical vs expected covariance of the pairings, one result per (v1, v2) in ``pairs``.

    Streams unit-variance noise over the seeds seed_base, ..., seed_base +
    n_samples - 1: the seed-chunk tasks run through ``map`` (as in
    :func:`regularity_sweep`) and each keeps only the per-pair products, so
    no sample outlives its chunk.  The z-score uses the sample variance of the
    products xi(v1) * conj(xi(v2)); deviations in both real and imaginary parts
    are folded into the complex magnitude.
    """
    if n_samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {n_samples}")
    tasks = [(dim, n, pairs, c) for c in seed_chunks(n_samples, seed_base)]
    products = np.concatenate(list(map(_covariance_task, tasks)), axis=1)
    results = []
    for prods, (v1, v2) in zip(products, pairs):
        emp, expected = complex(prods.mean()), inner(v1, v2)
        var = float(np.sum(np.abs(prods - emp) ** 2)) / (n_samples - 1)
        dev = abs(emp - expected)
        z = dev / np.sqrt(var / n_samples) if var > 0 else (np.inf if dev else 0.0)
        results.append(CovarianceResult(empirical=emp, expected=expected, z_score=float(z),
                                        n_samples=n_samples))
    return results


def _regularity_task(task):
    return regularity_norms(*task)


def regularity_sweep(dim: int, s: float, n_list, n_seeds: int, seed_base: int = 0, map=map):
    """Per-N quartile statistics of the dyadic-sup norm over a seed ensemble.

    At s = -dim/2 the medians are truncation-stable; slightly above, the
    median grows like N^(s + dim/2) (block energies scale as 2^((2s+dim) j)).
    The (N, seed-chunk) tasks run through ``map`` (the builtin by default; the
    CLI passes a process-pool mapper).  Each sample depends only on its seed,
    so any mapper that keeps task order gives the same bits.
    """
    if n_seeds < 100:
        raise ValueError("n_seeds >= 100 required for stable quartiles")
    n_list = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("n_list must be strictly ascending")
    chunks = seed_chunks(n_seeds, seed_base)
    norms = list(map(_regularity_task, [(dim, s, n, c) for n in n_list for c in chunks]))
    per_n = len(chunks)
    rows = []
    for i, n in enumerate(n_list):
        norms_n = np.concatenate(norms[i * per_n : (i + 1) * per_n])
        q25, med, q75 = np.percentile(norms_n, [25.0, 50.0, 75.0])
        rows.append(RegularityRow(dim=dim, s=s, n=n, seed_count=n_seeds,
                                  median=float(med), q25=float(q25), q75=float(q75)))
    return rows
