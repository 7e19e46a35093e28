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

One sampler serves them all, in buffers reused for the life of the thread:
``_draw`` writes each seed's normals into a row of one buffer, and ``_transform``
turns a stack of rows into coefficients with one FFT call, scaled and projected
in those buffers; each row has every bit of
``hermitian_part(fftn(x) / sqrt(N_total))``.  ``sample_white_noise`` is its
one-seed case.  The regularity sweep draws each seed once, at its largest N:
Philox fills in C order, so the draw at a smaller N is a prefix of that one.
No result aliases a buffer.  The Philox generator and the buffers are the
calling thread's (``spectra._sampler``), so threads, like processes, draw at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectra import (SpectralField, _ascending, _buffer, _check_size, _refuse_overflow,
                      _stream, hermitian_part, nikolskii_norm)
from .weights import ConstraintError


@dataclass(frozen=True)
class NoiseSample:
    field: SpectralField


def _draw(dim: int, n: int, seeds) -> np.ndarray:
    """Each seed's N^dim Philox normals, one row per seed, in the reused draw buffer."""
    _check_size(n)
    if dim not in (1, 2):
        raise ConstraintError("dim must be 1 or 2")
    rows = _buffer("draw", (len(seeds), n**dim), np.float64)
    for row, seed in zip(rows, seeds):
        _stream(seed).standard_normal(out=row)
    return rows


def _transform(rows: np.ndarray, dim: int, n: int) -> np.ndarray:
    """``hermitian_part(fftn(x) / sqrt(N^dim))`` of the (N,) or (N, N) field x that each row's
    first N^dim values fill in C order, shaped (rows, N[, N]), in reused buffers; one FFT call
    transforms every row."""
    shape = (len(rows),) + (n,) * dim
    x, out = rows[:, : n**dim].reshape(shape), _buffer("fft", shape, np.complex128)
    coeffs = np.fft.fft(x, out=out) if dim == 1 else np.fft.fftn(x, axes=(1, 2), out=out)
    coeffs /= np.sqrt(n**dim)
    return hermitian_part(coeffs, dim, out=_buffer("coeffs", shape, np.complex128))


def sample_white_noise(dim: int, n: int, seed: int) -> NoiseSample:
    """Truncated white noise realization; deterministic given (dim, N, seed)."""
    coeffs = _transform(_draw(dim, n, [seed]), dim, n)[0]
    return NoiseSample(field=SpectralField(coeffs.copy()))


def pairing(xi: SpectralField, test_field: SpectralField) -> complex:
    """xi(v) = sum_k xi_k conj(v_k) for a noise field xi (a ``NoiseSample``'s ``.field``)."""
    return complex(np.vdot(test_field.coeffs, xi.coeffs))


def inner(v1: SpectralField, v2: SpectralField) -> complex:
    """Test-field inner product, antilinear in the first slot."""
    return complex(np.vdot(v1.coeffs, v2.coeffs))


def regularity_norms(dim: int, s: float, n_list, seeds) -> np.ndarray:
    """Dyadic-sup norms of each seed's noise at each N of the ascending ``n_list``, shape
    (len(n_list), len(seeds)).  A seed is drawn once, at the largest N: Philox fills in C
    order, so the draw at a smaller N is a prefix of it, and every norm is that of
    ``sample_white_noise(dim, N, seed)``."""
    norms = np.empty((len(n_list), len(seeds)))
    with np.errstate(over="ignore"):  # a scaled block energy past the largest double reads inf
        for i, seed in enumerate(seeds):
            row = _draw(dim, n_list[-1], [seed])
            for n, out in zip(n_list, norms):
                out[i] = nikolskii_norm(SpectralField(_transform(row, dim, n)[0]), s)
    return norms


CHUNK = 25  # seeds per task: fixed, so no result depends on how the tasks are mapped


def _run_chunk(task):  # (kernel, args, seeds)
    return task[0](*task[1], task[2])


def ensemble(kernel, args_list, n_seeds: int, seed_base: int = 0, map=map) -> list:
    """For each args in ``args_list``, ``kernel(*args, seeds)`` per CHUNK-sized range of the
    seeds seed_base, ..., seed_base + n_seeds - 1, as a list in seed order.

    One task per (args, range) runs through ``map`` (the builtin by default; the CLI passes
    a process-pool mapper, so ``kernel`` must be a module-level function).  Each sample
    depends only on its seed, and each thread has its own sampler state, so any mapper that
    keeps task order, a thread pool's too, gives the same bits.
    """
    if n_seeds < 1:
        raise ConstraintError(f"an ensemble needs at least one seed, got {n_seeds}")
    seeds = range(seed_base, seed_base + n_seeds)
    chunks = [seeds[i : i + CHUNK] for i in range(0, n_seeds, CHUNK)]
    results = list(map(_run_chunk, [(kernel, args, c) for args in args_list for c in chunks]))
    k = len(chunks)
    return [results[i * k : (i + 1) * k] for i in range(len(args_list))]


def pairing_products(fields, index_pairs, seeds) -> np.ndarray:
    """Pairing products xi(v1) * conj(xi(v2)) over the seeds' noise, shape (pairs, seeds),
    for v1, v2 = fields[i1], fields[i2] per (i1, i2) in ``index_pairs``; each sample is
    paired once with each field.

    ``np.vecdot`` gives the bits of ``pairing`` (``np.vdot``) per (field, sample), and the
    product is written out in separate ufuncs, re = ar br + ai bi and im = ai br - ar bi, so
    it has the bits of the scalar ``a * np.conj(b)``, which the array expression does not.
    """
    dim, n = fields[0].dim, fields[0].n
    xi = _transform(_draw(dim, n, seeds), dim, n).reshape(len(seeds), -1)
    tests = np.stack([v.coeffs.ravel() for v in fields])
    values = np.vecdot(tests[:, None, :], xi)
    i1, i2 = np.array(index_pairs).T
    a, b = values[i1], values[i2]
    prods = np.empty(a.shape, dtype=np.complex128)
    np.add(a.real * b.real, a.imag * b.imag, out=prods.real)
    np.subtract(a.imag * b.real, a.real * b.imag, out=prods.imag)
    return prods


def covariance_check(pairs, n_samples: int, seed_base: int = 0, map=map, z_max=3.0):
    """Empirical vs expected covariance of the pairings, one result per (v1, v2) in ``pairs``.

    The noise takes the (dim, N) that every field must share, and :func:`ensemble`
    streams it over the seeds seed_base, ..., seed_base + n_samples - 1; a chunk keeps
    only its per-pair products.  Fields with equal coefficients are sent to the chunks,
    and paired with each sample, once.  The z-score uses the sample variance of the products
    xi(v1) * conj(xi(v2)); deviations in both real and imaginary parts are folded into
    the complex magnitude.  That variance, ||v1||^2 ||v2||^2 + |E[XY]|^2 for X, Y = xi(v1), xi(v2),
    has the scale ||v1||^2 ||v2||^2, so a pair for which that overflows a double is refused
    before the first draw.  Below it, z is computed on the deviations divided by the exact power
    of two 2^max(0, e - 480), max |deviation| < 2^e, which leaves z as it is and every square
    finite.  Returns (results, verdicts): one dict per pair with the keys ``empirical``,
    ``expected`` (complex) and ``z_score``, and the record, passing if each z <= ``z_max``.
    """
    if n_samples < 1000:
        raise ConstraintError(f"need at least 1000 samples, got {n_samples}")
    if not pairs:
        raise ConstraintError("covariance_check needs at least one (v1, v2) pair")
    if len({v.coeffs.shape for pair in pairs for v in pair}) != 1:
        raise ConstraintError("every field of the covariance pairs must share one (dim, N)")
    for i, pair in enumerate(pairs):
        sq1, sq2 = (float(np.vdot(v.coeffs, v.coeffs).real) for v in pair)  # floats: inf, no warning
        if not sq1 * sq2 < np.inf:
            raise ConstraintError(f"covariance pair {i}: ||v1||^2 ||v2||^2 overflows a double, "
                                  "so the variance of its products cannot be estimated")
    distinct = {v.coeffs.tobytes(): v for pair in pairs for v in pair}
    slot = {key: i for i, key in enumerate(distinct)}
    index_pairs = [(slot[v1.coeffs.tobytes()], slot[v2.coeffs.tobytes()]) for v1, v2 in pairs]
    args = (list(distinct.values()), index_pairs)
    (chunks,) = ensemble(pairing_products, [args], n_samples, seed_base, map)
    products = np.concatenate(chunks, axis=1)
    results = []
    for prods, (v1, v2) in zip(products, pairs):
        emp, expected = complex(prods.mean()), inner(v1, v2)
        dev = np.abs(prods - emp)
        scale = 2.0 ** max(0, int(np.frexp(dev.max())[1]) - 480)  # 1 while max dev < 2^480
        var = float(np.sum((dev / scale) ** 2)) / (n_samples - 1)
        err = abs(emp - expected) / scale
        z = err / np.sqrt(var / n_samples) if var > 0 else (np.inf if err else 0.0)
        results.append({"empirical": emp, "expected": expected, "z_score": float(z)})
    return results, {"z_max": z_max, "pass": all(res["z_score"] <= z_max for res in results)}


def regularity_sweep(dim: int, s: float, n_list, n_seeds: int, seed_base: int = 0, map=map,
                     contract=None):
    """Per-N quartile statistics of the dyadic-sup norm over a seed ensemble.

    At s = -dim/2 the medians are truncation-stable; slightly above, the
    median grows like N^(s + dim/2) (block energies scale as 2^((2s+dim) j)).
    The norms come from :func:`ensemble`, one task per seed chunk for every N, through
    ``map``.  An s for which 4^(s j) overflows a double at the top block of the largest N is
    refused before the first draw.
    Returns (rows, verdicts): one dict per N with the keys ``n``, ``median``, ``q25`` and ``q75``,
    and the record, {"pass": True} with no ``contract``.  A "bounded" contract
    passes if max/min of the medians < ``max_factor``; a "growth" one if last/first median
    (squared if ``squared``) is within relative ``rtol`` of ``target``.  NaN fails both.
    """
    if n_seeds < 100:
        raise ConstraintError("n_seeds >= 100 required for stable quartiles")
    n_list = _ascending(n_list)
    _refuse_overflow(s, dim, n_list[-1])
    (chunks,) = ensemble(regularity_norms, [(dim, s, n_list)], n_seeds, seed_base, map)
    per_n = np.concatenate(chunks, axis=1)
    with np.errstate(invalid="ignore"):  # an inf norm makes its quartiles NaN (inf - inf)
        quartiles = [np.percentile(norms, [25.0, 50.0, 75.0]) for norms in per_n]
    rows = [{"n": n, "median": float(med), "q25": float(q25), "q75": float(q75)}
            for n, (q25, med, q75) in zip(n_list, quartiles)]
    if contract is None:
        return rows, {"pass": True}
    vals = [r["median"] for r in rows]
    if contract["kind"] == "bounded":
        factor = float(np.max(vals) / np.min(vals))  # a NaN median reads NaN, and fails
        return rows, {"kind": "bounded", "factor": factor, "pass": factor < contract["max_factor"]}
    ratio = vals[-1] / vals[0]
    ratio = ratio**2 if contract.get("squared", False) else ratio
    rel = abs(ratio / contract["target"] - 1.0)
    return rows, {"kind": "growth", "ratio": ratio, "rel_dev": rel, "pass": rel <= contract["rtol"]}
