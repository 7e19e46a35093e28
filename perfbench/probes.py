"""Fixed-size layer probes: per-call medians of single gensob functions.

    python3 probes.py RESULT_JSON SEED

Runs in its own interpreter, untraced.  Each probe builds its inputs from
SEED, makes one untimed call, then times repeated calls and records the
median in milliseconds.  The ``probe.*`` sizes are the reference sizes the
roadmap quotes per layer; the ``scale.*`` probes are N-scaling curves.
"""

import json
import statistics
import sys
import time

from gensob import disk, noise, spectra, weights

MIN_REPS = 5
MAX_REPS = 200
TARGET_S = 0.1  # timed calls per probe stop after about this long

SIZES_1D = [256, 4096, 65536, 1048576]
SIZES_2D = [32, 128, 512, 1024]
# the third crit1 tree: a power times an iterated-log factor
ALPHA = weights.Product(weights.Power(0.5), weights.IterLogPower(1, 0.8))


def _noise(dim, n, seed):
    return lambda: noise.sample_white_noise(dim, n, seed)


def _halpha(dim, n, seed):
    field = spectra.random_field(dim, n, seed)
    return lambda: spectra.halpha_norm(field, ALPHA)


def _nikolskii(dim, n, seed):
    field = noise.sample_white_noise(dim, n, seed).field
    return lambda: spectra.nikolskii_norm(field, -1.0)


def _solve(n, seed):
    g = noise.sample_white_noise(1, n, seed).field
    return lambda: disk.solve_dirichlet([(0, 1.0)], g)


def probes():
    """(metric name, input factory, its size arguments); the seed comes last."""
    out = [
        ("probe.noise.sample_white_noise.d1.n16384.ms", _noise, (1, 16384)),
        ("probe.noise.sample_white_noise.d2.n256.ms", _noise, (2, 256)),
        ("probe.spectra.nikolskii_norm.d2.n256.ms", _nikolskii, (2, 256)),
        ("probe.spectra.halpha_norm.d2.n1024.ms", _halpha, (2, 1024)),
        ("probe.disk.solve_dirichlet.n4096.ms", _solve, (4096,)),
    ]
    for fn, make in (("noise.sample_white_noise", _noise), ("spectra.halpha_norm", _halpha)):
        for dim, sizes in ((1, SIZES_1D), (2, SIZES_2D)):
            out += [(f"scale.{fn}.d{dim}.n{n}.ms", make, (dim, n)) for n in sizes]
    return out


def time_call(call) -> float:
    call()
    times = []
    start = time.perf_counter()
    while len(times) < MIN_REPS or (time.perf_counter() - start < TARGET_S and len(times) < MAX_REPS):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def main() -> None:
    result_path, seed = sys.argv[1], int(sys.argv[2])
    results = {name: time_call(make(*size, seed)) for name, make, size in probes()}
    with open(result_path, "w") as fh:
        json.dump(results, fh)


if __name__ == "__main__":
    main()
