"""Experiment runner: every toolkit module as a subcommand.

Usage:
    gensob <subcommand> --config cfg.json --out outdir [--workers N] [--seed-base S]

Configs are JSON and checked against schemas/config_schema.json (unknown
keys are rejected) by the in-repo validator ``_schema.conform``, which
implements exactly the draft-2020-12 keywords that schema uses and raises on
any other, so no JSON Schema library is imported on the run path.  Weight
slots are checked by ``weights.weight_from_json``, which names the malformed
field, before any compute starts; the multi-weight subcommands take only a
list (``weights`` or ``cases``).  An optional key the config omits takes the
default of the library function it is passed to, and each sweep's verdict
record comes from that function too; ``interp-verify`` and ``eta-verify``
alone loop, and decide, here.  Each run writes ``results.csv`` and
``report.json`` into the output directory, byte-identical across reruns with
the same config and seeds and across any --workers value; wall-clock timing
goes to ``timing.json``, a sidecar outside the deterministic artifact.

Exit codes: 0 all verdicts pass, 2 a measured property failed (a NaN statistic
fails its comparison, so it exits 2 too), 1 configuration or precondition
error, or an --out that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, disk, noise, spectra, weights
from ._schema import conform
from .reports import write_report
from .weights import weight_from_json


class ConfigError(ValueError):
    pass


def _version() -> str:
    """``__version__``, marked "+local" unless this package sits beside its own wheel's dist-info
    directory, as it does exactly when a wheel is installed."""
    wheel = Path(__file__).parent.with_name(f"gensob-{__version__}.dist-info")
    return __version__ if wheel.is_dir() else f"{__version__}+local"


def _non_finite(text: str):
    """JSON constant hook: refuses NaN, Infinity and -Infinity."""
    raise ConfigError(f"non-finite number {text} is not allowed")


def _finite_number(text: str) -> float:
    """JSON number hook: refuses literals that overflow a double, echoing at most a prefix."""
    val = float(text)
    if not math.isfinite(val):
        shown = text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"
        raise ConfigError(f"number {shown} overflows a double")
    return val


def _finite_int(text: str) -> int:
    """JSON integer hook: refuses literals that overflow a double (and so huge digit strings)."""
    _finite_number(text)
    return int(text)


def validate_config(command: str, config: dict) -> dict:
    """One schema pass; weight slots need only be objects here, as the runner parses them.

    Returns the config with each integral float in an ``integer`` slot (``"n_seeds": 200.0``,
    which the schema accepts) turned into an int, the one place such a value is converted.
    """
    schema = json.loads((Path(__file__).parent / "schemas" / "config_schema.json").read_text())
    if command not in RUNNERS:  # $defs also holds helper definitions such as "weight"
        raise ConfigError(f"unknown subcommand {command}")
    error, config = conform(config, {**schema, "$ref": f"#/$defs/{command}"})
    if error is not None:
        raise ConfigError(f"config rejected: {error}")
    return config


def _map_tasks(fn, tasks, workers: int):
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool runs

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# field specs shared by noise/disk subcommands
# ---------------------------------------------------------------------------


def build_field(spec: dict, dim: int, n: int, alpha=None) -> spectra.SpectralField:
    """The field ``spec`` names on the (dim, n) grid; a spec that states its own N must match n."""
    kind = spec["kind"]
    if spec.get("N", n) != n:
        raise ConfigError(f"{kind} field spec has N = {spec['N']}, but it is built on N = {n}")
    if kind == "mode":
        return spectra.field_from_modes(dim, n, {tuple(spec["k"]): 1.0})
    if kind == "modes":
        modes = {tuple(k): complex(re, im) for *k, re, im in spec["modes"]}
        return spectra.field_from_modes(dim, n, modes)
    if kind == "gaussian_bump":
        if not spec["width"] < 2.0**512:  # finite, but its square would overflow a double
            raise ConfigError(f"gaussian_bump width {spec['width']} is too large to square")
        ksq = spectra.ksq_grid(dim, n).astype(float)
        with np.errstate(over="ignore"):  # exp(-inf) = 0; a square that underflows keeps k = 0 at 1
            coeffs = np.exp(-ksq / max(2.0 * spec["width"] ** 2, 5e-324)).astype(np.complex128)
        return spectra.SpectralField(coeffs)
    if kind == "noise":
        return noise.sample_white_noise(dim, n, spec["seed"]).field
    if kind == "alpha_decay":
        if alpha is None:
            raise ConfigError("alpha_decay field spec needs a weight in context")
        if dim != 1:
            raise ConfigError(f"alpha_decay field spec is 1-d boundary data, got dim = {dim}")
        return disk.alpha_decay_data(alpha, n, spec["extra_exponent"])
    raise ConfigError(f"unknown field spec kind {kind!r}")


# ---------------------------------------------------------------------------
# runners: each takes (config, map, seed_base) and returns (header, rows, verdicts, extra)
# ---------------------------------------------------------------------------


def _given(config, *keys) -> dict:
    """The optional library parameters among ``keys`` that the config sets."""
    return {k: config[k] for k in keys if k in config}


def run_weights_indices(config, map, seed_base):
    trees = [weight_from_json(obj) for obj in config["weights"]]  # all parsed before any compute
    tol = config.get("sym_tol")
    header = ["case", "sigma0_sym", "sigma1_sym", "sigma0_win", "sigma1_win",
              "t_min", "t_max", "lambda_max"]
    rows = []
    ok = True
    for i, alpha in enumerate(trees):
        est = weights.indices(alpha, **_given(config, "window", "lambda_max"))
        rows.append([i, est.sigma0_sym, est.sigma1_sym, est.sigma0_win, est.sigma1_win,
                     est.window[0], est.window[1], est.lambda_max])
        ok = ok and math.isfinite(est.sigma0_win) and math.isfinite(est.sigma1_win)
        if tol is not None and est.sigma0_sym is not None:
            ok = ok and abs(est.sigma0_sym - est.sigma0_win) <= tol \
                and abs(est.sigma1_sym - est.sigma1_win) <= tol
    verdicts = {"pass": ok}
    if tol is not None:
        verdicts["window_matches_symbolic"] = ok
    return header, rows, verdicts, {}


def run_weights_or_check(config, map, seed_base):
    alpha = weight_from_json(config["weight"])
    res = weights.check_or_window(alpha, config["b"], **_given(config, "t_min", "t_max"))
    header = ["b", "c_est", "t_min", "t_max", "verdict"]
    rows = [[res.b, res.c_est, *res.window, res.verdict]]
    verdicts = {"pass": res.verdict == "pass"}
    return header, rows, verdicts, {"segment_max": list(res.segment_max)}


def run_interp_verify(config, map, seed_base):
    cases = config["cases"]
    alphas = [weight_from_json(case["weight"]) for case in cases]  # all parsed before any compute
    tol = config.get("tol", 1e-10)
    n_fields = config.get("n_fields", 100)
    ts = np.geomspace(1.0, 1e8, 200)
    psis, pointwise = [], []
    for case, alpha in zip(cases, alphas):
        r0, r1 = case["r0"], case["r1"]
        psis.append(weights.interp_param(alpha, r0, r1))
        # pointwise: tree against the construction formula on a log grid
        with np.errstate(over="ignore", invalid="ignore"):  # an extreme weight reads NaN: FAIL
            direct = ts ** (-r0 / (r1 - r0)) * alpha.eval(ts ** (1.0 / (r1 - r0)))
            pointwise.append(float(np.max(np.abs(psis[-1].eval(ts) - direct) / direct)))
    # each field is drawn once per dim and read by every case; rows stay case-major
    header = ["case", "dim", "N", "seed", "halpha_norm", "interp_norm", "rel_err"]
    blocks = [[] for _ in cases]
    sizes = ((1, config.get("field_n", 4096)), (2, config.get("field_n_2d", 128)))
    for _, n in sizes:  # both grids are checked before the first draw
        spectra._check_size(n)
    for dim, n in sizes:
        for seed in range(seed_base + 1000 * dim, seed_base + 1000 * dim + n_fields):
            w = spectra.random_field(dim, n, seed)
            for ci, (case, alpha, psi) in enumerate(zip(cases, alphas, psis)):
                ha = spectra.halpha_norm(w, alpha)
                ip = spectra.interp_norm(w, case["r0"], case["r1"], psi)
                rel_err = abs(ip - ha) / ha if ha else math.nan  # norm 0 (grid underflow): NaN, FAIL
                blocks[ci].append([ci, dim, n, seed, ha, ip, rel_err])
    rows = [row for block in blocks for row in block]
    worst = float(np.max([*pointwise, *(row[-1] for row in rows)]))  # a NaN error reads NaN
    verdicts = {"max_rel_err": worst, "tol": tol, "pass": worst <= tol}
    return header, rows, verdicts, {"pointwise_err": pointwise}


def run_eta_verify(config, map, seed_base):
    cases = config["cases"]
    phis = [weight_from_json(case["phi"]) for case in cases]  # all parsed before any compute
    ts = np.geomspace(1.0, config.get("t_max", 1e8), 200)
    tol = config.get("tol", 1e-12)
    header = ["case", "order_shift", "theta", "max_rel_err"]
    rows = []
    for ci, (case, phi) in enumerate(zip(cases, phis)):
        s0, s1, lam = case["s0"], case["s1"], case["lam"]
        eta, theta = weights.eta_construct(phi, s0, s1, lam)
        vals = eta.eval(ts)
        for shift in config.get("order_shifts", [2.0, 4.0]):
            psi = weights.interp_param(
                weights.Product(phi, weights.Power(shift)), s0 + shift, s1 + shift
            )
            with np.errstate(over="ignore", invalid="ignore"):  # an extreme order reads NaN: FAIL
                ref = ts**lam * psi.eval(ts ** (s1 - lam))
            err = float(np.max(np.abs(vals - ref) / vals))
            rows.append([ci, shift, theta if theta is not None else "", err])
    worst = float(np.max([row[-1] for row in rows]))  # a NaN error reads NaN, and fails
    verdicts = {"max_rel_err": worst, "tol": tol, "pass": worst <= tol}
    return header, rows, verdicts, {}


def _embed_report(config, res):
    """The report of a decider result: its partial sums as rows, its verdict against the
    config's ``expect``, and its other fields (the reason, and any constant) as extra."""
    rows = [[k, s] for k, s in enumerate(res.partial_sums)]
    verdicts = {"verdict": res.verdict, "pass": True}
    if "expect" in config:
        verdicts["expected"] = config["expect"]
        verdicts["pass"] = res.verdict == config["expect"]
    extra = {k: v for k, v in vars(res).items() if k not in ("verdict", "partial_sums")}
    return ["k", "partial_sum"], rows, verdicts, extra


def run_embed_hormander(config, map, seed_base):
    alpha = weight_from_json(config["weight"])
    return _embed_report(config, weights.embed_hormander(alpha, config["p"], config["n"]))


def run_embed_nikolskii(config, map, seed_base):
    alpha = weight_from_json(config["weight"])
    return _embed_report(config, weights.embed_nikolskii(alpha, config["s"]))


def run_embedding_ratio(config, map, seed_base):
    alpha = weight_from_json(config["weight"])
    sweep = spectra.embedding_ratio_sweep(alpha, config["s"], config["N_list"],
                                          **_given(config, "dim", "slack"))
    header = ["N", "ratio", "constant_bound", "verdict"]
    rows = [[r.n, r.ratio, r.constant_bound if r.constant_bound is not None else "", r.verdict]
            for r in sweep.rows]
    verdicts = {"embedding": sweep.embedding.verdict, "pass": sweep.passed}
    extra = {"constant": sweep.embedding.constant, "tail_bound": sweep.embedding.tail_bound}
    return header, rows, verdicts, extra


def run_noise_covariance(config, map, seed_base):
    dim, n, n_samples = config["dim"], config["N"], config["n_samples"]
    pairs = [(build_field(p["v1"], dim, n), build_field(p["v2"], dim, n)) for p in config["pairs"]]
    results, verdicts = noise.covariance_check(pairs, n_samples, seed_base, map=map,
                                               **_given(config, "z_max"))
    header = ["pair", "empirical_re", "empirical_im", "expected_re", "expected_im", "z"]
    rows = [[idx, res.empirical.real, res.empirical.imag, res.expected.real, res.expected.imag,
             res.z_score] for idx, res in enumerate(results)]
    extra = {"n_samples": n_samples, "seed_list": [seed_base, seed_base + n_samples - 1]}
    return header, rows, verdicts, extra


def run_noise_regularity(config, map, seed_base):
    dim, s, n_seeds = config["dim"], config["s"], config["n_seeds"]
    stats, verdicts = noise.regularity_sweep(dim, s, config["N_list"], n_seeds, seed_base, map=map,
                                             **_given(config, "contract"))
    header = ["dim", "s", "N", "seed_count", "median", "q25", "q75"]
    rows = [[dim, s, r.n, n_seeds, r.median, r.q25, r.q75] for r in stats]
    extra = {"seed_list": [seed_base, seed_base + n_seeds - 1]}
    return header, rows, verdicts, extra


def run_disk_solve(config, map, seed_base):
    alpha = weight_from_json(config["alpha"])
    lam = config["lambda"]
    f_terms = [(m, complex(re, im)) for m, re, im in config["f_terms"]]  # disk checks each m
    g = build_field(config["g"], 1, config["N"], alpha=alpha)
    sol = disk.solve_dirichlet(f_terms, g)
    norms = disk.snorm(sol, alpha, lam)
    trace_exact = bool(np.array_equal(disk.trace_field(sol).coeffs, g.coeffs))
    header = ["snorm_alpha", "source_norm", "boundary_norm", "lower_order", "trace_exact"]
    rows = [[norms.snorm_alpha, norms.source_norm, norms.boundary_norm, norms.lower_order, trace_exact]]
    verdicts = {"pass": trace_exact}
    return header, rows, verdicts, {}


def run_disk_apriori(config, map, seed_base):
    alpha = weight_from_json(config["alpha"])
    f_terms = [(m, complex(re, im)) for m, re, im in config["f_terms"]]
    ensemble, verdicts = disk.apriori_sweep(alpha, config["lambda"], config["s"], f_terms,
                                            config["N_list"], config["n_seeds"], seed_base,
                                            map=map, **_given(config, "max_growth"))
    header = ["N", "seed", "ratio", "snorm", "source_norm", "boundary_norm"]
    rows = [[r.n, r.seed, r.ratio, r.snorm, r.source_norm, r.boundary_norm] for r in ensemble]
    extra = {"seed_list": [seed_base, seed_base + config["n_seeds"] - 1]}
    return header, rows, verdicts, extra


def run_disk_convergence(config, map, seed_base):
    alpha = weight_from_json(config["alpha"])
    n = config["g"].get("N", 1024)
    g = build_field(config["g"], 1, n, alpha=alpha)
    rows_res, verdicts = disk.uniform_convergence_experiment(alpha, g, config["K_list"],
                                                             **_given(config, "decay_check"))
    rows = [[r.k, r.sup_error, r.bound] for r in rows_res]
    return ["K", "sup_error", "bound"], rows, verdicts, {}


RUNNERS = {
    "weights-indices": run_weights_indices,
    "weights-or-check": run_weights_or_check,
    "interp-verify": run_interp_verify,
    "eta-verify": run_eta_verify,
    "embed-hormander": run_embed_hormander,
    "embed-nikolskii": run_embed_nikolskii,
    "embedding-ratio": run_embedding_ratio,
    "noise-covariance": run_noise_covariance,
    "noise-regularity": run_noise_regularity,
    "disk-solve": run_disk_solve,
    "disk-apriori": run_disk_apriori,
    "disk-convergence": run_disk_convergence,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gensob", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=list(RUNNERS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    parser.add_argument("--seed-base", type=int, default=None,
                        help="override the config's seed_base")
    args = parser.parse_args(argv)

    if args.workers < 1:
        print("workers must be >= 1", file=sys.stderr)
        return 1
    out = Path(args.out)
    blocker = next((p for p in (out, *out.parents) if p.exists()), out)
    if not blocker.is_dir():  # refused before any compute, as the write would fail after it
        print(f"cannot write report: {blocker} exists and is not a directory", file=sys.stderr)
        return 1

    try:
        config = json.loads(open(args.config).read(), parse_float=_finite_number,
                            parse_int=_finite_int, parse_constant=_non_finite)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1

    t0 = time.monotonic()
    try:
        config = validate_config(args.command, config)
        seed_base = args.seed_base if args.seed_base is not None else config.get("seed_base", 0)
        mapper = functools.partial(_map_tasks, workers=args.workers)
        header, rows, verdicts, extra = RUNNERS[args.command](config, mapper, seed_base)
    except ValueError as exc:  # the package's own errors all subclass it
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall = time.monotonic() - t0
    try:
        write_report(args.out, args.command, config, header, rows, verdicts, _version(),
                     wall_clock_s=wall, extra=extra)
    except OSError as exc:
        print(f"cannot write report: {exc}", file=sys.stderr)
        return 1
    ok = bool(verdicts.get("pass", True))
    print(f"{args.command}: {'pass' if ok else 'FAIL'} ({wall:.2f}s) -> {args.out}")
    return 0 if ok else 2


def entry():
    raise SystemExit(main())


gc.freeze()  # what the imports built lives until exit; no collection in a run needs to scan it
if __name__ == "__main__":
    entry()
