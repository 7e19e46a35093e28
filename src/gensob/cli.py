"""Experiment runner: every toolkit module as a subcommand.

Usage:
    gensob <subcommand> --config cfg.json --out outdir [--workers N] [--seed-base S]

Configs are read by plain ``json.loads`` and checked against schemas/config_schema.json
(unknown keys are rejected) by the in-repo validator ``_schema.conform``, which implements
exactly the draft-2020-12 keywords that schema uses, so no JSON Schema library is imported on
the run path; it alone decides that a config number is a finite double, and names the path of
a slot that holds ``NaN``, ``Infinity`` or ``1e400``.  Weight slots are checked by
``weights.weight_from_json``, which names the malformed field and refuses a tree nested too
deep, before any compute starts; the multi-weight subcommands take only a list (``weights`` or
``cases``).  An optional key the config omits takes the default of the library function it is
passed to.  The five sweeps (``embedding-ratio``, ``noise-*``, ``disk-apriori`` and
``disk-convergence``) return their verdict record from the library; every other subcommand
decides here: ``interp-verify`` and ``eta-verify`` loop and compare the worst error with ``tol``,
``weights-indices`` passes when every window index is finite and, with ``sym_tol``, within it of
the symbolic one, ``weights-or-check`` when the library's verdict reads "pass", ``embed-*``
when the decider's verdict equals ``expect`` (always without one), and ``disk-solve`` when the
solution's trace is g bit for bit (``trace_exact``).  Each run writes ``results.csv`` and
``report.json`` into the output directory, byte-identical across reruns with the same config
and seeds and across any --workers value; wall-clock timing goes to ``timing.json``, a sidecar
outside the deterministic artifact.

Exit codes: 0 all verdicts pass, or --help; 1 a refused input: a usage error, an unreadable config,
a ``weights.ConstraintError`` or an unwritable --out; 2 a failed property (a NaN statistic fails
its comparison); 3 any other exception from the run, a program fault, with its traceback on stderr.
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
from .weights import ConstraintError, weight_from_json


def _version() -> str:
    """``__version__``, marked "+local" unless this package sits beside its own wheel's dist-info
    directory, as it does exactly when a wheel is installed."""
    wheel = Path(__file__).parent.with_name(f"gensob-{__version__}.dist-info")
    return __version__ if wheel.is_dir() else f"{__version__}+local"


def validate_config(command: str, config: dict) -> dict:
    """One schema pass; weight slots need only be objects here, as the runner parses them.

    Returns the config with each integral float in an ``integer`` slot (``"n_seeds": 200.0``,
    which the schema accepts) turned into an int, the one place such a value is converted.
    """
    schema = json.loads((Path(__file__).parent / "schemas" / "config_schema.json").read_text())
    if command not in RUNNERS:  # $defs also holds helper definitions such as "weight"
        raise ConstraintError(f"unknown subcommand {command}")
    error, config = conform(config, {**schema, "$ref": f"#/$defs/{command}"})
    if error is not None:
        raise ConstraintError(f"config rejected: {error}")
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
        raise ConstraintError(f"{kind} field spec has N = {spec['N']}, but it is built on N = {n}")
    spectra._check_size(n)
    if kind == "mode":
        return spectra.field_from_modes(dim, n, {tuple(spec["k"]): 1.0})
    if kind == "modes":
        modes = {tuple(k): complex(re, im) for *k, re, im in spec["modes"]}
        return spectra.field_from_modes(dim, n, modes)
    if kind == "gaussian_bump":
        if not spec["width"] < 2.0**512:  # finite, but its square would overflow a double
            raise ConstraintError(f"gaussian_bump width {spec['width']} is too large to square")
        ksq = spectra.ksq_grid(dim, n).astype(float)
        with np.errstate(over="ignore"):  # exp(-inf) = 0; a square that underflows keeps k = 0 at 1
            coeffs = np.exp(-ksq / max(2.0 * spec["width"] ** 2, 5e-324)).astype(np.complex128)
        return spectra.SpectralField(coeffs)
    if kind == "noise":
        return noise.sample_white_noise(dim, n, spec["seed"]).field
    if kind == "alpha_decay":
        if alpha is None:
            raise ConstraintError("alpha_decay field spec needs a weight in context")
        if dim != 1:
            raise ConstraintError(f"alpha_decay field spec is 1-d boundary data, got dim = {dim}")
        return disk.alpha_decay_data(alpha, n, spec["extra_exponent"])
    raise ConstraintError(f"unknown field spec kind {kind!r}")


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
        sym, win = (est["sigma0_sym"], est["sigma1_sym"]), (est["sigma0_win"], est["sigma1_win"])
        rows.append([i, *sym, *win, *est["window"], est["lambda_max"]])
        ok = ok and math.isfinite(win[0]) and math.isfinite(win[1])
        if tol is not None and sym[0] is not None:
            ok = ok and abs(sym[0] - win[0]) <= tol and abs(sym[1] - win[1]) <= tol
    verdicts = {"pass": ok}
    if tol is not None:
        verdicts["window_matches_symbolic"] = ok
    return header, rows, verdicts, {}


def run_weights_or_check(config, map, seed_base):
    alpha = weight_from_json(config["weight"])
    res = weights.check_or_window(alpha, config["b"], **_given(config, "t_min", "t_max"))
    header = ["b", "c_est", "t_min", "t_max", "verdict"]
    rows = [[res["b"], res["c_est"], *res["window"], res["verdict"]]]
    verdicts = {"pass": res["verdict"] == "pass"}
    return header, rows, verdicts, {"segment_max": list(res["segment_max"])}


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
            r0, r1 = s0 + shift, s1 + shift
            if not -math.inf < r0 < r1 < math.inf:
                raise ConstraintError(f"order_shifts entry {shift}: s0 + shift = {r0} and "
                                      f"s1 + shift = {r1} must be distinct finite doubles")
            psi = weights.interp_param(weights.Product(phi, weights.Power(shift)), r0, r1)
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
    ratios, verdicts, emb = spectra.embedding_ratio_sweep(alpha, config["s"], config["N_list"],
                                                          **_given(config, "dim", "slack"))
    header = ["N", "ratio", "constant_bound", "verdict"]
    rows = [[r["n"], r["ratio"], "" if r["constant_bound"] is None else r["constant_bound"],
             r["verdict"]] for r in ratios]
    return header, rows, verdicts, {"constant": emb.constant, "tail_bound": emb.tail_bound}


def run_noise_covariance(config, map, seed_base):
    dim, n, n_samples = config["dim"], config["N"], config["n_samples"]
    pairs = [(build_field(p["v1"], dim, n), build_field(p["v2"], dim, n)) for p in config["pairs"]]
    results, verdicts = noise.covariance_check(pairs, n_samples, seed_base, map=map,
                                               **_given(config, "z_max"))
    header = ["pair", "empirical_re", "empirical_im", "expected_re", "expected_im", "z"]
    rows = [[idx, res["empirical"].real, res["empirical"].imag, res["expected"].real,
             res["expected"].imag, res["z_score"]] for idx, res in enumerate(results)]
    extra = {"n_samples": n_samples, "seed_list": [seed_base, seed_base + n_samples - 1]}
    return header, rows, verdicts, extra


def run_noise_regularity(config, map, seed_base):
    dim, s, n_seeds = config["dim"], config["s"], config["n_seeds"]
    stats, verdicts = noise.regularity_sweep(dim, s, config["N_list"], n_seeds, seed_base, map=map,
                                             **_given(config, "contract"))
    header = ["dim", "s", "N", "seed_count", "median", "q25", "q75"]
    rows = [[dim, s, r["n"], n_seeds, r["median"], r["q25"], r["q75"]] for r in stats]
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
    rows = [[norms[key] for key in header[:4]] + [trace_exact]]
    verdicts = {"pass": trace_exact}
    return header, rows, verdicts, {}


def run_disk_apriori(config, map, seed_base):
    alpha = weight_from_json(config["alpha"])
    f_terms = [(m, complex(re, im)) for m, re, im in config["f_terms"]]
    ensemble, verdicts = disk.apriori_sweep(alpha, config["lambda"], config["s"], f_terms,
                                            config["N_list"], config["n_seeds"], seed_base,
                                            map=map, **_given(config, "max_growth"))
    header = ["N", "seed", "ratio", "snorm", "source_norm", "boundary_norm"]
    rows = [[r["n"], r["seed"], r["ratio"], r["snorm"], r["source_norm"], r["boundary_norm"]]
            for r in ensemble]
    extra = {"seed_list": [seed_base, seed_base + config["n_seeds"] - 1]}
    return header, rows, verdicts, extra


def run_disk_convergence(config, map, seed_base):
    alpha = weight_from_json(config["alpha"])
    n = config["g"].get("N", 1024)
    g = build_field(config["g"], 1, n, alpha=alpha)
    rows_res, verdicts = disk.uniform_convergence_experiment(alpha, g, config["K_list"],
                                                             **_given(config, "decay_check"))
    rows = [[r["k"], r["sup_error"], r["bound"]] for r in rows_res]
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
    try:
        args = parser.parse_args(argv)
        if args.workers < 1:
            parser.error("--workers must be >= 1")
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return 1 if exc.code else 0
    out = Path(args.out)
    blocker = next((p for p in (out, *out.parents) if p.exists()), out)
    if not blocker.is_dir():  # refused before any compute, as the write would fail after it
        print(f"cannot write report: {blocker} exists and is not a directory", file=sys.stderr)
        return 1

    try:  # a ValueError: not UTF-8, not JSON, or an integer literal past Python's digit limit
        config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # RecursionError: nested too deep to parse
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1

    t0 = time.monotonic()
    try:
        config = validate_config(args.command, config)
        seed_base = args.seed_base if args.seed_base is not None else config.get("seed_base", 0)
        mapper = functools.partial(_map_tasks, workers=args.workers)
        header, rows, verdicts, extra = RUNNERS[args.command](config, mapper, seed_base)
    except ConstraintError as exc:  # a refused input
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # any other is a fault of the program, not of its input
        import traceback  # loaded only on this path
        traceback.print_exc()
        return 3
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
