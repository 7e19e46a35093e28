"""Experiment runner: every toolkit module as a subcommand.

Usage:
    gensob <subcommand> --config cfg.json --out outdir [--workers N] [--seed-base S]

Configs are JSON and validated against schemas/config_schema.json (unknown
keys are rejected).  Each run writes ``results.csv`` and ``report.json``
into the output directory; both are byte-identical across reruns with the
same config and seeds and across any --workers value.  Wall-clock timing
goes to ``timing.json``, which is a sidecar and not part of the
deterministic artifact.

Exit codes: 0 all verdicts pass, 2 a measured property failed,
1 configuration or precondition error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple
from importlib import metadata, resources

import numpy as np

from . import disk, noise, spectra, weights
from .reports import write_report
from .weights import ConstraintError, DomainError, weight_from_json


class ConfigError(ValueError):
    pass


def _version() -> str:
    try:
        return metadata.version("gensob")
    except metadata.PackageNotFoundError:
        return "0.1.0+local"


def _load_schema(name: str) -> dict:
    text = resources.files("gensob").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


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


def validate_config(command: str, config: dict) -> None:
    """One schema pass; weight sub-objects resolve to the weight-expression schema."""
    from jsonschema import Draft202012Validator
    from jsonschema.exceptions import best_match
    from referencing import Registry, Resource

    schema_doc = _load_schema("config_schema.json")
    if command not in schema_doc["$defs"]:
        raise ConfigError(f"unknown subcommand {command}")
    wschema = Resource.from_contents(_load_schema("weight_expr_schema.json"))
    validator = Draft202012Validator(
        {**schema_doc, "$ref": f"#/$defs/{command}"},
        registry=Registry().with_resource(wschema.id(), wschema),
    )
    error = best_match(validator.iter_errors(config))
    if error is not None:
        raise ConfigError(f"config rejected: {error.message}")


def _map_tasks(fn, tasks, workers: int):
    if workers <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# field specs shared by noise/disk subcommands
# ---------------------------------------------------------------------------


def build_field(spec: dict, dim: int, n: int, alpha=None) -> spectra.SpectralField:
    kind = spec["kind"]
    if kind == "mode":
        k = spec["k"]
        key = k[0] if dim == 1 else tuple(k)
        return spectra.field_from_modes(dim, n, {key: 1.0})
    if kind == "modes":
        modes = {}
        for entry in spec["modes"]:
            *k, re, im = entry
            key = int(k[0]) if dim == 1 else tuple(int(c) for c in k)
            modes[key] = complex(re, im)
        return spectra.field_from_modes(dim, n, modes)
    if kind == "gaussian_bump":
        ksq = spectra.ksq_grid(dim, n).astype(float)
        coeffs = np.exp(-ksq / (2.0 * spec["width"] ** 2)).astype(np.complex128)
        return spectra.SpectralField(dim=dim, n=n, coeffs=coeffs)
    if kind == "noise":
        return noise.sample_white_noise(dim, spec["N"], spec["seed"]).field
    if kind == "alpha_decay":
        if alpha is None:
            raise ConfigError("alpha_decay field spec needs a weight in context")
        nn = spec["N"]
        chi = spectra.chi_grid(dim, nn)
        mags = np.exp(-alpha.log_value(np.log(chi))) * chi ** (-0.5 - spec["extra_exponent"])
        return spectra.SpectralField(dim=dim, n=nn, coeffs=mags.astype(np.complex128))
    raise ConfigError(f"unknown field spec kind {kind!r}")


# ---------------------------------------------------------------------------
# runners: each returns (header, rows, verdicts, extra)
# ---------------------------------------------------------------------------


def run_weights_indices(config, workers, seed_base):
    trees = config.get("weights", [config["weight"]] if "weight" in config else [])
    window = tuple(config.get("window", (1e4, 1e12)))
    tol = config.get("sym_tol")
    header = ["case", "sigma0_sym", "sigma1_sym", "sigma0_win", "sigma1_win",
              "t_min", "t_max", "lambda_max"]
    rows = []
    ok = True
    for i, obj in enumerate(trees):
        alpha = weight_from_json(obj)
        est = weights.indices(alpha, window=window, lambda_max=config.get("lambda_max", 16.0))
        rows.append([i, est.sigma0_sym, est.sigma1_sym, est.sigma0_win, est.sigma1_win,
                     est.window[0], est.window[1], est.lambda_max])
        if tol is not None and est.sigma0_sym is not None:
            ok = ok and abs(est.sigma0_sym - est.sigma0_win) <= tol \
                and abs(est.sigma1_sym - est.sigma1_win) <= tol
    verdicts = {"pass": ok}
    if tol is not None:
        verdicts["window_matches_symbolic"] = ok
    return header, rows, verdicts, {}


def run_weights_or_check(config, workers, seed_base):
    alpha = weight_from_json(config["weight"])
    grid = weights.WindowGrid(
        t_min=config.get("t_min", 1.0),
        t_max=config.get("t_max", 1e8),
        n_t=config.get("n_t", 241),
        n_lambda=config.get("n_lambda", 17),
    )
    res = weights.check_or_window(alpha, config["b"], grid, c_cap=config.get("c_cap"))
    header = ["b", "c_est", "t_min", "t_max", "verdict"]
    rows = [[res.b, res.c_est, grid.t_min, grid.t_max, res.verdict]]
    verdicts = {"pass": res.verdict == "pass"}
    return header, rows, verdicts, {"segment_max": list(res.segment_max)}


def run_interp_verify(config, workers, seed_base):
    cases = config.get("cases")
    if cases is None:
        cases = [{"weight": config["weight"], "r0": config["r0"], "r1": config["r1"]}]
    tol = config.get("tol", 1e-10)
    n_fields = config.get("n_fields", 100)
    header = ["case", "dim", "N", "seed", "halpha_norm", "interp_norm", "rel_err"]
    rows = []
    worst = 0.0
    pointwise = []
    for ci, case in enumerate(cases):
        alpha = weight_from_json(case["weight"])
        r0, r1 = case["r0"], case["r1"]
        psi = weights.interp_param(alpha, r0, r1)
        # pointwise: tree against the construction formula on a log grid
        ts = np.geomspace(1.0, config.get("grid_t_max", 1e8), 200)
        direct = ts ** (-r0 / (r1 - r0)) * alpha.eval(ts ** (1.0 / (r1 - r0)))
        err_pw = float(np.max(np.abs(psi.eval(ts) - direct) / direct))
        pointwise.append(err_pw)
        worst = max(worst, err_pw)
        for dim in config.get("dims", [1, 2]):
            n = config.get("field_n", 4096) if dim == 1 else config.get("field_n_2d", 128)
            for i in range(n_fields):
                w = spectra.random_field(dim, n, seed_base + 1000 * dim + i)
                ha = spectra.halpha_norm(w, alpha)
                ip = spectra.interp_norm(w, r0, r1, psi)
                rel = abs(ip - ha) / ha
                worst = max(worst, rel)
                rows.append([ci, dim, n, seed_base + 1000 * dim + i, ha, ip, rel])
    verdicts = {"max_rel_err": worst, "tol": tol, "pass": worst <= tol}
    return header, rows, verdicts, {"pointwise_err": pointwise}


def run_eta_verify(config, workers, seed_base):
    cases = config.get("cases")
    if cases is None:
        cases = [{"phi": config["phi"], "s0": config["s0"], "s1": config["s1"],
                  "lam": config["lam"]}]
    ts = np.geomspace(1.0, config.get("t_max", 1e8), config.get("n_t", 200))
    tol = config.get("tol", 1e-12)
    header = ["case", "order_shift", "theta", "max_rel_err"]
    rows = []
    worst = 0.0
    for ci, case in enumerate(cases):
        phi = weight_from_json(case["phi"])
        s0, s1, lam = case["s0"], case["s1"], case["lam"]
        eta, theta = weights.eta_construct(phi, s0, s1, lam)
        vals = eta.eval(ts)
        for shift in config.get("order_shifts", [2.0, 4.0]):
            psi = weights.interp_param(
                weights.Product(phi, weights.Power(shift)), s0 + shift, s1 + shift
            )
            ref = ts**lam * psi.eval(ts ** (s1 - lam))
            err = float(np.max(np.abs(vals - ref) / vals))
            worst = max(worst, err)
            rows.append([ci, shift, theta if theta is not None else "", err])
    verdicts = {"max_rel_err": worst, "tol": tol, "pass": worst <= tol}
    return header, rows, verdicts, {}


def _expect_verdict(config, res_verdict):
    expect = config.get("expect")
    verdicts = {"verdict": res_verdict, "pass": True}
    if expect is not None:
        verdicts["expected"] = expect
        verdicts["pass"] = res_verdict == expect
    return verdicts


def run_embed_hormander(config, workers, seed_base):
    alpha = weight_from_json(config["weight"])
    res = weights.embed_hormander(alpha, config["p"], config["n"], config.get("k_max", 60))
    header = ["k", "partial_sum"]
    rows = [[k, s] for k, s in enumerate(res.partial_sums)]
    verdicts = _expect_verdict(config, res.verdict)
    return header, rows, verdicts, {"reason": res.reason}


def run_embed_nikolskii(config, workers, seed_base):
    alpha = weight_from_json(config["weight"])
    res = weights.embed_nikolskii(alpha, config["s"], config.get("k_max", 60))
    header = ["k", "partial_sum"]
    rows = [[k, s] for k, s in enumerate(res.partial_sums)]
    verdicts = _expect_verdict(config, res.verdict)
    extra = {"reason": res.reason, "constant": res.constant, "tail_bound": res.tail_bound}
    return header, rows, verdicts, extra


def run_embedding_ratio(config, workers, seed_base):
    alpha = weight_from_json(config["weight"])
    sweep = spectra.embedding_ratio_sweep(
        alpha, config["s"], config["N_list"], dim=config.get("dim", 1),
        k_max=config.get("k_max", 60), slack=config.get("slack", 0.1),
    )
    header = ["N", "ratio", "constant_bound", "verdict"]
    rows = [[r.n, r.ratio, r.constant_bound if r.constant_bound is not None else "", r.verdict]
            for r in sweep.rows]
    if sweep.embedding.converges:
        ok = all(r.verdict == "bounded" for r in sweep.rows)
    else:
        ok = all(r.verdict == "increasing" for r in sweep.rows)
    verdicts = {"embedding": sweep.embedding.verdict, "pass": ok}
    extra = {"constant": sweep.embedding.constant, "tail_bound": sweep.embedding.tail_bound}
    return header, rows, verdicts, extra


def run_noise_covariance(config, workers, seed_base):
    dim, n = config["dim"], config["N"]
    n_samples = config["n_samples"]
    z_max = config.get("z_max", 3.0)
    pairs = [(build_field(p["v1"], dim, n), build_field(p["v2"], dim, n)) for p in config["pairs"]]
    results = noise.covariance_check(dim, n, pairs, n_samples, seed_base,
                                     map=functools.partial(_map_tasks, workers=workers))
    header = ["pair", "empirical_re", "empirical_im", "expected_re", "expected_im", "z"]
    rows = [[idx, res.empirical.real, res.empirical.imag, res.expected.real, res.expected.imag,
             res.z_score] for idx, res in enumerate(results)]
    verdicts = {"z_max": z_max, "pass": all(res.z_score <= z_max for res in results)}
    extra = {"n_samples": n_samples, "seed_list": [seed_base, seed_base + n_samples - 1]}
    return header, rows, verdicts, extra


def run_noise_regularity(config, workers, seed_base):
    n_seeds = config["n_seeds"]
    stats = noise.regularity_sweep(config["dim"], config["s"], config["N_list"], n_seeds, seed_base,
                                   map=functools.partial(_map_tasks, workers=workers))
    header = ["dim", "s", "N", "seed_count", "median", "q25", "q75"]
    rows = [list(astuple(r)) for r in stats]
    verdicts = {"pass": True}
    contract = config.get("contract")
    if contract is not None:
        vals = [r.median for r in stats]
        if contract["kind"] == "bounded":
            factor = max(vals) / min(vals)
            verdicts = {"kind": "bounded", "factor": factor, "pass": factor < contract["max_factor"]}
        else:
            ratio = vals[-1] / vals[0]
            if contract.get("squared", False):
                ratio = ratio**2
            rel = abs(ratio / contract["target"] - 1.0)
            verdicts = {"kind": "growth", "ratio": ratio, "rel_dev": rel,
                        "pass": rel <= contract["rtol"]}
    extra = {"seed_list": [seed_base, seed_base + n_seeds - 1]}
    return header, rows, verdicts, extra


def run_disk_solve(config, workers, seed_base):
    alpha = weight_from_json(config["alpha"])
    lam = config["lambda"]
    f_terms = [(int(m), complex(re, im)) for m, re, im in config["f_terms"]]
    g = build_field(config["g"], 1, config["N"], alpha=alpha)
    sol = disk.solve_dirichlet(f_terms, g)
    norms = disk.snorm(sol, alpha, lam)
    trace_exact = bool(np.array_equal(disk.trace_field(sol, g.n).coeffs, g.coeffs))
    header = ["snorm_alpha", "source_norm", "boundary_norm", "lower_order", "trace_exact"]
    rows = [[norms.snorm_alpha, norms.source_norm, norms.boundary_norm, norms.lower_order, trace_exact]]
    verdicts = {"pass": trace_exact}
    return header, rows, verdicts, {}


def run_disk_apriori(config, workers, seed_base):
    alpha = weight_from_json(config["alpha"])
    f_terms = [(int(m), complex(re, im)) for m, re, im in config["f_terms"]]
    n_list, n_seeds = config["N_list"], config["n_seeds"]
    ensemble, summaries = disk.apriori_sweep(
        alpha, config["lambda"], config["s"], f_terms, n_list, n_seeds, seed_base,
        config.get("k_max", 60), map=functools.partial(_map_tasks, workers=workers),
    )
    max_per_n = {r.n: r.max_ratio for r in summaries}
    header = ["N", "seed", "ratio", "snorm", "source_norm", "boundary_norm"]
    rows = [list(astuple(r)) for r in ensemble]
    growth = max_per_n[n_list[-1]] / max_per_n[n_list[0]]
    limit = config.get("max_growth", 1.5)
    verdicts = {"max_ratio_growth": growth, "limit": limit, "pass": growth <= limit,
                "max_per_N": {str(n): max_per_n[n] for n in n_list}}
    extra = {"seed_list": [seed_base, seed_base + n_seeds - 1]}
    return header, rows, verdicts, extra


def run_disk_convergence(config, workers, seed_base):
    alpha = weight_from_json(config["alpha"])
    g = build_field(config["g"], 1, config["g"].get("N", 1024), alpha=alpha)
    rows_res = disk.uniform_convergence_experiment(
        alpha, g, config["K_list"], n_r=config.get("n_r", 512), n_theta=config.get("n_theta", 512)
    )
    header = ["K", "sup_error", "bound"]
    rows = [[r.k, r.sup_error, r.bound] for r in rows_res]
    ok = all(r.sup_error <= r.bound for r in rows_res)
    verdicts = {"bound_holds": ok}
    check = config.get("decay_check")
    if check is not None:
        by_k = {r.k: r.sup_error for r in rows_res}
        ok_decay = by_k[check["k_hi"]] <= check["factor"] * by_k[check["k_lo"]]
        verdicts["decay_ok"] = ok_decay
        ok = ok and ok_decay
    verdicts["pass"] = ok
    return header, rows, verdicts, {}


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

    try:
        config = json.loads(open(args.config).read(), parse_float=_finite_number,
                            parse_int=_finite_int, parse_constant=_non_finite)
    except (OSError, json.JSONDecodeError, ConfigError) as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 1

    t0 = time.monotonic()
    try:
        validate_config(args.command, config)
        seed_base = args.seed_base if args.seed_base is not None else config.get("seed_base", 0)
        header, rows, verdicts, extra = RUNNERS[args.command](config, args.workers, seed_base)
    except (ConfigError, ConstraintError, DomainError, disk.PreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall = time.monotonic() - t0
    write_report(args.out, args.command, config, header, rows, verdicts, _version(),
                 wall_clock_s=wall, extra=extra)
    ok = bool(verdicts.get("pass", True))
    print(f"{args.command}: {'pass' if ok else 'FAIL'} ({wall:.2f}s) -> {args.out}")
    return 0 if ok else 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
