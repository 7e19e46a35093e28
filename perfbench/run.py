"""Cold-process benchmark of the gensob command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run it from the repository root.  It times what a CLI user waits for,
``gensob <subcommand> --config ...`` until a verdict and a report are on
disk, on the repository's own configs.  Each config runs as
``gensob.cli.main`` in a fresh interpreter (child.py), one process at a time,
because a user pays import, schema loading and any cache warm-up on every
invocation.  The workload seed goes to every config as ``--seed-base``;
configs without seeds ignore it.  BLAS/OpenMP pools in the children are capped
at one thread.  perfbench/README.md gives the workloads and metrics.

A pass runs every config of the workload once.  Passes repeat until the
next one would end more than ``--seconds`` after the start, and at least two
run.  With ``--trace 0`` no pass is traced and the last line carries the
end-to-end metrics.  With ``--trace 1`` the layer probes run first, then
untraced and traced passes alternate, and the last line carries the
per-layer metrics.

Every config run is checked: it must not raise out of ``cli.main``, its exit
code must be in its expected class, its results.csv and report.json must be
byte-identical to the first run of the same config, and a config that runs
with ``--workers 2`` must match an untimed ``--workers 1`` reference run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric with its unit, the error rate, the provenance and the
report digests.  Everything a run leaves goes to ``.bench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

CONFIGS = {
    "crit1-interp": "interp-verify",
    "crit2-eta": "eta-verify",
    "crit3-indices": "weights-indices",
    "crit4a-bounded": "embedding-ratio",
    "crit4b-divergent": "embedding-ratio",
    "crit5-covariance": "noise-covariance",
    "crit6a-bounded-1d": "noise-regularity",
    "crit6b-growth-1d": "noise-regularity",
    "crit6c-bounded-2d": "noise-regularity",
    "crit7-apriori": "disk-apriori",
    "crit7-reject": "disk-apriori",
    "crit8-convergence": "disk-convergence",
    "crit8-reject": "disk-convergence",
    "embed-nikolskii": "embed-nikolskii",
    "embed-hormander": "embed-hormander",
    "weights-or-check": "weights-or-check",
}
# (config, --workers) in run order
WORKLOADS = {
    # The seed-ensemble path users wait longest for: noise, spectra and disk
    # layout do the work; crit5 holds every sample and sets peak memory.
    "ensemble-1d": [("crit5-covariance", 1), ("crit6a-bounded-1d", 1),
                    ("crit6b-growth-1d", 1), ("crit7-apriori", 1)],
    # The weight grid is evaluated again and again on the same (tree, dim, N),
    # the 2-d FFT runs, and crit6c goes through process-pool dispatch.
    "fields-2d": [("crit1-interp", 1), ("crit6c-bounded-2d", 2)],
    # Many short runs dominated by config validation and the symbolic and
    # dyadic deciders; no noise is sampled and no (tree, N) repeats.
    "deciders": [("crit2-eta", 1), ("crit3-indices", 1), ("crit4a-bounded", 1),
                 ("crit4b-divergent", 1), ("crit7-reject", 1), ("crit8-convergence", 1),
                 ("crit8-reject", 1), ("embed-nikolskii", 1), ("embed-hormander", 1),
                 ("weights-or-check", 1)],
}
# A FAIL verdict (exit 2) is not an operation failure; the reject configs
# must end in a precondition error (exit 1).
EXPECTED_EXIT = {"crit7-reject": {1}, "crit8-reject": {1}}
DEFAULT_EXIT = {0, 2}
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
REPORT_FILES = ("results.csv", "report.json")
MIN_PASSES = 2
TIME_LIMIT_S = 170  # children still running then are killed, so a run ends within 180 s

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MiB"}
LAYER_EXTRAS = {
    "cli.tasks": ("cli._map_tasks", "tasks", "count"),
    "reports.bytes": ("reports.write_report", "bytes", "B"),
    "noise.bytes": ("noise.sample_white_noise", "bytes", "B"),
    "spectra.DyadicBlocks.repeat_frac": ("spectra.DyadicBlocks", "repeat", "fraction"),
    "weights.log_value.elems": ("weights.log_value", "elems", "count"),
    "weights.log_value.repeat_frac": ("weights.log_value", "repeat", "fraction"),
}
TRACE_METRICS = {"trace.overhead_s": "s", "trace.coverage": "fraction"}


def config_path(name: str) -> Path:
    sub = ROOT / "configs" / "acceptance" / f"{name}.json"
    return sub if sub.exists() else ROOT / "configs" / f"{name}.json"


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = str(SRC)
    return env


def sha256(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def run_process(argv, deadline: float):
    """Run argv in its own session; kill the whole group, pool workers included,
    at the deadline (time.monotonic) or when this process is stopped."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        return None, f"killed at the run's {TIME_LIMIT_S} s time limit"
    return proc.returncode, err.decode(errors="replace")


def run_config(name: str, workers: int, seed: int, out: Path, trace: bool,
               deadline: float) -> dict:
    """One config in a fresh interpreter; returns its measurements and faults."""
    result_path = out.with_name(out.name + ".child.json")
    argv = [sys.executable, str(HERE / "child.py"), str(result_path), "1" if trace else "0",
            CONFIGS[name], "--config", str(config_path(name)), "--out", str(out),
            "--workers", str(workers), "--seed-base", str(seed)]
    t_launch = tracer.now()
    code, err = run_process(argv, deadline)
    rec = {"config": name, "workers": workers, "faults": []}
    if code != 0 or not result_path.exists():
        rec["faults"].append(f"child process failed ({code}): {err.strip()[-500:]}")
        return rec
    child = json.loads(result_path.read_text())
    if not Path(child["module_file"]).resolve().is_relative_to(SRC.resolve()):
        rec["faults"].append(f"imported gensob from {child['module_file']}, not from {SRC}")
    if child["raised"]:
        rec["faults"].append("raised out of cli.main: " + child["raised"].strip()[-500:])
    elif child["exit_code"] not in EXPECTED_EXIT.get(name, DEFAULT_EXIT):
        rec["faults"].append(f"exit code {child['exit_code']} outside "
                             f"{sorted(EXPECTED_EXIT.get(name, DEFAULT_EXIT))}: {err.strip()[-300:]}")
    rec.update(
        setup_s=child["t_imported"] - t_launch,
        main_s=child["t_main"][1] - child["t_main"][0],
        maxrss_kib=child["maxrss_kib"],
        exit_code=child["exit_code"],
        digests={f: sha256(out / f) for f in REPORT_FILES},
        spans=child["spans"],
        missing_layers=child["missing_layers"],
    )
    return rec


def run_pass(workload: str, seed: int, trace: bool, pass_dir: Path, deadline: float) -> list:
    pass_dir.mkdir(parents=True)
    return [run_config(name, workers, seed, pass_dir / name, trace, deadline)
            for name, workers in WORKLOADS[workload]]


def check_digests(records, reference) -> None:
    """Fault every run whose reports differ from the first run of its config,
    or, for a pooled config, from its --workers 1 reference run."""
    first = {}
    for rec in records:
        if "digests" not in rec:
            continue
        base = first.setdefault(rec["config"], rec["digests"])
        if rec["digests"] != base:
            rec["faults"].append("reports differ from the first run of this config at this seed")
        ref = reference.get(rec["config"])
        if ref is not None and "digests" in ref and rec["digests"] != ref["digests"]:
            rec["faults"].append("reports differ from the --workers 1 reference run")


def median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(records) -> dict:
    """Per-layer metrics of one traced pass."""
    totals = collections.defaultdict(collections.Counter)
    for rec in records:
        for name, agg in tracer.summarize(rec.get("spans") or []).items():
            totals[name].update(agg)
    out = {}
    for label in tracer.LABELS:
        agg = totals.get(label, {})
        out[f"{label}.s"] = agg.get("s", 0.0)
        out[f"{label}.self_s"] = agg.get("self_s", 0.0)
        out[f"{label}.calls"] = agg.get("calls", 0)
    for metric, (label, key, unit) in LAYER_EXTRAS.items():
        agg = totals.get(label, {})
        value = agg.get(key, 0)
        if unit == "fraction":
            value = value / agg["calls"] if agg.get("calls") else 0.0
        out[metric] = value
    main = totals.get("cli.main", {})
    out["trace.coverage"] = 1.0 - main["self_s"] / main["s"] if main.get("s") else 0.0
    return out


def per_layer_units() -> dict:
    units = {}
    for label in tracer.LABELS:
        units.update({f"{label}.s": "s", f"{label}.self_s": "s", f"{label}.calls": "count"})
    units.update({metric: unit for metric, (_, _, unit) in LAYER_EXTRAS.items()})
    units.update(TRACE_METRICS)
    return units


def read_git_commit():
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "gensob").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            src_digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_commit": read_git_commit(),
        "src_sha256": src_digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "jsonschema": version("jsonschema"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_caps": THREAD_CAPS,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "workload": workload,
        "configs": [{"config": c, "subcommand": CONFIGS[c], "workers": w}
                    for c, w in WORKLOADS[workload]],
    }


def golden_report(records, seed: int):
    """Digests of the first run of each config; changes against golden.json at seed 0."""
    digests = {}
    for rec in records:
        if "digests" in rec:
            digests.setdefault(rec["config"], rec["digests"])
    changed = []
    if seed == 0:
        golden = json.loads((HERE / "golden.json").read_text())
        for config, files in digests.items():
            for fname, digest in files.items():
                want = golden.get(config, {}).get(fname)
                if digest != want:
                    changed.append(f"{config}/{fname}: golden {want}, now {digest}")
    return digests, changed


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def measure(args, work: Path, start: float):
    """Probes (traced runs), the --workers 1 reference runs, then the passes."""
    trace = bool(args.trace)
    deadline = start + TIME_LIMIT_S
    probe_values = {}
    if trace:
        code, err = run_process([sys.executable, str(HERE / "probes.py"),
                                 str(work / "probes.json"), str(args.seed)], deadline)
        if code != 0:
            raise RuntimeError(f"layer probes failed: {err}")
        probe_values = json.loads((work / "probes.json").read_text())

    reference = {name: run_config(name, 1, args.seed, work / "reference" / name, False, deadline)
                 for name, workers in WORKLOADS[args.workload] if workers > 1}

    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.monotonic()
        records = run_pass(args.workload, args.seed, traced, work / f"pass{len(passes)}", deadline)
        passes.append({"traced": traced, "records": records, "wall_s": time.monotonic() - t0})
        mean_pass = sum(p["wall_s"] for p in passes) / len(passes)
        if len(passes) >= MIN_PASSES and time.monotonic() - start + mean_pass > args.seconds:
            return probe_values, reference, passes


def pass_seconds(records) -> float:
    return sum(rec.get("main_s", 0.0) for rec in records)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gensob" / "cli.py").is_file():
        print(f"no gensob sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2
    # a stop request unwinds through run_process, which kills the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.monotonic()  # the warm-up, probes and reference runs count against --seconds
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # untimed: compiles bytecode and warms the page cache, as for a returning user
    code, err = run_process([sys.executable, "-c", "import gensob.cli, jsonschema"],
                            start + TIME_LIMIT_S)
    if code != 0:
        print(f"cannot import gensob.cli: {err}", file=sys.stderr)
        return 2
    try:
        probe_values, reference, passes = measure(args, work, start)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 2

    all_records = [rec for p in passes for rec in p["records"]]
    check_digests(all_records, reference)
    attempted = len(all_records) + len(reference)
    faulty = [rec for rec in all_records + list(reference.values()) if rec["faults"]]
    untraced = [p["records"] for p in passes if not p["traced"]]
    traced_passes = [p["records"] for p in passes if p["traced"]]

    setups = [rec["setup_s"] for records in untraced for rec in records if "setup_s" in rec]
    end_to_end = {
        "setup_s": median(setups),
        "pass_s": median([pass_seconds(r) for r in untraced]),
        "peak_rss_mb": median([max(rec.get("maxrss_kib", 0) for rec in r) / 1024.0
                               for r in untraced]),
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} untraced and {len(traced_passes)} traced passes "
          f"in {time.monotonic() - start:.1f} s")
    print(f"setup_s {end_to_end['setup_s']:.4f} s (median of {len(setups)} config processes)")
    print(f"pass_s {end_to_end['pass_s']:.4f} s (median of {len(untraced)} passes: "
          + ", ".join(f"{pass_seconds(r):.3f}" for r in untraced) + ")")
    print(f"peak_rss_mb {end_to_end['peak_rss_mb']:.1f} MiB (median over passes of the "
          "per-pass maximum)")
    print(f"error_rate {len(faulty) / attempted:.4f} fraction "
          f"({len(faulty)} of {attempted} config runs failed)")
    for rec in faulty:
        for fault in rec["faults"]:
            print(f"FAILED {rec['config']} (--workers {rec['workers']}): {fault}")

    metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END.items()}
    layers = {}
    if traced_passes:
        per_pass = [layer_metrics(r) for r in traced_passes]
        layers = {name: median([p[name] for p in per_pass]) for name in per_pass[0]}
        layers["trace.overhead_s"] = (median([pass_seconds(r) for r in traced_passes])
                                      - end_to_end["pass_s"])
        layers.update(probe_values)
        units = per_layer_units()
        units.update({name: "ms" for name in probe_values})
        metrics = {name: {"value": layers[name], "unit": units[name]} for name in units}
        missing = sorted({m for r in traced_passes for rec in r for m in rec.get("missing_layers", [])})
        if missing:
            print("tracer found no function for: " + ", ".join(missing))
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")

    digests, changed = golden_report(all_records, args.seed)
    for line in changed:
        print(f"golden digest changed (not counted as a failure): {line}")
    prov = provenance(args.workload, args.seed, args.seconds, bool(args.trace))
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("digests " + json.dumps(digests, sort_keys=True))

    summary = {
        "provenance": prov,
        "digests": digests,
        "golden_changed": changed,
        "end_to_end": end_to_end,
        "per_layer": layers,
        "passes": [{**p, "records": [{k: v for k, v in rec.items() if k != "spans"}
                                     for rec in p["records"]]} for p in passes],
        "reference": [{k: v for k, v in rec.items() if k != "spans"} for rec in reference.values()],
    }
    (work / "summary.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    spans = [{"pass": i, "config": rec["config"], "spans": rec["spans"]}
             for i, p in enumerate(passes) if p["traced"] for rec in p["records"]]
    (work / "spans.json").write_text(json.dumps(spans) + "\n")

    print(json.dumps({"correct": not faulty, "attempted": attempted, "failed": len(faulty),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
