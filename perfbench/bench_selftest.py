"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench/bench_selftest.py

They run every workload once under tracing (about a minute in all), so the
file is not named for pytest's default collection.  The tiny runs must be
correct, emit exactly the metrics BENCHMARK.json lists, and call every layer
function on the workload that exercises it, which catches a binding the
tracer missed.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# layer -> a workload whose configs call it.  disk.trace_field is absent: only
# the disk-solve subcommand calls it, and no workload runs that.
CALLED_ON = {
    "cli.main": "deciders",
    "cli.validate_config": "deciders",
    "cli._map_tasks": "fields-2d",
    "reports.write_report": "deciders",
    "noise.sample_white_noise": "ensemble-1d",
    "noise.covariance_check": "ensemble-1d",
    "noise.regularity_norms": "ensemble-1d",
    "spectra.SpectralField": "ensemble-1d",
    "spectra.hermitian_part": "ensemble-1d",
    "spectra.DyadicBlocks": "ensemble-1d",
    "spectra.nikolskii_norm": "fields-2d",
    "spectra.halpha_norm": "fields-2d",
    "spectra.interp_norm": "fields-2d",
    "spectra.random_field": "fields-2d",
    "spectra.extremal_nikolskii_field": "deciders",
    "spectra.embedding_ratio_sweep": "deciders",
    "weights.log_value": "fields-2d",
    "weights.weight_from_json": "deciders",
    "weights.indices": "deciders",
    "weights.interp_param": "fields-2d",
    "weights.eta_construct": "deciders",
    "weights.dyadic_integral_test": "deciders",
    "weights.embed_nikolskii": "deciders",
    "weights.embed_hormander": "deciders",
    "weights.check_or_window": "deciders",
    "disk.solve_dirichlet": "ensemble-1d",
    "disk.snorm": "ensemble-1d",
    "disk.check_apriori_weight": "ensemble-1d",
    "disk.evaluate_polar_grid": "deciders",
    "disk.uniform_convergence_experiment": "deciders",
}
COUNTS_ON = {"cli.tasks": "fields-2d", "noise.bytes": "ensemble-1d",
             "reports.bytes": "ensemble-1d", "weights.log_value.elems": "fields-2d"}


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w["name"]: run_bench(w["name"], 1) for w in BENCH["workloads"]}


def test_metric_names_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCH[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_untraced_run_emits_end_to_end_metrics():
    result = run_bench("deciders", 0)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for m in BENCH["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_runs_emit_per_layer_metrics(traced):
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for workload, result in traced.items():
        assert result["correct"], workload
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected, workload


@pytest.mark.parametrize("layer", sorted(CALLED_ON))
def test_layer_is_called(traced, layer):
    metrics = traced[CALLED_ON[layer]]["metrics"]
    assert metrics[f"{layer}.calls"]["value"] > 0
    assert metrics[f"{layer}.s"]["value"] > 0


@pytest.mark.parametrize("counter", sorted(COUNTS_ON))
def test_layer_counter_is_set(traced, counter):
    assert traced[COUNTS_ON[counter]]["metrics"][counter]["value"] > 0


def test_pool_dispatch_only_on_fields_2d(traced):
    assert traced["fields-2d"]["metrics"]["cli.tasks"]["value"] > 0
    assert traced["ensemble-1d"]["metrics"]["cli.tasks"]["value"] == 0
    assert traced["deciders"]["metrics"]["cli.tasks"]["value"] == 0
