import ast
import copy
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from dataclasses import astuple, fields
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

import gensob
from gensob import cli, disk, noise, spectra, weights
from gensob._schema import conform
from gensob.cli import build_field, main, validate_config
from gensob.reports import write_report
from gensob.weights import ConstraintError, IterLogPower, OscPower, Power, Product, weight_from_json


def _write(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def _run(tmp_path, command, cfg, out="out", extra=()):
    cfg_path = _write(tmp_path, f"{command}.json", cfg)
    out_dir = tmp_path / out
    code = main([command, "--config", cfg_path, "--out", str(out_dir), *extra])
    return code, out_dir


def test_interp_verify_passes_and_writes_reports(tmp_path):
    cfg = {"cases": [{"weight": {"op": "power", "r": 1.0}, "r0": 0.0, "r1": 2.0}],
           "n_fields": 5, "field_n": 128, "field_n_2d": 16}
    code, out = _run(tmp_path, "interp-verify", cfg)
    assert code == 0
    assert (out / "results.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["verdicts"]["pass"] is True
    assert report["verdicts"]["max_rel_err"] <= 1e-10
    assert (out / "timing.json").exists()


def test_unknown_config_key_rejected(tmp_path):
    cfg = {"cases": [{"weight": {"op": "power", "r": 1.0}, "r0": 0.0, "r1": 2.0}], "bogus": 1}
    code, _ = _run(tmp_path, "interp-verify", cfg)
    assert code == 1


def test_bad_weight_json_rejected(tmp_path):
    cfg = {"cases": [{"weight": {"op": "power"}, "r0": 0.0, "r1": 2.0}]}
    code, _ = _run(tmp_path, "interp-verify", cfg)
    assert code == 1


def test_property_failure_exits_two(tmp_path):
    # a divergent weight declared with expect=converges is a failed property
    cfg = {"weight": {"op": "power", "r": 0.5}, "s": -0.5, "expect": "converges"}
    code, _ = _run(tmp_path, "embed-nikolskii", cfg)
    assert code == 2
    cfg_ok = {"weight": {"op": "power", "r": -0.7}, "s": -0.5, "expect": "converges"}
    code_ok, _ = _run(tmp_path, "embed-nikolskii", cfg_ok, out="out2")
    assert code_ok == 0


def test_precondition_failure_exits_one(tmp_path):
    cfg = {
        "alpha": {"op": "power", "r": 0.0},
        "s": -0.5,
        "lambda": 0.0,
        "f_terms": [[0, 1.0, 0.0]],
        "N_list": [256],
        "n_seeds": 5,
    }
    code, _ = _run(tmp_path, "disk-apriori", cfg)
    assert code == 1


def test_eta_verify_cases(tmp_path):
    cfg = {
        "cases": [
            {"phi": {"op": "power", "r": -0.5}, "s0": -1.0, "s1": 0.0, "lam": -0.25},
            {"phi": {"op": "power", "r": -1.0}, "s0": -2.0, "s1": -0.6, "lam": 0.0},
        ]
    }
    code, out = _run(tmp_path, "eta-verify", cfg)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdicts"]["max_rel_err"] <= 1e-12


def test_eta_verify_without_order_shifts_rejected(tmp_path, capsys):
    # no shift means no row, and a max error of 0.0 over no rows is no evidence
    cfg = {"cases": [{"phi": {"op": "power", "r": -0.5}, "s0": -1.0, "s1": 0.0, "lam": -0.25}],
           "order_shifts": []}
    code, out = _run(tmp_path, "eta-verify", cfg)
    assert code == 1
    assert not out.exists()
    assert "config rejected: order_shifts" in capsys.readouterr().err


def test_weights_or_check_cli(tmp_path):
    cfg = {"weight": {"op": "power", "r": 2.0}, "b": 2.0, "t_max": 1e6}
    code, out = _run(tmp_path, "weights-or-check", cfg)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["rows"][0][1] == pytest.approx(4.0, rel=1e-12)
    assert report["rows"][0][2:4] == [1.0, 1e6]  # the library's t_min, the config's t_max


def test_weights_or_check_prints_the_window_as_given(tmp_path):
    cfg = {"weight": {"op": "power", "r": 2.0}, "b": 2.0, "t_min": 2, "t_max": 1000000}
    code, out = _run(tmp_path, "weights-or-check", cfg)
    assert code == 0
    assert (out / "results.csv").read_text().splitlines()[1].split(",")[2:4] == ["2", "1000000"]


def test_weights_or_check_reversed_window_rejected(tmp_path, capsys):
    # t_min = 1e9 above the default t_max = 1e8 is refused as indices refuses it
    cfg = {"weight": {"op": "power", "r": 2.0}, "b": 2.0, "t_min": 1e9}
    code, out = _run(tmp_path, "weights-or-check", cfg)
    assert code == 1
    assert not out.exists()
    assert "window must satisfy 1 <= t_min < t_max" in capsys.readouterr().err


def test_disk_solve_reports_exact_trace(tmp_path):
    noise = {"alpha": {"op": "power", "r": 1.0}, "N": 64, "g": {"kind": "noise", "N": 64, "seed": 5}}
    # a Nyquist coefficient 5e-324 does not halve exactly
    subnormal = {"alpha": {"op": "power", "r": 0.5}, "N": 16, "g": {"kind": "modes", "modes": [
        [-8, 5e-324, 0.0], [1, 1.0, 0.0], [-1, 1.0, 0.0]]}}
    for name, case in (("noise", noise), ("subnormal", subnormal)):
        cfg = {"f_terms": [[0, 1.0, 0.0]], "lambda": 0.0, **case}
        code, out = _run(tmp_path, "disk-solve", cfg, out=name)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["rows"][0][4] is True


def test_disk_convergence_cli(tmp_path):
    cfg = {
        "alpha": {"op": "product", "args": [{"op": "power", "r": 1.0},
                                            {"op": "iter_log", "depth": 1, "k": 0.75}]},
        "g": {"kind": "alpha_decay", "N": 256, "extra_exponent": 0.6},
        "K_list": [4, 8, 16, 32],
    }
    code, out = _run(tmp_path, "disk-convergence", cfg)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdicts"]["bound_holds"] is True


def test_report_regenerates_from_embedded_config(tmp_path):
    cfg = {"dim": 1, "s": -0.5, "N_list": [128, 256], "n_seeds": 100, "seed_base": 3}
    code, out1 = _run(tmp_path, "noise-regularity", cfg, out="outA")
    assert code == 0
    report = json.loads((out1 / "report.json").read_text())
    code, out2 = _run(tmp_path, "noise-regularity", report["config"], out="outB")
    assert code == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()


def test_worker_count_does_not_change_outputs(tmp_path):
    cfg = {"dim": 1, "s": -0.5, "N_list": [128, 256], "n_seeds": 100}
    code, out1 = _run(tmp_path, "noise-regularity", cfg, out="w1", extra=("--workers", "1"))
    code2, out2 = _run(tmp_path, "noise-regularity", cfg, out="w2", extra=("--workers", "2"))
    assert code == 0 and code2 == 0
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_negative_seed_refused_by_name(tmp_path, capsys, workers):
    cfg = {"dim": 1, "s": -0.5, "N_list": [16, 32], "n_seeds": 100}
    code, out = _run(tmp_path, "noise-regularity", cfg,
                     extra=("--seed-base", "-5", "--workers", workers))
    assert code == 1
    assert not out.exists()
    assert "seed -5 lies outside [0, 2**128)" in capsys.readouterr().err


def test_interp_verify_takes_a_negative_seed_base(tmp_path):
    # its seeds are seed_base + 1000 dim + i, all in range for a seed base above -1000
    cfg = _crit1(n_fields=2, field_n=64, field_n_2d=8)
    code, out = _run(tmp_path, "interp-verify", cfg, extra=("--seed-base", "-999"))
    assert code == 0
    assert json.loads((out / "report.json").read_text())["rows"][0][3] == 1


def _no_run(config, map, seed_base):
    raise AssertionError("the runner must not start")


@pytest.mark.parametrize("under", [False, True])
def test_out_that_is_a_file_refused_before_the_run(tmp_path, capsys, monkeypatch, under):
    blocker = tmp_path / "taken"
    blocker.write_text("keep")
    monkeypatch.setitem(cli.RUNNERS, "weights-or-check", _no_run)
    out = blocker / "sub" if under else blocker
    cfg = {"weight": {"op": "power", "r": 1.0}, "b": 2.0}
    code, _ = _run(tmp_path, "weights-or-check", cfg, out=out.relative_to(tmp_path))
    assert code == 1
    assert capsys.readouterr().err == f"cannot write report: {blocker} exists and is not a directory\n"
    assert blocker.read_text() == "keep"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken", "weights-or-check.json"]


def test_report_write_failure_exits_one(tmp_path, capsys):
    (tmp_path / "out" / "results.csv").mkdir(parents=True)  # the CSV cannot be opened
    code, _ = _run(tmp_path, "weights-or-check", {"weight": {"op": "power", "r": 1.0}, "b": 2.0})
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot write report: ") and "results.csv" in err


def test_seed_base_flag_overrides_config(tmp_path):
    cfg = {"dim": 1, "s": -0.5, "N_list": [128], "n_seeds": 100, "seed_base": 0}
    _, out1 = _run(tmp_path, "noise-regularity", cfg, out="s0")
    _, out2 = _run(tmp_path, "noise-regularity", cfg, out="s9", extra=("--seed-base", "9000"))
    assert (out1 / "results.csv").read_bytes() != (out2 / "results.csv").read_bytes()


def test_missing_config_file(tmp_path):
    code = main(["interp-verify", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 1


def _nikolskii_text(r="-0.7", s="-0.5"):
    return '{"weight": {"op": "power", "r": %s}, "s": %s}' % (r, s)


HUGE_INT = "1" + "0" * 400  # an integer literal whose float value overflows


R_FIELD = "error: field 'r' of 'power' must be a finite number, got "
UNREADABLE = "cannot read config: "


@pytest.mark.parametrize("text,message", [
    *(pytest.param(_nikolskii_text(r=token), R_FIELD + shown, id=token)
      for token, shown in (("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"))),
    pytest.param(_nikolskii_text(r="1e400"), R_FIELD + "inf", id="1e400"),
    pytest.param(_nikolskii_text(r=HUGE_INT), R_FIELD + "an integer of 401 digits",
                 id="int-401-digits"),
    pytest.param(_nikolskii_text(r="1" + "0" * 5000), UNREADABLE + "Exceeds the limit (4300 digits)",
                 id="int-5001-digits"),
    pytest.param(_nikolskii_text(s=HUGE_INT), "error: config rejected: s: expected number, got 1000",
                 id="s-int-401-digits"),
    pytest.param(_nikolskii_text(s="NaN"), "error: config rejected: s: expected number, got NaN",
                 id="s-NaN"),
    pytest.param(_nikolskii_text(s="1e400"), "error: config rejected: s: expected number, got Infinity",
                 id="s-1e400"),
    pytest.param("[" * 100_000 + "]" * 100_000, UNREADABLE + "maximum recursion depth exceeded",
                 id="array-100000-deep"),
])
def test_non_finite_config_number_rejected(tmp_path, capsys, text, message):
    """A number that is no finite double is refused by the schema pass, naming the slot, or by
    ``weight_from_json``, naming the node field; a text ``json.loads`` cannot read is unreadable."""
    def run(name, text):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        out = tmp_path / f"out-{name}"
        return main(["embed-nikolskii", "--config", str(path), "--out", str(out)]), out

    assert run("finite", _nikolskii_text())[0] == 0  # the same config with finite numbers runs
    code, out = run("bad", text)
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert len(err.encode()) < 200  # a long literal is cut to a prefix, or named by its length


@pytest.mark.parametrize("kind", ["number", "integer"])
@pytest.mark.parametrize("value,accepted", [
    pytest.param(float("nan"), False, id="nan"),
    pytest.param(float("inf"), False, id="inf"),
    pytest.param(-float("inf"), False, id="-inf"),
    pytest.param(10**400, False, id="10**400"),
    pytest.param(int(sys.float_info.max) + 1, False, id="max+1"),  # compared exactly, not rounded
    pytest.param(sys.float_info.max, True, id="max"),
    pytest.param(-sys.float_info.max, True, id="-max"),
    pytest.param(2**1023, True, id="2**1023"),
])
def test_schema_number_is_a_finite_double(kind, value, accepted):
    error, conformed = conform({"x": value}, {"properties": {"x": {"type": kind}}})
    if accepted:
        assert error is None and conformed["x"] == value
    else:
        assert error.startswith(f"x: expected {kind}, got ")


BUMP_SPEC = {"kind": "gaussian_bump", "width": 6.0}
DECAY_SPEC = {"kind": "alpha_decay", "N": 32, "extra_exponent": 0.6}


@pytest.mark.parametrize("spec,dim", [pytest.param(BUMP_SPEC, 1, id="spec0-1"),
                                      pytest.param(BUMP_SPEC, 2, id="spec0-2"),
                                      pytest.param(DECAY_SPEC, 1, id="spec1-1")])
def test_real_field_specs_give_hermitian_fields(spec, dim):
    field = build_field(spec, dim, 32, alpha=Power(1.0))
    assert field.hermitian
    assert field.to_samples().dtype.kind == "f"


def test_alpha_decay_spec_is_refused_by_name_off_the_boundary():
    with pytest.raises(ConstraintError, match="^alpha_decay field spec is 1-d boundary data, got dim = 2$"):
        build_field(DECAY_SPEC, 2, 32, alpha=Power(1.0))


@pytest.mark.parametrize("alpha", [Power(1.0), Product(Power(1.0), IterLogPower(1, 0.75)),
                                   Product(Power(0.5), IterLogPower(1, -0.75), IterLogPower(2, 0.3)),
                                   OscPower(0.3, 0.2, 1.0), Power(-2.5)])
@pytest.mark.parametrize("extra_exponent", [0.6, -0.3, 2.0])
def test_alpha_decay_data_are_the_fft_order_formula_bitwise(alpha, extra_exponent):
    # alpha^-1 chi^(-1/2 - e) evaluated on the FFT-order chi grid, as the spec was once built
    for n in 2 ** np.arange(2, 13):
        chi = spectra.chi_grid(1, n)
        want = np.exp(-alpha.log_value(np.log(chi))) * chi ** (-0.5 - extra_exponent)
        spec = {"kind": "alpha_decay", "N": int(n), "extra_exponent": extra_exponent}
        got = build_field(spec, 1, int(n), alpha=alpha).coeffs
        assert got.tobytes() == want.astype(np.complex128).tobytes()


def test_disk_convergence_evaluates_its_weight_on_the_boundary_lattice_once(tmp_path, monkeypatch):
    cfg = json.loads((CONFIGS / "acceptance" / "crit8-convergence.json").read_text())
    n = cfg["g"]["N"]
    sizes = []
    log_value = weights.Product.log_value

    def counted(self, u):
        sizes.append(np.size(u))
        return log_value(self, u)

    monkeypatch.setattr(weights.Product, "log_value", counted)
    disk._weight_table.cache_clear()  # a table left by another test would hide the evaluation
    try:
        code, _ = _run(tmp_path, "disk-convergence", cfg)
    finally:
        disk._weight_table.cache_clear()
    assert code == 0
    assert cfg["alpha"]["op"] == "product"
    assert [size for size in sizes if size >= n] == [n + 1]  # the table's k = -N/2..N/2, once


@pytest.mark.parametrize("dim,spec,index", [
    (1, {"kind": "mode", "k": [3]}, (3,)),
    (2, {"kind": "mode", "k": [3, -1]}, (3, 7)),
    (1, {"kind": "modes", "modes": [[-2, 1.0, 2.0]]}, (6,)),
    (2, {"kind": "modes", "modes": [[1, 2, 0.5, 0.0]]}, (1, 2)),
    (2, {"kind": "mode", "k": [-4, 3]}, (4, 3)),  # the band's lower edge, stored at index N/2
])
def test_mode_field_specs_land_on_their_frequency(dim, spec, index):
    field = build_field(spec, dim, 8)
    assert np.argwhere(field.coeffs).tolist() == [list(index)]


@pytest.mark.parametrize("dim,spec,key", [
    pytest.param(2, {"kind": "mode", "k": [3]}, (3,), id="2d-mode-k1"),
    pytest.param(1, {"kind": "mode", "k": [3, 4]}, (3, 4), id="1d-mode-k2"),
    pytest.param(2, {"kind": "modes", "modes": [[1, 1.0, 0.0]]}, (1,), id="2d-modes-k1"),
])
def test_field_spec_frequency_of_wrong_length_rejected(tmp_path, capsys, dim, spec, key):
    cfg = {"dim": dim, "N": 8, "n_samples": 1000, "pairs": [{"v1": spec, "v2": spec}]}
    code, out = _run(tmp_path, "noise-covariance", cfg)
    assert code == 1
    assert not out.exists()
    assert f"mode frequency {key!r} must be {dim} integer(s)" in capsys.readouterr().err


@pytest.mark.parametrize("command,cfg,spec_n,grid_n", [
    ("disk-solve", {"f_terms": [[0, 1.0, 0.0]], "g": {"kind": "noise", "N": 256, "seed": 7},
                    "N": 64, "alpha": {"op": "power", "r": 1.0}, "lambda": 0.0}, 256, 64),
    ("noise-covariance", {"dim": 1, "N": 256, "n_samples": 1000, "pairs": [
        {"v1": {"kind": "mode", "k": [3]}, "v2": {"kind": "noise", "N": 128, "seed": 0}}]}, 128, 256),
])
def test_field_spec_size_other_than_the_grid_rejected(tmp_path, capsys, command, cfg, spec_n,
                                                      grid_n):
    # the run's N owns the grid size; a spec's own N may only repeat it
    code, out = _run(tmp_path, command, cfg)
    assert code == 1
    assert not out.exists()
    assert f"noise field spec has N = {spec_n}, but it is built on N = {grid_n}" \
        in capsys.readouterr().err


def test_mode_outside_the_band_rejected(tmp_path, capsys):
    # k = 300 on N = 256 would wrap to frequency 44 and test a field the config does not name
    spec = {"kind": "mode", "k": [300]}
    cfg = {"dim": 1, "N": 256, "n_samples": 1000, "pairs": [{"v1": spec, "v2": spec}]}
    code, out = _run(tmp_path, "noise-covariance", cfg)
    assert code == 1
    assert not out.exists()
    assert "mode frequency (300,) lies outside the band [-128, 127]" in capsys.readouterr().err


APRIORI_ALPHA = {"op": "product", "args": [{"op": "power", "r": 0.0},
                                           {"op": "iter_log", "depth": 1, "k": -0.75}]}


SOURCE_CASES = [
    ("disk-solve", {"g": {"kind": "noise", "N": 64, "seed": 5}, "N": 64,
                    "alpha": {"op": "power", "r": 1.0}, "lambda": 0.0}),
    ("disk-apriori", {"alpha": APRIORI_ALPHA, "s": -0.5, "lambda": 0.0, "N_list": [64],
                      "n_seeds": 10}),
]


@pytest.mark.parametrize("command,cfg", SOURCE_CASES)
def test_non_integer_source_frequency_rejected(tmp_path, capsys, command, cfg):
    code, out = _run(tmp_path, command, {**cfg, "f_terms": [[0, 1.0, 0.0], [1.5, 1.0, 0.0]]})
    assert code == 1
    assert not out.exists()
    assert "source term frequency must be an integer, got 1.5" in capsys.readouterr().err


@pytest.mark.parametrize("command,cfg", SOURCE_CASES)
def test_source_frequency_outside_the_band_rejected(tmp_path, capsys, command, cfg):
    # sources lie in the band |m| <= N/2 = 32 of the boundary data, checked before the solver
    # allocates arrays of length 2|m|+1
    code, out = _run(tmp_path, command, {**cfg, "f_terms": [[1e15, 1.0, 0.0]]})
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert "source term frequency m=1000000000000000 lies outside the band |m| <= 32" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("amplitude", [1e300, -1e300, 2.0**512])
@pytest.mark.parametrize("command,cfg", SOURCE_CASES)
def test_source_amplitude_too_large_to_square_rejected(tmp_path, capsys, command, cfg, amplitude):
    # the source norm squares |a|, and a square past the largest double raised OverflowError
    code, out = _run(tmp_path, command, {**cfg, "f_terms": [[0, amplitude, 0.0]]})
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == \
        "error: source amplitude at m=0 must be finite, with |a| < 2^512\n"


def test_source_amplitude_just_below_the_square_limit_runs(tmp_path):
    command, cfg = SOURCE_CASES[0]
    amplitude = float(np.nextafter(2.0**512, 0.0))
    code, out = _run(tmp_path, command, {**cfg, "f_terms": [[0, amplitude, 0.0]]})
    assert code == 0
    assert json.loads((out / "report.json").read_text())["rows"][0][1] == amplitude


@pytest.mark.parametrize("spec,message", [
    pytest.param({"kind": "gaussian_bump", "width": 1e300},
                 "gaussian_bump width 1e+300 is too large to square", id="huge-width"),
    pytest.param({"kind": "alpha_decay", "N": 64, "extra_exponent": 0.6},
                 "alpha_decay field spec needs a weight in context", id="alpha-decay"),
])
def test_field_spec_the_run_cannot_build_rejected(tmp_path, capsys, monkeypatch, spec, message):
    monkeypatch.setattr(noise, "covariance_check", _no_compute)
    cfg = {"dim": 1, "N": 64, "n_samples": 1000,
           "pairs": [{"v1": {"kind": "mode", "k": [1]}, "v2": spec}]}
    code, out = _run(tmp_path, "noise-covariance", cfg)
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("width", [1e-300, 1e-160, 1e-100])
def test_gaussian_bump_of_a_tiny_width_builds_the_zero_mode(tmp_path, width):
    # each term past k = 0 lies below the smallest double: it is exactly 0, with no warning
    for dim, n in ((1, 256), (2, 16)):
        coeffs = build_field({"kind": "gaussian_bump", "width": width}, dim, n).coeffs
        assert coeffs.ravel().tolist() == [1.0] + [0.0] * (n**dim - 1)
    cfg = json.loads((CONFIGS / "noise-covariance.json").read_text())
    cfg["pairs"][2]["v1"]["width"] = width
    code, out = _run(tmp_path, "noise-covariance", cfg)
    assert code == 0
    assert json.loads((out / "report.json").read_text())["rows"][2][3] == 1.0  # inner(e0, bump)


def test_regularity_order_whose_top_scale_overflows_refused_by_name(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(noise, "_draw", _no_compute)
    cfg = json.loads((CONFIGS / "noise-regularity.json").read_text())
    cfg["s"] = 1e300
    code, out = _run(tmp_path, "noise-regularity", cfg)
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == ("error: s = 1e+300 is too large: 4^(s j) overflows a double "
                                       "at the top dyadic block j = 10 of N = 2048\n")


def test_regularity_order_of_a_huge_negative_size_runs(tmp_path):
    # 4^(s j) underflows to 0 past block 0, so each norm reads the k = 0 block alone
    cfg = json.loads((CONFIGS / "noise-regularity.json").read_text())
    cfg["s"] = -1e300
    assert _run(tmp_path, "noise-regularity", cfg)[0] == 0


@pytest.mark.parametrize("s", [51.0, 51.19])
def test_regularity_norm_past_the_largest_double_fails_without_a_warning(tmp_path, s):
    # 4^(s j) is finite up to the top block of N = 2048, but its product with a block energy
    # is not: the norm reads inf, its quartiles NaN, and the verdict fails
    cfg = json.loads((CONFIGS / "noise-regularity.json").read_text())
    cfg["s"] = s
    code, out = _run(tmp_path, "noise-regularity", cfg)
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert report["rows"][-1][2:] == [2048, 200, "nan", "nan", "nan"]
    assert report["verdicts"] == {"kind": "bounded", "factor": "nan", "pass": False}


@pytest.mark.parametrize("s,message", [
    (1e300, "s = 1e+300 is too large: 4^(s j) overflows"),
    (-1e300, "s = -1e+300 is too small: 4^(-s j) overflows"),
    (-60.0, "s = -60.0 is too small: 4^(-s j) overflows"),  # the field's 2^(-s j) itself is finite
])
def test_embedding_order_whose_top_scale_overflows_refused_by_name(tmp_path, capsys, monkeypatch,
                                                                   s, message):
    monkeypatch.setattr(spectra, "extremal_nikolskii_field", _no_compute)
    cfg = json.loads((CONFIGS / "embedding-ratio.json").read_text())
    cfg["s"] = s
    code, out = _run(tmp_path, "embedding-ratio", cfg)
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == (f"error: {message} a double at the top dyadic block "
                                       "j = 11 of N = 4096\n")


def _convergence_cfg(r: float, extra_exponent: float = 0.6) -> dict:
    alpha = {"op": "product", "args": [{"op": "power", "r": r},
                                       {"op": "iter_log", "depth": 1, "k": 0.75}]}
    g = {"kind": "alpha_decay", "N": 1024, "extra_exponent": extra_exponent}
    return {"alpha": alpha, "g": g, "K_list": [4, 8, 16]}


def _weight_overflow(cfg: dict, power: str, n: int) -> str:
    return (f"weight {json.dumps(cfg['alpha'])}: alpha(chi)^{power} overflows a double "
            f"on the lattice of N = {n}")


BOUND_OVERFLOW = {"alpha": {"op": "product", "args": [{"op": "power", "r": 2.0},
                                                      {"op": "iter_log", "depth": 1, "k": -60.0},
                                                      {"op": "scale", "c": 1e-111}]},
                  "g": {"kind": "alpha_decay", "N": 1024, "extra_exponent": 0.6},
                  "K_list": [4, 8, 16]}
APRIORI_S100 = {"alpha": {"op": "product", "args": [{"op": "power", "r": 100.5},
                                                    {"op": "iter_log", "depth": 1, "k": -0.75}]},
                "s": 100.0, "lambda": 0.0, "f_terms": [[0, 1.0, 0.0]],
                "N_list": [256, 512, 1024, 2048, 4096], "n_seeds": 100}


@pytest.mark.parametrize("command,cfg,first_compute,message", [
    pytest.param("embedding-ratio",
                 {"weight": {"op": "power", "r": 200.0}, "s": -0.5,
                  "N_list": [64, 256, 1024, 4096]},
                 "gensob.spectra.extremal_nikolskii_field",
                 'weight {"op": "power", "r": 200.0}: alpha(chi)^2 overflows a double '
                 "on the lattice of N = 4096", id="ratio-weight"),
    # the weight table is the first step of building g, so the first compute is g's field
    pytest.param("disk-convergence", _convergence_cfg(200.0), "gensob.spectra.SpectralField",
                 _weight_overflow(_convergence_cfg(200.0), "2", 1024), id="convergence-weight"),
    pytest.param("disk-convergence", _convergence_cfg(-200.0), "gensob.spectra.SpectralField",
                 _weight_overflow(_convergence_cfg(-200.0), "-1", 1024), id="convergence-inverse"),
    # alpha^-2 is finite on the lattice, but chi/alpha^2 is not at its top modes; a tree whose
    # JSON passes 100 characters is cut there
    pytest.param("disk-convergence", BOUND_OVERFLOW, "gensob.disk.evaluate_polar_grid",
                 f"weight {json.dumps(BOUND_OVERFLOW['alpha'])[:96]}...: chi/alpha(chi)^2 overflows a "
                 "double on the lattice of N = 1024", id="convergence-bound-weight"),
    pytest.param("disk-convergence", _convergence_cfg(1.0, -1e300),
                 "gensob.disk.uniform_convergence_experiment",
                 "alpha_decay extra_exponent -1e+300 overflows a double on N = 1024",
                 id="convergence-extra-exponent"),
    pytest.param("disk-apriori", APRIORI_S100, "gensob.noise._draw",
                 "s = 100.0 is too large: 4^(s j) overflows a double at the top dyadic block "
                 "j = 11 of N = 4096", id="apriori-order"),
])
def test_overflowing_weight_or_order_refused_by_name_before_compute(tmp_path, capsys, monkeypatch,
                                                                    command, cfg, first_compute,
                                                                    message):
    monkeypatch.setattr(first_compute, _no_compute)
    code, out = _run(tmp_path, command, cfg)
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("n", [5, 9, 17, 1025])
def test_alpha_decay_spec_on_a_grid_that_is_not_a_power_of_two_refused_by_name(n):
    # the symmetric table of K = N // 2 minus its top mode would give N - 1 coefficients
    with pytest.raises(ValueError, match=f"^N must be a power of two >= 2, got {n}$"):
        build_field({"kind": "alpha_decay", "N": n, "extra_exponent": 0.6}, 1, n, alpha=Power(1.0))


ODD_DECAY = {"kind": "alpha_decay", "N": 1025, "extra_exponent": 0.6}


@pytest.mark.parametrize("command,cfg", [
    pytest.param("disk-solve", {"f_terms": [[0, 1.0, 0.0]], "N": 1025, "lambda": 0.0,
                                "g": ODD_DECAY, "alpha": {"op": "power", "r": 1.0}}, id="solve"),
    pytest.param("disk-convergence", {**_convergence_cfg(1.0), "g": ODD_DECAY}, id="convergence"),
])
def test_alpha_decay_run_of_odd_n_exits_one(tmp_path, capsys, command, cfg):
    code, out = _run(tmp_path, command, cfg)
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == "error: N must be a power of two >= 2, got 1025\n"


def test_disk_solve_runs_without_a_warning_where_only_the_bound_weight_overflows(tmp_path):
    # chi^113.5 is finite at chi = 512, chi^114.5 is not; only the convergence bound reads the latter
    cfg = {"f_terms": [[0, 1.0, 0.0]], "g": {"kind": "noise", "N": 1024, "seed": 7}, "N": 1024,
           "alpha": {"op": "power", "r": -56.75}, "lambda": 0.0}
    assert _run(tmp_path, "disk-solve", cfg)[0] == 0


def test_alpha_decay_spec_whose_inverse_weight_overflows_refused_by_name():
    cfg = _convergence_cfg(-200.0)
    with pytest.raises(ValueError) as exc:
        build_field(cfg["g"], 1, 1024, alpha=weight_from_json(cfg["alpha"]))
    assert str(exc.value) == _weight_overflow(cfg, "-1", 1024)  # the table itself refuses only alpha^2


@pytest.mark.parametrize("command,cfg", [
    pytest.param("disk-solve", {"alpha": {"op": "power", "r": -60.0}, "lambda": 0.0,
                                "f_terms": [[0, 1.0, 0.0]], "N": 1024,
                                "g": {"kind": "noise", "seed": 1, "N": 1024}}, id="solve"),
    pytest.param("disk-apriori", {"alpha": {"op": "product", "args": [
        {"op": "power", "r": -59.5}, {"op": "iter_log", "depth": 1, "k": -0.75}]}, "s": -60.0,
        "lambda": 0.0, "f_terms": [[0, 1.0, 0.0]], "N_list": [256, 1024], "n_seeds": 25},
        id="apriori"),
])
def test_disk_run_that_reads_no_inverse_weight_is_not_refused_for_one(tmp_path, command, cfg):
    # alpha^-2 overflows a double at N = 1024, but these runs read only alpha^2/chi of the table
    assert _run(tmp_path, command, cfg)[0] == 0


R1E308 = {"op": "power", "r": 1e308}


@pytest.mark.parametrize("command,cfg,code", [
    pytest.param("embedding-ratio", {"weight": R1E308, "s": -0.5, "N_list": [64, 256]}, 1,
                 id="ratio"),
    pytest.param("weights-or-check", {"weight": R1E308, "b": 2.0}, 2, id="or-check"),
    pytest.param("weights-indices", {"weights": [R1E308]}, 2, id="indices"),
    pytest.param("embed-nikolskii", {"weight": R1E308, "s": -0.5}, 0, id="nikolskii"),
    pytest.param("embed-hormander", {"weight": R1E308, "p": 0, "n": 1}, 0, id="hormander"),
    pytest.param("eta-verify", {"cases": [{"phi": {"op": "product", "args": [R1E308, {"op": "power",
                 "r": -1e308}]}, "s0": -1.0, "s1": 1.0, "lam": 0.0}]}, 2, id="eta-inf-minus-inf"),
    # an extreme depth, not order: 10**9 iterated logs stop once every point is glued
    pytest.param("embed-nikolskii", {"weight": {"op": "iter_log", "depth": 1_000_000_000, "k": -1.0},
                                     "s": -0.5}, 0, id="iter-log-depth-1e9"),
])
def test_a_power_weight_of_order_1e308_runs_without_a_warning(tmp_path, command, cfg, code):
    assert _run(tmp_path, command, cfg)[0] == code


def test_weights_indices_fails_a_window_estimate_that_is_not_finite(tmp_path):
    code, out = _run(tmp_path, "weights-indices", {"weights": [{"op": "power", "r": 2.0}, R1E308]})
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert report["verdicts"] == {"pass": False}
    assert report["rows"][0][3:5] == pytest.approx([2.0, 2.0], rel=1e-12)
    assert report["rows"][1][3:5] == ["nan", "nan"]  # not inf above -inf


@pytest.mark.parametrize("command,text,first_compute,message", [
    pytest.param("embed-nikolskii", '{"weight": {"op": "power", "r": 1.0}, "s": 1e308}',
                 "gensob.weights.dyadic_integral_test",
                 "requires -2s finite; got s=1e+308", id="nikolskii-s"),
    # r1 - r0 overflows to inf, or is so small that its inverse does
    pytest.param("interp-verify", '{"cases": [{"weight": {"op": "power", "r": 1.0}, "r0": -1e308, '
                 '"r1": 1e308}]}', "gensob.spectra.random_field",
                 "requires r1 - r0 and 1/(r1 - r0) finite; got r0=-1e+308, r1=1e+308",
                 id="interp-gap"),
    pytest.param("interp-verify", '{"cases": [{"weight": {"op": "iter_log", "depth": 1, "k": 0.5}, '
                 '"r0": -1e-320, "r1": 1e-320}]}', "gensob.spectra.random_field",
                 "requires r1 - r0 and 1/(r1 - r0) finite; got r0=-1e-320, r1=1e-320",
                 id="interp-tiny-gap"),
    pytest.param("eta-verify", '{"cases": [{"phi": {"op": "power", "r": -0.5}, "s0": -1e308, '
                 '"s1": 1e308, "lam": 0.0}]}', "gensob.weights.interp_param",
                 "requires s1 - s0 finite; got s0=-1e+308, s1=1e+308", id="eta-gap"),
    pytest.param("eta-verify", '{"cases": [{"phi": {"op": "power", "r": -0.5}, "s0": -1.0, '
                 '"s1": 0.0, "lam": -0.25}], "order_shifts": [1e308]}', "gensob.weights.interp_param",
                 "order_shifts entry 1e+308: s0 + shift = 1e+308 and s1 + shift = 1e+308 must be "
                 "distinct finite doubles", id="eta-order-shift"),
    pytest.param("embed-hormander", '{"weight": {"op": "power", "r": 1.0}, "p": 1' + "0" * 308
                 + ', "n": 1}', "gensob.weights.dyadic_integral_test",
                 "2p + n must be a finite double, got an integer of 309 digits", id="hormander-p"),
    pytest.param("noise-covariance", '{"dim": 1, "N": 16, "n_samples": 1000, "pairs": [{"v1": '
                 '{"kind": "modes", "modes": [[1, 1e300, 0.0]]}, "v2": {"kind": "mode", "k": [2]}}]}',
                 "gensob.noise._draw", "covariance pair 0: ||v1||^2 ||v2||^2 overflows a double, so "
                 "the variance of its products cannot be estimated", id="covariance-amplitude"),
])
def test_a_derived_overflow_is_refused_by_name_before_compute(tmp_path, capsys, monkeypatch, command,
                                                              text, first_compute, message):
    monkeypatch.setattr(first_compute, _no_compute)
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"error: {message}\n"  # one named line, no traceback


def test_eta_verify_of_an_overflowing_order_fails_without_a_warning(tmp_path):
    cfg = {"cases": [{"phi": {"op": "power", "r": -0.5}, "s0": -1.0, "s1": 1e300, "lam": -0.25}]}
    code, out = _run(tmp_path, "eta-verify", cfg)
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert report["verdicts"]["pass"] is False
    assert report["verdicts"]["max_rel_err"] == "nan"


def test_or_check_of_an_infinite_constant_exits_2(tmp_path):
    code, out = _run(tmp_path, "weights-or-check", {"weight": {"op": "power", "r": 1e300}, "b": 2.0})
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert (report["rows"], report["verdicts"]) == ([[2.0, "inf", 1.0, 1e8, "fail"]], {"pass": False})


@pytest.mark.parametrize("key", ["field_n", "field_n_2d"])
def test_interp_verify_grid_sizes_checked_before_the_first_draw(tmp_path, capsys, monkeypatch,
                                                                key):
    monkeypatch.setattr(spectra, "random_field", _no_compute)
    code, out = _run(tmp_path, "interp-verify", {"cases": [INTERP_CASE], key: 96})
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == "error: N must be a power of two >= 2, got 96\n"


def test_decay_check_of_a_k_not_in_k_list_rejected(tmp_path, capsys, monkeypatch):
    # the experiment refuses it before its first compute step, the sup-norm gate
    for step in ("embed_hormander", "evaluate_polar_grid"):
        monkeypatch.setattr(disk, step, _no_compute)
    cfg = {"alpha": {"op": "power", "r": 2.0}, "g": {"kind": "mode", "k": [1]},
           "K_list": [4, 8, 16], "decay_check": {"k_lo": 4, "k_hi": 512, "factor": 0.5}}
    code, out = _run(tmp_path, "disk-convergence", cfg)
    assert code == 1
    assert not out.exists()
    assert "decay_check k_hi = 512 is not in K_list" in capsys.readouterr().err


def test_disk_convergence_radial_count_rejected(tmp_path, capsys, monkeypatch):
    # the error is read on r = 1 alone, so a config may not ask for interior rings
    monkeypatch.setattr(disk, "uniform_convergence_experiment", _no_compute)
    cfg = {**json.loads((CONFIGS / "disk-convergence.json").read_text()), "n_r": 64}
    code, out = _run(tmp_path, "disk-convergence", cfg)
    assert code == 1
    assert not out.exists()
    assert "n_r: not allowed here" in capsys.readouterr().err


def test_package_schemas_are_valid():
    text = resources.files("gensob").joinpath("schemas/config_schema.json").read_text()
    Draft202012Validator.check_schema(json.loads(text))


ETA_CASE = {"phi": {"op": "power", "r": -0.5}, "s0": -1.0, "s1": 0.0, "lam": -0.25}
INTERP_CASE = {"weight": {"op": "power", "r": 1.0}, "r0": 0.0, "r1": 2.0}
WEIGHT_SLOTS = {
    "weight": ("embed-nikolskii", {"weight": {"op": "power", "r": -0.7}, "s": -0.5}, ["weight"]),
    "alpha": ("disk-convergence", {"alpha": {"op": "power", "r": 2.0},
                                   "g": {"kind": "mode", "k": [1]}, "K_list": [4]}, ["alpha"]),
    "phi": ("eta-verify", {"cases": [dict(ETA_CASE)]}, ["cases", 0, "phi"]),
    "weights[i]": ("weights-indices", {"weights": [{"op": "power", "r": 1.0}] * 2}, ["weights", 1]),
    "cases[i].weight": ("interp-verify", {"cases": [dict(INTERP_CASE), dict(INTERP_CASE)]},
                        ["cases", 1, "weight"]),
    "cases[i].phi": ("eta-verify", {"cases": [dict(ETA_CASE), dict(ETA_CASE)]},
                     ["cases", 1, "phi"]),
}
BAD_WEIGHTS = {  # a malformed weight and the words of the error that names its field
    "missing": ({"op": "power"}, "weight op 'power' is missing field 'r'"),
    "unknown": ({"op": "power", "r": 1.0, "x": 2.0}, "weight op 'power' has unknown fields ['x']"),
}


def _no_compute(*args, **kwargs):
    raise AssertionError("compute started before the config was checked")


@pytest.mark.parametrize("slot,bad", [
    # the missing-field cases keep the bare slot as their id
    pytest.param(slot, bad, id=slot if bad == "missing" else f"{slot}-{bad}")
    for bad in BAD_WEIGHTS for slot in sorted(WEIGHT_SLOTS)
])
def test_malformed_weight_rejected_in_every_slot(tmp_path, capsys, monkeypatch, slot, bad):
    command, cfg, path = WEIGHT_SLOTS[slot]
    cfg = json.loads(json.dumps(cfg))
    validate_config(command, cfg)  # the well-formed config is accepted
    target = cfg
    for key in path[:-1]:
        target = target[key]
    target[path[-1]], message = BAD_WEIGHTS[bad]
    for name in ("indices", "interp_param", "eta_construct"):  # each case runner's first compute
        monkeypatch.setattr(weights, name, _no_compute)
    code, out = _run(tmp_path, command, cfg)
    assert code == 1
    assert not out.exists()
    assert message in capsys.readouterr().err


BOTH_FORMS = {  # the list form given with a retired top-level slot: (subcommand, config)
    "weight+weights": ("weights-indices", {"weight": {"op": "power", "r": 5.0},
                                           "weights": [{"op": "power", "r": 1.0}]}),
    "weight+cases": ("interp-verify", {**INTERP_CASE, "cases": [dict(INTERP_CASE)]}),
    "phi+cases": ("eta-verify", {**ETA_CASE, "cases": [dict(ETA_CASE)]}),
    "r1+cases": ("interp-verify", {"r1": 2.0, "cases": [dict(INTERP_CASE)]}),
    "lam+cases": ("eta-verify", {"lam": 0.0, "cases": [dict(ETA_CASE)]}),
}


@pytest.mark.parametrize("form,bad", [
    *(pytest.param(form, None, id=f"{form}-well-formed") for form in sorted(BOTH_FORMS)),
    # a malformed top-level weight is refused as a slot, before it is parsed
    *(pytest.param(form, bad, id=form if bad == "missing" else f"{form}-{bad}")
      for bad in BAD_WEIGHTS for form in ("phi+cases", "weight+cases", "weight+weights")),
])
def test_both_weight_forms_rejected(tmp_path, capsys, monkeypatch, form, bad):
    # a top-level weight next to the list is refused, never silently dropped
    command, cfg = BOTH_FORMS[form]
    cfg = json.loads(json.dumps(cfg))
    slot = form.split("+")[0]
    if bad is not None:
        cfg[slot] = BAD_WEIGHTS[bad][0]
    for name in ("indices", "interp_param", "eta_construct"):
        monkeypatch.setattr(weights, name, _no_compute)
    code, out = _run(tmp_path, command, cfg)
    assert code == 1
    assert not out.exists()
    assert f"config rejected: {slot}: not allowed here" in capsys.readouterr().err


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
ACCEPTANCE = {  # configs/acceptance/<name>.json -> subcommand; configs/<subcommand>.json run as named
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
}


def _crit1(**overrides) -> dict:
    return {**json.loads((CONFIGS / "acceptance" / "crit1-interp.json").read_text()), **overrides}


def test_interp_verify_draws_each_field_once_per_dim(tmp_path, monkeypatch):
    # the five cases read their norms off one ensemble per dim: n_fields draws each, not 5x
    calls = []
    draw = spectra.random_field

    def counted(dim, n, seed):
        calls.append((dim, n, seed))
        return draw(dim, n, seed)

    monkeypatch.setattr(spectra, "random_field", counted)
    code, out = _run(tmp_path, "interp-verify", _crit1(n_fields=7, field_n=256, field_n_2d=16),
                     extra=("--seed-base", "5"))
    assert code == 0
    assert calls == [(1, 256, 1005 + i) for i in range(7)] + [(2, 16, 2005 + i) for i in range(7)]
    rows = json.loads((out / "report.json").read_text())["rows"]
    assert [row[:4] for row in rows] == [[ci, dim, n, 1000 * dim + 5 + i] for ci in range(5)
                                         for dim, n in ((1, 256), (2, 16)) for i in range(7)]


def test_interp_verify_builds_its_weight_nodes_once_per_case(monkeypatch):
    # interp_norm reads every row, but builds t^r0 psi(t^(r1-r0)) once per case, not per row
    built, norm_calls = [], []
    check, interp_norm = weights.WeightExpr.__post_init__, spectra.interp_norm

    def counted_check(self):
        built.append(type(self))
        check(self)

    def counted_norm(*args):
        norm_calls.append(args)
        return interp_norm(*args)

    monkeypatch.setattr(weights.WeightExpr, "__post_init__", counted_check)
    monkeypatch.setattr(spectra, "interp_norm", counted_norm)
    counts = []
    for n_fields in (1, 3):
        config = validate_config("interp-verify", _crit1(n_fields=n_fields, field_n=16, field_n_2d=4))
        spectra._interp_weight.cache_clear()
        built.clear()
        norm_calls.clear()
        cli.run_interp_verify(config, None, 0)
        assert len(norm_calls) == 5 * 2 * n_fields  # one call per row
        counts.append(len(built))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("seed_base", [0, 3])
def test_interp_verify_rows_are_bitwise_the_case_major_norms(seed_base):
    # the reference is the case-major loop that drew every field again for each case
    config = validate_config("interp-verify", _crit1(n_fields=3))
    _, rows, _, _ = cli.run_interp_verify(config, None, seed_base)
    expected = []
    for ci, case in enumerate(config["cases"]):
        alpha, r0, r1 = weight_from_json(case["weight"]), case["r0"], case["r1"]
        psi = weights.interp_param(alpha, r0, r1)
        for dim, n in ((1, 4096), (2, 128)):
            for seed in range(seed_base + 1000 * dim, seed_base + 1000 * dim + 3):
                w = spectra.random_field(dim, n, seed)
                ha, ip = spectra.halpha_norm(w, alpha), spectra.interp_norm(w, r0, r1, psi)
                expected.append([ci, dim, n, seed, ha, ip, abs(ip - ha) / ha])
    assert rows == expected


def test_interp_verify_holds_one_field_at_a_time():
    # crit1 peaks near 3 MiB traced; holding its 200 fields at once would pass 25 MiB
    config = validate_config("interp-verify", _crit1())
    spectra._weight_grid.cache_clear()
    tracemalloc.start()
    try:
        cli.run_interp_verify(config, None, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def _weight_slots(node) -> list:
    """Every weight in a config: the outermost objects that carry an ``op``."""
    if isinstance(node, dict) and "op" in node:
        return [node]
    children = node.values() if isinstance(node, dict) else node if isinstance(node, list) else ()
    return [slot for child in children for slot in _weight_slots(child)]


def _corpus() -> list:
    """(subcommand, path) of every config under configs/ and configs/acceptance/."""
    corpus = [(p.stem, p) for p in sorted(CONFIGS.glob("*.json"))]
    return corpus + [(cmd, CONFIGS / "acceptance" / f"{name}.json")
                     for name, cmd in ACCEPTANCE.items()]


GOLDEN = json.loads((CONFIGS.parent / "perfbench" / "golden.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed_zero_reports_match_golden_digests(tmp_path, name):
    """Each benchmark config, run at --seed-base 0, writes the reports whose sha256 digests
    perfbench/golden.json holds; a reject config (digests null) exits 1 and writes none.
    The digests hold the version a run from src/ writes, __version__ + "+local"."""
    path = CONFIGS / (f"acceptance/{name}.json" if name in ACCEPTANCE else f"{name}.json")
    command = ACCEPTANCE.get(name, name)
    out = tmp_path / "out"
    code = main([command, "--config", str(path), "--out", str(out), "--seed-base", "0"])
    if GOLDEN[name] == {"report.json": None, "results.csv": None}:
        assert code == 1
        assert not out.exists()
    else:
        assert code in (0, 2)
        assert {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in GOLDEN[name]} \
            == GOLDEN[name]


SCHEMA = json.loads(resources.files("gensob").joinpath("schemas/config_schema.json").read_text())


def test_shipped_configs_validate_and_their_weights_parse():
    assert sorted(p.stem for p in (CONFIGS / "acceptance").glob("*.json")) == sorted(ACCEPTANCE)
    for command, path in _corpus():
        config = json.loads(path.read_text())
        validate_config(command, config)
        assert Draft202012Validator({**SCHEMA, "$ref": f"#/$defs/{command}"}).is_valid(config)
        slots = _weight_slots(config)
        assert bool(slots) != command.startswith("noise-"), path
        for obj in slots:
            weight_from_json(obj)


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_example_config_runs(tmp_path, name):
    """Every configs/<subcommand>.json runs and passes; the three seed ensembles among them
    write the same report bytes at --workers 1 and 2."""
    outs = []
    for workers in ("1", "2") if name in ("disk-apriori", "noise-covariance",
                                          "noise-regularity") else ("1",):
        outs.append(tmp_path / f"w{workers}")
        assert main([name, "--config", str(CONFIGS / f"{name}.json"), "--out", str(outs[-1]),
                     "--workers", workers]) == 0
    for f in ("report.json", "results.csv"):
        assert len({(out / f).read_bytes() for out in outs}) == 1


def _numpy_fault(config, map, seed_base):
    return np.zeros(3).reshape(2, 2)  # numpy's own ValueError, not a refusal


def _raising(exc):
    def runner(config, map, seed_base):
        raise exc
    return runner


NIKOLSKII_ARGS = ["embed-nikolskii", "--config", str(CONFIGS / "embed-nikolskii.json")]


@pytest.mark.parametrize("argv,runner,code", [
    pytest.param(["--help"], None, 0, id="help"),
    pytest.param(["nonsense", "--config", "a", "--out", "b"], None, 1, id="unknown-subcommand"),
    pytest.param(["embed-nikolskii", "--out", "b"], None, 1, id="missing-config"),
    pytest.param([*NIKOLSKII_ARGS, "--out", "b", "--workers", "x"], None, 1, id="workers-not-int"),
    pytest.param([*NIKOLSKII_ARGS, "--out", "b", "--workers", "0"], None, 1, id="workers-zero"),
    pytest.param(["embed-nikolskii", "--config", "latin1.json", "--out", "b"], None, 1,
                 id="config-not-utf8"),
    pytest.param([*NIKOLSKII_ARGS, "--out", "b"], _raising(RuntimeError("a runner fault")), 3,
                 id="runtime-error"),
    pytest.param([*NIKOLSKII_ARGS, "--out", "b"], _numpy_fault, 3, id="foreign-value-error"),
    pytest.param([*NIKOLSKII_ARGS, "--out", "b"], _raising(BrokenProcessPool("a worker died")), 3,
                 id="broken-process-pool"),
])
def test_exit_code_table(tmp_path, capsys, monkeypatch, argv, runner, code):
    """1 a usage error or an unreadable config, like a refusal; 3, with a traceback, any
    exception that escapes a runner but a refusal; 0 after --help."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.json").write_bytes(b'{"s": "\xe9"}')
    if runner is not None:
        monkeypatch.setitem(cli.RUNNERS, "embed-nikolskii", runner)
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert not (tmp_path / "b").exists()
    if code == 0:
        assert "Exit codes:" in out
    elif code == 1:
        assert err.startswith(("usage: gensob", "cannot read config: 'utf-8' codec"))
    else:
        assert err.startswith("Traceback (most recent call last):")
        assert err.splitlines()[-1].split(":")[0].endswith(("RuntimeError", "ValueError",
                                                            "BrokenProcessPool"))


SIZE_SLOTS = {"n_samples", "n_seeds", "N", "N_list", "K_list", "n_fields", "k", "modes", "f_terms",
              "dim", "depth"}  # with field_n* and seed*: sizes, seeds and frequencies
EXTREMES = (1e308, -1e308, 1e-300, -1.0, 0.0)


def _numeric_slots(node, path=(), sizes=False):
    """The paths of a config's numbers; its size, seed and frequency slots only if ``sizes``."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, val in items:
            if not sizes and (key in SIZE_SLOTS or str(key).startswith(("field_n", "seed"))):
                continue
            yield from _numeric_slots(val, (*path, key), sizes)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_extreme_value_in_any_numeric_slot_exits_0_1_or_2(tmp_path, name):
    """Each numeric slot of configs/<subcommand>.json, set to each extreme, ends in a verdict or
    a refusal: nothing escapes main, and no RuntimeWarning is raised."""
    base = json.loads((CONFIGS / f"{name}.json").read_text())
    base.update({"interp-verify": {"n_fields": 2}, "disk-apriori": {"n_seeds": 25}}.get(name, {}))
    codes = {}
    for path in _numeric_slots(base):
        for value in EXTREMES:
            cfg = copy.deepcopy(base)
            node = cfg
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            out = tmp_path / str(len(codes))
            codes[(path, value)] = main([name, "--config", _write(tmp_path, "cfg.json", cfg),
                                         "--out", str(out)])
    assert codes and {k: c for k, c in codes.items() if c not in (0, 1, 2)} == {}


SOLVE = json.loads((CONFIGS / "disk-solve.json").read_text())
CRIT8 = json.loads((CONFIGS / "acceptance" / "crit8-convergence.json").read_text())
HOLE_CONFIGS = {  # a value that overflowed outside an errstate, and the exit its verdict now gives
    "indices-h": ("weights-indices", {"weights": [
        {"op": "osc_power", "theta": 0.0, "delta": sys.float_info.max, "lam": 1.0}]}, 2),
    "halpha-norm": ("embedding-ratio", {"weight": {
        "op": "glue", "inner": {"op": "power", "r": 60.0}, "t_star": 2.0},
        "s": -60.0, "N_list": [16, 64]}, 0),
    "snorm-modes": ("disk-solve", {**SOLVE, "g": {"kind": "modes", "modes": [[1, 1e300, 0.0]]}}, 0),
    "snorm-alpha-decay": ("disk-solve", {
        **SOLVE, "alpha": {"op": "scale", "c": 1e-300},
        "g": {"kind": "alpha_decay", "N": 256, "extra_exponent": 0.6}}, 0),
    "convergence-factor2": ("disk-convergence", {
        **CRIT8, "g": {**CRIT8["g"], "extra_exponent": -60.0}}, 0),
    "eta-verify-difference": ("eta-verify", {"cases": [{
        "phi": {"op": "power_compose", "inner": {"op": "iter_log", "depth": 1, "k": 1e308},
                "theta": 1e308}, "s0": -0.5, "s1": 60.0, "lam": 60.0}]}, 2),
}


@pytest.mark.parametrize("hole", sorted(HOLE_CONFIGS))
def test_a_value_past_the_double_range_is_formed_without_a_warning(tmp_path, hole):
    """Each value reads inf or NaN where it is formed, and the verdict decides; a RuntimeWarning,
    an error under the suite's filter, would end the run with exit 3."""
    command, cfg, code = HOLE_CONFIGS[hole]
    assert _run(tmp_path, command, cfg)[0] == code


SMALLEST = {  # the weight-taking example configs at their smallest sizes
    "disk-apriori": {"N_list": [16, 32], "n_seeds": 2},
    "disk-convergence": {"g": {"kind": "alpha_decay", "N": 64, "extra_exponent": 0.6}, "K_list": [4, 8],
                         "decay_check": {"k_lo": 4, "k_hi": 8, "factor": 0.001}},
    "disk-solve": {"g": {"kind": "noise", "N": 16, "seed": 7}, "N": 16},
    "embedding-ratio": {"N_list": [16, 64]},
    "interp-verify": {"n_fields": 1, "field_n": 16, "field_n_2d": 4},
}
FUZZ_EXTREMES = (0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, sys.float_info.max,
                 -sys.float_info.max)


def _fuzz_values(f) -> list:
    """Each bound declared on field ``f``, the values just past it on either side, and the extremes."""
    past = (lambda b, to: b + (1 if to > b else -1)) if f.type == "int" else math.nextafter
    return [v for b in f.metadata.values() for v in (b, past(b, -math.inf), past(b, math.inf))] \
        + list(FUZZ_EXTREMES)


def _draw_weight(rng, depth: int) -> dict:
    """A weight's JSON up to ``depth`` nodes deep, each node and field drawn from its declaration."""
    nodes = [cls for cls in weights.WEIGHT_NODES
             if depth > 1 or all(f.type in ("int", "float") for f in fields(cls))]
    cls = rng.choice(nodes)
    obj = {"op": cls.op}
    for f in fields(cls):
        if f.type == "WeightExpr":
            obj[f.name] = _draw_weight(rng, depth - 1)
        elif f.type == "tuple[WeightExpr, ...]":
            obj[f.name] = [_draw_weight(rng, depth - 1) for _ in range(rng.randint(2, 3))]
        else:
            obj[f.name] = rng.choice(_fuzz_values(f))
    return obj


def _with_weights(node, draw):
    """``node`` with each weight slot replaced by ``draw()``."""
    if isinstance(node, dict):
        return draw() if "op" in node else {k: _with_weights(v, draw) for k, v in node.items()}
    return [_with_weights(v, draw) for v in node] if isinstance(node, list) else node


def test_weight_fuzz_ends_each_run_in_a_verdict_or_a_one_line_refusal(tmp_path, capsys):
    """Seeded trees up to 3 deep, drawn from the nodes' declared fields, in every weight slot of
    each weight-taking example config at its smallest sizes: each run exits 0, 1 or 2 (a
    RuntimeWarning, an error under the suite's filter, exits 3); a refusal is one stderr line
    under 200 bytes; a report holds no NaN or Infinity token."""
    rng = random.Random(200305360)
    failures, runs = [], 0
    for name in sorted(p.stem for p in CONFIGS.glob("*.json") if not p.stem.startswith("noise-")):
        base = {**json.loads((CONFIGS / f"{name}.json").read_text()), **SMALLEST.get(name, {})}
        for _ in range(12):
            cfg = _with_weights(base, lambda: _draw_weight(rng, 3))
            out = tmp_path / str(runs)
            code = main([name, "--config", _write(tmp_path, "cfg.json", cfg), "--out", str(out)])
            err = capsys.readouterr().err
            runs += 1
            tokens = []
            if code in (0, 2):
                json.loads((out / "report.json").read_text(), parse_constant=tokens.append)
            if code not in (0, 1, 2) or tokens or (code == 1 and (
                    out.exists() or err.count("\n") != 1 or len(err.encode()) >= 200)):
                failures.append((name, code, tokens, err[-300:], json.dumps(cfg)))
    assert runs == 120 and failures == []


NOT_A_DOUBLE = ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 399)
WEIGHT_KEYS = {"weight", "weights", "alpha", "phi"}


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIGS.glob("*.json")))
def test_a_literal_that_is_no_finite_double_is_refused_naming_its_slot(tmp_path, capsys, name):
    """Each literal in NOT_A_DOUBLE, written into the JSON text of each numeric slot of
    configs/<subcommand>.json (sizes, seeds, frequencies and weight fields included), exits 1
    with no out dir and no traceback, naming the slot's JSON path, or its weight node's field
    and op.  A schema node with ``minimum`` but no ``type`` would let NaN through here."""
    base = json.loads((CONFIGS / f"{name}.json").read_text())
    out, failures, runs = tmp_path / "out", [], 0
    for path in _numeric_slots(base, sizes=True):
        cfg = copy.deepcopy(base)
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = "@slot@"
        if WEIGHT_KEYS & set(path):  # a weight's insides are checked by weight_from_json
            where = f"error: field {path[-1]!r} of {node['op']!r} must be a finite number, got "
        else:
            slot = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path).lstrip(".")
            where = f"error: config rejected: {slot}: expected "
        for literal in NOT_A_DOUBLE:
            (tmp_path / "cfg.json").write_text(json.dumps(cfg).replace('"@slot@"', literal))
            code = main([name, "--config", str(tmp_path / "cfg.json"), "--out", str(out)])
            err = capsys.readouterr().err
            runs += 1
            if code != 1 or out.exists() or not err.startswith(where) or "Traceback" in err:
                failures.append((path, literal[:12], code, err[:100]))
    assert runs and failures == []


HELPER_DEFS = {  # the $defs that name no subcommand, each with a config it would accept
    "weight": {"anything": 1}, "n_list": [4, 8], "field_spec": {"kind": "mode", "k": [1]},
    "interp-case": INTERP_CASE, "eta-case": ETA_CASE,
}


def test_helper_defs_are_the_schema_defs_that_name_no_subcommand():
    assert sorted(HELPER_DEFS) == sorted(set(SCHEMA["$defs"]) - set(cli.RUNNERS))
    assert sorted(set(SCHEMA["$defs"]) & set(cli.RUNNERS)) == sorted(cli.RUNNERS)


@pytest.mark.parametrize("name", sorted(HELPER_DEFS))
def test_validate_config_refuses_a_helper_def_as_a_subcommand(name):
    assert conform(HELPER_DEFS[name], {**SCHEMA, "$ref": f"#/$defs/{name}"})[0] is None
    with pytest.raises(ConstraintError, match=f"unknown subcommand {name}$"):
        validate_config(name, copy.deepcopy(HELPER_DEFS[name]))


def _refuse_constant(token):
    raise AssertionError(f"report.json holds the non-standard JSON token {token}")


NAN_RUNS = {  # subcommand -> (shipped config, edits that make some rows' errors NaN)
    "eta-verify": ("crit2-eta", [(("cases", 0, "s1"), 1e300)]),
    # a weight whose norms of most fields overflow a double, though its grids are finite
    "interp-verify": ("crit1-interp", [(("cases", 1, "weight"), {"op": "product", "args": [
        {"op": "power", "r": -0.5}, {"op": "scale", "c": 1.3e154}]}), (("n_fields",), 3)]),
}


def test_interp_verify_of_a_weight_whose_norms_read_zero_fails(tmp_path):
    # alpha(chi)^2 underflows to 0 on every lattice, so both norms read 0 and the relative error
    # is NaN: the verdict fails, where the division used to raise ZeroDivisionError
    cfg = _crit1(n_fields=3)
    _set(cfg, ("cases", 2, "weight", "args", 1), {"op": "scale", "c": 1e-200})
    code, out = _run(tmp_path, "interp-verify", cfg)
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    assert {tuple(row[4:]) for row in report["rows"] if row[0] == 2} == {(0.0, 0.0, "nan")}
    assert report["verdicts"]["max_rel_err"] == "nan"


def test_interp_verify_refuses_a_weight_whose_grid_overflows(tmp_path, capsys):
    weight = {"op": "product", "args": [{"op": "power", "r": 0.5},
                                        {"op": "iter_log", "depth": 1, "k": 1e300}]}
    cfg = _crit1(n_fields=3)
    _set(cfg, ("cases", 2, "weight"), weight)
    code, out = _run(tmp_path, "interp-verify", cfg)
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == (f"error: weight {json.dumps(weight)}: alpha(chi)^2 "
                                       "overflows a double on the lattice of N = 4096\n")


@pytest.mark.parametrize("command", sorted(NAN_RUNS))
def test_nan_error_fails_the_verdict(tmp_path, command):
    # the max over the rows' errors is NaN, so the verdict fails and exits 2
    name, edits = NAN_RUNS[command]
    config = json.loads((CONFIGS / "acceptance" / f"{name}.json").read_text())
    for path, value in edits:
        _set(config, path, value)
    with np.errstate(all="ignore"):
        code, out = _run(tmp_path, command, config)
    assert code == 2
    report = json.loads((out / "report.json").read_text(), parse_constant=_refuse_constant)
    assert report["verdicts"]["pass"] is False
    assert report["verdicts"]["max_rel_err"] == "nan"
    assert "nan" in [row[-1] for row in report["rows"]]


def test_report_writes_non_finite_floats_as_strings(tmp_path):
    # standard JSON has no NaN or Infinity; the strings are the repr that results.csv holds
    values = [float("nan"), float("inf"), -np.inf, np.float64("nan"), 1.5]
    write_report(tmp_path, "x", {}, ["v"], [[v] for v in values], {"pass": False}, "0", 0.0,
                 extra={"worst": np.float64("-inf")})
    report = json.loads((tmp_path / "report.json").read_text(), parse_constant=_refuse_constant)
    assert report["rows"] == [["nan"], ["inf"], ["-inf"], ["nan"], [1.5]]
    assert report["extra"] == {"worst": "-inf"}
    assert (tmp_path / "results.csv").read_text() == "v\nnan\ninf\n-inf\nnan\n1.5\n"


CORPUS = [(command, json.loads(path.read_text())) for command, path in _corpus()]
# replacement values: wrong types, bools for integers, integral floats, out-of-range numbers,
# bad enum/const values, and objects/arrays of the shapes the schema nests
VALUES = [True, False, None, -1, 0, 0.5, 1, 1.0, 2, 3, 4, 4.0, 4.5, 16, 100, 1000, 1e9, -2.5,
          "x", "mode", "bounded", "growth", "converges", [], [1], [4, 8], [1, 2, 3],
          [[0, 1.0, 0.0]], {}, {"op": "power", "r": 1.0}, {"kind": "mode", "k": [1]},
          {"kind": "bounded", "max_factor": 2.0}]
KEYS = sorted({key for _, cfg in CORPUS for key in cfg} | {"bogus", "kind", "k", "N", "seed"})


def _containers(node):
    """Every dict and list in a config, the config itself first."""
    if isinstance(node, (dict, list)):
        yield node
        for child in node.values() if isinstance(node, dict) else node:
            yield from _containers(child)


def _mutate(data, config) -> None:
    node = data.draw(st.sampled_from(list(_containers(config))))
    keys = list(node) if isinstance(node, dict) else list(range(len(node)))
    op = data.draw(st.sampled_from(["drop", "replace", "float", "add", "resize"]))
    if op in ("drop", "replace", "float") and keys:
        key = data.draw(st.sampled_from(keys))
        if op == "drop" and isinstance(node, dict):
            del node[key]
        elif op == "float" and isinstance(node[key], int) and not isinstance(node[key], bool):
            node[key] = float(node[key])  # an integral float must still pass as an integer
        else:
            node[key] = copy.deepcopy(data.draw(st.sampled_from(VALUES)))
    elif op == "add" and isinstance(node, dict):
        node[data.draw(st.sampled_from(KEYS))] = copy.deepcopy(data.draw(st.sampled_from(VALUES)))
    elif op == "resize" and isinstance(node, list):
        size = data.draw(st.integers(0, len(node) + 2))
        node[:] = (node * 3 if node else [data.draw(st.sampled_from(VALUES))] * 3)[:size]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_validator_agrees_with_jsonschema_on_mutated_configs(data):
    command, config = data.draw(st.sampled_from(CORPUS))
    config = copy.deepcopy(config)
    for _ in range(data.draw(st.integers(0, 3))):
        _mutate(data, config)
    try:
        validate_config(command, config)
        accepted = True
    except ConstraintError:
        accepted = False
    reference = Draft202012Validator({**SCHEMA, "$ref": f"#/$defs/{command}"})
    assert accepted == reference.is_valid(config), (command, config)


EDGE_SCHEMAS = [
    {"oneOf": [{"type": "integer"}, {"minimum": 0}]},  # 4 and 4.0 match both branches
    {"enum": [1, 2]}, {"const": 1}, {"const": True}, {"const": [1, {"a": 0}]},
    {"type": "number"}, {"type": "array", "items": {"type": "integer"}, "maxItems": 2},
]
EDGE_VALUES = [True, False, None, 0, 1, 1.0, 4, 4.0, 4.5, -1, "x", [1], [1.0, {"a": 0}],
               [True, {"a": False}], {"a": 0}, [4, 4.0, 5]]


def test_validator_agrees_with_jsonschema_on_keyword_edges():
    # oneOf with two matches, bool against number/integer/enum/const, JSON equality of 1 and 1.0
    disagree = [(s, v) for s in EDGE_SCHEMAS for v in EDGE_VALUES
                if (conform(v, s)[0] is None) != Draft202012Validator(s).is_valid(v)]
    assert disagree == []


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "^x"},
    {"properties": {"a": {"type": "object", "patternProperties": {"^x": {}}}}},
    {"oneOf": [{"type": "integer"}, {"not": {"type": "integer"}}]},
    {"$defs": {"a": {"$defs": {}}}},  # $defs is allowed at the root only
    {"anyOf": [{"type": "integer"}, {"exclusiveMinimum": 0}]},  # the config schema uses oneOf only
])
def test_validator_raises_on_unsupported_keywords(schema):
    # raised even where the instance never reaches the keyword
    with pytest.raises(NotImplementedError, match="unsupported keywords"):
        conform({}, schema)


@pytest.mark.parametrize("command,cfg,path", [
    ("embedding-ratio", {"weight": {"op": "power", "r": 1.0}, "s": -0.5, "N_list": [2]},
     "N_list[0]"),
    ("noise-covariance", {"dim": 1, "N": 64, "n_samples": 1000, "pairs": [
        {"v1": {"kind": "mode", "k": [1]}, "v2": {"kind": "mode", "k": [1]}, "v3": {}}]},
     "pairs[0].v3"),
    ("embed-nikolskii", {"weight": {"op": "power", "r": -0.7}, "s": -0.5, "v" * 300: 1}, "v" * 36),
    ("disk-solve", {"f_terms": [], "g": {"kind": "mode", "k": [1, "x" * 300]}, "N": 8,
                    "alpha": {"op": "power", "r": 1.0}, "lambda": 0.0}, "g.k[1]"),
], ids=["below-minimum", "unknown-key", "long-unknown-key", "wrong-type"])
def test_rejection_names_the_json_path(tmp_path, capsys, command, cfg, path):
    code, out = _run(tmp_path, command, cfg)
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert f"config rejected: {path}" in err
    assert len(err.encode()) < 200  # a long offending value or key is cut to a prefix


def test_cli_run_does_not_import_jsonschema(tmp_path):
    script = (
        "import sys; from gensob.cli import main; "
        f"code = main(['embed-nikolskii', '--config', {str(CONFIGS / 'embed-nikolskii.json')!r}, "
        f"'--out', {str(tmp_path / 'out')!r}]); "
        "print(code, sorted({'jsonschema', 'referencing'} & set(sys.modules)))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.stdout.splitlines()[-1] == "0 []", proc.stdout + proc.stderr


def test_cli_import_loads_neither_numpy_random_nor_a_process_pool():
    # numpy.random comes with the first draw, concurrent.futures with the first pool, and
    # importlib.metadata never: the version is read from gensob.__version__.  The package root
    # holds only that version, and weights, the root of the module graph, imports no sibling.
    src = Path(__file__).resolve().parent.parent / "src"
    for module, absent in [
        ("gensob.cli", ("numpy.random", "concurrent.futures", "importlib.metadata")),
        ("gensob", ("gensob.", "numpy")),
        ("gensob.weights", ("gensob.spectra", "gensob.noise", "gensob.disk")),
    ]:
        script = (f"import sys, {module}; "
                  f"print(sorted(m for m in sys.modules if m.startswith({absent!r})))")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert proc.stdout.splitlines()[-1] == "[]", (module, proc.stdout + proc.stderr)


def test_the_package_defines_and_raises_one_error_type_for_bad_input():
    # every refusal is a weights.ConstraintError, which main reports in one line with exit 1;
    # the other raises are developer faults (an unimplemented node or schema keyword, an unknown
    # weight class) and the console script's exit
    classes, raised = set(), set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(base).endswith(("Error", "Exception")) for base in node.bases):
                classes.add(f"{path.stem}.{node.name}")
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(ast.unparse(exc))
    assert classes == {"weights.ConstraintError"}
    assert raised == {"ConstraintError", "NotImplementedError", "TypeError", "SystemExit"}


def test_version_is_local_unless_beside_its_own_wheel_dist_info(tmp_path):
    # a wheel install puts gensob-<version>.dist-info beside the package; src/ has none
    assert cli._version() == f"{gensob.__version__}+local"
    site = tmp_path / "site"
    shutil.copytree(Path(cli.__file__).parent, site / "gensob",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (site / f"gensob-{gensob.__version__}.dist-info").mkdir()
    script = ("import gensob.cli as c; "  # the schema is read beside the copy, too
              "c.validate_config('weights-or-check', {'weight': {'op': 'power', 'r': 1}, 'b': 2}); "
              "print(c.__file__, c._version())")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(site)}, timeout=120)
    assert proc.stdout.split() == [str(site / "gensob" / "cli.py"), gensob.__version__], \
        proc.stdout + proc.stderr


@pytest.mark.parametrize("workers", [1, 2])
def test_disk_apriori_cli_rows_equal_library_sweep(tmp_path, workers):
    alpha = {"op": "product", "args": [{"op": "power", "r": 0.0},
                                       {"op": "iter_log", "depth": 1, "k": -0.75}]}
    cfg = {"alpha": alpha, "s": -0.5, "lambda": 0.0, "f_terms": [[0, 1.0, 0.0]],
           "N_list": [64, 128], "n_seeds": 30, "seed_base": 4}
    code, out = _run(tmp_path, "disk-apriori", cfg, extra=("--workers", str(workers)))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    rows, verdicts = disk.apriori_sweep(weight_from_json(alpha), 0.0, -0.5, [(0, 1.0)],
                                        [64, 128], 30, seed_base=4)
    max_ratio = {int(n): m for n, m in verdicts["max_per_N"].items()}
    assert repr(report["rows"]) == repr([list(astuple(r)) for r in rows])
    assert report["verdicts"]["max_per_N"] == {str(n): m for n, m in max_ratio.items()}
    assert report["verdicts"] == verdicts  # the report writes the library's record


@pytest.mark.parametrize("workers", [1, 2])
def test_noise_covariance_cli_rows_equal_library_sweep(tmp_path, workers):
    pairs = [{"v1": {"kind": "mode", "k": [3]}, "v2": {"kind": "mode", "k": [3]}},
             {"v1": {"kind": "mode", "k": [2]}, "v2": {"kind": "gaussian_bump", "width": 4.0}}]
    cfg = {"dim": 1, "N": 64, "n_samples": 1010, "seed_base": 3, "pairs": pairs}
    code, out = _run(tmp_path, "noise-covariance", cfg, extra=("--workers", str(workers)))
    assert code in (0, 2)
    report = json.loads((out / "report.json").read_text())
    fields = [(build_field(p["v1"], 1, 64), build_field(p["v2"], 1, 64)) for p in pairs]
    results, verdicts = noise.covariance_check(fields, 1010, seed_base=3)
    rows = [[i, r.empirical.real, r.empirical.imag, r.expected.real, r.expected.imag, r.z_score]
            for i, r in enumerate(results)]
    assert repr(report["rows"]) == repr(rows)
    assert report["verdicts"]["pass"] == all(r.z_score <= 3.0 for r in results)
    assert report["verdicts"] == verdicts


@pytest.mark.parametrize("workers", [1, 2])
def test_noise_regularity_cli_rows_equal_library_sweep(tmp_path, workers):
    cfg = {"dim": 1, "s": -0.5, "N_list": [64, 128], "n_seeds": 110, "seed_base": 2}
    code, out = _run(tmp_path, "noise-regularity", cfg, extra=("--workers", str(workers)))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    rows, verdicts = noise.regularity_sweep(1, -0.5, [64, 128], 110, seed_base=2)
    expected = [[1, -0.5, r.n, 110, r.median, r.q25, r.q75] for r in rows]
    assert repr(report["rows"]) == repr(expected)
    assert report["verdicts"] == verdicts


def _int_leaves(node, path=()):
    """(path, value) of every JSON integer in a config (booleans excluded)."""
    if isinstance(node, int) and not isinstance(node, bool):
        yield path, node
    elif isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _int_leaves(child, (*path, key))


def _set(config, path, value):
    for key in path[:-1]:
        config = config[key]
    config[path[-1]] = value


def _integer_slots() -> dict:
    """(subcommand, slot) -> (config, leaves): every ``integer`` slot a shipped config sets, with
    list indices read as "any item" (``N_list[*]``), first config in corpus order.  A slot is an
    integer slot when the reference validator refuses x + 0.5 there."""
    slots = {}
    for command, config in CORPUS:
        reference = Draft202012Validator({**SCHEMA, "$ref": f"#/$defs/{command}"})
        found = {}
        for path, value in _int_leaves(config):
            probe = copy.deepcopy(config)
            _set(probe, path, value + 0.5)
            if not reference.is_valid(probe):
                slot = ".".join("*" if isinstance(k, int) else k for k in path)
                found.setdefault(slot, []).append((path, value))
        for slot, leaves in found.items():
            slots.setdefault((command, slot), (config, leaves))
    return slots


INTEGER_SLOTS = _integer_slots()


RETIRED_KEYS = [  # (subcommand, key, a value the key used to take)
    ("embed-hormander", "k_max", 60), ("embed-nikolskii", "k_max", 60),
    ("embedding-ratio", "k_max", 60), ("disk-apriori", "k_max", 60),
    ("weights-or-check", "c_cap", 3.0), ("weights-or-check", "n_t", 241),
    ("weights-or-check", "n_lambda", 17), ("interp-verify", "dims", [1, 2]),
    ("interp-verify", "grid_t_max", 1e8), ("eta-verify", "n_t", 200),
    ("disk-convergence", "n_theta", 512), ("weights-indices", "weight", {"op": "power", "r": 1.0}),
    *(("interp-verify", key, value) for key, value in INTERP_CASE.items()),
    *(("eta-verify", key, value) for key, value in ETA_CASE.items()),
]


@pytest.mark.parametrize("command,key,value", RETIRED_KEYS,
                         ids=[f"{command}:{key}" for command, key, _ in RETIRED_KEYS])
def test_retired_config_key_rejected(tmp_path, capsys, command, key, value):
    config = json.loads((CONFIGS / f"{command}.json").read_text())
    code, out = _run(tmp_path, command, {**config, key: value})
    assert code == 1
    assert not out.exists()
    assert f"config rejected: {key}: not allowed here" in capsys.readouterr().err


def _outcome(tmp_path, capsys, command, config):
    tmp_path.mkdir()
    code, out = _run(tmp_path, command, config)
    reports = {f: (out / f).read_bytes() if (out / f).exists() else None
               for f in ("report.json", "results.csv")}
    return code, capsys.readouterr().err, reports


@pytest.mark.parametrize("command,slot", sorted(INTEGER_SLOTS),
                         ids=[f"{command}:{slot}" for command, slot in sorted(INTEGER_SLOTS)])
def test_integral_float_in_integer_slot_runs_as_the_integer(tmp_path, capsys, command, slot):
    """``x.0`` in an integer slot gives the exit code, stderr and report bytes of ``x``."""
    config, leaves = INTEGER_SLOTS[command, slot]
    floated = copy.deepcopy(config)
    for path, value in leaves:
        _set(floated, path, float(value))
    assert json.dumps(floated) != json.dumps(config)
    expected = _outcome(tmp_path / "int", capsys, command, config)
    assert expected[2]["report.json"] is not None or expected[0] == 1
    assert _outcome(tmp_path / "float", capsys, command, floated) == expected


def _chain(nodes: int, op: str) -> dict:
    """A weight tree ``nodes`` nodes deep: ``product`` or ``expr_power`` levels over t^1."""
    tree = leaf = {"op": "power", "r": 1.0}
    for _ in range(nodes - 1):
        tree = ({"op": "product", "args": [tree, leaf]} if op == "product"
                else {"op": "expr_power", "inner": tree, "a": 1.0})
    return tree


@pytest.mark.parametrize("op,nodes", [("product", weights.MAX_DEPTH), ("product", weights.MAX_DEPTH + 1),
                                      ("product", 250), ("expr_power", 900)])
def test_weight_tree_nested_past_the_depth_bound_is_refused_by_name(tmp_path, capsys, op, nodes):
    """A tree at the bound runs end to end; a deeper one, which a recursive walk of the tree or
    of the echoed config could not finish, exits 1 before any out dir exists."""
    code, out = _run(tmp_path, "embed-nikolskii", {"weight": _chain(nodes, op), "s": -0.5})
    err = capsys.readouterr().err
    if nodes <= weights.MAX_DEPTH:
        assert code == 0
        assert sorted(p.name for p in out.iterdir()) == ["report.json", "results.csv", "timing.json"]
    else:
        assert code == 1 and not out.exists()
        assert err == f"error: weight JSON is nested deeper than {weights.MAX_DEPTH} nodes\n"


@pytest.mark.parametrize("name,key,value,n", [
    pytest.param("crit5-covariance", "N", 2**1000, 1000, id="crit5-N"),
    pytest.param("crit4a-bounded", "N_list", [64, 2**70], 70, id="crit4a-N_list"),
    pytest.param("disk-solve", "N", 2**70, 70, id="disk-gaussian-bump"),
])
def test_a_grid_size_numpy_cannot_describe_is_refused_by_name(tmp_path, capsys, name, key, value, n):
    """Only sizes whose arrays numpy refuses to describe are run here; a size it can describe
    would be allocated, and a MemoryError there is out of scope."""
    path = CONFIGS / (f"acceptance/{name}.json" if name in ACCEPTANCE else f"{name}.json")
    config = {**json.loads(path.read_text()), key: value}
    if name == "disk-solve":  # the one field spec that builds its grid without a field constructor
        config["g"] = {"kind": "gaussian_bump", "width": 6.0}
    code, out = _run(tmp_path, ACCEPTANCE.get(name, name), config)
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == f"error: N = 2**{n} exceeds N_MAX = 2**26\n"
    spectra._check_size(spectra.N_MAX)
    with pytest.raises(ConstraintError, match="exceeds N_MAX"):
        spectra._check_size(2 * spectra.N_MAX)
