import json
from dataclasses import astuple
from importlib import resources

import pytest
from jsonschema import Draft202012Validator

from gensob import disk, noise
from gensob.cli import build_field, main, validate_config
from gensob.weights import Power, weight_from_json


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
    cfg = {"weight": {"op": "power", "r": 1.0}, "r0": 0.0, "r1": 2.0,
           "n_fields": 5, "field_n": 128, "field_n_2d": 16}
    code, out = _run(tmp_path, "interp-verify", cfg)
    assert code == 0
    assert (out / "results.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["verdicts"]["pass"] is True
    assert report["verdicts"]["max_rel_err"] <= 1e-10
    assert (out / "timing.json").exists()


def test_unknown_config_key_rejected(tmp_path):
    cfg = {"weight": {"op": "power", "r": 1.0}, "r0": 0.0, "r1": 2.0, "bogus": 1}
    code, _ = _run(tmp_path, "interp-verify", cfg)
    assert code == 1


def test_bad_weight_json_rejected(tmp_path):
    cfg = {"weight": {"op": "power"}, "r0": 0.0, "r1": 2.0}
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


def test_weights_or_check_cli(tmp_path):
    cfg = {"weight": {"op": "power", "r": 2.0}, "b": 2.0, "t_max": 1e6}
    code, out = _run(tmp_path, "weights-or-check", cfg)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["rows"][0][1] == pytest.approx(4.0, rel=1e-12)


def test_disk_solve_reports_exact_trace(tmp_path):
    cfg = {
        "f_terms": [[0, 1.0, 0.0]],
        "g": {"kind": "noise", "N": 64, "seed": 5},
        "N": 64,
        "alpha": {"op": "power", "r": 1.0},
        "lambda": 0.0,
    }
    code, out = _run(tmp_path, "disk-solve", cfg)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["rows"][0][4] is True


def test_disk_convergence_cli(tmp_path):
    cfg = {
        "alpha": {"op": "product", "args": [{"op": "power", "r": 1.0},
                                            {"op": "iter_log", "depth": 1, "k": 0.75}]},
        "g": {"kind": "alpha_decay", "N": 256, "extra_exponent": 0.6},
        "K_list": [4, 8, 16, 32],
        "n_r": 64,
        "n_theta": 64,
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


NON_FINITE = "non-finite number"
OVERFLOW = "overflows a double"


@pytest.mark.parametrize("text,wording", [
    *(pytest.param(_nikolskii_text(r=token), NON_FINITE, id=token)
      for token in ("NaN", "Infinity", "-Infinity")),
    pytest.param(_nikolskii_text(r="1e400"), OVERFLOW, id="1e400"),
    pytest.param(_nikolskii_text(r=HUGE_INT), OVERFLOW, id="int-401-digits"),
    pytest.param(_nikolskii_text(r="1" + "0" * 5000), OVERFLOW, id="int-5001-digits"),
    pytest.param(_nikolskii_text(s=HUGE_INT), OVERFLOW, id="s-int-401-digits"),
])
def test_non_finite_config_number_rejected(tmp_path, capsys, text, wording):
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
    assert "cannot read config" in err and wording in err
    assert wording == NON_FINITE or NON_FINITE not in err  # a finite literal is not "non-finite"
    assert len(err.encode()) < 200  # a long literal is cut to a prefix and its length


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("spec", [{"kind": "gaussian_bump", "width": 6.0},
                                  {"kind": "alpha_decay", "N": 32, "extra_exponent": 0.6}])
def test_real_field_specs_give_hermitian_fields(spec, dim):
    field = build_field(spec, dim, 32, alpha=Power(1.0))
    assert field.hermitian
    assert field.to_samples().dtype.kind == "f"


def test_package_schemas_are_valid():
    for name in ("config_schema.json", "weight_expr_schema.json"):
        text = resources.files("gensob").joinpath(f"schemas/{name}").read_text()
        Draft202012Validator.check_schema(json.loads(text))


BAD_WEIGHT = {"op": "power"}
ETA_CASE = {"phi": {"op": "power", "r": -0.5}, "s0": -1.0, "s1": 0.0, "lam": -0.25}
INTERP_CASE = {"weight": {"op": "power", "r": 1.0}, "r0": 0.0, "r1": 2.0}
WEIGHT_SLOTS = {
    "weight": ("embed-nikolskii", {"weight": {"op": "power", "r": -0.7}, "s": -0.5}, ["weight"]),
    "alpha": ("disk-convergence", {"alpha": {"op": "power", "r": 2.0},
                                   "g": {"kind": "mode", "k": [1]}, "K_list": [4]}, ["alpha"]),
    "phi": ("eta-verify", dict(ETA_CASE), ["phi"]),
    "weights[i]": ("weights-indices", {"weights": [{"op": "power", "r": 1.0}] * 2}, ["weights", 1]),
    "cases[i].weight": ("interp-verify", {"cases": [dict(INTERP_CASE), dict(INTERP_CASE)]},
                        ["cases", 1, "weight"]),
    "cases[i].phi": ("eta-verify", {"cases": [dict(ETA_CASE), dict(ETA_CASE)]},
                     ["cases", 1, "phi"]),
}


@pytest.mark.parametrize("slot", sorted(WEIGHT_SLOTS))
def test_malformed_weight_rejected_in_every_slot(tmp_path, slot):
    command, cfg, path = WEIGHT_SLOTS[slot]
    cfg = json.loads(json.dumps(cfg))
    validate_config(command, cfg)  # the well-formed config is accepted
    target = cfg
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = BAD_WEIGHT
    code, out = _run(tmp_path, command, cfg)
    assert code == 1
    assert not out.exists()


@pytest.mark.parametrize("workers", [1, 2])
def test_disk_apriori_cli_rows_equal_library_sweep(tmp_path, workers):
    alpha = {"op": "product", "args": [{"op": "power", "r": 0.0},
                                       {"op": "iter_log", "depth": 1, "k": -0.75}]}
    cfg = {"alpha": alpha, "s": -0.5, "lambda": 0.0, "f_terms": [[0, 1.0, 0.0]],
           "N_list": [64, 128], "n_seeds": 30, "seed_base": 4}
    code, out = _run(tmp_path, "disk-apriori", cfg, extra=("--workers", str(workers)))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    rows, summaries = disk.apriori_sweep(weight_from_json(alpha), 0.0, -0.5, [(0, 1.0)],
                                         [64, 128], 30, seed_base=4)
    assert repr(report["rows"]) == repr([list(astuple(r)) for r in rows])
    assert report["verdicts"]["max_per_N"] == {str(m.n): m.max_ratio for m in summaries}


@pytest.mark.parametrize("workers", [1, 2])
def test_noise_covariance_cli_rows_equal_library_sweep(tmp_path, workers):
    pairs = [{"v1": {"kind": "mode", "k": [3]}, "v2": {"kind": "mode", "k": [3]}},
             {"v1": {"kind": "mode", "k": [2]}, "v2": {"kind": "gaussian_bump", "width": 4.0}}]
    cfg = {"dim": 1, "N": 64, "n_samples": 1010, "seed_base": 3, "pairs": pairs}
    code, out = _run(tmp_path, "noise-covariance", cfg, extra=("--workers", str(workers)))
    assert code in (0, 2)
    report = json.loads((out / "report.json").read_text())
    fields = [(build_field(p["v1"], 1, 64), build_field(p["v2"], 1, 64)) for p in pairs]
    results = noise.covariance_check(1, 64, fields, 1010, seed_base=3)
    rows = [[i, r.empirical.real, r.empirical.imag, r.expected.real, r.expected.imag, r.z_score]
            for i, r in enumerate(results)]
    assert repr(report["rows"]) == repr(rows)
    assert report["verdicts"]["pass"] == all(r.z_score <= 3.0 for r in results)


@pytest.mark.parametrize("workers", [1, 2])
def test_noise_regularity_cli_rows_equal_library_sweep(tmp_path, workers):
    cfg = {"dim": 1, "s": -0.5, "N_list": [64, 128], "n_seeds": 110, "seed_base": 2}
    code, out = _run(tmp_path, "noise-regularity", cfg, extra=("--workers", str(workers)))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    rows = noise.regularity_sweep(1, -0.5, [64, 128], 110, seed_base=2)
    assert repr(report["rows"]) == repr([list(astuple(r)) for r in rows])
