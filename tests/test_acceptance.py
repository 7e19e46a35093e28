"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v -s`.  Every criterion carries its
stated tolerance and runtime budget; the budgets assume a commodity 8-core
machine.  Criterion 4 is split into its convergent and divergent halves so
the verdict lines stay granular.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gensob import cli, disk, noise, spectra, weights
from gensob.spectra import random_field
from gensob.weights import IterLogPower, OscPower, Power, Product


@contextmanager
def criterion(name, budget_s):
    t0 = time.monotonic()
    try:
        yield
        elapsed = time.monotonic() - t0
        assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds the {budget_s}s budget"
    except BaseException:
        print(f"[FAIL] {name} ({time.monotonic() - t0:.1f}s)")
        raise
    print(f"[PASS] {name} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 1. interpolation-norm exactness on the diagonal model
# ---------------------------------------------------------------------------


def test_criterion_1_interpolation_exactness():
    cases = [
        (Power(1.0), 0.0, 2.0),
        (Power(-0.5), -1.0, 0.0),
        (Product(Power(0.5), IterLogPower(1, 0.8)), 0.0, 1.0),
        (Product(Power(-1.0), IterLogPower(2, -1.2)), -2.0, 0.0),
        (OscPower(0.0, 0.5, 0.5), -1.0, 1.0),
    ]
    with criterion("1 interpolation exactness (5 trees x 100 fields, 1d+2d)", 10.0):
        worst = 0.0
        for alpha, r0, r1 in cases:
            psi = weights.interp_param(alpha, r0, r1)
            for dim, n in ((1, 2**12), (2, 128)):
                for i in range(100):
                    w = random_field(dim, n, seed=9_000 * dim + i)
                    ha = spectra.halpha_norm(w, alpha)
                    ip = spectra.interp_norm(w, r0, r1, psi)
                    worst = max(worst, abs(ip - ha) / ha)
        assert worst <= 1e-10, f"max relative error {worst:.3e}"


# ---------------------------------------------------------------------------
# 2. eta matches its interpolated form
# ---------------------------------------------------------------------------

ETA_TUPLES = [
    # upper index of phi >= -1/2 (scaled-compose branch)
    (Power(-0.5), -1.0, 0.0, -0.25),
    (Power(-0.5), -1.0, 0.0, 0.0),  # degenerate theta = 0 edge
    (Product(Power(-0.5), IterLogPower(1, 0.5)), -1.2, 0.3, -0.3),
    (Power(0.2), -0.4, 1.0, 0.6),
    (Product(Power(-0.5), IterLogPower(1, -0.5)), -2.0, 0.0, -0.4),
    (OscPower(-0.3, 0.2, 0.5), -1.0, 0.5, 0.1),
    # upper index of phi < -1/2 (plain power branch)
    (Power(-1.0), -2.0, -0.6, 0.0),
    (Power(-0.8), -1.5, -0.55, -0.2),
    (Product(Power(-1.0), IterLogPower(1, 0.3)), -2.5, -0.7, 0.4),
    (OscPower(-2.0, 0.5, 1.0), -3.5, -0.9, 0.0),
]


def test_criterion_2_eta_identity():
    ts = np.geomspace(1.0, 1e8, 240)
    with criterion("2 eta identity on both branches (10 tuples, 2q in {2,4})", 1.0):
        worst = 0.0
        branches = set()
        for phi, s0, s1, lam in ETA_TUPLES:
            eta, theta = weights.eta_construct(phi, s0, s1, lam)
            branches.add(theta is None)
            vals = eta.eval(ts)
            for shift in (2.0, 4.0):
                psi = weights.interp_param(Product(phi, Power(shift)), s0 + shift, s1 + shift)
                ref = ts**lam * psi.eval(ts ** (s1 - lam))
                worst = max(worst, float(np.max(np.abs(vals - ref) / vals)))
        assert branches == {True, False}, "tuples must span both branches"
        assert worst <= 1e-12, f"max relative error {worst:.3e}"


# ---------------------------------------------------------------------------
# 3. index closed forms and window estimates
# ---------------------------------------------------------------------------


def test_criterion_3_index_closed_forms():
    with criterion("3 index closed forms exact, window estimates within 0.05", 5.0):
        # power-log family: indices equal the power exponent, exactly
        a = Product(Power(0.75), Product(IterLogPower(1, -2.0), IterLogPower(2, 0.5)))
        assert a.symbolic_indices() == (0.75, 0.75)
        assert Product(Power(-1.3), IterLogPower(1, 2.0)).symbolic_indices() == (-1.3, -1.3)
        # oscillating family, both closed forms
        theta, delta = 0.3, 0.8
        assert OscPower(theta, delta, 0.5).symbolic_indices() == (theta - delta, theta + delta)
        root2 = math.sqrt(2.0)
        assert OscPower(theta, delta, 1.0).symbolic_indices() == (
            theta - root2 * delta,
            theta + root2 * delta,
        )
        # window estimator agreement on power-log trees
        for tree in [
            Product(Power(1.5), IterLogPower(1, 1.0)),
            Product(Power(-0.7), IterLogPower(1, -1.0)),
            Power(2.0),
            Product(Power(0.25), IterLogPower(2, 0.5)),
            Product(Power(-1.25), IterLogPower(1, 0.75)),
        ]:
            est = weights.indices(tree, window=(1e9, 1e12), lambda_max=16.0)
            assert abs(est.sigma0_win - est.sigma0_sym) <= 0.05, tree
            assert abs(est.sigma1_win - est.sigma1_sym) <= 0.05, tree


# ---------------------------------------------------------------------------
# 4. embedding dichotomy on extremal fields
# ---------------------------------------------------------------------------

N_LIST_4 = [2**j for j in range(6, 15)]


def test_criterion_4a_embedding_bounded():
    s = -0.5
    alpha = Product(Power(s), IterLogPower(1, -1.0))  # log exponent -eps-1/2, eps=0.5
    with criterion("4a embedding bounded: R(N)^2 <= 1.1c up to N=2^14", 30.0):
        sweep = spectra.embedding_ratio_sweep(alpha, s, N_LIST_4)
        assert sweep.embedding.converges
        c = sweep.embedding.constant
        r2 = sweep.ratios**2
        assert np.all(r2 <= 1.1 * c), f"max R^2 {r2.max():.4f} vs 1.1c = {1.1 * c:.4f}"


def _extremal_r2_oracle(alpha_sq, s, n):
    """R(N)^2 of the block-flat extremal field, summed over the lattice [-N/2, N/2).

    Block j (Q_0: |k| <= 1, Q_j: 2^(j-1) < |k| <= 2^j) carries energy 4^(-s j)
    spread evenly over its lattice points, and the field's dyadic-sup norm is
    1, so R(N)^2 = sum_j 4^(-s j) * mean_{k in Q_j} alpha(chi_k)^2.
    """
    block_terms = {}
    for k in range(-n // 2, n // 2):
        j = max(abs(k) - 1, 0).bit_length()
        block_terms.setdefault(j, []).append(alpha_sq(math.sqrt(1.0 + k * k)))
    return math.fsum(4.0 ** (-s * j) * math.fsum(v) / len(v) for j, v in block_terms.items())


def test_criterion_4b_embedding_divergent_growth():
    s = -0.5
    alpha = Product(Power(s), IterLogPower(1, -0.5))  # eps = 0: divergent case

    def alpha_sq(x):  # closed form: x^-1 (ln x)^-1, the log factor glued to 1 below e
        return 1.0 / (x * max(math.log(x), 1.0))

    def x_top(i):  # largest chi in block Q_i
        return math.sqrt(1.0 + 4.0**i)

    # Per-octave divergence floor (notes/decisions.md, "Criterion 4b"): going
    # from N = 2^(j-1) to 2^j raises R^2 by at least b_j = 2^j alpha(X_j)^2,
    # X_j = sqrt(1 + 4^j).  b_j ~ 1/(j ln 2), so sum b_j diverges like
    # the integral of dt/(t ln t); a summable weight falls short of it.
    j = np.array([n.bit_length() - 1 for n in N_LIST_4[1:]])
    b = np.array([2.0**i * alpha_sq(x_top(i)) for i in j])
    # The derivation's last step: the new block Q_(j-1) adds at least
    # 2^(j-1) alpha(X_(j-1))^2, and completing the partial top block Q_(j-2)
    # (k = +2^(j-2) joins it) costs at most alpha(chi_min)^2 - alpha(X_(j-2))^2,
    # chi_min = sqrt(1 + (2^(j-3) + 1)^2).  That net floor must dominate b_j.
    floor = np.array([
        2.0 ** (i - 1) * alpha_sq(x_top(i - 1))
        - alpha_sq(math.sqrt(1.0 + (2 ** (i - 3) + 1) ** 2))
        + alpha_sq(x_top(i - 2))
        for i in j
    ])
    assert np.all(floor >= b), "b_j is not implied by the block decomposition"

    with criterion("4b embedding divergent: R strictly increasing, "
                   "R^2 gains >= 2^j/(X_j ln X_j) per octave", 30.0):
        sweep = spectra.embedding_ratio_sweep(alpha, s, N_LIST_4)
        assert not sweep.embedding.converges
        r2 = sweep.ratios**2
        oracle = np.array([_extremal_r2_oracle(alpha_sq, s, n) for n in N_LIST_4])
        rel_err = np.max(np.abs(r2 - oracle) / oracle)
        assert rel_err <= 1e-12, f"R(N)^2 off the block-sum oracle by {rel_err:.2e}"
        assert np.all(np.diff(sweep.ratios) > 0.0), "R(N) must increase strictly"
        gains = np.diff(r2)
        assert np.all(gains >= b), f"R^2 gains {np.round(gains, 4)} vs floor {np.round(b, 4)}"
        # Summed over the octaves: R(2^14)/R(2^6) >= sqrt(1 + sum b_j / R(2^6)^2).
        growth = sweep.ratios[-1] / sweep.ratios[0]
        growth_floor = math.sqrt(1.0 + b.sum() / oracle[0])
        assert growth >= growth_floor, (
            f"R(2^14)/R(2^6) = {growth:.3f} < closed-form floor {growth_floor:.3f}"
        )


# ---------------------------------------------------------------------------
# 5. white-noise covariance
# ---------------------------------------------------------------------------


def test_criterion_5_covariance():
    with criterion("5 white-noise covariance within 3 sigma (3 pairs, 1e4 samples)", 60.0):
        n = 2**10
        e3 = spectra.field_from_modes(1, n, {3: 1.0})
        e2 = spectra.field_from_modes(1, n, {2: 1.0})
        e5 = spectra.field_from_modes(1, n, {5: 1.0})
        k = spectra.freq_1d(n).astype(float)
        bump = spectra.SpectralField(np.exp(-(k**2) / 72.0).astype(np.complex128))
        pairs = [(e3, e3), (e2, e5), (bump, bump)]
        for (v1, v2), res in zip(pairs, noise.covariance_check(pairs, 10_000)):
            assert res.z_score <= 3.0, f"z = {res.z_score:.2f}"
            assert res.expected == noise.inner(v1, v2)


# ---------------------------------------------------------------------------
# 6. dyadic-sup regularity dichotomy
# ---------------------------------------------------------------------------


def test_criterion_6_regularity_dichotomy():
    with criterion("6 noise regularity: stable at -dim/2, sharp growth above", 300.0):
        ns = [2**j for j in range(8, 15)]
        rows = noise.regularity_sweep(1, -0.5, ns, 200)
        meds = [r.median for r in rows]
        assert max(meds) / min(meds) < 2.0, f"medians vary {max(meds)/min(meds):.2f}x"

        rows = noise.regularity_sweep(1, -0.4, ns, 200)
        meds = [r.median for r in rows]
        energy_ratio = (meds[-1] / meds[0]) ** 2
        target = 2.0 ** (6 * 0.2)
        assert abs(energy_ratio / target - 1.0) <= 0.3, (
            f"median energy ratio {energy_ratio:.3f} vs target {target:.3f}"
        )

        rows = noise.regularity_sweep(2, -1.0, [2**j for j in range(5, 9)], 200)
        meds = [r.median for r in rows]
        assert max(meds) / min(meds) < 2.0, f"2d medians vary {max(meds)/min(meds):.2f}x"


# ---------------------------------------------------------------------------
# 7. a-priori boundedness on the disk
# ---------------------------------------------------------------------------


def test_criterion_7_apriori_boundedness():
    with criterion("7 a-priori ratio bounded over N, bad weights rejected", 180.0):
        alpha = Product(Power(0.0), IterLogPower(1, -0.75))
        ns = [2**j for j in range(8, 13)]
        rows, max_ratio = disk.apriori_sweep(alpha, 0.0, -0.5, [(0, 1.0)], ns, 200)
        max_first = max_ratio[ns[0]]
        max_last = max_ratio[ns[-1]]
        assert max_last <= 1.5 * max_first, f"{max_last:.3f} > 1.5 * {max_first:.3f}"
        with pytest.raises(disk.PreconditionError, match="dt/t"):
            disk.apriori_sweep(
                Product(Power(0.0), IterLogPower(1, -0.5)), 0.0, -0.5, [(0, 1.0)], [256], 5
            )


# ---------------------------------------------------------------------------
# 8. uniform convergence of truncated extensions
# ---------------------------------------------------------------------------


def test_criterion_8_uniform_convergence():
    with criterion("8 sup error under the tail bound, 1e-3 decay by K=512", 30.0):
        alpha = Product(Power(1.0), IterLogPower(1, 0.75))
        n = 2**10
        chi = spectra.chi_grid(1, n)
        mags = np.exp(-alpha.log_value(np.log(chi))) * chi ** (-0.5 - 0.6)
        g = spectra.SpectralField(mags.astype(np.complex128))
        k_list = [4 * 2**i for i in range(8)]  # 4..512
        rows = disk.uniform_convergence_experiment(alpha, g, k_list)
        for row in rows:
            assert row.sup_error <= row.bound, f"K={row.k}: E={row.sup_error} > T={row.bound}"
        e4 = rows[0].sup_error
        e512 = rows[-1].sup_error
        assert e512 <= 1e-3 * e4, f"E(512)/E(4) = {e512 / e4:.2e}"
        with pytest.raises(disk.PreconditionError, match="diverges"):
            disk.uniform_convergence_experiment(Power(1.0), g, [4])


# ---------------------------------------------------------------------------
# 9. schedule-independent reports
# ---------------------------------------------------------------------------


def test_criterion_9_reports_deterministic_across_workers(tmp_path):
    with criterion("9 byte-identical reports for --workers 1 and 8", 120.0):
        configs = {
            "noise-regularity": {
                "dim": 1, "s": -0.5, "N_list": [256, 512, 1024], "n_seeds": 200,
                "seed_base": 0,
            },
            "disk-apriori": {
                "alpha": {"op": "product", "args": [
                    {"op": "power", "r": 0.0},
                    {"op": "iter_log", "depth": 1, "k": -0.75},
                ]},
                "s": -0.5, "lambda": 0.0, "f_terms": [[0, 1.0, 0.0]],
                "N_list": [256, 512], "n_seeds": 100, "seed_base": 0,
            },
            "noise-covariance": {
                "dim": 1, "N": 64, "n_samples": 1000, "seed_base": 0, "pairs": [
                    {"v1": {"kind": "mode", "k": [3]}, "v2": {"kind": "mode", "k": [3]}},
                    {"v1": {"kind": "mode", "k": [2]},
                     "v2": {"kind": "gaussian_bump", "width": 4.0}},
                ],
            },
        }
        for command, cfg in configs.items():
            cfg_path = tmp_path / f"{command}.json"
            cfg_path.write_text(json.dumps(cfg))
            outs = {}
            for workers in (1, 8):
                out = tmp_path / f"{command}-w{workers}"
                code = cli.main([command, "--config", str(cfg_path), "--out", str(out),
                                 "--workers", str(workers)])
                assert code == 0
                outs[workers] = out
            for name in ("results.csv", "report.json"):
                b1 = (outs[1] / name).read_bytes()
                b8 = (outs[8] / name).read_bytes()
                assert b1 == b8, f"{command}/{name} differs between worker counts"
