"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bornlab
from bornlab.experiment import estimate_rho_series, run_experiment
from bornlab.interference import (
    BORN,
    ProbabilityRule,
    SorkinCurves,
    interference_terms,
    sorkin_curves,
)
from bornlab.optics import (
    BLOCKING,
    combination_mask_for_plate,
    pattern_set,
    triple_slit_plate,
)
from bornlab.systematics import (
    DetectorModel,
    PowerModel,
    detector_response,
    misalignment_rho_sweep,
    poisson_sigma_curves,
    power_sigma_curves,
    rho_sweep,
    uniform_displacement_sampler,
)
from conftest import combination_probabilities
from oracles import (
    brute_force_interference,
    mc_poisson_rho_std,
    mc_power_rho_std,
)

REPO = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "data" / "mask_sweep_regression.json"


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} - {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def run_cli(args, cwd=None):
    # the package's own source, whichever directory the command runs in
    src = str(Path(bornlab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "bornlab", *args],
        capture_output=True, text=True, cwd=cwd, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def pair_terms(curves):
    """The three pairwise terms of one-point curves."""
    return np.array([curves.i_ab[0], curves.i_bc[0], curves.i_ca[0]])


def near_null_vectors(count, rng, alpha=1e-3, background=0.05):
    """Random near-null (8, 1) vectors with well-separated pairwise terms,
    each with its curves."""
    out = []
    while len(out) < count:
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        p = combination_probabilities(ProbabilityRule(alpha), z, background)
        curves = sorkin_curves(p)
        if not curves.rho_defined[0] or abs(curves.rho[0]) > 5e-3:
            continue
        if np.abs(pair_terms(curves)).min() < 0.05 * curves.delta[0]:
            continue
        out.append((p, curves))
    return out


def test_criterion_01_born_nullity():
    rng = np.random.default_rng(101)
    z = rng.standard_normal((10000, 3)) + 1j * rng.standard_normal((10000, 3))
    t0 = time.perf_counter()
    p = combination_probabilities(BORN, z)
    worst = float(np.max(np.abs(sorkin_curves(p).epsilon) / np.maximum(1.0, p[7])))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, "Born nullity over 1e4 random triples", ok,
           f"max |epsilon|/scale = {worst:.3e} (<= 1e-12), "
           f"runtime {elapsed:.3f} s (< 1 s)")


def test_criterion_02_hierarchy_orders():
    rng = np.random.default_rng(202)
    worst = {}
    for k in (3, 4, 5):
        z = rng.standard_normal((300, k)) + 1j * rng.standard_normal((300, k))
        w = 0.0
        for term, row in zip(interference_terms(BORN, z)[0], z):
            oracle = brute_force_interference(row)
            scale = max(1.0, abs(row.sum()) ** 2)
            w = max(w, abs(term) / scale, abs(term - oracle) / scale)
        worst[k] = w
    pair = float(interference_terms(BORN, [[1, 1]])[0][0])
    ok = all(w <= 1e-12 for w in worst.values()) and pair == 2.0
    report(2, "hierarchy nullity orders 3/4/5 + order-2 activation", ok,
           f"max relative |I_k| and oracle gap = "
           f"{max(worst.values()):.3e} (<= 1e-12), I_AB(1,1) = {pair}")


def test_criterion_03_background_cancellation_exact():
    # dyadic-representable inputs: the cancellation is exact in floats
    rng = np.random.default_rng(303)
    worst = 0.0
    cases = 0
    ints = rng.integers(-8, 9, size=(200, 3, 2))
    p = combination_probabilities(BORN, ints[..., 0] + 1j * ints[..., 1])
    r0 = sorkin_curves(p)
    for b in (0.5, 0.125, 3.25, 10.0, 2.0**-20):
        r1 = sorkin_curves(p + b)
        for attr in ("epsilon", "delta", "i_ab", "i_bc", "i_ca"):
            worst = max(worst, float(np.max(np.abs(getattr(r1, attr) - getattr(r0, attr)))))
        cases += p.shape[1]
    ok = worst == 0.0
    report(3, "background cancellation", ok,
           f"max change of epsilon/delta/I_XY over {cases} shifted vectors "
           f"= {worst} (exact 0)")


def test_criterion_04_power_sigma_monte_carlo():
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    vectors = near_null_vectors(20, rng)
    sign_patterns = {tuple(np.sign(pair_terms(c)).astype(int)) for _, c in vectors}
    worst = 0.0
    for i, (p, curves) in enumerate(vectors):
        pred = 1e-3 * power_sigma_curves(p, curves)[0]
        mc = mc_power_rho_std(p[:, 0], 1e-3, samples=1_000_000, seed=1000 + i)
        worst = max(worst, abs(pred - mc) / mc)
    elapsed = time.perf_counter() - t0
    mixed = len(sign_patterns) >= 3 and any(
        -1 in p for p in sign_patterns
    ) and any(1 in p for p in sign_patterns)
    ok = worst <= 0.02 and elapsed < 60.0 and mixed
    report(4, "power-fluctuation propagation vs 1e6-sample MC", ok,
           f"worst relative gap over 20 vectors = {worst:.4f} (<= 0.02), "
           f"{len(sign_patterns)} sign patterns, runtime {elapsed:.1f} s (< 60 s)")


def test_criterion_05_poisson_sigma_monte_carlo():
    rng = np.random.default_rng(505)
    worst = 0.0
    checked = 0
    i = 0
    while checked < 20:
        i += 1
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        p = combination_probabilities(ProbabilityRule(1e-3), z, 0.05)
        counts = np.round(p * (1e5 / p[7, 0]))
        curves = sorkin_curves(counts)
        if not curves.rho_defined[0] or abs(curves.rho[0]) > 5e-3:
            continue
        noise = math.sqrt(float(np.max(counts)))
        if np.abs(pair_terms(curves)).min() < 30 * noise:
            continue
        pred = poisson_sigma_curves(counts, curves)[0]
        mc = mc_poisson_rho_std(counts[:, 0], samples=100_000, seed=2000 + i)
        worst = max(worst, abs(pred - mc) / mc)
        checked += 1
    # all-equal closed form
    n = 1e5
    # i_ab, i_bc, i_ca, epsilon, delta, rho, rho_defined
    flat = SorkinCurves(*(np.array([v]) for v in (n / 3, n / 3, n / 3, 0.0, n, 0.0, True)))
    closed = poisson_sigma_curves(np.full((8, 1), n), flat)[0]
    closed_ok = closed == pytest.approx(math.sqrt(8 / n), rel=1e-12)
    ok = worst <= 0.03 and closed_ok
    report(5, "Poisson-counting propagation vs resampling MC", ok,
           f"worst relative gap over 20 vectors = {worst:.4f} (<= 0.03), "
           f"all-equal case sqrt(8/N) exact: {closed_ok}")


def test_criterion_06_dead_time_figures():
    deficit = 1.0 - detector_response(DetectorModel(dead_time=50e-9), 80000.0) / 80000.0
    deficit_ok = abs(deficit - 0.004 / 1.004) < 1e-9
    plate = triple_slit_plate()
    mask = combination_mask_for_plate(plate)
    u = np.linspace(-3e4, 3e4, 601)
    sweep = rho_sweep(
        plate, mask, u, detector=DetectorModel(dead_time=50e-9),
        peak_rate=80000.0, dynamic_range=100.0,
    )
    center = int(np.argmin(np.abs(u)))
    rho0 = abs(float(sweep.curves.rho[center]))
    band_ok = 0.0015 <= rho0 <= 0.006
    ok = deficit_ok and band_ok
    report(6, "dead-time linearity deficit and apparent rho", ok,
           f"deficit at 80 kcps = {deficit * 100:.4f}% (0.398%), "
           f"|rho| at center = {rho0:.5f} (in [0.0015, 0.006])")


def test_criterion_07_nonlinearity_band():
    plate = triple_slit_plate()
    mask = combination_mask_for_plate(plate)
    u = np.linspace(-3e4, 3e4, 601)
    sweep = rho_sweep(
        plate, mask, u,
        detector=DetectorModel(nonlinearity=0.01, full_scale_rate=80000.0),
        peak_rate=80000.0, dynamic_range=100.0,
    )
    d = sweep.curves.rho_defined
    max_rho = float(np.max(np.abs(sweep.curves.rho[d])))
    ok = 0.002 <= max_rho <= 0.02
    report(7, "1% nonlinearity with dynamic range 100", ok,
           f"max |rho| = {max_rho:.5f} (in [0.002, 0.02])")


def test_criterion_08_leakage_only_null():
    g = math.sqrt(0.05)
    plate = triple_slit_plate(leakage_amplitude=g)
    mask = combination_mask_for_plate(plate, BLOCKING, leakage_amplitude=g)
    u = np.linspace(-3e4, 3e4, 1000)
    stacked = pattern_set(plate, mask, u)
    curves = sorkin_curves(stacked)
    all_defined = bool(np.all(curves.rho_defined))
    max_rho = float(np.max(np.abs(curves.rho[curves.rho_defined])))
    ok = all_defined and max_rho <= 1e-10
    report(8, "5% leakage with zero displacement stays null", ok,
           f"1000 grid points, max |rho| = {max_rho:.3e} (<= 1e-10)")


def test_criterion_09_misalignment_activation(tmp_path):
    cfg = REPO / "configs" / "leaky_mask_sweep.cfg"
    outputs = {}
    for tag in ("first", "rerun"):
        out = tmp_path / tag
        run_cli(["--config", str(cfg), "--out", str(out), "sweep-mask"])
        outputs[tag] = (
            (out / "mask_sweep.csv").read_bytes(),
            (out / "manifest.json").read_bytes(),
        )
    identical = outputs["rerun"] == outputs["first"]

    manifest = json.loads(outputs["first"][1].decode())
    max_rho = manifest["summary"]["max_abs_rho"]
    nonzero = max_rho is not None and max_rho > 1e-6

    # frozen-value regression at sampled grid points
    fix = json.loads(FIXTURE.read_text())
    from bornlab.config import build_objects, load_config

    rc = load_config(cfg)
    plate, mask, _, _ = build_objects(rc)
    u = np.linspace(rc.u_min, rc.u_max, rc.u_points)
    sweep, _ = misalignment_rho_sweep(
        plate, mask,
        uniform_displacement_sampler(rc.displacement_low, rc.displacement_high),
        u, seed=rc.seed, guard=rc.guard,
    )
    regression_ok = True
    for uf, rf in zip(fix["u"], fix["rho"]):
        i = int(np.argmin(np.abs(u - uf)))
        if rf is None:
            regression_ok &= not sweep.curves.rho_defined[i]
        else:
            regression_ok &= bool(
                np.isclose(sweep.curves.rho[i], rf, rtol=1e-9, atol=1e-12)
            )
    ok = identical and nonzero and regression_ok
    report(9, "misalignment sweep activates and reproduces", ok,
           f"max |rho| = {max_rho:.4f} (nonzero), byte-identical across "
           f"reruns: {identical}, frozen-value regression: "
           f"{regression_ok}")


def test_criterion_10_series_statistics():
    plate = triple_slit_plate()
    mask = combination_mask_for_plate(plate)
    det = DetectorModel(dwell_time=1.0)
    power = PowerModel(mean_power=9e5)

    series100 = estimate_rho_series(
        run_experiment(plate, mask, power, det, 0.0, 100, seed=10)
    )
    null_ok = abs(series100.mean) <= 3 * series100.sem

    sems = {}
    for n in (100, 1000, 10000):
        s = estimate_rho_series(
            run_experiment(plate, mask, power, det, 0.0, n, seed=11)
        )
        sems[n] = s.sem
    r1 = sems[1000] / sems[100]
    r2 = sems[10000] / sems[1000]
    scaling_ok = 0.22 <= r1 <= 0.45 and 0.22 <= r2 <= 0.45

    # the measured offset of real hardware is reproduced qualitatively
    # only, by switching its documented systematics on; not asserted
    drifty = PowerModel(mean_power=80000.0, linear_drift_rate=1e-4)
    biased_det = DetectorModel(dead_time=50e-9, dwell_time=1.0)
    biased = estimate_rho_series(
        run_experiment(plate, mask, drifty, biased_det, 500.0, 100, seed=12)
    )
    ok = null_ok and scaling_ok
    report(10, "repetition statistics", ok,
           f"Poisson-only mean = {series100.mean:+.2e} within 3 SEM "
           f"({series100.sem:.2e}); SEM ratios per decade {r1:.3f}, {r2:.3f} "
           f"(expect ~0.316); systematics-on mean = {biased.mean:+.2e} "
           "(qualitative only, not asserted)")


def test_criterion_11_cli_rerun_determinism(tmp_path):
    base = (
        "u_points = 301\n"
        "repetitions = 20\n"
        "dwell_time = 1.0\n"
        "mean_power = 200000\n"
        "displacement_high = 10e-6\n"
    )
    sweep_cfg = tmp_path / "sweep.cfg"
    sweep_cfg.write_text(base + "dead_time = 50e-9\n", encoding="utf-8")
    mask_cfg = tmp_path / "mask.cfg"
    mask_cfg.write_text(
        base + "mask_scheme = blocking\nplate_leakage = 0.05\n"
        "mask_leakage = 0.05\n",
        encoding="utf-8",
    )
    jobs = {
        "run": (sweep_cfg, ("run_counts.csv", "run_rho.csv", "manifest.json")),
        "sweep-mask": (mask_cfg, ("mask_sweep.csv", "manifest.json")),
        "sweep-detector": (sweep_cfg, ("detector_sweep.csv", "manifest.json")),
    }
    identical = True
    for command, (cfg, files) in jobs.items():
        blobs = []
        for tag in ("first", "again"):
            out = tmp_path / f"{command}-{tag}"
            run_cli(["--config", str(cfg), "--out", str(out), command])
            blobs.append(tuple((out / f).read_bytes() for f in files))
        identical &= blobs[1] == blobs[0]
    report(11, "byte-identical artifacts across reruns", identical,
           "run, sweep-mask, sweep-detector compared over reruns")
