"""Output checks for the benchmark, independent of the package's code.

Every check returns a list of problems; an empty list means the output
passed.  Nothing here imports ``bornlab``: the statistics are recomputed
with a sign-matrix product instead of the package's chained
subtractions, and the diffraction patterns are recomputed point by point
with a pure-Python displaced-sinc sum over an aperture built from the
config's geometry.  Tolerances are set so that a last-ulp change of the
package's kernels, or another reproducible random-stream layout, still
passes, while a changed value in an artifact does not.
"""

from __future__ import annotations

import cmath
import json
import math
from pathlib import Path

import numpy as np

COMBINATIONS = ("0", "A", "B", "C", "AB", "BC", "CA", "ABC")
P_COLUMNS = ("p0", "pA", "pB", "pC", "pAB", "pBC", "pCA", "pABC")
SWEEP_COLUMNS = (
    "position_u", *P_COLUMNS, "iAB", "iBC", "iCA",
    "epsilon", "delta", "rho", "rho_defined",
)
COUNTS_COLUMNS = ("repetition", "combination", "counts", "dwell_s",
                  "timestamp_index", "monitor_counts")

# Inclusion-exclusion signs over p0, pA, pB, pC, pAB, pBC, pCA, pABC.
SIGNS = np.array([
    [1, -1, -1, 0, 1, 0, 0, 0],     # iAB
    [1, 0, -1, -1, 0, 1, 0, 0],     # iBC
    [1, -1, 0, -1, 0, 0, 1, 0],     # iCA
    [-1, 1, 1, 1, -1, -1, -1, 1],   # epsilon
], dtype=float)

#: Rounding allowance on a signed sum, as a share of the sum of its
#: absolute terms (about 45 ulp).
SUM_RTOL = 1e-14
#: Agreement demanded between the artifact and the displaced-sinc oracle.
ORACLE_RTOL = 1e-12
#: Intensities are compared relative to at least this share of the peak,
#: because a value near a diffraction zero carries the rounding of the
#: whole amplitude sum, not of itself.
ORACLE_FLOOR = 1e-3
#: Max |epsilon| a zero-displacement leaky sweep may show (it cancels
#: exactly in exact arithmetic; rounding leaves about 1e-16).
CONTROL_EPS_MAX = 1e-12
#: Grid points compared against the oracle: fixed shares of the grid.
ORACLE_SHARES = tuple(k / 16 for k in range(17)) + (0.49, 0.499, 0.501, 0.51)


# ---------------------------------------------------------------- oracle

def _aperture(cfg: dict, combo: str, displacement: float):
    """(lo, hi, value) pieces of plate x mask, equal neighbours merged."""
    w, d = cfg["slit_width"], cfg["slit_separation"]
    half = cfg["plate_half_width"]
    g_plate = math.sqrt(cfg["plate_leakage"])
    g_mask = math.sqrt(cfg["mask_leakage"])
    fw = cfg["opening_width"]
    centers = dict(zip("ABC", (-d, 0.0, d)))
    opened = set(combo) - {"0"}
    if cfg["mask_scheme"] == "opening":
        marked, inside, outside = opened, 1.0, g_mask
    else:
        marked, inside, outside = set("ABC") - opened, g_mask, 1.0
    features = [(centers[k] + displacement - fw / 2,
                 centers[k] + displacement + fw / 2) for k in sorted(marked)]
    slits = [(c - w / 2, c + w / 2) for c in centers.values()]
    cuts = {-half, half}
    cuts.update(e for s in slits for e in s)
    cuts.update(e for f in features for e in f if -half < e < half)
    cuts = sorted(cuts)
    pieces: list[list[float]] = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        x = 0.5 * (lo + hi)
        plate = 1.0 if any(a <= x < b for a, b in slits) else g_plate
        mask = inside if any(a <= x < b for a, b in features) else outside
        v = plate * mask
        if pieces and pieces[-1][2] == v:
            pieces[-1][1] = hi
        else:
            pieces.append([lo, hi, v])
    return [p for p in pieces if p[2] != 0.0]


def oracle_intensity(pieces, u: float) -> float:
    """|sum over pieces of v w sinc(pi w u) exp(-2 pi i c u)|^2."""
    amp = 0j
    for lo, hi, v in pieces:
        width = hi - lo
        center = 0.5 * (lo + hi)
        x = math.pi * width * u
        s = math.sin(x) / x if x != 0.0 else 1.0
        amp += v * width * s * cmath.exp(-2j * math.pi * center * u)
    return amp.real * amp.real + amp.imag * amp.imag


def check_patterns_oracle(cfg: dict, u: np.ndarray, p: np.ndarray,
                          displacements: dict) -> list[str]:
    """Compare stacked patterns p (8, n) at fixed grid shares to the oracle.

    The patterns are normalized to their grid peak of the all-open
    curve; the oracle takes its scale at the same grid point.
    """
    problems = []
    n = u.size
    pieces = {c: _aperture(cfg, c, displacements[c]) for c in COMBINATIONS}
    i_peak = int(np.argmax(p[7]))
    scale = oracle_intensity(pieces["ABC"], float(u[i_peak]))
    for share in ORACLE_SHARES:
        i = round(share * (n - 1))
        for j, combo in enumerate(COMBINATIONS):
            want = oracle_intensity(pieces[combo], float(u[i])) / scale
            got = float(p[j, i])
            if not abs(got - want) <= ORACLE_RTOL * max(abs(want), ORACLE_FLOOR):
                problems.append(
                    f"p{combo} at u={u[i]!r}: {got!r} differs from oracle {want!r}")
    return problems


# ----------------------------------------------------------- statistics

def check_statistics(p: np.ndarray, i_terms: np.ndarray, eps: np.ndarray,
                     delta: np.ndarray, rho: np.ndarray, defined: np.ndarray,
                     guard: float) -> list[str]:
    """Recompute iAB..rho from the patterns p (8, n) and compare."""
    problems = []
    want = SIGNS @ p
    allow = SUM_RTOL * (np.abs(SIGNS) @ np.abs(p)) + 1e-300
    got = np.vstack([i_terms, eps[None, :]])
    for row, name in enumerate(("iAB", "iBC", "iCA", "epsilon")):
        bad = np.flatnonzero(~(np.abs(got[row] - want[row]) <= allow[row]))
        if bad.size:
            problems.append(f"{name} disagrees with the p columns at "
                            f"{bad.size} points (first index {bad[0]})")
    want_delta = np.abs(i_terms).sum(axis=0)
    bad = np.flatnonzero(~(np.abs(delta - want_delta) <= SUM_RTOL * want_delta))
    if bad.size:
        problems.append(f"delta disagrees at {bad.size} points")
    bad = np.flatnonzero(defined != (delta >= guard))
    if bad.size:
        problems.append(f"rho_defined disagrees with delta >= guard at {bad.size} points")
    ok = defined & (delta >= guard)
    ratio = np.divide(eps, delta, out=np.zeros_like(eps), where=ok)
    bad = np.flatnonzero(ok & ~(np.abs(rho - ratio) <= 4e-16 * np.abs(ratio)))
    if bad.size:
        problems.append(f"rho != epsilon/delta at {bad.size} points")
    bad = np.flatnonzero(~defined & ~np.isnan(rho))
    if bad.size:
        problems.append(f"undefined rho is not nan at {bad.size} points")
    if not np.all(np.isfinite(p)) or np.any(p < 0.0):
        problems.append("patterns must be finite and non-negative")
    return problems


# ------------------------------------------------------------ artifacts

def check_sweep_csv(path: Path, cfg: dict, displacements: dict) -> list[str]:
    """Full check of one CSV sweep table against its config."""
    with open(path, encoding="utf-8") as fh:
        header = tuple(fh.readline().strip().split(","))
        if header != SWEEP_COLUMNS:
            return [f"{path.name}: header {header} is not {SWEEP_COLUMNS}"]
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    n = cfg["u_points"]
    if table.shape[0] != n:
        return [f"{path.name}: {table.shape[0]} rows, config asks for {n}"]
    col = {name: table[:, k] for k, name in enumerate(SWEEP_COLUMNS)}
    problems = []
    grid = np.linspace(cfg["u_min"], cfg["u_max"], n)
    span = max(abs(cfg["u_min"]), abs(cfg["u_max"]))
    if not np.all(np.abs(col["position_u"] - grid) <= 1e-12 * span):
        problems.append("position_u is not the configured grid")
    p = np.vstack([col[c] for c in P_COLUMNS])
    if not np.all(np.isfinite(p)) or abs(np.max(p[7]) - 1.0) > 1e-12:
        problems.append("pABC is not normalized to a grid peak of 1")
    for combo, value in displacements.items():
        if not cfg["displacement_low"] <= value <= cfg["displacement_high"]:
            problems.append(f"displacement of {combo} = {value} outside the sampler range")
    if set(displacements) != set(COMBINATIONS):
        return problems + ["displacements must name all eight combinations"]
    problems += check_statistics(
        p, np.vstack([col["iAB"], col["iBC"], col["iCA"]]), col["epsilon"],
        col["delta"], col["rho"], col["rho_defined"].astype(bool), cfg["guard"])
    problems += check_patterns_oracle(cfg, col["position_u"], p, displacements)
    return [f"{path.name}: {m}" for m in problems]


def _is_count(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x >= 0 and x == int(x)


def _repetition_rho(counts, monitor, dwell: float, guard: float):
    """(delta, rho or None, sum of |rates|) of one repetition."""
    rates = [c / dwell for c in counts]
    if monitor is not None:
        mean = math.fsum(monitor) / len(monitor)
        rates = [r * (mean / m) for r, m in zip(rates, monitor)]
    terms = [[s * r for s, r in zip(row, rates)] for row in SIGNS.tolist()]
    i_ab, i_bc, i_ca, eps = (math.fsum(t) for t in terms)
    delta = abs(i_ab) + abs(i_bc) + abs(i_ca)
    scale = math.fsum(abs(r) for r in rates)
    return delta, (eps / delta if delta >= guard else None), scale


def check_run_json(out: Path, cfg: dict, summary: dict) -> list[str]:
    """JSON counts table, rho series and manifest summary of one ``run``."""
    reps = cfg["repetitions"]
    rows = json.loads((out / "run_counts.json").read_text(encoding="utf-8"))
    if len(rows) != 8 * reps:
        return [f"run_counts: {len(rows)} rows, want {8 * reps}"]
    if any(tuple(sorted(r)) != tuple(sorted(COUNTS_COLUMNS)) for r in rows):
        return [f"run_counts: rows must hold exactly {COUNTS_COLUMNS}"]
    monitored = cfg["monitor_counts"] > 0.0
    problems: list[str] = []
    per_rep: list[dict] = [dict() for _ in range(reps)]
    for r in rows:
        rep = r["repetition"]
        if not (isinstance(rep, int) and 0 <= rep < reps) or r["combination"] in per_rep[rep]:
            problems.append(f"run_counts: bad or repeated row {r}")
            break
        per_rep[rep][r["combination"]] = r
        mon = r["monitor_counts"]
        if (not _is_count(r["counts"]) or r["dwell_s"] != cfg["dwell_time"]
                or (monitored and not _is_count(mon))):
            problems.append(f"run_counts: counts must be non-negative integers: {r}")
            break
    if problems:
        return problems
    series = json.loads((out / "run_rho.json").read_text(encoding="utf-8"))
    if len(series) != reps:
        return [f"run_rho: {len(series)} rows, want {reps}"]
    defined_rho = []
    for rep, (cells, s) in enumerate(zip(per_rep, series)):
        if set(cells) != set(COMBINATIONS):
            return [f"run_counts: repetition {rep} lacks a combination"]
        stamps = sorted(cells[c]["timestamp_index"] for c in COMBINATIONS)
        if stamps != list(range(8 * rep, 8 * rep + 8)):
            return [f"run_counts: repetition {rep} timestamps {stamps}"]
        counts = [cells[c]["counts"] for c in COMBINATIONS]
        monitor = [cells[c]["monitor_counts"] for c in COMBINATIONS] if monitored else None
        if monitor is not None and min(monitor) <= 0.0:
            return [f"run_counts: repetition {rep} has a zero monitor count"]
        delta, rho, scale = _repetition_rho(counts, monitor, cfg["dwell_time"], cfg["guard"])
        got = s["rho"]
        if s["repetition"] != rep or bool(s["rho_defined"]) != (rho is not None):
            return [f"run_rho: repetition {rep} row {s} disagrees with its counts"]
        if rho is None:
            if got is not None and not math.isnan(got):
                return [f"run_rho: repetition {rep} rho should be undefined"]
            continue
        if not abs(got - rho) <= ORACLE_RTOL * abs(rho) + SUM_RTOL * scale / delta:
            return [f"run_rho: repetition {rep} rho {got!r} != {rho!r} from its counts"]
        defined_rho.append(got)
    if summary.get("repetitions") != reps or summary.get("rho_defined_repetitions") != len(defined_rho):
        problems.append("manifest summary repetition counts disagree with the tables")
    mean = math.fsum(defined_rho) / len(defined_rho) if defined_rho else None
    if mean is not None and not abs(summary.get("mean_rho", math.nan) - mean) <= 1e-12 * abs(mean) + 1e-15:
        problems.append(f"manifest mean_rho {summary.get('mean_rho')!r} != {mean!r}")
    return problems


def check_misalignment_mc(cfg: dict, data: dict) -> tuple[int, list[str]]:
    """Per-seed Monte Carlo results; returns (failed seeds, problems).

    ``data`` holds, per seed, ``max_abs_rho`` and ``displacements``
    (seeds x 8); for the sampled seeds also the full sweep; and the
    zero-displacement control's ``control_max_abs_eps``.
    """
    problems = []
    disp = data["displacements"]
    max_rho = data["max_abs_rho"]
    bad = ~np.all((disp >= cfg["displacement_low"]) & (disp <= cfg["displacement_high"]), axis=1)
    bad |= ~(np.isfinite(max_rho) & (max_rho > 0.0))
    if bad.any():
        problems.append(f"{int(bad.sum())} seeds out of range or without a finite nonzero max |rho|")
    for k, index in enumerate(data["sample_index"]):
        p, u = data["sample_patterns"][k], data["sample_u"]
        stats = data["sample_curves"][k]
        found = check_statistics(p, stats[0:3], stats[3], stats[4], stats[5],
                                 stats[6].astype(bool), cfg["guard"])
        found += check_patterns_oracle(cfg, u, p, dict(zip(COMBINATIONS, disp[index])))
        defined = stats[6].astype(bool)
        if defined.any() and np.max(np.abs(stats[5][defined])) != max_rho[index]:
            found.append("reported max |rho| is not the sweep's")
        if found:
            bad[index] = True
            problems += [f"seed index {index}: {m}" for m in found]
    control = float(data["control_max_abs_eps"])
    control_bad = not control <= CONTROL_EPS_MAX
    if control_bad:
        problems.append(f"zero-displacement control: max |epsilon| = {control!r} "
                        f"above {CONTROL_EPS_MAX}")
    return int(bad.sum()) + int(control_bad), problems
