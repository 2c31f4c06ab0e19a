"""Independent oracles used by the test suite.

Everything here recomputes expected values from first principles without
touching the package's own code paths: raw bitmask inclusion-exclusion,
union-merging recursion, Monte Carlo resampling, quadrature, and the
interval-by-interval, piece-scanning and dwell-by-dwell loops that the
package replaced by shared tables, bisection and array arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import repeat

import numpy as np


def raw_probability(psi: complex, alpha: float = 0.0) -> float:
    mag2 = psi.real * psi.real + psi.imag * psi.imag
    return mag2 + alpha * mag2 * np.sqrt(mag2)


def brute_force_interference(amps, alpha: float = 0.0) -> float:
    """Order-k term by explicit bitmask enumeration of all nonempty subsets."""
    amps = list(amps)
    k = len(amps)
    total = 0.0
    for bits in range(1, 2 ** k):
        psi = 0j
        count = 0
        for j in range(k):
            if bits >> j & 1:
                psi += amps[j]
                count += 1
        total += (-1.0) ** (k - count) * raw_probability(psi, alpha)
    return total


def union_recursion_interference(amps, alpha: float = 0.0) -> float:
    """Order-k term via the union-merging recursion.

    ``I(a1, a2, rest...) = I(a1+a2, rest...) - I(a1, rest...) - I(a2, rest...)``
    with the order-1 base case ``I(a) = p(a)``.  An algebraically
    different route from subset enumeration.
    """
    amps = list(amps)
    if len(amps) == 1:
        return raw_probability(amps[0], alpha)
    a1, a2, *rest = amps
    return (
        union_recursion_interference([a1 + a2, *rest], alpha)
        - union_recursion_interference([a1, *rest], alpha)
        - union_recursion_interference([a2, *rest], alpha)
    )


def piecewise_fourier_loop(lo, hi, val, u):
    """Fourier transform of a piecewise-constant function at frequencies u.

    The interval-by-interval loop that ``optics`` replaced by one pass with
    shared sinc and phase tables, kept verbatim as the bitwise reference:
    each interval of width w centered at c contributes
    ``val * w * sinc(pi w u) * exp(-2i pi c u)``.
    """
    out = np.zeros(u.shape, dtype=np.complex128)
    for j in range(lo.size):
        width = hi[j] - lo[j]
        center = 0.5 * (lo[j] + hi[j])
        x = np.pi * width * u
        s = np.ones_like(u)
        nz = x != 0.0
        s[nz] = np.sin(x[nz]) / x[nz]
        out += (val[j] * width) * s * np.exp(-2j * np.pi * center * u)
    return out


def far_field_amplitude_loop(aperture, u):
    """``far_field_amplitude`` on an array grid through the reference loop."""
    u = np.ascontiguousarray(np.atleast_1d(u), dtype=np.float64)
    return piecewise_fourier_loop(aperture.edges[:-1], aperture.edges[1:],
                                  aperture.values, u)


def build_combination_aperture_scan(plate, mask, combination, displacement=None):
    """``optics.build_combination_aperture`` as it was: every cut interval
    looks its plate and mask values up by scanning all plate pieces and
    all features at its midpoint."""
    from bornlab.optics import OPENING, CombinationAperture

    if combination not in mask.features:
        raise ValueError(
            f"mask defines no feature row for combination {combination!r}"
        )
    shift = mask.displacement if displacement is None else displacement
    half = plate.plate_half_width
    g = plate.leakage_amplitude
    plate_edges = [-half]
    plate_values = []
    for c, width in sorted(plate.slits):
        plate_edges.extend([c - width / 2, c + width / 2])
        plate_values.extend([g, 1.0])
    plate_edges.append(half)
    plate_values.append(g)
    feats = [
        (c + shift - w / 2, c + shift + w / 2)
        for c, w in mask.features[combination]
    ]
    if mask.scheme == OPENING:
        base, feat_val = mask.leakage_amplitude, 1.0
    else:
        base, feat_val = 1.0, mask.leakage_amplitude

    cut = np.array(
        sorted(
            set(plate_edges)
            | {e for ab in feats for e in ab if -half < e < half}
        )
    )

    def plate_at(x):
        for (lo, hi), v in zip(zip(plate_edges[:-1], plate_edges[1:]), plate_values):
            if lo <= x < hi:
                return v
        return 0.0

    def mask_at(x):
        for lo, hi in feats:
            if lo <= x < hi:
                return feat_val
        return base

    edges = [cut[0]]
    values = []
    for lo, hi in zip(cut[:-1], cut[1:]):
        mid = 0.5 * (lo + hi)
        v = plate_at(mid) * mask_at(mid)
        if values and v == values[-1]:
            edges[-1] = hi  # coalesce equal neighbors
        else:
            edges.append(hi)
            values.append(v)
    return CombinationAperture(
        np.array(edges), np.array(values), combination
    )


def pattern_set_loop(plate, mask, u, displacements=None):
    """``pattern_set`` as it was: one displaced mask per combination
    (``dataclasses.replace``), the scanning aperture builder, and one
    reference-loop transform each, at every grid point as given."""
    from bornlab.interference import COMBINATIONS

    u = np.ascontiguousarray(np.atleast_1d(u), dtype=np.float64)
    curves = {}
    for combo in COMBINATIONS:
        m = mask
        if displacements is not None and combo in displacements:
            m = replace(mask, displacement=float(displacements[combo]))
        amp = far_field_amplitude_loop(build_combination_aperture_scan(plate, m, combo), u)
        curves[combo] = amp.real * amp.real + amp.imag * amp.imag
    peak = float(np.max(curves["ABC"]))
    for combo in COMBINATIONS:
        curves[combo] = curves[combo] / peak
    return curves


def mc_power_rho_std(pv_array, dp: float, samples: int, seed: int) -> float:
    """Sample std of rho after scaling each of the eight entries by
    independent relative Gaussian noise of size dp."""
    rng = np.random.default_rng(seed)
    rho = np.empty(samples)
    done = 0
    chunk = 200000
    while done < samples:
        n = min(chunk, samples - done)
        p = pv_array[None, :] * (1.0 + dp * rng.standard_normal((n, 8)))
        rho[done:done + n] = _rho_of_rows(p)
        done += n
    return float(np.std(rho, ddof=1))


def mc_poisson_rho_std(counts_array, samples: int, seed: int) -> float:
    """Sample std of rho under Poisson resampling of the eight counts."""
    rng = np.random.default_rng(seed)
    rho = np.empty(samples)
    done = 0
    chunk = 200000
    while done < samples:
        n = min(chunk, samples - done)
        p = rng.poisson(counts_array, size=(n, 8)).astype(float)
        rho[done:done + n] = _rho_of_rows(p)
        done += n
    return float(np.std(rho, ddof=1))


def _rho_of_rows(p: np.ndarray) -> np.ndarray:
    p0, pa, pb, pc, pab, pbc, pca, pabc = p.T
    i_ab = pab - pa - pb + p0
    i_bc = pbc - pb - pc + p0
    i_ca = pca - pc - pa + p0
    eps = pabc - pab - pbc - pca + pa + pb + pc - p0
    delta = np.abs(i_ab) + np.abs(i_bc) + np.abs(i_ca)
    return eps / delta


def single_slit_energy_quadrature(amplitude_fn, width: float, lobes: int = 200) -> float:
    """Integral of |amplitude|^2 over all u for a single slit.

    Gauss-Legendre quadrature lobe by lobe out to ``lobes`` sinc zeros,
    plus the exact analytic tail
    ``int_U^inf w^2 sinc^2(pi w u) du = (w/pi) [pi/2 - Si(2 pi w U) + sin^2(pi w U)/(pi w U)]``.
    """
    from scipy.special import sici

    nodes, weights = np.polynomial.legendre.leggauss(24)
    total = 0.0
    for m in range(lobes):
        a, b = m / width, (m + 1) / width
        u = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        amp = amplitude_fn(u)
        intensity = np.abs(amp) ** 2
        total += 0.5 * (b - a) * np.sum(weights * intensity)
    total *= 2.0  # symmetric in u
    big_u = lobes / width
    s = np.pi * width * big_u
    si_val, _ci = sici(2.0 * s)
    tail = (width / np.pi) * (np.pi / 2.0 - si_val + np.sin(s) ** 2 / s)
    return total + 2.0 * tail


def run_experiment_scalar(base_rates, power, detector, repetitions: int,
                          seed: int = 0, poisson: bool = True, *, block: int):
    """Dwell-by-dwell simulation of ``run_experiment`` with repetition
    blocks of ``block``.

    The per-slot loop that ``run_experiment`` replaced by array
    arithmetic, the detector response inlined on Python floats.  Each
    purpose tag draws from one ``SeedSequence([seed, tag, rep // block])``
    generator per block, one value at a time, in (repetition,
    combination) order.  ``base_rates`` are the eight expected incident
    rates.  Returns ``(counts, timestamps, monitor or None, clamped)``,
    arrays of shape (repetitions, 8) in canonical combination order,
    ``clamped`` the number of power factors clamped to 0.
    """
    def stream(tag, rep):
        return np.random.default_rng(np.random.SeedSequence([seed, tag, rep // block]))

    def response(rate):
        out = rate + detector.dark_rate
        if detector.dead_time > 0.0:
            out = out / (1.0 + out * detector.dead_time)
        if detector.nonlinearity > 0.0:
            out = out * (1.0 - detector.nonlinearity * out / detector.full_scale_rate)
        return out

    dwell = detector.dwell_time
    with_monitor = power.monitor_counts > 0.0
    counts = np.empty((repetitions, 8))
    stamps = np.empty((repetitions, 8), dtype=int)
    monitor = np.empty((repetitions, 8)) if with_monitor else None
    clamped = 0
    for rep in range(repetitions):
        if rep % block == 0:
            order_rng, power_rng, counts_rng, monitor_rng = (
                stream(tag, rep) for tag in (1, 2, 3, 4))
        if power.sequence_order == "randomized":
            order = order_rng.permutation(8).tolist()
        else:
            order = list(range(8))
        for comb in range(8):
            t = rep * 8 + order.index(comb)
            factor = 1.0 + power.linear_drift_rate * (t / 8.0)
            if power.relative_fluctuation > 0.0:
                factor *= 1.0 + power.relative_fluctuation * power_rng.standard_normal()
            clamped += factor < 0.0
            factor = max(factor, 0.0)
            mu = response(factor * float(base_rates[comb])) * dwell
            counts[rep, comb] = counts_rng.poisson(mu) if poisson else mu
            stamps[rep, comb] = t
            if with_monitor:
                mu_mon = factor * power.monitor_counts
                monitor[rep, comb] = monitor_rng.poisson(mu_mon) if poisson else mu_mon
    return counts, stamps, monitor, clamped


def count_rows(run, poisson: bool):
    """Rows of ``run``'s counts table, repetition by repetition.

    The per-repetition conversion that ``cli`` replaced by columns sliced
    from a block of repetitions at a time, kept as the reference for its
    bytes: Poisson counts as integers, expected values as floats, NaN
    monitor counts when the monitor is off.
    """
    count_type = np.int64 if poisson else np.float64
    labels = ("0", "A", "B", "C", "AB", "BC", "CA", "ABC")
    no_monitor = [math.nan] * len(labels)
    for i, counts in enumerate(run.counts):
        monitor = (no_monitor if run.monitor is None
                   else run.monitor[i].astype(count_type).tolist())
        yield from zip(repeat(i), labels, counts.astype(count_type).tolist(),
                       repeat(run.dwell_time), run.timestamps[i].tolist(), monitor)


def rho_per_repetition_scalar(run, guard: float, dead_time_correction: float = 0.0):
    """Repetition-by-repetition ``rho`` and defined flag, on Python floats."""
    rho, defined = [], []
    for i, counts in enumerate(run.counts):
        rates = counts / run.dwell_time
        if run.monitor is not None:
            rates = rates * (np.mean(run.monitor[i]) / run.monitor[i])
        if dead_time_correction > 0.0:
            rates = rates / (1.0 - dead_time_correction * rates)
        p0, pa, pb, pc, pab, pbc, pca, pabc = map(float, rates)
        i_ab = pab - pa - pb + p0
        i_bc = pbc - pb - pc + p0
        i_ca = pca - pc - pa + p0
        eps = pabc - pab - pbc - pca + pa + pb + pc - p0
        delta = abs(i_ab) + abs(i_bc) + abs(i_ca)
        defined.append(delta >= guard)
        rho.append(eps / delta if delta >= guard else float("nan"))
    return np.array(rho), np.array(defined)
