"""Interference-hierarchy arithmetic for multi-path detection probabilities.

An experiment with n mutually exclusive paths yields one detection
probability per subset of open paths.  Classical additivity fails already
for pairs (ordinary interference); this module computes the whole tower of
interference terms order by order, and the background-subtracted order-3
statistics used by triple-slit null tests:

* ``I_A = p_A`` (order 1),
* ``I_AB = p_AB - p_A - p_B`` (order 2),
* ``I_ABC = p_ABC - p_AB - p_BC - p_CA + p_A + p_B + p_C`` (order 3),
* general order k by inclusion-exclusion over the nonempty subsets.

With a measured background ``p_0`` (all paths closed), the order-3 test
statistic and its normalization are

* ``epsilon = p_ABC - p_AB - p_BC - p_CA + p_A + p_B + p_C - p_0``,
* ``I_XY = p_XY - p_X - p_Y + p_0`` for the three pairs,
* ``delta = |I_AB| + |I_BC| + |I_CA|``  (pairwise-interference contrast),
* ``rho = epsilon / delta``.

When probabilities come from squared magnitudes of summed complex
amplitudes, ``epsilon`` vanishes identically; any systematic error then
shows up as a spurious nonzero value.  ``rho`` is reported as *undefined*
whenever ``delta`` falls below a guard threshold instead of dividing by a
vanishing contrast.

Probabilities may be densities, optical powers, or count rates; any common
unit works, ``epsilon``/``delta`` inherit it and ``rho`` is unitless.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Canonical order of the eight three-path combinations.  Every stacked
#: array and every CSV column in the package follows it.
COMBINATIONS = ("0", "A", "B", "C", "AB", "BC", "CA", "ABC")

#: Default guard threshold below which ``rho`` is flagged undefined,
#: in the working probability unit.
DEFAULT_GUARD = 1e-9

#: Bound on the interference order (subset enumeration is O(2^k)).
MAX_ORDER = 8


@dataclass(frozen=True)
class ProbabilityRule:
    """Map from a summed path amplitude to a detection probability.

    ``alpha = 0`` is the quadratic rule ``|psi|**2``; nonzero ``alpha``
    adds a cubic correction ``alpha * |psi|**3``, the lowest-order term
    that breaks the quadratic cancellation of the order-3 statistic.
    Outputs are non-negative whenever ``alpha >= 0``.
    """

    alpha: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite (got {self.alpha})")

    @property
    def is_quadratic(self) -> bool:
        return self.alpha == 0.0

    def probability(self, psi):
        """Probability of the summed amplitude ``psi``, a complex number
        or an array of them (then elementwise)."""
        p = psi.real * psi.real + psi.imag * psi.imag
        if self.alpha == 0.0:
            return p
        return p + self.alpha * p * np.sqrt(p)


#: The quadratic (squared-magnitude) rule.
BORN = ProbabilityRule(0.0)

_PV_FIELDS = ("p0", "pA", "pB", "pC", "pAB", "pBC", "pCA", "pABC")


@dataclass(frozen=True)
class ProbabilityVector:
    """The eight detection probabilities of a three-path experiment.

    Fields follow the canonical combination order; ``p0`` is the
    all-closed (background) measurement.
    """

    p0: float
    pA: float
    pB: float
    pC: float
    pAB: float
    pBC: float
    pCA: float
    pABC: float

    def __post_init__(self):
        for name in _PV_FIELDS:
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite (got {v})")
            if v < 0.0:
                raise ValueError(f"{name} must be >= 0 (got {v})")

    @classmethod
    def from_array(cls, values) -> "ProbabilityVector":
        arr = np.asarray(values, dtype=float)
        if arr.shape != (8,):
            raise ValueError(f"expected 8 probabilities (got shape {arr.shape})")
        return cls(*map(float, arr))

    @property
    def array(self) -> np.ndarray:
        return np.array([getattr(self, f) for f in _PV_FIELDS], dtype=float)


@dataclass(frozen=True)
class SorkinResult:
    """Order-3 statistics of one probability vector.

    ``rho`` is NaN and ``rho_defined`` False exactly when
    ``delta < guard``.  ``s_xy`` is the sign of the corresponding pairwise
    term (one of -1, 0, +1).
    """

    epsilon: float
    delta: float
    rho: float
    rho_defined: bool
    i_ab: float
    i_bc: float
    i_ca: float
    s_ab: int
    s_bc: int
    s_ca: int

    @classmethod
    def from_curves(cls, curves: "SorkinCurves") -> "SorkinResult":
        """Statistics of one-point curves, as Python scalars."""
        i_ab, i_bc, i_ca, eps, delta, rho = (float(c[0]) for c in curves[:6])
        s_ab, s_bc, s_ca = np.sign([i_ab, i_bc, i_ca]).astype(int).tolist()
        return cls(eps, delta, rho, bool(curves.rho_defined[0]),
                   i_ab, i_bc, i_ca, s_ab, s_bc, s_ca)


def interference_terms(rule: ProbabilityRule, amps) -> tuple[np.ndarray, np.ndarray]:
    """Order-k interference terms of n sets of k path amplitudes.

    ``amps`` has shape (n, k).  Inclusion-exclusion over the nonempty
    subsets S of the k paths: ``I_k = sum_S (-1)**(k - |S|) p_S``.
    Order 1 is the single-path probability, order 2 the usual pairwise
    term, order 3 the first term that vanishes under the quadratic rule.
    The subsets are visited by bitmask ``m = 1 .. 2**k - 1`` (bit j set
    when path j is open) and accumulated from zero in that order.

    Returns the n terms and the (n, 2**k - 1) subset probabilities,
    column ``m - 1`` holding subset ``m``.
    """
    a = np.asarray(amps, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"amplitudes must have shape (n, k) (got {a.shape})")
    n, k = a.shape
    if not 1 <= k <= MAX_ORDER:
        raise ValueError(f"interference order must lie in [1, {MAX_ORDER}] (got {k})")
    total = np.zeros(n)
    probs = np.empty((n, 2**k - 1))
    for m in range(1, 2**k):
        members = [a[:, j] for j in range(k) if m >> j & 1]
        # summed one path after another: a reduction over the path axis
        # would sum four or more paths pairwise in a one-row array
        p = rule.probability(functools.reduce(np.add, members))
        total += (-1.0) ** (k - len(members)) * p
        probs[:, m - 1] = p
    return total, probs


def sorkin(pv: ProbabilityVector, guard: float = DEFAULT_GUARD) -> SorkinResult:
    """Full order-3 statistics of one probability vector: the one-point
    case of :func:`sorkin_curves`.

    ``guard`` must be positive; ``rho`` is flagged undefined (NaN) exactly
    when ``delta < guard``, never producing a huge ratio from a vanishing
    pairwise contrast.
    """
    return SorkinResult.from_curves(_statistics(pv.array.reshape(8, 1), guard))


class SorkinCurves(NamedTuple):
    """Pointwise order-3 statistics of eight stacked curves."""

    i_ab: np.ndarray
    i_bc: np.ndarray
    i_ca: np.ndarray
    epsilon: np.ndarray
    delta: np.ndarray
    rho: np.ndarray
    rho_defined: np.ndarray


def _statistics(p: np.ndarray, guard: float) -> SorkinCurves:
    """The statistics kernel: ``p`` is (8, n); ``rho`` is NaN where
    ``delta`` is below ``guard``."""
    if not guard > 0.0:
        raise ValueError(f"guard must be > 0 (got {guard})")
    p0, pa, pb, pc, pab, pbc, pca, pabc = p
    i_ab, i_bc, i_ca = pab - pa - pb + p0, pbc - pb - pc + p0, pca - pc - pa + p0
    eps = pabc - pab - pbc - pca + pa + pb + pc - p0
    delta = np.abs(i_ab) + np.abs(i_bc) + np.abs(i_ca)
    defined = delta >= guard
    rho = np.full(delta.shape, np.nan)
    np.divide(eps, delta, out=rho, where=defined)
    return SorkinCurves(i_ab, i_bc, i_ca, eps, delta, rho, defined)


def sorkin_curves(patterns: np.ndarray, guard: float = DEFAULT_GUARD) -> SorkinCurves:
    """Order-3 statistics of every point of stacked curves.

    ``patterns`` has shape (8, n) in canonical combination order.
    """
    p = np.ascontiguousarray(patterns, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] != 8:
        raise ValueError(f"patterns must have shape (8, n) (got {p.shape})")
    return _statistics(p, guard)
