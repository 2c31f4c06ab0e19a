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
from typing import Iterable, NamedTuple, Sequence

import numpy as np

#: Path labels, in order; at most eight paths are supported.
PATH_LABELS = "ABCDEFGH"

#: Canonical order of the eight three-path combinations.  Every stacked
#: array and every CSV column in the package follows it.
COMBINATIONS = ("0", "A", "B", "C", "AB", "BC", "CA", "ABC")

#: Default guard threshold below which ``rho`` is flagged undefined,
#: in the working probability unit.
DEFAULT_GUARD = 1e-9

#: Bound on the interference order (subset enumeration is O(2^k)).
MAX_ORDER = 8


def _check_finite_complex(z: complex, what: str) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{what} must be finite (got {z!r})")
    return z


@dataclass(frozen=True)
class PathAmplitudes:
    """Complex amplitude per path, labeled ``A, B, C, ...`` in order."""

    amplitudes: tuple[complex, ...]

    def __init__(self, amplitudes: Iterable[complex]):
        amps = tuple(
            _check_finite_complex(a, "path amplitude") for a in amplitudes
        )
        if not 2 <= len(amps) <= len(PATH_LABELS):
            raise ValueError(
                f"need between 2 and {len(PATH_LABELS)} path amplitudes "
                f"(got {len(amps)})"
            )
        object.__setattr__(self, "amplitudes", amps)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(PATH_LABELS[: len(self.amplitudes)])

    def amplitude(self, label: str) -> complex:
        try:
            idx = self.labels.index(label)
        except ValueError:
            raise ValueError(
                f"unknown path label {label!r}; have {''.join(self.labels)}"
            ) from None
        return self.amplitudes[idx]


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

    @classmethod
    def from_rule(
        cls,
        rule: ProbabilityRule,
        amps: PathAmplitudes,
        background: float = 0.0,
    ) -> "ProbabilityVector":
        """Probabilities of all eight combinations of a 3-path system,
        plus a constant additive background on every entry."""
        if len(amps.amplitudes) != 3:
            raise ValueError("from_rule needs exactly 3 path amplitudes")
        if background < 0.0 or not math.isfinite(background):
            raise ValueError(f"background must be finite and >= 0 (got {background})")
        values = [
            rule_probability(rule, amps, combo if combo != "0" else "")
            + background
            for combo in COMBINATIONS
        ]
        return cls(*values)

    @property
    def array(self) -> np.ndarray:
        return np.array([getattr(self, f) for f in _PV_FIELDS], dtype=float)

    def __add__(self, other: "ProbabilityVector") -> "ProbabilityVector":
        if not isinstance(other, ProbabilityVector):
            return NotImplemented
        return ProbabilityVector.from_array(self.array + other.array)

    def shifted(self, background: float) -> "ProbabilityVector":
        """Add the same constant to all eight entries."""
        return ProbabilityVector.from_array(self.array + background)


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


def rule_probability(
    rule: ProbabilityRule, amps: PathAmplitudes, subset: Iterable[str]
) -> float:
    """Probability of detecting with exactly the given paths open.

    The subset's amplitudes are summed coherently and the rule applied to
    the sum; the empty subset gives ``rule(0) = 0``.
    """
    labels = list(subset)
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate path labels in subset {labels!r}")
    total = 0j
    for lab in labels:
        total += amps.amplitude(lab)
    return float(rule.probability(total))


def _check_order(k: int) -> None:
    if k < 1:
        raise ValueError("need at least one path")
    if k > MAX_ORDER:
        raise ValueError(f"interference order limited to {MAX_ORDER} (got {k})")


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
    _check_order(k)
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


def interference_term(
    rule: ProbabilityRule, amps: PathAmplitudes, paths: Sequence[str]
) -> float:
    """Order-k interference term of the given paths: the one-set case of
    :func:`interference_terms`."""
    _check_order(len(paths))
    if len(set(paths)) != len(paths):
        raise ValueError(f"duplicate path labels in {tuple(paths)!r}")
    row = np.array([[amps.amplitude(lab) for lab in paths]], dtype=np.complex128)
    return float(interference_terms(rule, row)[0][0])


def epsilon(pv: ProbabilityVector) -> float:
    """Background-subtracted order-3 interference term: the arithmetic of
    :func:`sorkin_curves` on the vector's eight floats."""
    fields = (pv.p0, pv.pA, pv.pB, pv.pC, pv.pAB, pv.pBC, pv.pCA, pv.pABC)
    return _terms(*map(float, fields))[3]


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


def _terms(p0, pa, pb, pc, pab, pbc, pca, pabc):
    """``(i_ab, i_bc, i_ca, epsilon)`` of the eight combination values in
    canonical order: rows of an (8, n) array or eight floats, with the
    same IEEE operations in the same order either way."""
    return (pab - pa - pb + p0, pbc - pb - pc + p0, pca - pc - pa + p0,
            pabc - pab - pbc - pca + pa + pb + pc - p0)


def _statistics(p: np.ndarray, guard: float) -> SorkinCurves:
    """The statistics kernel: ``p`` is (8, n); ``rho`` is NaN where
    ``delta`` is below ``guard``."""
    if not guard > 0.0:
        raise ValueError(f"guard must be > 0 (got {guard})")
    i_ab, i_bc, i_ca, eps = _terms(*p)
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
