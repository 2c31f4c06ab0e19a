import numpy as np
import pytest

from bornlab import optics
from bornlab.interference import COMBINATIONS, interference_terms
from bornlab.optics import combination_mask_for_plate, pattern_set, triple_slit_plate


@pytest.fixture
def plate():
    return triple_slit_plate()


@pytest.fixture
def mask(plate):
    return combination_mask_for_plate(plate)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_triple(rng):
    z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    return [complex(v) for v in z]


#: Column of each combination after "0", in ``COMBINATIONS`` order, among
#: the subset probabilities of ``interference_terms``: the subset of
#: bitmask ``m`` (A = 1, B = 2, C = 4) sits in column ``m - 1``.
_SUBSET_COLUMNS = [sum(1 << "ABC".index(path) for path in combo) - 1
                   for combo in COMBINATIONS[1:]]


def combination_probabilities(rule, amps, background=0.0):
    """(8, n) probabilities of the eight combinations, in ``COMBINATIONS``
    order, for n triples of path amplitudes (shape (n, 3), or one triple):
    ``p0 = 0`` and the subset probabilities of ``interference_terms``,
    each plus ``background``."""
    probs = interference_terms(rule, np.reshape(amps, (-1, 3)))[1]
    return np.vstack([np.zeros(len(probs)), probs[:, _SUBSET_COLUMNS].T]) + background


def evaluated_points(monkeypatch, u):
    """The number of grid points that ``pattern_set`` hands to the
    Fourier pass when it evaluates the eight curves on ``u``."""
    points = []
    fourier_pass = optics._fourier_pass

    def counted(pieces, grid, out):
        points.append(grid.size)
        fourier_pass(pieces, grid, out)

    plate = triple_slit_plate()
    with monkeypatch.context() as patch:
        patch.setattr(optics, "_fourier_pass", counted)
        pattern_set(plate, combination_mask_for_plate(plate), u)
    assert len(points) == 1
    return points[0]
