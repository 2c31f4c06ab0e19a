"""The pointwise interference-statistics kernel: a numba-compiled loop
with a pure-numpy fallback.

``sorkin_grid`` evaluates the interference terms, ``epsilon``, ``delta``
and ``rho`` over eight stacked intensity curves.  It exists in two
versions that perform the same IEEE operations in the same order and
agree bit for bit:

* ``sorkin_grid_numba`` -- an ``@njit(cache=True, nogil=True)`` scalar loop,
* ``sorkin_grid_numpy`` -- vectorized numpy.

Selection, fixed at import time:

* ``BORNLAB_BACKEND=numba`` forces the compiled path (raises if numba is
  not importable),
* ``BORNLAB_BACKEND=numpy`` forces the fallback,
* unset: numba when importable, numpy otherwise.

``BACKEND`` names the selected version; ``manifest.json`` records it.
The far-field Fourier transform has a single numpy implementation, in
``optics``.
"""

from __future__ import annotations

import os

import numpy as np

BACKEND_ENV = "BORNLAB_BACKEND"

_choice = os.environ.get(BACKEND_ENV, "").strip().lower()
if _choice not in ("", "numba", "numpy"):
    raise ValueError(f"{BACKEND_ENV} must be 'numba' or 'numpy' (got {_choice!r})")

if _choice == "numpy":
    _numba = None
else:
    try:
        import numba as _numba
    except ImportError:
        if _choice == "numba":
            raise
        _numba = None

HAS_NUMBA = _numba is not None
BACKEND = "numba" if HAS_NUMBA else "numpy"


def sorkin_grid_numpy(p, guard):
    """Pointwise interference statistics for stacked curves.

    ``p`` has shape (8, n) in the canonical combination order
    ``0, A, B, C, AB, BC, CA, ABC``.  Returns arrays
    ``(i_ab, i_bc, i_ca, epsilon, delta, rho, defined)``; ``rho`` is NaN
    where ``delta`` is below ``guard``.
    """
    p0, pa, pb, pc, pab, pbc, pca, pabc = p
    i_ab = pab - pa - pb + p0
    i_bc = pbc - pb - pc + p0
    i_ca = pca - pc - pa + p0
    eps = pabc - pab - pbc - pca + pa + pb + pc - p0
    delta = np.abs(i_ab) + np.abs(i_bc) + np.abs(i_ca)
    defined = delta >= guard
    rho = np.full(delta.shape, np.nan)
    np.divide(eps, delta, out=rho, where=defined)
    return i_ab, i_bc, i_ca, eps, delta, rho, defined


if HAS_NUMBA:

    @_numba.njit(cache=True, nogil=True)
    def sorkin_grid_numba(p, guard):  # pragma: no cover - jitted
        n = p.shape[1]
        i_ab = np.empty(n)
        i_bc = np.empty(n)
        i_ca = np.empty(n)
        eps = np.empty(n)
        delta = np.empty(n)
        rho = np.empty(n)
        defined = np.empty(n, dtype=np.bool_)
        for i in range(n):
            p0 = p[0, i]
            pa = p[1, i]
            pb = p[2, i]
            pc = p[3, i]
            pab = p[4, i]
            pbc = p[5, i]
            pca = p[6, i]
            pabc = p[7, i]
            i_ab[i] = pab - pa - pb + p0
            i_bc[i] = pbc - pb - pc + p0
            i_ca[i] = pca - pc - pa + p0
            eps[i] = pabc - pab - pbc - pca + pa + pb + pc - p0
            delta[i] = abs(i_ab[i]) + abs(i_bc[i]) + abs(i_ca[i])
            defined[i] = delta[i] >= guard
            rho[i] = eps[i] / delta[i] if defined[i] else np.nan
        return i_ab, i_bc, i_ca, eps, delta, rho, defined

    sorkin_grid = sorkin_grid_numba
else:
    sorkin_grid_numba = None
    sorkin_grid = sorkin_grid_numpy


def available_backends() -> dict:
    """Name -> sorkin_grid for every usable backend."""
    table = {"numpy": sorkin_grid_numpy}
    if HAS_NUMBA:
        table["numba"] = sorkin_grid_numba
    return table
