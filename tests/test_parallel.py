import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bornlab._parallel import THREADS_ENV, map_slices, worker_count
from bornlab.optics import (
    CombinationAperture,
    build_combination_aperture,
    far_field_amplitude,
)


def random_aperture(rng, n=12):
    edges = np.sort(rng.uniform(-2e-3, 2e-3, n + 1))
    vals = rng.uniform(0, 1, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    return CombinationAperture(edges, vals, "ABC")


def test_fourier_zero_width_grid_point(rng):
    # u = 0 exercises the sinc branch
    ap = random_aperture(rng, n=4)
    out = far_field_amplitude(ap, np.array([0.0]))
    assert out[0] == pytest.approx(np.sum(ap.values * np.diff(ap.edges)), rel=1e-12)


class TestThreads:
    def test_worker_count_default(self, monkeypatch):
        monkeypatch.delenv(THREADS_ENV, raising=False)
        assert worker_count() == 1

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "6")
        assert worker_count() == 6
        monkeypatch.setenv(THREADS_ENV, "0")
        assert worker_count() == 1

    def test_worker_count_invalid(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "several")
        with pytest.raises(ValueError, match=THREADS_ENV):
            worker_count()

    def test_map_slices_covers_range(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, "4")
        out = np.zeros(5000)

        def fill(lo, hi):
            out[lo:hi] = np.arange(lo, hi)

        map_slices(fill, out.size, min_chunk=16)
        assert np.array_equal(out, np.arange(5000.0))

    def test_far_field_bitwise_identical_across_workers(
        self, plate, mask, monkeypatch
    ):
        ap = build_combination_aperture(plate, mask, "ABC")
        u = np.linspace(-4e4, 4e4, 4096)
        results = []
        for workers in ("1", "4", "8"):
            monkeypatch.setenv(THREADS_ENV, workers)
            results.append(far_field_amplitude(ap, u))
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])


# Imports the package, checks that no thread pool module came with it,
# then evaluates a far field that map_slices splits over two threads.
_LAZY_POOL = """
import sys
import numpy as np
import bornlab, bornlab.cli
assert "concurrent.futures" not in sys.modules, "imported with the package"
from bornlab.optics import (build_combination_aperture,
                            combination_mask_for_plate, triple_slit_plate)
plate = triple_slit_plate()
ap = build_combination_aperture(plate, combination_mask_for_plate(plate), "ABC")
amp = bornlab.far_field_amplitude(ap, np.linspace(-4e4, 4e4, 4096))
assert "concurrent.futures" in sys.modules, "no threads were used"
sys.stdout.write(amp.tobytes().hex())
"""


def test_thread_pool_imported_only_when_threads_run(plate, mask, monkeypatch):
    env = dict(os.environ, BORNLAB_THREADS="2")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _LAZY_POOL], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.delenv(THREADS_ENV, raising=False)
    serial = far_field_amplitude(build_combination_aperture(plate, mask, "ABC"),
                                 np.linspace(-4e4, 4e4, 4096))
    assert bytes.fromhex(proc.stdout) == serial.tobytes()
