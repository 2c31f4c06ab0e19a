"""One benchmark operation in a fresh interpreter: ``child.py SPEC.json``.

The spec names the workload and its generated inputs.  The child times
its set-up (``import bornlab``, then ``load_config`` and
``build_objects``) and its work after set-up, and writes a JSON result
next to the spec.  With ``trace`` set it first wraps the layer
functions, in every ``bornlab`` module namespace that bound them, with
span recorders; the spans stay in memory and are written to an ``.npz``
file once the work is done.
"""

import json
import os
import sys
import time

T0_NS = time.perf_counter_ns()


class Recorder:
    """In-memory spans: name, start, end and parent, for one run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def add(self, name: str, start: int, end: int) -> None:
        self.name.append(self._name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(start)
        self.end.append(end)

    def count(self, key: str, n: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(n)

    def wrap(self, name: str, fn, after=None):
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def save(self, path: str) -> None:
        import numpy as np

        np.savez(path, name=np.array(self.name, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int64),
                 start=np.array(self.start, dtype=np.int64),
                 end=np.array(self.end, dtype=np.int64),
                 names=np.array(self.names), run_id=np.array(self.run_id),
                 counters=np.array(json.dumps(self.counters)))


def install_layers(rec: Recorder) -> None:
    """Replace each layer function in every bornlab namespace bound to it."""
    import numpy as np
    from pathlib import Path

    from bornlab import _streams, cli, config, experiment, interference, optics, systematics

    write_table = cli._write_table

    def counted_write_table(path, header, rows, fmt):
        n = 0

        def counted():
            nonlocal n
            for row in rows:
                n += 1
                yield row

        write_table(path, header, counted(), fmt)
        rec.count("cli.rows_written", n)
        rec.count("cli.bytes_written", Path(path).stat().st_size)

    def intervals(aperture, *args, **kwargs):
        rec.count("optics.intervals", aperture.values.size)

    def interval_points(out, aperture, u, *args, **kwargs):
        rec.count("optics.interval_points", aperture.values.size * np.size(u))

    def undefined_curves(curves, *args, **kwargs):
        rec.count("interference.rho_undefined", curves.rho_defined.size
                  - np.count_nonzero(curves.rho_defined))

    def undefined_scalar(result, *args, **kwargs):
        rec.count("interference.rho_undefined", not result.rho_defined)

    layers = [
        (config.load_config, "config.load_config", None),
        (config.build_objects, "config.build_objects", None),
        (write_table, "cli.write_table", None),
        (optics.pattern_set, "optics.pattern_set", None),
        (optics.build_combination_aperture, "optics.build_combination_aperture", intervals),
        (optics.far_field_amplitude, "optics.far_field_amplitude", interval_points),
        (interference.sorkin_curves, "interference.sorkin_curves", undefined_curves),
        (interference.sorkin, "interference.sorkin", undefined_scalar),
        (systematics.detector_response, "systematics.detector_response", None),
        (systematics.misalignment_rho_sweep, "systematics.misalignment_rho_sweep", None),
        (experiment.run_experiment, "experiment.run_experiment", None),
        (experiment.rho_per_repetition, "experiment.rho_per_repetition", None),
        (experiment.estimate_rho_series, "experiment.estimate_rho_series", None),
    ]
    modules = [m for name, m in sys.modules.items()
               if name == "bornlab" or name.startswith("bornlab.")]
    for fn, name, after in layers:
        impl = counted_write_table if fn is write_table else fn
        wrapped = rec.wrap(name, impl, after)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
    # substreams are counted per calling module
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is _streams.substream and module is not _streams:
                short = module.__name__.rpartition(".")[2]
                setattr(module, attr, rec.wrap(f"{short}.substream", value))


def run_misalignment_mc(bornlab, cfg, spec: dict) -> dict:
    import numpy as np

    plate, mask, *_ = bornlab.config.build_objects(cfg)
    sampler = bornlab.systematics.uniform_displacement_sampler(
        cfg.displacement_low, cfg.displacement_high)
    u = np.linspace(cfg.u_min, cfg.u_max, cfg.u_points)
    seeds = range(spec["seed"], spec["seed"] + spec["seeds"])
    max_rho = np.full(len(seeds), np.nan)
    disp = np.full((len(seeds), 8), np.nan)
    samples, failed = {}, []
    for k, seed in enumerate(seeds):
        try:
            sweep, used = bornlab.systematics.misalignment_rho_sweep(
                plate, mask, sampler, u, seed=seed, guard=cfg.guard)
        except ValueError as exc:
            failed.append(f"seed {seed}: {exc}")
            continue
        c = sweep.curves
        max_rho[k] = np.max(np.abs(c.rho[c.rho_defined]), initial=0.0)
        disp[k] = [used[name] for name in bornlab.COMBINATIONS]
        if k in (0, len(seeds) - 1):  # full sweeps kept for the oracle check
            samples[k] = (sweep.patterns, np.vstack([c.i_ab, c.i_bc, c.i_ca, c.epsilon,
                                                     c.delta, c.rho, c.rho_defined]))
    return {"u": u, "max_rho": max_rho, "disp": disp,
            "samples": samples, "failed": failed, "plate": plate, "mask": mask}


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    os.sched_setaffinity(0, {spec["cpu"]})
    rec = Recorder(spec["run_id"]) if spec["trace"] else None

    import bornlab
    import bornlab.cli  # the console entry point's module
    import numpy as np

    t_import = time.perf_counter_ns()
    src = os.path.join(spec["root"], "src", "")
    if not os.path.abspath(bornlab.__file__).startswith(src):
        print(f"bornlab imported from {bornlab.__file__}, not {src}", file=sys.stderr)
        return 3
    if rec is not None:
        rec.add("bornlab.import", T0_NS, t_import)
        install_layers(rec)
    facts = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "numba_imports": bornlab.HAS_NUMBA,
        "backend": bornlab.BACKEND,
        "BORNLAB_THREADS": os.environ.get("BORNLAB_THREADS"),
        "BORNLAB_BACKEND": os.environ.get("BORNLAB_BACKEND"),
    }
    result = {"facts": facts, "failed": []}
    if spec["workload"] is not None:
        cfg = bornlab.config.load_config(spec["config"])
        bornlab.config.build_objects(cfg)
        t_setup = time.perf_counter_ns()
        if spec["workload"] == "misalignment-mc":
            mc = run_misalignment_mc(bornlab, cfg, spec)
            t_end = time.perf_counter_ns()
            if rec is not None:
                rec.save(spec["trace_path"])  # the control sweep below is not traced
                rec = None
            control, _ = bornlab.systematics.misalignment_rho_sweep(
                mc["plate"], mc["mask"], lambda rng: 0.0, mc["u"],
                seed=spec["seed"], guard=cfg.guard)
            keys = sorted(mc["samples"])
            np.savez(spec["mc_path"], max_abs_rho=mc["max_rho"], displacements=mc["disp"],
                     sample_index=np.array(keys, dtype=int), sample_u=mc["u"],
                     sample_patterns=np.array([mc["samples"][k][0] for k in keys]),
                     sample_curves=np.array([mc["samples"][k][1] for k in keys]),
                     control_max_abs_eps=np.max(np.abs(control.curves.epsilon)))
            result["failed"] = mc["failed"]
        else:
            argv = ["--config", spec["config"], "--seed", str(spec["seed"]),
                    "--out", spec["out"], "--format", spec["format"], spec["command"]]
            result["exit"] = bornlab.cli.main(argv)
            t_end = time.perf_counter_ns()
        result["setup_s"] = (t_setup - T0_NS) * 1e-9
        result["work_s"] = (t_end - t_setup) * 1e-9
        result["config"] = {k: getattr(cfg, k) for k in cfg.__dataclass_fields__}
    if rec is not None:
        rec.save(spec["trace_path"])
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
