import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bornlab import experiment, optics
from bornlab.cli import (
    COMMANDS,
    SWEEP_COLUMNS,
    _u_grid,
    build_parser,
    dispatch,
    main,
    read_counts_file,
)
from bornlab.config import (
    ConfigError,
    RunConfig,
    build_objects,
    load_config,
    parse_config,
)

from conftest import evaluated_points
from oracles import run_experiment_scalar

ROOT = Path(__file__).resolve().parent.parent


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == RunConfig()

    def test_values_and_comments(self):
        cfg = parse_config(
            """
            # geometry
            slit_width = 25e-6
            dark_rate = 250  # cps
            mask_scheme = blocking
            repetitions = 7
            poisson = false
            """
        )
        assert cfg.slit_width == 25e-6
        assert cfg.dark_rate == 250.0
        assert cfg.mask_scheme == "blocking"
        assert cfg.repetitions == 7
        assert cfg.poisson is False

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown key 'slitwidth'"):
            parse_config("slitwidth = 1e-6")

    def test_range_error_names_key(self):
        with pytest.raises(ConfigError, match="slit_width: must be > 0"):
            parse_config("slit_width = -1")

    def test_choice_error_names_key(self):
        with pytest.raises(ConfigError, match="mask_scheme: must be one of opening, blocking"):
            parse_config("mask_scheme = slots")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("seed = 1\nseed = 2")

    def test_missing_value_rejected(self):
        with pytest.raises(ConfigError, match="missing value"):
            parse_config("seed =")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config("just some words")

    def test_bad_number_names_key(self):
        with pytest.raises(ConfigError, match="u_points"):
            parse_config("u_points = many")

    def test_bad_bool_names_key(self):
        with pytest.raises(ConfigError, match="poisson"):
            parse_config("poisson = maybe")

    def test_cross_field_grid(self):
        with pytest.raises(ConfigError, match="u_max: must exceed u_min"):
            parse_config("u_min = 10\nu_max = -10")

    def test_cross_field_slit_overlap(self):
        with pytest.raises(ConfigError, match="slit_separation"):
            parse_config("slit_separation = 20e-6")

    def test_cross_field_plate_extent(self):
        with pytest.raises(ConfigError, match="^plate_half_width: "):
            parse_config("plate_half_width = 90e-6")

    # alpha alone sets the rule, and --out alone the output directory
    @pytest.mark.parametrize("line", ["rule = born", "out_dir = x"])
    def test_removed_keys_are_unknown(self, tmp_path, capsys, line):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("seed = 1\n" + line + "\n", encoding="utf-8")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "hierarchy"]) == 2
        key = line.split()[0]
        assert capsys.readouterr().err == f"error: line 2: unknown key '{key}'\n"
        assert not (tmp_path / "o").exists()

    def test_leakage_converted_to_amplitude(self):
        cfg = parse_config("mask_leakage = 0.05\nplate_leakage = 0.01")
        plate, mask, _, _ = build_objects(cfg)
        assert plate.leakage_amplitude == pytest.approx(math.sqrt(0.01))
        assert mask.leakage_amplitude == pytest.approx(math.sqrt(0.05))


def _ulps(x: float, k: int) -> float:
    """``x`` moved ``k`` floats up, or down for ``k < 0``."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def geometries(draw):
    """``(slit_width, slit_separation, plate_half_width, opening_width)``:
    each a multiple of the boundary of its check, or within 3 floats of
    that boundary."""
    def around(x, low, high):
        return (st.floats(low, high).map(lambda f: x * f)
                | st.integers(-3, 3).map(lambda k: _ulps(x, k)))
    separation = draw(st.floats(1e-6, 1e-3))
    width = draw(around(separation, 0.01, 1.2))
    half_width = draw(around(separation + width / 2, 0.8, 3.0))
    opening = draw(around(separation, 0.1, 1.5))
    return width, separation, half_width, opening


class TestRunConfigChecks:
    """A config is checked where it is built, however it is built."""

    @pytest.mark.parametrize("build, key", [
        (lambda: dataclasses.replace(RunConfig(), seed=-1), "seed"),
        (lambda: RunConfig(u_points=0), "u_points"),
    ], ids=["replace_seed", "u_points"])
    def test_invalid_config_raises_naming_the_key(self, build, key):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            build()

    # what the slit plate and the mask reject, named by the key to change
    @pytest.mark.parametrize("scheme", [optics.OPENING, optics.BLOCKING])
    @pytest.mark.parametrize("line, err", [
        ("opening_width = 3e-4", "opening_width: must be <= slit_separation, or mask "
         "features overlap (got 0.0003 > 0.0001)"),
        ("slit_separation = 1.99e-3", "plate_half_width: must be >= slit_separation "
         "+ slit_width / 2 (got 0.002)"),
    ], ids=["opening_width", "plate_half_width"])
    def test_geometry_error_exits_2_naming_the_key(self, tmp_path, capsys, scheme,
                                                   line, err):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"mask_scheme = {scheme}\n{line}\n", encoding="utf-8")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "patterns"]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    @settings(max_examples=300, deadline=None)
    @given(geometry=geometries(), scheme=st.sampled_from([optics.OPENING,
                                                          optics.BLOCKING]))
    # touching mask features, and an odd subnormal opening width, whose
    # half rounds up: there ``opening_width > slit_separation`` would
    # pass a mask that overlaps
    @example(geometry=(30e-6, 100e-6, 2e-3, 100e-6), scheme=optics.OPENING)
    @example(geometry=(5e-324, 3 * 5e-324, 2e-3, 3 * 5e-324), scheme=optics.BLOCKING)
    def test_geometry_is_checked_as_the_models_check_it(self, geometry, scheme):
        """A config is rejected, naming one of its geometry keys, exactly
        when the models reject it or its slits touch, so the models build
        from every config that passes."""
        width, separation, half_width, opening = geometry
        try:
            plate = optics.triple_slit_plate(width, separation, half_width)
            optics.combination_mask_for_plate(plate, scheme, opening)
            models_fail = False
        except ValueError:
            models_fail = True
        keys = dict(slit_width=width, slit_separation=separation,
                    plate_half_width=half_width, opening_width=opening,
                    mask_scheme=scheme)
        try:
            cfg = RunConfig(**keys)
        except ConfigError as exc:
            assert str(exc).split(":")[0] in keys
            assert models_fail or separation <= width
        else:
            assert not models_fail
            build_objects(cfg)

    def test_negative_seed_override_exits_2_naming_it(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--seed", "-1", "--out", str(out), "hierarchy"]) == 2
        assert capsys.readouterr().err == "error: seed: must be >= 0 (got -1)\n"
        assert not out.exists()

    def test_missing_config_exits_2_naming_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "nope.cfg"
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "patterns"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config: [Errno 2] ")
        assert str(cfg) in err and "Traceback" not in err


def write_counts_csv(path, scale=1e5, dwell=1.0):
    rows = {
        "0": 0.0, "A": scale, "B": scale, "C": scale,
        "AB": 4 * scale, "BC": 4 * scale, "CA": 4 * scale, "ABC": 9 * scale,
    }
    lines = ["combination,counts,dwell_s"]
    lines += [f"{k},{v},{dwell}" for k, v in rows.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestCountsFile:
    def test_roundtrip(self, tmp_path):
        p = tmp_path / "counts.csv"
        write_counts_csv(p)
        rates = read_counts_file(p)
        assert rates.shape == (8, 1)
        assert rates[7, 0] == 9e5
        assert rates[0, 0] == 0.0

    def test_missing_combination(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("combination,counts,dwell_s\nA,1,1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="missing combinations"):
            read_counts_file(p)

    def test_bad_header(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("comb,counts,dwell\nA,1,1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="header"):
            read_counts_file(p)

    def test_duplicate_combination(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text(
            "combination,counts,dwell_s\nA,1,1\nA,2,1\n", encoding="utf-8"
        )
        with pytest.raises(ConfigError, match="duplicate"):
            read_counts_file(p)

    def test_negative_counts(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("combination,counts,dwell_s\nA,-5,1\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="counts must be >= 0"):
            read_counts_file(p)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["counts", "dwell_s"])
    def test_nonfinite_value_exits_2_naming_the_row(self, tmp_path, capsys,
                                                    column, value):
        p = tmp_path / "c.csv"
        write_counts_csv(p)
        fields = {"counts": "100000.0", "dwell_s": "1.0", column: value}
        p.write_text(p.read_text().replace(
            "\nC,100000.0,1.0\n", f"\nC,{fields['counts']},{fields['dwell_s']}\n"))
        out = tmp_path / "out"
        assert main(["sorkin", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: C: {column} must be " in err
        assert f"(got {float(value)})" in err
        assert not out.exists() or not any(out.iterdir())

    def test_overflowing_rate_exits_2_naming_the_row(self, tmp_path, capsys):
        p = tmp_path / "c.csv"
        write_counts_csv(p)
        p.write_text(p.read_text().replace("\nA,100000.0,1.0\n", "\nA,1e300,1e-10\n"))
        out = tmp_path / "out"
        assert main(["sorkin", str(p), "--out", str(out)]) == 2
        assert "error: A: counts / dwell_s must be finite (got inf)" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("column", ["counts", "dwell_s"])
    def test_non_numeric_value_exits_2_naming_row_and_column(
            self, tmp_path, capsys, column):
        p = tmp_path / "c.csv"
        write_counts_csv(p)
        fields = {"counts": "100000.0", "dwell_s": "1.0", column: "abc"}
        p.write_text(p.read_text().replace(
            "\nA,100000.0,1.0\n", f"\nA,{fields['counts']},{fields['dwell_s']}\n"))
        out = tmp_path / "out"
        assert main(["sorkin", str(p), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: A: {column} must be a number (got 'abc')" in err
        assert not out.exists() or not any(out.iterdir())


class TestCli:
    def test_patterns_csv_schema(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("u_points = 51\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "patterns"]) == 0
        lines = (out / "patterns.csv").read_text().splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 52
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "patterns"
        assert manifest["config"]["u_points"] == 51
        assert manifest["summary"]["points"] == 51

    def test_sorkin_command_null_counts(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        write_counts_csv(counts)
        out = tmp_path / "out"
        assert main(["sorkin", str(counts), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "epsilon = 0 " in printed
        assert "rho = 0" in printed
        row = (out / "sorkin.csv").read_text().splitlines()[1].split(",")
        assert row[0] == "nan"
        assert row[SWEEP_COLUMNS.index("rho")] == "0"
        assert row[SWEEP_COLUMNS.index("rho_defined")] == "1"

    def test_sorkin_undefined_rho_exits_zero_with_flag(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        lines = ["combination,counts,dwell_s"]
        lines += [f"{c},100,1.0" for c in
                  ("0", "A", "B", "C", "AB", "BC", "CA", "ABC")]
        counts.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["sorkin", str(counts), "--out", str(out)]) == 0
        assert "undefined" in capsys.readouterr().err
        row = (out / "sorkin.csv").read_text().splitlines()[1].split(",")
        assert row[SWEEP_COLUMNS.index("rho")] == "nan"
        assert row[SWEEP_COLUMNS.index("rho_defined")] == "0"

    @pytest.mark.parametrize("argv", [
        ["--out", "{out}", "--format", "json", "sorkin", "{counts}"],
        ["sorkin", "--out", "{out}", "--format", "json", "{counts}"],
        ["sorkin", "{counts}", "--out", "{out}", "--format", "json"],
        ["--format", "json", "sorkin", "{counts}", "--out", "{out}"],
    ])
    def test_flags_parse_on_either_side_of_the_command(self, tmp_path, capsys, argv):
        counts = tmp_path / "counts.csv"
        write_counts_csv(counts)
        out = tmp_path / "out"
        assert main([a.format(out=out, counts=counts) for a in argv]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "sorkin.json"]

    @pytest.mark.parametrize("argv, message", [
        (["sorkin", "--out", "{out}"], "sorkin requires a counts file"),
        (["run", "{counts}", "--out", "{out}"], "run takes no counts file"),
    ])
    def test_counts_file_misuse_exits_2(self, tmp_path, capsys, argv, message):
        counts = tmp_path / "counts.csv"
        write_counts_csv(counts)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([a.format(out=out, counts=counts) for a in argv])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_counts_file_fails(self, tmp_path, capsys):
        counts = tmp_path / "nope.csv"
        assert main(["sorkin", str(counts), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read counts file {counts}: [Errno 2] ")
        assert "i/o failure" not in err

    def test_sorkin_negative_zero_count_is_written_as_zero(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        write_counts_csv(counts)
        counts.write_text(counts.read_text().replace("\n0,0.0,1.0\n", "\n0,-0,1\n"))
        out = tmp_path / "out"
        assert main(["sorkin", str(counts), "--out", str(out)]) == 0
        assert (out / "sorkin.csv").read_text().splitlines()[1].startswith("nan,0,")
        assert main(["sorkin", str(counts), "--out", str(out), "--format", "json"]) == 0
        assert '"p0": 0.0,' in (out / "sorkin.json").read_text()

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("dwell_time = -5\n", encoding="utf-8")
        assert main(["--config", str(cfg), "patterns"]) == 2
        assert "dwell_time" in capsys.readouterr().err

    def test_non_utf8_config_exits_2_naming_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"seed = 1\n\xff\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "patterns"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read config: {cfg}: ")
        assert "Traceback" not in err

    def test_non_utf8_counts_file_exits_2_naming_the_file(self, tmp_path, capsys):
        counts = tmp_path / "bad.csv"
        counts.write_bytes(b"combination,counts,dwell_s\n\xff\n")
        assert main(["sorkin", str(counts), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read counts file {counts}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(RunConfig)
                                     if f.type in ("float", float)])
    def test_nonfinite_float_key_exits_2_naming_it(self, tmp_path, capsys, recwarn,
                                                    key, value):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"repetitions = 5\nsequence_order = randomized\n{key} = {value}\n",
                       encoding="utf-8")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: must ") and "RuntimeWarning" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_unwritable_out_dir(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x", encoding="utf-8")
        code = main(["patterns", "--out", str(blocker / "sub")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_failed_rerun_keeps_previous_output_set(self, tmp_path, capsys):
        # the rerun writes its counts table, then cannot open the staged
        # rho table (a dangling link where it goes) and fails: the earlier
        # run's files must stay as they were
        bundled = ROOT / "configs" / "overnight_run.cfg"
        out = tmp_path / "out"
        assert main(["--config", str(bundled), "--out", str(out), "run"]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(before) == {"run_counts.csv", "run_rho.csv", "manifest.json"}
        rerun = tmp_path / "rerun.cfg"
        rerun.write_text(
            bundled.read_text(encoding="utf-8").replace(
                "repetitions = 100", "repetitions = 3"),
            encoding="utf-8",
        )
        (out / ".run_rho.csv.tmp").symlink_to(tmp_path / "missing" / "run_rho.csv")
        assert main(["--config", str(rerun), "--out", str(out), "run"]) == 2
        assert "i/o failure" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def _first_run(self, tmp_path):
        out = tmp_path / "out"
        config = str(ROOT / "configs" / "overnight_run.cfg")
        assert main(["--config", config, "--out", str(out), "run"]) == 0
        return config, out, {p.name: p.read_bytes() for p in out.iterdir()}

    def test_staged_directory_fails_without_traceback(self, tmp_path, capsys):
        # the staged rho table cannot be opened, nor removed afterwards
        config, out, before = self._first_run(tmp_path)
        (out / ".run_rho.csv.tmp").mkdir()
        assert main(["--config", config, "--out", str(out), "--seed", "7", "run"]) == 2
        err = capsys.readouterr().err
        assert "i/o failure" in err and "Traceback" not in err
        after = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert after == before
        assert sorted(p.name for p in out.iterdir()) == sorted([*before, ".run_rho.csv.tmp"])

    def test_directory_at_a_target_keeps_previous_output_set(self, tmp_path, capsys):
        # every table of the rerun is written; the commit must refuse
        # before it renames any of them over the old set
        config, out, before = self._first_run(tmp_path)
        (out / "run_rho.csv").unlink()
        (out / "run_rho.csv").mkdir()
        del before["run_rho.csv"]
        assert main(["--config", config, "--out", str(out), "--seed", "7", "run"]) == 2
        assert "not a regular file" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
        assert sorted(p.name for p in out.iterdir()) == sorted([*before, "run_rho.csv"])

    def test_zero_monitor_counts_leave_repetitions_undefined(self, tmp_path, capsys):
        # strong fluctuation clamps some power factors to 0, and with them
        # the monitor counts of those dwells: their repetitions have no rho
        cfg = tmp_path / "zero_monitor.cfg"
        cfg.write_text(
            (ROOT / "configs" / "overnight_run.cfg").read_text(encoding="utf-8")
            .replace("sequence_order = fixed", "sequence_order = randomized")
            + "power_fluctuation = 0.8\nmonitor_counts = 1e6\n",
            encoding="utf-8",
        )
        # the oracle's draws give the expected numbers
        config = load_config(cfg)
        plate, mask, power, det = build_objects(config)
        base = power.mean_power * optics.pattern_set(
            plate, mask, np.array([config.detector_u]), normalize=True)[:, 0]
        _, _, monitor, clamped = run_experiment_scalar(
            base, power, det, config.repetitions, config.seed,
            block=experiment._BLOCK_REPETITIONS)
        n_zero = int(np.count_nonzero(np.any(monitor == 0.0, axis=1)))
        assert 0 < n_zero < config.repetitions
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning) as warned:
            assert main(["--config", str(cfg), "--out", str(out), "run"]) == 0
        assert [str(w.message) for w in warned] == [
            f"power factor clamped to 0 in {clamped} of 800 dwells",
            f"zero monitor counts leave rho undefined in {n_zero} of 100 repetitions",
        ]
        assert "error" not in capsys.readouterr().err
        summary = json.loads((out / "manifest.json").read_text())["summary"]
        assert summary["n_undefined"] == n_zero
        assert summary["rho_defined_repetitions"] == 100 - n_zero
        flags = [line.rsplit(",", 1)[1] for line in
                 (out / "run_rho.csv").read_text().splitlines()[1:]]
        assert flags.count("0") == n_zero

    def test_run_negative_expected_count_exits_2_naming_the_dwell(self, tmp_path, capsys):
        # a detector driven past its nonlinearity gives negative mean counts
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("mean_power = 1e6\nnonlinearity = 0.9\nfull_scale_rate = 1e3\n"
                       "poisson = false\n", encoding="utf-8")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), "run"]) == 2
        assert capsys.readouterr().err == (
            "error: repetition 0, combination A: counts must be finite and >= 0 "
            "(got -4.125e+08)\n")

    def test_run_negative_poisson_mean_exits_2_naming_the_keys(self, tmp_path, capsys):
        # the config above with Poisson counts: the mean is checked before any draw
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("mean_power = 1e6\nnonlinearity = 0.9\nfull_scale_rate = 1e3\n",
                       encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert all(key in err for key in ("mean_power", "nonlinearity", "full_scale_rate"))
        assert "a Poisson mean must be >= 0 (got -4.13e+08 counts per dwell)" in err
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("key", ["mean_power", "dwell_time", "dark_rate",
                                     "monitor_counts"])
    def test_run_poisson_mean_above_numpy_limit_exits_2_naming_the_key(
            self, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key} = 1e300\nrepetitions = 5\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "run"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err and "above numpy's limit" in err
        assert "Traceback" not in err
        assert not out.exists() or not list(out.iterdir())

    def test_json_format(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("u_points = 11\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--format", "json",
                     "--out", str(out), "patterns"]) == 0
        rows = json.loads((out / "patterns.json").read_text())
        assert len(rows) == 11
        assert set(rows[0]) == set(SWEEP_COLUMNS)
        assert isinstance(rows[0]["rho_defined"], bool)

    def test_seed_override_changes_sweep(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "u_points = 21\nmask_leakage = 0.05\nplate_leakage = 0.05\n"
            "mask_scheme = blocking\n",
            encoding="utf-8",
        )
        outs = {}
        for seed in (0, 1):
            out = tmp_path / f"out{seed}"
            assert main(["--config", str(cfg), "--seed", str(seed),
                         "--out", str(out), "sweep-mask"]) == 0
            outs[seed] = (out / "mask_sweep.csv").read_text()
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["seed"] == seed
        assert outs[0] != outs[1]

    def test_run_command_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("repetitions = 5\ndwell_time = 1.0\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "run"]) == 0
        counts_lines = (out / "run_counts.csv").read_text().splitlines()
        assert counts_lines[0].startswith("repetition,combination,counts")
        assert len(counts_lines) == 1 + 5 * 8
        rho_lines = (out / "run_rho.csv").read_text().splitlines()
        assert rho_lines[0] == "repetition,rho,rho_defined"
        assert len(rho_lines) == 6
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["summary"]["rho_defined_repetitions"] == 5

    def test_run_undefined_everywhere_warns_and_exits_zero(self, tmp_path, capsys):
        # dark counts drown a vanishing signal: every repetition's delta
        # sits below the guard in expected-value mode
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "repetitions = 3\ndwell_time = 1.0\nmean_power = 1e-300\n"
            "dark_rate = 1000\npoisson = false\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "run"]) == 0
        assert "undefined in every repetition" in capsys.readouterr().err
        rho_lines = (out / "run_rho.csv").read_text().splitlines()
        for line in rho_lines[1:]:
            fields = line.split(",")
            assert fields[1] == "nan"
            assert fields[2] == "0"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["summary"]["mean_rho"] is None
        assert manifest["summary"]["n_undefined"] == 3

    def test_hierarchy_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["hierarchy", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "order-3 sum rule" in printed
        report = json.loads((out / "hierarchy.json").read_text())
        for k in ("3", "4", "5"):
            assert report["orders"][k]["null_satisfied"] is True
        assert report["order_2_equal_amplitudes"] == 2.0

    def test_hierarchy_writes_json_under_csv_format(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--format", "csv", "--out", str(out), "hierarchy"]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["hierarchy.json", "manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["hierarchy.json"]
        help_text = " ".join(build_parser().format_help().split())
        assert "hierarchy always writes JSON" in help_text

    def test_hierarchy_cubic_rule_violates(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("alpha = 0.01\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "hierarchy"]) == 0
        report = json.loads((out / "hierarchy.json").read_text())
        assert report["rule"] == "cubic" and report["alpha"] == 0.01
        assert report["orders"]["3"]["null_satisfied"] is False

    @pytest.mark.parametrize("key", ["plate_leakage", "mask_leakage", "mask_displacement"])
    def test_detector_sweep_requires_ideal_optics(self, tmp_path, capsys, key):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key} = 1e-6\n", encoding="utf-8")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "sweep-detector"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: detector sweep requires zero leakage")
        assert err.rstrip().endswith(f"nonzero: {key}")

    def test_sweep_power_extra_columns(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("u_points = 31\npower_fluctuation = 1e-3\n",
                       encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "sweep-power"]) == 0
        lines = (out / "power_sweep.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[: len(SWEEP_COLUMNS)] == list(SWEEP_COLUMNS)
        assert header[len(SWEEP_COLUMNS):] == ["delta_rho_unit", "delta_rho"]
        i_unit = header.index("delta_rho_unit")
        i_drho = header.index("delta_rho")
        for line in lines[1:4]:
            vals = line.split(",")
            if vals[SWEEP_COLUMNS.index("rho_defined")] == "1":
                assert float(vals[i_drho]) == pytest.approx(
                    1e-3 * float(vals[i_unit]), rel=1e-12
                )

    def test_detector_sweep_summary_band(self, tmp_path):
        # bundled nonlinear-detector configuration lands in the
        # documented band for the pattern-wide maximum
        cfg = ROOT / "configs" / "nonlinear_detector_sweep.cfg"
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "sweep-detector"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert 0.002 <= manifest["summary"]["max_abs_rho"] <= 0.02
        assert manifest["summary"]["rho_at_center"] == pytest.approx(
            -0.00665, abs=5e-4
        )

    def test_run_json_format_types(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("repetitions = 2\ndwell_time = 1.0\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--format", "json",
                     "--out", str(out), "run"]) == 0
        rows = json.loads((out / "run_rho.json").read_text())
        assert rows[0]["repetition"] == 0
        assert isinstance(rows[0]["rho_defined"], bool)

    @pytest.mark.parametrize("poisson", [True, False])
    @pytest.mark.parametrize("monitor", [0.0, 1e6])
    def test_run_json_count_types(self, tmp_path, poisson, monitor):
        # Poisson counts are integers; expected values stay floats and a
        # missing monitor stays null
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"repetitions = 2\npoisson = {str(poisson).lower()}\n"
                       f"monitor_counts = {monitor}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--format", "json",
                     "--out", str(out), "run"]) == 0
        rows = json.loads((out / "run_counts.json").read_text())
        kind = int if poisson else float
        assert all(type(r["counts"]) is kind for r in rows)
        if monitor:
            assert all(type(r["monitor_counts"]) is kind for r in rows)
        else:
            assert all(r["monitor_counts"] is None for r in rows)

    def test_run_csv_writes_large_counts_in_full(self, tmp_path):
        # a Poisson count of 1e17 or more prints with all its digits,
        # where a float cell would switch to exponent notation
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("repetitions = 1\nmonitor_counts = 1e18\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "run"]) == 0
        lines = (out / "run_counts.csv").read_text().splitlines()
        cells = [line.split(",")[-1] for line in lines[1:]]
        assert all(re.fullmatch(r"[1-9]\d*", cell) for cell in cells), cells
        assert all(abs(int(cell) - 10**18) < 10**12 for cell in cells)

    def test_dispatch_unknown_command(self, capsys):
        assert dispatch("explode", RunConfig(), out_dir=".") == 2
        assert "unknown command" in capsys.readouterr().err

    def test_floats_have_17_significant_digits(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("u_points = 3\nu_min = -1e4\nu_max = 1e4\n",
                       encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "patterns"]) == 0
        row = (out / "patterns.csv").read_text().splitlines()[1].split(",")
        pa = float(row[SWEEP_COLUMNS.index("pA")])
        assert f"{pa:.17g}" == row[SWEEP_COLUMNS.index("pA")]


class TestUGrid:
    @pytest.mark.parametrize("points", [2, 3, 15, 601, 1001, 25001])
    def test_symmetric_grid_is_an_exact_mirror(self, points):
        u = _u_grid(RunConfig(u_min=-3e4, u_max=3e4, u_points=points))
        assert np.array_equal(u, -u[::-1])
        if points % 2:
            middle = u[points // 2]
            assert middle == 0.0 and not np.signbit(middle)
        ref = np.linspace(-3e4, 3e4, points)
        assert np.max(np.abs(u - ref)) <= 1e-15 * 6e4
        assert u[0] == -3e4 and u[-1] == 3e4

    # the bundled and default grids, which linspace already mirrors, and
    # grids that are not symmetric
    @pytest.mark.parametrize("u_min, u_max, points", [
        (-3e4, 3e4, 601), (-4e4, 4e4, 1001),
        (-1e4, 3e4, 25001), (-3e4, 3e4, 1), (0.0, 6e4, 101)])
    def test_grid_is_linspace(self, u_min, u_max, points):
        u = _u_grid(RunConfig(u_min=u_min, u_max=u_max, u_points=points))
        assert u.tobytes() == np.linspace(u_min, u_max, points).tobytes()

    def test_mirrored_grid_has_half_its_magnitudes(self, monkeypatch):
        # pattern_set evaluates the upper half of the mirror, where a raw
        # linspace, whose step is inexact, is evaluated at every point
        u = _u_grid(RunConfig(u_min=-3e4, u_max=3e4, u_points=25001))
        assert evaluated_points(monkeypatch, u) == 12501
        assert evaluated_points(monkeypatch, np.linspace(-3e4, 3e4, 25001)) == 25001


# -- every config key changes some output

#: Small configs on which every key is live: the ideal one runs
#: ``sweep-detector`` (it needs ideal optics), the leaky one makes the
#: plate extent, the mask scheme and the displacement sampler matter.
SMALL = dict(u_points=11, repetitions=3, alpha=0.01, nonlinearity=0.01)
BASES = {
    "ideal": RunConfig(**SMALL),
    "leaky": RunConfig(**SMALL, plate_leakage=0.05, mask_leakage=0.05),
}

#: A value for each key that differs from its value in both bases.
CHANGED = {
    "slit_width": 25e-6,
    "slit_separation": 120e-6,
    "plate_half_width": 1e-3,
    "plate_leakage": 0.02,
    "mask_scheme": "blocking",
    "opening_width": 20e-6,
    "mask_leakage": 0.02,
    "mask_displacement": 50e-6,
    "u_min": -30000.0,
    "u_max": 30000.0,
    "u_points": 12,
    "detector_u": 500.0,
    "alpha": 0.02,
    "mean_power": 50000.0,
    "power_fluctuation": 0.01,
    "power_drift": 1e-3,
    "sequence_order": "randomized",
    "monitor_counts": 1000.0,
    "dead_time": 50e-9,
    "nonlinearity": 0.02,
    "full_scale_rate": 5e5,
    "dark_rate": 100.0,
    "dwell_time": 10.0,
    "peak_rate": 50000.0,
    "dynamic_range": 50.0,
    "displacement_low": 2e-6,
    "displacement_high": 5e-6,
    "repetitions": 4,
    "poisson": False,
    "seed": 1,
    "guard": 0.5,
}


@pytest.fixture(scope="module")
def command_tables(tmp_path_factory):
    """``(cfg, command) ->`` the table files (name -> bytes, manifest left
    out) that the command writes for the config, or None when it fails."""
    cache: dict = {}
    counts = ROOT / "tests" / "data" / "sorkin_counts.csv"

    def tables(cfg, command):
        if (cfg, command) not in cache:
            out = tmp_path_factory.mktemp("tables")
            code = dispatch(command, cfg, out_dir=out, counts_path=counts)
            cache[cfg, command] = None if code else {
                p.name: p.read_bytes() for p in sorted(out.iterdir())
                if p.name != "manifest.json"
            }
        return cache[cfg, command]

    return tables


def test_changed_values_cover_every_key():
    keys = {f.name for f in dataclasses.fields(RunConfig)}
    assert set(CHANGED) == keys


@pytest.mark.parametrize("key", sorted(CHANGED))
def test_every_config_key_changes_some_table(key, command_tables):
    for base in BASES.values():
        assert getattr(base, key) != CHANGED[key]
        changed = dataclasses.replace(base, **{key: CHANGED[key]})
        for command in COMMANDS:
            before = command_tables(base, command)
            after = command_tables(changed, command)
            if None not in (before, after) and before != after:
                return
    pytest.fail(f"changing {key} changes no table of any command")
