"""CLI tests: config parsing, subcommands, exit codes, determinism."""

import ast
import csv
import json
import re
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import kslab
from kslab import (Grid2D, LabSetup, ScalarField, SolverConfig, estimate_constants, gaussian_field, picard_solve,
                   save_field, sigma)
from kslab.cli import (
    ConfigError,
    ExperimentConfig,
    _norm_csv_rows,
    load_config,
    main,
    make_solver_config,
    make_window,
)
from kslab.fields import _write_raw_snapshot, rfft2
from kslab.inequality_lab import AUTO_C
from kslab.norms import _batch_grad_linf, _batch_hs, _batch_lp
from kslab.trajectories import Window
from conftest import config_text, parse_config_text, run_fresh

FAST_SOLVE = """
grid.n = 32
grid.l = 32.0
time.t_min = 0.01
time.t_max = 1.0
time.k = 10
picard.c = 2.5
picard.tol = 1e-11
data.kind = gaussian
data.mass = 1e-3
data.width = 0.5
"""


# every key, each at a value other than its default
EVERY_KEY = """
grid.n = 32
grid.l = 16.5
time.t_min = 0.002
time.t_max = 4.0
time.k = 12
picard.c = 2.25
picard.max_iter = 7
picard.tol = 1e-09
picard.mode = thm2_H1bH1
data.kind = file
data.mass = -0.5
data.width = 0.25
data.amplitude = 1.5
data.wavevector = -2,3
data.v_mass = 0.125
data.v_width = 0.75
data.v_amplitude = -0.5
data.stripe_smoothing = 0.02
data.u_path = dumps/u0.ksf1
data.v_path = dumps/v0.ksf1
output.dir = runs/a
output.dump_fields = yes
variant.remark_ii = true
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_defaults_round_trip(self):
        cfg = ExperimentConfig()
        assert parse_config_text(config_text(cfg)) == cfg
        assert parse_config_text("") == cfg

    def test_parse_serialize_parse_identity(self):
        for text in (FAST_SOLVE, EVERY_KEY):
            cfg1 = parse_config_text(text)
            cfg2 = parse_config_text(config_text(cfg1))
            assert cfg1 == cfg2

    def test_every_key_parses(self):
        expected = ExperimentConfig(
            grid_n=32, grid_l=16.5, time_t_min=0.002, time_t_max=4.0, time_k=12,
            picard_c=2.25, picard_max_iter=7, picard_tol=1e-9, picard_mode="thm2_H1bH1",
            data_kind="file", data_mass=-0.5, data_width=0.25, data_amplitude=1.5, data_wavevector=(-2, 3),
            data_v_mass=0.125, data_v_width=0.75, data_v_amplitude=-0.5, data_stripe_smoothing=0.02,
            data_u_path="dumps/u0.ksf1", data_v_path="dumps/v0.ksf1", output_dir="runs/a",
            output_dump_fields=True, variant_remark_ii=True,
        )
        assert parse_config_text(EVERY_KEY) == expected
        keys = [line.partition("=")[0].strip() for line in EVERY_KEY.strip().splitlines()]
        assert sorted(keys) == sorted(kslab.cli._CASTERS)
        defaults = ExperimentConfig()
        assert all(getattr(expected, f) != getattr(defaults, f) for f in kslab.cli._KEY_TO_FIELD.values())

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("grid.m = 64\n")

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("picard.c = -3\n")
        with pytest.raises(ConfigError):
            parse_config_text("data.kind = plume\n")
        for removed in ("picard.quadrature = bogus", "time.spacing = geometric", "picard.substeps = 1"):
            with pytest.raises(ConfigError, match="unknown config key"):
                parse_config_text(removed + "\n")
        # a value the solver objects reject is reported under its config key (grid.n = 100: not a power of two)
        for setting in ("picard.max_iter = 0", "picard.tol = 0", "picard.mode = bogus",
                        "grid.n = 100", "time.t_min = 20", "time.k = 1", "grid.l = 0"):
            key = setting.partition(" ")[0]
            with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
                parse_config_text(setting + "\n")
        # a combination that no single value breaks names every key it changed
        with pytest.raises(ConfigError, match=r"^time\.t_min, time\.t_max: "):
            parse_config_text("time.t_min = 2.0\ntime.t_max = 1.0\n")
        # every float key and picard.c take finite numbers only, and the error names the key
        for key, raw in (("picard.c", "inf"), ("picard.c", "nan"), ("data.mass", "nan"), ("data.mass", "inf"),
                         ("data.mass", "-inf"), ("picard.tol", "inf"), ("time.t_max", "nan")):
            with pytest.raises(ConfigError, match=re.escape(key)):
                parse_config_text(f"{key} = {raw}\n")

    @pytest.mark.parametrize("setting", ["picard.c=inf", "data.mass=nan", "data.mass=inf", "picard.tol=inf"])
    def test_non_finite_number_exits_two(self, tmp_path, capsys, setting):
        out = tmp_path / "out"
        args = ["solve", "--config", write_config(tmp_path, FAST_SOLVE), "--override", setting, "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and setting.partition("=")[0] in err
        assert not out.exists()

    def test_config_keys_are_pinned(self):
        """Adding or removing a config option means editing this list."""
        assert sorted(kslab.cli._CASTERS) == [
            "data.amplitude", "data.kind", "data.mass", "data.stripe_smoothing", "data.u_path", "data.v_amplitude",
            "data.v_mass", "data.v_path", "data.v_width", "data.wavevector", "data.width", "grid.l", "grid.n",
            "output.dir", "output.dump_fields", "picard.c", "picard.max_iter", "picard.mode", "picard.tol",
            "time.k", "time.t_max", "time.t_min", "variant.remark_ii",
        ]

    def test_one_default_window(self):
        """The CLI, the solver and the lab take Window's defaults; the lab set-up departs only in K = 32."""
        window = asdict(Window())
        assert asdict(make_window(ExperimentConfig())) == window
        assert make_solver_config(ExperimentConfig()) == SolverConfig()
        assert {name: getattr(SolverConfig(), name) for name in window} == window
        assert {name: getattr(LabSetup(), name) for name in window} == {**window, "num_times": 32}

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# a comment\n\ngrid.n = 128\n")
        assert cfg.grid_n == 128

    def test_overrides_apply_after_file(self, tmp_path):
        path = write_config(tmp_path, FAST_SOLVE)
        cfg = load_config(path, ["grid.n=64", "picard.c=auto"])
        assert cfg.grid_n == 64
        assert cfg.picard_c == "auto"

    def test_validated_once_after_the_overrides(self, tmp_path):
        # the file's grid.n = 100 alone is rejected, an override mends it, and a bad override names its key
        bad_file = write_config(tmp_path, FAST_SOLVE + "grid.n = 100\n", name="bad.cfg")
        with pytest.raises(ConfigError, match=r"^grid\.n: "):
            load_config(bad_file, [])
        assert load_config(bad_file, ["grid.n=32"]).grid_n == 32
        with pytest.raises(ConfigError, match=r"^grid\.n: "):
            load_config(write_config(tmp_path, FAST_SOLVE), ["grid.n=100"])

    def test_malformed_override(self, tmp_path):
        path = write_config(tmp_path, FAST_SOLVE)
        with pytest.raises(ConfigError, match="key=value"):
            load_config(path, ["grid.n:64"])


class TestSolveCommand:
    def test_zero_data_run_exits_zero(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVE)
        out = tmp_path / "out"
        code = main(["solve", "--config", cfg, "--override", "data.mass=0.0",
                     "--out", str(out)])
        assert code == 0
        rows = (out / "norms.csv").read_text().strip().splitlines()
        assert rows[0] == "t,u_l1,t_u_linf,sqrt_t_grad_v_linf,sigma_grad_v_linf,u_h1,v_h1"
        assert len(rows) == 11
        for row in rows[1:]:
            assert all(float(x) == 0.0 for x in row.split(",")[1:])

    def test_small_gaussian_solve(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVE)
        out = tmp_path / "out"
        code = main(["solve", "--config", cfg, "--out", str(out)])
        assert code == 0
        report = json.loads((out / "solution_report.json").read_text())
        assert report["converged"] is True
        assert report["verdict"]["holds"] is True
        assert report["threshold_ok"] is True

    def test_large_mass_exits_one_with_threshold_violation(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVE)
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            code = main(["solve", "--config", cfg,
                         "--override", "data.mass=10.0",
                         "--override", "picard.max_iter=6",
                         "--out", str(out)])
        assert code == 1
        report = json.loads((out / "solution_report.json").read_text())
        if "threshold_ok" in report:
            assert report["threshold_ok"] is False
        else:
            assert "blowup" in report

    def test_overflow_scale_data_fail_with_a_named_blowup(self, tmp_path, capsys):
        # the gradient of this chemical datum overflows its square; the run must still end cleanly
        out = tmp_path / "out"
        with np.errstate(all="ignore"):
            code = main(["solve", "--override", "data.v_mass=1e160", "--override", "grid.n=32",
                         "--override", "time.k=12", "--out", str(out)])
        assert code == 1
        assert "solve failed: non-finite" in capsys.readouterr().err
        report = json.loads((out / "solution_report.json").read_text())
        assert report["converged"] is False
        assert "iteration" in report["blowup"]

    def test_dump_fields_and_norms_subcommand(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVE + "output.dump_fields = true\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "fields_u.ksf1").exists()
        assert (out / "fields_v.ksf1").exists()
        assert main(["norms", "--config", cfg, "--out", str(out)]) == 0
        thm1 = json.loads((out / "norms_thm1.json").read_text())
        report = json.loads((out / "solution_report.json").read_text())
        assert thm1["xy_norm"]["value"] == pytest.approx(
            report["norms_thm1"]["xy_norm"]["value"], rel=1e-12
        )

    @pytest.mark.parametrize("remark_ii", [True, False], ids=["remark_ii", "damped"])
    def test_norms_subcommand_equals_the_solve_report(self, tmp_path, remark_ii):
        # thm2 mode with a chemical datum: the [0, t_min] head of ||grad w||_{L2_t H1} depends on remark_ii
        cfg = write_config(tmp_path, FAST_SOLVE + "picard.mode = thm2_H1bH1\ndata.v_mass = 1e-3\n"
                           f"variant.remark_ii = {str(remark_ii).lower()}\noutput.dump_fields = true\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        assert main(["norms", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "solution_report.json").read_text())
        for name in ("norms_thm1", "norms_thm2"):
            recomputed = json.loads((out / f"{name}.json").read_text())
            assert recomputed.keys() == report[name].keys()
            for key, entry in recomputed.items():
                assert entry.pop("value") == pytest.approx(report[name][key]["value"], rel=1e-12), key
                assert entry == {k: v for k, v in report[name][key].items() if k != "value"}, key

    def test_config_error_exit_code(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 2
        cfg = write_config(tmp_path, "grid.n = 99\n")
        assert main(["solve", "--config", cfg]) == 2

    def test_infinite_side_length_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["solve", "--override", "grid.l=inf", "--out", str(out)]) == 2
        assert "bad value for grid.l: 'inf' (must be finite)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("wavevector, code", [("17,0", 2), ("0,-17", 2), ("16,0", 0), ("-16,16", 0)])
    def test_aliased_wavevector_rejected(self, tmp_path, capsys, wavevector, code):
        """On grid.n = 32 a cosine mode with |k_i| <= 16 is sampled without aliasing; k = 17 would be mode -15."""
        out = tmp_path / "out"
        args = ["solve", "--config", write_config(tmp_path, FAST_SOLVE), "--override", "data.kind=mode",
                "--override", f"data.wavevector={wavevector}", "--override", "data.amplitude=1e-4",
                "--out", str(out)]
        assert main(args) == code
        if code == 2:
            assert "data.wavevector" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["solve", "compare"])
    @pytest.mark.parametrize("fault", ["missing", "truncated", "non_finite", "two_snapshots", "trailing_bytes",
                                       "nonzero_time"])
    def test_bad_initial_data_file_is_a_config_error(self, tmp_path, capsys, command, fault):
        """A field file is exactly one finite KSF1 snapshot at t = 0; anything else exits 2 naming the key."""
        grid = Grid2D(32, 32.0)
        u_path, v_path = tmp_path / "u0.ksf1", tmp_path / "v0.ksf1"
        save_field(v_path, ScalarField.zero(grid))
        if fault != "missing":
            u0 = gaussian_field(grid, 1e-3, 0.5)
            save_field(u_path, u0)
            raw = u_path.read_bytes()
            header = 24  # KSF1: magic, n, l, t; then n*n float64
            if fault == "truncated":
                raw = raw[:-100]
            elif fault == "non_finite":
                raw = raw[: header + 40] + struct.pack("<d", float("nan")) + raw[header + 48 :]
            elif fault == "two_snapshots":  # a trajectory dump with its t = 0 datum is not a field file
                raw = raw + raw[:16] + struct.pack("<d", 0.5) + raw[header:]
            elif fault == "trailing_bytes":
                raw = raw + b"\0" * 4
            else:
                raw = raw[:16] + struct.pack("<d", 0.5) + raw[header:]
            u_path.write_bytes(raw)
        out = tmp_path / "out"
        args = [command, "--config", write_config(tmp_path, FAST_SOLVE), "--override", "data.kind=file",
                "--override", f"data.u_path={u_path}", "--override", f"data.v_path={v_path}", "--out", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"data.u_path {u_path}" in err
        assert not list(out.glob("*.json"))

    @pytest.mark.parametrize("command", ["solve", "compare"])
    @pytest.mark.parametrize("key", ["data.u_path", "data.v_path"])
    def test_field_file_on_another_grid_names_the_key_and_both_grids(self, tmp_path, capsys, command, key):
        paths = {"data.u_path": tmp_path / "u0.ksf1", "data.v_path": tmp_path / "v0.ksf1"}
        for name, path in paths.items():
            save_field(path, ScalarField.zero(Grid2D(64, 16.0) if name == key else Grid2D(32, 32.0)))
        out = tmp_path / "out"
        args = [command, "--config", write_config(tmp_path, FAST_SOLVE), "--override", "data.kind=file",
                "--out", str(out)] + [arg for name, path in paths.items() for arg in ("--override", f"{name}={path}")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"{key} {paths[key]}" in err
        assert "(n, l) = (64, 16.0)" in err and "configured grid (32, 32.0)" in err
        assert not list(out.glob("*.json"))


class TestNormCsvRows:
    """norms.csv reads the solver's final reports; v's columns are 4c times w's entries."""

    @pytest.fixture(scope="class", params=["thm1_L1Linf", "thm2_H1bH1"])
    def report(self, request):
        cfg = SolverConfig(n=32, l=32.0, t_min=1e-2, t_max=1.0, num_times=10, c=2.5, mode=request.param)
        grid = cfg.make_grid()
        w0 = (1.0 / (4.0 * 2.5)) * gaussian_field(grid, 1e-3, 0.7)
        return picard_solve(gaussian_field(grid, 1e-3, 0.5), w0, cfg)

    def test_columns_equal_the_kernels_on_u_and_v(self, report):
        grid, times = report.u.grid, report.u.tgrid.times
        u, cell = report.u.stacked, grid.cell_area
        v_hat = rfft2(report.v.stacked)
        gv = _batch_grad_linf(grid, v_hat)
        expected = np.column_stack([
            times, _batch_lp(u, 1.0, cell), times * _batch_lp(u, np.inf, cell), np.sqrt(times) * gv,
            sigma(times) * gv, _batch_hs(grid, rfft2(u), 1.0), _batch_hs(grid, v_hat, 1.0),
        ])
        np.testing.assert_allclose(np.array(_norm_csv_rows(report)), expected, rtol=1e-13, atol=0)

    def test_rows_make_no_transform(self, report, fft_calls):
        _norm_csv_rows(report)
        assert fft_calls == {"rfft2": 0, "irfft2": 0}


class TestNormsCommand:
    CFG = "grid.n = 32\npicard.c = 2.5\n"

    @staticmethod
    def dump(path, n):
        from kslab import TimeGrid, gaussian_field, heat_trajectory, save_trajectory

        tgrid = TimeGrid.geometric(1e-2, 1.0, 6)
        save_trajectory(path, heat_trajectory(gaussian_field(Grid2D(n, 32.0), 1e-3, 0.5), tgrid))

    def test_mismatched_dumps_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        self.dump(out / "fields_u.ksf1", 32)
        self.dump(out / "fields_v.ksf1", 16)
        cfg = write_config(tmp_path, self.CFG)
        assert main(["norms", "--config", cfg, "--out", str(out)]) == 2
        assert "different grids" in capsys.readouterr().err
        assert not list(out.glob("norms_*.json"))

    def test_truncated_dump_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("fields_u.ksf1", "fields_v.ksf1"):
            self.dump(out / name, 32)
        u_path = out / "fields_u.ksf1"
        u_path.write_bytes(u_path.read_bytes()[:-100])
        cfg = write_config(tmp_path, self.CFG)
        assert main(["norms", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "fields_u.ksf1" in err and "truncated" in err
        assert not list(out.glob("norms_*.json"))

    def test_uniform_time_dump_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        self.dump(out / "fields_v.ksf1", 32)
        field = gaussian_field(Grid2D(32, 32.0), 1e-3, 0.5)
        with open(out / "fields_u.ksf1", "wb") as fh:
            for t in np.linspace(1e-2, 1.0, 6):
                _write_raw_snapshot(fh, field.grid, field.values, t)
        cfg = write_config(tmp_path, self.CFG)
        assert main(["norms", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "fields_u.ksf1" in err and "geometric" in err
        assert not list(out.glob("norms_*.json"))

    @pytest.mark.parametrize("snapshot", [0, 3], ids=["initial", "node"])
    def test_non_finite_dump_rejected(self, tmp_path, capsys, snapshot):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("fields_u.ksf1", "fields_v.ksf1"):
            self.dump(out / name, 32)
        u_path = out / "fields_u.ksf1"
        raw = bytearray(u_path.read_bytes())
        header, payload = 24, 8 * 32 * 32  # KSF1: magic, n, l, t; then n*n float64
        at = snapshot * (header + payload) + header + 8 * 5
        raw[at : at + 8] = struct.pack("<d", float("nan"))
        u_path.write_bytes(bytes(raw))
        cfg = write_config(tmp_path, self.CFG)
        assert main(["norms", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "fields_u.ksf1" in err and "finite" in err
        assert not list(out.glob("norms_*.json"))


class TestCompareCommand:
    def test_zero_data_identical(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVE)
        out = tmp_path / "out"
        code = main(["compare", "--config", cfg, "--override", "data.mass=0.0",
                     "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "compare_summary.json").read_text())
        assert summary["max_rel_diff"] == 0.0

    def test_small_gaussian_within_tolerance(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVE)
        out = tmp_path / "out"
        code = main(["compare", "--config", cfg, "--out", str(out)])
        assert code == 0
        summary = json.loads((out / "compare_summary.json").read_text())
        assert summary["max_rel_diff"] <= 1e-4

    def test_large_time_window_warns_like_solve(self, tmp_path, capsys):
        # sqrt(4T) = 20 exceeds l/4 = 8; the warning goes to stderr only, so the summary keeps its keys
        cfg = write_config(tmp_path, FAST_SOLVE)
        window = ["--override", "grid.n=16", "--override", "time.t_min=1", "--override", "time.t_max=100",
                  "--override", "time.k=8", "--override", "data.mass=0.0"]
        assert main(["solve", "--config", cfg, *window, "--out", str(tmp_path / "solve")]) == 0
        solve_err = capsys.readouterr().err
        assert solve_err.startswith("warning: diffusion length sqrt(4T)=20 exceeds l/4=8")
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, *window, "--out", str(out)]) == 0
        assert capsys.readouterr().err == solve_err
        assert sorted(json.loads((out / "compare_summary.json").read_text())) == [
            "max_rel_diff", "picard_converged", "tolerance"]

    def test_coarse_grid_documented_failure(self, tmp_path, capsys):
        # K=3 starves the trajectory quadrature; the difference must be
        # reported honestly with a refinement hint and exit code 1
        cfg = write_config(tmp_path, FAST_SOLVE)
        out = tmp_path / "out"
        code = main(["compare", "--config", cfg,
                     "--override", "time.k=3",
                     "--override", "data.mass=0.05",
                     "--out", str(out)])
        captured = capsys.readouterr()
        summary = json.loads((out / "compare_summary.json").read_text())
        assert code == 1
        assert "refine the time grid" in captured.err
        assert "time.k" in captured.err and "picard.substeps" not in captured.err
        assert summary["max_rel_diff"] > 1e-4


class TestCounterexampleCommand:
    def test_holds_and_prints_constant(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["counterexample", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "0.103742" in captured.out
        data = json.loads((out / "counterexample.json").read_text())
        assert data["all_hold"] is True
        assert data["point_count"] >= 10


class TestVerifyCommand:
    VERIFY_CFG = "grid.n = 32\ntime.t_min = 1e-3\ntime.t_max = 10.0\ntime.k = 16\n"

    def test_default_suite_passes(self, tmp_path):
        cfg = write_config(tmp_path, self.VERIFY_CFG)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "verify_summary.json").read_text())
        assert summary["failures"] == []
        assert summary["counterexample"]["all_hold"] is True
        for name in ("multiplier", "bilinear", "maxreg"):
            assert summary["drift"][name]["max_drift"] < 0.10
        assert (out / "constants_report.json").exists()
        assert (out / "kernel_norms.csv").exists()
        for path in [*sorted(out.glob("inequality_*.csv")), out / "constants_samples.csv"]:
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            assert rows, path.name
            for row in rows:  # plain numbers, not the repr of a NumPy scalar
                for column in ("lhs", "rhs", "ratio"):
                    float(row[column])

    def test_summary_names_the_pinned_c_and_its_set_up(self, tmp_path):
        cfg = write_config(tmp_path, self.VERIFY_CFG)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "verify_summary.json").read_text())
        pin = summary["auto_c"]
        assert struct.pack("<d", pin["value"]) == struct.pack("<d", AUTO_C)
        assert pin["lab_setup"] == asdict(LabSetup())
        # the lab's c on the configured window sits next to it, and is not the pin's window
        assert summary["constants"]["metadata"]["n"] == 32 and summary["constants"]["c"] != AUTO_C

    def test_forced_inconsistent_c_flagged(self, tmp_path):
        cfg = write_config(tmp_path, self.VERIFY_CFG)
        out = tmp_path / "out"
        code = main(["verify", "--config", cfg,
                     "--override", "picard.c=1e-6", "--out", str(out)])
        assert code == 1
        summary = json.loads((out / "verify_summary.json").read_text())
        assert any("inconsistent" in f for f in summary["failures"])

    def test_kernel_table_off_its_closed_form_fails(self, tmp_path, monkeypatch):
        """Each kernel-table sample is checked against its closed form; a failure names the table, p and t."""
        monkeypatch.setattr(kslab.cli, "kernel_norm_exact", lambda p, t: 2.0 if (p, t) == (2.0, 0.5) else
                            kslab.kernel_norm_exact(p, t))
        out = tmp_path / "out"
        assert main(["verify", "--config", write_config(tmp_path, self.VERIFY_CFG), "--out", str(out)]) == 1
        failures = json.loads((out / "verify_summary.json").read_text())["failures"]
        assert failures == ["kernel_norms p=2.0 t=0.5: off its closed form by more than 1%"]

    def test_grid_below_the_lab_is_a_config_error(self, tmp_path, capsys):
        """grid.n = 16 is a grid, but the lab's random field needs n >= 32: verify writes nothing and exits 2."""
        out = tmp_path / "out"
        assert main(["verify", "--override", "grid.n=16", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "grid.n" in err and ">= 32" in err
        assert not out.exists()

    def test_constants_runs_on_the_grid_below_the_lab(self, tmp_path):
        out = tmp_path / "out"
        assert main(["constants", "--override", "grid.n=16", "--out", str(out)]) == 0
        assert json.loads((out / "constants_report.json").read_text())["metadata"]["n"] == 16

    def test_lab_c_off_the_pin_fails(self, tmp_path, monkeypatch, capsys):
        # take VERIFY_CFG's lab set-up as the pin's and put the pin one ulp off its c
        cfg = write_config(tmp_path, self.VERIFY_CFG)
        setup = LabSetup(**asdict(make_window(load_config(cfg, []))))
        monkeypatch.setattr(kslab.cli, "_PIN_SETUP", setup)
        monkeypatch.setattr(kslab.cli, "AUTO_C", float(np.nextafter(estimate_constants(setup).c, np.inf)))
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 1
        summary = json.loads((out / "verify_summary.json").read_text())
        assert len(summary["failures"]) == 1 and "re-pin AUTO_C" in summary["failures"][0]
        assert "FAIL: the lab's c=" in capsys.readouterr().err


class TestConstantsCommand:
    def test_writes_reports(self, tmp_path):
        cfg = write_config(tmp_path, "grid.n = 32\ntime.t_max = 5.0\ntime.k = 16\n")
        out = tmp_path / "out"
        assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "constants_report.json").read_text())
        assert report["c"] == pytest.approx(
            report["safety_factor"] * max(report["c1"], report["c2"], report["c3"])
        )
        lines = (out / "constants_samples.csv").read_text().splitlines()
        assert lines[0] == "family,params,lhs,rhs,ratio"
        assert len(lines) > 10


class TestDeterminism:
    def test_identical_runs_bit_identical_outputs(self, tmp_path):
        cfg = write_config(tmp_path, FAST_SOLVE + "output.dump_fields = true\n")
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("solution_report.json", "norms.csv", "fields_u.ksf1", "fields_v.ksf1"):
            a = (outs[0] / fname).read_bytes()
            b = (outs[1] / fname).read_bytes()
            assert a == b, f"{fname} differs between identical runs"

    # one file each command is sure to write, so an empty output directory cannot pass
    WRITES = {"norms": "norms_thm2.json", "constants": "constants_samples.csv", "compare": "compare.csv",
              "counterexample": "counterexample.csv", "verify": "verify_summary.json"}

    @pytest.mark.parametrize("command", list(WRITES))
    def test_every_command_writes_identical_files(self, tmp_path, command):
        cfg = write_config(tmp_path, FAST_SOLVE + "output.dump_fields = true\n")
        codes, files = [], []
        for name in ("a", "b"):
            out = tmp_path / name
            if command == "norms":
                assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
            codes.append(main([command, "--config", cfg, "--out", str(out)]))
            files.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert codes[0] == codes[1]
        assert self.WRITES[command] in files[0]
        assert files[0].keys() == files[1].keys()
        for fname, data in files[0].items():
            assert data == files[1][fname], f"{fname} differs between identical runs"


def test_only_cli_imports_csv_or_json():
    """The output formats are decided in one module: no other kslab module imports csv or json."""
    offenders = []
    for path in sorted(Path(kslab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [f"{path.name}: {n}" for n in names if n.split(".")[0] in ("csv", "json")]
    assert [o for o in offenders if not o.startswith("cli.py:")] == []


def test_single_spectral_layout():
    """The rfft2 half spectrum is the only spectral layout: no module imports the full-layout transforms or view."""
    full_layout = {"fft2", "ifft2", "SpectralField", "to_spectral", "from_spectral"}
    offenders = []
    for path in sorted(Path(kslab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                offenders += [f"{path.name}: {alias.name}" for alias in node.names
                              if alias.name in full_layout]
    assert offenders == []
    assert not hasattr(Grid2D(16, 8.0), "k2")


# Exported names that only tests call; perfbench/tracing.py binds them by name,
# so they go when the benchmark reads an in-package trace and the operator layer
# they belong to is deleted (ROADMAP items 4 and 9).
TRACER_BOUND_EXPORTS = [
    "besov_norm", "bilinear_B", "damped_heat_trajectory", "etd_convolve", "grad_besov_sup", "heat_trajectory",
    "hs_dot_norm", "linear_L", "maximal_reg_T",
]


def test_public_surface_is_pinned():
    """Adding or removing an export means editing one of these lists."""
    tree = ast.parse(Path(kslab.__file__).read_text(encoding="utf-8"))
    exported = sorted(alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names)
    assert exported == sorted(TRACER_BOUND_EXPORTS + [
        "BesovEstimate", "ConstantsReport", "CounterexampleResult", "CounterexampleSweep", "EtdPlan", "Grid2D",
        "InequalityReport", "LabSetup", "NormEntry", "NormReport",
        "PicardBlowupError", "ReferenceStepError", "ResolutionError", "ScalarField", "SolutionReport",
        "SolverConfig", "Theorem1Verdict", "Theorem2Verdict", "TimeGrid", "Trajectory",
        "besov_equivalence_samples", "check_theorem1_bound", "check_theorem2_bound", "cosine_mode_field",
        "counterexample_profile", "counterexample_sweep", "default_besov_probe", "default_constants",
        "estimate_constants", "gaussian_field", "grad_heat_kernel_norms",
        "grad_kernel_l1_exact", "gradient", "heat", "heat_kernel_norms", "hs_norm", "kernel_norm_exact",
        "load_field", "load_trajectory", "lp_norm", "picard_solve", "random_band_limited_field",
        "reference_solve", "refinement_drift", "relative_node_differences", "save_field", "save_trajectory",
        "sigma", "smoothed_stripe_field", "stripe_lower_constant", "stripe_profile_exact",
        "verify_bilinear_lemma23", "verify_l4_interpolation", "verify_maximal_regularity",
        "verify_multiplier_lemma", "xy_norms_thm1", "xy_norms_thm2",
    ])


def test_only_fields_imports_the_fft_backend():
    """The transform backend is decided in one module: no module imports scipy.fft or its pocketfft binding,
    and fields, which loads the binding from its file, is the only one that names it."""
    offenders, naming = [], []
    for path in sorted(Path(kslab.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        if "pypocketfft" in source:
            naming.append(path.name)
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            offenders += [f"{path.name}: {n}" for n in names
                          if n.startswith("scipy.fft") or "pocketfft" in n]
    assert offenders == []
    assert naming == ["fields.py"]


def test_semigroup_imports_only_fields_and_trajectories():
    """The flows sit below the norms and the lab: ``semigroup`` imports no kslab module but ``fields`` and
    ``trajectories``, at module level or inside a function, and nothing outside numpy."""
    tree = ast.parse((Path(kslab.__file__).parent / "semigroup.py").read_text(encoding="utf-8"))
    relative = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level > 0}
    absolute = {name.split(".")[0] for _, name in _imports_by_scope(tree)}
    assert relative == {"fields", "trajectories"}
    assert absolute == {"__future__", "numpy"}


def test_only_the_ksf1_reader_opens_files_for_reading():
    """Every KSF1 file is parsed by one function: the only ``open(..., "rb")`` in the package is in it."""
    readers = []
    for path in sorted(Path(kslab.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            readers += [f"{path.name}::{fn.name}" for call in ast.walk(fn)
                        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "open"
                        and any(isinstance(a, ast.Constant) and a.value == "rb"
                                for a in call.args + [k.value for k in call.keywords])]
    assert readers == ["fields.py::_read_snapshots"]


def _imports_by_scope(node, scope=None):
    """(innermost enclosing function's name or None, dotted name) for every absolute import under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _imports_by_scope(child, child.name)
        elif isinstance(child, ast.Import):
            yield from ((scope, alias.name) for alias in child.names)
        elif isinstance(child, ast.ImportFrom) and child.level == 0:
            yield from ((scope, f"{child.module}.{alias.name}") for alias in child.names)
        else:
            yield from _imports_by_scope(child, scope)


def test_the_only_scipy_import_is_the_stripes_erf():
    """No module imports scipy at module level, and the one scipy import anywhere in src is
    ``smoothed_stripe_field``'s function-local ``from scipy.special import erf``."""
    found = [(path.name, scope, name)
             for path in sorted(Path(kslab.__file__).parent.glob("*.py"))
             for scope, name in _imports_by_scope(ast.parse(path.read_text(encoding="utf-8")))
             if name.split(".")[0] == "scipy"]
    assert found == [("data.py", "smoothed_stripe_field", "scipy.special.erf")]


def test_no_module_reads_the_environment():
    """kslab reads no environment variable: no module in src names ``environ`` or ``getenv``, as an
    attribute (``os.environ``, ``os.getenv``), a bare name or an imported name."""
    found = sorted({(path.name, name)
                    for path in sorted(Path(kslab.__file__).parent.glob("*.py"))
                    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                    for name in ([node.attr] if isinstance(node, ast.Attribute)
                                 else [node.id] if isinstance(node, ast.Name)
                                 else [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                                 else [])
                    if name in ("environ", "environb", "getenv", "getenvb")})
    assert found == []


def test_start_up_imports_no_scipy(tmp_path):
    """kslab binds pocketfft's compiled module without importing scipy: neither ``import kslab.cli`` nor a solve
    loads any ``scipy`` module.  Only a stripe loads scipy.special, for erf, and its values are the closed form's."""
    config = write_config(tmp_path, FAST_SOLVE)
    result = run_fresh(f"""
import json, sys
import numpy as np
from kslab import Grid2D, cli
from kslab.data import smoothed_stripe_field

def scipy_modules():
    return sorted(k for k in sys.modules if k.startswith("scipy"))

after_import = scipy_modules()
code = cli.main(["solve", "--config", {config!r}, "--out", {str(tmp_path / "out")!r}])
after_solve = scipy_modules()
grid = Grid2D(32, 16.0)
stripe = smoothed_stripe_field(grid, 0.05, amplitude=1.5).values
after_stripe = scipy_modules()
from scipy.special import erf
w = 2.0 * np.sqrt(0.05)
profile = 0.5 * (erf(grid.x / w) - erf((grid.x - 1.0) / w))
closed_form = 1.5 * np.repeat(profile[:, None], 32, axis=1)
print(json.dumps(dict(after_import=after_import, code=code, after_solve=after_solve,
                      special="scipy.special" in after_stripe, equal=bool(np.array_equal(stripe, closed_form)))))
""")
    assert result["after_import"] == []
    assert result["code"] == 0 and (tmp_path / "out" / "solution_report.json").exists()
    assert result["after_solve"] == []
    assert result["special"] and result["equal"]
