"""CLI tests: config round trips, subcommands, exit codes, determinism."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from kslab import SolverConfig, gaussian_field, picard_solve, sigma
from kslab.cli import (
    ConfigError,
    ExperimentConfig,
    _norm_csv_rows,
    load_config,
    main,
    parse_config_text,
    serialize_config,
)
from kslab.fields import rfft2
from kslab.norms import _batch_grad_linf, _batch_hs, _batch_lp

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


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestConfigParsing:
    def test_defaults_round_trip(self):
        cfg = ExperimentConfig()
        text = serialize_config(cfg)
        assert parse_config_text(text) == cfg

    def test_parse_serialize_parse_identity(self):
        cfg1 = parse_config_text(FAST_SOLVE)
        cfg2 = parse_config_text(serialize_config(cfg1))
        assert cfg1 == cfg2

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text("grid.m = 64\n")

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("grid.n = 100\n")  # not a power of two
        with pytest.raises(ConfigError):
            parse_config_text("time.t_min = 2.0\ntime.t_max = 1.0\n")
        with pytest.raises(ConfigError):
            parse_config_text("picard.mode = bogus\n")
        with pytest.raises(ConfigError):
            parse_config_text("picard.c = -3\n")
        with pytest.raises(ConfigError):
            parse_config_text("data.kind = plume\n")
        for bad in ("time.spacing = bogus", "picard.quadrature = bogus", "picard.substeps = 0",
                    "picard.tol = 0", "picard.max_iter = 0"):
            with pytest.raises(ConfigError):
                parse_config_text(bad + "\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# a comment\n\ngrid.n = 128\n")
        assert cfg.grid_n == 128

    def test_overrides_apply_after_file(self, tmp_path):
        path = write_config(tmp_path, FAST_SOLVE)
        cfg = load_config(path, ["grid.n=64", "picard.c=auto"])
        assert cfg.grid_n == 64
        assert cfg.picard_c == "auto"

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

    def test_config_error_exit_code(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 2
        cfg = write_config(tmp_path, "grid.n = 99\n")
        assert main(["solve", "--config", cfg]) == 2

    def test_infinite_side_length_rejected(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["solve", "--override", "grid.l=inf", "--out", str(out)]) == 2
        assert "side length must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


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
        from kslab import TimeGrid, gaussian_field, heat_trajectory, make_grid, save_trajectory

        tgrid = TimeGrid.geometric(1e-2, 1.0, 6)
        save_trajectory(path, heat_trajectory(gaussian_field(make_grid(n, 32.0), 1e-3, 0.5), tgrid))

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
        assert "time.k" in captured.err and "picard.substeps" in captured.err
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

    def test_forced_inconsistent_c_flagged(self, tmp_path):
        cfg = write_config(tmp_path, self.VERIFY_CFG)
        out = tmp_path / "out"
        code = main(["verify", "--config", cfg,
                     "--override", "picard.c=1e-6", "--out", str(out)])
        assert code == 1
        summary = json.loads((out / "verify_summary.json").read_text())
        assert any("inconsistent" in f for f in summary["failures"])


class TestLabConfig:
    @pytest.mark.parametrize("command", ["verify", "constants"])
    def test_lab_commands_refuse_uniform_spacing(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, "grid.n = 32\ntime.k = 12\ntime.spacing = uniform\n")
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "time.spacing" in capsys.readouterr().err
        assert not any(out.iterdir())


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
