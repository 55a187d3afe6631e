"""Fixed-point solver tests: convergence, certificates, oracle agreement."""

import numpy as np
import pytest

from kslab import (
    PicardBlowupError,
    QuadratureScheme,
    ScalarField,
    SolverConfig,
    bilinear_B,
    check_theorem1_bound,
    check_theorem2_bound,
    gaussian_field,
    heat_trajectory,
    linear_L,
    make_grid,
    mass_sweep,
    picard_solve,
    reference_solve,
    relative_node_differences,
    xy_norms_thm1,
)

C_TEST = 2.5  # admissible constant for these smoke-scale runs


@pytest.fixture(scope="module")
def cfg():
    return SolverConfig(
        n=64, l=32.0, t_min=1e-2, t_max=2.0, num_times=24, c=C_TEST, tol=1e-12
    )


@pytest.fixture(scope="module")
def grid(cfg):
    return cfg.make_grid()


@pytest.fixture(scope="module")
def small_report(cfg, grid):
    u0 = gaussian_field(grid, 1e-3, 0.5)
    return picard_solve(u0, ScalarField.zero(grid), cfg)


class TestPicardSolve:
    def test_zero_data_exact_zero_in_one_iteration(self, cfg, grid):
        rep = picard_solve(ScalarField.zero(grid), ScalarField.zero(grid), cfg)
        assert rep.converged
        assert rep.iterations == 1
        assert rep.iterate_norms[-1] == 0.0
        assert np.max(np.abs(rep.u.stacked)) == 0.0

    def test_small_gaussian_converges_with_certificate(self, small_report):
        rep = small_report
        assert rep.converged
        assert rep.threshold_ok  # a0 < 3/(32 c^2)
        assert rep.contraction_bound < 1.0
        assert all(f <= rep.contraction_bound for f in rep.contraction_factors)
        assert rep.residuals[-1] <= rep.config.tol

    def test_iterates_stay_in_contraction_ball(self, small_report):
        rep = small_report
        ball = 2.0 * rep.a0
        assert all(x <= ball * (1 + 1e-9) for x in rep.iterate_norms)

    def test_mass_conserved(self, small_report):
        assert small_report.mass_drift_max < 1e-8

    def test_fixed_point_residual(self, small_report, cfg):
        # one more application of the map moves the solution by <= 2 tol
        rep = small_report
        c = rep.c
        free_u = heat_trajectory(rep.u0, rep.u.tgrid)
        bu = bilinear_B(rep.u, rep.w, cfg.quadrature)
        u_again = free_u - (4.0 * c) * bu
        diff = xy_norms_thm1(u_again - rep.u, rep.w - rep.w).value("xy_norm")
        assert diff <= 2.0 * cfg.tol + 1e-15

    def test_rescaled_chemical_is_returned_both_ways(self, small_report):
        rep = small_report
        np.testing.assert_allclose(
            rep.v.stacked, 4.0 * rep.c * rep.w.stacked, atol=1e-15
        )

    def test_blowup_raises_with_diagnostic(self, grid):
        # overflow-scale data blow the iteration up; the error names the node
        cfg = SolverConfig(
            n=64, l=32.0, t_min=1e-2, t_max=2.0, num_times=12,
            c=C_TEST, max_iter=30, tol=1e-12,
        )
        u0 = gaussian_field(grid, 1e8, 0.25)
        w0 = gaussian_field(grid, 1e8, 0.25)
        with np.errstate(all="ignore"), pytest.raises(PicardBlowupError) as err:
            picard_solve(u0, w0, cfg)
        assert err.value.iteration >= 1
        assert err.value.which in ("u", "w")

    # the kernels Picard calls for B and L, under the operators' names
    @pytest.mark.parametrize("operator, which", [("_bilinear_hat", "u"), ("_convolve_hat", "w")],
                             ids=["bilinear_B-u", "linear_L-w"])
    def test_blowup_names_the_overflowing_component(self, monkeypatch, cfg, grid, operator, which):
        import kslab.solver
        from kslab.trajectories import TrajectoryOverflowError

        def overflow(*args, **kwargs):
            raise TrajectoryOverflowError(3)

        monkeypatch.setattr(kslab.solver, operator, overflow)
        with pytest.raises(PicardBlowupError) as err:
            picard_solve(gaussian_field(grid, 1e-3, 0.5), ScalarField.zero(grid), cfg)
        assert err.value.which == which
        assert err.value.node_index == 3
        assert err.value.iteration == 1
        assert err.value.t == cfg.make_timegrid().times[3]

    @pytest.mark.parametrize("mode", ["thm1_L1Linf", "thm2_H1bH1"])
    def test_final_report_is_the_last_iterate_norm(self, mode):
        cfg = SolverConfig(n=32, l=32.0, t_min=1e-2, t_max=2.0, num_times=12, c=C_TEST, mode=mode)
        grid = cfg.make_grid()
        rep = picard_solve(gaussian_field(grid, 0.3, 0.5), gaussian_field(grid, 0.015, 0.7), cfg)
        own = rep.norms_thm1 if mode == "thm1_L1Linf" else rep.norms_thm2
        assert own.value("xy_norm") == rep.iterate_norms[-1]

    def test_wrong_grid_rejected(self, cfg):
        other = make_grid(32, 32.0)
        with pytest.raises(ValueError, match="configured grid"):
            picard_solve(ScalarField.zero(other), ScalarField.zero(other), cfg)


class TestReferenceSolve:
    def test_zero_data(self, cfg, grid):
        u, v = reference_solve(ScalarField.zero(grid), ScalarField.zero(grid), cfg)
        assert np.max(np.abs(u.stacked)) == 0.0
        assert np.max(np.abs(v.stacked)) == 0.0

    def test_linear_regime_exact_heat_flow(self, cfg, grid):
        u0 = gaussian_field(grid, 1e-3, 0.5)
        u, _ = reference_solve(u0, ScalarField.zero(grid), cfg, nonlinear=False)
        free = heat_trajectory(u0, cfg.make_timegrid())
        rel = np.max(np.abs(u.stacked - free.stacked)) / np.max(np.abs(free.stacked))
        assert rel < 1e-10

    def test_matches_picard_small_data(self, cfg, grid, small_report):
        u0 = gaussian_field(grid, 1e-3, 0.5)
        u_ref, v_ref = reference_solve(u0, ScalarField.zero(grid), cfg)
        du = relative_node_differences(small_report.u, u_ref)
        dv = relative_node_differences(small_report.v, v_ref)
        assert np.max(du) <= 1e-4
        assert np.max(dv) <= 1e-4

    def test_matches_picard_with_chemical_data(self, grid):
        cfg = SolverConfig(
            n=64, l=32.0, t_min=1e-2, t_max=2.0, num_times=24, c=C_TEST, tol=1e-12
        )
        u0 = gaussian_field(grid, 1e-3, 0.5)
        v0 = gaussian_field(grid, 5e-4, 0.7)
        rep = picard_solve(u0, (1.0 / (4 * C_TEST)) * v0, cfg)
        u_ref, v_ref = reference_solve(u0, v0, cfg)
        assert np.max(relative_node_differences(rep.u, u_ref)) <= 1e-4
        assert np.max(relative_node_differences(rep.v, v_ref)) <= 1e-4


class TestTheoremBounds:
    def test_zero_solution_trivially_holds(self, cfg, grid):
        rep = picard_solve(ScalarField.zero(grid), ScalarField.zero(grid), cfg)
        verdict = check_theorem1_bound(rep)
        assert verdict.lhs == 0.0
        assert verdict.rhs == 0.0
        assert verdict.holds

    def test_small_gaussian_within_factor_two(self, small_report):
        verdict = check_theorem1_bound(small_report)
        assert verdict.holds
        assert verdict.ratio is not None and verdict.ratio <= 1.0
        assert verdict.sufficient_ok

    def test_ratio_approaches_half_as_mass_shrinks(self, grid):
        # rhs carries the factor 2, so the linearised limit of lhs/rhs is 1/2
        ratios = []
        for mass in (1e-2, 1e-4):
            cfg = SolverConfig(
                n=64, l=32.0, t_min=1e-2, t_max=2.0, num_times=16, c=C_TEST, tol=1e-12
            )
            rep = picard_solve(gaussian_field(grid, mass, 0.5), ScalarField.zero(grid), cfg)
            ratios.append(check_theorem1_bound(rep).ratio)
        assert abs(ratios[1] - 0.5) < abs(ratios[0] - 0.5)

    def test_thm2_bound_for_sobolev_data(self, grid):
        cfg = SolverConfig(
            n=64, l=32.0, t_min=1e-2, t_max=2.0, num_times=24,
            c=C_TEST, tol=1e-12, mode="thm2_H1bH1",
        )
        u0 = gaussian_field(grid, 1e-3, 0.5)
        v0 = gaussian_field(grid, 5e-4, 0.7)
        rep = picard_solve(u0, (1.0 / (4 * C_TEST)) * v0, cfg)
        verdict = check_theorem2_bound(rep)
        assert verdict.hypothesis_satisfied
        assert verdict.holds
        assert verdict.norm_sum <= 2.0 * verdict.eps0

    def test_thm2_hypothesis_gate(self, grid):
        cfg = SolverConfig(
            n=64, l=32.0, t_min=1e-2, t_max=2.0, num_times=16,
            c=C_TEST, tol=1e-12, mode="thm2_H1bH1",
        )
        u0 = gaussian_field(grid, 1e-3, 0.5)
        rep = picard_solve(u0, ScalarField.zero(grid), cfg)
        honest = check_theorem2_bound(rep)
        squeezed = check_theorem2_bound(rep, eps0=honest.data_norm / 2.0)
        assert not squeezed.hypothesis_satisfied
        assert not squeezed.holds
        assert squeezed.norm_sum == honest.norm_sum  # values still reported


class TestMassSweep:
    def test_flags_threshold_violation(self):
        cfg = SolverConfig(
            n=32, l=32.0, t_min=1e-2, t_max=1.0, num_times=10,
            c=C_TEST, max_iter=8, tol=1e-12,
        )
        with np.errstate(all="ignore"):
            rows = mass_sweep((1e-3, 10.0), width=0.5, cfg=cfg)
        assert rows[0].threshold_ok and rows[0].converged
        assert not rows[1].threshold_ok
        assert rows[1].blew_up or not rows[1].converged
        # contraction worsens with mass when measurable
        if rows[1].max_contraction is not None:
            assert rows[1].max_contraction > rows[0].max_contraction


class TestRemarkIIVariant:
    def test_toggle_runs_and_changes_chemical(self, grid):
        cfg = SolverConfig(
            n=64, l=32.0, t_min=1e-2, t_max=2.0, num_times=12, c=C_TEST, tol=1e-10
        )
        cfg_ii = SolverConfig(
            n=64, l=32.0, t_min=1e-2, t_max=2.0, num_times=12,
            c=C_TEST, tol=1e-10, remark_ii=True,
        )
        u0 = gaussian_field(grid, 1e-3, 0.5)
        a = picard_solve(u0, ScalarField.zero(grid), cfg)
        b = picard_solve(u0, ScalarField.zero(grid), cfg_ii)
        assert b.converged
        # without damping the chemical response is strictly larger
        assert np.max(b.v.stacked) > np.max(a.v.stacked)


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            SolverConfig(mode="bogus")
        with pytest.raises(ValueError, match="positive"):
            SolverConfig(c=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)

    def test_unknown_spacing_rejected(self):
        with pytest.raises(ValueError, match="spacing"):
            SolverConfig(spacing="bogus")

    def test_report_json_dict(self, small_report):
        d = small_report.to_json_dict()
        assert d["converged"] is True
        assert d["config"]["n"] == 64
        assert "norms_thm1" in d and "norms_thm2" in d
        assert len(d["residuals"]) == small_report.iterations
