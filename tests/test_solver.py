"""Fixed-point solver tests: convergence, certificates, oracle agreement."""

from dataclasses import replace

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
    damped_heat_trajectory,
    gaussian_field,
    heat_trajectory,
    linear_L,
    make_grid,
    mass_sweep,
    picard_solve,
    reference_solve,
    relative_node_differences,
    xy_norms_thm1,
    xy_norms_thm2,
)
from kslab.fields import irfft2, rfft2
from kslab.norms import _batch_grad_linf, _batch_lp, _l2t_grad

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


class TestVerdictsReadTheReports:
    """The verdicts read the final reports' node series and entries instead of re-transforming u and v."""

    @pytest.mark.parametrize("v_mass", [0.0, 1e-3])
    def test_theorem1_lhs_equals_the_sup_sum_of_transformed_v(self, cfg, grid, v_mass):
        w0 = (1.0 / (4.0 * C_TEST)) * gaussian_field(grid, v_mass, 0.7)
        rep = picard_solve(gaussian_field(grid, 1e-3, 0.5), w0, cfg)
        times, u, cell = rep.u.tgrid.times, rep.u.stacked, grid.cell_area
        gv = _batch_grad_linf(grid, rfft2(rep.v.stacked))
        expected = np.max(_batch_lp(u, 1.0, cell) + times * _batch_lp(u, np.inf, cell)
                          + np.sqrt(times) * gv / (4.0 * C_TEST))
        assert check_theorem1_bound(rep).lhs == pytest.approx(expected, rel=1e-13, abs=0)

    def test_theorem1_verdict_transforms_only_the_data(self, small_report, fft_calls):
        # u0's and v0's heat flows: 2 r2c, then u's node values and v's gradient, 3 c2r
        check_theorem1_bound(small_report)
        assert fft_calls == {"rfft2": 2, "irfft2": 3}

    @pytest.mark.parametrize("remark_ii", [False, True])
    def test_theorem2_grad_w_term_is_the_reports_entry(self, cfg, grid, remark_ii):
        # a chemical datum makes the closed-form [0, t_min] head of ||grad w||_{L2_t H1} count
        w0 = (1.0 / (4.0 * C_TEST)) * gaussian_field(grid, 1e-3, 0.7)
        rep = picard_solve(gaussian_field(grid, 1e-3, 0.5), w0,
                           replace(cfg, mode="thm2_H1bH1", remark_ii=remark_ii))
        entry = rep.norms_thm2.value("w_grad_l2t_h1")
        assert check_theorem2_bound(rep).terms["l2t_h1_grad_w"] == entry
        # the head follows the chemical flow of the solved system
        power = np.abs(rfft2(rep.w.stacked)) ** 2
        expected, _ = _l2t_grad(grid, rep.w.tgrid.times, power, rfft2(w0.values), damped=not remark_ii)
        assert entry == pytest.approx(expected, rel=1e-13, abs=0)
        assert rep.a0 == rep.iterate_norms[0]


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

    def test_max_contraction_skips_the_first_factor(self):
        cfg = SolverConfig(n=32, l=32.0, t_min=1e-2, t_max=1.0, num_times=10, c=C_TEST, tol=1e-12)
        grid = cfg.make_grid()
        zero, small = mass_sweep((0.0, 0.1), width=0.5, cfg=cfg)
        rep = picard_solve(0.1 * gaussian_field(grid, 1.0, 0.5), ScalarField.zero(grid), cfg)
        assert len(rep.contraction_factors) >= 2
        # the first ratio measures the quadratic term and dwarfs the contraction rate
        assert rep.contraction_factors[0] > 10.0 * max(rep.contraction_factors[1:])
        assert small.max_contraction == max(rep.contraction_factors[1:])
        assert zero.max_contraction is None  # one iteration: no factor at all


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


MODES = ["thm1_L1Linf", "thm2_H1bH1"]


def _sweep_run(mode: str, max_iter: int):
    cfg = SolverConfig(n=32, l=32.0, t_min=1e-2, t_max=2.0, num_times=12, c=C_TEST, mode=mode,
                       max_iter=max_iter, tol=1e-12)
    grid = cfg.make_grid()
    u0, w0 = gaussian_field(grid, 0.1, 0.5), gaussian_field(grid, 0.02, 0.7)
    return cfg, picard_solve(u0, w0, cfg)


class TestGaussSeidelSweep:
    """Each w iterate answers the u iterate of the same sweep, and the residuals keep their meaning."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("max_iter", [1, 2, 50])
    def test_returned_w_is_the_response_to_the_returned_u(self, mode, max_iter):
        from kslab.solver import _free_chemical_response

        cfg, rep = _sweep_run(mode, max_iter)
        grid, tgrid = rep.u.grid, rep.u.tgrid
        # L of the free part in closed form (as the solver takes it), of the deviation by quadrature
        free_u = heat_trajectory(rep.u0, tgrid)
        free_response = irfft2(_free_chemical_response(grid, rfft2(rep.u0.values), tgrid.times, True), grid.n)
        w0 = (1.0 / (4.0 * rep.c)) * rep.v0
        want = (damped_heat_trajectory(w0, tgrid).stacked
                + (free_response + linear_L(rep.u - free_u, cfg.quadrature).stacked) / (4.0 * rep.c))
        scale = np.max(np.abs(rep.w.stacked))
        assert np.max(np.abs(rep.w.stacked - want)) <= 1e-12 * scale
        if max_iter == 1:
            # the response to u_0 (the free flow) alone, which a Jacobi sweep returns, is far off
            jacobi = damped_heat_trajectory(w0, tgrid).stacked + free_response / (4.0 * rep.c)
            assert np.max(np.abs(rep.w.stacked - jacobi)) > 1e-6 * scale

    @pytest.mark.parametrize("mode", MODES)
    def test_residuals_are_the_reports_of_the_iterate_differences(self, mode):
        report_of = xy_norms_thm1 if mode == "thm1_L1Linf" else xy_norms_thm2
        _, full = _sweep_run(mode, 3)
        tgrid = full.u.tgrid
        w0 = (1.0 / (4.0 * full.c)) * full.v0
        prev = (heat_trajectory(full.u0, tgrid), damped_heat_trajectory(w0, tgrid))
        for m in range(1, full.iterations + 1):
            _, rep = _sweep_run(mode, m)
            assert rep.residuals == full.residuals[:m]
            expected = report_of(rep.u - prev[0], rep.w - prev[1]).value("xy_norm")
            assert rep.residuals[-1] == pytest.approx(expected, rel=1e-10)
            prev = (rep.u, rep.w)

    def test_transform_budget_per_iteration(self, monkeypatch):
        """Thm1 mode: six c2r and two r2c batches of K planes per Picard iteration."""
        import types

        import kslab.fields

        scipy_fft = kslab.fields._sfft
        batches = {"rfft2": [], "irfft2": []}

        def counted(name):
            def transform(a, *args, **kwargs):
                batches[name].append(np.shape(a)[:-2])
                return getattr(scipy_fft, name)(a, *args, **kwargs)
            return transform

        monkeypatch.setattr(kslab.fields, "_sfft", types.SimpleNamespace(
            rfft2=counted("rfft2"), irfft2=counted("irfft2"), fft2=scipy_fft.fft2, ifft2=scipy_fft.ifft2))
        cfg = SolverConfig(n=32, l=32.0, t_min=1e-2, t_max=2.0, num_times=12, c=C_TEST, tol=1e-300)
        grid = cfg.make_grid()
        u0 = gaussian_field(grid, 1e-3, 0.5)
        counts = []
        for max_iter in (2, 3):
            for calls in batches.values():
                calls.clear()
            rep = picard_solve(u0, ScalarField.zero(grid), replace(cfg, max_iter=max_iter))
            assert rep.iterations == max_iter
            counts.append({name: list(calls) for name, calls in batches.items()})
        extra = {name: counts[1][name][len(counts[0][name]):] for name in batches}
        assert len(extra["irfft2"]) == 6
        assert len(extra["rfft2"]) == 2
        assert all(shape == (cfg.num_times,) for calls in extra.values() for shape in calls)


class TestNormOverflow:
    """A finite iterate whose norm overflows is a named blow-up, not a bare ValueError."""

    def test_free_flow_norm_overflow_names_iteration_zero(self):
        # L^1 of a constant 1e304 over 32^2 cells of area 100 exceeds the float range
        cfg = SolverConfig(n=32, l=320.0, t_min=1e-2, t_max=2.0, num_times=12, c=C_TEST)
        grid = cfg.make_grid()
        u0 = ScalarField(grid, np.full((32, 32), 1e304))
        with np.errstate(all="ignore"), pytest.raises(PicardBlowupError) as err:
            picard_solve(u0, ScalarField.zero(grid), cfg)
        assert (err.value.iteration, err.value.which, err.value.quantity) == (0, "u", "norm")
        assert err.value.node_index == 0
        assert "non-finite u norm at iteration 0" in str(err.value)

    def test_iterate_norm_overflow_names_component_and_node(self, monkeypatch, cfg, grid):
        import kslab.norms

        grad_sup = kslab.norms._grad_sup
        calls = []

        def overflow_after_a0(*args, **kwargs):
            out = grad_sup(*args, **kwargs)
            calls.append(1)
            if len(calls) > 1:
                out[3] = np.inf
            return out

        monkeypatch.setattr(kslab.norms, "_grad_sup", overflow_after_a0)
        with pytest.raises(PicardBlowupError) as err:
            picard_solve(gaussian_field(grid, 1e-3, 0.5), ScalarField.zero(grid), cfg)
        assert (err.value.iteration, err.value.which, err.value.quantity) == (1, "w", "norm")
        assert err.value.node_index == 3
        assert err.value.t == cfg.make_timegrid().times[3]

    @pytest.mark.parametrize("l1_peak, which, node", [(1.5e308, "u", 2), (6e307, "w", 22)])
    def test_overflowing_xy_sum_names_the_larger_half(self, monkeypatch, cfg, grid, l1_peak, which, node):
        # from iteration 1 on, L^1 peaks at node 2 and t^{1/2} |grad w| at node 22 at 1.3e308:
        # both halves are finite, their sum is not
        import kslab.norms

        times = cfg.make_timegrid().times
        batch_lp, grad_sup = kslab.norms._batch_lp, kslab.norms._grad_sup
        seen = {"l1": 0, "grad": 0}

        def big_l1(values, p, cell):
            out = batch_lp(values, p, cell)
            if p == 1.0:
                seen["l1"] += 1
                if seen["l1"] > 1:
                    out[2] = l1_peak
            return out

        def big_grad(*args, **kwargs):
            out = grad_sup(*args, **kwargs)
            seen["grad"] += 1
            if seen["grad"] > 1:
                out[22] = 1.3e308 / np.sqrt(times[22])
            return out

        monkeypatch.setattr(kslab.norms, "_batch_lp", big_l1)
        monkeypatch.setattr(kslab.norms, "_grad_sup", big_grad)
        with pytest.raises(PicardBlowupError) as err:
            picard_solve(gaussian_field(grid, 1e-3, 0.5), ScalarField.zero(grid), cfg)
        assert (err.value.iteration, err.value.which, err.value.quantity) == (1, which, "norm")
        assert err.value.node_index == node

    def test_overflow_scale_chemical_datum(self):
        # gradients above 1.3e154 used to overflow their squares in the Y norm
        cfg = SolverConfig(n=32, l=32.0, t_min=1e-3, t_max=10.0, num_times=12, c=C_TEST)
        grid = cfg.make_grid()
        w0 = (1.0 / (4.0 * C_TEST)) * gaussian_field(grid, 1e160, 0.5)
        with np.errstate(all="ignore"), pytest.raises(PicardBlowupError) as err:
            picard_solve(gaussian_field(grid, 1.0, 0.5), w0, cfg)
        assert err.value.iteration >= 1
