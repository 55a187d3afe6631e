"""Fixed-point solver tests: convergence, certificates, oracle agreement."""

import functools
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from kslab import (
    Grid2D,
    PicardBlowupError,
    ReferenceStepError,
    ScalarField,
    SolverConfig,
    Theorem1Verdict,
    bilinear_B,
    check_theorem1_bound,
    check_theorem2_bound,
    damped_heat_trajectory,
    default_besov_probe,
    gaussian_field,
    grad_besov_sup,
    heat_trajectory,
    hs_norm,
    linear_L,
    lp_norm,
    picard_solve,
    reference_solve,
    relative_node_differences,
    sigma,
    xy_norms_thm1,
    xy_norms_thm2,
)
from kslab.fields import _grad_values, irfft2, rfft2
from kslab.inequality_lab import smallness_threshold
from kslab.norms import _batch_grad_linf, _batch_hs, _batch_lp, _l2t_head
from kslab.semigroup import _free_flow
from conftest import l2t_grad, rescaled_chemical, trajectory_difference

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
        w = rescaled_chemical(rep, ScalarField.zero(rep.u.grid))
        bu = bilinear_B(rep.u, w)
        u_again = trajectory_difference(free_u, (4.0 * c) * bu)
        diff = xy_norms_thm1(trajectory_difference(u_again, rep.u),
                             trajectory_difference(w, w)).value("xy_norm")
        assert diff <= 2.0 * cfg.tol + 1e-15

    def test_rescaled_chemical_is_returned_both_ways(self, small_report):
        # v is 4c times w's node values, bit for bit; w itself is held only as its half spectra
        rep = small_report
        assert np.array_equal(rep.v.stacked, irfft2(rep.w_hat, rep.u.grid.n) * (4.0 * rep.c))
        assert rep.v.initial is rep.v0
        assert not hasattr(rep, "w")

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

    # at each node the sweep steps B's march (for u), then L's (for w): overflow on step 1 or step 2 of node 3
    @pytest.mark.parametrize("march, which", [(1, "u"), (2, "w")], ids=["bilinear_B-u", "linear_L-w"])
    def test_blowup_names_the_overflowing_component(self, monkeypatch, cfg, grid, march, which):
        import kslab.solver

        calls = []
        etd_step = kslab.solver._etd_step

        def overflow(acc, left, right, plan, j):
            etd_step(acc, left, right, plan, j)
            if j == 3:
                calls.append(1)
                if len(calls) == march:
                    acc[...] = np.inf
            return acc

        monkeypatch.setattr(kslab.solver, "_etd_step", overflow)
        with np.errstate(all="ignore"), pytest.raises(PicardBlowupError) as err:
            picard_solve(gaussian_field(grid, 1e-3, 0.5), ScalarField.zero(grid), cfg)
        assert err.value.which == which
        assert err.value.quantity == "iterate"
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
        other = Grid2D(32, 32.0)
        with pytest.raises(ValueError, match="configured grid"):
            picard_solve(ScalarField.zero(other), ScalarField.zero(other), cfg)


class TestWindowReuse:
    """A config keeps its grids and plans between solves, never data: a reused config solves like a fresh one."""

    @staticmethod
    def _config():
        return SolverConfig(n=32, l=32.0, t_min=1e-2, t_max=2.0, num_times=12, c=C_TEST, mode="thm2_H1bH1")

    @staticmethod
    def _data(grid, seed):
        shift = np.random.default_rng(seed).integers(-4, 5, size=2) * grid.h
        centre = (float(shift[0]), float(shift[1]))
        return gaussian_field(grid, 0.3, 0.5, center=centre), gaussian_field(grid, 0.015, 0.7, center=centre)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reused_config_is_bit_identical_to_a_fresh_one(self, seed):
        reused = self._config()
        picard_solve(*self._data(reused.make_grid(), seed + 100), reused)  # an earlier solve on other data
        again = picard_solve(*self._data(reused.make_grid(), seed), reused)
        fresh_cfg = self._config()
        fresh = picard_solve(*self._data(fresh_cfg.make_grid(), seed), fresh_cfg)
        for name in ("u_hat", "w_hat"):
            assert np.array_equal(getattr(again, name), getattr(fresh, name))
        assert np.array_equal(again.u.stacked, fresh.u.stacked)
        assert np.array_equal(again.v.stacked, fresh.v.stacked)
        assert again.to_json_dict() == fresh.to_json_dict()


class TestReferenceSolve:
    def test_zero_data(self, cfg, grid):
        u, v = reference_solve(ScalarField.zero(grid), ScalarField.zero(grid), cfg)
        assert np.max(np.abs(u.stacked)) == 0.0
        assert np.max(np.abs(v.stacked)) == 0.0

    def test_linear_regime_exact_heat_flow(self, cfg, grid):
        # at this mass the nonlinear term moves u by about 4e-12 relative to the heat flow
        u0 = gaussian_field(grid, 1e-9, 0.5)
        u, _ = reference_solve(u0, ScalarField.zero(grid), cfg)
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

    def test_transform_budget(self, fft_calls):
        """2 r2c for the data; per micro-step 2 r2c + 3 c2r; per segment one predictor and two output c2r."""
        cfg = SolverConfig(n=32, l=32.0, t_min=1e-2, t_max=2.0, num_times=12, c=C_TEST)
        grid = cfg.make_grid()
        reference_solve(gaussian_field(grid, 1e-3, 0.5), gaussian_field(grid, 5e-4, 0.7), cfg)
        tgrid = cfg.make_timegrid()
        bounds = np.concatenate(([0.0], tgrid.times))
        steps = sum(max(1, math.ceil((b - a) / (tgrid.min_gap / 4.0))) for a, b in zip(bounds[:-1], bounds[1:]))
        segments = tgrid.count
        assert fft_calls == {"rfft2": 2 + 2 * (steps + segments),
                             "irfft2": 3 * (steps + segments) + 2 * segments}


class TestReferenceStepError:
    """The oracle's doubling guard: a blowing-up large mass raises, a mass just below does not."""

    CFG = SolverConfig(n=32, l=32.0, t_min=1e-2, t_max=2.0, num_times=12, c=C_TEST)

    def test_large_mass_raises_and_names_t(self):
        grid = self.CFG.make_grid()
        with pytest.raises(ReferenceStepError, match="doubled within one step") as err:
            reference_solve(gaussian_field(grid, 120.0, 0.5), ScalarField.zero(grid), self.CFG)
        t = float(re.search(r"near t=(\S+)$", str(err.value)).group(1))
        assert 0.0 < t < self.CFG.t_max

    def test_t_is_the_micro_step_that_doubled(self):
        grid = self.CFG.make_grid()
        doubled = []
        for mass in (100.0, 120.0):
            with pytest.raises(ReferenceStepError) as err:
                reference_solve(gaussian_field(grid, mass, 0.5), ScalarField.zero(grid), self.CFG)
            t = err.value.t
            assert re.search(r"near t=(\S+)$", str(err.value)).group(1) == f"{t:.4g}"
            assert 0.0 < t < self.CFG.t_max
            doubled.append(t)
        # both masses double within the last segment; the larger one earlier in it
        assert doubled[1] < doubled[0]

    def test_mass_below_does_not_raise(self):
        grid = self.CFG.make_grid()
        u0 = gaussian_field(grid, 90.0, 0.5)
        u, v = reference_solve(u0, ScalarField.zero(grid), self.CFG)
        assert np.all(np.isfinite(u.stacked)) and np.all(np.isfinite(v.stacked))
        # strongly nonlinear: the density concentrates far above its linear heat flow ...
        free = heat_trajectory(u0, self.CFG.make_timegrid())
        assert np.max(u.stacked) > 5.0 * np.max(free.stacked)
        # ... and the divergence-form step conserves its mass
        np.testing.assert_allclose(u.stacked.sum(axis=(1, 2)) * grid.cell_area, u0.integral(), rtol=1e-10)


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
        assert verdict.holds
        assert verdict.norm_sum <= 2.0 * verdict.data_norm


@pytest.fixture(scope="module")
def solved(cfg, grid):
    """The suite's Gaussian pair solved once per (mode, remark_ii, v_mass); v_mass = 0 gives v0 = 0."""
    @functools.cache
    def solve(mode, remark_ii, v_mass):
        w0 = (1.0 / (4.0 * C_TEST)) * gaussian_field(grid, v_mass, 0.7)
        return picard_solve(gaussian_field(grid, 1e-3, 0.5), w0, replace(cfg, mode=mode, remark_ii=remark_ii))
    return solve


def _trajectory_sized_arrays(obj, k: int, seen=None) -> list:
    """Every distinct (k, ., .) array reachable from ``obj`` through attributes, containers and dicts."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj] if obj.ndim == 3 and obj.shape[0] == k else []
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    else:
        children = list(getattr(obj, "__dict__", {}).values())
    return [a for child in children for a in _trajectory_sized_arrays(child, k, seen)]


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
        # v0 = 0 here: nothing is transformed; u0's heat flow is Picard's iterate 0
        check_theorem1_bound(small_report)
        assert fft_calls == {"rfft2": 0, "irfft2": 0}

    def test_theorem1_verdict_transforms_a_chemical_datum(self, cfg, solved, fft_batches):
        rep = solved("thm1_L1Linf", False, 1e-3)
        fft_batches.update(rfft2=[], irfft2=[])
        verdict = check_theorem1_bound(rep)
        # v0 once (its heat flow on the grid and the Besov probe share it), each flow's gradient: 2 c2r
        probe = (default_besov_probe().count,)
        assert fft_batches == {"rfft2": [()], "irfft2": [(cfg.num_times,)] * 2 + [probe] * 2}
        grad_b = grad_besov_sup(rep.v0, default_besov_probe()).value
        assert verdict.sufficient_lhs == 2.0 * lp_norm(rep.u0, 1.0) + grad_b / (4.0 * rep.c)

    def test_theorem1_verdict_without_a_chemical_datum_equals_the_transformed_zero_flow(self, small_report):
        rep = small_report
        c, grid, times = rep.c, rep.u.grid, rep.u.tgrid.times
        r = rep.norms_thm1
        lhs = float(np.max(r["u_sup_l1"].nodes + r["u_sup_t_linf"].nodes + r["y_norm"].nodes))
        gv = _batch_grad_linf(grid, _free_flow(rfft2(rep.v0.values), times, grid.k2_half))
        rhs = 2.0 * float(np.max(rep.free_u_x_nodes + np.sqrt(times) * gv / (4.0 * c)))
        sufficient_lhs = 2.0 * lp_norm(rep.u0, 1.0) + 0.0 / (4.0 * c)
        assert check_theorem1_bound(rep) == Theorem1Verdict(
            lhs, rhs, lhs <= rhs * (1.0 + 1e-12), lhs / rhs, sufficient_lhs, rep.threshold,
            sufficient_lhs <= rep.threshold)

    @pytest.mark.parametrize("mode", ["thm1_L1Linf", "thm2_H1bH1"])
    def test_theorem1_rhs_equals_the_transformed_heat_flows(self, cfg, grid, mode):
        # the same bits as transforming both data's plain heat flows
        w0 = (1.0 / (4.0 * C_TEST)) * gaussian_field(grid, 1e-3, 0.7)
        rep = picard_solve(gaussian_field(grid, 1e-3, 0.5), w0, replace(cfg, mode=mode))
        times, cell = rep.u.tgrid.times, grid.cell_area
        free_u = heat_trajectory(rep.u0, rep.u.tgrid).stacked
        gv = _batch_grad_linf(grid, _free_flow(rfft2(rep.v0.values), times, grid.k2_half))
        expected = 2.0 * float(np.max(_batch_lp(free_u, 1.0, cell) + times * _batch_lp(free_u, np.inf, cell)
                                      + np.sqrt(times) * gv / (4.0 * C_TEST)))
        assert check_theorem1_bound(rep).rhs == expected

    @pytest.mark.parametrize("remark_ii", [False, True])
    def test_theorem2_grad_w_term_is_the_reports_entry(self, cfg, grid, remark_ii):
        # a chemical datum makes the closed-form [0, t_min] head of ||grad w||_{L2_t H1} count
        w0 = (1.0 / (4.0 * C_TEST)) * gaussian_field(grid, 1e-3, 0.7)
        rep = picard_solve(gaussian_field(grid, 1e-3, 0.5), w0,
                           replace(cfg, mode="thm2_H1bH1", remark_ii=remark_ii))
        entry = rep.norms_thm2.value("w_grad_l2t_h1")
        assert check_theorem2_bound(rep).terms["l2t_h1_grad_w"] == entry
        # the head follows the chemical flow of the solved system
        w = rescaled_chemical(rep, w0)
        power = np.abs(rfft2(w.stacked)) ** 2
        expected = l2t_grad(grid, w.tgrid.times, power, rfft2(w0.values), damped=not remark_ii)
        assert entry == pytest.approx(expected, rel=1e-13, abs=0)
        assert rep.a0 == rep.iterate_norms[0]

    def test_theorem2_verdict_transforms_the_data_and_w_gradient_per_node(self, cfg, solved, fft_batches):
        rep = solved("thm2_H1bH1", False, 1e-3)
        fft_batches.update(rfft2=[], irfft2=[])
        check_theorem2_bound(rep)
        # u0 and v0, one plane each; the solution's spectra are Picard's, w's gradient two planes per node
        assert fft_batches == {"rfft2": [(), ()], "irfft2": [()] * (2 * cfg.num_times)}

    @pytest.mark.parametrize("remark_ii", [False, True])
    def test_theorem2_mixed_term_equals_the_stacked_gradient_formula(self, grid, solved, remark_ii):
        # per node from the held spectra, the same bits as the whole-stack gradient of w
        rep = solved("thm2_H1bH1", remark_ii, 1e-3)
        sig = sigma(rep.u.tgrid.times)[:, None, None]
        expected = max(float(np.max(np.abs(rep.u.stacked + sign * sig * comp)))
                       for comp in _grad_values(grid, rep.w_hat) for sign in (1.0, -1.0))
        assert check_theorem2_bound(rep).terms["sup_linf_u_pm_sigma_grad_w"] == expected

    @pytest.mark.parametrize("remark_ii", [False, True])
    @pytest.mark.parametrize("v_mass", [0.0, 1e-3])
    def test_theorem2_verdict_equals_the_retransformed_formula(self, grid, solved, remark_ii, v_mass):
        rep = solved("thm2_H1bH1", remark_ii, v_mass)
        c, times = rep.c, rep.u.tgrid.times
        # the same sums over spectra and gradients taken again from the node values of u and w
        uc, wc = rfft2(rep.u.stacked), rfft2(rescaled_chemical(rep).stacked)
        sig = sigma(times)[:, None, None]
        expected = {
            "sup_h1_u_pm_w": float(max(np.max(_batch_hs(grid, uc + sign * wc, 1.0)) for sign in (1.0, -1.0))),
            "sup_linf_u_pm_sigma_grad_w": max(float(np.max(np.abs(rep.u.stacked + sign * sig * comp)))
                                              for comp in _grad_values(grid, wc) for sign in (1.0, -1.0)),
            "l2t_l2_grad_u": l2t_grad(grid, times, np.abs(uc) ** 2, rfft2(rep.u0.values), damped=False, s=0.0),
            "l2t_h1_grad_w": rep.norms_thm2.value("w_grad_l2t_h1"),
        }
        verdict = check_theorem2_bound(rep)
        assert verdict.data_norm == lp_norm(rep.u0, np.inf) + hs_norm(rep.u0, 1.0) + hs_norm(rep.v0, 1.0) / (4.0 * c)
        assert verdict.terms.keys() == expected.keys()
        for name, value in expected.items():
            assert verdict.terms[name] == pytest.approx(value, rel=1e-13, abs=0), name

    def test_report_holds_the_final_iterates_arrays(self, grid, solved):
        rep = solved("thm2_H1bH1", False, 1e-3)
        # the node values and gradient of the same spectra, bit for bit
        assert np.array_equal(irfft2(rep.u_hat, grid.n), rep.u.stacked)
        assert np.array_equal(irfft2(rep.w_hat, grid.n) * (4.0 * rep.c), rep.v.stacked)
        assert not any(a.flags.writeable for a in (rep.u_hat, rep.w_hat))
        assert "u_hat" not in repr(rep) and "u_hat" not in rep.to_json_dict()

    def test_report_holds_four_trajectory_sized_arrays(self, cfg, solved):
        # the spectra and node values of u and w (v = 4c w): no gradient stack, no free flow
        rep = solved("thm2_H1bH1", False, 1e-3)
        assert not hasattr(rep, "w_grad")
        held = (rep.u_hat, rep.w_hat, rep.u.stacked, rep.v.stacked)
        stacks = _trajectory_sized_arrays(rep, cfg.num_times)
        assert all(any(np.shares_memory(a, h) for h in held) for a in stacks)
        assert sum(a.nbytes for a in stacks) <= sum(h.nbytes for h in held)


class TestSmallnessDiagnostics:
    def test_flags_threshold_violation(self):
        cfg = SolverConfig(
            n=32, l=32.0, t_min=1e-2, t_max=1.0, num_times=10,
            c=C_TEST, max_iter=8, tol=1e-12,
        )
        grid = cfg.make_grid()
        base = gaussian_field(grid, 1.0, 0.5)
        small = picard_solve(1e-3 * base, ScalarField.zero(grid), cfg)
        with np.errstate(all="ignore"):
            large = picard_solve(10.0 * base, ScalarField.zero(grid), cfg)
        assert small.threshold_ok and small.converged
        assert not large.threshold_ok and not large.converged
        # contraction worsens with mass (the first factor measures the quadratic term)
        assert max(large.contraction_factors[1:]) > max(small.contraction_factors[1:])

    def test_threshold_is_the_smallness_threshold_of_c(self):
        c = 2.00917  # a c where 3/(32 c**2) and 3/(32 c*c) differ by an ulp
        assert 3.0 / (32.0 * c**2) != 3.0 / (32.0 * c * c)
        cfg = SolverConfig(n=32, l=32.0, t_min=1e-2, t_max=1.0, num_times=10, c=c, max_iter=8, tol=1e-12)
        grid = cfg.make_grid()
        rep = picard_solve(gaussian_field(grid, 1e-3, 0.5), ScalarField.zero(grid), cfg)
        assert rep.converged
        assert rep.threshold == smallness_threshold(c)

    def test_first_contraction_factor_measures_the_quadratic_term(self):
        cfg = SolverConfig(n=32, l=32.0, t_min=1e-2, t_max=1.0, num_times=10, c=C_TEST, tol=1e-12)
        grid = cfg.make_grid()
        rep = picard_solve(0.1 * gaussian_field(grid, 1.0, 0.5), ScalarField.zero(grid), cfg)
        assert len(rep.contraction_factors) >= 2
        # the first ratio measures the quadratic term and dwarfs the contraction rate
        assert rep.contraction_factors[0] > 10.0 * max(rep.contraction_factors[1:])


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
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="c must be finite"):
                SolverConfig(c=bad)
            with pytest.raises(ValueError, match="tolerance must be finite"):
                SolverConfig(tol=bad)

    def test_report_json_dict(self, small_report):
        d = small_report.to_json_dict()
        assert d["converged"] is True
        assert d["config"]["n"] == 64
        assert "substeps" not in d["config"] and "quadrature" not in d["config"]
        assert "norms_thm1" in d and "norms_thm2" in d
        assert len(d["residuals"]) == small_report.iterations


MODES = ["thm1_L1Linf", "thm2_H1bH1"]


def _sweep_run(mode: str, max_iter: int, remark_ii: bool = False):
    """The config, the solve report and the rescaled chemical w of a Gaussian pair."""
    cfg = SolverConfig(n=32, l=32.0, t_min=1e-2, t_max=2.0, num_times=12, c=C_TEST, mode=mode,
                       max_iter=max_iter, tol=1e-12, remark_ii=remark_ii)
    grid = cfg.make_grid()
    u0, w0 = gaussian_field(grid, 0.1, 0.5), gaussian_field(grid, 0.02, 0.7)
    rep = picard_solve(u0, w0, cfg)
    return cfg, rep, rescaled_chemical(rep, w0)


class TestGaussSeidelSweep:
    """Each w iterate answers the u iterate of the same sweep, and the residuals keep their meaning."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("max_iter", [1, 2, 50])
    def test_returned_w_is_the_response_to_the_returned_u(self, mode, max_iter):
        from kslab.solver import _free_chemical_response

        cfg, rep, w = _sweep_run(mode, max_iter)
        grid, tgrid = rep.u.grid, rep.u.tgrid
        # L of the free part in closed form (as the solver takes it), of the deviation by quadrature
        free_u = heat_trajectory(rep.u0, tgrid)
        free_response = irfft2(_free_chemical_response(rfft2(rep.u0.values), tgrid.times, grid.k2_half, True),
                               grid.n)
        w0 = (1.0 / (4.0 * rep.c)) * rep.v0
        deviation = linear_L(trajectory_difference(rep.u, free_u)).stacked
        want = damped_heat_trajectory(w0, tgrid).stacked + (free_response + deviation) / (4.0 * rep.c)
        scale = np.max(np.abs(w.stacked))
        assert np.max(np.abs(w.stacked - want)) <= 1e-12 * scale
        if max_iter == 1:
            # the response to u_0 (the free flow) alone, which a Jacobi sweep returns, is far off
            jacobi = damped_heat_trajectory(w0, tgrid).stacked + free_response / (4.0 * rep.c)
            assert np.max(np.abs(w.stacked - jacobi)) > 1e-6 * scale

    @pytest.mark.parametrize("mode", MODES)
    def test_residuals_are_the_reports_of_the_iterate_differences(self, mode):
        report_of = xy_norms_thm1 if mode == "thm1_L1Linf" else xy_norms_thm2
        _, full, _ = _sweep_run(mode, 3)
        tgrid = full.u.tgrid
        w0 = (1.0 / (4.0 * full.c)) * full.v0
        prev = (heat_trajectory(full.u0, tgrid), damped_heat_trajectory(w0, tgrid))
        for m in range(1, full.iterations + 1):
            _, rep, w = _sweep_run(mode, m)
            assert rep.residuals == full.residuals[:m]
            expected = report_of(trajectory_difference(rep.u, prev[0]),
                                 trajectory_difference(w, prev[1])).value("xy_norm")
            assert rep.residuals[-1] == pytest.approx(expected, rel=1e-10)
            prev = (rep.u, w)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("remark_ii", [False, True], ids=["damped", "remark_ii"])
    def test_one_sweep_equals_the_batched_kernels(self, mode, remark_ii):
        # iterate 2 from iterate 1's held arrays with whole-stack kernels: the node-by-node sweep is bit-equal
        from kslab.duhamel import EtdPlan, _div_u_grad_v, _etd_march
        from kslab.norms import _node_series
        from kslab.solver import _free_chemical_response, _xy_report

        _, prev, _ = _sweep_run(mode, 1, remark_ii)
        cfg, rep, w = _sweep_run(mode, 2, remark_ii)
        assert rep.iterations == 2
        grid, tgrid, c, damped = rep.u.grid, rep.u.tgrid, rep.c, not remark_ii
        times, lam = tgrid.times, grid.k2_half + (1.0 if damped else 0.0)
        u0_hat, w0_hat = rfft2(rep.u0.values), rfft2(w.initial.values)
        free_u_hat = _free_flow(u0_hat, times, grid.k2_half)
        b_hat = _etd_march(_div_u_grad_v(grid, prev.u_hat, prev.w_hat), _div_u_grad_v(grid, u0_hat, w0_hat),
                           EtdPlan(grid.k2_half, tgrid))
        u_hat = free_u_hat - (4.0 * c) * b_hat
        w_affine = _free_flow(w0_hat, times, lam) + (1.0 / (4.0 * c)) * _free_chemical_response(u0_hat, times,
                                                                                               grid.k2_half, damped)
        l_hat = _etd_march(u_hat - free_u_hat, np.zeros_like(u0_hat), EtdPlan(lam, tgrid))
        w_hat = w_affine + (1.0 / (4.0 * c)) * l_hat
        u_vals, w_grad = irfft2(u_hat, grid.n), _grad_values(grid, w_hat)
        assert np.array_equal(rep.u_hat, u_hat) and np.array_equal(rep.w_hat, w_hat)
        assert np.array_equal(rep.u.stacked, u_vals)

        # the iterate's and the residual's reports from whole-stack node series
        thm2 = mode == "thm2_H1bH1"
        heads = (_l2t_head(grid, u0_hat, times[0], False), _l2t_head(grid, w0_hat, times[0], damped))
        spectra = (u_hat, w_hat) if thm2 else ()
        report = _xy_report(thm2, tgrid, 2, _node_series(grid, u_vals, w_grad, *spectra), heads)
        assert rep.iterate_norms[-1] == report.value("xy_norm")
        d_spectra = (u_hat - prev.u_hat, w_hat - prev.w_hat) if thm2 else ()
        d_grad = tuple(g - p for g, p in zip(w_grad, _grad_values(grid, prev.w_hat)))
        change = _node_series(grid, u_vals - prev.u.stacked, d_grad, *d_spectra)
        assert rep.residuals[-1] == _xy_report(thm2, tgrid, 2, change).value("xy_norm")

    def test_memory_peak_is_a_few_trajectory_arrays(self):
        # the sweep holds the iterate, the plans and the free parts' (K, R) rate tables; every temporary is one plane
        cfg = SolverConfig(n=64, l=32.0, t_min=1e-3, t_max=10.0, num_times=64, c=C_TEST)
        grid = cfg.make_grid()
        u0 = gaussian_field(grid, 1e-3, 0.5)
        tracemalloc.start()
        try:
            rep = picard_solve(u0, ScalarField.zero(grid), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.converged
        assert peak / (cfg.num_times * cfg.n**2 * 8) < 7.5

    def test_transform_budget_per_iteration(self, fft_batches):
        """Thm1 mode: 6K c2r and 2K r2c planes per Picard iteration, and every call is one plane."""
        cfg = SolverConfig(n=32, l=32.0, t_min=1e-2, t_max=2.0, num_times=12, c=C_TEST, tol=1e-300)
        grid = cfg.make_grid()
        u0 = gaussian_field(grid, 1e-3, 0.5)
        counts = []
        for max_iter in (2, 3):
            for calls in fft_batches.values():
                calls.clear()
            rep = picard_solve(u0, ScalarField.zero(grid), replace(cfg, max_iter=max_iter))
            assert rep.iterations == max_iter
            counts.append({name: list(calls) for name, calls in fft_batches.items()})
        extra = {name: counts[1][name][len(counts[0][name]):] for name in fft_batches}
        assert len(extra["irfft2"]) == 6 * cfg.num_times
        assert len(extra["rfft2"]) == 2 * cfg.num_times
        assert all(shape == () for run in counts for calls in run.values() for shape in calls)


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
        # the Y entry reads the grad-sup node series; from iteration 1 on, node 3's overflows
        import kslab.norms

        thm1_y = kslab.norms._thm1_y
        calls = []

        def overflow_after_a0(times, grad_sup):
            calls.append(1)
            if len(calls) > 1:
                grad_sup = grad_sup.copy()
                grad_sup[3] = np.inf
            return thm1_y(times, grad_sup)

        monkeypatch.setattr(kslab.norms, "_thm1_y", overflow_after_a0)
        with pytest.raises(PicardBlowupError) as err:
            picard_solve(gaussian_field(grid, 1e-3, 0.5), ScalarField.zero(grid), cfg)
        assert (err.value.iteration, err.value.which, err.value.quantity) == (1, "w", "norm")
        assert err.value.node_index == 3
        assert err.value.t == cfg.make_timegrid().times[3]

    @pytest.mark.parametrize("l1_peak, which, node", [(1.5e308, "u", 2), (6e307, "w", 22)])
    def test_overflowing_xy_sum_names_the_larger_half(self, monkeypatch, cfg, grid, l1_peak, which, node):
        # from iteration 1 on, the L^1 node series peaks at node 2 and t^{1/2} |grad w| at node 22
        # at 1.3e308: both halves are finite, their sum is not
        import kslab.norms

        times = cfg.make_timegrid().times
        thm1_x, thm1_y = kslab.norms._thm1_x, kslab.norms._thm1_y
        seen = {"x": 0, "y": 0}

        def big_l1(times, l1, linf):
            seen["x"] += 1
            if seen["x"] > 1:
                l1 = l1.copy()
                l1[2] = l1_peak
            return thm1_x(times, l1, linf)

        def big_grad(times, grad_sup):
            seen["y"] += 1
            if seen["y"] > 1:
                grad_sup = grad_sup.copy()
                grad_sup[22] = 1.3e308 / np.sqrt(times[22])
            return thm1_y(times, grad_sup)

        monkeypatch.setattr(kslab.norms, "_thm1_x", big_l1)
        monkeypatch.setattr(kslab.norms, "_thm1_y", big_grad)
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
