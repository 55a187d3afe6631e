"""Lab tests: estimate ratios, constants, refinement drift, counterexample."""

import numpy as np
import pytest
from scipy.integrate import quad

from kslab import (
    ConstantsReport,
    LabSetup,
    bilinear_B,
    cosine_mode_field,
    counterexample_profile,
    counterexample_sweep,
    damped_heat_trajectory,
    estimate_constants,
    heat_trajectory,
    hs_norm,
    linear_L,
    lp_norm,
    refinement_drift,
    stripe_lower_constant,
    stripe_profile_exact,
    verify_bilinear_lemma23,
    verify_maximal_regularity,
    verify_multiplier_lemma,
    xy_norms_thm1,
    xy_norms_thm2,
)
from kslab.fields import Grid2D
from kslab.inequality_lab import standard_families

# small but inside the saturated mode x horizon regime, so observed constants
# are already stable under doubling
SMALL = LabSetup(n=32, l=32.0, t_min=1e-3, t_max=5.0, num_times=16)


class TestMultiplierLemma:
    def test_identity_multiplier_ratio_is_one(self):
        report = verify_multiplier_lemma(SMALL)
        identity = [
            s for s in report.samples
            if dict(s.params)["multiplier"] == "identity" and s.family.startswith("formA")
        ]
        assert identity
        for s in identity:
            assert abs(s.ratio - 1.0) < 1e-9

    def test_all_ratios_bounded_by_one(self):
        # both discrete sides share the quadrature, so the chain of
        # Plancherel/Hoelder steps keeps every ratio at or below one
        report = verify_multiplier_lemma(SMALL)
        assert report.max_ratio <= 1.0 + 1e-9
        assert np.isfinite(report.max_ratio)

    def test_heat_weighted_l2_time_norm_closed_form(self):
        # ||  |k| e^{-t|k|^2} ||_{L2_t}^2 = (1 - e^{-2T|k|^2})/2 for one mode
        T = 5.0
        for kmag in (0.4, 1.0, 3.0):
            exact = np.sqrt((1 - np.exp(-2 * T * kmag**2)) / 2.0)
            by_quad = np.sqrt(
                quad(lambda t: kmag**2 * np.exp(-2 * t * kmag**2), 0, T)[0]
            )
            assert abs(exact - by_quad) < 1e-10
            assert exact <= 2 ** (-0.5) + 1e-12

    def test_report_serialisation(self, tmp_path):
        report = verify_multiplier_lemma(SMALL)
        path = tmp_path / "mult.csv"
        report.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "family,params,lhs,rhs,ratio"
        d = report.to_json_dict()
        assert d["name"] == "multiplier_lemma"
        assert set(d["group_max"]) == {s.family for s in report.samples}


class TestBilinearLemma:
    def test_damped_single_mode_closed_form(self):
        # constant-in-time mode: node value (1 - e^{-t(1+|k|^2)})/(1+|k|^2)
        from kslab import TimeGrid, Trajectory, etd_convolve

        grid = SMALL.make_grid()
        tgrid = SMALL.make_timegrid()
        f = cosine_mode_field(grid, (2, 0))
        traj = Trajectory.from_values(grid, tgrid, np.stack([f.values] * tgrid.count), initial=f)
        out = etd_convolve(traj, 1.0 + grid.k2)
        lam = 1.0 + (2 * np.pi * 2 / grid.l) ** 2
        t = tgrid.times[-1]
        expected = (1 - np.exp(-t * lam)) / lam * f.values
        assert np.max(np.abs(out.stacked[-1] - expected)) < 1e-10

    def test_zero_input_gives_zero(self):
        report = verify_bilinear_lemma23(SMALL)
        assert report.max_ratio > 0  # samples are non-degenerate
        assert np.isfinite(report.max_ratio)

    def test_damped_sup_ratios_at_most_one(self):
        # theta=0, p1=r=inf rows: sup_t (1-e^{-t lam})/lam <= 1
        report = verify_bilinear_lemma23(SMALL)
        rows = [s for s in report.samples if s.family == "damped[theta=0,p1=inf,r=inf,s=0]"]
        assert rows
        assert all(s.ratio <= 1.0 + 1e-9 for s in rows)

    def test_mode_sweep_uniformity(self):
        report = verify_bilinear_lemma23(SMALL)
        for label, info in report.metadata["uniformity"].items():
            assert info["gap"] < 0.10, (label, info)


class TestMaximalRegularity:
    def test_constant_profile_closed_form_ratio(self):
        # per-mode: ||Tg||^2 = int (1-e^{-t lam})^2, ||g||^2 = T
        T = 5.0
        lam = (2 * np.pi * 4 / 32.0) ** 2
        num = quad(lambda t: (1 - np.exp(-t * lam)) ** 2, 0, T)[0]
        ratio = np.sqrt(num / T)
        assert ratio < 1.0

    def test_ratios_below_one_and_subsets_recorded(self):
        report = verify_maximal_regularity(SMALL)
        assert report.max_ratio < 1.0
        subsets = report.metadata["subsets"]
        assert subsets["all"] >= subsets["low_modes"] - 1e-12
        assert subsets["all"] >= subsets["const_only"] - 1e-12

    def test_zero_laplacian_sample_gives_zero(self):
        from kslab import ScalarField, TimeGrid, Trajectory, maximal_reg_T

        grid = SMALL.make_grid()
        tgrid = SMALL.make_timegrid()
        const = ScalarField(grid, np.ones((grid.n, grid.n)))
        traj = Trajectory.from_values(grid, tgrid, np.stack([const.values] * tgrid.count), initial=const)
        out = maximal_reg_T(traj)
        assert np.max(np.abs(out.stacked)) < 1e-14


class TestRefinementDrift:
    def test_multiplier_drift_small(self):
        drift = refinement_drift(verify_multiplier_lemma, SMALL)
        assert drift["max_drift"] < 0.10

    def test_maxreg_drift_small(self):
        drift = refinement_drift(verify_maximal_regularity, SMALL)
        assert drift["max_drift"] < 0.10


class TestConstants:
    def test_report_structure_and_threshold(self):
        report = estimate_constants(SMALL)
        assert report.c1 > 0 and report.c2 > 0 and report.c3 > 0
        assert report.c == pytest.approx(1.5 * max(report.c1, report.c2, report.c3))
        assert report.threshold == pytest.approx(3.0 / (32.0 * report.c**2))
        assert report.observed_max <= report.c

    def test_free_evolution_mass_bound(self):
        # the weighted free-evolution norm of integrable data is < 2x its mass
        report = estimate_constants(SMALL)
        rows = [s for s in report.samples if s.family == "c1[free_u_mass]"]
        assert rows
        assert all(s.ratio <= 2.0 for s in rows)

    def test_monotone_in_family(self):
        grid = SMALL.make_grid()
        fams = standard_families(grid)
        small = estimate_constants(SMALL, families=fams[:3])
        full = estimate_constants(SMALL, families=fams)
        assert small.c1 <= full.c1 + 1e-12
        assert small.c2 <= full.c2 + 1e-12
        assert small.c3 <= full.c3 + 1e-12

    def test_samples_match_the_public_operators(self):
        # every ratio rebuilt from real-space trajectories, B, L and the norm reports
        setup = LabSetup(n=32, num_times=12)
        grid, tgrid = setup.make_grid(), setup.make_timegrid()
        expected = {}
        free = []
        for name, f in standard_families(grid):
            u, w = heat_trajectory(f, tgrid), damped_heat_trajectory(f, tgrid)
            x1, x2 = xy_norms_thm1(u, u).value("x_norm"), xy_norms_thm2(u, u).value("x_norm")
            w1, w2 = xy_norms_thm1(w, w), xy_norms_thm2(w, w)
            free.append((name, u, w, x1, x2, w1.value("y_norm"), w2.value("y_norm")))
            l1, linf, h1 = lp_norm(f, 1.0), lp_norm(f, np.inf), hs_norm(f, 1.0)
            key = (("data", name),)
            expected["c1[free_u_mass]", key] = x1 / l1
            expected["c1[free_w_grad]", key] = w1.value("y_norm") / linf
            expected["c1[free_u_sobolev]", key] = x2 / (h1 + linf)
            expected["c1[free_w_sobolev]", key] = (w2.value("w_sup_h1") + w2.value("w_grad_l2t_h1")) / h1
            expected["c1[free_w_sigma]", key] = w2.value("w_sigma_grad_linf") / h1
        for uname, u, _, x1, x2, _, _ in free:
            lu = linear_L(u)
            expected["c3[thm1]", (("u", uname),)] = xy_norms_thm1(lu, lu).value("y_norm") / x1
            expected["c3[thm2]", (("u", uname),)] = xy_norms_thm2(lu, lu).value("y_norm") / x2
            for wname, _, w, _, _, y1, y2 in free:
                b = bilinear_B(u, w)
                key = (("u", uname), ("w", wname))
                expected["c2[thm1]", key] = xy_norms_thm1(b, b).value("x_norm") / (x1 * y1)
                expected["c2[thm2]", key] = xy_norms_thm2(b, b).value("x_norm") / (x2 * y2)

        got = {(s.family, s.params): s.ratio for s in estimate_constants(setup).samples}
        assert got.keys() == expected.keys()
        for key, ratio in expected.items():
            assert abs(got[key] - ratio) <= 1e-12 * abs(ratio), key

    def test_serialisation(self, tmp_path):
        report = estimate_constants(SMALL)
        report.to_json(tmp_path / "c.json")
        report.to_csv(tmp_path / "c.csv")
        import json

        loaded = json.loads((tmp_path / "c.json").read_text())
        assert loaded["c"] == report.c
        assert loaded["threshold"] == report.threshold

    def test_threshold_example_value(self):
        # formula check: c = 2 gives 3/128
        report = ConstantsReport(
            c1=1.0, c2=2.0, c3=0.5, safety_factor=1.0, c=2.0,
            threshold=3.0 / (32.0 * 4.0), samples=(), metadata={},
        )
        assert report.threshold == pytest.approx(3.0 / 128.0)
        assert report.threshold == pytest.approx(0.0234375)


class TestMeasuredRatios:
    def test_l4_interpolation_finite_and_skips_degenerate(self):
        from kslab import verify_l4_interpolation

        report = verify_l4_interpolation(SMALL)
        assert report.samples  # constant field drops out (zero gradient)
        names = {dict(s.params)["field"] for s in report.samples}
        assert "const" not in names
        assert np.isfinite(report.max_ratio)

    def test_besov_equivalence_measured_only(self):
        from kslab import besov_equivalence_samples

        report = besov_equivalence_samples(SMALL)
        assert report.samples
        assert all(np.isfinite(s.ratio) and s.ratio > 0 for s in report.samples)


class TestCounterexample:
    def test_lower_constant_value(self):
        c0 = stripe_lower_constant()
        by_quad = quad(lambda z: z * np.exp(-(z**2)) / np.sqrt(np.pi), 1.0, 3.0)[0]
        assert abs(c0 - by_quad) < 1e-12
        assert abs(c0 - 0.103742) < 1e-6

    def test_profile_value_inside_window(self):
        assert abs(stripe_profile_exact(0.01, 0.15) - 0.1607) < 1e-4
        assert stripe_profile_exact(0.01, 0.15) >= stripe_lower_constant()

    def test_window_verdicts(self):
        t = 0.01
        inside = counterexample_profile(t, [0.15])
        assert inside.verdict == "holds"
        outside_t = counterexample_profile(0.5, [0.15])
        assert outside_t.verdict == "outside hypothesis"
        outside_x = counterexample_profile(t, [0.5])  # x1 > 2 sqrt(t)
        assert outside_x.verdict == "outside hypothesis"

    def test_grid_cross_validation(self):
        grid = Grid2D(512, 8.0)
        res = counterexample_profile(0.01, [0.125, 0.1875], grid=grid)
        assert res.max_rel_gap is not None and res.max_rel_gap < 0.01
        np.testing.assert_allclose(res.grid_x1, [0.125, 0.1875])

    def test_sweep_holds_everywhere(self):
        sweep = counterexample_sweep()
        assert sweep.all_hold
        assert sweep.point_count >= 10
        assert sweep.max_rel_gap < 0.01
        # the rescaled stripe keeps the weighted gradient above one
        assert sweep.normalized_lower_bound >= 1.0
