"""Lab tests: estimate ratios, constants, refinement drift, counterexample."""

import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from kslab import (
    ConstantsReport,
    LabSetup,
    SolverConfig,
    bilinear_B,
    cosine_mode_field,
    counterexample_profile,
    counterexample_sweep,
    damped_heat_trajectory,
    default_constants,
    estimate_constants,
    heat_trajectory,
    hs_norm,
    linear_L,
    lp_norm,
    refinement_drift,
    smoothed_stripe_field,
    stripe_lower_constant,
    stripe_profile_exact,
    verify_bilinear_lemma23,
    verify_maximal_regularity,
    verify_multiplier_lemma,
    xy_norms_thm1,
    xy_norms_thm2,
)
from kslab import inequality_lab
from kslab.cli import _write_json, _write_samples
from kslab.duhamel import EtdPlan
from kslab.fields import Grid2D, _grad_values, _rate_layout, rfft2
from kslab.inequality_lab import AUTO_C, standard_families
from kslab.semigroup import _free_flow

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
        _write_samples(path, report.samples)
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
        out = etd_convolve(traj, 1.0 + grid.k2_half)
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

    def test_each_swept_mode_is_transformed_once(self, fft_batches):
        # the samples and the uniformity sweep share one r2c of the swept modes and the random
        # field, stacked; the c2r builds the random field
        verify_bilinear_lemma23(SMALL)
        assert fft_batches == {"rfft2": [(SMALL.effective_mode_cap() + 1,)], "irfft2": [()]}


@pytest.fixture
def binnings(monkeypatch):
    """Count the lab's rate binnings (``norms._rate_parts``) from now on."""
    calls = []
    rate_parts = inequality_lab._rate_parts

    def counted(*args):
        calls.append(1)
        return rate_parts(*args)

    monkeypatch.setattr(inequality_lab, "_rate_parts", counted)
    return calls


class TestRateBinning:
    """Each verifier bins its whole field stack once; every case, weight, profile and symbol scales that binning."""

    @pytest.mark.parametrize("verifier", [verify_bilinear_lemma23, verify_multiplier_lemma, verify_maximal_regularity])
    def test_one_binning_per_verifier_call(self, binnings, verifier):
        verifier(SMALL)
        assert len(binnings) == 1

    @pytest.mark.parametrize("setup, extra_mode", [(SMALL, None), (LabSetup(), None), (LabSetup().doubled(), None),
                                                   (replace(LabSetup().doubled(), mode_cap=58), 58)],
                             ids=["small", "benchmark", "n128", "n128_above_merge"])
    def test_samples_equal_the_per_field_binning(self, monkeypatch, setup, extra_mode):
        """Every sample rebuilt per (case, field): bin pre f with the case weight, contract, scalar time norms.

        The lab's fields have no power above |xi|^2 ~ 17, and n = 128 merges two damped classes at
        |xi|^2 ~ 127.4, so the last case also sweeps mode (58, 0), above the merge: a damped march read at
        a shifted class moves its samples.
        """
        if extra_mode is not None:
            monkeypatch.setattr(inequality_lab, "_SWEEP_MODES", inequality_lab._SWEEP_MODES + (extra_mode,))
        expected = _per_field_samples(setup, seed=0)
        grid, tgrid = setup.make_grid(), setup.make_timegrid()
        # every class of |xi|^2, on which the verifiers evaluate each weight, lies in one class of the damped
        # rates 1+|xi|^2; at n = 128 rounding merges two of them (1911 classes against 1910)
        k2, inverse = _rate_layout(grid.k2_half)
        damped = EtdPlan(1.0 + grid.k2_half, tgrid)
        classes = np.searchsorted(damped.values, 1.0 + k2)
        np.testing.assert_array_equal(classes[inverse], damped.inverse)
        assert damped.values.size == k2.size - (setup.n == 128)
        if extra_mode is not None:
            merged = k2[:-1][np.diff(classes) == 0]
            assert (2.0 * np.pi * extra_mode / setup.l) ** 2 > merged.max()
        for verifier, name in ((verify_bilinear_lemma23, "bilinear_convolution"),
                               (verify_maximal_regularity, "maximal_regularity"),
                               (verify_multiplier_lemma, "multiplier_lemma")):
            report = verifier(setup)
            assert [(s.family, s.params) for s in report.samples] == [e[:2] for e in expected[name]]
            np.testing.assert_allclose([(s.lhs, s.rhs) for s in report.samples], [e[2:] for e in expected[name]],
                                       rtol=1e-13, atol=0, err_msg=name)
        for label, (low, full) in expected["uniformity"].items():
            info = verify_bilinear_lemma23(setup).metadata["uniformity"][label]
            np.testing.assert_allclose((info["low_modes_max"], info["full_sweep_max"]), (low, full), rtol=1e-13)


def _per_field_samples(setup, seed):
    """The three verifiers' samples (family, params, lhs, rhs), each (case, field) binned and normed on its own."""
    from kslab.data import random_band_limited_field
    from kslab.duhamel import _profile_march
    from kslab.inequality_lab import _EQ26_TUPLES, _EQ27_TUPLES, _PROFILES, _SWEEP_MODES, _fmt, _lab_fields
    from kslab.norms import _hs_weight, _parseval_sum, _rank_one_norms, trapezoid

    grid, tgrid = setup.make_grid(), setup.make_timegrid()
    times, k2, cap = tgrid.times, grid.k2_half, setup.effective_mode_cap()

    def time_lp(values, p, v0=None):
        t = times if v0 is None else np.concatenate(([0.0], times))
        values = values if v0 is None else np.concatenate(([v0], values))
        return float(np.max(values)) if np.isinf(p) else float(trapezoid(t, values**p) ** (1.0 / p))

    def binned(plan, coeffs, weight):
        summand = grid.parseval_mult_half * weight * np.abs(coeffs) ** 2
        return grid.l**2 / grid.n**4 * np.bincount(plan.inverse.ravel(), summand.ravel(), minlength=plan.values.size)

    def norm(coeffs, weight):
        return float(np.sqrt(_parseval_sum(grid, np.abs(coeffs) ** 2, weight)))

    def add(out, family, params, lhs, rhs):
        if rhs != 0:
            out.append((family, params, lhs, rhs))

    out = {name: [] for name in ("bilinear_convolution", "maximal_regularity", "multiplier_lemma")}
    # bilinear: 14 cases x the swept modes and the random field x 2 profiles
    plans = {"damped": EtdPlan(1.0 + k2, tgrid), "plain": EtdPlan(k2, tgrid)}
    marches = {(pname, rate): _profile_march(prof, plan) for pname, prof in _PROFILES.items()
               for rate, plan in plans.items()}
    mode_hats = {m: rfft2(cosine_mode_field(grid, (m, 0)).values) for m in range(1, cap + 1)}
    fields = [(f"mode{m}", (("mode", m),), mode_hats[m]) for m in _SWEEP_MODES if m <= cap]
    fields.append(("random", (("seed", seed),), rfft2(random_band_limited_field(grid, seed=seed, max_mode=8).values)))
    cases = [(f"damped[theta={_fmt(theta)},p1={_fmt(p1)},r={_fmt(r)},s={int(s)}]", "damped",
              np.sqrt(k2) ** theta if theta else np.ones_like(k2), p1, r, s, True)
             for theta, p1, r in _EQ27_TUPLES for s in (0.0, 1.0)]
    cases += [(f"plain[p={_fmt(p)},r={_fmt(r)},s={int(s)}]", "plain",
               np.sqrt(k2) ** (2.0 + (0.0 if np.isinf(p) else 2.0 / p) - 2.0 / r), p, r, s, False)
              for p, r in _EQ26_TUPLES for s in (0.0, 1.0)]

    def sides(fhat, rate, pre, p_out, r_in, s, homogeneous, pname):
        weight = _hs_weight(k2, s, homogeneous)
        nodes = _rank_one_norms(marches[pname, rate], binned(plans[rate], pre * fhat, weight))
        prof, f_norm = _PROFILES[pname], norm(fhat, weight)
        return (time_lp(nodes, p_out, v0=0.0),
                time_lp(prof(times) * f_norm, r_in, v0=float(prof(0.0)) * f_norm))

    for group, rate, pre, p_out, r_in, s, homogeneous in cases:
        for fname, fparams, fhat in fields:
            for pname in _PROFILES:
                add(out["bilinear_convolution"], group, fparams + (("field", fname), ("profile", pname)),
                    *sides(fhat, rate, pre, p_out, r_in, s, homogeneous, pname))
    out["uniformity"] = {}
    for label, case in (("damped[theta=0,p1=inf,r=inf,s=0]", ("damped", np.ones_like(k2), np.inf, np.inf, 0.0, True)),
                        ("plain[p=inf,r=inf,s=0]", ("plain", k2, np.inf, np.inf, 0.0, False))):
        ratios = [lhs / rhs for lhs, rhs in (sides(fhat, *case, "const") for fhat in mode_hats.values())]
        out["uniformity"][label] = (max(ratios[: max(1, cap // 2)]), max(ratios))

    # maximal regularity: T g = -|xi|^2 f times each profile's march, over the swept modes
    profiles = {**_PROFILES, "square": lambda t: (np.floor(2.0 * np.asarray(t, dtype=float)) % 2 == 0).astype(float)}
    gaps = np.diff(np.concatenate(([0.0], times)))
    for m in (m for m in _SWEEP_MODES if m <= cap):
        f = cosine_mode_field(grid, (m, 0))
        parts = binned(plans["plain"], -k2 * rfft2(f.values), np.ones_like(k2))
        for pname, prof in profiles.items():
            pv = np.concatenate(([float(prof(0.0))], prof(times)))
            prof_l2 = float(np.sqrt(np.sum(gaps * (pv[:-1] ** 2 + pv[:-1] * pv[1:] + pv[1:] ** 2) / 3.0)))
            nodes = _rank_one_norms(_profile_march(prof, plans["plain"]), parts)
            add(out["maximal_regularity"], "maxreg[p=q=2]", (("mode", m), ("profile", pname)),
                time_lp(nodes, 2.0, v0=0.0), lp_norm(f, 2.0) * prof_l2)

    # multiplier: per field, both H^s weights, every symbol m and m_d = |xi|^delta m over the rates
    rates = plans["plain"].values
    t = times[:, None]
    syms = {"identity": np.ones((times.size, rates.size)), "heat": np.exp(-t * rates),
            "damped": np.exp(-t) * np.exp(-t * rates)}
    for fname, f in _lab_fields(grid, seed):
        vhat = rfft2(f.values)
        for mname, sym in syms.items():
            params = (("multiplier", mname), ("field", fname))
            for s in (0.0, 1.0):
                weight = _hs_weight(k2, s)
                parts, hs_f = binned(plans["plain"], vhat, weight), norm(vhat, weight)
                nodes = _rank_one_norms(sym, parts)
                for r, tag in ((np.inf, "inf"), (2.0, "2")):
                    add(out["multiplier_lemma"], f"formA[r={tag},s={int(s)}]", params,
                        time_lp(nodes, r), time_lp(np.max(np.abs(sym), axis=1), r) * hs_f)
                for delta in (0.0, 1.0):
                    msym = sym * np.sqrt(rates) ** delta if delta else sym
                    sup = float(np.max(np.sqrt(trapezoid(times, msym**2))))
                    add(out["multiplier_lemma"], f"formB[rho=2,delta={int(delta)},s={int(s)}]", params,
                        time_lp(_rank_one_norms(msym, parts), 2.0), sup * hs_f)
    return out


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

    def test_transform_budget(self, fft_calls):
        """Each family's datum is transformed once, its H1 norm included; every other transform is counted below.

        Per family: u's values, w's gradient and L u's gradient (5 c2r).  Per
        (u, w) pair: two ``_div_u_grad_v`` products (2 r2c and 3 c2r each) and
        B's values (1 c2r).
        """
        count = len(standard_families(SMALL.make_grid()))
        estimate_constants(SMALL)
        assert fft_calls == {"rfft2": count + 4 * count**2, "irfft2": 5 * count + 7 * count**2}

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
        _write_json(tmp_path / "c.json", report.to_json_dict())
        _write_samples(tmp_path / "c.csv", report.samples)
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


class TestPinnedConstant:
    """c=auto is the pin AUTO_C: checked against a fresh lab run and the benchmark's reference."""

    def test_pin_is_bit_equal_to_a_fresh_lab_run(self):
        default_constants.cache_clear()
        c = default_constants().c
        assert c == AUTO_C, (f"default_constants().c = {c!r} but AUTO_C = {AUTO_C!r}: the lab's numbers moved; "
                             "re-pin AUTO_C (and c_reference in perfbench/baseline.json)")

    def test_pin_equals_the_benchmark_reference(self):
        baseline = Path(__file__).resolve().parents[1] / "perfbench" / "baseline.json"
        assert json.loads(baseline.read_text(encoding="utf-8"))["c_reference"] == AUTO_C

    def test_auto_c_runs_no_lab(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("c=auto ran estimate_constants")

        default_constants.cache_clear()
        monkeypatch.setattr(inequality_lab, "estimate_constants", refuse)
        assert SolverConfig(c=None).resolve_c() == AUTO_C
        assert SolverConfig(c=3.0).resolve_c() == 3.0


class TestMeasuredRatios:
    def test_l4_interpolation_finite_and_skips_degenerate(self):
        from kslab import verify_l4_interpolation

        report = verify_l4_interpolation(SMALL)
        assert report.samples  # constant field drops out (zero gradient)
        names = {dict(s.params)["field"] for s in report.samples}
        assert "const" not in names
        assert np.isfinite(report.max_ratio)

    def test_l4_samples_match_the_public_heat_trajectory(self):
        from kslab import verify_l4_interpolation
        from kslab.inequality_lab import _lab_fields
        from kslab.norms import _batch_lp, _l2t_grad, trapezoid
        from kslab.trajectories import _initial_hat

        setup = LabSetup(n=32, num_times=12)
        grid, tgrid = setup.make_grid(), setup.make_timegrid()
        times, cell = tgrid.times, grid.cell_area
        expected = {}
        for fname, f in _lab_fields(grid, 0):
            traj = heat_trajectory(f, tgrid)
            l4 = _batch_lp(traj.stacked, 4.0, cell)
            lhs = np.sqrt(trapezoid(times, l4**4) + times[0] * lp_norm(f, 4.0) ** 4)
            sup_l2 = max(float(np.max(_batch_lp(traj.stacked, 2.0, cell))), lp_norm(f, 2.0))
            grad_l2t = _l2t_grad(grid, times, np.abs(rfft2(traj.stacked)) ** 2, _initial_hat(traj),
                                 damped=False)
            if grad_l2t != 0:
                expected[(("field", fname),)] = (lhs, sup_l2 * grad_l2t)
        got = {s.params: (s.lhs, s.rhs) for s in verify_l4_interpolation(setup).samples}
        assert got.keys() == expected.keys()
        for key, sides in expected.items():
            np.testing.assert_allclose(got[key], sides, rtol=1e-12, atol=0, err_msg=str(key))

    def test_besov_equivalence_measured_only(self):
        from kslab import besov_equivalence_samples

        report = besov_equivalence_samples(SMALL)
        assert report.samples
        assert all(np.isfinite(s.ratio) and s.ratio > 0 for s in report.samples)

    def test_besov_equivalence_transforms_each_field_once(self, fft_batches):
        # both heat-flow sups of a field read its one spectrum; the gradient side is grad_besov_sup's bits
        from kslab import TimeGrid, besov_equivalence_samples, grad_besov_sup
        from kslab.inequality_lab import _lab_fields

        report = besov_equivalence_samples(SMALL)
        fields = _lab_fields(SMALL.make_grid(), 0)
        assert fft_batches["rfft2"] == [()] * len(fields)
        probe = TimeGrid.geometric(SMALL.t_max * 1e-6 / 1.1, SMALL.t_max, 48)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            expected = {(("field", name),): grad_besov_sup(f, probe).value for name, f in fields}
        assert {s.params: s.rhs for s in report.samples} == {k: v for k, v in expected.items() if v != 0}


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
        closed, verdict = counterexample_profile(t, [0.15])
        assert verdict == "holds"
        np.testing.assert_array_equal(closed, stripe_profile_exact(t, [0.15]))
        assert counterexample_profile(0.5, [0.15])[1] == "outside hypothesis"
        assert counterexample_profile(t, [0.5])[1] == "outside hypothesis"  # x1 > 2 sqrt(t)

    def test_grid_cross_validation(self):
        sweep = counterexample_sweep()
        grid = Grid2D(512, 8.0)
        for res in sweep.results:
            assert res.max_rel_gap < 0.01
            assert np.all(np.isin(res.x1, grid.x))
            closed, verdict = counterexample_profile(res.t, res.x1)
            np.testing.assert_array_equal(res.closed_form, closed)
            assert res.verdict == verdict

    def test_sweep_transforms_the_stripe_once(self, fft_calls):
        counterexample_sweep()
        assert fft_calls == {"rfft2": 1, "irfft2": 1}

    def test_batched_values_equal_the_per_time_flow(self):
        sweep = counterexample_sweep()
        grid = Grid2D(512, 8.0)
        v_hat = rfft2(smoothed_stripe_field(grid, smoothing_time=(grid.h / 2.0) ** 2).values)
        for res in sweep.results:
            d1 = _grad_values(grid, _free_flow(v_hat, (res.t,), grid.k2_half))[0][0]
            idx = np.searchsorted(grid.x, res.x1)
            np.testing.assert_array_equal(res.grid_values, np.sqrt(res.t) * np.abs(d1[idx, 0]))

    def test_sweep_holds_everywhere(self):
        sweep = counterexample_sweep()
        assert sweep.all_hold
        assert sweep.point_count >= 10
        assert sweep.max_rel_gap < 0.01
        # the rescaled stripe keeps the weighted gradient above one
        assert sweep.normalized_lower_bound >= 1.0
