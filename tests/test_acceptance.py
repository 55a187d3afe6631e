"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 3 drives the reference time stepper at full resolution and takes a
few minutes; its run is shared by criteria 4, 5 and 7.
"""

import json
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from kslab import (
    LabSetup,
    ScalarField,
    SolverConfig,
    TimeGrid,
    Trajectory,
    besov_norm,
    bilinear_B,
    check_theorem1_bound,
    check_theorem2_bound,
    counterexample_sweep,
    default_constants,
    gaussian_field,
    grad_heat_kernel_norms,
    grad_kernel_l1_exact,
    heat,
    heat_kernel_norms,
    heat_trajectory,
    kernel_norm_exact,
    make_grid,
    picard_solve,
    reference_solve,
    relative_node_differences,
    refinement_drift,
    stripe_lower_constant,
    verify_bilinear_lemma23,
    verify_maximal_regularity,
    verify_multiplier_lemma,
)
from kslab.cli import main as cli_main


def report_line(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def constants():
    return default_constants()


@pytest.fixture(scope="module")
def crit3(constants):
    cfg = SolverConfig(
        n=128, l=32.0, t_min=1e-3, t_max=10.0, num_times=64,
        c=constants.c, tol=1e-11,
    )
    grid = cfg.make_grid()
    u0 = gaussian_field(grid, 1e-3, 0.5)
    w0 = ScalarField.zero(grid)
    report = picard_solve(u0, w0, cfg)
    u_ref, v_ref = reference_solve(u0, ScalarField.zero(grid), cfg)
    return SimpleNamespace(cfg=cfg, grid=grid, u0=u0, report=report, u_ref=u_ref, v_ref=v_ref)


def test_criterion_1_heat_kernel_bounds():
    grid = make_grid(128, 16.0)
    ps = (1.0, 2.0, np.inf)
    ts = (0.1, 0.5, 1.0)
    table = heat_kernel_norms(ps, ts, grid)
    ok = table.all_within_bounds()
    worst = 0.0
    for e in table.entries:
        exact = kernel_norm_exact(e.p, e.t)
        gap = abs(e.value - exact) / exact
        worst = max(worst, gap)
        ok = ok and gap < 0.01
    gtable = grad_heat_kernel_norms((1.0,), ts, grid)
    ok = ok and gtable.all_within_bounds()
    for e in gtable.entries:
        exact = grad_kernel_l1_exact(e.t)
        gap = abs(e.value - exact) / exact
        worst = max(worst, gap)
        ok = ok and gap < 0.01 and e.value <= e.t ** (-0.5)
    report_line(1, ok, f"kernel norms match closed forms (worst gap {worst:.2e}) and sit under the bounds")
    assert ok


def test_criterion_2_counterexample_constant():
    c0 = stripe_lower_constant()
    ok = abs(c0 - (np.exp(-1) - np.exp(-9)) / (2 * np.sqrt(np.pi))) < 1e-15
    ok = ok and abs(c0 - 0.103742) < 1e-6
    sweep = counterexample_sweep()
    ok = ok and sweep.all_hold and sweep.point_count >= 10
    ok = ok and sweep.max_rel_gap is not None and sweep.max_rel_gap < 0.01
    report_line(
        2, ok,
        f"c0={c0:.6f}; {sweep.point_count}-point sweep holds, grid/closed-form gap "
        f"{sweep.max_rel_gap:.2e} < 1%",
    )
    assert ok


@pytest.mark.slow
def test_criterion_3_oracle_equivalence(crit3):
    du = float(np.max(relative_node_differences(crit3.report.u, crit3.u_ref)))
    dv = float(np.max(relative_node_differences(crit3.report.v, crit3.v_ref)))
    ok = crit3.report.converged and du <= 1e-4 and dv <= 1e-4
    report_line(3, ok, f"fixed point vs time stepper: du={du:.2e}, dv={dv:.2e} (<= 1e-4)")
    assert ok


@pytest.mark.slow
def test_criterion_4_contraction_certificate(crit3):
    rep = crit3.report
    bound = rep.contraction_bound
    ok = rep.threshold_ok and bound < 1.0
    ok = ok and all(f <= bound for f in rep.contraction_factors)
    ball = 2.0 * rep.a0
    ok = ok and all(x <= ball * (1 + 1e-9) for x in rep.iterate_norms)
    worst = max(rep.contraction_factors) if rep.contraction_factors else 0.0
    report_line(
        4, ok,
        f"contraction factors <= {worst:.4f} <= bound {bound:.4f}; "
        f"a0={rep.a0:.3e} < threshold {rep.threshold:.3e}; iterates inside radius 2a0",
    )
    assert ok


@pytest.mark.slow
def test_criterion_5_theorem1_bound(crit3):
    verdict = check_theorem1_bound(crit3.report)
    ok = verdict.holds
    report_line(
        5, ok,
        f"weighted sup-sum lhs={verdict.lhs:.4e} <= rhs={verdict.rhs:.4e} "
        f"(ratio {verdict.ratio:.3f})",
    )
    # trend diagnostics only (asymptotics are excluded from pass/fail)
    diag = crit3.report.diagnostics
    print(f"    trend: t||u||_inf argmax at t={diag['t_u_linf_argmax']:.3g}, "
          f"t^(1/2)||grad w||_inf argmax at t={diag['sqrt_t_grad_w_argmax']:.3g}")
    assert ok


def test_criterion_6_theorem2_bound(constants):
    cfg = SolverConfig(
        n=64, l=32.0, t_min=1e-3, t_max=10.0, num_times=64,
        c=constants.c, tol=1e-11, mode="thm2_H1bH1",
    )
    grid = cfg.make_grid()
    u0 = gaussian_field(grid, 1e-3, 0.5)
    v0 = gaussian_field(grid, 5e-4, 0.7)
    rep = picard_solve(u0, (1.0 / (4.0 * constants.c)) * v0, cfg)
    verdict = check_theorem2_bound(rep)  # eps0 = the data norm
    ok = rep.converged and verdict.hypothesis_satisfied and verdict.holds
    report_line(
        6, ok,
        f"Sobolev-mode norm sum {verdict.norm_sum:.4e} <= 2 eps0 = {2 * verdict.eps0:.4e}",
    )
    assert ok


@pytest.mark.slow
def test_criterion_7_conservation_and_structure(crit3):
    rep = crit3.report
    drift_picard = rep.mass_drift_max
    masses = crit3.u_ref.stacked.sum(axis=(1, 2)) * crit3.grid.cell_area
    m0 = crit3.u0.integral()
    drift_ref = float(np.max(np.abs(masses - m0)) / abs(m0))
    ok = drift_picard < 1e-8 and drift_ref < 1e-8

    b_out = bilinear_B(rep.u, rep.w, rep.config.quadrature)
    dc_small = max(abs(ScalarField(b_out.grid, values).integral()) for values in b_out.stacked)
    # unit-scale inputs probe the rounding floor of the divergence structure
    tg = TimeGrid.geometric(1e-2, 2.0, 12)
    from kslab import cosine_mode_field

    g64 = make_grid(64, 32.0)
    uu = Trajectory.from_values(g64, tg, np.stack([cosine_mode_field(g64, (1, 0)).values] * 12),
                                initial=cosine_mode_field(g64, (1, 0)))
    ww = Trajectory.from_values(g64, tg, np.stack([cosine_mode_field(g64, (2, 1)).values] * 12),
                                initial=cosine_mode_field(g64, (2, 1)))
    dc_unit = max(abs(ScalarField(g64, values).integral()) for values in bilinear_B(uu, ww).stacked)
    ok = ok and dc_small <= 1e-12 and dc_unit <= 1e-12

    f = gaussian_field(crit3.grid, 1.0, 0.5)
    two_step = heat(0.4, heat(0.6, f))
    one_step = heat(1.0, f)
    semigroup_gap = float(np.max(np.abs(two_step.values - one_step.values)))
    ok = ok and semigroup_gap < 1e-12

    report_line(
        7, ok,
        f"mass drift picard={drift_picard:.2e}, reference={drift_ref:.2e} (< 1e-8); "
        f"B zero-mean <= {max(dc_small, dc_unit):.2e}; semigroup law gap {semigroup_gap:.2e}",
    )
    assert ok


def test_criterion_8_inequality_suite():
    setup = LabSetup()
    drifts = {}
    bases = {}
    ok = True
    for name, verifier in (
        ("multiplier", verify_multiplier_lemma),
        ("bilinear", verify_bilinear_lemma23),
        ("maxreg", verify_maximal_regularity),
    ):
        drift = refinement_drift(verifier, setup)
        drifts[name] = drift["max_drift"]
        bases[name] = drift["base_report"]
        ok = ok and drift["max_drift"] < 0.10
    for label, info in bases["bilinear"].metadata["uniformity"].items():
        ok = ok and info["gap"] < 0.10
    report_line(
        8, ok,
        "observed-constant drift under (n, K, T) doubling: "
        + ", ".join(f"{k}={v:.3f}" for k, v in drifts.items())
        + " (< 0.10)",
    )
    assert ok


def test_criterion_9_besov_estimator():
    grid = make_grid(256, 48.0)
    mass, s0, T = 1.0, 0.5, 50.0
    f = gaussian_field(grid, mass, s0)
    probe = TimeGrid.geometric(T / 1.1e6, T, 64)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = besov_norm(f, -2.0, np.inf, probe)
    expected = mass / (4.0 * np.pi) * T / (T + s0)
    gap = abs(est.value - expected) / expected
    ok = gap < 0.02
    report_line(9, ok, f"order -2 heat-flow norm {est.value:.6f} within {gap:.2e} of {expected:.6f}")
    assert ok


def test_criterion_10_determinism(tmp_path):
    cfg_text = (
        "grid.n = 32\ngrid.l = 32.0\ntime.t_min = 0.01\ntime.t_max = 1.0\n"
        "time.k = 10\npicard.c = 2.5\ndata.kind = gaussian\ndata.mass = 1e-3\n"
        "data.width = 0.5\noutput.dump_fields = true\n"
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text, encoding="utf-8")
    payloads = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        code = cli_main(["solve", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        payloads.append({
            name: (out / name).read_bytes()
            for name in ("solution_report.json", "norms.csv", "fields_u.ksf1", "fields_v.ksf1")
        })
    ok = all(payloads[0][name] == payloads[1][name] for name in payloads[0])
    report_line(10, ok, "identical configs produce bit-identical reports, CSVs and dumps")
    assert ok
