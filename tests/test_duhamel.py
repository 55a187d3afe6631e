"""Integral-operator tests: closed forms, structure invariants, refinement."""

import numpy as np
import pytest

from kslab import (
    LabSetup,
    QuadratureScheme,
    ScalarField,
    SolverConfig,
    TimeGrid,
    Trajectory,
    bilinear_B,
    cosine_mode_field,
    estimate_constants,
    etd_convolve,
    gaussian_field,
    linear_L,
    make_grid,
    maximal_reg_T,
    picard_solve,
    verify_bilinear_lemma23,
    verify_maximal_regularity,
)
from kslab import duhamel
from kslab.duhamel import _w_left, _w_right


@pytest.fixture(scope="module")
def grid():
    return make_grid(64, 32.0)


@pytest.fixture(scope="module")
def tgrid():
    return TimeGrid.geometric(1e-2, 2.0, 24)


def const_traj(grid, tgrid, field):
    return Trajectory.from_values(grid, tgrid, np.stack([field.values] * tgrid.count), initial=field)


class TestWeights:
    def test_small_z_limits(self):
        z = np.array([0.0, 1e-12])
        np.testing.assert_allclose(_w_left(z), 0.5, atol=1e-12)
        np.testing.assert_allclose(_w_right(z), 0.5, atol=1e-12)
        # first-order behaviour: 1/2 - z/3 and 1/2 - z/6
        z1 = np.array([1e-6])
        np.testing.assert_allclose(_w_left(z1), 0.5 - z1 / 3.0, rtol=1e-9)
        np.testing.assert_allclose(_w_right(z1), 0.5 - z1 / 6.0, rtol=1e-9)

    def test_series_matches_direct_formula_across_cut(self):
        z = np.geomspace(1e-3, 50.0, 400)
        phi1 = -np.expm1(-z) / z
        left_direct = (phi1 - np.exp(-z)) / z
        right_direct = (1.0 - phi1) / z
        np.testing.assert_allclose(_w_left(z), left_direct, rtol=1e-10)
        np.testing.assert_allclose(_w_right(z), right_direct, rtol=1e-10)

    def test_weights_sum_to_constant_rule(self):
        # left + right weight equals the piecewise-constant quadrature of 1
        z = np.geomspace(1e-8, 30.0, 200)
        phi1 = -np.expm1(-z) / z
        np.testing.assert_allclose(_w_left(z) + _w_right(z), phi1, rtol=1e-12)


class TestLinearL:
    def test_zero_input(self, grid, tgrid):
        out = linear_L(Trajectory.zero(grid, tgrid))
        assert np.max(np.abs(out.stacked)) == 0.0

    def test_single_mode_closed_form(self, grid, tgrid):
        f = cosine_mode_field(grid, (2, 0))
        out = linear_L(const_traj(grid, tgrid, f))
        lam = 1.0 + (2 * np.pi * 2 / grid.l) ** 2
        for j in (0, 10, 23):
            t = tgrid.times[j]
            expected = (1 - np.exp(-t * lam)) / lam * f.values
            assert np.max(np.abs(out.stacked[j] - expected)) < 1e-8

    def test_undamped_variant(self, grid, tgrid):
        f = cosine_mode_field(grid, (2, 0))
        out = linear_L(const_traj(grid, tgrid, f), damped=False)
        lam = (2 * np.pi * 2 / grid.l) ** 2
        t = tgrid.times[-1]
        expected = (1 - np.exp(-t * lam)) / lam * f.values
        assert np.max(np.abs(out.stacked[-1] - expected)) < 1e-8

    def test_causality(self, grid, tgrid):
        f = cosine_mode_field(grid, (1, 0))
        base = const_traj(grid, tgrid, f)
        # perturb only the last node
        values = base.stacked.copy()
        values[-1] = values[-1] + cosine_mode_field(grid, (3, 0), 0.5).values
        bumped = Trajectory.from_values(grid, tgrid, values, initial=base.initial)
        out_a = linear_L(base)
        out_b = linear_L(bumped)
        for j in range(tgrid.count - 1):
            np.testing.assert_array_equal(out_a.stacked[j], out_b.stacked[j])
        assert np.max(np.abs(out_a.stacked[-1] - out_b.stacked[-1])) > 0

    def test_head_dropped_reported(self, grid, tgrid):
        f = cosine_mode_field(grid, (1, 0))
        no_init = Trajectory.from_values(grid, tgrid, np.stack([f.values] * tgrid.count), initial=None)
        out = linear_L(no_init)
        assert out.meta["head_included"] is False
        assert out.meta["head_deficit_sup_linf"] > 0
        with_init = linear_L(const_traj(grid, tgrid, f))
        assert with_init.meta["head_included"] is True
        # the dropped head shows up as a deficit at the first node
        gap = np.max(np.abs(out.stacked[0] - with_init.stacked[0]))
        assert gap > 0.5 * out.meta["head_deficit_sup_linf"]


class TestBilinearB:
    def test_constant_chemical_gives_zero(self, grid, tgrid):
        u = const_traj(grid, tgrid, cosine_mode_field(grid, (1, 0)))
        v = const_traj(grid, tgrid, ScalarField(grid, np.ones((grid.n, grid.n))))
        out = bilinear_B(u, v)
        assert np.max(np.abs(out.stacked)) < 1e-15

    def test_bilinearity(self, grid, tgrid):
        u = const_traj(grid, tgrid, cosine_mode_field(grid, (1, 0)))
        v = const_traj(grid, tgrid, cosine_mode_field(grid, (2, 1)))
        a = bilinear_B(3.0 * u, v)
        b = 3.0 * bilinear_B(u, v)
        assert np.max(np.abs(a.stacked - b.stacked)) < 1e-12

    def test_single_mode_closed_form(self, grid, tgrid):
        # cos(k.x) cos(q.x) resolves into four exponentials; each mode k+-q
        # picks up the exactly integrated heat weight
        kv, qv = (1, 0), (2, 1)
        u = const_traj(grid, tgrid, cosine_mode_field(grid, kv))
        v = const_traj(grid, tgrid, cosine_mode_field(grid, qv))
        out = bilinear_B(u, v)
        tp = 2 * np.pi / grid.l
        k = tp * np.array(kv)
        q = tp * np.array(qv)
        x1, x2 = grid.coords()

        def expected(t):
            total = np.zeros((grid.n, grid.n))
            for sk in (1, -1):
                for sq in (1, -1):
                    kk = sk * k + sq * q
                    lam = kk @ kk
                    weight = (1 - np.exp(-t * lam)) / lam if lam > 0 else t
                    coeff = -(kk @ (sq * q)) / 4.0
                    total += coeff * weight * np.cos(kk[0] * x1 + kk[1] * x2)
            return total

        for j in (0, 12, 23):
            t = tgrid.times[j]
            err = np.max(np.abs(out.stacked[j] - expected(t)))
            assert err < 1e-8

    def test_zero_spatial_mean(self, grid, tgrid):
        u = const_traj(grid, tgrid, cosine_mode_field(grid, (1, 0)))
        v = const_traj(grid, tgrid, cosine_mode_field(grid, (2, 1)))
        out = bilinear_B(u, v)
        for values in out.stacked:
            assert abs(ScalarField(grid, values).integral()) < 1e-12

    def test_translation_commutes(self, grid, tgrid):
        u0 = cosine_mode_field(grid, (1, 0))
        v0 = cosine_mode_field(grid, (2, 1))
        base = bilinear_B(const_traj(grid, tgrid, u0), const_traj(grid, tgrid, v0))

        def roll(f):
            return ScalarField(grid, np.roll(f.values, (1, 1), axis=(0, 1)))

        shifted = bilinear_B(
            const_traj(grid, tgrid, roll(u0)), const_traj(grid, tgrid, roll(v0))
        )
        for j in (0, 23):
            np.testing.assert_allclose(
                shifted.stacked[j],
                np.roll(base.stacked[j], (1, 1), axis=(0, 1)),
                atol=1e-13,
            )

    def test_mismatched_grids_rejected(self, grid, tgrid):
        other = make_grid(32, 32.0)
        u = Trajectory.zero(grid, tgrid)
        v = Trajectory.zero(other, tgrid)
        with pytest.raises(ValueError, match="different grids"):
            bilinear_B(u, v)


class TestMaximalRegT:
    def test_constant_in_space_gives_zero(self, grid, tgrid):
        g = const_traj(grid, tgrid, ScalarField(grid, np.full((grid.n, grid.n), 2.0)))
        out = maximal_reg_T(g)
        assert np.max(np.abs(out.stacked)) < 1e-15

    def test_single_mode_closed_form(self, grid, tgrid):
        f = cosine_mode_field(grid, (3, 0))
        out = maximal_reg_T(const_traj(grid, tgrid, f))
        lam = (2 * np.pi * 3 / grid.l) ** 2
        for j in (0, 23):
            t = tgrid.times[j]
            expected = -(1 - np.exp(-t * lam)) * f.values
            assert np.max(np.abs(out.stacked[j] - expected)) < 1e-10

    def test_bounded_ratio_over_sweep(self, grid, tgrid):
        # discrete L2_t L2 ratio stays below 1 for every mode and horizon here
        from kslab.norms import _batch_lp, trapezoid

        for m in (1, 2, 4, 8, 16):
            f = cosine_mode_field(grid, (m, 0))
            traj = const_traj(grid, tgrid, f)
            out = maximal_reg_T(traj)
            lhs_nodes = _batch_lp(out.stacked, 2.0, grid.cell_area)
            lhs = np.sqrt(trapezoid(tgrid.times, lhs_nodes**2))
            rhs_nodes = _batch_lp(traj.stacked, 2.0, grid.cell_area)
            rhs = np.sqrt(trapezoid(tgrid.times, rhs_nodes**2))
            assert lhs / rhs < 1.0


class TestQuadratureScheme:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            QuadratureScheme("simpson", 1)
        with pytest.raises(ValueError, match="substeps"):
            QuadratureScheme("etd_piecewise_linear", 0)

    def test_substep_refinement_orders(self, grid):
        # smooth single-mode data: halving the substep length cuts the update
        # by ~2x for the constant scheme and ~4x for the linear scheme
        tgrid = TimeGrid.geometric(0.05, 2.0, 8)
        f = cosine_mode_field(grid, (2, 0))
        decay = np.exp(-1.3 * tgrid.times)
        traj = Trajectory.from_values(
            grid, tgrid, decay[:, None, None] * f.values[None], initial=f
        )

        def run(kind, substeps):
            scheme = QuadratureScheme(kind, substeps)
            return linear_L(traj, scheme).stacked

        for kind, factor in (("etd_piecewise_constant", 2.0), ("etd_piecewise_linear", 4.0)):
            outs = {s: run(kind, s) for s in (1, 2, 4, 8)}
            change_12 = np.max(np.abs(outs[2] - outs[1]))
            change_24 = np.max(np.abs(outs[4] - outs[2]))
            change_48 = np.max(np.abs(outs[8] - outs[4]))
            assert change_24 <= change_12 / (factor * 0.8)
            assert change_48 <= change_24 / (factor * 0.8)

    def test_piecewise_constant_uses_left_value(self, grid):
        tgrid = TimeGrid.uniform(0.5, 1.0, 2)
        f = cosine_mode_field(grid, (1, 0))
        values = np.stack([f.values, 2 * f.values])
        traj = Trajectory.from_values(grid, tgrid, values, initial=f)
        out = maximal_reg_T(traj, QuadratureScheme("etd_piecewise_constant", 1))
        lam = (2 * np.pi / grid.l) ** 2
        # held-left reconstruction: g = f on [0, 0.5] and on [0.5, 1.0]
        t = 1.0
        expected = -(1 - np.exp(-t * lam)) * f.values
        assert np.max(np.abs(out.stacked[1] - expected)) < 1e-10


class TestEtdConvolve:
    def test_matches_linear_l(self, grid, tgrid):
        f = cosine_mode_field(grid, (2, 1))
        traj = const_traj(grid, tgrid, f)
        via_generic = etd_convolve(traj, 1.0 + grid.k2)
        via_l = linear_L(traj)
        assert np.max(np.abs(via_generic.stacked - via_l.stacked)) < 1e-14

    def test_rejects_negative_rates(self, grid, tgrid):
        with pytest.raises(ValueError, match="non-negative"):
            etd_convolve(Trajectory.zero(grid, tgrid), -np.ones((grid.n, grid.n)))

    def test_prefactor_symbol(self, grid, tgrid):
        f = cosine_mode_field(grid, (3, 0))
        traj = const_traj(grid, tgrid, f)
        out = etd_convolve(traj, grid.k2, prefactor=np.sqrt(grid.k2))
        lam = (2 * np.pi * 3 / grid.l) ** 2
        t = tgrid.times[-1]
        expected = np.sqrt(lam) * (1 - np.exp(-t * lam)) / lam * f.values
        assert np.max(np.abs(out.stacked[-1] - expected)) < 1e-10


class TestPlanReuse:
    """Callers that convolve many integrands against the same rates build each plan once."""

    SETUP = LabSetup(n=32, num_times=12)

    @pytest.fixture
    def plan_builds(self, monkeypatch):
        builds = []
        build = duhamel.EtdPlan.__init__

        def counted(plan, *args, **kwargs):
            builds.append(args)
            build(plan, *args, **kwargs)

        monkeypatch.setattr(duhamel.EtdPlan, "__init__", counted)
        return builds

    @pytest.fixture
    def convolutions(self, monkeypatch):
        calls = []
        march = duhamel._etd_march

        def counted(*args, **kwargs):
            calls.append(1)
            return march(*args, **kwargs)

        monkeypatch.setattr(duhamel, "_etd_march", counted)
        return calls

    def test_bilinear_verifier_builds_two(self, plan_builds, convolutions):
        verify_bilinear_lemma23(self.SETUP)
        assert len(plan_builds) == 2
        assert len(convolutions) == 4  # 2 profiles x 2 plans

    def test_maximal_regularity_verifier_builds_one(self, plan_builds, convolutions):
        verify_maximal_regularity(self.SETUP)
        assert len(plan_builds) == 1
        assert len(convolutions) == 3  # 3 profiles x 1 plan

    def test_estimate_constants_builds_two(self, plan_builds, convolutions):
        estimate_constants(self.SETUP)
        assert len(plan_builds) == 2
        assert len(convolutions) == 42  # 6 L and 36 B over the 6 families

    @pytest.mark.parametrize("max_iter, iterations", [(1, 1), (3, 3), (50, 3)])
    def test_picard_solve_builds_two(self, plan_builds, convolutions, max_iter, iterations):
        cfg = SolverConfig(n=32, l=32.0, t_min=1e-2, t_max=2.0, num_times=12, c=2.5, max_iter=max_iter)
        grid = cfg.make_grid()
        report = picard_solve(gaussian_field(grid, 1e-3, 0.5), ScalarField.zero(grid), cfg)
        assert report.iterations == iterations
        assert len(plan_builds) == 2
        assert len(convolutions) == 2 * report.iterations
