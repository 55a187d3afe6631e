"""Norm tests: closed-form values, Besov estimator, weighted trajectory norms."""

import warnings

import numpy as np
import pytest

from kslab import (
    Grid2D,
    ScalarField,
    TimeGrid,
    Trajectory,
    besov_norm,
    cosine_mode_field,
    damped_heat_trajectory,
    gaussian_field,
    grad_besov_sup,
    heat_trajectory,
    hs_norm,
    lp_norm,
    random_band_limited_field,
    sigma,
    smoothed_stripe_field,
    stripe_lower_constant,
    xy_norms_thm1,
    xy_norms_thm2,
)
from kslab.cli import _write_json
from kslab.norms import NormEntry, NormReport, _hs_weight, _l2t, _parseval_sum
from kslab.trajectories import TrajectoryOverflowError
from conftest import zero_trajectory


@pytest.fixture(scope="module")
def grid():
    return Grid2D(64, 32.0)


class TestLpNorm:
    def test_constant(self, grid):
        c = -2.5
        f = ScalarField(grid, np.full((grid.n, grid.n), c))
        for p in (1.0, 2.0, 4.0):
            assert np.isclose(lp_norm(f, p), abs(c) * grid.l ** (2.0 / p))
        assert lp_norm(f, np.inf) == abs(c)

    def test_gaussian_closed_forms(self):
        grid = Grid2D(128, 32.0)
        mass, s = 1.8, 0.5
        f = gaussian_field(grid, mass, s)
        assert abs(lp_norm(f, 1.0) - mass) / mass < 1e-8
        assert np.isclose(lp_norm(f, np.inf), mass / (4 * np.pi * s))

    def test_p2_matches_parseval(self, grid):
        f = random_band_limited_field(grid, seed=1)
        assert abs(lp_norm(f, 2.0) - hs_norm(f, 0.0)) / lp_norm(f, 2.0) < 1e-10

    def test_rejects_bad_exponent(self, grid):
        with pytest.raises(ValueError, match="exponent"):
            lp_norm(gaussian_field(grid), 0.5)

    def test_homogeneity_and_triangle(self, grid):
        f = random_band_limited_field(grid, seed=2)
        g = random_band_limited_field(grid, seed=3)
        for p in (1.0, 2.0, np.inf):
            assert np.isclose(lp_norm(-3.0 * f, p), 3.0 * lp_norm(f, p))
            assert lp_norm(ScalarField(grid, f.values + g.values), p) <= lp_norm(f, p) + lp_norm(g, p) + 1e-12


class TestHsNorm:
    def test_s_zero_is_l2(self, grid):
        f = random_band_limited_field(grid, seed=4)
        assert np.isclose(hs_norm(f, 0.0), lp_norm(f, 2.0))

    def test_single_mode_closed_form(self, grid):
        amp = 1.3
        f = cosine_mode_field(grid, (2, 1), amp)
        k2 = (2 * np.pi / grid.l) ** 2 * (4 + 1)
        for s in (-1.0, 0.0, 1.5):
            # |cos| carries half the mass in each of two conjugate modes
            expected = (1 + k2) ** (s / 2) * amp * grid.l / np.sqrt(2)
            assert np.isclose(hs_norm(f, s), expected, rtol=1e-12)

    def test_h1_identity(self, grid):
        from kslab import gradient

        f = random_band_limited_field(grid, seed=5)
        g1, g2 = gradient(f)
        rhs = np.sqrt(lp_norm(f, 2.0) ** 2 + lp_norm(g1, 2.0) ** 2 + lp_norm(g2, 2.0) ** 2)
        assert abs(hs_norm(f, 1.0) - rhs) / rhs < 1e-10

    def test_monotone_in_s(self, grid):
        f = random_band_limited_field(grid, seed=6)
        values = [hs_norm(f, s) for s in (-2.0, -1.0, 0.0, 1.0, 2.0)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(values, values[1:]))


class TestSigma:
    def test_values(self):
        assert sigma(0.0) == 0.0
        assert np.isclose(sigma(1.0), 2 ** (-0.5))
        assert np.isclose(sigma(99.0), np.sqrt(99.0 / 100.0))

    def test_monotone_bounded(self):
        t = np.linspace(0, 50, 200)
        s = sigma(t)
        assert np.all(np.diff(s) > 0)
        assert np.all(s < 1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sigma(-1.0)


class TestBesov:
    def test_zero_field(self, grid):
        probe = TimeGrid.geometric(1e-5, 50.0, 48)
        est = besov_norm(ScalarField.zero(grid), -2.0, np.inf, probe)
        assert est.value == 0.0

    def test_requires_negative_order_and_wide_probe(self, grid):
        probe = TimeGrid.geometric(1e-5, 50.0, 48)
        with pytest.raises(ValueError, match="s < 0"):
            besov_norm(gaussian_field(grid), 0.5, np.inf, probe)
        narrow = TimeGrid.geometric(1e-2, 10.0, 16)
        with pytest.raises(ValueError, match="decades"):
            besov_norm(gaussian_field(grid), -2.0, np.inf, narrow)

    def test_gaussian_order_minus2(self):
        # sup_t t M/(4 pi (t+s0)) over the probe equals M/(4 pi) T/(T+s0)
        grid = Grid2D(256, 48.0)
        mass, s0, T = 1.0, 0.5, 50.0
        f = gaussian_field(grid, mass, s0)
        probe = TimeGrid.geometric(T / 1e6, T, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # supremum sits at the probe edge
            est = besov_norm(f, -2.0, np.inf, probe)
        expected = mass / (4 * np.pi) * T / (T + s0)
        assert abs(est.value - expected) / expected < 0.02
        assert est.at_boundary
        assert est.argmax_time == T

    def test_boundary_warning_emitted(self):
        grid = Grid2D(256, 48.0)
        f = gaussian_field(grid, 1.0, 0.5)
        probe = TimeGrid.geometric(5e-5, 50.0, 48)
        with pytest.warns(UserWarning, match="boundary"):
            besov_norm(f, -2.0, np.inf, probe)

    def test_stripe_gradient_exceeds_lower_constant(self):
        # order -1 norm of the stripe's gradient stays above the window constant
        grid = Grid2D(512, 8.0)
        v0 = smoothed_stripe_field(grid, smoothing_time=(grid.h / 2) ** 2)
        probe = TimeGrid.geometric(2e-4, 2e2 * 1.1, 48)
        est = grad_besov_sup(v0, probe)
        assert est.value >= stripe_lower_constant()

    def test_embedding_constant_l1_into_order_minus2(self):
        # t ||e^{t Lap} f||_inf <= ||f||_L1 / (4 pi), saturated by point-like
        # data; the probe stays inside the window where the box mimics the plane
        grid = Grid2D(128, 32.0)
        probe = TimeGrid.geometric(1.1e-5, 12.0, 48)
        for seed, width in ((7, 0.3), (8, 1.0)):
            f = gaussian_field(grid, 1.0 + 0.3 * seed, width)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                est = besov_norm(f, -2.0, np.inf, probe)
            assert est.value <= lp_norm(f, 1.0) / (4 * np.pi) * (1 + 1e-9)


def _const_traj(grid, tgrid, field):
    return Trajectory.from_values(grid, tgrid, np.stack([field.values] * tgrid.count), initial=field)


class TestXYNormsThm1:
    def test_zero_trajectories(self, grid):
        tg = TimeGrid.geometric(1e-3, 10.0, 16)
        z = zero_trajectory(grid, tg)
        report = xy_norms_thm1(z, z)
        assert report.value("x_norm") == 0.0
        assert report.value("y_norm") == 0.0
        assert report.value("xy_norm") == 0.0

    def test_free_gaussian_mass_component(self, grid):
        tg = TimeGrid.geometric(1e-3, 10.0, 32)
        mass = 0.7
        u = heat_trajectory(gaussian_field(grid, mass, 0.5), tg)
        report = xy_norms_thm1(u, zero_trajectory(grid, tg))
        assert abs(report.value("u_sup_l1") - mass) / mass < 1e-8

    def test_free_evolution_bounded_by_twice_mass(self, grid):
        # the weighted free-evolution norm stays below twice the initial mass
        tg = TimeGrid.geometric(1e-3, 10.0, 32)
        mass = 0.7
        u0 = gaussian_field(grid, mass, 0.5)
        u = heat_trajectory(u0, tg)
        report = xy_norms_thm1(u, zero_trajectory(grid, tg))
        assert report.value("x_norm") <= 2.0 * lp_norm(u0, 1.0)

    def test_requires_shared_timegrid(self, grid):
        u = zero_trajectory(grid, TimeGrid.geometric(1e-3, 10.0, 16))
        w = zero_trajectory(grid, TimeGrid.geometric(1e-3, 10.0, 17))
        with pytest.raises(ValueError, match="time grid"):
            xy_norms_thm1(u, w)


class TestXYNormsThm2:
    def test_zero_trajectories(self, grid):
        tg = TimeGrid.geometric(1e-3, 10.0, 16)
        z = zero_trajectory(grid, tg)
        report = xy_norms_thm2(z, z)
        assert report.value("xy_norm") == 0.0

    def test_single_mode_time_integral_closed_form(self, grid):
        # int_0^T ||grad e^{t Lap} u0||_{H1}^2 dt for one cosine mode
        tg = TimeGrid.geometric(1e-3, 10.0, 64)
        amp = 0.9
        u0 = cosine_mode_field(grid, (1, 0), amp)
        u = heat_trajectory(u0, tg)
        report = xy_norms_thm2(u, zero_trajectory(grid, tg))
        k2 = (2 * np.pi / grid.l) ** 2
        l2_sq = (amp * grid.l / np.sqrt(2)) ** 2
        exact = np.sqrt(k2 * (1 + k2) * l2_sq * (1 - np.exp(-2 * tg.t_max * k2)) / (2 * k2))
        got = report.value("u_grad_l2t_h1")
        assert abs(got - exact) / exact < 0.005

    def test_head_note_records_handling(self, grid):
        tg = TimeGrid.geometric(1e-3, 10.0, 16)
        with_initial = heat_trajectory(gaussian_field(grid, 1.0, 0.5), tg)
        report = xy_norms_thm2(with_initial, zero_trajectory(grid, tg))
        assert "closed form" in report["u_grad_l2t_h1"].note
        bare = Trajectory.from_values(grid, tg, with_initial.stacked, initial=None)
        report2 = xy_norms_thm2(bare, zero_trajectory(grid, tg))
        assert "dropped" in report2["u_grad_l2t_h1"].note
        assert report2.value("u_grad_l2t_h1") <= report.value("u_grad_l2t_h1")

    def test_damped_gaussian_sigma_weighted_sup(self, grid):
        # finite and controlled by the Sobolev size of the datum
        tg = TimeGrid.geometric(1e-3, 10.0, 64)
        w0 = gaussian_field(grid, 1.0, 0.5)
        w = damped_heat_trajectory(w0, tg)
        report = xy_norms_thm2(zero_trajectory(grid, tg), w)
        value = report.value("w_sigma_grad_linf")
        assert 0 < value <= hs_norm(w0, 1.0)

    def test_grid_refinement_stability(self):
        # norm reports agree between n and 2n once the data are resolved
        tg = TimeGrid.geometric(1e-3, 10.0, 32)
        vals = {}
        for n in (32, 64):
            g = Grid2D(n, 32.0)
            u = heat_trajectory(gaussian_field(g, 1.0, 1.0), tg)
            w = damped_heat_trajectory(gaussian_field(g, 0.5, 0.8), tg)
            r1 = xy_norms_thm1(u, w)
            r2 = xy_norms_thm2(u, w)
            vals[n] = (r1.value("xy_norm"), r2.value("xy_norm"))
        for a, b in zip(vals[32], vals[64]):
            assert abs(a - b) / b < 0.01


class TestNodeSeries:
    def test_sup_entries_keep_their_read_only_node_series(self, grid):
        tg = TimeGrid.geometric(1e-3, 10.0, 16)
        u = heat_trajectory(gaussian_field(grid, 1.0, 0.5), tg)
        w = damped_heat_trajectory(gaussian_field(grid, 0.5, 0.7), tg)
        report = xy_norms_thm1(u, w)
        for name in ("u_sup_l1", "u_sup_t_linf", "y_norm"):
            entry = report[name]
            assert entry.nodes.shape == (tg.count,) and not entry.nodes.flags.writeable
            assert entry.value == np.max(entry.nodes)
            assert entry.argmax_time == tg.times[np.argmax(entry.nodes)]
        assert report["x_norm"].nodes is None and report["xy_norm"].nodes is None
        assert xy_norms_thm2(u, w)["w_grad_l2t_h1"].nodes is None

    def test_node_series_stay_out_of_equality_repr_and_json(self):
        a = NormEntry(1.0, "sup", argmax_time=0.5, nodes=np.array([1.0, 0.5]))
        b = NormEntry(1.0, "sup", argmax_time=0.5, nodes=np.array([1.0, 0.25]))
        assert a == b and "nodes" not in repr(a)
        assert NormReport({"e": a}).to_json_dict() == {"e": {"value": 1.0, "equation_tag": "sup", "argmax_time": 0.5}}


class TestSumOverflow:
    """A sum of finite entries that overflows names a node, like a per-node overflow."""

    def test_x_norm_names_the_larger_addends_argmax_node(self):
        # 256 cells of area 1: L^1 peaks at node 3 (256 * 7e305 = 1.79e308) and t Linf at the
        # last node; both are finite, their sum is not
        grid = Grid2D(16, 16.0)
        tg = TimeGrid.geometric(1e-3, 10.0, 8)
        level = np.full(tg.count, 6.9e305)
        level[3] = 7e305
        u = Trajectory.from_values(grid, tg, level[:, None, None] * np.ones((1, 16, 16)))
        with pytest.raises(TrajectoryOverflowError) as err:
            xy_norms_thm1(u, zero_trajectory(grid, tg))
        assert err.value.node_index == 3

    def test_l2t_total_names_the_largest_node_sum(self):
        # finite node sums of 1e303 and 2e303 at nodes 3 and 4, a node gap of 7e6: the trapezoid overflows
        grid = Grid2D(16, 16.0)
        times = TimeGrid.geometric(1.0, 1e12, 8).times
        weight = grid.k2_half * _hs_weight(grid.k2_half, 1.0)
        unit = np.zeros((times.size,) + grid.k2_half.shape)
        unit[:, 0, -1] = 1.0
        target = np.ones(times.size)
        target[3:5] = (1e303, 2e303)
        power = unit * (target / _parseval_sum(grid, unit, weight))[:, None, None]
        nodes = _parseval_sum(grid, power, weight)
        assert np.all(np.isfinite(nodes))
        with np.errstate(over="ignore"), pytest.raises(TrajectoryOverflowError) as err:
            _l2t(times, nodes, None)
        assert err.value.node_index == 4


class TestReportSerialisation:
    def test_json_dict_shape(self, grid):
        tg = TimeGrid.geometric(1e-3, 10.0, 16)
        u = heat_trajectory(gaussian_field(grid, 1.0, 0.5), tg)
        report = xy_norms_thm1(u, zero_trajectory(grid, tg))
        d = report.to_json_dict()
        assert set(d["u_sup_l1"]) >= {"value", "equation_tag", "argmax_time"}
        assert d["x_norm"]["equation_tag"].startswith("sup")

    def test_json_file_roundtrip(self, grid, tmp_path):
        import json

        tg = TimeGrid.geometric(1e-3, 10.0, 16)
        u = heat_trajectory(gaussian_field(grid, 1.0, 0.5), tg)
        report = xy_norms_thm1(u, zero_trajectory(grid, tg))
        path = tmp_path / "norms.json"
        _write_json(path, report.to_json_dict())
        loaded = json.loads(path.read_text())
        assert loaded["u_sup_l1"]["value"] == report.value("u_sup_l1")
