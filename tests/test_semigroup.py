"""Heat-flow tests: Gaussian identities and semigroup laws."""

import numpy as np
import pytest
from scipy.integrate import quad

from kslab import (
    Grid2D,
    ScalarField,
    damped_heat_trajectory,
    gaussian_field,
    gradient,
    grad_kernel_l1_exact,
    heat,
    heat_trajectory,
    lp_norm,
)
from kslab.trajectories import TimeGrid


@pytest.fixture(scope="module")
def grid():
    return Grid2D(128, 32.0)


class TestHeat:
    def test_zero_time_identity(self, grid):
        f = gaussian_field(grid, 1.0, 0.5)
        np.testing.assert_allclose(heat(0.0, f).values, f.values, atol=1e-14)

    def test_rejects_negative_time(self, grid):
        with pytest.raises(ValueError, match="t >= 0"):
            heat(-0.1, gaussian_field(grid))

    @pytest.mark.parametrize("s,t", [(0.1, 0.1), (0.5, 1.0), (1.0, 0.3)])
    def test_gaussian_identity(self, grid, s, t):
        # closed form: flowing a gaussian of width s for time t gives width s+t
        mass = 2.3
        f = gaussian_field(grid, mass, s)
        out = heat(t, f)
        exact = gaussian_field(grid, mass, s + t)
        rel = np.max(np.abs(out.values - exact.values)) / np.max(exact.values)
        assert rel < 1e-8

    def test_mass_conserved_for_positive_data(self, grid):
        f = gaussian_field(grid, 1.7, 0.4)
        assert abs(heat(2.0, f).integral() - f.integral()) < 1e-12
        assert np.isclose(lp_norm(heat(2.0, f), 1.0), lp_norm(f, 1.0), rtol=1e-8)

    def test_linf_non_increasing(self, grid):
        f = gaussian_field(grid, 1.0, 0.5)
        assert lp_norm(heat(0.5, f), np.inf) <= lp_norm(f, np.inf)

    def test_semigroup_law(self, grid):
        f = gaussian_field(grid, 1.0, 0.5)
        one = heat(0.3, heat(0.7, f))
        two = heat(1.0, f)
        assert np.max(np.abs(one.values - two.values)) < 1e-12

    def test_trajectory_matches_pointwise_heat(self, grid):
        f = gaussian_field(grid, 1.0, 0.5)
        tg = TimeGrid.geometric(1e-2, 1.0, 8)
        traj = heat_trajectory(f, tg)
        assert traj.initial is f
        for j in (0, 4, 7):
            np.testing.assert_allclose(
                traj.stacked[j], heat(tg.times[j], f).values, atol=1e-13
            )


class TestDampedHeat:
    def test_zero_time_identity(self, grid):
        f = gaussian_field(grid, 1.0, 0.5)
        traj = damped_heat_trajectory(f, TimeGrid.geometric(1e-15, 1e-14, 2))
        assert traj.initial is f
        np.testing.assert_allclose(traj.stacked[0], f.values, atol=1e-14)

    def test_constant_field_decay(self, grid):
        ones = ScalarField(grid, np.ones((grid.n, grid.n)))
        out = damped_heat_trajectory(ones, TimeGrid.geometric(1.3, 2.6, 2))
        for t, values in zip(out.tgrid.times, out.stacked):
            np.testing.assert_allclose(values, np.exp(-t) * np.ones((grid.n, grid.n)), atol=1e-14)

    def test_factorisation(self, grid):
        # e^{-t(|xi|^2 + 1)} = e^{-t} e^{-t |xi|^2}, one exponential per mode: equal to rounding
        f = gaussian_field(grid, 1.0, 0.5)
        tg = TimeGrid.geometric(0.77, 1.54, 2)
        out = damped_heat_trajectory(f, tg)
        for t, values in zip(tg.times, out.stacked):
            expected = np.exp(-t) * heat(t, f).values
            np.testing.assert_allclose(values, expected, rtol=0, atol=1e-15 * np.max(np.abs(expected)))


class TestGradHeat:
    """The gradient of the heat flow, ``gradient(heat(t, f))``."""

    def test_constant_field_gradient_vanishes(self, grid):
        ones = ScalarField(grid, np.ones((grid.n, grid.n)))
        g1, g2 = gradient(heat(0.5, ones))
        assert np.max(np.abs(g1.values)) < 1e-14
        assert np.max(np.abs(g2.values)) < 1e-14

    def test_gaussian_gradient_closed_form(self, grid):
        s, t, mass = 0.5, 0.5, 1.0
        f = gaussian_field(grid, mass, s)
        g1, g2 = gradient(heat(t, f))
        x1, x2 = grid.coords()
        w = s + t
        gauss = mass * np.exp(-(x1**2 + x2**2) / (4 * w)) / (4 * np.pi * w)
        exact1 = -x1 / (2 * w) * gauss
        exact2 = -x2 / (2 * w) * gauss
        scale = np.max(np.abs(exact1))
        assert np.max(np.abs(g1.values - exact1)) / scale < 1e-8
        assert np.max(np.abs(g2.values - exact2)) / scale < 1e-8

    def test_point_mass_gradient_l1(self, grid):
        # |grad kernel| integrates in closed form; quadrature cross-check below
        t = 0.5
        delta = np.zeros((grid.n, grid.n))  # unit mass at the centre grid point
        delta[grid.n // 2, grid.n // 2] = 1.0 / grid.cell_area
        f = ScalarField(grid, delta)
        g1, g2 = gradient(heat(t, f))
        mag = ScalarField(grid, np.sqrt(g1.values**2 + g2.values**2))
        exact = grad_kernel_l1_exact(t)
        by_quad, _ = quad(
            lambda r: (r / (2 * t)) * np.exp(-r * r / (4 * t)) / (4 * np.pi * t) * 2 * np.pi * r,
            0.0,
            np.inf,
        )
        assert abs(by_quad - exact) < 1e-12
        assert abs(lp_norm(mag, 1.0) - exact) / exact < 0.01
        assert lp_norm(mag, 1.0) <= t ** (-0.5)
