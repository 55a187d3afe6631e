"""Exact spectral heat and damped-heat flows.

The flows act diagonally in Fourier space (exact semigroups of the grid
Laplacian), so the semigroup law and mass conservation hold to rounding.
``_free_flow`` is the one batched form ``e^{-t lam} c`` over node times; the
single-time flow ``heat``, the trajectories, the solver's per-solve rate
tables (u0's heat flow, w0's flow and the closed-form chemical response),
the norms' heat-flow suprema and the stripe counterexample all call it.
The gradient of a flow is ``gradient(heat(t, f))`` for one field, or
``fields._grad_values`` of the flowed half spectra.
"""

from __future__ import annotations

import numpy as np

from .fields import ScalarField, irfft2, rfft2
from .trajectories import TimeGrid, Trajectory


def heat(t: float, f: ScalarField) -> ScalarField:
    """Heat flow at time t >= 0; preserves the mean exactly."""
    if t < 0:
        raise ValueError(f"heat flow needs t >= 0, got {t}")
    grid = f.grid
    return ScalarField(grid, irfft2(_free_flow(rfft2(f.values), (t,), grid.k2_half)[0], grid.n))


def _free_flow(coeffs: np.ndarray, times: np.ndarray, lam: np.ndarray, scale=None) -> np.ndarray:
    """Spectra e^{-t lam} c at each of the given times, shaped (K,) + lam.shape.

    ``lam`` and ``c`` share one layout: the half spectrum, or a plan's
    distinct rates with c = 1 for a per-rate table.  ``scale`` optionally
    multiplies each time's symbol by a scalar s(t) before it meets the
    coefficients.
    """
    times = np.asarray(times).reshape((-1,) + (1,) * np.ndim(lam))
    decay = np.exp(-times * lam)
    if scale is not None:
        decay = decay * np.asarray(scale).reshape(times.shape)
    return decay * coeffs


def _free_trajectory(f: ScalarField, tgrid: TimeGrid, damped: bool) -> Trajectory:
    lam = f.grid.k2_half + (1.0 if damped else 0.0)
    values = irfft2(_free_flow(rfft2(f.values), tgrid.times, lam), f.grid.n)
    return Trajectory.from_values(f.grid, tgrid, values, initial=f)


def heat_trajectory(f: ScalarField, tgrid: TimeGrid) -> Trajectory:
    """Free heat evolution sampled at the time-grid nodes (initial datum attached)."""
    return _free_trajectory(f, tgrid, damped=False)


def damped_heat_trajectory(f: ScalarField, tgrid: TimeGrid) -> Trajectory:
    """Free damped-heat evolution sampled at the time-grid nodes (initial datum attached)."""
    return _free_trajectory(f, tgrid, damped=True)
