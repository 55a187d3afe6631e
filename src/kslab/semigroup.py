"""Exact spectral heat and damped-heat flows plus real-space kernel norms.

The flows act diagonally in Fourier space (exact semigroups of the grid
Laplacian), so the semigroup law and mass conservation hold to rounding.
``_free_flow`` is the one batched form ``e^{-t lam} c`` over node times; the
single-time flow ``heat``, the trajectories, the solver's closed-form
chemical response, the norms' heat-flow suprema and the stripe
counterexample all call it.  The gradient of a flow is ``gradient(heat(t, f))``
for one field, or ``fields._grad_values`` of the flowed half spectra.
The sampled kernel ``gaussian_field(grid, 1.0, t)`` appears only in the norm
tables, as an analytic cross-check against ``t^{-1+1/p}`` and ``t^{-3/2+1/p}``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import gaussian_field
from .fields import Grid2D, ScalarField, irfft2, rfft2
from .trajectories import TimeGrid, Trajectory


class ResolutionError(ValueError):
    """The grid cannot resolve (or contain) the requested kernel."""


def heat(t: float, f: ScalarField) -> ScalarField:
    """Heat flow at time t >= 0; preserves the mean exactly."""
    if t < 0:
        raise ValueError(f"heat flow needs t >= 0, got {t}")
    grid = f.grid
    return ScalarField(grid, irfft2(_free_flow(rfft2(f.values), (t,), grid.k2_half)[0], grid.n))


def _free_flow(coeffs: np.ndarray, times: np.ndarray, lam: np.ndarray, scale=None) -> np.ndarray:
    """Spectra e^{-t lam} c at each of the given times, shaped (K,) + c.shape.

    ``lam`` and ``c`` share one layout (the half spectrum wherever the
    package computes).  ``scale`` optionally multiplies each time's symbol by
    a scalar s(t) before it meets the coefficients.
    """
    decay = np.exp(-np.asarray(times)[:, None, None] * lam)
    if scale is not None:
        decay = decay * np.asarray(scale)[:, None, None]
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


# ---------------------------------------------------------------------------
# Kernel norm tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelNormEntry:
    p: float
    t: float
    value: float
    bound: float

    @property
    def ratio(self) -> float:
        return self.value / self.bound


@dataclass(frozen=True)
class KernelNormTable:
    entries: tuple[KernelNormEntry, ...]

    def all_within_bounds(self) -> bool:
        return all(e.value <= e.bound * (1.0 + 1e-9) for e in self.entries)


def _check_resolution(t: float, grid: Grid2D) -> None:
    width = np.sqrt(4.0 * t)
    if width < 4.0 * grid.h:
        raise ResolutionError(
            f"kernel width sqrt(4t)={width:.3g} under-resolved (< 4h = {4 * grid.h:.3g})"
        )
    if width > grid.l / 8.0:
        raise ResolutionError(
            f"kernel width sqrt(4t)={width:.3g} too wide for the box (> l/8 = {grid.l / 8.0:.3g})"
        )


def kernel_norm_exact(p: float, t: float) -> float:
    """Closed-form L^p norm of the kernel: p^{-1/p} (4 pi t)^{-1+1/p}."""
    if np.isinf(p):
        return 1.0 / (4.0 * np.pi * t)
    return p ** (-1.0 / p) * (4.0 * np.pi * t) ** (-1.0 + 1.0 / p)


def grad_kernel_l1_exact(t: float) -> float:
    """Closed-form L^1 norm of the kernel gradient: sqrt(pi)/(2 sqrt(t))."""
    return np.sqrt(np.pi) / (2.0 * np.sqrt(t))


def _kernel_table(p_list, t_list, grid: Grid2D, grad: bool) -> KernelNormTable:
    from .norms import _batch_lp

    entries = []
    for t in t_list:
        _check_resolution(t, grid)
        kern = gaussian_field(grid, 1.0, t).values  # the heat kernel
        if grad:
            x1, x2 = grid.coords()
            kern = kern * np.sqrt(x1**2 + x2**2) / (2.0 * t)
        for p in p_list:
            value = float(_batch_lp(kern, p, grid.cell_area))
            bound = t ** ((-1.5 if grad else -1.0) + (0.0 if np.isinf(p) else 1.0 / p))
            entries.append(KernelNormEntry(float(p), float(t), value, bound))
    return KernelNormTable(tuple(entries))


def heat_kernel_norms(p_list, t_list, grid: Grid2D) -> KernelNormTable:
    """Discrete L^p norms of the sampled kernel against the bound t^{-1+1/p}.

    Each requested time must satisfy 4h <= sqrt(4t) <= l/8 so the kernel is
    both resolved and essentially untruncated on the torus.
    """
    return _kernel_table(p_list, t_list, grid, grad=False)


def grad_heat_kernel_norms(p_list, t_list, grid: Grid2D) -> KernelNormTable:
    """Discrete L^p norms of |grad kernel| against the bound t^{-3/2+1/p}."""
    return _kernel_table(p_list, t_list, grid, grad=True)
