"""Initial-data library: Gaussians, single cosine modes, smoothed stripes.

The stripe profile is the exact heat mollification of the indicator of
``{0 <= x1 <= 1}``, so grid checks against closed forms only have to shift
the evolution time by the smoothing time.
"""

from __future__ import annotations

import numpy as np

from .fields import Grid2D, ScalarField, irfft2


def gaussian_field(
    grid: Grid2D, mass: float = 1.0, width: float = 0.5, center: tuple[float, float] = (0.0, 0.0)
) -> ScalarField:
    """Gaussian bump mass*(4 pi s)^{-1} exp(-|x - x0|^2 / 4s) with s = width."""
    if not width > 0:
        raise ValueError("gaussian width must be positive")
    x1, x2 = grid.coords()
    r2 = (x1 - center[0]) ** 2 + (x2 - center[1]) ** 2
    return ScalarField(grid, mass * np.exp(-r2 / (4.0 * width)) / (4.0 * np.pi * width))


def _cosine_modes(grid: Grid2D, kvecs, amplitude: float = 1.0) -> np.ndarray:
    """Values (M, n, n) of amplitude * cos(2 pi (k1 x1 + k2 x2)/l) for M integer mode pairs (k1, k2).

    When every k2 is 0 the modes are constant along x2: the formula runs on one column per mode and the
    last product broadcasts it over the plane.  k2 x2 is then exactly +-0, so the values are bit-equal to
    the full plane's.
    """
    x1, x2 = grid.coords()
    k = np.asarray(kvecs)[:, :, None, None]
    width = grid.n if np.any(k[:, 1]) else 1
    arg = k[:, 0] * x1 + k[:, 1] * x2[:, :width]  # then 2 pi (k.x) / l in place, with the same roundings
    arg *= 2.0 * np.pi
    arg /= grid.l
    return np.multiply(amplitude, np.cos(arg, out=arg), out=np.empty((k.shape[0], grid.n, grid.n)))


def cosine_mode_field(grid: Grid2D, kvec: tuple[int, int] = (1, 0), amplitude: float = 1.0) -> ScalarField:
    """amplitude * cos(2 pi (k1 x1 + k2 x2)/l) for integer mode numbers."""
    return ScalarField(grid, _cosine_modes(grid, [kvec], amplitude)[0])


def smoothed_stripe_field(grid: Grid2D, smoothing_time: float, amplitude: float = 1.0) -> ScalarField:
    """Heat-mollified indicator of the stripe 0 <= x1 <= 1.

    Equals the heat flow at ``smoothing_time`` applied to the sharp
    indicator: 0.5*(erf(x1/(2 sqrt(s))) - erf((x1-1)/(2 sqrt(s)))).
    """
    # Imported here, not at module level: importing scipy.special adds about
    # 0.3 s to start-up, and only stripes need erf.  math.erf is no
    # substitute: it differs from scipy's erf in the last bit at about 5% of
    # the points of a fine grid on [-10, 10].
    from scipy.special import erf

    if not smoothing_time > 0:
        raise ValueError("smoothing time must be positive")
    w = 2.0 * np.sqrt(smoothing_time)
    x1 = grid.x
    profile = 0.5 * (erf(x1 / w) - erf((x1 - 1.0) / w))
    return ScalarField(grid, amplitude * np.repeat(profile[:, None], grid.n, axis=1))


def random_band_limited_field(grid: Grid2D, seed: int = 0, max_mode: int = 8) -> ScalarField:
    """Seeded random field supported on integer modes |m_i| <= max_mode, weighted exp(-|m|^2/8).

    The underlying function depends only on (seed, max_mode, l), not on the
    resolution, so refinement studies see the same data at every n.
    """
    n = grid.n
    if max_mode >= n // 2:
        raise ValueError("max_mode must fit strictly inside the grid spectrum")
    m = np.arange(-max_mode, max_mode + 1)
    draws = np.random.default_rng(seed).standard_normal((m.size, m.size, 2))  # (m1, m2, re/im), in draw order
    coeffs = np.zeros((n, n), dtype=np.complex128)
    coeffs[np.ix_(m % n, m % n)] = np.exp(-(m[:, None] ** 2 + m[None, :] ** 2) / 8.0) * (
        draws[..., 0] + 1j * draws[..., 1])
    flipped = np.conj(np.roll(coeffs[::-1, ::-1], 1, axis=(0, 1)))
    coeffs = 0.5 * (coeffs + flipped)
    # irfft2 carries 1/n^2; scale so the function is resolution independent.  The
    # coefficients are Hermitian, so their half spectrum determines the field.
    return ScalarField(grid, irfft2((coeffs * n**2)[:, : n // 2 + 1], n))
