"""Periodic-torus spectral field core.

Conventions used throughout the package:

* The domain is the square torus ``[-l/2, l/2)^2`` sampled on an ``n x n``
  grid with spacing ``h = l/n``.  ``values[i, j]`` holds the sample at
  ``(x1_i, x2_j)`` with ``x1_i = -l/2 + i*h`` (row index = first coordinate,
  the second coordinate varies fastest in memory).
* Spectral coefficients follow the unnormalised forward FFT:
  ``coeffs[k] = sum_j values[j] * exp(-2*pi*1j*k.j/n)`` and the wavenumber of
  integer index ``k`` is ``xi_k = 2*pi*k/l`` with ``k = -n/2 .. n/2-1`` in
  standard FFT ordering.  Under this normalisation Parseval reads
  ``||f||_{L2}^2 = (l^2/n^4) * sum |coeffs|^2``.
* Every field is real, so the computational layout is the half spectrum of
  ``rfft2``: shape ``(n, n//2+1)``, the columns ``xi_2 >= 0``; the other
  columns are the complex conjugates ``coeffs[-k] = conj(coeffs[k])``.  A
  sum over the full spectrum of an even quantity (a power spectrum times an
  even weight) is the half-layout sum with the column multiplicity
  ``Grid2D.parseval_mult_half``: 1 for the ``xi_2 = 0`` and ``xi_2 = n/2``
  columns, which are their own mirrors, and 2 for every other column.
  Symbols applied in the half layout must be even in ``xi`` (or odd and
  imaginary, like a derivative) so that the product stays a real field's
  spectrum.
* Nyquist rule: the derivative wavenumbers ``kx_deriv`` and
  ``ky_deriv_half`` are ``xi`` with the Nyquist row and column set to zero.
  The Nyquist mode is its own mirror, so ``i*xi`` there is not the spectrum
  of a real field; the real part of the full-layout inverse transform of
  ``1j*xi*coeffs`` drops that part exactly, and the zeroed wavenumbers drop
  it in the half layout too.
* Products of fields are dealiased with the 2/3 rule: integer modes with
  ``|k| > n//3`` on either axis are zeroed before and after the real-space
  multiplication.  ``d1_dealiased_half`` and ``d2_dealiased_half`` are the
  dealiased derivative symbols ``mask * 1j*xi_i`` of that product.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import BinaryIO, Union

import numpy as np
import scipy.fft as _sfft


def worker_count() -> int:
    """Worker cap for FFT calls, taken from the KS_THREADS environment variable."""
    try:
        return max(1, int(os.environ.get("KS_THREADS", "1")))
    except ValueError:
        return 1


def fft2(a: np.ndarray) -> np.ndarray:
    return _sfft.fft2(a, axes=(-2, -1), workers=worker_count())


def ifft2(a: np.ndarray) -> np.ndarray:
    return _sfft.ifft2(a, axes=(-2, -1), workers=worker_count())


def rfft2(a: np.ndarray) -> np.ndarray:
    return _sfft.rfft2(a, axes=(-2, -1), workers=worker_count())


def irfft2(a: np.ndarray, n: int) -> np.ndarray:
    return _sfft.irfft2(a, s=(n, n), axes=(-2, -1), workers=worker_count())


def _check_grid(n: int, l: float) -> None:
    if n < 16 or (n & (n - 1)) != 0:
        raise ValueError(f"grid size must be a power of two >= 16, got {n}")
    if not 0 < l < np.inf:
        raise ValueError(f"side length must be positive and finite, got {l}")


@dataclass(frozen=True)
class Grid2D:
    """Uniform discretisation of the periodic square ``[-l/2, l/2)^2``.

    ``n`` must be a power of two (>= 16) so that dealiasing cutoffs and FFT
    sizes stay exact; ``l`` is the physical side length.  All derived arrays
    (wavenumbers, dealiasing masks, coordinates) are precomputed once.
    """

    n: int
    l: float

    def __post_init__(self) -> None:
        n, l = self.n, float(self.l)
        _check_grid(n, l)
        object.__setattr__(self, "l", l)
        h = l / n
        object.__setattr__(self, "h", h)

        k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=h)  # (n,) in FFT ordering
        k1h = 2.0 * np.pi * np.fft.rfftfreq(n, d=h)  # (n//2+1,) non-negative
        object.__setattr__(self, "k1", k1)
        object.__setattr__(self, "k2", k1[:, None] ** 2 + k1[None, :] ** 2)
        object.__setattr__(self, "k2_half", k1[:, None] ** 2 + k1h[None, :] ** 2)

        # Half layout: column multiplicity for Parseval sums and the
        # derivative wavenumbers with the Nyquist row and column zeroed.
        mult = np.full(n // 2 + 1, 2.0)
        mult[0] = mult[-1] = 1.0
        object.__setattr__(self, "parseval_mult_half", mult[None, :])
        kd, kdh = k1.copy(), k1h.copy()
        kd[n // 2] = kdh[n // 2] = 0.0
        object.__setattr__(self, "kx_deriv", kd[:, None])
        object.__setattr__(self, "ky_deriv_half", kdh[None, :])

        # 2/3 rule: keep integer modes |m| <= n//3 on each axis.
        m = np.fft.fftfreq(n) * n
        mh = np.fft.rfftfreq(n) * n
        cut = n // 3
        keep = np.abs(m) <= cut
        keep_h = np.abs(mh) <= cut
        mask_h = keep[:, None] & keep_h[None, :]
        object.__setattr__(self, "dealias_mask_half", mask_h)
        object.__setattr__(self, "d1_dealiased_half", mask_h * (1j * kd[:, None]))
        object.__setattr__(self, "d2_dealiased_half", mask_h * (1j * kdh[None, :]))

        x = (np.arange(n) - n // 2) * h
        object.__setattr__(self, "x", x)

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Broadcastable coordinate arrays ``(x1, x2)`` of shapes (n,1), (1,n)."""
        return self.x[:, None], self.x[None, :]

    @property
    def cell_area(self) -> float:
        return self.h * self.h


def make_grid(n: int, l: float) -> Grid2D:
    return Grid2D(n, l)


def _rate_layout(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rate layout of a half-layout array such as ``k2_half + shift``.

    Returns the sorted distinct values and the index of every mode's value,
    shaped like ``rates``: ``values[inverse] == rates``.
    """
    values, inverse = np.unique(rates, return_inverse=True)
    return values, inverse.reshape(rates.shape)


@dataclass(frozen=True)
class ScalarField:
    """Real samples of a scalar function on the torus grid.

    Values must be finite; the array is coerced to float64.  Fields behave
    like immutable values and support +, -, and scalar multiplication.
    """

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.n, self.grid.n):
            raise ValueError(
                f"field shape {v.shape} does not match grid ({self.grid.n}, {self.grid.n})"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", v)

    def __add__(self, other: "ScalarField") -> "ScalarField":
        _require_same_grid(self, other)
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        _require_same_grid(self, other)
        return ScalarField(self.grid, self.values - other.values)

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.grid, -self.values)

    def __mul__(self, a: float) -> "ScalarField":
        return ScalarField(self.grid, self.values * float(a))

    __rmul__ = __mul__

    def integral(self) -> float:
        """Trapezoidal (= exact spectral) integral over the torus."""
        return float(self.values.sum() * self.grid.cell_area)

    @classmethod
    def zero(cls, grid: Grid2D) -> "ScalarField":
        return cls(grid, np.zeros((grid.n, grid.n)))


@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients of a field, full n x n layout.

    Hermitian symmetry ``coeffs[-k] == conj(coeffs[k])`` holds exactly when
    the represented field is real.
    """

    grid: Grid2D
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.shape != (self.grid.n, self.grid.n):
            raise ValueError(
                f"coefficient shape {c.shape} does not match grid ({self.grid.n}, {self.grid.n})"
            )
        object.__setattr__(self, "coeffs", c)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        flipped = np.conj(np.roll(self.coeffs[::-1, ::-1], 1, axis=(0, 1)))
        scale = np.max(np.abs(self.coeffs)) or 1.0
        return bool(np.max(np.abs(self.coeffs - flipped)) <= tol * scale)


def _require_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def to_spectral(f: ScalarField) -> SpectralField:
    """Forward transform; see the module docstring for the normalisation."""
    return SpectralField(f.grid, fft2(f.values))


def from_spectral(F: SpectralField) -> ScalarField:
    """Inverse transform.

    Taking the real part of the inverse FFT is equivalent to Hermitian
    symmetrisation of the coefficients, so the result is always a real field.
    """
    return ScalarField(F.grid, ifft2(F.coeffs).real)


# ---------------------------------------------------------------------------
# Fourier multipliers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Heat:
    """Symbol exp(-t*|xi|^2): the heat flow at time t (modulus <= 1 for t >= 0)."""

    t: float

    def symbol(self, grid: Grid2D) -> np.ndarray:
        return np.exp(-self.t * grid.k2_half)


@dataclass(frozen=True)
class DampedHeat:
    """Symbol exp(-t) * exp(-t*|xi|^2): heat flow with unit-rate damping."""

    t: float

    def symbol(self, grid: Grid2D) -> np.ndarray:
        # Written as the product so it matches e^{-t} * Heat(t) bit for bit.
        return np.exp(-self.t) * np.exp(-self.t * grid.k2_half)


@dataclass(frozen=True)
class GradComponent:
    """Symbol 1j*xi_axis: spectral partial derivative along the given axis (Nyquist rule)."""

    axis: int

    def __post_init__(self) -> None:
        if self.axis not in (0, 1):
            raise ValueError(f"axis must be 0 or 1, got {self.axis}")

    def symbol(self, grid: Grid2D) -> np.ndarray:
        k = grid.kx_deriv if self.axis == 0 else grid.ky_deriv_half
        return (1j * k) * np.ones(grid.k2_half.shape)


@dataclass(frozen=True)
class Laplacian:
    """Symbol -|xi|^2."""

    def symbol(self, grid: Grid2D) -> np.ndarray:
        return -grid.k2_half


@dataclass(frozen=True)
class FractionalLaplacian:
    """Symbol |xi|^alpha with |0|^alpha = 0; only positive powers are allowed."""

    alpha: float

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError(
                f"fractional power must be positive (|xi|^alpha is singular at 0 otherwise), got {self.alpha}"
            )

    def symbol(self, grid: Grid2D) -> np.ndarray:
        return grid.k2_half ** (self.alpha / 2.0)


@dataclass(frozen=True)
class Composite:
    """Pointwise product of component symbols."""

    parts: tuple

    def symbol(self, grid: Grid2D) -> np.ndarray:
        sym = np.ones(grid.k2_half.shape, dtype=np.complex128)
        for part in self.parts:
            sym = sym * part.symbol(grid)
        return sym


MultiplierSpec = Union[Heat, DampedHeat, GradComponent, Laplacian, FractionalLaplacian, Composite]


def multiplier_apply(m: MultiplierSpec, f: ScalarField) -> ScalarField:
    """Apply a Fourier multiplier: inverse-transform of symbol * half spectrum.

    The multiplier must evaluate to finite values on every grid wavenumber.
    """
    sym = np.asarray(m.symbol(f.grid))
    if not np.all(np.isfinite(sym)):
        raise ValueError("multiplier evaluates to NaN or infinity on the grid wavenumbers")
    return ScalarField(f.grid, irfft2(sym * rfft2(f.values), f.grid.n))


def pointwise_product(f: ScalarField, g: ScalarField) -> ScalarField:
    """Dealiased product: 2/3-rule truncation, real-space multiply, truncate again."""
    _require_same_grid(f, g)
    n, mask = f.grid.n, f.grid.dealias_mask_half
    fd = irfft2(mask * rfft2(f.values), n)
    gd = irfft2(mask * rfft2(g.values), n)
    return ScalarField(f.grid, irfft2(mask * rfft2(fd * gd), n))


def _grad_values(grid: Grid2D, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real-space gradient components of half spectra batched over the leading axes."""
    n = grid.n
    return irfft2(1j * grid.kx_deriv * coeffs, n), irfft2(1j * grid.ky_deriv_half * coeffs, n)


def gradient(f: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Spectral gradient (i*xi multipliers, Nyquist modes dropped)."""
    g1, g2 = _grad_values(f.grid, rfft2(f.values))
    return ScalarField(f.grid, g1), ScalarField(f.grid, g2)


def divergence(g1: ScalarField, g2: ScalarField) -> ScalarField:
    """Spectral divergence; divergence(gradient(f)) is the Laplacian off the Nyquist row and column."""
    _require_same_grid(g1, g2)
    grid = g1.grid
    c = 1j * grid.kx_deriv * rfft2(g1.values) + 1j * grid.ky_deriv_half * rfft2(g2.values)
    return ScalarField(grid, irfft2(c, grid.n))


# ---------------------------------------------------------------------------
# KSF1 snapshot files
# ---------------------------------------------------------------------------

KSF1_MAGIC = b"KSF1"
_KSF1_HEADER = struct.Struct("<4sIdd")  # magic, n (u32), l (f64), t (f64)


def _write_raw_snapshot(fh: BinaryIO, grid: Grid2D, values: np.ndarray, t: float) -> None:
    """Write one KSF1 snapshot of (n, n) values: magic, n, l, t, then n*n float64 row-major."""
    fh.write(_KSF1_HEADER.pack(KSF1_MAGIC, grid.n, grid.l, float(t)))
    fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def write_snapshot(fh: BinaryIO, field: ScalarField, t: float) -> None:
    """Write one KSF1 snapshot of a field."""
    _write_raw_snapshot(fh, field.grid, field.values, t)


def _read_raw_snapshot(fh: BinaryIO) -> tuple[int, float, float, np.ndarray]:
    """Read one KSF1 snapshot's n, l, t and its read-only (n, n) values from a seekable stream.

    Raises ValueError on bad magic, a header grid that breaks the Grid2D
    rules, or a payload shorter than the header claims; the size checks run
    before any payload is read.  The values are not checked for finiteness.
    """
    header = fh.read(_KSF1_HEADER.size)
    if len(header) != _KSF1_HEADER.size:
        raise ValueError("truncated KSF1 header")
    magic, n, l, t = _KSF1_HEADER.unpack(header)
    if magic != KSF1_MAGIC:
        raise ValueError(f"bad KSF1 magic: {magic!r}")
    try:
        _check_grid(n, l)
    except ValueError as exc:
        raise ValueError(f"bad KSF1 header: {exc}") from exc
    need = 8 * n * n
    here = fh.tell()
    remaining = fh.seek(0, os.SEEK_END) - here
    fh.seek(here)
    if remaining < need:
        raise ValueError(f"truncated KSF1 payload: header n={n} needs {need} bytes, {remaining} remain")
    return int(n), float(l), float(t), np.frombuffer(fh.read(need), dtype="<f8").reshape(n, n)


def read_snapshot(fh: BinaryIO) -> tuple[ScalarField, float]:
    """Read one KSF1 snapshot from a seekable stream as a (finite) field and its time."""
    n, l, t, values = _read_raw_snapshot(fh)
    return ScalarField(Grid2D(n, l), values.copy()), t


def save_field(path, field: ScalarField, t: float = 0.0) -> None:
    with open(path, "wb") as fh:
        write_snapshot(fh, field, t)


def load_field(path) -> tuple[ScalarField, float]:
    with open(path, "rb") as fh:
        return read_snapshot(fh)
