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
  The Nyquist wavenumber is its own negative, so the odd symbol ``1j*xi``
  cannot keep a real field's spectrum real there; zeroing drops that part.
* There are no multiplier objects: a symbol is a half-layout array that
  multiplies half spectra in place.  Derivatives go through ``_grad_values``
  (``gradient`` is its single-field form), and every heat flow through
  ``semigroup._free_flow``.
* Products of fields are dealiased with the 2/3 rule: integer modes with
  ``|k| > n//3`` on either axis are zeroed before and after the real-space
  multiplication.  ``d1_dealiased_half`` and ``d2_dealiased_half`` are the
  dealiased derivative symbols ``mask * 1j*xi_i`` of that product.
* Transforms: ``rfft2``/``irfft2`` call scipy's compiled pocketfft binding
  (``pypocketfft.r2c``/``c2r``) with the arguments ``scipy.fft`` passes,
  skipping its dispatch and argument handling: 15-25 us per call, against a
  34-40 us kernel at n=64, paid tens of thousands of times by the
  time-stepping oracle.  The binding is loaded from its file inside the
  installed scipy package (``fft/_pocketfft/pypocketfft<EXT_SUFFIX>``), found
  with ``importlib.util.find_spec("scipy")``, which imports nothing; no
  ``scipy`` module is imported.  ``import scipy.fft`` costs about 0.3 s (it
  pulls in ``scipy._lib._array_api``, ``numpy.f2py``, ``unittest`` and
  ``email``), about half of importing ``kslab.cli``.  The compiled code is
  the one ``scipy.fft`` calls, so every transform is bit-identical to it;
  ``tests/test_fields.py::TestTransformContract`` pins that.  ``irfft2``
  takes only the ``(..., n, n//2+1)`` half layout, where scipy would pad or
  crop.  This is the only module that names the FFT backend.  Every
  transform runs on one pocketfft worker.
"""

from __future__ import annotations

import importlib.util
import os
import struct
import sysconfig
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np


def _load_pocketfft():
    """scipy's compiled pocketfft binding, loaded from its file without importing any scipy module."""
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError("kslab needs scipy's pocketfft binding, and scipy is not installed")
    path = os.path.join(scipy_spec.submodule_search_locations[0], "fft", "_pocketfft",
                        "pypocketfft" + sysconfig.get_config_var("EXT_SUFFIX"))
    if not os.path.isfile(path):
        raise ImportError(f"scipy's pocketfft binding is missing: no file {path}")
    spec = importlib.util.spec_from_file_location("pypocketfft", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_pocketfft = _load_pocketfft()


def fft2(a: np.ndarray) -> np.ndarray:
    """Full spectrum of ``a`` over the last two axes, computed in complex128.

    Bit-equal to ``scipy.fft.fft2(a)`` on complex128 input; on real input
    scipy takes its r2c path, which differs in the last bits.
    """
    a = np.asarray(a, dtype=np.complex128)
    return _pocketfft.c2c(a, (a.ndim - 2, a.ndim - 1), True, 0, None, 1)


def ifft2(a: np.ndarray) -> np.ndarray:
    """Inverse full spectrum over the last two axes; bit-equal to ``scipy.fft.ifft2(a)`` on complex input."""
    a = np.asarray(a, dtype=np.complex128)
    return _pocketfft.c2c(a, (a.ndim - 2, a.ndim - 1), False, 2, None, 1)


def rfft2(a: np.ndarray) -> np.ndarray:
    """Half spectrum ``(..., m, k//2+1)`` of real values ``(..., m, k)`` over the last two axes.

    Real input is taken as float64, on which the result is bit-equal to
    ``scipy.fft.rfft2(a, axes=(-2, -1))``; complex input raises TypeError, as
    scipy does.
    """
    a = np.asarray(a)
    if a.dtype.kind == "c":
        raise TypeError("rfft2 takes real values, got a complex array")
    a = a.astype(np.float64, copy=False)
    if a.ndim < 2:
        raise ValueError(f"rfft2 transforms the last two axes, got shape {a.shape}")
    return _pocketfft.r2c(a, (a.ndim - 2, a.ndim - 1), True, 0, None, 1)


def irfft2(a: np.ndarray, n: int) -> np.ndarray:
    """Real values ``(..., n, n)`` of half spectra ``(..., n, n//2+1)`` over the last two axes.

    Bit-equal to ``scipy.fft.irfft2(a, s=(n, n), axes=(-2, -1))`` on that
    layout; any other shape raises ValueError instead of being padded or
    cropped.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[-2:] != (n, n // 2 + 1):
        raise ValueError(
            f"irfft2 takes the (..., n, n//2+1) half layout, got shape {a.shape} for n={n}")
    return _pocketfft.c2r(a, (a.ndim - 2, a.ndim - 1), n, False, 2, None, 1)


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
    (wavenumbers, dealiasing masks, coordinates) are precomputed once and
    read-only.
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
        k2 = k1[:, None] ** 2 + k1h[None, :] ** 2
        object.__setattr__(self, "k2_half", k2)

        # Half layout: column multiplicity for Parseval sums, alone and times the H^1 and ||grad .||_{H^1}^2
        # weights (1+|xi|^2, |xi|^2 (1+|xi|^2)), and the derivative wavenumbers with Nyquist zeroed.
        mult = np.full(n // 2 + 1, 2.0)
        mult[0] = mult[-1] = 1.0
        object.__setattr__(self, "parseval_mult_half", mult[None, :])
        object.__setattr__(self, "parseval_h1_half", mult[None, :] * (1.0 + k2))
        object.__setattr__(self, "parseval_grad_h1_half", mult[None, :] * (k2 * (1.0 + k2)))
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
        # complex: the mask only multiplies half spectra, and a bool mask is cast on every product
        mask_h = (keep[:, None] & keep_h[None, :]).astype(np.complex128)
        object.__setattr__(self, "dealias_mask_half", mask_h)
        object.__setattr__(self, "d1_dealiased_half", mask_h * (1j * kd[:, None]))
        object.__setattr__(self, "d2_dealiased_half", mask_h * (1j * kdh[None, :]))

        x = (np.arange(n) - n // 2) * h
        object.__setattr__(self, "x", x)
        # one grid serves every caller of a window (``trajectories.Window``), so no caller may write to it
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Broadcastable coordinate arrays ``(x1, x2)`` of shapes (n,1), (1,n)."""
        return self.x[:, None], self.x[None, :]

    @property
    def cell_area(self) -> float:
        return self.h * self.h


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
    like immutable values and support scalar multiplication.
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

    def __mul__(self, a: float) -> "ScalarField":
        return ScalarField(self.grid, self.values * float(a))

    __rmul__ = __mul__

    def integral(self) -> float:
        """Trapezoidal (= exact spectral) integral over the torus."""
        return float(self.values.sum() * self.grid.cell_area)

    @classmethod
    def zero(cls, grid: Grid2D) -> "ScalarField":
        return cls(grid, np.zeros((grid.n, grid.n)))


def _grad_values(grid: Grid2D, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real-space gradient components of half spectra batched over the leading axes."""
    n = grid.n
    return irfft2(1j * grid.kx_deriv * coeffs, n), irfft2(1j * grid.ky_deriv_half * coeffs, n)


def gradient(f: ScalarField) -> tuple[ScalarField, ScalarField]:
    """Spectral gradient (i*xi multipliers, Nyquist modes dropped)."""
    g1, g2 = _grad_values(f.grid, rfft2(f.values))
    return ScalarField(f.grid, g1), ScalarField(f.grid, g2)


# ---------------------------------------------------------------------------
# KSF1 snapshot files
# ---------------------------------------------------------------------------

KSF1_MAGIC = b"KSF1"
_KSF1_HEADER = struct.Struct("<4sIdd")  # magic, n (u32), l (f64), t (f64)


def _write_raw_snapshot(fh: BinaryIO, grid: Grid2D, values: np.ndarray, t: float) -> None:
    """Write one KSF1 snapshot of (n, n) values: magic, n, l, t, then n*n float64 row-major."""
    fh.write(_KSF1_HEADER.pack(KSF1_MAGIC, grid.n, grid.l, float(t)))
    fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def _read_snapshots(path) -> tuple[Grid2D, np.ndarray, np.ndarray]:
    """Every KSF1 snapshot of the file at ``path``: their one grid, times (S,) and values (S, n, n).

    Raises ValueError on bad magic, a header grid that breaks the Grid2D rules,
    a header or payload cut short, an empty file or mixed grids.  Each payload
    size is checked before the payload is read, so a header claiming a huge
    grid allocates nothing.  The values are not checked for finiteness.
    """
    heads, rows = [], []
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        while fh.tell() < size:
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
            need, remaining = 8 * n * n, size - fh.tell()
            if remaining < need:
                raise ValueError(f"truncated KSF1 payload: header n={n} needs {need} bytes, {remaining} remain")
            heads.append((n, l, t))
            rows.append(np.frombuffer(fh.read(need), dtype="<f8").reshape(n, n))
    if not rows:
        raise ValueError("empty KSF1 file")
    if len({head[:2] for head in heads}) > 1:
        raise ValueError("KSF1 file mixes snapshots on different grids")
    return Grid2D(*heads[0][:2]), np.array([head[2] for head in heads]), np.stack(rows)


def save_field(path, field: ScalarField) -> None:
    """Write ``field`` as a field file: one KSF1 snapshot, at t = 0."""
    with open(path, "wb") as fh:
        _write_raw_snapshot(fh, field.grid, field.values, 0.0)


def load_field(path) -> ScalarField:
    """The field of a field file; ValueError unless it is well formed, finite and one snapshot at t = 0."""
    grid, times, values = _read_snapshots(path)
    if times.size != 1 or times[0] != 0.0:
        got = f"{times.size} snapshots" if times.size != 1 else f"one at t={times[0]:.6g}"
        raise ValueError(f"a field file holds one snapshot at t = 0, this one holds {got}")
    return ScalarField(grid, values[0])
