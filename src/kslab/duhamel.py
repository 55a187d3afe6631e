"""Time-convolution operators against the heat and damped-heat flows.

All operators share one exponential-time-differencing core: per Fourier mode
the factor ``exp(-(t - tau) * lam)`` is integrated exactly over each time
interval against a piecewise-constant or piecewise-linear reconstruction of
the integrand, and the running integral is marched from node to node (the
semigroup factorises exactly, so marching equals the full sum per mode).

The apparently singular kernels of the underlying estimates stay benign
here: the differentiation sits inside the exactly integrated multiplier.

``etd_convolve`` is the general operator; ``linear_L`` and ``maximal_reg_T``
are symbol choices over it, (lam, prefactor) = (|xi|^2 + 1 or |xi|^2, none)
and (|xi|^2, -|xi|^2).  ``bilinear_B`` builds its own spectral integrand.

Layout: the operators march the ``(n, n//2+1)`` half spectra of ``rfft2``
(see ``fields``).  The array kernels ``_convolve_hat`` (prefactor, march)
and ``_bilinear_hat`` (dealiased div(u grad v), march) take and return half
spectra; the Picard loop and the lab call them directly.  The public
operators are thin wrappers: forward transform, kernel, inverse transform,
trajectory (which rejects non-finite output).  Rates live in the half
layout (``grid.k2_half + shift``) everywhere except at ``etd_convolve``,
which keeps taking full ``(n, n)`` symbols: each must be finite, ``lam``
non-negative, and both even in xi (``sym[k] == sym[-k]``, exact for every
symbol built from |xi|^2), since an even symbol maps a real field's
spectrum to a real field's spectrum; then only its non-negative-xi_2 half
is used.

Interval handling near t = 0: when the input trajectories carry an initial
datum, the integrand is known at t = 0 and the head ``[0, t_1]`` is one more
ETD interval; otherwise the head is dropped and its size is estimated in the
output's ``meta``.

Plans: an ``EtdPlan`` holds what the march needs that does not depend on the
integrand, for one (lam, time grid, scheme): the interval lengths and, per
interval (head and substeps included), ``exp(-z)`` and the two quadrature
weights at z = lam * dt.  The tables are stored per distinct value of lam,
with an (n, n//2+1) index back to the half-layout modes, so a radial rate
such as |xi|^2 costs 3 x intervals x (distinct rates) floats instead of
3 x intervals x n^2: about 2.9 MB at n = 128, K = 64 (1911 distinct rates;
the index adds 67 kB) and 42 MB at n = 512, K = 64 (the index adds 1 MB).
A plan is a plain read-only object.  Its lifetime is the caller's: every
public operator builds one for its call, and the Picard loop and the lab,
which convolve many integrands against the same rates, build theirs once and
call the kernels.  Nothing is cached at module level.  A plan also serves
rank-one integrands prof(t) c(xi): ``_profile_march`` marches the scalar
profile once per distinct rate, (K, R), on the same recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, _rate_layout, irfft2, rfft2
from .trajectories import TimeGrid, Trajectory, _initial_hat, _require_compatible, _require_finite

_KINDS = ("etd_piecewise_constant", "etd_piecewise_linear")


@dataclass(frozen=True)
class QuadratureScheme:
    kind: str = "etd_piecewise_linear"
    substeps: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown quadrature kind {self.kind!r}")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")


DEFAULT_SCHEME = QuadratureScheme()

# Entire-function weights for the exact per-interval integrals, z = lam * dt:
#   phi1(z)    = (1 - e^-z)/z                      (piecewise-constant weight)
#   w_left(z)  = (phi1(z) - e^-z)/z                (linear weight, left value)
#   w_right(z) = (1 - phi1(z))/z                   (linear weight, right value)
# Small z uses the Taylor series to avoid catastrophic cancellation.
_SERIES_CUT = 0.5
_NTERMS = 14
_WL_COEFFS = np.array(
    [(-1.0) ** j * (j + 1) / math.factorial(j + 2) for j in range(_NTERMS)]
)
_WR_COEFFS = np.array([(-1.0) ** j / math.factorial(j + 2) for j in range(_NTERMS)])


def _phi1(z: np.ndarray) -> np.ndarray:
    out = np.ones_like(z)
    nz = z > 0
    out[nz] = -np.expm1(-z[nz]) / z[nz]
    return out


def _poly(z: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    out = np.full_like(z, coeffs[-1])
    for c in coeffs[-2::-1]:
        out = out * z + c
    return out


def _series_or_closed(z: np.ndarray, coeffs: np.ndarray, closed) -> np.ndarray:
    small = z < _SERIES_CUT
    out = np.empty_like(z)
    out[small] = _poly(z[small], coeffs)
    out[~small] = closed(z[~small])
    return out


def _w_left(z: np.ndarray) -> np.ndarray:
    return _series_or_closed(z, _WL_COEFFS, lambda zl: (-np.expm1(-zl) / zl - np.exp(-zl)) / zl)


def _w_right(z: np.ndarray) -> np.ndarray:
    return _series_or_closed(z, _WR_COEFFS, lambda zl: (1.0 + np.expm1(-zl) / zl) / zl)


def etd_weights(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """exp(-z), phi1(z), w_left(z) and w_right(z), elementwise: the one weight builder."""
    return np.exp(-z), _phi1(z), _w_left(z), _w_right(z)


def _even_half(sym: np.ndarray, what: str) -> np.ndarray:
    """The half-layout columns of a full (n, n) symbol, which must be even in xi."""
    if not np.array_equal(sym, np.roll(sym[::-1, ::-1], 1, axis=(0, 1))):
        raise ValueError(f"{what} must be even in xi (sym[k] == sym[-k]) to act on real fields")
    return sym[:, : sym.shape[1] // 2 + 1]


class EtdPlan:
    """Per-interval ETD decay and weights for one (lam, time grid, scheme).

    ``lam`` holds the half-layout rates, such as ``grid.k2_half + 1.0``; a
    full (n, n) symbol, as ``etd_convolve`` takes, must be even in xi and is
    cut to its half.  ``values`` are the distinct rates and ``inverse`` maps
    every half-layout mode to its rate (``fields._rate_layout``).  Row r of
    ``decay``, ``w_a`` and ``w_b`` belongs to interval r of
    ``[0, t_1], [t_1, t_2], ...``, each split into ``scheme.substeps`` equal
    pieces whose edges are ``edges``; the weights are (w_left, w_right) for
    the piecewise-linear scheme and (phi1, None) for the piecewise-constant
    one.  ``head_phi1`` sizes the dropped head when there is no initial datum.
    """

    def __init__(self, lam, tgrid: TimeGrid, scheme: QuadratureScheme = DEFAULT_SCHEME):
        lam = np.asarray(lam, dtype=np.float64)
        if np.any(lam < 0) or not np.all(np.isfinite(lam)):
            raise ValueError("decay rates must be finite and non-negative")
        if lam.shape[0] == lam.shape[1]:
            lam = _even_half(lam, "decay rates")
        values, inverse = _rate_layout(lam)
        knots = np.concatenate(([0.0], tgrid.times))
        edges = np.array([np.linspace(a, b, scheme.substeps + 1) for a, b in zip(knots[:-1], knots[1:])])
        dts = np.diff(edges, axis=1).ravel()
        decay, phi1, w_left, w_right = etd_weights(dts[:, None] * values)
        linear = scheme.kind == "etd_piecewise_linear"
        self.tgrid = tgrid
        self.scheme = scheme
        self.values = values
        self.inverse = inverse
        self.edges = edges
        self.dts = dts
        self.decay = decay
        self.w_a, self.w_b = (w_left, w_right) if linear else (phi1, None)
        self.head_phi1 = _phi1(values * tgrid.times[0])
        for table in (values, self.inverse, edges, dts, decay, self.w_a, self.w_b, self.head_phi1):
            if table is not None:
                table.setflags(write=False)

    def gather(self, row: np.ndarray) -> np.ndarray:
        """Spread one per-rate row over the half-layout modes."""
        return np.take(row, self.inverse)


def _etd_march(ghat: np.ndarray, g0hat: np.ndarray | None, plan: EtdPlan,
               per_rate: bool = False) -> tuple[np.ndarray, dict]:
    """March int_0^{t_j} e^{-(t_j-tau) lam} g(tau) dtau over all output nodes, on half spectra.

    With ``per_rate`` the march runs on the plan's rate layout: the integrand
    is one time profile, (K,) node values and its value ``g0hat`` at t = 0,
    and output column r is its convolution against the rate ``plan.values[r]``.
    """
    times = plan.tgrid.times
    substeps = plan.scheme.substeps
    pcw_linear = plan.scheme.kind == "etd_piecewise_linear"
    spread = (lambda row: row) if per_rate else plan.gather
    meta: dict = {}

    if g0hat is not None:
        knot_t = np.concatenate(([0.0], times))
        knot_g = np.concatenate(([g0hat], ghat), axis=0)
        out_offset = 1
        meta["head_included"] = True
    else:
        knot_t = times
        knot_g = ghat
        out_offset = 0
        meta["head_included"] = False
        deficit = times[0] * plan.gather(plan.head_phi1) * ghat[0]
        meta["head_deficit_sup_linf"] = float(np.max(np.abs(irfft2(deficit, plan.inverse.shape[0]))))

    spline = None
    if substeps > 1:
        from scipy.interpolate import CubicSpline

        spline = CubicSpline(knot_t, knot_g, axis=0)

    acc = np.zeros(plan.values.shape if per_rate else plan.inverse.shape, dtype=np.result_type(knot_g, np.float64))
    out = np.empty((times.size,) + acc.shape, dtype=acc.dtype)
    if out_offset == 0:
        out[0] = acc  # the [0, t_1] contribution was dropped

    for i in range(knot_t.size - 1):
        j = i + 1 - out_offset  # interval j of the plan ends at output node j
        if substeps == 1:
            vals = (knot_g[i], knot_g[i + 1])
        else:
            vals = [knot_g[i]]
            vals.extend(spline(tt) for tt in plan.edges[j, 1:-1])
            vals.append(knot_g[i + 1])
        for k in range(substeps):
            row = j * substeps + k
            dt = plan.dts[row]
            decay = spread(plan.decay[row])
            w_a = spread(plan.w_a[row])
            if pcw_linear:
                acc = acc * decay + dt * (w_a * vals[k] + spread(plan.w_b[row]) * vals[k + 1])
            else:
                acc = acc * decay + dt * w_a * vals[k]
        out[j] = acc
    return out, meta


def _div_u_grad_v(grid, uhat: np.ndarray, vhat: np.ndarray) -> np.ndarray:
    """Half spectrum of div(u grad v) with 2/3-rule dealiasing, batched over the leading axes.

    Two r2c and three c2r transforms per call.
    """
    n = grid.n
    d1, d2 = grid.d1_dealiased_half, grid.d2_dealiased_half
    u_r = irfft2(grid.dealias_mask_half * uhat, n)
    g1 = irfft2(d1 * vhat, n)
    g2 = irfft2(d2 * vhat, n)
    return d1 * rfft2(u_r * g1) + d2 * rfft2(u_r * g2)


def _convolve_hat(ghat: np.ndarray, g0hat: np.ndarray | None, plan: EtdPlan,
                  prefactor: np.ndarray | None = None) -> tuple[np.ndarray, dict]:
    """The etd_convolve kernel on half spectra: apply the half-layout prefactor, march."""
    if prefactor is not None:
        ghat = prefactor * ghat
        if g0hat is not None:
            g0hat = prefactor * g0hat
    return _etd_march(ghat, g0hat, plan)


def _bilinear_hat(grid, uhat: np.ndarray, vhat: np.ndarray, g0hat: np.ndarray | None,
                  plan: EtdPlan) -> tuple[np.ndarray, dict]:
    """The bilinear_B kernel on half spectra: the integrand div(u grad v), marched.

    ``g0hat`` is the integrand at t = 0 (or None), which callers that reuse
    it across calls compute once.
    """
    return _etd_march(_div_u_grad_v(grid, uhat, vhat), g0hat, plan)


def _profile_march(prof, plan: EtdPlan) -> np.ndarray:
    """The march of the time profile ``prof`` against each of the plan's rates, (K, R), checked finite.

    An integrand prof(t) c(xi) is rank one, so its march is ``out[:, plan.inverse] * c``:
    one scalar march per distinct rate replaces a march over every mode.
    """
    out, _ = _etd_march(prof(plan.tgrid.times), prof(0.0), plan, per_rate=True)
    _require_finite(out)
    return out


def _trajectory_of(g: Trajectory, out_hat: np.ndarray, meta: dict) -> Trajectory:
    """Shared tail: back to real space; the trajectory rejects overflow."""
    return Trajectory.from_values(g.grid, g.tgrid, irfft2(out_hat, g.grid.n),
                                  initial=ScalarField.zero(g.grid), meta=meta)


def _convolve(g: Trajectory, lam: np.ndarray, prefactor: np.ndarray | None,
              scheme: QuadratureScheme) -> Trajectory:
    """The public convolutions: forward transform, a plan for ``lam``, the kernel, the trajectory."""
    out_hat, meta = _convolve_hat(rfft2(g.stacked), _initial_hat(g), EtdPlan(lam, g.tgrid, scheme), prefactor)
    return _trajectory_of(g, out_hat, meta)


def bilinear_B(u: Trajectory, v: Trajectory, scheme: QuadratureScheme = DEFAULT_SCHEME) -> Trajectory:
    """int_0^t e^{(t-tau) Lap} div(u grad v) dtau on the shared time grid.

    The divergence structure kills the zero mode of the integrand exactly, so
    the output has zero spatial mean at every node.
    """
    _require_compatible(u, v)
    grid = u.grid
    plan = EtdPlan(grid.k2_half, u.tgrid, scheme)
    g0hat = None
    if u.initial is not None and v.initial is not None:
        g0hat = _div_u_grad_v(grid, _initial_hat(u), _initial_hat(v))
    out_hat, meta = _bilinear_hat(grid, rfft2(u.stacked), rfft2(v.stacked), g0hat, plan)
    return _trajectory_of(u, out_hat, meta)


def linear_L(u: Trajectory, scheme: QuadratureScheme = DEFAULT_SCHEME, damped: bool = True) -> Trajectory:
    """int_0^t e^{(t-tau)(Lap - 1)} u dtau; ``damped=False`` drops the -1."""
    return _convolve(u, u.grid.k2_half + (1.0 if damped else 0.0), None, scheme)


def maximal_reg_T(g: Trajectory, scheme: QuadratureScheme = DEFAULT_SCHEME) -> Trajectory:
    """int_0^t e^{(t-tau) Lap} Lap g dtau: the maximal-regularity operator."""
    return _convolve(g, g.grid.k2_half, -g.grid.k2_half, scheme)


def etd_convolve(g: Trajectory, lam: np.ndarray, prefactor: np.ndarray | None = None,
                 scheme: QuadratureScheme = DEFAULT_SCHEME) -> Trajectory:
    """General form int_0^t e^{-(t-tau) lam(xi)} prefactor(xi) g(tau) dtau.

    ``lam`` must be non-negative and ``prefactor`` (any finite, real,
    time-independent symbol, for example a fractional-Laplacian power)
    finite on the grid, and both even in xi; otherwise ``ValueError``.
    """
    shape = (g.grid.n, g.grid.n)
    if prefactor is not None:
        prefactor = np.broadcast_to(np.asarray(prefactor), shape)
        if np.iscomplexobj(prefactor) or not np.all(np.isfinite(prefactor)):
            raise ValueError("prefactor symbol must be real and finite on the grid")
        prefactor = _even_half(prefactor, "prefactor symbol")
    return _convolve(g, np.broadcast_to(np.asarray(lam, dtype=np.float64), shape), prefactor, scheme)
