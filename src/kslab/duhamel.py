"""Time-convolution operators against the heat and damped-heat flows.

All operators share one exponential-time-differencing core: per Fourier mode
the factor ``exp(-(t - tau) * lam)`` is integrated exactly over each time
interval against the piecewise-linear interpolant of the integrand (the
second-order ETD rule; Hochbruck & Ostermann 2010), and the running integral
is marched from node to node (the semigroup factorises exactly, so marching
equals the full sum per mode).  The time grid is the refinement: each ETD
interval runs from one node to the next, so more nodes (``time.k``) is the
one way to shrink the quadrature error.  A geometric grid of 2K - 1 nodes
holds the K-node grid's nodes, so the change on them estimates that error.

The apparently singular kernels of the underlying estimates stay benign
here: the differentiation sits inside the exactly integrated multiplier.

``etd_convolve`` is the general operator; ``linear_L`` and ``maximal_reg_T``
are symbol choices over it, (lam, prefactor) = (|xi|^2 + 1 or |xi|^2, none)
and (|xi|^2, -|xi|^2).  ``bilinear_B`` builds its own spectral integrand.

Layout: the operators march the ``(n, n//2+1)`` half spectra of ``rfft2``
(see ``fields``).  There are two array kernels: ``_div_u_grad_v`` (the
dealiased integrand div(u grad v)) and ``_etd_step`` (one interval of the
march, in place on one plane or one per-rate row).  ``_etd_march`` runs the
step over whole integrand stacks: the lab and the public operators build
their integrand and call it directly, and add only the forward transform,
any prefactor, the inverse transform and the trajectory (which rejects
non-finite output).  The Picard sweep calls ``_etd_step`` node by node, so
its integrands and its outputs are single planes.  Symbols are half-layout
too (``grid.k2_half + shift``) and even in xi (``sym[k] == sym[-k]``), so
they map a real field's spectrum to a real field's spectrum.

Interval handling near t = 0: when the input trajectories carry an initial
datum, the integrand is known at t = 0 and the head ``[0, t_1]`` is one more
ETD interval; otherwise the head is dropped.

Plans: an ``EtdPlan`` holds what the march needs that does not depend on the
integrand, for one (lam, time grid): the interval lengths and, per interval
(head included), ``exp(-z)`` and the two quadrature weights at z = lam * dt.
The tables are stored per distinct value of lam, with an (n, n//2+1) index
back to the half-layout modes, so a radial rate
such as |xi|^2 costs 3 x intervals x (distinct rates) floats instead of
3 x intervals x n^2: about 2.9 MB at n = 128, K = 64 (1911 distinct rates;
the index adds 67 kB) and 42 MB at n = 512, K = 64 (the index adds 1 MB).
A plan is a plain read-only object.  Its lifetime is the caller's: every
public operator builds one for its call, and the Picard sweep and the lab,
which convolve many integrands against the same rates, take theirs from
their window (``trajectories.Window.plan``), which builds one per damping
and keeps it as long as the window lives.  Nothing is cached at module
level.  A plan
also serves rank-one integrands prof(t) c(xi): given the 1-D profile,
``_etd_march`` marches it once per distinct rate, (K, R), on the same
recurrence (``_profile_march``).
"""

from __future__ import annotations

import math

import numpy as np

from .fields import ScalarField, _rate_layout, irfft2, rfft2
from .trajectories import TimeGrid, Trajectory, _initial_hat, _require_compatible, _require_finite


# Entire-function weights for the exact per-interval integrals, z = lam * dt:
#   w_left(z)  = (phi1(z) - e^-z)/z                (linear weight, left value)
#   w_right(z) = (1 - phi1(z))/z                   (linear weight, right value)
# where phi1(z) = (1 - e^-z)/z = w_left(z) + w_right(z) is the reference stepper's predictor weight.
# Small z uses the Taylor series to avoid catastrophic cancellation.
_SERIES_CUT = 0.5
_NTERMS = 14
_WL_COEFFS = np.array(
    [(-1.0) ** j * (j + 1) / math.factorial(j + 2) for j in range(_NTERMS)]
)
_WR_COEFFS = np.array([(-1.0) ** j / math.factorial(j + 2) for j in range(_NTERMS)])


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


def etd_weights(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """exp(-z), w_left(z) and w_right(z), elementwise: the one weight builder."""
    return np.exp(-z), _w_left(z), _w_right(z)


def _half_symbol(sym, n: int, what: str) -> np.ndarray:
    """``sym`` broadcast to the (n, n//2+1) half layout, checked even in xi on its self-mirrored columns."""
    try:
        sym = np.broadcast_to(sym, (n, n // 2 + 1))
    except ValueError:
        raise ValueError(f"{what} must be in the half layout (n, n//2+1) = ({n}, {n // 2 + 1}), "
                         f"got shape {np.shape(sym)}") from None
    ends = sym[:, [0, -1]]  # xi_2 = 0 and n/2: the only columns whose mirrors the half layout holds
    if not np.array_equal(ends, np.roll(ends[::-1], 1, axis=0)):
        raise ValueError(f"{what} must be even in xi (sym[k] == sym[-k]) to act on real fields")
    return sym


class EtdPlan:
    """Per-interval ETD decay and weights for one (lam, time grid).

    ``lam`` holds the half-layout rates, such as ``grid.k2_half + 1.0``;
    ``values`` are the distinct rates and ``inverse`` maps every half-layout
    mode to its rate (``fields._rate_layout``).  Row j of ``dts``, ``decay``,
    ``w_left`` and ``w_right`` belongs to interval j of ``[0, t_1], [t_1, t_2],
    ...``; ``w_left`` and ``w_right`` weigh the integrand's values at the
    interval's two ends.
    """

    def __init__(self, lam, tgrid: TimeGrid):
        lam = np.asarray(lam, dtype=np.float64)
        if np.any(lam < 0) or not np.all(np.isfinite(lam)):
            raise ValueError("decay rates must be finite and non-negative")
        if lam.ndim != 2:  # a plan has no grid to take n from (etd_convolve does), so no broadcasting
            raise ValueError(f"decay rates must be in the half layout (n, n//2+1), got shape {lam.shape}")
        lam = _half_symbol(lam, lam.shape[0], "decay rates")
        values, inverse = _rate_layout(lam)
        dts = np.diff(np.concatenate(([0.0], tgrid.times)))
        decay, w_left, w_right = etd_weights(dts[:, None] * values)
        self.tgrid = tgrid
        self.values = values
        self.inverse = inverse
        self.dts = dts
        self.decay = decay
        self.w_left = w_left
        self.w_right = w_right
        for table in (values, inverse, dts, decay, w_left, w_right):
            table.setflags(write=False)


def _etd_step(acc: np.ndarray, left, right, plan: EtdPlan, j: int) -> np.ndarray:
    """Interval j of the march, in place: acc <- acc decay_j + dt_j (w_left_j left + w_right_j right).

    ``acc`` is a per-rate row (R,) for a time profile, with scalar ends, or a
    half-spectrum plane with plane ends, over which the per-rate table rows
    are spread through ``plan.inverse``.  Returns ``acc``.
    """
    rows = plan.decay[j], plan.w_left[j], plan.w_right[j]
    decay, w_left, w_right = rows if acc.ndim == 1 else (np.take(row, plan.inverse) for row in rows)
    acc *= decay
    acc += plan.dts[j] * (w_left * left + w_right * right)
    return acc


def _etd_march(ghat: np.ndarray, g0hat: np.ndarray | None, plan: EtdPlan) -> np.ndarray:
    """March int_0^{t_j} e^{-(t_j-tau) lam} g(tau) dtau over all output nodes, one ``_etd_step`` per node.

    The layout follows the integrand's shape.  A 1-D integrand (K,) is one
    time profile: the march runs on the plan's rate layout, and output column
    r is its convolution against the rate ``plan.values[r]``.  Any other
    shape is a stack of half spectra.  ``g0hat`` is the integrand at t = 0;
    ``None`` drops the head ``[0, t_1]``, so ``out[0]`` is zero.
    """
    shape = plan.values.shape if ghat.ndim == 1 else plan.inverse.shape
    acc = np.zeros(shape, dtype=np.result_type(ghat, np.float64))
    out = np.zeros((plan.dts.size,) + acc.shape, dtype=acc.dtype)  # a dropped head leaves out[0] at zero
    left = g0hat
    for j, right in enumerate(ghat):  # interval j of the plan ends at output node j
        if left is not None:
            out[j] = _etd_step(acc, left, right, plan, j)
        left = right
    return out


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


def _profile_march(prof, plan: EtdPlan) -> np.ndarray:
    """The march of the time profile ``prof`` against each of the plan's rates, (K, R), checked finite.

    An integrand prof(t) c(xi) is rank one, so its march is ``out[:, plan.inverse] * c``:
    one scalar march per distinct rate replaces a march over every mode.
    """
    out = _etd_march(prof(plan.tgrid.times), prof(0.0), plan)
    _require_finite(out)
    return out


def _trajectory_of(g: Trajectory, out_hat: np.ndarray) -> Trajectory:
    """Shared tail: back to real space; the trajectory rejects overflow."""
    return Trajectory.from_values(g.grid, g.tgrid, irfft2(out_hat, g.grid.n), initial=ScalarField.zero(g.grid))


def _convolve(g: Trajectory, lam: np.ndarray, prefactor: np.ndarray | None) -> Trajectory:
    """The public convolutions: forward transform, prefactor, a plan for ``lam``, march, trajectory."""
    ghat, g0hat = rfft2(g.stacked), _initial_hat(g)
    if prefactor is not None:
        ghat = prefactor * ghat
        if g0hat is not None:
            g0hat = prefactor * g0hat
    return _trajectory_of(g, _etd_march(ghat, g0hat, EtdPlan(lam, g.tgrid)))


def bilinear_B(u: Trajectory, v: Trajectory) -> Trajectory:
    """int_0^t e^{(t-tau) Lap} div(u grad v) dtau on the shared time grid.

    The divergence structure kills the zero mode of the integrand exactly, so
    the output has zero spatial mean at every node.
    """
    _require_compatible(u, v)
    grid = u.grid
    plan = EtdPlan(grid.k2_half, u.tgrid)
    g0hat = None
    if u.initial is not None and v.initial is not None:
        g0hat = _div_u_grad_v(grid, _initial_hat(u), _initial_hat(v))
    return _trajectory_of(u, _etd_march(_div_u_grad_v(grid, rfft2(u.stacked), rfft2(v.stacked)), g0hat, plan))


def linear_L(u: Trajectory, damped: bool = True) -> Trajectory:
    """int_0^t e^{(t-tau)(Lap - 1)} u dtau; ``damped=False`` drops the -1."""
    return _convolve(u, u.grid.k2_half + (1.0 if damped else 0.0), None)


def maximal_reg_T(g: Trajectory) -> Trajectory:
    """int_0^t e^{(t-tau) Lap} Lap g dtau: the maximal-regularity operator."""
    return _convolve(g, g.grid.k2_half, -g.grid.k2_half)


def etd_convolve(g: Trajectory, lam: np.ndarray, prefactor: np.ndarray | None = None) -> Trajectory:
    """General form int_0^t e^{-(t-tau) lam(xi)} prefactor(xi) g(tau) dtau.

    ``lam`` (non-negative) and ``prefactor`` (any real, time-independent
    symbol, for example a fractional-Laplacian power) must be finite
    half-layout symbols, even in xi; otherwise ``ValueError``.
    """
    if prefactor is not None:
        if np.iscomplexobj(prefactor) or not np.all(np.isfinite(prefactor)):
            raise ValueError("prefactor symbol must be real and finite on the grid")
        prefactor = _half_symbol(prefactor, g.grid.n, "prefactor symbol")
    return _convolve(g, _half_symbol(lam, g.grid.n, "decay rates"), prefactor)
