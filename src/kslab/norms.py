"""Spatial and weighted space-time norms used by the solver and the lab.

Conventions:

* ``sup_{t>0}`` quantities are approximated by maxima over the trajectory's
  time-grid nodes; sup-type report entries carry their argmax time so a
  boundary-attained maximum is visible.
* ``L^2_t`` integrals use the trapezoid rule on the (possibly geometric)
  nodes.  The missing head ``[0, t_min]`` is added in closed form from the
  free evolution of the initial datum when the trajectory carries one, and
  dropped (with a note) otherwise.
* The spatial ``L^inf`` norm is the grid maximum; gradient suprema use the
  Euclidean magnitude of the two components.

Each quantity has one kernel, batched over the leading axes; real-space
kernels take ``(..., n, n)`` values and spectral kernels take the
``(..., n, n//2+1)`` half spectra of ``rfft2`` (see ``fields``).  The
single-field norms are calls into them:

* ``_batch_lp`` for L^p (with the exponent check of ``_check_p``);
* ``_grad_sup`` for the gradient supremum from gradient values, which
  ``_batch_grad_linf`` takes from half spectra;
* ``_parseval_sum`` (which applies the half layout's column multiplicity)
  with the weight rule ``_hs_weight`` for every Sobolev quantity
  (``_batch_hs``, the H^1 and grad-H^s node sums, the closed-form head of
  the time integrals);
* ``semigroup._free_flow`` for the heat flow inside the Besov suprema;
* ``_rank_one_norms`` for the same sums split by decay rate and contracted
  with per-rate time profiles: the lab's rank-one convolutions and its
  multiplier symbols m(t, |xi|^2);
* ``_report`` for the two trajectory reports, joining an X half of u
  (``_thm1_x``, ``_thm2_x``: node values, and in Theorem-2 mode half
  spectra) and a Y half of w (``_thm1_y``, ``_thm2_y``: gradient values,
  and in Theorem-2 mode half spectra) that callers needing one side use
  alone.  ``xy_norms_thm1``/``xy_norms_thm2`` transform a trajectory pair
  and call them; the Picard loop, which keeps its iterates' spectra and
  gradient values, calls them directly.

Supremum entries keep the node series they maximise (``NormEntry.nodes``,
which JSON leaves out).  A per-node norm that is not finite raises
``TrajectoryOverflowError`` naming the first such node, and an overflowing sum
of finite entries names its larger addend's argmax node, so a finite
trajectory whose norm overflows is reported like an overflowing trajectory.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .fields import Grid2D, ScalarField, _grad_values, irfft2, rfft2
from .semigroup import _free_flow
from .trajectories import (TimeGrid, Trajectory, TrajectoryOverflowError, _initial_hat, _require_compatible,
                           _require_finite)

BESOV_MIN_DECADES = 6.0


def sigma(t):
    """The half-norm weight sqrt(t/(1+t)): ~ sqrt(t) near 0, -> 1 at infinity."""
    t = np.asarray(t, dtype=np.float64)
    if np.any(t < 0):
        raise ValueError("sigma is defined for t >= 0")
    out = np.sqrt(t / (1.0 + t))
    return float(out) if out.ndim == 0 else out


def _check_p(p: float) -> float:
    p = float(p)
    if not (p >= 1.0 or np.isinf(p)):
        raise ValueError(f"Lebesgue exponent must be in [1, inf], got {p}")
    return p


def _batch_lp(values: np.ndarray, p: float, cell: float) -> np.ndarray:
    """Discrete L^p norms over the last two axes: (sum |f|^p h^2)^(1/p); grid max for p = inf."""
    p = _check_p(p)
    if np.isinf(p):
        return np.max(np.abs(values), axis=(-2, -1))
    if p == 1.0:
        # |f|^1 and x^(1/1) are exact: the same bits without the power passes
        return np.sum(np.abs(values), axis=(-2, -1)) * cell
    return (np.sum(np.abs(values) ** p, axis=(-2, -1)) * cell) ** (1.0 / p)


def lp_norm(f: ScalarField, p: float) -> float:
    """Discrete L^p norm: (sum |f|^p h^2)^(1/p); grid max for p = inf."""
    return float(_batch_lp(f.values, p, f.grid.cell_area))


def _parseval_factor(grid: Grid2D) -> float:
    return grid.l**2 / grid.n**4


def _hs_weight(grid: Grid2D, s: float, homogeneous: bool = False) -> np.ndarray:
    """Half-layout Sobolev weight (1+|xi|^2)^s, or |xi|^{2s} whose zero mode drops for s != 0."""
    k2 = grid.k2_half
    if not homogeneous:
        return (1.0 + k2) ** s
    if s == 0:
        return np.ones_like(k2)
    return np.where(k2 > 0, k2, 1.0) ** s * (k2 > 0)


def _parseval_sum(grid: Grid2D, power: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Weighted squared norms (l^2/n^4) sum(weight * |c|^2) over the full spectrum.

    ``power`` is the half-layout power spectrum |c|^2, so one transform serves
    every weight; the column multiplicity restores the mirrored columns.
    ``weight`` must be even in xi.
    """
    return _parseval_factor(grid) * np.sum((grid.parseval_mult_half * weight) * power, axis=(-2, -1))


def _rank_one_norms(grid: Grid2D, march: np.ndarray, inverse: np.ndarray, coeffs: np.ndarray,
                    weight: np.ndarray) -> np.ndarray:
    """Node norms of the rank-one spectra ``march[:, inverse] * coeffs``, checked finite.

    ``_parseval_sum`` of |coeffs|^2 split by rate (entry r sums the modes with
    ``inverse == r``) and contracted with the per-rate |march|^2, (K, R).
    """
    summand = (grid.parseval_mult_half * weight) * np.abs(coeffs) ** 2
    parts = _parseval_factor(grid) * np.bincount(inverse.ravel(), summand.ravel(), minlength=march.shape[1])
    nodes = np.sqrt(march**2 @ parts)
    _require_finite(nodes)
    return nodes


def _batch_hs(grid: Grid2D, coeffs: np.ndarray, s: float, homogeneous: bool = False) -> np.ndarray:
    """Sobolev norms of half spectra batched over the leading axes."""
    return np.sqrt(_parseval_sum(grid, np.abs(coeffs) ** 2, _hs_weight(grid, s, homogeneous)))


def hs_norm(f: ScalarField, s: float) -> float:
    """Sobolev norm via the spectral weight (1+|xi|^2)^{s/2}; equals L^2 at s=0."""
    return float(_batch_hs(f.grid, rfft2(f.values), s))


def hs_dot_norm(f: ScalarField, s: float) -> float:
    """Homogeneous counterpart with weight |xi|^{2s} (the zero mode drops for s != 0)."""
    return float(_batch_hs(f.grid, rfft2(f.values), s, homogeneous=True))


def _grad_sup(g1: np.ndarray, g2: np.ndarray, redo=None) -> np.ndarray:
    """Grid maxima of the Euclidean magnitude sqrt(g1^2 + g2^2) over (..., n, n).

    The largest square is rooted once: sqrt is monotone and correctly rounded,
    so this is the largest magnitude bit for bit.  A finite component above
    about 1.3e154 overflows its square; only such nodes are redone, with
    ``np.hypot``, on the components ``redo(bad)`` returns for the node mask
    ``bad`` (default ``g1[bad], g2[bad]``).  Passing ``redo`` makes ``g1``
    and ``g2`` scratch: the squares overwrite them.
    """
    with np.errstate(over="ignore"):
        sq = np.square(g1, out=g1 if redo else None)
        sq += np.square(g2, out=g2 if redo else None)
    sup = np.sqrt(np.max(sq, axis=(-2, -1)))
    bad = ~np.isfinite(sup)
    if np.any(bad):
        h1, h2 = redo(bad) if redo else (g1[bad], g2[bad])
        sup = np.array(sup)
        sup[bad] = np.max(np.hypot(h1, h2), axis=(-2, -1))
    return sup


def _batch_grad_linf(grid: Grid2D, coeffs: np.ndarray) -> np.ndarray:
    """Grid maxima of the Euclidean gradient magnitude of half spectra over (..., n, n//2+1)."""
    return _grad_sup(*_grad_values(grid, coeffs), redo=lambda bad: _grad_values(grid, coeffs[bad]))


def grad_linf(f: ScalarField) -> float:
    """Grid maximum of the Euclidean gradient magnitude."""
    return float(_batch_grad_linf(f.grid, rfft2(f.values)))


def trapezoid(times: np.ndarray, values: np.ndarray):
    """Trapezoid rule along axis 0 on the node times; (K,) values give a scalar."""
    gaps = np.diff(times).reshape((-1,) + (1,) * (values.ndim - 1))
    return np.sum(0.5 * gaps * (values[1:] + values[:-1]), axis=0)


def _spectrum(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Node half spectra (K, n, n//2+1) and their power |c|^2, computed once per report."""
    coeffs = rfft2(traj.stacked)
    return coeffs, np.abs(coeffs) ** 2


# ---------------------------------------------------------------------------
# Besov norms through the heat flow
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BesovEstimate:
    value: float
    argmax_time: float
    at_boundary: bool


def _weighted_heat_sup(f: ScalarField, probe: TimeGrid, weight_exp: float, p: float, grad: bool) -> BesovEstimate:
    """max over probe times of t^{weight_exp} * ||e^{t Lap} f||-type quantities."""
    if probe.t_max / probe.t_min < 10.0**BESOV_MIN_DECADES * (1.0 - 1e-12):
        raise ValueError("the probe grid must span at least six decades of time")
    grid = f.grid
    coeffs = rfft2(f.values)
    times = probe.times
    norms = np.empty(times.size)
    chunk = max(1, (1 << 22) // (grid.n * grid.n))
    for start in range(0, times.size, chunk):
        hot = _free_flow(coeffs, times[start : start + chunk], grid.k2_half)
        stop = start + hot.shape[0]
        if grad:
            norms[start:stop] = _batch_grad_linf(grid, hot)
        else:
            norms[start:stop] = _batch_lp(irfft2(hot, grid.n), p, grid.cell_area)
    weighted = times**weight_exp * norms
    j = int(np.argmax(weighted))
    at_boundary = j in (0, times.size - 1)
    if at_boundary and weighted[j] > 0:
        warnings.warn(
            f"heat-flow supremum attained at probe boundary t={times[j]:.3g}; "
            "the supremum may not be resolved",
            stacklevel=3,
        )
    return BesovEstimate(float(weighted[j]), float(times[j]), at_boundary)


def besov_norm(f: ScalarField, s: float, p: float, probe: TimeGrid) -> BesovEstimate:
    """Negative-order Besov norm sup_t t^{-s/2} ||e^{t Lap} f||_{L^p}.

    The probe grid must span at least six decades so the supremum has a
    chance to be interior; a boundary-attained maximum raises a warning and
    is flagged in the returned estimate.
    """
    if not s < 0:
        raise ValueError(f"the heat-flow characterisation needs s < 0, got {s}")
    _check_p(p)
    return _weighted_heat_sup(f, probe, -s / 2.0, p, grad=False)


def grad_besov_sup(f: ScalarField, probe: TimeGrid) -> BesovEstimate:
    """sup_t t^{1/2} ||grad e^{t Lap} f||_{L^inf}: the gradient's order -1 norm."""
    return _weighted_heat_sup(f, probe, 0.5, np.inf, grad=True)


def default_besov_probe() -> TimeGrid:
    return TimeGrid.geometric(1e-5, 50.0, 72)


# ---------------------------------------------------------------------------
# Norm reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormEntry:
    """A report entry; a supremum also keeps its argmax time and its read-only (K,) node series, ``nodes``."""

    value: float
    equation: str
    argmax_time: float | None = None
    note: str | None = None
    nodes: np.ndarray | None = field(default=None, compare=False, repr=False)  # not in equality or JSON

    def __post_init__(self) -> None:
        if not np.isfinite(self.value) or self.value < 0:
            raise ValueError(f"norm value must be finite and non-negative, got {self.value}")


@dataclass(frozen=True)
class NormReport:
    entries: dict

    def __getitem__(self, name: str) -> NormEntry:
        return self.entries[name]

    def value(self, name: str) -> float:
        return self.entries[name].value

    def to_json_dict(self) -> dict:
        out = {}
        for name, e in self.entries.items():
            d = {"value": e.value, "equation_tag": e.equation}
            if e.argmax_time is not None:
                d["argmax_time"] = e.argmax_time
            if e.note is not None:
                d["note"] = e.note
            out[name] = d
        return out

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")


def _sup_entry(times: np.ndarray, values: np.ndarray, equation: str, note: str | None = None) -> NormEntry:
    """The maximum of per-node values with its time, keeping ``values`` (frozen) as the node series.

    A non-finite value raises ``TrajectoryOverflowError``.
    """
    _require_finite(values)
    values.setflags(write=False)
    j = int(np.argmax(values))
    return NormEntry(float(values[j]), equation, argmax_time=float(times[j]), note=note, nodes=values)


def _sum_entry(addends, equation: str, leaves=None) -> NormEntry:
    """The sum of finite entries; an overflowing sum raises ``TrajectoryOverflowError``.

    It names the argmax node of the largest supremum among ``leaves`` (default:
    the addends), which is the larger addend's: L^2_t entries stay below 1.4e154.
    """
    value = sum(e.value for e in addends)
    if not np.isfinite(value):
        big = max((e for e in (leaves or addends) if e.nodes is not None), key=lambda e: e.value)
        raise TrajectoryOverflowError(int(np.argmax(big.nodes)))
    return NormEntry(value, equation)


def _thm1_x(grid: Grid2D, times: np.ndarray, u_vals: np.ndarray) -> dict:
    """The Theorem-1 X entries of u from its node values (K, n, n)."""
    e_l1 = _sup_entry(times, _batch_lp(u_vals, 1.0, grid.cell_area), "sup_j ||u(t_j)||_L1")
    e_tlinf = _sup_entry(times, times * _batch_lp(u_vals, np.inf, grid.cell_area), "sup_j t_j ||u(t_j)||_Linf")
    x_norm = _sum_entry((e_l1, e_tlinf), "sup ||u||_L1 + sup t ||u||_Linf")
    return {"u_sup_l1": e_l1, "u_sup_t_linf": e_tlinf, "x_norm": x_norm}


def _thm1_y(grid: Grid2D, times: np.ndarray, w_grad: tuple[np.ndarray, np.ndarray]) -> dict:
    """The Theorem-1 Y entry of w from its gradient values (``_grad_values`` of its half spectra)."""
    gw = np.sqrt(times) * _grad_sup(*w_grad)
    return {"y_norm": _sup_entry(times, gw, "sup_j t_j^{1/2} ||grad w(t_j)||_Linf")}


def _report(x: dict, y: dict) -> NormReport:
    """One report from its X and Y entries, plus their sum (overflow names a node of the larger half)."""
    larger = x if x["x_norm"].value >= y["y_norm"].value else y
    xy = _sum_entry((x["x_norm"], y["y_norm"]), "||u||_X + ||w||_Y", leaves=larger.values())
    return NormReport({**x, **y, "xy_norm": xy})


def xy_norms_thm1(u: Trajectory, w: Trajectory) -> NormReport:
    """Trajectory norms for the mass/amplitude setting.

    X(u) = sup ||u||_L1 + sup t ||u||_Linf;  Y(w) = sup t^{1/2} ||grad w||_Linf.
    """
    _require_compatible(u, w)
    times = u.tgrid.times
    return _report(_thm1_x(u.grid, times, u.stacked), _thm1_y(u.grid, times, _grad_values(w.grid, rfft2(w.stacked))))


def _free_head_integral(grid: Grid2D, f0_hat: np.ndarray, t1: float, damped: bool,
                        weight: np.ndarray) -> float:
    """Closed-form int_0^{t1} ||e^{tA} f0||_weight^2 dt for the free flow of f0's half spectrum."""
    lam = grid.k2_half + (1.0 if damped else 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        time_factor = np.where(lam > 0, -np.expm1(-2.0 * t1 * lam) / (2.0 * lam), t1)
    # the time integral weights each mode of the weighted power by time_factor
    return float(_parseval_sum(grid, weight * np.abs(f0_hat) ** 2, time_factor))


def _l2t_grad(grid: Grid2D, times: np.ndarray, power: np.ndarray, initial_hat: np.ndarray | None,
              damped: bool, s: float = 1.0) -> tuple[float, str]:
    """Trapezoid ||grad .||_{L^2_t H^s} over the nodes plus the [0, t_min] head.

    ``power`` is the trajectory's half-layout power spectrum; the head is
    closed from the initial datum's half spectrum ``initial_hat`` under the
    free flow that ``damped`` selects, and dropped without one.  An overflowing
    total names the largest node sum's node, or node 0 for a larger head.
    """
    weight = grid.k2_half * _hs_weight(grid, s)
    nodes = _parseval_sum(grid, power, weight)
    _require_finite(nodes)
    body = trapezoid(times, nodes)
    if initial_hat is not None:
        head = _free_head_integral(grid, initial_hat, float(times[0]), damped, weight)
        note = "head [0, t_min] added in closed form from the initial datum's free flow"
    else:
        head = 0.0
        note = "no initial datum: the [0, t_min] head of the time integral was dropped"
    if not np.isfinite(body + head):
        raise TrajectoryOverflowError(0 if head > body else int(np.argmax(nodes)))
    return float(np.sqrt(body + head)), note


def _sobolev_entries(grid: Grid2D, times: np.ndarray, coeffs: np.ndarray, initial_hat: np.ndarray | None,
                     damped: bool, name: str) -> tuple[NormEntry, NormEntry]:
    """sup_j ||f(t_j)||_H1 and ||grad f||_{L2_t H1} from half spectra: the H1 part of either Theorem-2 half."""
    power = np.abs(coeffs) ** 2
    e_h1 = _sup_entry(times, np.sqrt(_parseval_sum(grid, power, _hs_weight(grid, 1.0))), f"sup_j ||{name}(t_j)||_H1")
    grad, note = _l2t_grad(grid, times, power, initial_hat, damped)
    return e_h1, NormEntry(grad, f"||grad {name}||_{{L2_t H1}}", note=note)


def _thm2_x(grid: Grid2D, times: np.ndarray, u_vals: np.ndarray, u_hat: np.ndarray,
            u0_hat: np.ndarray | None) -> dict:
    """The Theorem-2 X entries of u from its node values, half spectra and initial datum's."""
    e_h1, e_grad = _sobolev_entries(grid, times, u_hat, u0_hat, False, "u")
    e_linf = _sup_entry(times, _batch_lp(u_vals, np.inf, grid.cell_area), "sup_j ||u(t_j)||_Linf")
    x_norm = _sum_entry((e_h1, e_grad, e_linf), "sup ||u||_H1 + ||grad u||_{L2_t H1} + sup ||u||_Linf")
    return {"u_sup_h1": e_h1, "u_grad_l2t_h1": e_grad, "u_sup_linf": e_linf, "x_norm": x_norm}


def _thm2_y(grid: Grid2D, times: np.ndarray, w_hat: np.ndarray, w_grad: tuple[np.ndarray, np.ndarray],
            w0_hat: np.ndarray | None, damped: bool = True) -> dict:
    """The Theorem-2 Y entries of w from its spectra and gradient values; w0's ``damped`` flow closes the head."""
    e_h1, e_grad = _sobolev_entries(grid, times, w_hat, w0_hat, damped, "w")
    e_sig = _sup_entry(times, sigma(times) * _grad_sup(*w_grad), "sup_j sigma(t_j) ||grad w(t_j)||_Linf")
    y_norm = _sum_entry((e_h1, e_grad, e_sig), "sup ||w||_H1 + ||grad w||_{L2_t H1} + sup sigma ||grad w||_Linf")
    return {"w_sup_h1": e_h1, "w_grad_l2t_h1": e_grad, "w_sigma_grad_linf": e_sig, "y_norm": y_norm}


def xy_norms_thm2(u: Trajectory, w: Trajectory) -> NormReport:
    """Trajectory norms for the Sobolev setting.

    X(u) = sup ||u||_H1 + ||grad u||_{L2_t H1} + sup ||u||_Linf;
    Y(w) = sup ||w||_H1 + ||grad w||_{L2_t H1} + sup sigma(t) ||grad w||_Linf.
    The [0, t_min] head of ||grad w||_{L2_t H1} follows the damped flow e^{t(Lap-1)}.
    """
    _require_compatible(u, w)
    grid, times = u.grid, u.tgrid.times
    w_hat = rfft2(w.stacked)
    return _report(_thm2_x(grid, times, u.stacked, rfft2(u.stacked), _initial_hat(u)),
                   _thm2_y(grid, times, w_hat, _grad_values(grid, w_hat), _initial_hat(w)))
