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
  with the weight rule ``_hs_weight`` for the Sobolev quantities of any
  weight (``_batch_hs``, the closed-form head of the time integrals, the
  Theorem-2 verdict's grad-L^2 node sums); the H^1 and grad-H^1 node sums
  of ``_sobolev_nodes`` read their weights, multiplicity included, from
  ``Grid2D.parseval_h1_half`` and ``parseval_grad_h1_half``;
* ``semigroup._free_flow`` for the heat flow inside the Besov suprema;
* ``_rate_parts`` for a stack's unweighted sums split by decay rate, and
  ``_rank_one_norms`` contracting them, scaled per rate by a radial weight,
  with per-rate time profiles: the lab's rank-one convolutions and its
  symbols m(t, |xi|^2), where one binning serves every weight and profile;
* ``_report`` for the two trajectory reports, joining an X half of u
  (``_thm1_x``, ``_thm2_x``) and a Y half of w (``_thm1_y``, ``_thm2_y``)
  that callers needing one side use alone.  The halves are built from node
  series, not arrays: ``_node_series`` gives the L^1, L^inf and grad-sup
  series of u's values and w's gradient values and, in Theorem-2 mode, the
  ``_sobolev_nodes`` of both spectra; ``_l2t`` closes every L^2_t integral
  from its squared node norms and the ``_l2t_head`` of the initial datum.
  The series kernels take any leading shape, so
  ``xy_norms_thm1``/``xy_norms_thm2`` call them on whole trajectories and
  the Picard sweep on one node at a time.

Supremum entries keep the node series they maximise (``NormEntry.nodes``,
which JSON leaves out).  A per-node norm that is not finite raises
``TrajectoryOverflowError`` naming the first such node, and an overflowing sum
of finite entries names its larger addend's argmax node, so a finite
trajectory whose norm overflows is reported like an overflowing trajectory.
"""

from __future__ import annotations

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


def _hs_weight(k2: np.ndarray, s: float, homogeneous: bool = False) -> np.ndarray:
    """Sobolev weight (1+|xi|^2)^s, or |xi|^{2s} whose zero mode drops for s != 0, at |xi|^2 = ``k2`` (any shape)."""
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


def _rate_parts(grid: Grid2D, inverse: np.ndarray, coeffs: np.ndarray, rates: int) -> np.ndarray:
    """Unweighted ``_parseval_sum`` of |coeffs|^2 split by rate, (..., rates) from (..., n, n//2+1): one ``bincount``.

    Entry [..., r] sums the modes with ``inverse == r``; a weight constant on each rate class scales it afterwards.
    """
    lead = coeffs.shape[:-2]
    rows = np.arange(int(np.prod(lead, dtype=np.int64)))[:, None, None] * rates
    summand = np.square(np.abs(coeffs))
    summand *= grid.parseval_mult_half
    parts = np.bincount((inverse + rows).ravel(), summand.ravel(), minlength=rows.size * rates)
    return _parseval_factor(grid) * parts.reshape(lead + (rates,))


def _rank_one_norms(march: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """Node norms (K, ...) of the rank-one spectra ``march[:, inverse] * coeffs``, checked finite.

    ``parts`` (R, ...) is ``_rate_parts`` of ``coeffs`` transposed and scaled per rate by the weight.
    """
    nodes = np.sqrt(march**2 @ parts)
    _require_finite(nodes)
    return nodes


def _batch_hs(grid: Grid2D, coeffs: np.ndarray, s: float, homogeneous: bool = False) -> np.ndarray:
    """Sobolev norms of half spectra batched over the leading axes."""
    return np.sqrt(_parseval_sum(grid, np.abs(coeffs) ** 2, _hs_weight(grid.k2_half, s, homogeneous)))


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


# ---------------------------------------------------------------------------
# Besov norms through the heat flow
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BesovEstimate:
    value: float
    argmax_time: float
    at_boundary: bool


def _weighted_heat_sup(grid: Grid2D, coeffs: np.ndarray, probe: TimeGrid, weight_exp: float, p: float,
                       grad: bool) -> BesovEstimate:
    """max over probe times of t^{weight_exp} * ||e^{t Lap} f||-type quantities, f's half spectrum ``coeffs``."""
    if probe.t_max / probe.t_min < 10.0**BESOV_MIN_DECADES * (1.0 - 1e-12):
        raise ValueError("the probe grid must span at least six decades of time")
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
    return _weighted_heat_sup(f.grid, rfft2(f.values), probe, -s / 2.0, p, grad=False)


def grad_besov_sup(f: ScalarField, probe: TimeGrid) -> BesovEstimate:
    """sup_t t^{1/2} ||grad e^{t Lap} f||_{L^inf}: the gradient's order -1 norm."""
    return _weighted_heat_sup(f.grid, rfft2(f.values), probe, 0.5, np.inf, grad=True)


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


def _sup_entry(times: np.ndarray, values: np.ndarray, equation: str) -> NormEntry:
    """The maximum of per-node values with its time, keeping ``values`` (frozen) as the node series.

    A non-finite value raises ``TrajectoryOverflowError``.
    """
    _require_finite(values)
    values.setflags(write=False)
    j = int(np.argmax(values))
    return NormEntry(float(values[j]), equation, argmax_time=float(times[j]), nodes=values)


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


def _sobolev_nodes(grid: Grid2D, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H^1 norms and Parseval sums of ||grad .||_{H1}^2 (the L^2_t integrand) of half spectra, batched."""
    power = np.abs(coeffs) ** 2
    h1, grad2 = (_parseval_factor(grid) * np.sum(plane * power, axis=(-2, -1))
                 for plane in (grid.parseval_h1_half, grid.parseval_grad_h1_half))
    return np.sqrt(h1), grad2


def _node_series(grid: Grid2D, u_vals: np.ndarray, w_grad: tuple[np.ndarray, np.ndarray],
                 u_hat: np.ndarray | None = None, w_hat: np.ndarray | None = None) -> tuple:
    """The node series the reports read, batched over the leading axes (a single node gives scalars).

    L^1 and L^inf of u's node values and the grad-sup of w's gradient values
    (``_grad_values`` of its half spectra); given both half spectra, also
    ``_sobolev_nodes`` of u's and then of w's.
    """
    series = (_batch_lp(u_vals, 1.0, grid.cell_area), _batch_lp(u_vals, np.inf, grid.cell_area), _grad_sup(*w_grad))
    return series if u_hat is None else series + _sobolev_nodes(grid, u_hat) + _sobolev_nodes(grid, w_hat)


def _thm1_x(times: np.ndarray, l1: np.ndarray, linf: np.ndarray) -> dict:
    """The Theorem-1 X entries of u from its L^1 and L^inf node series."""
    e_l1 = _sup_entry(times, l1, "sup_j ||u(t_j)||_L1")
    e_tlinf = _sup_entry(times, times * linf, "sup_j t_j ||u(t_j)||_Linf")
    x_norm = _sum_entry((e_l1, e_tlinf), "sup ||u||_L1 + sup t ||u||_Linf")
    return {"u_sup_l1": e_l1, "u_sup_t_linf": e_tlinf, "x_norm": x_norm}


def _thm1_y(times: np.ndarray, grad_sup: np.ndarray) -> dict:
    """The Theorem-1 Y entry of w from its grad-sup node series."""
    return {"y_norm": _sup_entry(times, np.sqrt(times) * grad_sup, "sup_j t_j^{1/2} ||grad w(t_j)||_Linf")}


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
    l1, linf, grad_sup = _node_series(u.grid, u.stacked, _grad_values(w.grid, rfft2(w.stacked)))
    return _report(_thm1_x(u.tgrid.times, l1, linf), _thm1_y(u.tgrid.times, grad_sup))


def _l2t_head(grid: Grid2D, f0_hat: np.ndarray | None, t1: float, damped: bool, s: float = 1.0) -> float | None:
    """Closed-form int_0^{t1} ||grad e^{tA} f0||_{H^s}^2 dt for the free flow of f0's half spectrum; None without f0."""
    if f0_hat is None:
        return None
    lam = grid.k2_half + (1.0 if damped else 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        time_factor = np.where(lam > 0, -np.expm1(-2.0 * float(t1) * lam) / (2.0 * lam), float(t1))
    # the time integral weights each mode of the weighted power by time_factor
    return float(_parseval_sum(grid, grid.k2_half * _hs_weight(grid.k2_half, s) * np.abs(f0_hat) ** 2, time_factor))


def _l2t(times: np.ndarray, nodes: np.ndarray, head: float | None) -> float:
    """Trapezoid L^2_t norm from the squared node norms ``nodes``, plus the closed-form [0, t_min] head.

    ``head`` is ``_l2t_head``'s, dropped when None.  A non-finite node, or an
    overflowing total, raises ``TrajectoryOverflowError``; the total names the
    largest node's node, or node 0 for a larger head.
    """
    _require_finite(nodes)
    body = trapezoid(times, nodes)
    head = 0.0 if head is None else head
    if not np.isfinite(body + head):
        raise TrajectoryOverflowError(0 if head > body else int(np.argmax(nodes)))
    return float(np.sqrt(body + head))


def _sobolev_entries(times: np.ndarray, h1: np.ndarray, grad2: np.ndarray, head: float | None,
                     name: str) -> tuple[NormEntry, NormEntry]:
    """sup_j ||f(t_j)||_H1 and ||grad f||_{L2_t H1} from ``_sobolev_nodes``: the H1 part of either Theorem-2 half."""
    e_h1 = _sup_entry(times, h1, f"sup_j ||{name}(t_j)||_H1")
    note = ("no initial datum: the [0, t_min] head of the time integral was dropped" if head is None
            else "head [0, t_min] added in closed form from the initial datum's free flow")
    return e_h1, NormEntry(_l2t(times, grad2, head), f"||grad {name}||_{{L2_t H1}}", note=note)


def _thm2_x(times: np.ndarray, h1: np.ndarray, grad2: np.ndarray, linf: np.ndarray, head: float | None) -> dict:
    """The Theorem-2 X entries of u from its node series and its ``_l2t_head`` (undamped)."""
    e_h1, e_grad = _sobolev_entries(times, h1, grad2, head, "u")
    e_linf = _sup_entry(times, linf, "sup_j ||u(t_j)||_Linf")
    x_norm = _sum_entry((e_h1, e_grad, e_linf), "sup ||u||_H1 + ||grad u||_{L2_t H1} + sup ||u||_Linf")
    return {"u_sup_h1": e_h1, "u_grad_l2t_h1": e_grad, "u_sup_linf": e_linf, "x_norm": x_norm}


def _thm2_y(times: np.ndarray, h1: np.ndarray, grad2: np.ndarray, grad_sup: np.ndarray, head: float | None) -> dict:
    """The Theorem-2 Y entries of w from its node series and its ``_l2t_head`` (w's own flow)."""
    e_h1, e_grad = _sobolev_entries(times, h1, grad2, head, "w")
    e_sig = _sup_entry(times, sigma(times) * grad_sup, "sup_j sigma(t_j) ||grad w(t_j)||_Linf")
    y_norm = _sum_entry((e_h1, e_grad, e_sig), "sup ||w||_H1 + ||grad w||_{L2_t H1} + sup sigma ||grad w||_Linf")
    return {"w_sup_h1": e_h1, "w_grad_l2t_h1": e_grad, "w_sigma_grad_linf": e_sig, "y_norm": y_norm}


def xy_norms_thm2(u: Trajectory, w: Trajectory, *, damped: bool = True) -> NormReport:
    """Trajectory norms for the Sobolev setting.

    X(u) = sup ||u||_H1 + ||grad u||_{L2_t H1} + sup ||u||_Linf;
    Y(w) = sup ||w||_H1 + ||grad w||_{L2_t H1} + sup sigma(t) ||grad w||_Linf.
    The [0, t_min] head of ||grad w||_{L2_t H1} follows the damped flow e^{t(Lap-1)},
    or the heat flow e^{t Lap} with ``damped=False`` (Remark (ii)).
    """
    _require_compatible(u, w)
    grid, times = u.grid, u.tgrid.times
    w_hat = rfft2(w.stacked)
    x = _thm2_x(times, *_sobolev_nodes(grid, rfft2(u.stacked)), _batch_lp(u.stacked, np.inf, grid.cell_area),
                _l2t_head(grid, _initial_hat(u), times[0], False))
    y = _thm2_y(times, *_sobolev_nodes(grid, w_hat), _batch_grad_linf(grid, w_hat),
                _l2t_head(grid, _initial_hat(w), times[0], damped))
    return _report(x, y)
