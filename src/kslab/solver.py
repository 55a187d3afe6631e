"""Fixed-point driver for the chemotaxis system and its time-stepping oracle.

The integral form of the system

    u_t - Lap u + div(u grad v) = 0,    v_t - Lap v + v - u = 0

is solved by iterating the map

    (u, w) -> (e^{t Lap} u0 - 4c B(u, w),  e^{t(Lap-1)} w0 + (1/4c) L(u))

on trajectories, where w = v/(4c) is the rescaled chemical concentration and
c is an admissible constant for the linear and bilinear estimates (supplied
by the caller, or the pinned empirical estimate ``inequality_lab.AUTO_C``).
Iteration starts from the free evolution and contracts in the same weighted
space-time norm the chosen theorem mode quantifies.

The sweep is Gauss-Seidel: u_{m+1} = e^{t Lap} u0 - 4c B(u_m, w_m), then
w_{m+1} = e^{t(Lap-1)} w0 + L(u_{m+1})/(4c) from the new density rather than
from u_m.  The fixed point is the same; at the benchmark's small data the
iteration count drops from 4 to 3.  An iteration is one sweep over the time
nodes that runs every step on single, cache-resident planes and overwrites
the held iterate node by node (``picard_solve``): six c2r and two r2c
one-plane transforms per node, and a memory of a few (K, n, n) arrays.

``reference_solve`` integrates the differential system directly with an
exact integrating factor for the linear parts and an explicit dealiased
nonlinearity, providing an independent discretisation of the same mild
solution for cross-checks.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from . import norms as _norms
from .duhamel import EtdPlan, _div_u_grad_v, _etd_step, _phi1, etd_weights
from .fields import Grid2D, ScalarField, _grad_values, irfft2, rfft2
from .inequality_lab import AUTO_C, smallness_threshold
from .norms import NormReport, default_besov_probe, lp_norm, hs_norm
from .semigroup import _free_flow
from .trajectories import (
    TimeGrid,
    Trajectory,
    TrajectoryOverflowError,
    Window,
    _require_compatible,
)


class PicardBlowupError(RuntimeError):
    """Non-finite values appeared during the fixed-point iteration.

    ``quantity`` is ``"iterate"`` when the iterate itself overflowed and
    ``"norm"`` when a finite iterate's (or iterate difference's) per-node norm
    did; iteration 0 is the free evolution of the data.
    """

    def __init__(self, iteration: int, node_index: int, which: str, t: float, quantity: str = "iterate"):
        self.iteration = iteration
        self.node_index = node_index
        self.which = which
        self.t = t
        self.quantity = quantity
        super().__init__(
            f"non-finite {which} {quantity} at iteration {iteration}, node {node_index} (t={t:.4g})"
        )


class ReferenceStepError(RuntimeError):
    """The explicit nonlinear term doubled within a single step.

    ``t`` is the start of the micro-step whose term doubled.
    """

    def __init__(self, t: float):
        self.t = t
        super().__init__(f"nonlinear term doubled within one step near t={t:.4g}")


@dataclass(frozen=True)
class SolverConfig(Window):
    """A Picard run: a ``Window`` with its defaults, then c, the stopping rule, the theorem mode and the variant."""

    c: float | None = None  # None: the pinned empirical constant inequality_lab.AUTO_C
    max_iter: int = 50
    tol: float = 1e-11
    mode: str = "thm1_L1Linf"
    remark_ii: bool = False  # drop the unit damping in the chemical equation

    def __post_init__(self) -> None:
        if self.mode not in ("thm1_L1Linf", "thm2_H1bH1"):
            raise ValueError(f"unknown solver mode {self.mode!r}")
        if self.c is not None and not (math.isfinite(self.c) and self.c > 0):
            raise ValueError(f"the estimate constant c must be finite and positive, got {self.c!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")

    def resolve_c(self) -> float:
        """The configured c, or the pinned ``AUTO_C`` without running the lab.

        The pin is ``default_constants().c``; a test and ``kslab verify``
        recompute that and require bit equality.
        """
        return AUTO_C if self.c is None else float(self.c)


def _xy_report(thm2: bool, tgrid: TimeGrid, iteration: int, series, heads=(None, None)) -> NormReport:
    """The given mode's report from ``norms._node_series`` rows and the two ``_l2t_head``s (Theorem 2).

    A non-finite norm of the X half (Y half, or the larger half of an
    overflowing sum) is a blow-up of u (w) at ``iteration``.
    """
    times = tgrid.times
    l1, linf, grad_sup = series[:3]
    with _blowup_of("u", iteration, tgrid):
        x = _norms._thm2_x(times, *series[3:5], linf, heads[0]) if thm2 else _norms._thm1_x(times, l1, linf)
    with _blowup_of("w", iteration, tgrid):
        y = _norms._thm2_y(times, *series[5:7], grad_sup, heads[1]) if thm2 else _norms._thm1_y(times, grad_sup)
    with _blowup_of("u" if x["x_norm"].value >= y["y_norm"].value else "w", iteration, tgrid):
        return _norms._report(x, y)


def _free_chemical_response(grid: Grid2D, u0_hat: np.ndarray, times: np.ndarray, damped: bool) -> np.ndarray:
    """Closed form of the chemical response to the free density evolution, as half spectra.

    Per mode, int_0^t e^{-(t-tau)(lam+1)} e^{-tau lam} dtau = e^{-t lam}(1-e^{-t})
    (and t e^{-t lam} without damping), so this part of the fixed-point map
    needs no quadrature at all.
    """
    scale = -np.expm1(-times) if damped else times
    return _free_flow(u0_hat, times, grid.k2_half, scale)


@dataclass
class SolutionReport:
    """The fixed point, its iteration history, its certificate inputs and both norm reports.

    ``residuals[m-1]`` is the configured mode's X x Y norm of the iterate
    difference (u_m - u_{m-1}, w_m - w_{m-1}); its grad-sup term comes from
    the gradient values cached with each iterate, differenced (the gradient
    is linear).  ``contraction_factors`` holds every ratio r_m / r_{m-1} with
    r_{m-1} > 0.  Under the Gauss-Seidel sweep the first ratio measures the
    quadratic term (the first step away from the free evolution), not the
    contraction; the later ones estimate the contraction rate.
    ``free_u_x_nodes`` holds ||u||_L1 + t ||u||_Linf at each node for
    iteration 0, u0's heat flow, which the Theorem-1 verdict reads; it is not
    in the JSON.  The chemical trajectory is the paper's v = 4c w, whose
    initial datum is ``v0``; the iterated w is held only as ``w_hat``.
    ``u_hat``, ``w_hat`` (half spectra) and ``w_grad`` (w's gradient values)
    are the final iterate's arrays as the iteration held them, frozen; the
    Theorem-2 verdict reads them.  Like ``NormEntry.nodes`` they are working
    data, not results, so JSON, equality and repr leave them out.
    """

    config: SolverConfig
    c: float
    converged: bool
    iterations: int
    residuals: list[float]
    contraction_factors: list[float]
    iterate_norms: list[float]
    a0: float
    threshold: float
    threshold_ok: bool
    contraction_bound: float
    u: Trajectory
    v: Trajectory
    u0: ScalarField
    v0: ScalarField
    norms_thm1: NormReport
    norms_thm2: NormReport
    mass_initial: float
    mass_drift_max: float
    free_u_x_nodes: np.ndarray
    u_hat: np.ndarray = field(compare=False, repr=False)
    w_hat: np.ndarray = field(compare=False, repr=False)
    w_grad: tuple[np.ndarray, np.ndarray] = field(compare=False, repr=False)
    diagnostics: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "config": {**asdict(self.config), "c": self.c},
            "converged": self.converged,
            "iterations": self.iterations,
            "residuals": self.residuals,
            "contraction_factors": self.contraction_factors,
            "iterate_norms": self.iterate_norms,
            "a0": self.a0,
            "threshold": self.threshold,
            "threshold_ok": self.threshold_ok,
            "contraction_bound": self.contraction_bound,
            "norms_thm1": self.norms_thm1.to_json_dict(),
            "norms_thm2": self.norms_thm2.to_json_dict(),
            "mass_initial": self.mass_initial,
            "mass_drift_max": self.mass_drift_max,
            "diagnostics": self.diagnostics,
        }


@contextmanager
def _blowup_of(which: str, iteration: int, tgrid: TimeGrid):
    """Report a non-finite per-node norm found inside the block as a norm blow-up of ``which``."""
    try:
        yield
    except TrajectoryOverflowError as exc:
        j = exc.node_index
        raise PicardBlowupError(iteration, j, which, float(tgrid.times[j]), "norm") from exc


def _mass_drift(masses: np.ndarray, mass0: float) -> float:
    scale = abs(mass0) if mass0 != 0 else 1.0
    return float(np.max(np.abs(masses - mass0)) / scale)


def picard_solve(u0: ScalarField, w0: ScalarField, cfg: SolverConfig) -> SolutionReport:
    """Iterate the rescaled integral map to its fixed point in Gauss-Seidel order.

    ``w0`` is the already rescaled chemical datum (original datum divided by
    4c).  Non-convergence within ``max_iter`` is reported, not raised; a
    non-finite iterate, or a finite one whose per-node norm overflows, raises
    :class:`PicardBlowupError` naming the iteration, the component and the
    first offending node.

    Iteration m is one sweep over the time nodes j = 0..K-1.  At node j it
    forms B's integrand from node j of (u_{m-1}, w_{m-1}), steps B's march,
    takes u_m(t_j), steps L's march on u_m(t_j)'s deviation from the free
    flow, takes w_m(t_j), transforms u_m's node values and w_m's gradient,
    reduces them to the node series both reports read (the iterate's, and
    the residual's from the differences with node j of the held iterate),
    and then overwrites node j of the held iterate: its half spectra, u's
    node values and w's gradient values.  Nothing reads the old node j
    again.  Every transform is one plane: per node six c2r and two r2c, as
    B's dealiased product (three and two), u_m's node values (one) and w_m's
    gradient (two).  Every temporary is a plane too, so the memory is the
    held iterate, the map's two free parts (u0's heat flow and w's affine
    part) and the plans.

    The first non-finite u_m(t_j) raises at once.  A non-finite w_m(t_j) is
    remembered and raised after the sweep, since u_m at later nodes does not
    read it.  Norm overflows are raised from the series after the sweep: the
    iterate's report (X, Y, their sum) before the residual's.
    """
    grid, tgrid = cfg.grids(u0, w0)
    times = tgrid.times
    n, k = grid.n, tgrid.count
    c = cfg.resolve_c()
    thm2 = cfg.mode == "thm2_H1bH1"
    damped = not cfg.remark_ii

    # B and L convolve against the same rates every iteration: one plan each
    b_plan = EtdPlan(grid.k2_half, tgrid)
    l_plan = EtdPlan(grid.k2_half + (1.0 if damped else 0.0), tgrid)

    u0_hat, w0_hat = rfft2(u0.values), rfft2(w0.values)
    free_u_hat = _free_flow(u0_hat, times, grid.k2_half)
    w_hat = _free_flow(w0_hat, times, grid.k2_half + (1.0 if damped else 0.0))
    # L is linear: the response to the free part is exact, quadrature only
    # touches the (small) deviation of the iterate from the free evolution.
    w_affine = w_hat + (1.0 / (4.0 * c)) * _free_chemical_response(grid, u0_hat, times, damped)
    # B's integrand at t = 0 is div(u0 grad w0) in every iteration; the
    # deviation that L convolves starts from zero
    b_head = _div_u_grad_v(grid, u0_hat, w0_hat)
    l_head = np.zeros_like(u0_hat)
    heads = (_norms._l2t_head(grid, u0_hat, times[0], False), _norms._l2t_head(grid, w0_hat, times[0], damped))

    # iteration 0 is the free evolution; the sweeps overwrite the held iterate in place
    u_hat = free_u_hat.copy()
    u_vals = np.empty((k, n, n))
    w_grad = (np.empty((k, n, n)), np.empty((k, n, n)))
    rows = 7 if thm2 else 3  # norms._node_series: L1, Linf, grad-sup, then the Sobolev series of u and w
    mass0 = u0.integral()
    residuals: list[float] = []
    factors: list[float] = []
    iterate_norms: list[float] = []
    converged = False

    for m in range(cfg.max_iter + 1):
        series, change, masses = np.empty((rows, k)), np.empty((rows, k)), np.empty(k)
        acc_b, acc_l = np.zeros_like(u0_hat), np.zeros_like(u0_hat)
        left_b, left_l = b_head, l_head
        w_bad = None
        for j in range(k):
            if m == 0:
                un_hat, wn_hat = u_hat[j], w_hat[j]
                un_vals = irfft2(un_hat, n)
            else:
                right_b = _div_u_grad_v(grid, u_hat[j], w_hat[j])
                _etd_step(acc_b, left_b, right_b, b_plan, j)
                left_b = right_b
                un_hat = free_u_hat[j] - (4.0 * c) * acc_b
                un_vals = irfft2(un_hat, n)
                if not np.all(np.isfinite(un_vals)):
                    raise PicardBlowupError(m, j, "u", float(times[j]))
                if w_bad is not None:
                    continue
                right_l = un_hat - free_u_hat[j]
                _etd_step(acc_l, left_l, right_l, l_plan, j)
                left_l = right_l
                wn_hat = w_affine[j] + (1.0 / (4.0 * c)) * acc_l
                if not np.all(np.isfinite(wn_hat)):
                    w_bad = j
                    continue
            wn_grad = _grad_values(grid, wn_hat)
            spectra = (un_hat, wn_hat) if thm2 else ()
            series[:, j] = _norms._node_series(grid, un_vals, wn_grad, *spectra)
            masses[j] = un_vals.sum() * grid.cell_area
            if m:
                # the residual reads differences of the kept values (the gradient
                # is linear); they start from u0 - u0 = 0 and w0 - w0 = 0: no heads
                d_grad = (wn_grad[0] - w_grad[0][j], wn_grad[1] - w_grad[1][j])
                d_spectra = (un_hat - u_hat[j], wn_hat - w_hat[j]) if thm2 else ()
                change[:, j] = _norms._node_series(grid, un_vals - u_vals[j], d_grad, *d_spectra)
                u_hat[j], w_hat[j] = un_hat, wn_hat
            u_vals[j], w_grad[0][j], w_grad[1][j] = un_vals, *wn_grad
        if w_bad is not None:
            raise PicardBlowupError(m, w_bad, "w", float(times[w_bad]))

        report = _xy_report(thm2, tgrid, m, series, heads)
        iterate_norms.append(report.value("xy_norm"))
        drift = _mass_drift(masses, mass0)
        if m == 0:
            # the Theorem-1 verdict's right side reads u0's heat flow, which is this iterate
            free_u_x_nodes = series[0] + times * series[1]
            mass_drift = drift
            continue
        mass_drift = max(mass_drift, drift)
        diff = _xy_report(thm2, tgrid, m, change).value("xy_norm")
        residuals.append(diff)
        if len(residuals) >= 2 and residuals[-2] > 0:
            factors.append(residuals[-1] / residuals[-2])
        if diff <= cfg.tol:
            converged = True
            break
    iterations = m
    del free_u_hat, w_affine  # only the sweeps read them: the final reports and v do not hold them
    a0 = iterate_norms[0]
    threshold = smallness_threshold(c)
    contraction_bound = 8.0 * c * c * a0 + 0.25

    # the last report is the configured mode's report of the final iterate; the other
    # mode's reads the same series, and in Theorem-1 mode the spectra's Sobolev series too
    if not thm2:
        sobolev = [_norms._sobolev_nodes(grid, u_hat[j]) + _norms._sobolev_nodes(grid, w_hat[j]) for j in range(k)]
        series = np.concatenate((series, np.array(sobolev).T))
    other = _xy_report(not thm2, tgrid, iterations, series, heads)
    report_thm1, report_thm2 = (other, report) if thm2 else (report, other)
    u = Trajectory.from_values(grid, tgrid, u_vals, initial=u0)
    v0 = (4.0 * c) * w0
    v_vals = np.empty((k, n, n))
    for j in range(k):
        v_vals[j] = irfft2(w_hat[j], n)
    v_vals *= 4.0 * c
    v = Trajectory.from_values(grid, tgrid, v_vals, initial=v0)

    for held in (u_hat, w_hat, *w_grad):
        held.setflags(write=False)
    diag = {}
    for key, entry in (("t_u_linf", report_thm1["u_sup_t_linf"]), ("sqrt_t_grad_w", report_thm1["y_norm"])):
        diag[f"{key}_argmax"] = entry.argmax_time
        diag[f"{key}_interior"] = bool(times[0] < entry.argmax_time < times[-1])

    return SolutionReport(
        config=cfg,
        c=c,
        converged=converged,
        iterations=iterations,
        residuals=residuals,
        contraction_factors=factors,
        iterate_norms=iterate_norms,
        a0=a0,
        threshold=threshold,
        threshold_ok=bool(a0 < threshold),
        contraction_bound=contraction_bound,
        u=u,
        v=v,
        u0=u0,
        v0=v0,
        norms_thm1=report_thm1,
        norms_thm2=report_thm2,
        mass_initial=mass0,
        mass_drift_max=mass_drift,
        free_u_x_nodes=free_u_x_nodes,
        u_hat=u_hat,
        w_hat=w_hat,
        w_grad=w_grad,
        diagnostics=diag,
    )


# ---------------------------------------------------------------------------
# Independent reference integrator
# ---------------------------------------------------------------------------


def reference_solve(u0: ScalarField, v0: ScalarField, cfg: SolverConfig) -> tuple[Trajectory, Trajectory]:
    """Semi-implicit spectral time stepping for the original (u, v) system.

    The linear parts decay through exact integrating factors; the coupling
    and the dealiased nonlinearity are reconstructed linearly within each
    step (a two-stage exponential integrator).  Every micro-step carries the
    nonlinear term: the linear heat flow is the small-mass limit, not a
    separate path.  The fixed micro-step is at most a quarter of the
    smallest node gap and lands exactly on every node.

    Transform budget: two r2c for the data; per micro-step one nonlinear
    term (2 r2c, 3 c2r); per segment one extra predictor term (2 r2c, 3 c2r)
    and two c2r for the node values.  The step tables only ever multiply
    complex spectra, so each segment casts them to complex128 once: a real
    table would be re-cast on every product.
    """
    grid, tgrid = cfg.grids(u0, v0)
    n = grid.n
    lam_u = grid.k2_half
    lam_v = lam_u + (0.0 if cfg.remark_ii else 1.0)

    uh = rfft2(u0.values)
    vh = rfft2(v0.values)

    h_cap = tgrid.min_gap / 4.0
    boundaries = np.concatenate(([0.0], tgrid.times))
    out_u = np.empty((tgrid.count, n, n))
    out_v = np.empty((tgrid.count, n, n))

    for seg in range(boundaries.size - 1):
        a, b = boundaries[seg], boundaries[seg + 1]
        steps = max(1, math.ceil((b - a) / h_cap))
        h = (b - a) / steps
        eu, w_left_u, w_right_u = etd_weights(h * lam_u)
        ev, w_left_v, w_right_v = etd_weights(h * lam_v)
        phi1u, phi1v = _phi1(h * lam_u), _phi1(h * lam_v)
        wau = h * w_left_u
        # two-step form: h [ (phi1 + J) N_n - J N_{n-1} ], J = phi1 - w_left
        j_u = h * phi1u - wau
        eu, ev, wau, wru, wlv, wrv, p1u, p1v, ab_new, j_u = (
            table.astype(np.complex128) for table in (
                eu, ev, wau, h * w_right_u, h * w_left_v, h * w_right_v,
                h * phi1u, h * phi1v, h * phi1u + j_u, j_u))
        # the nonlinear term is N = -div(u grad v): the steps subtract d = div(u grad v)
        d_prev = None
        d_prev_scale = 0.0
        for k in range(steps):
            d0 = _div_u_grad_v(grid, uh, vh)
            scale0 = _l2(d0)
            # doubling counts as instability only when the nonlinear
            # increment rivals the state itself (CFL-style criterion)
            if not math.isfinite(scale0) or (
                d_prev_scale > 0.0
                and scale0 > 2.0 * d_prev_scale
                and h * scale0 > 0.1 * _l2(uh)
            ):
                raise ReferenceStepError(a + k * h)
            if d_prev is None:
                # segment startup: one predictor-corrector step
                ua = eu * uh - p1u * d0
                va = ev * vh + p1v * uh
                d1 = _div_u_grad_v(grid, ua, va)
                u_new = eu * uh - wau * d0 - wru * d1
            else:
                u_new = eu * uh - ab_new * d0 + j_u * d_prev
            d_prev = d0
            d_prev_scale = scale0
            # chemical source reconstructed linearly between u_n and u_{n+1}
            vh = ev * vh + wlv * uh + wrv * u_new
            uh = u_new
        out_u[seg] = irfft2(uh, n)
        out_v[seg] = irfft2(vh, n)

    u_traj = Trajectory.from_values(grid, tgrid, out_u, initial=u0)
    v_traj = Trajectory.from_values(grid, tgrid, out_v, initial=v0)
    return u_traj, v_traj


def _l2(coeffs: np.ndarray) -> float:
    """Euclidean norm of a complex array in one pass."""
    return math.sqrt(np.vdot(coeffs, coeffs).real)


def relative_node_differences(a: Trajectory, b: Trajectory) -> np.ndarray:
    """Per-node sup-norm differences, normalised by the larger trajectory-wide sup.

    Using a trajectory-wide denominator keeps late, strongly decayed nodes
    from turning rounding noise into large ratios.
    """
    _require_compatible(a, b)
    diff = np.max(np.abs(a.stacked - b.stacked), axis=(1, 2))
    scale = max(float(np.max(np.abs(a.stacked))), float(np.max(np.abs(b.stacked))))
    if scale == 0.0:
        return diff
    return diff / scale


# ---------------------------------------------------------------------------
# Theorem-bound verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem1Verdict:
    lhs: float
    rhs: float  # 2 x the free-evolution sup-sum
    holds: bool
    ratio: float | None
    sufficient_lhs: float
    threshold: float
    sufficient_ok: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def check_theorem1_bound(report: SolutionReport) -> Theorem1Verdict:
    """Compare the solution's weighted sup-sum with twice the free evolution's.

    Both sides are evaluated as maxima over the solution's time grid:
    sup_t (||u||_L1 + t ||u||_Linf + (1/4c) t^{1/2} ||grad v||_Linf).  The left
    side sums the final Theorem-1 report's node series (v/(4c) = w: Y's term);
    the right side's u terms are Picard's iterate 0, u0's heat flow
    (``free_u_x_nodes``), so only v0's heat flow is transformed, and nothing
    when v0 = 0.  Also evaluates the data-level sufficient condition
    2 ||u0||_L1 + (1/4c) sup_t t^{1/2} ||grad e^{t Lap} v0||_Linf <= 3/(32 c^2).
    Transform budget: none when v0 = 0, else one single-plane r2c of v0 (its
    heat flow and Besov norm share it) and two c2r each of K planes and of the
    Besov probe's planes.
    """
    c = report.c
    grid = report.u.grid
    times = report.u.tgrid.times

    r = report.norms_thm1
    lhs = float(np.max(r["u_sup_l1"].nodes + r["u_sup_t_linf"].nodes + r["y_norm"].nodes))
    free_nodes = report.free_u_x_nodes
    grad_b = 0.0
    if float(np.max(np.abs(report.v0.values))) > 0:
        # v0's plain heat flow is not Picard's damped w flow: it is transformed here
        v0_hat = rfft2(report.v0.values)
        gv = _norms._batch_grad_linf(grid, _free_flow(v0_hat, times, grid.k2_half))
        free_nodes = free_nodes + np.sqrt(times) * gv / (4.0 * c)
        grad_b = _norms._weighted_heat_sup(grid, v0_hat, default_besov_probe(), 0.5, np.inf, grad=True).value
    rhs = 2.0 * float(np.max(free_nodes))
    sufficient_lhs = 2.0 * lp_norm(report.u0, 1.0) + grad_b / (4.0 * c)

    holds = lhs <= rhs * (1.0 + 1e-12)
    ratio = None if rhs == 0 else lhs / rhs
    return Theorem1Verdict(
        lhs=lhs,
        rhs=rhs,
        holds=bool(holds),
        ratio=ratio,
        sufficient_lhs=sufficient_lhs,
        threshold=report.threshold,
        sufficient_ok=bool(sufficient_lhs <= report.threshold),
    )


@dataclass(frozen=True)
class Theorem2Verdict:
    norm_sum: float
    data_norm: float
    holds: bool
    terms: dict

    def to_json_dict(self) -> dict:
        return asdict(self)


def check_theorem2_bound(report: SolutionReport) -> Theorem2Verdict:
    """Evaluate the Sobolev-mode norm sum against twice the data norm.

    The sum is sup_t ||u +- w||_H1 + sup_t ||u +- sigma grad w||_Linf
    (worst sign, worst gradient component) + ||grad u||_{L2_t L2}
    + ||grad w||_{L2_t H1}, with w = v/(4c); the last term is the final
    Theorem-2 report's entry.  The data norm ||u0||_Linf + ||u0||_H1
    + (1/4c) ||v0||_H1 is the theorem's small-data size epsilon_0.
    Transform budget: two single-plane r2c, of u0 and v0; the solution's
    spectra and w's gradient values are the ones ``picard_solve`` held.
    """
    c = report.c
    grid, times = report.u.grid, report.u.tgrid.times
    u_hat, w_hat = report.u_hat, report.w_hat

    u0_hat = rfft2(report.u0.values)
    data_norm = (lp_norm(report.u0, np.inf) + float(_norms._batch_hs(grid, u0_hat, 1.0))
                 + hs_norm(report.v0, 1.0) / (4.0 * c))

    # sup_t ||u +- w||_H1 over both signs
    term_h1 = float(max(np.max(_norms._batch_hs(grid, u_hat + sign * w_hat, 1.0)) for sign in (1.0, -1.0)))

    # sup_t ||u +- sigma(t) d_i w||_Linf over signs and components
    sig = _norms.sigma(times)[:, None, None]
    term_mix = max(float(np.max(np.abs(report.u.stacked + sign * sig * comp)))
                   for comp in report.w_grad for sign in (1.0, -1.0))

    # ||grad u||_{L2_t L2} (head from u0's free flow); ||grad w||_{L2_t H1} is the report's
    term_grad_u = _norms._l2t_grad(grid, times, np.abs(u_hat) ** 2, u0_hat, damped=False, s=0.0)
    term_grad_w = report.norms_thm2.value("w_grad_l2t_h1")

    norm_sum = term_h1 + term_mix + term_grad_u + term_grad_w
    terms = {
        "sup_h1_u_pm_w": term_h1,
        "sup_linf_u_pm_sigma_grad_w": term_mix,
        "l2t_l2_grad_u": term_grad_u,
        "l2t_h1_grad_w": term_grad_w,
    }
    return Theorem2Verdict(
        norm_sum=float(norm_sum),
        data_norm=float(data_norm),
        holds=bool(norm_sum <= 2.0 * data_norm * (1.0 + 1e-12)),
        terms=terms,
    )
