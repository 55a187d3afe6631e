"""Fixed-point driver for the chemotaxis system and its time-stepping oracle.

The integral form of the system

    u_t - Lap u + div(u grad v) = 0,    v_t - Lap v + v - u = 0

is solved by iterating the map

    (u, w) -> (e^{t Lap} u0 - 4c B(u, w),  e^{t(Lap-1)} w0 + (1/4c) L(u))

on trajectories, where w = v/(4c) is the rescaled chemical concentration and
c is an admissible constant for the linear and bilinear estimates (supplied
by the caller or estimated empirically).  Iteration starts from the free
evolution and contracts in the same weighted space-time norm the chosen
theorem mode quantifies.

The sweep is Gauss-Seidel: u_{m+1} = e^{t Lap} u0 - 4c B(u_m, w_m), then
w_{m+1} = e^{t(Lap-1)} w0 + L(u_{m+1})/(4c) from the new density rather than
from u_m.  The fixed point is the same; at the benchmark's small data the
iteration count drops from 4 to 3.  Each iteration costs six c2r and two r2c
batched transforms of K planes: B's dealiased product (three and two),
u_{m+1}'s node values (one) and w_{m+1}'s gradient (two).  The iterate's
report and the residual's both read those gradient values, the residual's
as differences of consecutive iterates' values.

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
from .duhamel import (
    DEFAULT_SCHEME,
    EtdPlan,
    QuadratureScheme,
    _bilinear_hat,
    _convolve_hat,
    _div_u_grad_v,
    etd_weights,
)
from .fields import Grid2D, ScalarField, _grad_values, irfft2, rfft2
from .norms import NormReport, default_besov_probe, grad_besov_sup, lp_norm, hs_norm
from .semigroup import _free_flow
from .trajectories import (
    TimeGrid,
    Trajectory,
    TrajectoryOverflowError,
    _initial_hat,
    _require_compatible,
    _require_finite,
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
    """The explicit nonlinear term doubled within a single step."""


@dataclass(frozen=True)
class SolverConfig:
    n: int = 128
    l: float = 32.0
    t_min: float = 1e-3
    t_max: float = 10.0
    num_times: int = 64
    spacing: str = "geometric"
    c: float | None = None  # None: take the bundled empirical constant
    max_iter: int = 50
    tol: float = 1e-11
    mode: str = "thm1_L1Linf"
    quadrature: QuadratureScheme = DEFAULT_SCHEME
    remark_ii: bool = False  # drop the unit damping in the chemical equation

    def __post_init__(self) -> None:
        if self.mode not in ("thm1_L1Linf", "thm2_H1bH1"):
            raise ValueError(f"unknown solver mode {self.mode!r}")
        if self.spacing not in ("geometric", "uniform"):
            raise ValueError(f"unknown time spacing {self.spacing!r}")
        if self.c is not None and not self.c > 0:
            raise ValueError("the estimate constant c must be positive")
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")

    def make_grid(self) -> Grid2D:
        return Grid2D(self.n, self.l)

    def make_timegrid(self) -> TimeGrid:
        if self.spacing == "geometric":
            return TimeGrid.geometric(self.t_min, self.t_max, self.num_times)
        return TimeGrid.uniform(self.t_min, self.t_max, self.num_times)

    def resolve_c(self) -> float:
        if self.c is not None:
            return float(self.c)
        from .inequality_lab import default_constants

        return default_constants().c


def _xy_report(mode: str, grid: Grid2D, tgrid: TimeGrid, iteration: int, u_vals: np.ndarray,
               w_grad: tuple[np.ndarray, np.ndarray], u_hat: np.ndarray | None, w_hat: np.ndarray | None,
               u0_hat: np.ndarray | None, w0_hat: np.ndarray | None, damped: bool) -> NormReport:
    """The given mode's report from node values, w's gradient values and half spectra.

    The kernels of xy_norms_thm1/2 (``damped`` picks w's flow); Theorem-1 mode
    reads no spectra.  A non-finite norm of the X half (Y half, or the larger
    half of an overflowing sum) is a blow-up of u (w) at ``iteration``.
    """
    times, thm1 = tgrid.times, mode == "thm1_L1Linf"
    with _blowup_of("u", iteration, tgrid, "norm"):
        x = _norms._thm1_x(grid, times, u_vals) if thm1 else _norms._thm2_x(grid, times, u_vals, u_hat, u0_hat)
    with _blowup_of("w", iteration, tgrid, "norm"):
        y = _norms._thm1_y(grid, times, w_grad) if thm1 else _norms._thm2_y(grid, times, w_hat, w_grad, w0_hat, damped)
    with _blowup_of("u" if x["x_norm"].value >= y["y_norm"].value else "w", iteration, tgrid, "norm"):
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
    w: Trajectory
    v: Trajectory
    u0: ScalarField
    v0: ScalarField
    norms_thm1: NormReport
    norms_thm2: NormReport
    mass_initial: float
    mass_drift_max: float
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
def _blowup_of(which: str, iteration: int, tgrid: TimeGrid, quantity: str = "iterate"):
    """Report a non-finite ``quantity`` found inside the block as a blow-up of ``which``."""
    try:
        yield
    except TrajectoryOverflowError as exc:
        j = exc.node_index
        raise PicardBlowupError(iteration, j, which, float(tgrid.times[j]), quantity) from exc


def _mass_drift(values: np.ndarray, cell: float, mass0: float) -> float:
    masses = values.sum(axis=(1, 2)) * cell
    scale = abs(mass0) if mass0 != 0 else 1.0
    return float(np.max(np.abs(masses - mass0)) / scale)


def picard_solve(u0: ScalarField, w0: ScalarField, cfg: SolverConfig) -> SolutionReport:
    """Iterate the rescaled integral map to its fixed point in Gauss-Seidel order.

    ``w0`` is the already rescaled chemical datum (original datum divided by
    4c).  Non-convergence within ``max_iter`` is reported, not raised; a
    non-finite iterate, or a finite one whose per-node norm overflows, raises
    :class:`PicardBlowupError` naming the iteration, the component and the
    first offending node.

    Iteration m computes u_m from (u_{m-1}, w_{m-1}) and then w_m from the
    new u_m (Gauss-Seidel order).  The iterates stay half spectra between
    iterations, and each w_m's gradient values are transformed once and kept
    for one iteration, for w_m's Y entry and the residual's.  An iteration
    costs six c2r and two r2c batched transforms: B's dealiased product,
    u_m's node values (for L^1, L^inf and mass) and w_m's gradient.
    """
    grid = cfg.make_grid()
    if u0.grid != grid or w0.grid != grid:
        raise ValueError("initial data must live on the configured grid")
    tgrid = cfg.make_timegrid()
    times = tgrid.times
    n = grid.n
    c = cfg.resolve_c()
    scheme = cfg.quadrature
    mode = cfg.mode
    thm2 = mode == "thm2_H1bH1"
    damped = not cfg.remark_ii

    # B and L convolve against the same rates every iteration: one plan each
    b_plan = EtdPlan(grid.k2_half, tgrid, scheme)
    l_plan = EtdPlan(grid.k2_half + (1.0 if damped else 0.0), tgrid, scheme)

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

    u_hat = free_u_hat
    u_vals = irfft2(u_hat, n)
    w_grad = _grad_values(grid, w_hat)
    report = _xy_report(mode, grid, tgrid, 0, u_vals, w_grad, u_hat, w_hat, u0_hat, w0_hat, damped)
    a0 = report.value("xy_norm")
    threshold = 3.0 / (32.0 * c * c)
    contraction_bound = 8.0 * c * c * a0 + 0.25

    mass0 = u0.integral()
    residuals: list[float] = []
    factors: list[float] = []
    iterate_norms: list[float] = [a0]
    mass_drift = _mass_drift(u_vals, grid.cell_area, mass0)
    converged = False
    iterations = 0

    for m in range(1, cfg.max_iter + 1):
        iterations = m
        with _blowup_of("u", m, tgrid):
            bu_hat, _ = _bilinear_hat(grid, u_hat, w_hat, b_head, b_plan)
            u_hat_next = free_u_hat - (4.0 * c) * bu_hat
            del bu_hat  # the operator outputs set the memory peak: drop each before the next call
            u_vals_next = irfft2(u_hat_next, n)
            _require_finite(u_vals_next)
        with _blowup_of("w", m, tgrid):
            lu_hat, _ = _convolve_hat(u_hat_next - free_u_hat, l_head, l_plan)
            w_hat_next = w_affine + (1.0 / (4.0 * c)) * lu_hat
            del lu_hat
            _require_finite(w_hat_next)
        w_grad_next = _grad_values(grid, w_hat_next)
        report = _xy_report(mode, grid, tgrid, m, u_vals_next, w_grad_next, u_hat_next, w_hat_next,
                            u0_hat, w0_hat, damped)
        iterate_norms.append(report.value("xy_norm"))
        mass_drift = max(mass_drift, _mass_drift(u_vals_next, grid.cell_area, mass0))

        # The residual reads differences of the kept values (the gradient is
        # linear), formed in place of the previous iterate's, which are not
        # read again.  The difference starts from u0 - u0 = 0 and w0 - w0 = 0:
        # no head terms.
        np.subtract(u_vals_next, u_vals, out=u_vals)
        np.subtract(w_grad_next[0], w_grad[0], out=w_grad[0])
        np.subtract(w_grad_next[1], w_grad[1], out=w_grad[1])
        d_hat = (u_hat_next - u_hat, w_hat_next - w_hat) if thm2 else (None, None)
        diff = _xy_report(mode, grid, tgrid, m, u_vals, w_grad, *d_hat, None, None, damped).value("xy_norm")
        del d_hat
        residuals.append(diff)
        if len(residuals) >= 2 and residuals[-2] > 0:
            factors.append(residuals[-1] / residuals[-2])

        u_hat, w_hat, u_vals, w_grad = u_hat_next, w_hat_next, u_vals_next, w_grad_next
        if diff <= cfg.tol:
            converged = True
            break

    # the last report is the configured mode's report of the final iterate
    other = _xy_report("thm1_L1Linf" if thm2 else "thm2_H1bH1", grid, tgrid, iterations,
                       u_vals, w_grad, u_hat, w_hat, u0_hat, w0_hat, damped)
    report_thm1, report_thm2 = (other, report) if thm2 else (report, other)
    u = Trajectory.from_values(grid, tgrid, u_vals, initial=u0)
    w = Trajectory.from_values(grid, tgrid, irfft2(w_hat, n), initial=w0)
    v = (4.0 * c) * w

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
        w=w,
        v=v,
        u0=u0,
        v0=(4.0 * c) * w0,
        norms_thm1=report_thm1,
        norms_thm2=report_thm2,
        mass_initial=mass0,
        mass_drift_max=mass_drift,
        diagnostics=diag,
    )


# ---------------------------------------------------------------------------
# Independent reference integrator
# ---------------------------------------------------------------------------


def reference_solve(
    u0: ScalarField,
    v0: ScalarField,
    cfg: SolverConfig,
    nonlinear: bool = True,
) -> tuple[Trajectory, Trajectory]:
    """Semi-implicit spectral time stepping for the original (u, v) system.

    The linear parts decay through exact integrating factors; the coupling
    and the dealiased nonlinearity are reconstructed linearly within each
    step (a two-stage exponential integrator).  The fixed micro-step is at
    most a quarter of the smallest node gap and lands exactly on every node.
    """
    grid = cfg.make_grid()
    if u0.grid != grid or v0.grid != grid:
        raise ValueError("initial data must live on the configured grid")
    tgrid = cfg.make_timegrid()
    n = grid.n
    lam_u = grid.k2_half
    lam_v = lam_u + (0.0 if cfg.remark_ii else 1.0)

    uh = rfft2(u0.values).astype(np.complex128)
    vh = rfft2(v0.values).astype(np.complex128)

    h_cap = tgrid.min_gap / 4.0
    boundaries = np.concatenate(([0.0], tgrid.times))
    out_u = np.empty((tgrid.count, n, n))
    out_v = np.empty((tgrid.count, n, n))

    for seg in range(boundaries.size - 1):
        a, b = boundaries[seg], boundaries[seg + 1]
        steps = max(1, math.ceil((b - a) / h_cap))
        h = (b - a) / steps
        eu, phi1u, w_left_u, w_right_u = etd_weights(h * lam_u)
        ev, phi1v, w_left_v, w_right_v = etd_weights(h * lam_v)
        wau = h * w_left_u
        # two-step form: h [ (phi1 + J) N_n - J N_{n-1} ], J = phi1 - w_left
        j_u = h * phi1u - wau
        ab_new = h * phi1u + j_u
        ab_old = -j_u
        p1u, p1v = h * phi1u, h * phi1v
        wru = h * w_right_u
        wlv, wrv = h * w_left_v, h * w_right_v
        nu_prev = None
        nu_prev_scale = 0.0
        for _ in range(steps):
            if nonlinear:
                nu0 = -_div_u_grad_v(grid, uh, vh)
                scale0 = float(np.sqrt(np.sum(np.abs(nu0) ** 2)))
                state = float(np.sqrt(np.sum(np.abs(uh) ** 2)))
                # doubling counts as instability only when the nonlinear
                # increment rivals the state itself (CFL-style criterion)
                if (
                    nu_prev_scale > 0.0
                    and scale0 > 2.0 * nu_prev_scale
                    and h * scale0 > 0.1 * state
                ) or not np.isfinite(scale0):
                    raise ReferenceStepError(
                        f"nonlinear term doubled within one step near t={a:.4g}"
                    )
                if nu_prev is None:
                    # segment startup: one predictor-corrector step
                    ua = eu * uh + p1u * nu0
                    va = ev * vh + p1v * uh
                    nu1 = -_div_u_grad_v(grid, ua, va)
                    u_new = eu * uh + wau * nu0 + wru * nu1
                else:
                    u_new = eu * uh + ab_new * nu0 + ab_old * nu_prev
                nu_prev = nu0
                nu_prev_scale = scale0
            else:
                u_new = eu * uh
            # chemical source reconstructed linearly between u_n and u_{n+1}
            vh = ev * vh + wlv * uh + wrv * u_new
            uh = u_new
        out_u[seg] = irfft2(uh, n)
        out_v[seg] = irfft2(vh, n)

    u_traj = Trajectory.from_values(grid, tgrid, out_u, initial=u0)
    v_traj = Trajectory.from_values(grid, tgrid, out_v, initial=v0)
    return u_traj, v_traj


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
    side sums the final Theorem-1 report's node series (v/(4c) = w: Y's term).
    Also evaluates the data-level sufficient condition
    2 ||u0||_L1 + (1/4c) sup_t t^{1/2} ||grad e^{t Lap} v0||_Linf <= 3/(32 c^2).
    """
    c = report.c
    grid = report.u.grid
    times = report.u.tgrid.times
    cell = grid.cell_area

    r = report.norms_thm1
    lhs = float(np.max(r["u_sup_l1"].nodes + r["u_sup_t_linf"].nodes + r["y_norm"].nodes))
    # plain heat flow on both sides, straight from the data's half spectra
    free_u = irfft2(_free_flow(rfft2(report.u0.values), times, grid.k2_half), grid.n)
    gv = _norms._batch_grad_linf(grid, _free_flow(rfft2(report.v0.values), times, grid.k2_half))
    l1, linf = _norms._batch_lp(free_u, 1.0, cell), _norms._batch_lp(free_u, np.inf, cell)
    rhs = 2.0 * float(np.max(l1 + times * linf + np.sqrt(times) * gv / (4.0 * c)))

    if float(np.max(np.abs(report.v0.values))) > 0:
        grad_b = grad_besov_sup(report.v0, default_besov_probe()).value
    else:
        grad_b = 0.0
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
    eps0: float
    data_norm: float
    hypothesis_satisfied: bool
    holds: bool
    terms: dict

    def to_json_dict(self) -> dict:
        return asdict(self)


def check_theorem2_bound(report: SolutionReport, eps0: float | None = None) -> Theorem2Verdict:
    """Evaluate the Sobolev-mode norm sum against 2*eps0.

    The sum is sup_t ||u +- w||_H1 + sup_t ||u +- sigma grad w||_Linf
    (worst sign, worst gradient component) + ||grad u||_{L2_t L2}
    + ||grad w||_{L2_t H1}, with w = v/(4c); the last term is the final
    Theorem-2 report's entry.  The hypothesis ||u0||_Linf + ||u0||_H1
    + (1/4c) ||v0||_H1 <= eps0 gates the verdict; eps0 defaults to that data norm.
    """
    c = report.c
    u, w = report.u, report.w
    times = u.tgrid.times
    grid = u.grid

    data_norm = lp_norm(report.u0, np.inf) + hs_norm(report.u0, 1.0) + hs_norm(report.v0, 1.0) / (4.0 * c)
    if eps0 is None:
        eps0 = data_norm
    hypothesis = data_norm <= eps0 * (1.0 + 1e-12)

    uc, u_power = _norms._spectrum(u)
    wc = rfft2(w.stacked)
    # sup_t ||u +- w||_H1 over both signs
    term_h1 = float(max(np.max(_norms._batch_hs(grid, uc + sign * wc, 1.0)) for sign in (1.0, -1.0)))

    # sup_t ||u +- sigma(t) d_i w||_Linf over signs and components
    sig = _norms.sigma(times)[:, None, None]
    term_mix = max(float(np.max(np.abs(u.stacked + sign * sig * comp)))
                   for comp in _grad_values(grid, wc) for sign in (1.0, -1.0))

    # ||grad u||_{L2_t L2} (head from u0's free flow); ||grad w||_{L2_t H1} is the report's
    term_grad_u, _ = _norms._l2t_grad(grid, times, u_power, _initial_hat(u), damped=False, s=0.0)
    term_grad_w = report.norms_thm2.value("w_grad_l2t_h1")

    norm_sum = term_h1 + term_mix + term_grad_u + term_grad_w
    terms = {
        "sup_h1_u_pm_w": term_h1,
        "sup_linf_u_pm_sigma_grad_w": term_mix,
        "l2t_l2_grad_u": term_grad_u,
        "l2t_h1_grad_w": term_grad_w,
    }
    holds = bool(hypothesis and norm_sum <= 2.0 * eps0 * (1.0 + 1e-12))
    return Theorem2Verdict(
        norm_sum=float(norm_sum),
        eps0=float(eps0),
        data_norm=float(data_norm),
        hypothesis_satisfied=bool(hypothesis),
        holds=holds,
        terms=terms,
    )


# ---------------------------------------------------------------------------
# Large-data probe
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MassSweepRow:
    mass: float
    a0: float
    threshold: float
    threshold_ok: bool
    converged: bool
    blew_up: bool
    max_contraction: float | None


def mass_sweep(masses, width: float, cfg: SolverConfig) -> list[MassSweepRow]:
    """Run the solver over a family of Gaussian masses; divergence is recorded.

    The first row with ``threshold_ok == False`` marks the loss of the
    smallness guarantee; blow-ups of the iteration are caught and flagged.
    ``max_contraction`` is the largest contraction factor after the first,
    which measures the quadratic term, and None with fewer than two factors.
    """
    from .data import gaussian_field

    grid = cfg.make_grid()
    base = gaussian_field(grid, mass=1.0, width=width)
    rows = []
    for mass in masses:
        u0 = float(mass) * base
        w0 = ScalarField.zero(grid)
        try:
            rep = picard_solve(u0, w0, cfg)
        except PicardBlowupError:
            rows.append(
                MassSweepRow(float(mass), float("inf"), 3.0 / (32.0 * cfg.resolve_c() ** 2),
                             False, False, True, None)
            )
            continue
        # the first factor measures the quadratic term, not the contraction
        later = rep.contraction_factors[1:]
        max_f = max(later) if later else None
        rows.append(
            MassSweepRow(
                float(mass), rep.a0, rep.threshold, rep.threshold_ok,
                rep.converged, False, max_f,
            )
        )
    return rows
