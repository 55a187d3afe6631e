"""Numerical verification of the standalone operator estimates.

Each ``verify_*`` function evaluates both sides of an estimate on declared
sample families and reports the observed ratios; ``estimate_constants``
turns the linear/bilinear ratios into the empirical constant that feeds the
solver's smallness threshold.  ``counterexample_profile`` evaluates the
stripe-data lower bound that rules out smallness for arbitrary bounded data.

Every convolution the bilinear and maximal-regularity verifiers measure has
a rank-one integrand prof(t) pre(xi) f(xi), and the ETD march is diagonal
per rate, so each (profile, plan) pair is marched once as a scalar per
distinct rate (``duhamel._profile_march``).  A case's node norms are then
sum_r |m_j(r)|^2 P_r, with P_r the Parseval weight times |pre f|^2 summed
over the modes of rate r (``norms._rank_one_norms``); the maximal-regularity
L^2 norm is one of them.  The multiplier verifier's symbols m(t, |xi|^2) are
such per-rate profiles too, and go through the same contraction.

Discrete conventions: time norms on both sides of an estimate use the same
trapezoid rule on the shared node set (suprema become node maxima), so a
ratio of 1 means the discrete inequality is tight, not a quadrature
artefact.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .data import (
    cosine_mode_field,
    gaussian_field,
    random_band_limited_field,
    smoothed_stripe_field,
)
from .duhamel import DEFAULT_SCHEME, EtdPlan, _bilinear_hat, _convolve_hat, _div_u_grad_v, _profile_march
from .fields import (GradComponent, Grid2D, ScalarField, _grad_values, _rate_layout, irfft2, multiplier_apply,
                     rfft2)
from .norms import (
    _batch_hs,
    _batch_lp,
    _hs_weight,
    _l2t_grad,
    _rank_one_norms,
    _thm1_x,
    _thm1_y,
    _thm2_x,
    _thm2_y,
    _weighted_heat_sup,
    grad_besov_sup,
    hs_norm,
    lp_norm,
    trapezoid,
)
from .semigroup import _free_flow, heat
from .trajectories import TimeGrid, _require_finite


@dataclass(frozen=True)
class LabSetup:
    """Grid/time window for a verification run; ``doubled`` refines all three.

    ``mode_cap`` pins the largest swept integer mode; the doubled setup
    inherits it so refinement studies compare the same sample family.
    """

    n: int = 64
    l: float = 32.0
    t_min: float = 1e-3
    t_max: float = 10.0
    num_times: int = 32
    mode_cap: int | None = None

    def make_grid(self) -> Grid2D:
        return Grid2D(self.n, self.l)

    def make_timegrid(self) -> TimeGrid:
        return TimeGrid.geometric(self.t_min, self.t_max, self.num_times)

    def effective_mode_cap(self) -> int:
        return self.mode_cap if self.mode_cap is not None else self.n // 3

    def doubled(self) -> "LabSetup":
        return LabSetup(
            self.n * 2, self.l, self.t_min, self.t_max * 2, self.num_times * 2,
            mode_cap=self.effective_mode_cap(),
        )


@dataclass(frozen=True)
class RatioSample:
    family: str
    params: tuple
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float:
        return self.lhs / self.rhs


@dataclass(frozen=True)
class InequalityReport:
    name: str
    samples: tuple[RatioSample, ...]
    metadata: dict

    @property
    def max_ratio(self) -> float:
        return max(s.ratio for s in self.samples)

    def group_max(self) -> dict:
        out: dict = {}
        for s in self.samples:
            out[s.family] = max(out.get(s.family, 0.0), s.ratio)
        return out

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["family", "params", "lhs", "rhs", "ratio"])
            for s in self.samples:
                writer.writerow([s.family, json.dumps(s.params), repr(s.lhs), repr(s.rhs), repr(s.ratio)])

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "max_ratio": self.max_ratio,
            "group_max": self.group_max(),
            "metadata": self.metadata,
        }


def _time_lp(times: np.ndarray, values: np.ndarray, p: float, v0: float | None = None) -> float:
    """Discrete L^p norm in time over [0, T]: node trapezoid, optional t=0 knot."""
    if v0 is not None:
        times, values = np.concatenate(([0.0], times)), np.concatenate(([v0], values))
    if np.isinf(p):
        return float(np.max(values))
    return float(trapezoid(times, values**p) ** (1.0 / p))


def _add_sample(samples: list, family: str, params: tuple, lhs: float, rhs: float) -> None:
    """Record the ratio lhs/rhs, unless the right-hand side vanishes."""
    if rhs != 0:
        samples.append(RatioSample(family, params, lhs, rhs))


_SWEEP_MODES = (1, 2, 3, 4, 6, 8, 12, 16)


def _lab_fields(grid: Grid2D, seed: int) -> list[tuple[str, ScalarField]]:
    return [
        ("const", ScalarField(grid, np.ones((grid.n, grid.n)))),
        ("gaussian", gaussian_field(grid, mass=1.0, width=1.0)),
        ("mode31", cosine_mode_field(grid, (3, 1))),
        ("random", random_band_limited_field(grid, seed=seed, max_mode=8)),
    ]


# ---------------------------------------------------------------------------
# Multiplier estimates
# ---------------------------------------------------------------------------


def verify_multiplier_lemma(setup: LabSetup = LabSetup(), seed: int = 0) -> InequalityReport:
    """Both forms of the multiplier estimate on heat-type symbol families.

    Form A:  ||m(t,D) v||_{L^r_t H^s} <= ||m||_{L^r_t L^inf_xi} ||v||_{H^s}
    Form B:  ||m_d(t,D) v||_{L^rho_t H^s} <= ||m_d||_{L^inf_xi L^rho_t} ||v||_{H^s}
    with m in {1, heat, damped heat} and m_d = |xi|^delta * m.  Every symbol
    is m(t, |xi|^2), so it is a (K, R) profile over the distinct rates of
    |xi|^2: the node norms are ``_rank_one_norms`` and the suprema over xi
    are maxima over the rates.
    """
    grid = setup.make_grid()
    times = setup.make_timegrid().times
    rates, inverse = _rate_layout(grid.k2_half)
    t, k2 = times[:, None], rates[None, :]
    syms = {"identity": np.ones((times.size, rates.size)), "heat": np.exp(-t * k2),
            "damped": np.exp(-t) * np.exp(-t * k2)}
    samples: list[RatioSample] = []

    for fname, f in _lab_fields(grid, seed):
        vhat = rfft2(f.values)
        for mname, sym in syms.items():
            for s in (0.0, 1.0):
                weight = _hs_weight(grid, s)
                hs_f = _batch_hs(grid, vhat, s)
                lhs_nodes = _rank_one_norms(grid, sym, inverse, vhat, weight)
                sup_xi = np.max(np.abs(sym), axis=1)
                for r in (np.inf, 2.0):
                    lhs = _time_lp(times, lhs_nodes, r)
                    rhs = _time_lp(times, sup_xi, r) * hs_f
                    _add_sample(samples, f"formA[r={'inf' if np.isinf(r) else int(r)},s={int(s)}]",
                                (("multiplier", mname), ("field", fname)), lhs, rhs)
                # Form B with |xi|^delta weights, rho = 2
                for delta in (0.0, 1.0):
                    msym = sym * np.sqrt(k2) ** delta if delta else sym
                    per_xi = np.sqrt(np.maximum(trapezoid(times, np.abs(msym) ** 2), 0.0))
                    rhs = float(np.max(per_xi)) * hs_f
                    lhs = _time_lp(times, _rank_one_norms(grid, msym, inverse, vhat, weight), 2.0)
                    _add_sample(samples, f"formB[rho=2,delta={int(delta)},s={int(s)}]",
                                (("multiplier", mname), ("field", fname)), lhs, rhs)

    return InequalityReport("multiplier_lemma", tuple(samples), _meta(setup, seed))


# ---------------------------------------------------------------------------
# Time-convolution (bilinear-term) estimates
# ---------------------------------------------------------------------------

_EQ27_TUPLES = ((0.0, np.inf, np.inf), (1.0, 2.0, 2.0), (0.0, 2.0, 2.0), (1.0, np.inf, np.inf))
_EQ26_TUPLES = ((np.inf, 2.0), (np.inf, np.inf), (2.0, 2.0))


_PROFILES = {
    "const": lambda t: np.ones_like(np.asarray(t, dtype=float)),
    "decay": lambda t: np.exp(-np.asarray(t, dtype=float)),
}


def _meta(setup: LabSetup, seed: int, **extra) -> dict:
    return {"n": setup.n, "K": setup.num_times, "T": setup.t_max, "seed": seed, **extra}


def _fmt(x: float) -> str:
    return "inf" if np.isinf(x) else f"{x:g}"


def verify_bilinear_lemma23(setup: LabSetup = LabSetup(), seed: int = 0) -> InequalityReport:
    """Convolution-in-time estimates against heat and damped-heat kernels.

    Damped form: || int_0^t e^{-(t-tau)(1+|xi|^2)} |xi|^theta F dtau ||_{L^p1_t Hdot^s}
                 <= C ||F||_{L^r_t Hdot^s}  on the tuples used downstream.
    Plain form:  the |xi|^{2+2/p-2/r} variant measured in inhomogeneous H^s.
    The metadata records a mode-sweep uniformity gap: enlarging the swept
    mode set must not materially raise the observed constant.
    """
    grid = setup.make_grid()
    tgrid = setup.make_timegrid()
    times = tgrid.times
    k2 = grid.k2_half

    modes = [m for m in _SWEEP_MODES if m <= setup.effective_mode_cap()]
    field_samples: list[tuple[str, tuple, np.ndarray]] = [
        (f"mode{m}", (("mode", m),), rfft2(cosine_mode_field(grid, (m, 0)).values)) for m in modes
    ]
    field_samples.append(("random", (("seed", seed),),
                          rfft2(random_band_limited_field(grid, seed=seed, max_mode=8).values)))

    samples: list[RatioSample] = []
    uniformity: dict = {}
    # every convolution below decays at one of two rates: one plan each, and
    # one profile march per (profile, plan) serves every field and weight
    plans = {"damped": EtdPlan(1.0 + grid.k2_half, tgrid, DEFAULT_SCHEME),
             "plain": EtdPlan(grid.k2_half, tgrid, DEFAULT_SCHEME)}
    marches = {(pname, rate): _profile_march(prof, plan)
               for pname, prof in _PROFILES.items() for rate, plan in plans.items()}

    def sides(fhat: np.ndarray, pname: str, rate: str, pre: np.ndarray, p_out: float, r_in: float,
              s: float, homogeneous: bool) -> tuple[float, float]:
        """Both sides for the integrand prof(t) f: the convolution's time norm and f's."""
        prof = _PROFILES[pname]
        nodes = _rank_one_norms(grid, marches[pname, rate], plans[rate].inverse, pre * fhat,
                                _hs_weight(grid, s, homogeneous))
        f_norm = _batch_hs(grid, fhat, s, homogeneous)
        return (_time_lp(times, nodes, p_out, v0=0.0),
                _time_lp(times, prof(times) * f_norm, r_in, v0=float(prof(0.0)) * f_norm))

    cases = [(f"damped[theta={_fmt(theta)},p1={_fmt(p1)},r={_fmt(r)},s={int(s)}]", "damped",
              np.sqrt(k2) ** theta if theta else np.ones_like(k2), p1, r, s, True)
             for theta, p1, r in _EQ27_TUPLES for s in (0.0, 1.0)]
    cases += [(f"plain[p={_fmt(p)},r={_fmt(r)},s={int(s)}]", "plain",
               np.sqrt(k2) ** (2.0 + (0.0 if np.isinf(p) else 2.0 / p) - 2.0 / r), p, r, s, False)
              for p, r in _EQ26_TUPLES for s in (0.0, 1.0)]
    for group, rate, pre, p_out, r_in, s, homogeneous in cases:
        for fname, fparams, fhat in field_samples:
            for pname in _PROFILES:
                lhs, rhs = sides(fhat, pname, rate, pre, p_out, r_in, s, homogeneous)
                _add_sample(samples, group, fparams + (("field", fname), ("profile", pname)), lhs, rhs)

    # Uniformity sweep: per tuple, compare max ratio over low modes with the
    # max over the full swept range (constant-profile, s = 0).
    sweep_modes = list(range(1, setup.effective_mode_cap() + 1))
    for label, rate, pre, homog in (
        ("damped[theta=0,p1=inf,r=inf,s=0]", "damped", np.ones_like(k2), True),
        ("plain[p=inf,r=inf,s=0]", "plain", np.sqrt(k2) ** 2.0, False),
    ):
        ratios = []
        for m in sweep_modes:
            fhat = rfft2(cosine_mode_field(grid, (m, 0)).values)
            lhs, rhs = sides(fhat, "const", rate, pre, np.inf, np.inf, 0.0, homog)
            ratios.append(lhs / rhs)
        ratios = np.array(ratios)
        low = float(np.max(ratios[: max(1, len(sweep_modes) // 2)]))
        full = float(np.max(ratios))
        uniformity[label] = {"low_modes_max": low, "full_sweep_max": full,
                             "gap": abs(full - low) / full if full > 0 else 0.0}

    return InequalityReport("bilinear_convolution", tuple(samples), _meta(setup, seed, uniformity=uniformity))


# ---------------------------------------------------------------------------
# Maximal regularity
# ---------------------------------------------------------------------------


def verify_maximal_regularity(setup: LabSetup = LabSetup(), seed: int = 0) -> InequalityReport:
    """||T g||_{L2_t L2} / ||g||_{L2_t L2} over modes and time profiles, g = prof(t) f.

    The input norm integrates the piecewise-linear reconstruction of g
    exactly; the output norm uses the node trapezoid of Parseval L^2 norms
    of T g = -|xi|^2 f times each profile's march against the rates |xi|^2.
    """
    grid = setup.make_grid()
    tgrid = setup.make_timegrid()
    times = tgrid.times
    modes = [m for m in _SWEEP_MODES if m <= setup.effective_mode_cap()]

    def square_profile(t):
        # on/off wave with absolute period 1, so refinement sees the same g
        t = np.asarray(t, dtype=float)
        return (np.floor(2.0 * t) % 2 == 0).astype(float)

    profiles = {**_PROFILES, "square": square_profile}
    plan = EtdPlan(grid.k2_half, tgrid, DEFAULT_SCHEME)
    marches = {pname: _profile_march(prof, plan) for pname, prof in profiles.items()}
    gaps = np.diff(np.concatenate(([0.0], times)))
    prof_l2 = {}  # exact L^2_t norm of each profile's piecewise-linear reconstruction
    for pname, prof in profiles.items():
        pv = np.concatenate(([float(prof(0.0))], prof(times)))
        prof_l2[pname] = float(np.sqrt(np.sum(gaps * (pv[:-1] ** 2 + pv[:-1] * pv[1:] + pv[1:] ** 2) / 3.0)))

    samples: list[RatioSample] = []
    for m in modes:
        f = cosine_mode_field(grid, (m, 0))
        tf_hat, f_l2 = -grid.k2_half * rfft2(f.values), lp_norm(f, 2.0)  # T's symbol is -|xi|^2
        for pname in profiles:
            nodes = _rank_one_norms(grid, marches[pname], plan.inverse, tf_hat, _hs_weight(grid, 0.0))
            _add_sample(samples, "maxreg[p=q=2]", (("mode", m), ("profile", pname)),
                        _time_lp(times, nodes, 2.0, v0=0.0), f_l2 * prof_l2[pname])

    by_subset = {
        "all": max(s.ratio for s in samples),
        "low_modes": max(s.ratio for s in samples if dict(s.params)["mode"] <= max(1, setup.effective_mode_cap() // 2)),
        "const_only": max(s.ratio for s in samples if dict(s.params)["profile"] == "const"),
    }
    return InequalityReport("maximal_regularity", tuple(samples), _meta(setup, seed, subsets=by_subset))


def verify_l4_interpolation(setup: LabSetup = LabSetup(), seed: int = 0) -> InequalityReport:
    """Space-time interpolation ||f||_{L4_t L4}^2 <= c ||f||_{Linf_t L2} ||grad f||_{L2_t H1}.

    Checked on free heat evolutions of the sample fields; the observed ratio
    is recorded, only finiteness is asserted downstream.
    """
    grid = setup.make_grid()
    times = setup.make_timegrid().times
    samples: list[RatioSample] = []
    for fname, f in _lab_fields(grid, seed):
        f_hat = rfft2(f.values)
        u_hat = _free_flow(f_hat, times, grid.k2_half)
        u_vals = irfft2(u_hat, grid.n)
        l4 = _batch_lp(u_vals, 4.0, grid.cell_area)
        lhs = float(np.sqrt(trapezoid(times, l4**4) + times[0] * lp_norm(f, 4.0) ** 4))
        sup_l2 = max(float(np.max(_batch_lp(u_vals, 2.0, grid.cell_area))), lp_norm(f, 2.0))
        grad_l2t, _ = _l2t_grad(grid, times, np.abs(u_hat) ** 2, f_hat, damped=False)
        _add_sample(samples, "l4_interpolation", (("field", fname),), lhs, sup_l2 * grad_l2t)
    return InequalityReport("l4_interpolation", tuple(samples), _meta(setup, seed))


def besov_equivalence_samples(setup: LabSetup = LabSetup(), seed: int = 0) -> InequalityReport:
    """Measured ratio of the order-0 sup norm to the gradient's order -1 norm.

    sup_t ||e^{t Lap} v||_Linf versus sup_t t^{1/2} ||grad e^{t Lap} v||_Linf;
    the equivalence constants are recorded, not certified.
    """
    grid = setup.make_grid()
    probe = TimeGrid.geometric(setup.t_max * 1e-6 / 1.1, setup.t_max, 48)

    samples: list[RatioSample] = []
    for fname, f in _lab_fields(grid, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sup0 = _weighted_heat_sup(f, probe, 0.0, np.inf, grad=False).value
            grad_est = grad_besov_sup(f, probe)
        _add_sample(samples, "besov_equivalence", (("field", fname),), sup0, grad_est.value)
    meta = {"n": setup.n, "probe_T": setup.t_max, "seed": seed}
    return InequalityReport("besov_equivalence", tuple(samples), meta)


def refinement_drift(verifier, setup: LabSetup = LabSetup(), seed: int = 0) -> dict:
    """Per-family observed-constant drift under simultaneous (n, K, T) doubling.

    ``base_report`` is the verifier's report on ``setup``, for callers that also need it.
    """
    base = verifier(setup, seed=seed)
    fine = verifier(setup.doubled(), seed=seed)
    g1, g2 = base.group_max(), fine.group_max()
    per_group = {
        key: abs(g2[key] - g1[key]) / g1[key]
        for key in g1
        if key in g2 and g1[key] > 0
    }
    return {
        "per_group": per_group,
        "max_drift": max(per_group.values()) if per_group else 0.0,
        "base": g1,
        "fine": g2,
        "base_report": base,
    }


# ---------------------------------------------------------------------------
# Empirical constants and the smallness threshold
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantsReport:
    c1: float
    c2: float
    c3: float
    safety_factor: float
    c: float
    threshold: float
    samples: tuple[RatioSample, ...]
    metadata: dict

    @property
    def observed_max(self) -> float:
        return max(self.c1, self.c2, self.c3)

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "samples"}

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True, indent=2)
            fh.write("\n")

    def to_csv(self, path) -> None:
        InequalityReport("constants", self.samples, {}).to_csv(path)


def standard_families(grid: Grid2D) -> list[tuple[str, ScalarField]]:
    """Gaussians, single modes, and a fixed-width stripe, spanning scales/positions."""
    quarter = grid.l / 8.0
    return [
        ("gauss_narrow", gaussian_field(grid, 1.0, 0.25)),
        ("gauss_wide", gaussian_field(grid, 1.0, 1.0)),
        ("gauss_offset", gaussian_field(grid, 1.0, 0.5, center=(quarter, -quarter / 2.0))),
        ("mode10", cosine_mode_field(grid, (1, 0))),
        ("mode21", cosine_mode_field(grid, (2, 1))),
        ("stripe", smoothed_stripe_field(grid, smoothing_time=0.01)),
    ]


def estimate_constants(
    setup: LabSetup = LabSetup(),
    families: list[tuple[str, ScalarField]] | None = None,
    safety_factor: float = 1.5,
) -> ConstantsReport:
    """Observed-ratio maxima for the linear/bilinear estimates, both norm modes.

    c1: free-evolution bounds; c2: bilinear bound; c3: chemical-response
    bound.  The working constant is the observed maximum inflated by the
    safety factor, and the smallness threshold is 3/(32 c^2).
    """
    grid = setup.make_grid()
    tgrid = setup.make_timegrid()
    if families is None:
        families = standard_families(grid)

    samples: list[RatioSample] = []
    skipped: list[str] = []
    times = tgrid.times
    l_plan = EtdPlan(grid.k2_half + 1.0, tgrid, DEFAULT_SCHEME)
    b_plan = EtdPlan(grid.k2_half, tgrid, DEFAULT_SCHEME)

    # each family's free flows stay half spectra (u: heat, w: damped heat)
    free: list[tuple[str, np.ndarray, np.ndarray, np.ndarray, dict]] = []
    for name, f in families:
        f_hat = rfft2(f.values)
        u_hat = _free_flow(f_hat, times, grid.k2_half)
        w_hat = _free_flow(f_hat, times, grid.k2_half + 1.0)
        u_vals = irfft2(u_hat, grid.n)
        x1 = _thm1_x(grid, times, u_vals)["x_norm"].value
        x2 = _thm2_x(grid, times, u_vals, u_hat, f_hat)["x_norm"].value
        # one gradient transform serves both Y halves; dropped before the next family (set-up memory)
        w_grad = _grad_values(grid, w_hat)
        y1 = _thm1_y(grid, times, w_grad)["y_norm"].value
        w2 = _thm2_y(grid, times, w_hat, w_grad, f_hat)
        del w_grad
        free.append((name, f_hat, u_hat, w_hat, {"x1": x1, "x2": x2, "y1": y1, "y2": w2["y_norm"].value}))

        l1, linf, h1 = lp_norm(f, 1.0), lp_norm(f, np.inf), hs_norm(f, 1.0)
        if not l1 > 0:
            skipped.append(f"{name}: zero L1 norm")
        for family, lhs, rhs in (
            ("free_u_mass", x1, l1),
            ("free_w_grad", y1, linf),
            ("free_u_sobolev", x2, h1 + linf),
            ("free_w_sobolev", w2["w_sup_h1"].value + w2["w_grad_l2t_h1"].value, h1),
            ("free_w_sigma", w2["w_sigma_grad_linf"].value, h1),
        ):
            _add_sample(samples, f"c1[{family}]", (("data", name),), lhs, rhs)

    for uname, uf_hat, u_hat, _, unorm in free:
        # c3: chemical response of the density trajectory (zero initial datum)
        lu_hat, _ = _convolve_hat(u_hat, uf_hat, l_plan)
        lu_grad = _grad_values(grid, lu_hat)
        _add_sample(samples, "c3[thm1]", (("u", uname),),
                    _thm1_y(grid, times, lu_grad)["y_norm"].value, unorm["x1"])
        _add_sample(samples, "c3[thm2]", (("u", uname),),
                    _thm2_y(grid, times, lu_hat, lu_grad, None)["y_norm"].value, unorm["x2"])
        del lu_grad
        for wname, wf_hat, _, w_hat, wnorm in free:
            # c2: only B's X norms enter; one (u, w) pair at a time bounds the memory
            b_hat, _ = _bilinear_hat(grid, u_hat, w_hat, _div_u_grad_v(grid, uf_hat, wf_hat), b_plan)
            b_vals = irfft2(b_hat, grid.n)
            _require_finite(b_vals)
            params = (("u", uname), ("w", wname))
            _add_sample(samples, "c2[thm1]", params, _thm1_x(grid, times, b_vals)["x_norm"].value,
                        unorm["x1"] * wnorm["y1"])
            _add_sample(samples, "c2[thm2]", params, _thm2_x(grid, times, b_vals, b_hat, None)["x_norm"].value,
                        unorm["x2"] * wnorm["y2"])

    c1, c2, c3 = (max(s.ratio for s in samples if s.family.startswith(g)) for g in ("c1", "c2", "c3"))
    c = safety_factor * max(c1, c2, c3)
    meta = {
        "n": setup.n, "l": setup.l, "K": setup.num_times,
        "t_min": setup.t_min, "T": setup.t_max,
        "families": [name for name, _ in families],
        "skipped": skipped,
    }
    return ConstantsReport(
        c1=c1, c2=c2, c3=c3, safety_factor=safety_factor, c=c,
        threshold=3.0 / (32.0 * c * c), samples=tuple(samples), metadata=meta,
    )


@lru_cache(maxsize=1)
def default_constants() -> ConstantsReport:
    """The bundled deterministic constants run used when no c is configured."""
    return estimate_constants(LabSetup())


# ---------------------------------------------------------------------------
# Stripe-data counterexample profile
# ---------------------------------------------------------------------------

COUNTEREXAMPLE_T_MAX = 1.0 / 64.0


def stripe_lower_constant() -> float:
    """(e^-1 - e^-9) / (2 sqrt(pi)): the lower bound inside the window."""
    return float((np.exp(-1.0) - np.exp(-9.0)) / (2.0 * np.sqrt(np.pi)))


def stripe_profile_exact(t: float, x1) -> np.ndarray:
    """Closed form of t^{1/2} |d_1 e^{t Lap} 1_{0<=x1<=1}| on the line."""
    x1 = np.asarray(x1, dtype=np.float64)
    return np.abs(np.exp(-(x1**2) / (4.0 * t)) - np.exp(-((x1 - 1.0) ** 2) / (4.0 * t))) / (
        2.0 * np.sqrt(np.pi)
    )


@dataclass(frozen=True)
class CounterexampleResult:
    t: float
    x1: np.ndarray
    closed_form: np.ndarray
    c0: float
    in_window: bool
    verdict: str
    grid_x1: np.ndarray | None = None
    grid_values: np.ndarray | None = None
    smoothed_reference: np.ndarray | None = None
    max_rel_gap: float | None = None


def default_counterexample_grid() -> Grid2D:
    return Grid2D(512, 8.0)


def counterexample_profile(
    t: float,
    x1_points,
    grid: Grid2D | None = None,
    smoothing_cells: float = 1.0,
) -> CounterexampleResult:
    """Evaluate the stripe gradient profile at (t, x1) points.

    The verdict uses the closed form: "holds" when every value meets the
    lower constant inside the window 0 < t < 1/64, sqrt(t) < x1 < 2 sqrt(t);
    points outside the window give "outside hypothesis".  When a grid is
    supplied the same profile is recomputed through the grid heat flow on a
    one-cell-smoothed stripe and cross-validated against the closed form at
    the smoothing-shifted time.
    """
    x1 = np.atleast_1d(np.asarray(x1_points, dtype=np.float64))
    c0 = stripe_lower_constant()
    rt = np.sqrt(t) if t > 0 else 0.0
    in_window = bool(
        0.0 < t < COUNTEREXAMPLE_T_MAX and np.all((x1 > rt) & (x1 < 2.0 * rt))
    )
    closed = stripe_profile_exact(t, x1) if t > 0 else np.zeros_like(x1)
    if not in_window:
        verdict = "outside hypothesis"
    elif np.all(closed >= c0):
        verdict = "holds"
    else:
        verdict = "violated"

    grid_x1 = grid_vals = reference = None
    max_rel_gap = None
    if grid is not None and t > 0:
        s_m = (smoothing_cells * grid.h / 2.0) ** 2
        v0 = smoothed_stripe_field(grid, smoothing_time=s_m)
        d1 = multiplier_apply(GradComponent(0), heat(t, v0))
        idx = np.clip(np.round((x1 + grid.l / 2.0) / grid.h).astype(int), 0, grid.n - 1)
        grid_x1 = grid.x[idx]
        grid_vals = np.sqrt(t) * np.abs(d1.values[idx, 0])
        reference = stripe_profile_exact(t + s_m, grid_x1)
        max_rel_gap = float(np.max(np.abs(grid_vals - reference) / reference))

    return CounterexampleResult(
        t=float(t), x1=x1, closed_form=closed, c0=c0, in_window=in_window,
        verdict=verdict, grid_x1=grid_x1, grid_values=grid_vals,
        smoothed_reference=reference, max_rel_gap=max_rel_gap,
    )


@dataclass(frozen=True)
class CounterexampleSweep:
    results: tuple[CounterexampleResult, ...]
    c0: float
    all_hold: bool
    point_count: int
    max_rel_gap: float | None
    normalized_lower_bound: float
    smoothing_width: float = 0.0  # stripe mollification width in length units

    def to_json_dict(self) -> dict:
        return {
            "c0": self.c0,
            "all_hold": self.all_hold,
            "point_count": self.point_count,
            "max_rel_gap": self.max_rel_gap,
            "normalized_lower_bound": self.normalized_lower_bound,
            "smoothing_width": self.smoothing_width,
            "points": [
                {
                    "t": r.t,
                    "x1": r.x1.tolist(),
                    "closed_form": r.closed_form.tolist(),
                    "verdict": r.verdict,
                    "grid_values": None if r.grid_values is None else r.grid_values.tolist(),
                    "max_rel_gap": r.max_rel_gap,
                }
                for r in self.results
            ],
        }


def counterexample_sweep(
    grid: Grid2D | None = None,
    num_t: int = 5,
    smoothing_cells: float = 1.0,
) -> CounterexampleSweep:
    """A (t, x1) sweep inside the hypothesis window, two grid-aligned x1 per t."""
    if grid is None:
        grid = default_counterexample_grid()
    ts = np.linspace(0.004, 0.0145, num_t)
    results = []
    min_value = np.inf
    max_gap = 0.0
    count = 0
    for t in ts:
        rt = np.sqrt(t)
        lo, hi = 1.05 * rt, 1.95 * rt
        cols = grid.x[(grid.x > lo) & (grid.x < hi)]
        if cols.size < 2:
            raise ValueError("counterexample grid too coarse for the sweep window")
        x1 = np.array([cols[0], cols[-1]])
        res = counterexample_profile(t, x1, grid=grid, smoothing_cells=smoothing_cells)
        results.append(res)
        min_value = min(min_value, float(np.min(res.closed_form)))
        if res.max_rel_gap is not None:
            max_gap = max(max_gap, res.max_rel_gap)
        count += x1.size
    c0 = stripe_lower_constant()
    all_hold = all(r.verdict == "holds" for r in results)
    return CounterexampleSweep(
        results=tuple(results), c0=c0, all_hold=all_hold, point_count=count,
        max_rel_gap=max_gap, normalized_lower_bound=min_value / c0,
        smoothing_width=smoothing_cells * grid.h,
    )
