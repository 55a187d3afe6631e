"""Numerical verification of the standalone operator estimates.

Each ``verify_*`` function evaluates both sides of an estimate on declared
sample families and reports the observed ratios as an ``InequalityReport``.
So do the heat-kernel tables (``heat_kernel_norms``, ``grad_heat_kernel_norms``):
the discrete L^p norms of the sampled kernel and of its gradient against the
bounds t^{-1+1/p} and t^{-3/2+1/p}.  ``estimate_constants``
turns the linear/bilinear ratios into the empirical constant that feeds the
solver's smallness threshold.  ``counterexample_sweep`` evaluates the
stripe-data lower bound that rules out smallness for arbitrary bounded data:
the closed form gives each verdict (``counterexample_profile``), and one
batched grid heat flow of the smoothed stripe cross-checks it.

Every convolution the bilinear and maximal-regularity verifiers measure has
a rank-one integrand prof(t) pre(xi) f(xi), and the ETD march is diagonal
per rate, so each (profile, plan) pair is marched once as a scalar per
distinct rate (``duhamel._profile_march``).  Each verifier bins its field
stack once (``norms._rate_parts``): P_r is a field's binned power spectrum,
summed over the modes of rate r.  A case's prefactor pre and weight w are
radial, constant on each rate class of |xi|^2, so pre_r^2 w_r scales P_r
per rate.  Rounding can merge two of these classes in the damped rates
1+|xi|^2 (n = 128, l = 32 does), so a damped march is read through the class
map, once per class of |xi|^2.  The node norms
sum_r |m_j(r)|^2 pre_r^2 w_r P_r of all fields are one product
(``norms._rank_one_norms``), and a field's norm is sqrt(sum_r w_r P_r).  The
multiplier verifier's symbols m(t, |xi|^2) are such per-rate profiles too.

The set-up is a ``trajectories.Window``, which builds its grids and the plans
of |xi|^2 and 1 + |xi|^2 once (``setup.plan``): every routine run on one set-up
shares them.  The swept modes are all (m, 0), which ``data._cosine_modes``
evaluates on one column each.

Discrete conventions: time norms on both sides of an estimate use the same
trapezoid rule on the shared node set (suprema become node maxima), so a
ratio of 1 means the discrete inequality is tight, not a quadrature
artefact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace
from functools import cached_property, lru_cache

import numpy as np

from .data import (
    _cosine_modes,
    cosine_mode_field,
    gaussian_field,
    random_band_limited_field,
    smoothed_stripe_field,
)
from .duhamel import _div_u_grad_v, _etd_march, _profile_march
from .fields import Grid2D, ScalarField, _grad_values, irfft2, rfft2
from .norms import (
    _batch_grad_linf,
    _batch_hs,
    _batch_lp,
    _hs_weight,
    _l2t,
    _l2t_head,
    _node_series,
    _rank_one_norms,
    _rate_parts,
    _sobolev_nodes,
    _thm1_x,
    _thm1_y,
    _thm2_x,
    _thm2_y,
    _weighted_heat_sup,
    lp_norm,
    trapezoid,
)
from .semigroup import _free_flow
from .trajectories import TimeGrid, Window, _require_finite


@dataclass(frozen=True)
class LabSetup(Window):
    """The window of a verification run; ``doubled`` refines n, K and T together.

    Its one departure from the default window is K = 32: ``LabSetup()`` is the
    window of the pinned ``AUTO_C`` and of the benchmark's ``lab`` workload.
    ``mode_cap`` pins the largest swept integer mode; the doubled setup
    inherits it so refinement studies compare the same sample family.  Like
    the grid and the plans, the doubled setup is built once per setup and
    kept, so every refinement study of one setup shares its plans.
    """

    num_times: int = 32
    mode_cap: int | None = None

    def effective_mode_cap(self) -> int:
        return self.mode_cap if self.mode_cap is not None else self.n // 3

    @cached_property
    def _doubled(self) -> "LabSetup":
        return replace(self, n=self.n * 2, t_max=self.t_max * 2, num_times=self.num_times * 2,
                       mode_cap=self.effective_mode_cap())

    def doubled(self) -> "LabSetup":
        return self._doubled


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

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "max_ratio": self.max_ratio,
            "group_max": self.group_max(),
            "metadata": self.metadata,
        }


def _time_lp(times: np.ndarray, values: np.ndarray, p: float, v0=None):
    """Discrete L^p norms in time over [0, T] of (K, ...) node values: node trapezoid, optional t=0 knot(s) v0."""
    if v0 is not None:
        times = np.concatenate(([0.0], times))
        values = np.concatenate((np.broadcast_to(v0, (1,) + values.shape[1:]), values))
    if np.isinf(p):
        return np.max(values, axis=0)
    return trapezoid(times, values**p) ** (1.0 / p)


def _add_sample(samples: list, family: str, params: tuple, lhs: float, rhs: float) -> None:
    """Record the ratio lhs/rhs, unless the right-hand side vanishes."""
    if rhs != 0:
        samples.append(RatioSample(family, params, float(lhs), float(rhs)))


_SWEEP_MODES = (1, 2, 3, 4, 6, 8, 12, 16)

# the random sample field's modes |m_i| <= 8 fit strictly inside the spectrum of n >= 32 (n a power of two)
_RANDOM_MAX_MODE, LAB_MIN_N = 8, 32


def _lab_fields(grid: Grid2D, seed: int) -> list[tuple[str, ScalarField]]:
    return [
        ("const", ScalarField(grid, np.ones((grid.n, grid.n)))),
        ("gaussian", gaussian_field(grid, mass=1.0, width=1.0)),
        ("mode31", cosine_mode_field(grid, (3, 1))),
        ("random", random_band_limited_field(grid, seed=seed, max_mode=_RANDOM_MAX_MODE)),
    ]


# ---------------------------------------------------------------------------
# Heat-kernel norm tables
# ---------------------------------------------------------------------------


class ResolutionError(ValueError):
    """The grid cannot resolve (or contain) the requested kernel."""


def kernel_norm_exact(p: float, t: float) -> float:
    """Closed-form L^p norm of the kernel: p^{-1/p} (4 pi t)^{-1+1/p}."""
    if np.isinf(p):
        return 1.0 / (4.0 * np.pi * t)
    return p ** (-1.0 / p) * (4.0 * np.pi * t) ** (-1.0 + 1.0 / p)


def grad_kernel_l1_exact(t: float) -> float:
    """Closed-form L^1 norm of the kernel gradient: sqrt(pi)/(2 sqrt(t))."""
    return np.sqrt(np.pi) / (2.0 * np.sqrt(t))


def _kernel_table(name: str, p_list, t_list, grid: Grid2D, grad: bool) -> InequalityReport:
    """One sample per (t, p): the discrete L^p norm of the sampled kernel (or |grad kernel|) over its bound."""
    samples: list[RatioSample] = []
    for t in t_list:
        width = np.sqrt(4.0 * t)
        if width < 4.0 * grid.h:
            raise ResolutionError(f"kernel width sqrt(4t)={width:.3g} under-resolved (< 4h = {4 * grid.h:.3g})")
        if width > grid.l / 8.0:
            raise ResolutionError(f"kernel width sqrt(4t)={width:.3g} too wide for the box (> l/8 = {grid.l / 8:.3g})")
        kern = gaussian_field(grid, 1.0, t).values  # the heat kernel
        if grad:
            x1, x2 = grid.coords()
            kern = kern * np.sqrt(x1**2 + x2**2) / (2.0 * t)
        for p in p_list:
            bound = t ** ((-1.5 if grad else -1.0) + (0.0 if np.isinf(p) else 1.0 / p))
            _add_sample(samples, name, (("p", float(p)), ("t", float(t))), _batch_lp(kern, p, grid.cell_area), bound)
    return InequalityReport(name, tuple(samples), {"n": grid.n, "l": grid.l})


def heat_kernel_norms(p_list, t_list, grid: Grid2D) -> InequalityReport:
    """Discrete L^p norms of the sampled kernel against the bound t^{-1+1/p}.

    Each requested time must satisfy 4h <= sqrt(4t) <= l/8 so the kernel is
    both resolved and essentially untruncated on the torus.
    """
    return _kernel_table("heat_kernel", p_list, t_list, grid, grad=False)


def grad_heat_kernel_norms(p_list, t_list, grid: Grid2D) -> InequalityReport:
    """Discrete L^p norms of |grad kernel| against the bound t^{-3/2+1/p}."""
    return _kernel_table("grad_heat_kernel", p_list, t_list, grid, grad=True)


# ---------------------------------------------------------------------------
# Multiplier estimates
# ---------------------------------------------------------------------------


def verify_multiplier_lemma(setup: LabSetup, seed: int = 0) -> InequalityReport:
    """Both forms of the multiplier estimate on heat-type symbol families.

    Form A:  ||m(t,D) v||_{L^r_t H^s} <= ||m||_{L^r_t L^inf_xi} ||v||_{H^s}
    Form B:  ||m_d(t,D) v||_{L^rho_t H^s} <= ||m_d||_{L^inf_xi L^rho_t} ||v||_{H^s}
    with m in {1, heat, damped heat} and m_d = |xi|^delta * m.  Every symbol
    is m(t, |xi|^2), so it is a (K, R) profile over the distinct rates of
    |xi|^2: the node norms of every field are one ``_rank_one_norms`` product
    and the suprema over xi are maxima over the rates.
    """
    grid, plan = setup.make_grid(), setup.plan(0.0)
    times, rates, inverse = plan.tgrid.times, plan.values, plan.inverse
    t, k2 = times[:, None], rates[None, :]
    syms = {"identity": np.ones((times.size, rates.size)), "heat": np.exp(-t * k2),
            "damped": np.exp(-t) * np.exp(-t * k2)}
    # no field enters a symbol's side: its L^r_t sup_xi norms (Form A), and for Form B
    # m_d = |xi|^delta m with its sup_xi L^2_t norm (m_d enters squared: no |.| pass), once per symbol
    sym_lp = {(mname, r): _time_lp(times, np.max(np.abs(sym), axis=1), r)
              for mname, sym in syms.items() for r in (np.inf, 2.0)}
    msyms = {(mname, delta): sym * np.sqrt(k2) ** delta if delta else sym
             for mname, sym in syms.items() for delta in (0.0, 1.0)}
    msym_sup = {key: float(np.max(_time_lp(times, msym, 2.0))) for key, msym in msyms.items()}

    # one transform and one binning of the field stack; the H^s weight scales each rate's power
    fields = _lab_fields(grid, seed)
    power = _rate_parts(grid, inverse, rfft2(np.stack([f.values for _, f in fields])), rates.size)
    weights = {s: _hs_weight(rates, s) for s in (0.0, 1.0)}
    hs_f = {s: np.sqrt(power @ w) for s, w in weights.items()}
    # every field's node norms per (symbol, delta, s), and their time norms, (F,), per r
    nodes = {(mname, delta, s): _rank_one_norms(msym, (power * w).T)
             for s, w in weights.items() for (mname, delta), msym in msyms.items()}
    lhs = {key + (r,): _time_lp(times, series, r) for key, series in nodes.items() for r in (np.inf, 2.0)}

    samples: list[RatioSample] = []
    for i, (fname, _) in enumerate(fields):
        for mname in syms:
            params = (("multiplier", mname), ("field", fname))
            for s in (0.0, 1.0):
                for r in (np.inf, 2.0):
                    _add_sample(samples, f"formA[r={'inf' if np.isinf(r) else int(r)},s={int(s)}]", params,
                                lhs[mname, 0.0, s, r][i], sym_lp[mname, r] * hs_f[s][i])
                # Form B with |xi|^delta weights, rho = 2
                for delta in (0.0, 1.0):
                    _add_sample(samples, f"formB[rho=2,delta={int(delta)},s={int(s)}]", params,
                                lhs[mname, delta, s, 2.0][i], msym_sup[mname, delta] * hs_f[s][i])

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


def verify_bilinear_lemma23(setup: LabSetup, seed: int = 0) -> InequalityReport:
    """Convolution-in-time estimates against heat and damped-heat kernels.

    Damped form: || int_0^t e^{-(t-tau)(1+|xi|^2)} |xi|^theta F dtau ||_{L^p1_t Hdot^s}
                 <= C ||F||_{L^r_t Hdot^s}  on the tuples used downstream.
    Plain form:  the |xi|^{2+2/p-2/r} variant measured in inhomogeneous H^s.
    The metadata records a mode-sweep uniformity gap: enlarging the swept
    mode set must not materially raise the observed constant.
    """
    grid, tgrid = setup.grids()
    times = tgrid.times
    cap = setup.effective_mode_cap()

    # one plan per decay rate and one march per (profile, plan) serve every field and case.  Prefactors and
    # weights are evaluated per rate class of |xi|^2; rounding can merge two of them in 1+|xi|^2 (n = 128
    # does), so each damped march is read per class of |xi|^2
    plans = {"damped": setup.plan(1.0), "plain": setup.plan(0.0)}
    k2, inverse = plans["plain"].values, plans["plain"].inverse
    classes = {"plain": slice(None), "damped": np.searchsorted(plans["damped"].values, 1.0 + k2)}
    marches = {(pname, rate): _profile_march(prof, plan)[:, classes[rate]]
               for pname, prof in _PROFILES.items() for rate, plan in plans.items()}
    # one stack, transform and binning: the swept modes 1..cap (column m-1), then the random field
    modes = [(m, 0) for m in range(1, cap + 1)]
    random = random_band_limited_field(grid, seed=seed, max_mode=_RANDOM_MAX_MODE).values[None]
    power = _rate_parts(grid, inverse, rfft2(np.concatenate((_cosine_modes(grid, modes), random))), k2.size)
    columns = [(f"mode{m}", (("mode", m),), m - 1) for m in _SWEEP_MODES if m <= cap]
    columns.append(("random", (("seed", seed),), cap))
    # the damped cases measure homogeneous norms and the plain ones inhomogeneous, each at s = 0 and 1
    weights = {(s, homogeneous): _hs_weight(k2, s, homogeneous) for s in (0.0, 1.0) for homogeneous in (True, False)}
    f_norms = {key: np.sqrt(power @ w) for key, w in weights.items()}

    cases = [(f"damped[theta={_fmt(theta)},p1={_fmt(p1)},r={_fmt(r)},s={int(s)}]", "damped",
              np.sqrt(k2) ** theta if theta else np.ones_like(k2), p1, r, s, True)
             for theta, p1, r in _EQ27_TUPLES for s in (0.0, 1.0)]
    cases += [(f"plain[p={_fmt(p)},r={_fmt(r)},s={int(s)}]", "plain",
               np.sqrt(k2) ** (2.0 + (0.0 if np.isinf(p) else 2.0 / p) - 2.0 / r), p, r, s, False)
              for p, r in _EQ26_TUPLES for s in (0.0, 1.0)]
    samples: list[RatioSample] = []
    sides: dict = {}  # per (case, profile): the convolution's time norms and the integrand's, (F,) each
    for group, rate, pre, p_out, r_in, s, homogeneous in cases:
        parts = (power * (pre**2 * weights[s, homogeneous])).T
        f_norm = f_norms[s, homogeneous]
        for pname, prof in _PROFILES.items():
            sides[group, pname] = (_time_lp(times, _rank_one_norms(marches[pname, rate], parts), p_out, v0=0.0),
                                   _time_lp(times, prof(times)[:, None] * f_norm, r_in, v0=prof(0.0) * f_norm))
        for fname, fparams, col in columns:
            for pname in _PROFILES:
                lhs, rhs = sides[group, pname]
                _add_sample(samples, group, fparams + (("field", fname), ("profile", pname)), lhs[col], rhs[col])

    # Uniformity sweep: per tuple, compare max ratio over low modes with the
    # max over the full swept range (constant-profile, s = 0).
    uniformity: dict = {}
    for label in ("damped[theta=0,p1=inf,r=inf,s=0]", "plain[p=inf,r=inf,s=0]"):
        lhs, rhs = sides[label, "const"]
        ratios = lhs[:cap] / rhs[:cap]
        low = float(np.max(ratios[: max(1, cap // 2)]))
        full = float(np.max(ratios))
        uniformity[label] = {"low_modes_max": low, "full_sweep_max": full,
                             "gap": abs(full - low) / full if full > 0 else 0.0}

    return InequalityReport("bilinear_convolution", tuple(samples), _meta(setup, seed, uniformity=uniformity))


# ---------------------------------------------------------------------------
# Maximal regularity
# ---------------------------------------------------------------------------


def verify_maximal_regularity(setup: LabSetup, seed: int = 0) -> InequalityReport:
    """||T g||_{L2_t L2} / ||g||_{L2_t L2} over modes and time profiles, g = prof(t) f.

    The input norm integrates the piecewise-linear reconstruction of g
    exactly; the output norm uses the node trapezoid of Parseval L^2 norms
    of T g = -|xi|^2 f times each profile's march against the rates |xi|^2.
    """
    grid, tgrid = setup.grids()
    times = tgrid.times
    modes = [m for m in _SWEEP_MODES if m <= setup.effective_mode_cap()]

    def square_profile(t):
        # on/off wave with absolute period 1, so refinement sees the same g
        t = np.asarray(t, dtype=float)
        return (np.floor(2.0 * t) % 2 == 0).astype(float)

    profiles = {**_PROFILES, "square": square_profile}
    plan = setup.plan(0.0)
    marches = {pname: _profile_march(prof, plan) for pname, prof in profiles.items()}
    gaps = np.diff(np.concatenate(([0.0], times)))
    prof_l2 = {}  # exact L^2_t norm of each profile's piecewise-linear reconstruction
    for pname, prof in profiles.items():
        pv = np.concatenate(([float(prof(0.0))], prof(times)))
        prof_l2[pname] = float(np.sqrt(np.sum(gaps * (pv[:-1] ** 2 + pv[:-1] * pv[1:] + pv[1:] ** 2) / 3.0)))

    # one stack, transform and binning of the modes; T's symbol -|xi|^2 squared scales each rate's power
    stack = _cosine_modes(grid, [(m, 0) for m in modes])
    parts = (_rate_parts(grid, plan.inverse, rfft2(stack), plan.values.size) * plan.values**2).T
    f_l2 = _batch_lp(stack, 2.0, grid.cell_area)
    lhs = {pname: _time_lp(times, _rank_one_norms(march, parts), 2.0, v0=0.0) for pname, march in marches.items()}
    samples: list[RatioSample] = []
    for i, m in enumerate(modes):
        for pname in profiles:
            _add_sample(samples, "maxreg[p=q=2]", (("mode", m), ("profile", pname)),
                        lhs[pname][i], f_l2[i] * prof_l2[pname])

    by_subset = {
        "all": max(s.ratio for s in samples),
        "low_modes": max(s.ratio for s in samples if dict(s.params)["mode"] <= max(1, setup.effective_mode_cap() // 2)),
        "const_only": max(s.ratio for s in samples if dict(s.params)["profile"] == "const"),
    }
    return InequalityReport("maximal_regularity", tuple(samples), _meta(setup, seed, subsets=by_subset))


def verify_l4_interpolation(setup: LabSetup, seed: int = 0) -> InequalityReport:
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
        grad_l2t = _l2t(times, _sobolev_nodes(grid, u_hat)[1], _l2t_head(grid, f_hat, times[0], False))
        _add_sample(samples, "l4_interpolation", (("field", fname),), lhs, sup_l2 * grad_l2t)
    return InequalityReport("l4_interpolation", tuple(samples), _meta(setup, seed))


def besov_equivalence_samples(setup: LabSetup, seed: int = 0) -> InequalityReport:
    """Measured ratio of the order-0 sup norm to the gradient's order -1 norm.

    sup_t ||e^{t Lap} v||_Linf versus sup_t t^{1/2} ||grad e^{t Lap} v||_Linf;
    the equivalence constants are recorded, not certified.
    """
    grid = setup.make_grid()
    probe = TimeGrid.geometric(setup.t_max * 1e-6 / 1.1, setup.t_max, 48)

    samples: list[RatioSample] = []
    for fname, f in _lab_fields(grid, seed):
        coeffs = rfft2(f.values)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sup0 = _weighted_heat_sup(grid, coeffs, probe, 0.0, np.inf, grad=False).value
            grad_sup = _weighted_heat_sup(grid, coeffs, probe, 0.5, np.inf, grad=True).value
        _add_sample(samples, "besov_equivalence", (("field", fname),), sup0, grad_sup)
    meta = {"n": setup.n, "probe_T": setup.t_max, "seed": seed}
    return InequalityReport("besov_equivalence", tuple(samples), meta)


def refinement_drift(verifier, setup: LabSetup) -> dict:
    """Per-family observed-constant drift under simultaneous (n, K, T) doubling, at the verifiers' seed 0.

    ``per_group`` holds each family's relative change of its largest ratio,
    ``max_drift`` the largest of them, and ``base_report`` the verifier's
    report on ``setup``, for callers that also need it.
    """
    base = verifier(setup)
    fine = verifier(setup.doubled())
    g1, g2 = base.group_max(), fine.group_max()
    per_group = {
        key: abs(g2[key] - g1[key]) / g1[key]
        for key in g1
        if key in g2 and g1[key] > 0
    }
    return {
        "per_group": per_group,
        "max_drift": max(per_group.values()) if per_group else 0.0,
        "base_report": base,
    }


# ---------------------------------------------------------------------------
# Empirical constants and the smallness threshold
# ---------------------------------------------------------------------------


def smallness_threshold(c: float) -> float:
    """The Picard smallness threshold 3/(32 c^2); ``c**2`` would differ from ``c*c`` by an ulp for some c."""
    return 3.0 / (32.0 * c * c)


# the working constant c is the largest observed ratio times this factor
SAFETY_FACTOR = 1.5


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


def estimate_constants(setup: LabSetup) -> ConstantsReport:
    """Observed-ratio maxima for the linear/bilinear estimates, both norm modes, on ``standard_families``.

    c1: free-evolution bounds; c2: bilinear bound; c3: chemical-response
    bound.  The working constant is the observed maximum times
    ``SAFETY_FACTOR``, and the smallness threshold is 3/(32 c^2).
    """
    grid, tgrid = setup.grids()
    families = standard_families(grid)

    samples: list[RatioSample] = []
    skipped: list[str] = []
    times = tgrid.times
    l_plan, b_plan = setup.plan(1.0), setup.plan(0.0)

    # each family's free flows stay half spectra (u: heat, w: damped heat)
    free: list[tuple[str, np.ndarray, np.ndarray, np.ndarray, dict]] = []
    for name, f in families:
        f_hat = rfft2(f.values)
        u_hat = _free_flow(f_hat, times, grid.k2_half)
        w_hat = _free_flow(f_hat, times, grid.k2_half + 1.0)
        # one gradient transform and one set of L^inf and grad-sup series serve both modes
        l1, linf, grad_sup = _node_series(grid, irfft2(u_hat, grid.n), _grad_values(grid, w_hat))
        x1 = _thm1_x(times, l1, linf)["x_norm"].value
        x2 = _thm2_x(times, *_sobolev_nodes(grid, u_hat), linf, _l2t_head(grid, f_hat, times[0], False))["x_norm"].value
        y1 = _thm1_y(times, grad_sup)["y_norm"].value
        w2 = _thm2_y(times, *_sobolev_nodes(grid, w_hat), grad_sup, _l2t_head(grid, f_hat, times[0], True))
        free.append((name, f_hat, u_hat, w_hat, {"x1": x1, "x2": x2, "y1": y1, "y2": w2["y_norm"].value}))

        l1, linf, h1 = lp_norm(f, 1.0), lp_norm(f, np.inf), float(_batch_hs(grid, f_hat, 1.0))
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
        lu_hat = _etd_march(u_hat, uf_hat, l_plan)
        grad_sup = _batch_grad_linf(grid, lu_hat)
        _add_sample(samples, "c3[thm1]", (("u", uname),), _thm1_y(times, grad_sup)["y_norm"].value, unorm["x1"])
        _add_sample(samples, "c3[thm2]", (("u", uname),),
                    _thm2_y(times, *_sobolev_nodes(grid, lu_hat), grad_sup, None)["y_norm"].value, unorm["x2"])
        for wname, wf_hat, _, w_hat, wnorm in free:
            # c2: only B's X norms enter; one (u, w) pair at a time bounds the memory
            b_hat = _etd_march(_div_u_grad_v(grid, u_hat, w_hat), _div_u_grad_v(grid, uf_hat, wf_hat), b_plan)
            b_vals = irfft2(b_hat, grid.n)
            _require_finite(b_vals)
            params = (("u", uname), ("w", wname))
            linf = _batch_lp(b_vals, np.inf, grid.cell_area)
            _add_sample(samples, "c2[thm1]", params,
                        _thm1_x(times, _batch_lp(b_vals, 1.0, grid.cell_area), linf)["x_norm"].value,
                        unorm["x1"] * wnorm["y1"])
            _add_sample(samples, "c2[thm2]", params,
                        _thm2_x(times, *_sobolev_nodes(grid, b_hat), linf, None)["x_norm"].value,
                        unorm["x2"] * wnorm["y2"])

    c1, c2, c3 = (max(s.ratio for s in samples if s.family.startswith(g)) for g in ("c1", "c2", "c3"))
    c = SAFETY_FACTOR * max(c1, c2, c3)
    meta = {
        "n": setup.n, "l": setup.l, "K": setup.num_times,
        "t_min": setup.t_min, "T": setup.t_max,
        "families": [name for name, _ in families],
        "skipped": skipped,
    }
    return ConstantsReport(
        c1=c1, c2=c2, c3=c3, safety_factor=SAFETY_FACTOR, c=c,
        threshold=smallness_threshold(c), samples=tuple(samples), metadata=meta,
    )


@lru_cache(maxsize=1)
def default_constants() -> ConstantsReport:
    """The bundled deterministic constants run, ``estimate_constants(LabSetup())``.

    Its ``c`` is pinned as ``AUTO_C``, the constant the solver takes when no
    c is configured; a test and ``kslab verify`` recompute it and require bit
    equality with the pin.
    """
    return estimate_constants(LabSetup())


# default_constants().c, pinned so that c=auto costs nothing; re-pin when the lab's numbers move
AUTO_C = 2.5138761466961865


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
    verdict: str
    grid_values: np.ndarray
    max_rel_gap: float


def counterexample_profile(t: float, x1_points) -> tuple[np.ndarray, str]:
    """The closed-form stripe gradient profile at (t, x1) points and its verdict.

    The verdict is "holds" when every value meets the lower constant inside
    the window 0 < t < 1/64, sqrt(t) < x1 < 2 sqrt(t); points outside the
    window give "outside hypothesis".
    """
    x1 = np.atleast_1d(np.asarray(x1_points, dtype=np.float64))
    rt = np.sqrt(t) if t > 0 else 0.0
    closed = stripe_profile_exact(t, x1) if t > 0 else np.zeros_like(x1)
    if not (0.0 < t < COUNTEREXAMPLE_T_MAX and np.all((x1 > rt) & (x1 < 2.0 * rt))):
        return closed, "outside hypothesis"
    return closed, "holds" if np.all(closed >= stripe_lower_constant()) else "violated"


@dataclass(frozen=True)
class CounterexampleSweep:
    results: tuple[CounterexampleResult, ...]
    c0: float
    all_hold: bool
    point_count: int
    max_rel_gap: float
    normalized_lower_bound: float
    smoothing_width: float  # stripe mollification width in length units

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
                    "grid_values": r.grid_values.tolist(),
                    "max_rel_gap": r.max_rel_gap,
                }
                for r in self.results
            ],
        }


def counterexample_sweep() -> CounterexampleSweep:
    """Five times in the hypothesis window, two grid-aligned x1 per time, on a 512-point grid of side 8.

    Each point's verdict is the closed form's (``counterexample_profile``).
    The grid cross-check evolves the one-cell-smoothed stripe (smoothing time
    s = (h/2)^2) by the grid heat flow: one transform of the stripe gives
    d_1 at all five times in one batch, compared with the closed form at
    t + s.
    """
    grid = Grid2D(512, 8.0)
    ts = np.linspace(0.004, 0.0145, 5)
    s_m = (grid.h / 2.0) ** 2
    v_hat = rfft2(smoothed_stripe_field(grid, smoothing_time=s_m).values)
    d1 = irfft2(1j * grid.kx_deriv * _free_flow(v_hat, ts, grid.k2_half), grid.n)
    results = []
    for t, d1_t in zip(ts, d1):
        rt = np.sqrt(t)
        idx = np.flatnonzero((grid.x > 1.05 * rt) & (grid.x < 1.95 * rt))[[0, -1]]
        x1 = grid.x[idx]
        closed, verdict = counterexample_profile(t, x1)
        grid_vals = np.sqrt(t) * np.abs(d1_t[idx, 0])
        reference = stripe_profile_exact(t + s_m, x1)
        results.append(CounterexampleResult(
            t=float(t), x1=x1, closed_form=closed, verdict=verdict, grid_values=grid_vals,
            max_rel_gap=float(np.max(np.abs(grid_vals - reference) / reference)),
        ))
    c0 = stripe_lower_constant()
    return CounterexampleSweep(
        results=tuple(results), c0=c0, all_hold=all(r.verdict == "holds" for r in results),
        point_count=sum(r.x1.size for r in results),
        max_rel_gap=max(r.max_rel_gap for r in results),
        normalized_lower_bound=min(float(np.min(r.closed_form)) for r in results) / c0,
        smoothing_width=grid.h,
    )
