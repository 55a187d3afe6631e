"""Invariance certificates, end to end through ``picard_solve``: the torus symmetries and the Keller-Segel scaling.

A whole-cell shift, the transposition x1 <-> x2 and the reflection x1 -> -x1
map the torus grid onto itself, so they map the solution of the transformed
data onto the transformed solution in both theorem modes.  Without the
damping (``remark_ii``) the system is invariant under
u_lam(t, x) = lam^2 u(lam^2 t, lam x), v_lam(t, x) = v(lam^2 t, lam x), and so
are the Theorem-1 norms.  A wrong 2 pi/l, a wrong cell area, a t-weight at the
wrong node or a derivative on the wrong axis breaks one of them at O(1).
"""

from dataclasses import replace

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings, strategies as st

from kslab import ScalarField, SolverConfig, check_theorem1_bound, gaussian_field, picard_solve

masses = st.floats(1e-4, 2e-2)
widths = st.floats(0.2, 1.0)
centres = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
REL = 1e-13
# hypothesis' explain phase traces every line of every solve it re-runs: on a failure (2 vCPU) it took 125 s and
# 500 MB where shrinking alone took 3 s and 80 MB, so these tests shrink without it
NO_EXPLAIN = settings(phases=[phase for phase in Phase if phase is not Phase.explain])

# the transformations act on the last two axes, (x1, x2), of node values and data alike
TORUS_MAPS = {
    "transpose": lambda a, shift: np.swapaxes(a, -2, -1),
    "reflect-x1": lambda a, shift: np.roll(np.flip(a, -2), 1, axis=-2),  # index i -> -i mod n
    "shift": lambda a, shift: np.roll(a, shift, axis=(-2, -1)),
}


def _solve(cfg, u_mass, u_width, u_centre, v_mass, v_width, v_centre, transform=lambda a: a):
    """``picard_solve`` of Gaussian data (u0, v0), ``transform``ed on the grid, with w0 = v0/(4c)."""
    grid = cfg.make_grid()
    u0 = ScalarField(grid, transform(gaussian_field(grid, u_mass, u_width, u_centre).values))
    v0 = ScalarField(grid, transform(gaussian_field(grid, v_mass, v_width, v_centre).values))
    return picard_solve(u0, (1.0 / (4.0 * cfg.resolve_c())) * v0, cfg)


def _rel(a, b) -> float:
    """sup |a - b| / sup |b|: a relative distance of node values, or of two scalars."""
    return float(np.max(np.abs(np.subtract(a, b))) / np.max(np.abs(b)))


# The deviations are measured in helpers that return only numbers: a failing example's traceback then holds
# no solve reports, which hypothesis would otherwise keep alive for every example it shrinks through.

def _torus_deviations(cfg, data, shift) -> dict:
    """Per torus map: the iteration-count change, then the relative deviations of u, v and both xy_norms."""
    base = _solve(cfg, *data)
    out = {}
    for name, torus_map in TORUS_MAPS.items():
        moved = _solve(cfg, *data, transform=lambda a: torus_map(a, shift))
        out[name] = (moved.iterations - base.iterations,
                     _rel(moved.u.stacked, torus_map(base.u.stacked, shift)),
                     _rel(moved.v.stacked, torus_map(base.v.stacked, shift)),
                     *(_rel(getattr(moved, r).value("xy_norm"), getattr(base, r).value("xy_norm"))
                       for r in ("norms_thm1", "norms_thm2")))
    return out


def _scaling_deviations(window, scaled, data) -> dict:
    """The lam = 2 image's iteration-count change and its relative deviations; the mass drift's is absolute."""
    u_mass, u_width, u_centre, v_mass, v_width, v_centre = data
    base = _solve(window, *data)
    moved = _solve(scaled, u_mass, u_width / 4, (u_centre[0] / 2, u_centre[1] / 2),
                   v_mass / 4, v_width / 4, (v_centre[0] / 2, v_centre[1] / 2))
    verdicts = check_theorem1_bound(moved), check_theorem1_bound(base)
    return {
        "iterations": moved.iterations - base.iterations,
        "u": _rel(moved.u.stacked, 4.0 * base.u.stacked),
        "v": _rel(moved.v.stacked, base.v.stacked),
        "xy_norm": _rel(moved.norms_thm1.value("xy_norm"), base.norms_thm1.value("xy_norm")),
        "a0": _rel(moved.a0, base.a0),
        "lhs": _rel(verdicts[0].lhs, verdicts[1].lhs),
        "rhs": _rel(verdicts[0].rhs, verdicts[1].rhs),
        # the mass drift is rounding noise, a relative number itself
        "mass_drift": abs(moved.mass_drift_max - base.mass_drift_max),
    }


@pytest.mark.parametrize("mode", ["thm1_L1Linf", "thm2_H1bH1"])
@NO_EXPLAIN
@given(u_mass=masses, u_width=widths, u_centre=centres, v_mass=masses, v_width=widths, v_centre=centres,
       shift=st.tuples(st.integers(-32, 32), st.integers(-32, 32)))
def test_torus_symmetries_map_solutions_onto_solutions(mode, u_mass, u_width, u_centre, v_mass, v_width,
                                                        v_centre, shift):
    cfg = SolverConfig(n=32, l=16.0, t_min=1e-2, t_max=2.0, num_times=12, mode=mode)
    for name, (iterations, *deviations) in _torus_deviations(
            cfg, (u_mass, u_width, u_centre, v_mass, v_width, v_centre), shift).items():
        assert iterations == 0 and max(deviations) <= REL, (name, deviations)


@pytest.mark.parametrize("window", [
    SolverConfig(n=32, l=16.0, t_min=1e-2, t_max=2.0, num_times=24, remark_ii=True),
    # np.geomspace(1/16, 1, 9) is np.geomspace(1/4, 4, 9) / 4 bit for bit: every quantity scales exactly
    SolverConfig(n=32, l=16.0, t_min=0.25, t_max=4.0, num_times=9, remark_ii=True),
], ids=["rounded-times", "exact-times"])
@NO_EXPLAIN
@given(u_mass=masses, u_width=widths, u_centre=centres, v_mass=masses, v_width=widths, v_centre=centres)
def test_keller_segel_scaling_under_remark_ii(window, u_mass, u_width, u_centre, v_mass, v_width, v_centre):
    # lam = 2: the box halves, the times and the Gaussian widths quarter, v's mass quarters; u -> 4u, v -> v
    scaled = replace(window, l=window.l / 2, t_min=window.t_min / 4, t_max=window.t_max / 4)
    exact = np.array_equal(scaled.make_timegrid().times, window.make_timegrid().times / 4)
    assert exact == (window.num_times == 9)
    deviations = _scaling_deviations(window, scaled, (u_mass, u_width, u_centre, v_mass, v_width, v_centre))
    assert deviations.pop("iterations") == 0
    assert max(deviations.values()) <= (0.0 if exact else REL), deviations
