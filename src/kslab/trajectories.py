"""Discrete space-time trajectories: geometric positive times plus one array of node values.

A trajectory is the discrete stand-in for a function of (t, x) living on
``(0, T]``: node times are strictly positive and geometric (a constant ratio
between neighbours, so small t is resolved), and an optional initial datum
carries the ``t = 0`` state when one is known (free evolutions and Picard
iterates always have one; generic integral-operator outputs start from zero).

The node values are one read-only, C-contiguous (K, n, n) float64 array,
``stacked``.  Construction is the only validation: the shape, one finiteness
pass (``TrajectoryOverflowError`` names the first bad node) and the initial
datum's grid.  Strided input such as the real part of a complex transform is
copied, so it does not keep the complex buffer alive.  The only arithmetic is
scalar multiplication; ``_require_compatible`` is the one rule for operators
that take two trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import Grid2D, ScalarField, _read_snapshots, _write_raw_snapshot, rfft2

_GEOMETRIC_TOL = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Geometric node times 0 < t_1 < ... < t_K: the ratio t_{j+1}/t_j is constant."""

    times: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=np.float64)
        if t.ndim != 1 or t.size < 2:
            raise ValueError("a time grid needs at least two nodes")
        if not np.all(np.isfinite(t)):
            raise ValueError("node times must be finite")
        if not t[0] > 0:
            raise ValueError("the first node must be strictly positive")
        if not np.all(np.diff(t) > 0):
            raise ValueError("node times must be strictly increasing")
        ratios = t[1:] / t[:-1]
        if np.max(np.abs(ratios - ratios[0])) > _GEOMETRIC_TOL * ratios[0]:
            raise ValueError("node times must be geometric: a constant ratio between neighbours")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)

    @classmethod
    def geometric(cls, t_min: float, t_max: float, count: int) -> "TimeGrid":
        if not 0 < t_min < t_max:
            raise ValueError("need 0 < t_min < t_max")
        return cls(np.geomspace(t_min, t_max, count))

    @property
    def t_min(self) -> float:
        return float(self.times[0])

    @property
    def t_max(self) -> float:
        return float(self.times[-1])

    @property
    def count(self) -> int:
        return int(self.times.size)

    @property
    def min_gap(self) -> float:
        return float(np.min(np.diff(self.times)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TimeGrid)
            and self.times.shape == other.times.shape
            and bool(np.all(self.times == other.times))
        )

    def __hash__(self):  # consistent with __eq__ for frozen use
        return hash(self.times.tobytes())


@dataclass(frozen=True)
class Window:
    """The discretisation a run is checked on: an n x n torus of side l for R^2, K geometric nodes in [t_min, T].

    The one default set: ``SolverConfig`` and the CLI's grid/time keys take it, ``LabSetup`` all but K.  Only
    the builders check the values.

    A window builds its grid, its time grid and one ``EtdPlan`` per damping once, on first use, and keeps
    them as long as it lives: every Picard solve and lab routine run on one window shares them, and
    ``dataclasses.replace`` starts a new window with nothing built.  They are read-only and depend on the
    window's fields alone, so the cache has no data key and a run cannot see what an earlier one computed.
    """

    n: int = 64
    l: float = 32.0
    t_min: float = 1e-3
    t_max: float = 10.0
    num_times: int = 64

    @cached_property
    def _grid(self) -> Grid2D:
        return Grid2D(self.n, self.l)

    @cached_property
    def _tgrid(self) -> TimeGrid:
        return TimeGrid.geometric(self.t_min, self.t_max, self.num_times)

    @cached_property
    def _plans(self) -> dict:
        return {}

    def make_grid(self) -> Grid2D:
        return self._grid

    def make_timegrid(self) -> TimeGrid:
        return self._tgrid

    def plan(self, damping: float):
        """The ``EtdPlan`` of the rates |xi|^2 + damping on the time grid, built on the first call per damping."""
        from .duhamel import EtdPlan  # duhamel imports this module

        if damping not in self._plans:
            self._plans[damping] = EtdPlan(self._grid.k2_half + damping, self._tgrid)
        return self._plans[damping]

    def grids(self, *data: ScalarField) -> tuple[Grid2D, TimeGrid]:
        """The grid and the time grid; a ValueError unless every datum lives on that grid."""
        grid = self.make_grid()
        if any(f.grid != grid for f in data):
            raise ValueError("initial data must live on the configured grid")
        return grid, self.make_timegrid()


class TrajectoryOverflowError(RuntimeError):
    """Trajectory values overflowed; carries the first bad node."""

    def __init__(self, node_index: int):
        self.node_index = node_index
        super().__init__(f"trajectory values are non-finite at node {node_index}")


def _first_nonfinite_node(values: np.ndarray) -> int | None:
    """Index of the first node (axis 0) holding a NaN or infinity, if any."""
    bad = ~np.all(np.isfinite(values.reshape(values.shape[0], -1)), axis=1)
    return int(np.argmax(bad)) if bad.any() else None


def _require_finite(values: np.ndarray) -> None:
    """Raise ``TrajectoryOverflowError`` naming the first node (axis 0) holding a NaN or infinity."""
    j = _first_nonfinite_node(values)
    if j is not None:
        raise TrajectoryOverflowError(j)


def _require_compatible(a: "Trajectory", b: "Trajectory") -> None:
    """The one compatibility rule: same spatial grid and same time grid."""
    if a.grid != b.grid:
        raise ValueError("trajectories live on different grids")
    if a.tgrid != b.tgrid:
        raise ValueError("trajectories live on different time grids")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Node values as one read-only (K, n, n) float64 array on a shared grid."""

    grid: Grid2D
    tgrid: TimeGrid
    stacked: np.ndarray
    initial: ScalarField | None = None

    def __post_init__(self) -> None:
        shape = (self.tgrid.count, self.grid.n, self.grid.n)
        if np.shape(self.stacked) != shape:
            raise ValueError(f"values shape {np.shape(self.stacked)} does not match grid/time grid {shape}")
        # copies only strided or non-float64 input; the view keeps the caller's array writeable
        values = np.ascontiguousarray(self.stacked, dtype=np.float64).view()
        _require_finite(values)
        if self.initial is not None and self.initial.grid != self.grid:
            raise ValueError("initial datum lives on a different grid")
        values.setflags(write=False)
        object.__setattr__(self, "stacked", values)

    @classmethod
    def from_values(cls, grid: Grid2D, tgrid: TimeGrid, values: np.ndarray,
                    initial: ScalarField | None = None) -> "Trajectory":
        return cls(grid, tgrid, values, initial)

    def __mul__(self, a: float) -> "Trajectory":
        init = None if self.initial is None else self.initial * a
        return Trajectory(self.grid, self.tgrid, self.stacked * float(a), init)

    __rmul__ = __mul__


def _initial_hat(traj: Trajectory) -> np.ndarray | None:
    """Half spectrum of the trajectory's initial datum, if it has one."""
    return None if traj.initial is None else rfft2(traj.initial.values)


def save_trajectory(path, traj: Trajectory) -> None:
    """Concatenated KSF1 snapshots of the (checked) node arrays; an initial datum is stored at t=0."""
    with open(path, "wb") as fh:
        if traj.initial is not None:
            _write_raw_snapshot(fh, traj.grid, traj.initial.values, 0.0)
        for values, t in zip(traj.stacked, traj.tgrid.times):
            _write_raw_snapshot(fh, traj.grid, values, t)


def load_trajectory(path) -> Trajectory:
    """A trajectory dump: KSF1 snapshots at geometric positive times, after an optional t = 0 initial datum.

    Raises ValueError on a malformed file (see ``fields._read_snapshots``), a
    file with no positive-time snapshot, non-geometric times or non-finite
    values.
    """
    grid, times, values = _read_snapshots(path)
    initial = None
    if times[0] == 0.0:
        initial = ScalarField(grid, values[0])
        times, values = times[1:], values[1:]
    if not times.size:
        raise ValueError("trajectory file holds no positive-time snapshots")
    tgrid = TimeGrid(times)
    try:
        return Trajectory(grid, tgrid, values, initial)
    except TrajectoryOverflowError as exc:
        raise ValueError(f"snapshot at t={tgrid.times[exc.node_index]:.6g} holds non-finite values") from exc
