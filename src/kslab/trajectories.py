"""Discrete space-time trajectories: ordered positive times plus one array of node values.

A trajectory is the discrete stand-in for a function of (t, x) living on
``(0, T]``: node times are strictly positive, and an optional initial datum
carries the ``t = 0`` state when one is known (free evolutions and Picard
iterates always have one; generic integral-operator outputs start from zero).

The node values are one read-only, C-contiguous (K, n, n) float64 array,
``stacked``.  Construction is the only validation: the shape, one finiteness
pass (``TrajectoryOverflowError`` names the first bad node) and the initial
datum's grid.  Strided input such as the real part of a complex transform is
copied, so it does not keep the complex buffer alive.  Arithmetic is one array
operation under the one compatibility rule, ``_require_compatible``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import Grid2D, ScalarField, _read_raw_snapshot, _write_raw_snapshot, rfft2

_GEOMETRIC_TOL = 1e-12


@dataclass(frozen=True)
class TimeGrid:
    """Ordered node times 0 < t_1 < ... < t_K with a declared spacing law."""

    times: np.ndarray
    spacing: str = "geometric"

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
        if self.spacing not in ("geometric", "uniform"):
            raise ValueError(f"unknown spacing {self.spacing!r}")
        steps, law = (t[1:] / t[:-1], "ratio") if self.spacing == "geometric" else (np.diff(t), "gap")
        if np.max(np.abs(steps - steps[0])) > _GEOMETRIC_TOL * steps[0]:
            raise ValueError(f"{self.spacing} spacing requires a constant node {law}")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)

    @classmethod
    def geometric(cls, t_min: float, t_max: float, count: int) -> "TimeGrid":
        if not 0 < t_min < t_max:
            raise ValueError("need 0 < t_min < t_max")
        return cls(np.geomspace(t_min, t_max, count), "geometric")

    @classmethod
    def uniform(cls, t_min: float, t_max: float, count: int) -> "TimeGrid":
        if not 0 < t_min < t_max:
            raise ValueError("need 0 < t_min < t_max")
        return cls(np.linspace(t_min, t_max, count), "uniform")

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
            and self.spacing == other.spacing
            and self.times.shape == other.times.shape
            and bool(np.all(self.times == other.times))
        )

    def __hash__(self):  # consistent with __eq__ for frozen use
        return hash((self.spacing, self.times.tobytes()))


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
    meta: dict = field(default_factory=dict)

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
                    initial: ScalarField | None = None, meta: dict | None = None) -> "Trajectory":
        return cls(grid, tgrid, values, initial, meta or {})

    @classmethod
    def zero(cls, grid: Grid2D, tgrid: TimeGrid) -> "Trajectory":
        return cls(grid, tgrid, np.zeros((tgrid.count, grid.n, grid.n)), ScalarField.zero(grid))

    def _combine(self, other: "Trajectory", op) -> "Trajectory":
        _require_compatible(self, other)
        init = None
        if self.initial is not None and other.initial is not None:
            init = op(self.initial, other.initial)
        return Trajectory(self.grid, self.tgrid, op(self.stacked, other.stacked), init)

    def __add__(self, other: "Trajectory") -> "Trajectory":
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other: "Trajectory") -> "Trajectory":
        return self._combine(other, lambda a, b: a - b)

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
    """Read a KSF1 snapshot sequence; the spacing law is inferred from the times.

    Raises ValueError on a malformed or empty file, mixed grids or non-finite values.
    """
    rows: list[tuple[int, float, float, np.ndarray]] = []
    with open(path, "rb") as fh:
        while fh.read(1):
            fh.seek(-1, 1)
            rows.append(_read_raw_snapshot(fh))
    if not rows:
        raise ValueError("empty trajectory file")
    if any(row[:2] != rows[0][:2] for row in rows):
        raise ValueError("trajectory file mixes snapshots on different grids")
    grid = Grid2D(*rows[0][:2])
    initial = None
    if rows[0][2] == 0.0:
        initial = ScalarField(grid, rows.pop(0)[3].copy())
    if not rows:
        raise ValueError("trajectory file holds no positive-time snapshots")
    tgrid = _infer_timegrid(np.array([row[2] for row in rows]))
    try:
        return Trajectory(grid, tgrid, np.stack([row[3] for row in rows]), initial)
    except TrajectoryOverflowError as exc:
        raise ValueError(f"snapshot at t={tgrid.times[exc.node_index]:.6g} holds non-finite values") from exc


def _infer_timegrid(times: np.ndarray) -> TimeGrid:
    for spacing in ("geometric", "uniform"):
        try:
            return TimeGrid(times, spacing)
        except ValueError:
            continue
    raise ValueError("snapshot times are neither geometric nor uniform")
