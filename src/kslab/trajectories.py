"""Discrete space-time trajectories: ordered positive times plus one field each.

A trajectory is the discrete stand-in for a function of (t, x) living on
``(0, T]``: node times are strictly positive, and an optional initial datum
carries the ``t = 0`` state when one is known (free evolutions and Picard
iterates always have one; generic integral-operator outputs start from zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fields import Grid2D, ScalarField, read_snapshot, write_snapshot

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


@dataclass(frozen=True)
class Trajectory:
    """One scalar field per time node, all on a shared spatial grid."""

    grid: Grid2D
    tgrid: TimeGrid
    fields: tuple[ScalarField, ...]
    initial: ScalarField | None = None
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        fs = tuple(self.fields)
        if len(fs) != self.tgrid.count:
            raise ValueError(
                f"{len(fs)} fields for {self.tgrid.count} time nodes"
            )
        for f in fs:
            if f.grid != self.grid:
                raise ValueError("all trajectory fields must share the grid")
        if self.initial is not None and self.initial.grid != self.grid:
            raise ValueError("initial datum lives on a different grid")
        object.__setattr__(self, "fields", fs)

    @classmethod
    def from_values(
        cls,
        grid: Grid2D,
        tgrid: TimeGrid,
        values: np.ndarray,
        initial: ScalarField | None = None,
        meta: dict | None = None,
    ) -> "Trajectory":
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (tgrid.count, grid.n, grid.n):
            raise ValueError(f"values shape {values.shape} does not match grid/time grid")
        fs = tuple(ScalarField(grid, values[j]) for j in range(tgrid.count))
        return cls(grid, tgrid, fs, initial, meta or {})

    @classmethod
    def zero(cls, grid: Grid2D, tgrid: TimeGrid) -> "Trajectory":
        z = ScalarField.zero(grid)
        return cls(grid, tgrid, (z,) * tgrid.count, z)

    @cached_property
    def stacked(self) -> np.ndarray:
        """Node values as one (K, n, n) array."""
        return np.stack([f.values for f in self.fields])

    def _combine(self, other: "Trajectory", op) -> "Trajectory":
        if self.grid != other.grid or self.tgrid != other.tgrid:
            raise ValueError("trajectories live on different grids")
        fs = tuple(op(a, b) for a, b in zip(self.fields, other.fields))
        init = None
        if self.initial is not None and other.initial is not None:
            init = op(self.initial, other.initial)
        return Trajectory(self.grid, self.tgrid, fs, init)

    def __add__(self, other: "Trajectory") -> "Trajectory":
        return self._combine(other, lambda a, b: a + b)

    def __sub__(self, other: "Trajectory") -> "Trajectory":
        return self._combine(other, lambda a, b: a - b)

    def __mul__(self, a: float) -> "Trajectory":
        fs = tuple(f * a for f in self.fields)
        init = None if self.initial is None else self.initial * a
        return Trajectory(self.grid, self.tgrid, fs, init)

    __rmul__ = __mul__


def save_trajectory(path, traj: Trajectory) -> None:
    """Concatenated KSF1 snapshots; an initial datum is stored as a t=0 snapshot."""
    with open(path, "wb") as fh:
        if traj.initial is not None:
            write_snapshot(fh, traj.initial, 0.0)
        for f, t in zip(traj.fields, traj.tgrid.times):
            write_snapshot(fh, f, t)


def load_trajectory(path) -> Trajectory:
    """Read a KSF1 snapshot sequence; the spacing law is inferred from the times."""
    snaps: list[tuple[ScalarField, float]] = []
    with open(path, "rb") as fh:
        while True:
            head = fh.read(1)
            if not head:
                break
            fh.seek(-1, 1)
            snaps.append(read_snapshot(fh))
    if not snaps:
        raise ValueError("empty trajectory file")
    initial = None
    if snaps[0][1] == 0.0:
        initial = snaps[0][0]
        snaps = snaps[1:]
    if not snaps:
        raise ValueError("trajectory file holds no positive-time snapshots")
    times = np.array([t for _, t in snaps])
    grid = snaps[0][0].grid
    tgrid = _infer_timegrid(times)
    return Trajectory(grid, tgrid, tuple(f for f, _ in snaps), initial)


def _infer_timegrid(times: np.ndarray) -> TimeGrid:
    for spacing in ("geometric", "uniform"):
        try:
            return TimeGrid(times, spacing)
        except ValueError:
            continue
    raise ValueError("snapshot times are neither geometric nor uniform")
