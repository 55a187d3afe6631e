"""The benchmark's workloads: inputs, one operation each, and its correctness gate.

Inputs come from ``numpy.random.default_rng([seed, i])`` for operation ``i``,
so a seed fixes every input of a run.  Seeds only move Gaussian centres by
whole grid cells or pick the lab's random field; the amount of work per
operation does not depend on them.  Each operation gets fresh inputs, so a
cache keyed on the data cannot turn repeated operations into free ones.

Functions are looked up on the ``kslab`` package at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, replace

import numpy as np

C_RELATIVE_TOLERANCE = 1e-12
MASS_DRIFT_GATE = 1e-8
UNIFORMITY_GATE = 0.10


@dataclass(frozen=True)
class OpResult:
    ok: bool
    reason: str
    digest: str
    oracle_max_rel_diff: float | None = None


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True, default=repr).encode())
    return h.hexdigest()


def solver_config(kslab, name: str, c: float, smoke: bool, max_iter: int | None):
    """The Picard configuration of the ``solve`` or ``compare`` workload."""
    if name == "solve":
        cfg = kslab.SolverConfig(n=128, l=32.0, t_min=1e-3, t_max=10.0, num_times=64,
                                 mode="thm1_L1Linf", tol=1e-11, c=c)
        if smoke:
            cfg = replace(cfg, n=32, num_times=12)
    else:
        cfg = kslab.SolverConfig(n=64, l=32.0, t_min=1e-2, t_max=8.0, num_times=32,
                                 mode="thm2_H1bH1", c=c)
        if smoke:
            cfg = replace(cfg, n=32, t_max=2.0, num_times=12)
    return cfg if max_iter is None else replace(cfg, max_iter=max_iter)


class Workload:
    """One workload bound to a seed: ``make_input(i)`` then ``run(inputs)``."""

    def __init__(self, kslab, name: str, seed: int, c: float, smoke: bool = False,
                 max_iter: int | None = None):
        self.kslab = kslab
        self.name = name
        self.seed = seed
        self.c = c
        if name == "lab":
            self.lab_setup = kslab.LabSetup(n=32, num_times=12) if smoke else kslab.LabSetup()
            self.cfg = None
        else:
            self.cfg = solver_config(kslab, name, c, smoke, max_iter)
            self.grid = self.cfg.make_grid()
        if name == "compare":
            self.tolerance = importlib.import_module("kslab.cli").COMPARE_TOLERANCE

    def working_set(self) -> dict:
        """Computed bytes: one complex (K, n, n) trajectory spectrum, and the oracle's state."""
        if self.cfg is None:
            n, k = self.lab_setup.n, self.lab_setup.num_times
        else:
            n, k = self.cfg.n, self.cfg.num_times
        out = {"trajectory_spectrum_bytes": 16 * k * n * n}
        if self.name == "compare":
            out["oracle_state_bytes"] = 2 * 16 * n * (n // 2 + 1)
        return out

    def make_input(self, i: int):
        rng = np.random.default_rng([self.seed, i])
        if self.name == "lab":
            return int(rng.integers(0, 2**31 - 1))
        ks = self.kslab
        # whole-cell translations keep the discrete problem, and its work, unchanged
        shift = rng.integers(-self.grid.n // 8, self.grid.n // 8 + 1, size=2) * self.grid.h
        centre = (float(shift[0]), float(shift[1]))
        if self.name == "solve":
            u0 = ks.gaussian_field(self.grid, mass=1e-3, width=0.5, center=centre)
            return u0, ks.ScalarField.zero(self.grid)
        u0 = ks.gaussian_field(self.grid, mass=0.3, width=0.5, center=centre)
        v0 = ks.gaussian_field(self.grid, mass=0.15, width=0.7, center=centre)
        return u0, v0

    def run(self, inputs) -> OpResult:
        return getattr(self, f"_run_{self.name}")(inputs)

    def _run_solve(self, inputs) -> OpResult:
        ks = self.kslab
        u0, w0 = inputs
        rep = ks.picard_solve(u0, w0, self.cfg)
        verdict = ks.check_theorem1_bound(rep)
        failures = []
        if not rep.converged:
            failures.append(f"not converged after {rep.iterations} iterations")
        if not verdict.holds:
            failures.append(f"theorem-1 bound fails (ratio {verdict.ratio})")
        if not rep.mass_drift_max < MASS_DRIFT_GATE:
            failures.append(f"mass drift {rep.mass_drift_max:.3e}")
        digest = _digest(rep.u.stacked, rep.v.stacked, rep.residuals, verdict.to_json_dict())
        return OpResult(not failures, "; ".join(failures), digest)

    def _run_compare(self, inputs) -> OpResult:
        ks = self.kslab
        u0, v0 = inputs
        w0 = (1.0 / (4.0 * self.c)) * v0
        rep = ks.picard_solve(u0, w0, self.cfg)
        u_ref, v_ref = ks.reference_solve(u0, v0, self.cfg)
        du = ks.relative_node_differences(rep.u, u_ref)
        dv = ks.relative_node_differences(rep.v, v_ref)
        verdict = ks.check_theorem2_bound(rep)
        worst = max(float(np.max(du)), float(np.max(dv)))
        failures = []
        if not rep.converged:
            failures.append(f"not converged after {rep.iterations} iterations")
        if not verdict.holds:
            failures.append("theorem-2 bound fails")
        if not worst <= self.tolerance:
            failures.append(f"oracle difference {worst:.3e} above {self.tolerance:.0e}")
        digest = _digest(rep.u.stacked, rep.v.stacked, u_ref.stacked, v_ref.stacked,
                         rep.residuals, verdict.to_json_dict())
        return OpResult(not failures, "; ".join(failures), digest, worst)

    def _run_lab(self, lab_seed) -> OpResult:
        ks = self.kslab
        reports = (
            ks.verify_bilinear_lemma23(self.lab_setup, seed=lab_seed),
            ks.verify_maximal_regularity(self.lab_setup, seed=lab_seed),
            ks.verify_multiplier_lemma(self.lab_setup, seed=lab_seed),
        )
        failures = [f"{rep.name}: non-finite ratio" for rep in reports
                    if not np.isfinite(rep.max_ratio)]
        for label, info in reports[0].metadata["uniformity"].items():
            if not info["gap"] < UNIFORMITY_GATE:
                failures.append(f"bilinear uniformity gap {info['gap']:.3f} for {label}")
        digest = _digest(*[
            [(s.family, s.params, s.lhs, s.rhs, s.ratio) for s in rep.samples] + [rep.metadata]
            for rep in reports
        ])
        return OpResult(not failures, "; ".join(failures), digest)
