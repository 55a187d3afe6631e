"""Span tracer for the kslab benchmark.

The tracer records a span around every call into the public functions of
each kslab layer.  It works from outside the package: ``install`` replaces
each traced function under every name a kslab module binds it to, and
``uninstall`` puts the originals back.  Function-local imports inside kslab
(``from .fields import fft2``) resolve from ``kslab.fields`` at call time and
therefore see the wrapper too.

Spans are kept in memory as ``[name, start, end, parent, phase]`` lists and
written out once, at the end of the run.  A span's self time is its duration
minus the durations of its direct children; single-threaded calls nest
strictly, so children never overlap.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import Counter
from time import perf_counter

import numpy as np


def _planes(a: np.ndarray) -> int:
    return int(np.prod(a.shape[:-2], dtype=np.int64))


def _reference_steps(cfg) -> tuple[int, int]:
    """Micro-steps and segments of ``reference_solve``'s fixed-step policy."""
    tgrid = cfg.make_timegrid()
    h_cap = tgrid.min_gap / 4.0
    bounds = np.concatenate(([0.0], tgrid.times))
    steps = sum(max(1, math.ceil((b - a) / h_cap)) for a, b in zip(bounds[:-1], bounds[1:]))
    return steps, tgrid.count


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.counts: dict[str, Counter] = {}
        self.errors: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._reference_depth = 0

    # -- recording -----------------------------------------------------

    def count(self, key: str, amount: int = 1) -> None:
        self.counts.setdefault(self.phase, Counter())[key] += amount

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` so each call records a span; ``after(args, kwargs, out)`` adds counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.phase]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self.stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def run_root(self, phase: str, name: str, fn, *args, **kwargs):
        """Run ``fn`` as the root span of a phase ("setup", "op3", ...)."""
        self.phase = phase
        return self.span(name, fn)(*args, **kwargs)

    # -- per-layer hooks -----------------------------------------------

    def _fft_hook(self, kind: str, name: str):
        def after(args, kwargs, out):
            self.count(f"{kind}_planes", _planes(out))
            self.count("fft_bytes", int(np.asarray(args[0]).nbytes + out.nbytes))
            if self._reference_depth:
                self.count(f"reference_{name}")
        return after

    def _picard_hook(self, args, kwargs, out) -> None:
        self.count("picard_iterations", out.iterations)

    def _reference_enter(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before = Counter(self.counts.get(self.phase, Counter()))
            self._reference_depth += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                self._reference_depth -= 1
            now = self.counts.get(self.phase, Counter())
            r = now["reference_rfft2"] - before["reference_rfft2"]
            i = now["reference_irfft2"] - before["reference_irfft2"]
            cfg = args[2] if len(args) > 2 else kwargs["cfg"]
            expected, segments = _reference_steps(cfg)
            # per step one nonlinear term (2 r2c, 3 c2r); each segment adds a
            # predictor stage (2 r2c, 3 c2r) and two output c2r; plus 2 r2c for the data
            steps = (r - 2) // 2 - segments
            if 3 * (steps + segments) + 2 * segments != i or steps != expected:
                self.errors.append(
                    f"reference_solve transforms give {steps} micro-steps "
                    f"(r2c={r}, c2r={i}); the step formula gives {expected}"
                )
            self.count("reference_micro_steps", steps)
            return out
        return counted

    def _node_field_hook(self, fn):
        @functools.wraps(fn)
        def counted(field_self):
            self.count("scalar_fields")
            return fn(field_self)
        return counted

    # -- patching ------------------------------------------------------

    def _targets(self, kslab) -> dict:
        f, sg, du, nm, so, lab = (kslab.fields, kslab.semigroup, kslab.duhamel,
                                  kslab.norms, kslab.solver, kslab.inequality_lab)
        targets = {
            f.fft2: ("fields.fft", self._fft_hook("c2c", "fft2")),
            f.ifft2: ("fields.fft", self._fft_hook("c2c", "ifft2")),
            f.rfft2: ("fields.fft", self._fft_hook("r2c", "rfft2")),
            f.irfft2: ("fields.fft", self._fft_hook("r2c", "irfft2")),
            sg.heat_trajectory: ("semigroup.free_flow", None),
            sg.damped_heat_trajectory: ("semigroup.free_flow", None),
            du.bilinear_B: ("duhamel.bilinear_B", None),
            du.linear_L: ("duhamel.linear_L", None),
            du.maximal_reg_T: ("duhamel.maximal_reg_T", None),
            du.etd_convolve: ("duhamel.etd_convolve", None),
            nm.xy_norms_thm1: ("norms.xy_thm1", None),
            nm.xy_norms_thm2: ("norms.xy_thm2", None),
            so.picard_solve: ("solver.picard", self._picard_hook),
            so.check_theorem1_bound: ("solver.verdict", None),
            so.check_theorem2_bound: ("solver.verdict", None),
            so.relative_node_differences: ("solver.node_differences", None),
            lab.estimate_constants: ("inequality_lab.estimate_constants", None),
            lab.default_constants: ("inequality_lab.default_constants", None),
            lab.verify_bilinear_lemma23: ("inequality_lab.verify_bilinear", None),
            lab.verify_maximal_regularity: ("inequality_lab.verify_maxreg", None),
            lab.verify_multiplier_lemma: ("inequality_lab.verify_multiplier", None),
        }
        for name in ("lp_norm", "hs_norm", "hs_dot_norm", "grad_linf", "besov_norm", "grad_besov_sup"):
            targets[getattr(nm, name)] = (f"norms.{name}", None)
        return targets

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, kslab) -> None:
        """Wrap every traced function under each name a kslab module binds it to."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = self._targets(kslab)
        wrapped = {fn: self.span(name, fn, after) for fn, (name, after) in targets.items()}
        ref = kslab.solver.reference_solve
        wrapped[ref] = self.span("solver.reference", self._reference_enter(ref))
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "kslab" or key.startswith("kslab.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if callable(value) and not isinstance(value, type) and value in wrapped:
                    self._set(mod, attr, wrapped[value])
        traj = kslab.trajectories.Trajectory
        from_values = traj.__dict__["from_values"].__func__
        self._set(traj, "from_values", classmethod(self.span("trajectories.from_values", from_values)))
        cfg = kslab.solver.SolverConfig
        self._set(cfg, "resolve_c", self.span("solver.resolve_c", cfg.__dict__["resolve_c"]))
        field = kslab.fields.ScalarField
        self._set(field, "__post_init__", self._node_field_hook(field.__dict__["__post_init__"]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------

    def phase_summary(self, phase: str) -> dict:
        """Totals, self times and call counts per span name within one phase."""
        child_time: Counter = Counter()
        for name, t0, t1, parent, ph in self.spans:
            if ph == phase and parent >= 0:
                child_time[parent] += t1 - t0
        total: Counter = Counter()
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for idx, (name, t0, t1, parent, ph) in enumerate(self.spans):
            if ph != phase:
                continue
            total[name] += t1 - t0
            self_time[name] += t1 - t0 - child_time[idx]
            calls[name] += 1
        return {"total": total, "self": self_time, "calls": calls,
                "counts": self.counts.get(phase, Counter())}
