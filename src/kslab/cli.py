"""Batch driver: config parsing, initial data, experiment orchestration.

Config files are flat ``key = value`` text (``#`` comments allowed); every
key must be known and every value must parse at its declared type.  Only
this module writes JSON and CSV: ``_write_json`` (sorted keys, indent 2,
trailing newline) and ``_write_csv`` (RFC-4180 rows, repr'd floats) take the
reports' data (``to_json_dict()``, ``samples``, ``entries``).  No output has a
timestamp, so identical configs give bit-identical files.

The ``grid.*``/``time.*`` keys are one ``Window`` (``make_window``): the
solver config and the lab set-up are built from it.  ``picard.c = auto``
(the default) takes the pinned ``inequality_lab.AUTO_C``, the lab's c on
``LabSetup()`` (``default_constants().c``): ``solve``, ``compare`` and
``norms`` run no lab.  A test recomputes the pin, and every ``verify`` does:
it reuses its own constants run when its lab set-up is ``LabSetup()`` and
runs ``default_constants()`` otherwise, and fails when that ``c`` differs
from the pin.  ``verify_summary.json`` names the pin and its set-up under
``auto_c``, beside the lab's constants on the configured window.

``norms.csv`` (from ``solve``) holds the node series of the solver's final
norm reports, the v columns as 4c times w's.

Exit codes: 0 success, 1 scientific failure (non-convergence, failed bound,
failed verification), 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, fields as dataclass_fields, replace
from pathlib import Path

import numpy as np

from . import norms as _norms
from .data import cosine_mode_field, gaussian_field, smoothed_stripe_field
from .fields import Grid2D, ScalarField, load_field, worker_count
from .inequality_lab import (
    AUTO_C,
    LabSetup,
    besov_equivalence_samples,
    counterexample_sweep,
    default_constants,
    estimate_constants,
    refinement_drift,
    verify_bilinear_lemma23,
    verify_l4_interpolation,
    verify_maximal_regularity,
    verify_multiplier_lemma,
)
from .semigroup import (
    ResolutionError,
    grad_heat_kernel_norms,
    grad_kernel_l1_exact,
    heat_kernel_norms,
    kernel_norm_exact,
)
from .solver import (
    PicardBlowupError,
    ReferenceStepError,
    SolverConfig,
    check_theorem1_bound,
    check_theorem2_bound,
    picard_solve,
    reference_solve,
    relative_node_differences,
)
from .trajectories import Window, _require_compatible, load_trajectory, save_trajectory

COMPARE_TOLERANCE = 1e-4


class ConfigError(ValueError):
    pass


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _parse_float(s: str) -> float:
    value = float(s)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_c(s: str):
    return "auto" if s.strip().lower() == "auto" else _parse_float(s)


def _parse_wavevector(s: str) -> tuple[int, int]:
    parts = s.split(",")
    if len(parts) != 2:
        raise ConfigError(f"wavevector must be 'k1,k2', got {s!r}")
    return int(parts[0]), int(parts[1])


@dataclass(frozen=True)
class ExperimentConfig:
    grid_n: int = Window.n
    grid_l: float = Window.l
    time_t_min: float = Window.t_min
    time_t_max: float = Window.t_max
    time_k: int = Window.num_times
    picard_c: object = "auto"
    picard_max_iter: int = 50
    picard_tol: float = 1e-11
    picard_mode: str = "thm1_L1Linf"
    data_kind: str = "gaussian"
    data_mass: float = 1e-3
    data_width: float = 0.5
    data_amplitude: float = 1.0
    data_wavevector: tuple = (1, 0)
    data_v_mass: float = 0.0
    data_v_width: float = 0.5
    data_v_amplitude: float = 0.0
    data_stripe_smoothing: float = 0.01
    data_u_path: str = ""
    data_v_path: str = ""
    output_dir: str = "out"
    output_dump_fields: bool = False
    variant_remark_ii: bool = False


# Keys are "<section>.<name>" for each field "<section>_<name>", parsed by the
# field's annotation; picard.c is the one "object" field ('auto' or a number).
_PARSERS = {"int": int, "float": _parse_float, "str": str, "bool": _parse_bool,
            "tuple": _parse_wavevector, "object": _parse_c}
_CASTERS = {f.name.replace("_", ".", 1): _PARSERS[f.type] for f in dataclass_fields(ExperimentConfig)}
_KEY_TO_FIELD = {key: key.replace(".", "_") for key in _CASTERS}


def apply_setting(cfg: ExperimentConfig, key: str, raw: str) -> ExperimentConfig:
    if key not in _CASTERS:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        value = _CASTERS[key](raw)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
    return replace(cfg, **{_KEY_TO_FIELD[key]: value})


def _apply_text(cfg: ExperimentConfig, text: str) -> ExperimentConfig:
    """``cfg`` with each ``key = value`` line of ``text`` applied in order; not validated."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        cfg = apply_setting(cfg, key.strip(), raw.strip())
    return cfg


def _solver_error(cfg: ExperimentConfig) -> ValueError | None:
    """The error that building the solver config, grid and time grid raises, if any."""
    try:
        make_solver_config(cfg).grids()
    except ValueError as exc:
        return exc
    return None


def _rejected_solver_keys(cfg: ExperimentConfig) -> list[str]:
    """The solver keys (grid, time, picard, variant) whose value alone, over the defaults, is rejected.

    When only a combination is rejected (time.t_min above time.t_max), every
    solver key that differs from its default.
    """
    base = ExperimentConfig()
    setting = {key: {_KEY_TO_FIELD[key]: getattr(cfg, _KEY_TO_FIELD[key])} for key in _CASTERS
               if key.partition(".")[0] in ("grid", "time", "picard", "variant")}
    changed = [key for key, kw in setting.items() if replace(base, **kw) != base]
    return [key for key in changed if _solver_error(replace(base, **setting[key]))] or changed


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Grid, time and picard keys are checked by building the solver objects; errors name the key."""
    exc = _solver_error(cfg)
    if exc is not None:
        raise ConfigError(f"{', '.join(_rejected_solver_keys(cfg))}: {exc}") from exc
    if cfg.data_kind not in ("gaussian", "mode", "stripe", "file"):
        raise ConfigError(f"unknown data.kind {cfg.data_kind!r}")
    if cfg.data_kind in ("gaussian", "stripe") and not cfg.data_width > 0:
        raise ConfigError("data.width must be positive")
    if cfg.data_kind == "gaussian" and cfg.data_v_mass != 0 and not cfg.data_v_width > 0:
        raise ConfigError("data.v_width must be positive")
    if cfg.data_kind == "stripe" and not cfg.data_stripe_smoothing > 0:
        raise ConfigError("data.stripe_smoothing must be positive")
    if cfg.data_kind == "file" and (not cfg.data_u_path or not cfg.data_v_path):
        raise ConfigError("data.kind=file needs data.u_path and data.v_path")
    if cfg.data_kind == "mode" and max(map(abs, cfg.data_wavevector)) > cfg.grid_n // 2:
        raise ConfigError(f"data.wavevector {cfg.data_wavevector} aliases on grid.n={cfg.grid_n}: need |k_i| <= n/2")
    return cfg


def load_config(path: str | None, overrides) -> ExperimentConfig:
    """The file's settings, then each override; the result is validated once."""
    cfg = ExperimentConfig()
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        cfg = _apply_text(cfg, text)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, _, raw = item.partition("=")
        cfg = apply_setting(cfg, key.strip(), raw.strip())
    return validate_config(cfg)


def make_window(cfg: ExperimentConfig) -> Window:
    """The grid.* and time.* keys: the n x n grid of side l, and time.k geometric nodes in [t_min, t_max]."""
    return Window(cfg.grid_n, cfg.grid_l, cfg.time_t_min, cfg.time_t_max, cfg.time_k)


def make_solver_config(cfg: ExperimentConfig) -> SolverConfig:
    return SolverConfig(**asdict(make_window(cfg)), c=None if cfg.picard_c == "auto" else float(cfg.picard_c),
                        max_iter=cfg.picard_max_iter, tol=cfg.picard_tol, mode=cfg.picard_mode,
                        remark_ii=cfg.variant_remark_ii)


# the set-up default_constants() runs, whose c is the pin AUTO_C
_PIN_SETUP = LabSetup()


def initial_data(cfg: ExperimentConfig, grid: Grid2D) -> tuple[ScalarField, ScalarField, dict]:
    """(u0, v0) on ``grid`` and their report entry.

    A data.kind=file path names a field file (``save_field``): one KSF1 snapshot
    at t = 0 on the configured grid; anything else is a ConfigError naming the key.
    """
    kind = cfg.data_kind
    if kind == "gaussian":
        u0 = gaussian_field(grid, cfg.data_mass, cfg.data_width)
        v0 = (
            gaussian_field(grid, cfg.data_v_mass, cfg.data_v_width)
            if cfg.data_v_mass != 0
            else ScalarField.zero(grid)
        )
        desc = {"kind": kind, "mass": cfg.data_mass, "width": cfg.data_width,
                "v_mass": cfg.data_v_mass, "v_width": cfg.data_v_width}
    elif kind == "mode":
        kvec = tuple(cfg.data_wavevector)
        u0 = cosine_mode_field(grid, kvec, cfg.data_amplitude)
        v0 = (
            cosine_mode_field(grid, kvec, cfg.data_v_amplitude)
            if cfg.data_v_amplitude != 0
            else ScalarField.zero(grid)
        )
        desc = {"kind": kind, "amplitude": cfg.data_amplitude,
                "wavevector": list(kvec), "v_amplitude": cfg.data_v_amplitude}
    elif kind == "stripe":
        u0 = gaussian_field(grid, cfg.data_mass, cfg.data_width)
        v0 = smoothed_stripe_field(grid, cfg.data_stripe_smoothing, cfg.data_amplitude)
        desc = {"kind": kind, "mass": cfg.data_mass, "width": cfg.data_width,
                "amplitude": cfg.data_amplitude,
                "stripe_smoothing": cfg.data_stripe_smoothing}
    else:  # file
        u0 = _load(load_field, cfg.data_u_path, "data.u_path")
        v0 = _load(load_field, cfg.data_v_path, "data.v_path")
        for key, path, f in (("data.u_path", cfg.data_u_path, u0), ("data.v_path", cfg.data_v_path, v0)):
            if f.grid != grid:
                raise ConfigError(f"{key} {path} holds a field on the grid (n, l) = ({f.grid.n}, {f.grid.l!r}), "
                                  f"not on the configured grid ({grid.n}, {grid.l!r})")
        desc = {"kind": kind, "u_path": cfg.data_u_path, "v_path": cfg.data_v_path}
    return u0, v0, desc


def _load(load, path, what: str):
    """``load(path)``, with an unreadable or malformed file reported as a ConfigError naming ``what``."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(x) if isinstance(x, float) else x for x in row])


def _write_samples(path: Path, samples) -> None:
    """Ratio samples (an inequality report's or the constants'), their params as JSON."""
    _write_csv(path, ["family", "params", "lhs", "rhs", "ratio"],
               ([s.family, json.dumps(s.params), s.lhs, s.rhs, s.ratio] for s in samples))


def _diffusion_warning(cfg: ExperimentConfig) -> str | None:
    if np.sqrt(4.0 * cfg.time_t_max) > cfg.grid_l / 4.0:
        return (
            f"warning: diffusion length sqrt(4T)={np.sqrt(4 * cfg.time_t_max):.3g} exceeds l/4="
            f"{cfg.grid_l / 4.0:.3g}; the periodic box no longer mimics the plane"
        )
    return None


def _norm_csv_rows(report) -> list[list]:
    """The norms.csv rows, read from the final reports' node series (v = 4c w)."""
    r1, r2 = report.norms_thm1, report.norms_thm2
    to_v = 4.0 * report.c
    columns = (report.u.tgrid.times, r1["u_sup_l1"].nodes, r1["u_sup_t_linf"].nodes, to_v * r1["y_norm"].nodes,
               to_v * r2["w_sigma_grad_linf"].nodes, r2["u_sup_h1"].nodes, to_v * r2["w_sup_h1"].nodes)
    return [[float(x) for x in row] for row in zip(*columns)]


def _solver_setup(cfg: ExperimentConfig):
    """``solve``'s and ``compare``'s solver config, u0, v0, w0 = v0/(4c), data entry and printed diffusion warning."""
    warning = _diffusion_warning(cfg)
    if warning:
        print(warning, file=sys.stderr)
    scfg = make_solver_config(cfg)
    u0, v0, desc = initial_data(cfg, scfg.make_grid())
    w0 = (1.0 / (4.0 * scfg.resolve_c())) * v0
    return scfg, u0, v0, w0, desc, warning


def run_solve(cfg: ExperimentConfig, out_dir: Path) -> int:
    scfg, u0, _, w0, desc, warning = _solver_setup(cfg)
    try:
        report = picard_solve(u0, w0, scfg)
    except PicardBlowupError as exc:
        _write_json(out_dir / "solution_report.json", {
            "converged": False, "blowup": str(exc), "data": desc,
        })
        print(f"solve failed: {exc}", file=sys.stderr)
        return 1

    if cfg.picard_mode == "thm1_L1Linf":
        verdict = check_theorem1_bound(report)
    else:
        verdict = check_theorem2_bound(report)
    payload = report.to_json_dict()
    payload["data"] = desc
    payload["verdict"] = verdict.to_json_dict()
    if warning:
        payload["warnings"] = [warning]
    _write_json(out_dir / "solution_report.json", payload)
    _write_csv(
        out_dir / "norms.csv",
        ["t", "u_l1", "t_u_linf", "sqrt_t_grad_v_linf", "sigma_grad_v_linf", "u_h1", "v_h1"],
        _norm_csv_rows(report),
    )
    if cfg.output_dump_fields:
        save_trajectory(out_dir / "fields_u.ksf1", report.u)
        save_trajectory(out_dir / "fields_v.ksf1", report.v)

    ok = report.converged and verdict.holds
    if not report.converged:
        print("solve did not converge within max_iter", file=sys.stderr)
    elif not verdict.holds:
        print("theorem bound verdict failed", file=sys.stderr)
    return 0 if ok else 1


def run_verify(cfg: ExperimentConfig, out_dir: Path) -> int:
    failures: list[str] = []
    setup = LabSetup(**asdict(make_window(cfg)))

    # Heat-kernel norm tables on a dedicated fine grid.
    kernel_grid = Grid2D(128, 16.0)
    kernel_ts = (0.1, 0.5, 1.0)
    try:
        table = heat_kernel_norms((1.0, 2.0, np.inf), kernel_ts, kernel_grid)
        gtable = grad_heat_kernel_norms((1.0,), kernel_ts, kernel_grid)
    except ResolutionError as exc:
        failures.append(f"kernel norms unresolved: {exc}")
        table = gtable = None
    if table is not None:
        if not table.all_within_bounds():
            failures.append("heat-kernel norm exceeded its bound")
        for e in table.entries:
            exact = kernel_norm_exact(e.p, e.t)
            if abs(e.value - exact) > 0.01 * exact:
                failures.append(f"kernel norm p={e.p} t={e.t} off by more than 1%")
        if not gtable.all_within_bounds():
            failures.append("gradient-kernel norm exceeded its bound")
        for e in gtable.entries:
            exact = grad_kernel_l1_exact(e.t)
            if abs(e.value - exact) > 0.01 * exact:
                failures.append(f"gradient kernel norm t={e.t} off by more than 1%")
        for name, tab in (("kernel_norms", table), ("grad_kernel_norms", gtable)):
            _write_csv(out_dir / f"{name}.csv", ["p", "t", "value", "bound", "ratio"],
                       [[e.p, e.t, e.value, e.bound, e.ratio] for e in tab.entries])

    reports = {}
    drifts = {}
    for name, verifier in (
        ("multiplier", verify_multiplier_lemma),
        ("bilinear", verify_bilinear_lemma23),
        ("maxreg", verify_maximal_regularity),
    ):
        drift = refinement_drift(verifier, setup)
        drifts[name] = drift
        rep = reports[name] = drift["base_report"]
        _write_samples(out_dir / f"inequality_{name}.csv", rep.samples)
        if not np.isfinite(rep.max_ratio):
            failures.append(f"{name}: non-finite ratio")
        if drift["max_drift"] >= 0.10:
            worst = max(drift["per_group"], key=drift["per_group"].get)
            failures.append(f"{name}: ratio drift {drift['max_drift']:.3f} >= 10% ({worst})")

    for label, info in reports["bilinear"].metadata["uniformity"].items():
        if info["gap"] >= 0.10:
            failures.append(f"bilinear uniformity gap {info['gap']:.3f} >= 10% for {label}")

    # measured-only reports: ratios are recorded, only finiteness is asserted
    for name, rep in (
        ("l4_interpolation", verify_l4_interpolation(setup)),
        ("besov_equivalence", besov_equivalence_samples(setup)),
    ):
        reports[name] = rep
        _write_samples(out_dir / f"inequality_{name}.csv", rep.samples)
        if not np.isfinite(rep.max_ratio):
            failures.append(f"{name}: non-finite ratio")

    constants = estimate_constants(setup)
    _write_json(out_dir / "constants_report.json", constants.to_json_dict())
    _write_samples(out_dir / "constants_samples.csv", constants.samples)
    if cfg.picard_c != "auto" and float(cfg.picard_c) < constants.observed_max:
        failures.append(
            f"configured picard.c={cfg.picard_c} is below the observed constant "
            f"{constants.observed_max:.4g}; the threshold 3/(32c^2) would be inconsistent"
        )
    pinned_c = (constants if setup == _PIN_SETUP else default_constants()).c
    if pinned_c != AUTO_C:
        failures.append(f"the lab's c={pinned_c!r} on {_PIN_SETUP} differs from the pinned c=auto "
                        f"value AUTO_C={AUTO_C!r}; re-pin AUTO_C")

    sweep = counterexample_sweep()
    print(f"stripe lower constant c0 = {sweep.c0:.6f}; sweep verdict: "
          f"{'holds' if sweep.all_hold else 'violated'}")
    if not sweep.all_hold:
        failures.append("counterexample sweep did not hold")
    if sweep.max_rel_gap >= 0.01:
        failures.append(f"counterexample grid/closed-form gap {sweep.max_rel_gap:.4f} >= 1%")

    summary = {
        "failures": failures,
        "inequalities": {name: rep.to_json_dict() for name, rep in reports.items()},
        "drift": {name: {"max_drift": d["max_drift"], "per_group": d["per_group"]}
                  for name, d in drifts.items()},
        "constants": constants.to_json_dict(),
        # c = auto is the pin, taken on its own window; "constants" holds the lab's c on the configured one
        "auto_c": {"value": AUTO_C, "lab_setup": asdict(_PIN_SETUP)},
        "counterexample": sweep.to_json_dict(),
    }
    _write_json(out_dir / "verify_summary.json", summary)
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 0 if not failures else 1


def run_compare(cfg: ExperimentConfig, out_dir: Path) -> int:
    scfg, u0, v0, w0, _, _ = _solver_setup(cfg)
    try:
        report = picard_solve(u0, w0, scfg)
        u_ref, v_ref = reference_solve(u0, v0, scfg)
    except (PicardBlowupError, ReferenceStepError) as exc:
        _write_json(out_dir / "compare_summary.json", {"error": str(exc)})
        print(f"compare failed: {exc}", file=sys.stderr)
        return 1

    du = relative_node_differences(report.u, u_ref)
    dv = relative_node_differences(report.v, v_ref)
    rows = [[float(t), float(a), float(b)] for t, a, b in zip(report.u.tgrid.times, du, dv)]
    _write_csv(out_dir / "compare.csv", ["t", "u_rel_diff", "v_rel_diff"], rows)
    worst = max(float(np.max(du)), float(np.max(dv)))
    _write_json(out_dir / "compare_summary.json", {
        "max_rel_diff": worst,
        "tolerance": COMPARE_TOLERANCE,
        "picard_converged": report.converged,
    })
    if not report.converged:
        print("compare: fixed-point iteration did not converge", file=sys.stderr)
        return 1
    if worst > COMPARE_TOLERANCE:
        print(
            f"compare: max relative difference {worst:.3e} exceeds {COMPARE_TOLERANCE:.0e}; "
            "refine the time grid (raise time.k)",
            file=sys.stderr,
        )
        return 1
    return 0


def run_counterexample(cfg: ExperimentConfig, out_dir: Path) -> int:
    sweep = counterexample_sweep()
    print(f"stripe lower constant c0 = {sweep.c0:.6f}")
    print(f"sweep over {sweep.point_count} points: "
          f"{'holds' if sweep.all_hold else 'violated'}")
    _write_json(out_dir / "counterexample.json", sweep.to_json_dict())
    rows = [[res.t, float(x), float(closed), float(value), res.verdict]
            for res in sweep.results for x, closed, value in zip(res.x1, res.closed_form, res.grid_values)]
    _write_csv(out_dir / "counterexample.csv",
               ["t", "x1", "closed_form", "grid_value", "verdict"], rows)
    return 0 if sweep.all_hold else 1


def run_constants(cfg: ExperimentConfig, out_dir: Path) -> int:
    constants = estimate_constants(LabSetup(**asdict(make_window(cfg))))
    _write_json(out_dir / "constants_report.json", constants.to_json_dict())
    _write_samples(out_dir / "constants_samples.csv", constants.samples)
    print(f"c1={constants.c1:.4g} c2={constants.c2:.4g} c3={constants.c3:.4g} "
          f"c={constants.c:.4g} threshold={constants.threshold:.4g}")
    return 0


def run_norms(cfg: ExperimentConfig, out_dir: Path) -> int:
    u_path = out_dir / "fields_u.ksf1"
    v_path = out_dir / "fields_v.ksf1"
    if not u_path.exists() or not v_path.exists():
        raise ConfigError(f"no trajectory dumps found under {out_dir}")
    u, v = (_load(load_trajectory, path, "trajectory dump") for path in (u_path, v_path))
    try:
        _require_compatible(u, v)
    except ValueError as exc:
        raise ConfigError(f"{u_path} and {v_path} do not match: {exc}") from exc
    c = make_solver_config(cfg).resolve_c()
    w = (1.0 / (4.0 * c)) * v
    _write_json(out_dir / "norms_thm1.json", _norms.xy_norms_thm1(u, w).to_json_dict())
    _write_json(out_dir / "norms_thm2.json",
                _norms.xy_norms_thm2(u, w, damped=not cfg.variant_remark_ii).to_json_dict())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kslab",
        description="Spectral mild-solution laboratory for the 2D chemotaxis system",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "run the fixed-point solver and theorem-bound checks"),
        ("verify", "run the inequality suite and constant estimation"),
        ("compare", "cross-check the fixed point against the time stepper"),
        ("counterexample", "evaluate the stripe-data lower-bound sweep"),
        ("constants", "estimate the empirical constants only"),
        ("norms", "recompute norm reports from dumped trajectories"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="path to a key = value config file")
        p.add_argument("--override", action="append", default=[],
                       help="override a config key, e.g. --override grid.n=128")
        p.add_argument("--out", default=None, help="output directory (default: output.dir)")

    args = parser.parse_args(argv)
    try:
        try:
            worker_count()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        cfg = load_config(args.config, args.override)
        out_dir = Path(args.out) if args.out is not None else Path(cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        runner = {
            "solve": run_solve,
            "verify": run_verify,
            "compare": run_compare,
            "counterexample": run_counterexample,
            "constants": run_constants,
            "norms": run_norms,
        }[args.command]
        return runner(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
