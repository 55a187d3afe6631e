"""Batch driver: config parsing, initial data, experiment orchestration.

Config files are flat ``key = value`` text (``#`` comments allowed); every
key must be known and every value must parse at its declared type.  All
outputs are deterministic: JSON with sorted keys, RFC-4180 CSV with repr'd
floats, and no timestamps, so identical configs give bit-identical files.

``norms.csv`` (from ``solve``) holds the node series of the solver's final
norm reports, the v columns as 4c times w's.

Exit codes: 0 success, 1 scientific failure (non-convergence, failed bound,
failed verification), 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path

import numpy as np

from . import norms as _norms
from .data import cosine_mode_field, gaussian_field, smoothed_stripe_field
from .duhamel import QuadratureScheme
from .fields import Grid2D, ScalarField, load_field
from .inequality_lab import (
    LabSetup,
    besov_equivalence_samples,
    counterexample_sweep,
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
from .trajectories import _require_compatible, load_trajectory, save_trajectory

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


def _parse_c(s: str):
    if s.strip().lower() == "auto":
        return "auto"
    try:
        value = float(s)
    except ValueError as exc:
        raise ConfigError(f"picard.c must be 'auto' or a number, got {s!r}") from exc
    if not value > 0:
        raise ConfigError("picard.c must be positive")
    return value


def _parse_wavevector(s: str) -> tuple[int, int]:
    parts = s.split(",")
    if len(parts) != 2:
        raise ConfigError(f"wavevector must be 'k1,k2', got {s!r}")
    return int(parts[0]), int(parts[1])


def _serialize(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class ExperimentConfig:
    grid_n: int = 64
    grid_l: float = 32.0
    time_t_min: float = 1e-3
    time_t_max: float = 10.0
    time_k: int = 64
    time_spacing: str = "geometric"
    picard_c: object = "auto"
    picard_max_iter: int = 50
    picard_tol: float = 1e-11
    picard_mode: str = "thm1_L1Linf"
    picard_quadrature: str = "etd_piecewise_linear"
    picard_substeps: int = 1
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
_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool,
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


def parse_config_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    cfg = base or ExperimentConfig()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        cfg = apply_setting(cfg, key.strip(), raw.strip())
    return validate_config(cfg)


def serialize_config(cfg: ExperimentConfig) -> str:
    lines = []
    for key in sorted(_CASTERS):
        lines.append(f"{key} = {_serialize(getattr(cfg, _KEY_TO_FIELD[key]))}")
    return "\n".join(lines) + "\n"


def validate_config(cfg: ExperimentConfig) -> ExperimentConfig:
    """Grid, time and picard keys are checked by building the solver objects."""
    try:
        scfg = make_solver_config(cfg)
        scfg.make_grid()
        scfg.make_timegrid()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
    return cfg


def load_config(path: str | None, overrides) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        cfg = parse_config_text(text, cfg)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, _, raw = item.partition("=")
        cfg = apply_setting(cfg, key.strip(), raw.strip())
    return validate_config(cfg)


def make_solver_config(cfg: ExperimentConfig) -> SolverConfig:
    return SolverConfig(
        n=cfg.grid_n,
        l=cfg.grid_l,
        t_min=cfg.time_t_min,
        t_max=cfg.time_t_max,
        num_times=cfg.time_k,
        spacing=cfg.time_spacing,
        c=None if cfg.picard_c == "auto" else float(cfg.picard_c),
        max_iter=cfg.picard_max_iter,
        tol=cfg.picard_tol,
        mode=cfg.picard_mode,
        quadrature=QuadratureScheme(cfg.picard_quadrature, cfg.picard_substeps),
        remark_ii=cfg.variant_remark_ii,
    )


def lab_setup(cfg: ExperimentConfig) -> LabSetup:
    """The lab's grid and time window; the lab runs on geometric times only."""
    if cfg.time_spacing != "geometric":
        raise ConfigError(f"time.spacing = {cfg.time_spacing} is not supported by the lab, which "
                          "runs on geometric time grids")
    return LabSetup(cfg.grid_n, cfg.grid_l, cfg.time_t_min, cfg.time_t_max, cfg.time_k)


def initial_data(cfg: ExperimentConfig, grid: Grid2D) -> tuple[ScalarField, ScalarField, dict]:
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
        u0, _ = load_field(cfg.data_u_path)
        v0, _ = load_field(cfg.data_v_path)
        if u0.grid != grid or v0.grid != grid:
            raise ConfigError("field files do not match the configured grid")
        desc = {"kind": kind, "u_path": cfg.data_u_path, "v_path": cfg.data_v_path}
    return u0, v0, desc


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


def run_solve(cfg: ExperimentConfig, out_dir: Path) -> int:
    warning = _diffusion_warning(cfg)
    if warning:
        print(warning, file=sys.stderr)
    scfg = make_solver_config(cfg)
    grid = scfg.make_grid()
    u0, v0, desc = initial_data(cfg, grid)
    c = scfg.resolve_c()
    w0 = (1.0 / (4.0 * c)) * v0

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
    setup = lab_setup(cfg)

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
        table.to_csv(out_dir / "kernel_norms.csv")
        gtable.to_csv(out_dir / "grad_kernel_norms.csv")

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
        rep.to_csv(out_dir / f"inequality_{name}.csv")
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
        rep.to_csv(out_dir / f"inequality_{name}.csv")
        if not np.isfinite(rep.max_ratio):
            failures.append(f"{name}: non-finite ratio")

    constants = estimate_constants(setup)
    constants.to_json(out_dir / "constants_report.json")
    constants.to_csv(out_dir / "constants_samples.csv")
    if cfg.picard_c != "auto" and float(cfg.picard_c) < constants.observed_max:
        failures.append(
            f"configured picard.c={cfg.picard_c} is below the observed constant "
            f"{constants.observed_max:.4g}; the threshold 3/(32c^2) would be inconsistent"
        )

    sweep = counterexample_sweep()
    print(f"stripe lower constant c0 = {sweep.c0:.6f}; sweep verdict: "
          f"{'holds' if sweep.all_hold else 'violated'}")
    if not sweep.all_hold:
        failures.append("counterexample sweep did not hold")
    if sweep.max_rel_gap is not None and sweep.max_rel_gap >= 0.01:
        failures.append(f"counterexample grid/closed-form gap {sweep.max_rel_gap:.4f} >= 1%")

    summary = {
        "failures": failures,
        "inequalities": {name: rep.to_json_dict() for name, rep in reports.items()},
        "drift": {name: {"max_drift": d["max_drift"], "per_group": d["per_group"]}
                  for name, d in drifts.items()},
        "constants": constants.to_json_dict(),
        "counterexample": sweep.to_json_dict(),
    }
    _write_json(out_dir / "verify_summary.json", summary)
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 0 if not failures else 1


def run_compare(cfg: ExperimentConfig, out_dir: Path) -> int:
    scfg = make_solver_config(cfg)
    grid = scfg.make_grid()
    u0, v0, _ = initial_data(cfg, grid)
    c = scfg.resolve_c()
    w0 = (1.0 / (4.0 * c)) * v0
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
            "refine the time grid (raise time.k) or the quadrature (raise picard.substeps)",
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
    rows = []
    for res in sweep.results:
        for i in range(res.x1.size):
            rows.append([
                res.t, float(res.x1[i]), float(res.closed_form[i]),
                float(res.grid_values[i]) if res.grid_values is not None else "",
                res.verdict,
            ])
    _write_csv(out_dir / "counterexample.csv",
               ["t", "x1", "closed_form", "grid_value", "verdict"], rows)
    return 0 if sweep.all_hold else 1


def run_constants(cfg: ExperimentConfig, out_dir: Path) -> int:
    setup = lab_setup(cfg)
    constants = estimate_constants(setup)
    constants.to_json(out_dir / "constants_report.json")
    constants.to_csv(out_dir / "constants_samples.csv")
    print(f"c1={constants.c1:.4g} c2={constants.c2:.4g} c3={constants.c3:.4g} "
          f"c={constants.c:.4g} threshold={constants.threshold:.4g}")
    return 0


def _load_dump(path: Path):
    try:
        return load_trajectory(path)
    except ValueError as exc:
        raise ConfigError(f"cannot read trajectory dump {path}: {exc}") from exc


def run_norms(cfg: ExperimentConfig, out_dir: Path) -> int:
    u_path = out_dir / "fields_u.ksf1"
    v_path = out_dir / "fields_v.ksf1"
    if not u_path.exists() or not v_path.exists():
        raise ConfigError(f"no trajectory dumps found under {out_dir}")
    u, v = _load_dump(u_path), _load_dump(v_path)
    try:
        _require_compatible(u, v)
    except ValueError as exc:
        raise ConfigError(f"{u_path} and {v_path} do not match: {exc}") from exc
    c = make_solver_config(cfg).resolve_c()
    w = (1.0 / (4.0 * c)) * v
    _norms.xy_norms_thm1(u, w).to_json(out_dir / "norms_thm1.json")
    _norms.xy_norms_thm2(u, w).to_json(out_dir / "norms_thm2.json")
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
