"""Command-line pipeline: synth, sample, fit, evaluate, scan.

Every value has a built-in default, may be set in a ``key = value`` config
file (``#`` starts a comment), and may be overridden by a flag; flags win
over the file, the file wins over defaults. All files the commands write can
be read back by the other commands.

Exit codes: 0 success, 1 invalid values, 2 capacity guard, 3 input/output or
format problems, 4 degenerate fit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .density import diagnose, mpo_to_dense, normalize_tt, tt_to_mpo
from .errors import CapacityError, DataFormatError, DegenerateFitError, TomoError, ValidationError
from .fitting import FitConfig, fit, map_jobs
from .metrics import classical_fidelity, quantum_fidelity
from .networks import TTDistribution
from .povm import tetrahedral_povm
from .sampling import SampleSet, load_samples, sample_dataset, save_samples
from .states import (
    XxzParams,
    check_mpo_tol,
    check_outcome_sites,
    density_to_mpo,
    exact_outcome_distribution,
    synth_target,
)
from .storage import fail, load_array, load_tensor, read_lines, read_text, save_tensor, write_lines

_MANIFEST_MAGIC = "ttsnapshot 1"
# Config fields that define the target; the manifest records them and its
# parameter hash covers them.
_TARGET_FIELDS = ("L", "J", "gamma", "h", "p", "mpo_tol")
# Spacing between the base seeds of successive scan grid points; larger than
# any realistic trial count so per-trial seeds never collide across points.
_POINT_SEED_STRIDE = 10007
# Largest |tr rho_hat - 1| that is scored. A unit-mass train inverts to trace 1
# up to rounding; a larger deviation means cancellation between huge signed
# entries has ruined the reconstruction.
_TRACE_TOL = 1e-8


@dataclass(frozen=True)
class ExperimentConfig:
    """Desk-scale defaults for the full pipeline."""

    L: int = 4
    J: float = 1.0
    gamma: float = 1.0
    h: float = 1.0
    p: float = 0.6
    train: int = 1_000_000
    test: int = 1_000_000
    bond_dim: int = FitConfig.bond_dim
    trials: int = FitConfig.trials
    max_sweeps: int = FitConfig.max_sweeps
    stop_window: int = FitConfig.stop_window
    stop_rtol: float = FitConfig.stop_rtol
    eps: float = FitConfig.eps
    mpo_tol: float = 1e-14
    seed: int = 1234
    outdir: str = "runs/exp"
    jobs: int = 1
    scan_L: tuple | None = None
    scan_p: tuple | None = None
    scan_gamma: tuple | None = None
    scan_bond_dim: tuple | None = None
    scan_n: tuple | None = None
    min_n_search: bool = False
    ic_target: float = 0.01
    n_start: int = 1000
    n_max: int = 10_000_000

    def fit_config(self) -> FitConfig:
        return FitConfig(**{f.name: getattr(self, f.name) for f in fields(FitConfig)})


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValidationError(f"cannot parse boolean from '{text}'")


def _parse_list(conv):
    def parse(text):
        return tuple(conv(tok) for tok in text.replace(",", " ").split())

    return parse


# Scan axes and the config fields each one sets.
_AXIS_FIELDS = {
    "scan_L": ("L",),
    "scan_p": ("p",),
    "scan_gamma": ("gamma",),
    "scan_bond_dim": ("bond_dim",),
    "scan_n": ("train", "test"),
}

# Annotations are strings under ``from __future__ import annotations``.
_SCALAR_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool}
# One parser per config field, in field order; each scan axis parses a list
# of its base field's values.
_FIELD_PARSERS = {f.name: _SCALAR_PARSERS.get(f.type) for f in fields(ExperimentConfig)}
_FIELD_PARSERS.update(
    (axis, _parse_list(_FIELD_PARSERS[targets[0]])) for axis, targets in _AXIS_FIELDS.items()
)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def load_config_file(path) -> dict:
    """Parse ``key = value`` lines into config fields."""
    values = {}
    for lineno, raw in enumerate(read_text(path, "utf-8"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            fail(path, lineno, "expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_PARSERS:
            fail(path, lineno, f"unknown key '{key}'")
        try:
            values[key] = _FIELD_PARSERS[key](value)
        except (ValueError, ValidationError) as exc:
            fail(path, lineno, f"bad value for '{key}': {exc}")
    return values


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults, config file, and flags (flags win)."""
    merged = {}
    if args.config:
        merged.update(load_config_file(args.config))
    for name, parser in _FIELD_PARSERS.items():
        text = getattr(args, name)
        if text is None:
            continue
        try:
            merged[name] = parser(text)
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"bad value for '{_flag(name)}': {exc}")
    return ExperimentConfig(**merged)


# -- snapshot persistence ---------------------------------------------------


def _param_hash(cfg: ExperimentConfig) -> str:
    canon = ",".join(f"{name}={repr(getattr(cfg, name))}" for name in _TARGET_FIELDS)
    return hashlib.sha256(canon.encode("ascii")).hexdigest()


def _snapshot_dir(cfg: ExperimentConfig) -> Path:
    return Path(cfg.outdir) / "target"


def _read_snapshot(cfg: ExperimentConfig, snapshot) -> tuple:
    """Length, density file and checked distribution of a target snapshot.

    The distribution must match the manifest's ``dist_digest``.
    """
    snap = Path(snapshot) if snapshot else _snapshot_dir(cfg)
    path = snap / "manifest.txt"
    manifest = {}
    for lineno, line in enumerate(read_lines(path, _MANIFEST_MAGIC)[1:], start=2):
        parts = line.split(maxsplit=1)
        if len(parts) != 2:
            fail(path, lineno, "expected 'key value'")
        manifest[parts[0]] = parts[1]
    for key in ("L", "rho_file", "dist_file", "dist_digest"):
        if key not in manifest:
            raise DataFormatError(f"{path}: missing key '{key}'")
    L = manifest["L"]
    if not (L.isdecimal() and int(L) >= 1):
        raise DataFormatError(f"{path}: L must be a positive integer, got '{L}'")
    dist = load_array(snap / manifest["dist_file"])
    if hashlib.sha256(dist.tobytes()).hexdigest() != manifest["dist_digest"]:
        raise DataFormatError(f"{path}: {manifest['dist_file']} does not match dist_digest")
    return int(L), snap / manifest["rho_file"], dist


def _target(cfg: ExperimentConfig) -> tuple:
    """The target density of ``cfg`` and its exact outcome distribution."""
    params = XxzParams(L=cfg.L, J=cfg.J, gamma=cfg.gamma, h=cfg.h, p=cfg.p)
    check_outcome_sites(cfg.L)  # before the dense target, which costs minutes and GBs above it
    rho = synth_target(params)
    return rho, exact_outcome_distribution(rho, tetrahedral_povm())


def _datasets(cfg: ExperimentConfig, dist) -> tuple:
    """The train and test draws of ``cfg``'s sizes and seed."""
    train = sample_dataset(dist, cfg.train, cfg.seed, stream=0, source="train")
    test = sample_dataset(dist, cfg.test, cfg.seed, stream=1, source="test")
    return train, test


def cmd_synth(cfg: ExperimentConfig) -> int:
    """Synthesize the target state, its operator chain, and exact distribution."""
    check_mpo_tol(cfg.mpo_tol)  # before the dense target, like the outcome guard
    rho, dist = _target(cfg)
    mpo = density_to_mpo(rho, cfg.mpo_tol)
    out = _snapshot_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "rho.npy", rho)
    np.save(out / "dist.npy", dist)
    save_tensor(out / "mpo.tt", mpo)
    write_lines(
        out / "manifest.txt",
        _MANIFEST_MAGIC,
        {
            **{name: repr(getattr(cfg, name)) for name in _TARGET_FIELDS},
            "d": 2**cfg.L,
            "trace": repr(float(np.real(np.trace(rho)))),
            "bonds": " ".join(str(d) for d in mpo.bond_dims),
            "param_hash": _param_hash(cfg),
            "dist_digest": hashlib.sha256(dist.tobytes()).hexdigest(),
            "rho_file": "rho.npy",
            "mpo_file": "mpo.tt",
            "dist_file": "dist.npy",
        },
    )
    print(f"synth: wrote target snapshot to {out}")
    return 0


def cmd_sample(cfg: ExperimentConfig, snapshot) -> int:
    """Draw train and test datasets from a synthesized target."""
    _, _, dist = _read_snapshot(cfg, snapshot)
    out = Path(cfg.outdir) / "data"
    out.mkdir(parents=True, exist_ok=True)
    train, test = _datasets(cfg, dist)
    save_samples(train, out / "train.samples")
    save_samples(test, out / "test.samples")
    print(f"sample: wrote {train.total} train and {test.total} test draws to {out}")
    return 0


def _write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_fit(cfg: ExperimentConfig, data) -> int:
    """Fit trains to a training dataset and keep the best trial."""
    data_path = Path(data) if data else Path(cfg.outdir) / "data" / "train.samples"
    samples = load_samples(data_path)
    result = fit(samples, cfg.fit_config(), jobs=cfg.jobs)
    out = Path(cfg.outdir) / "fit"
    out.mkdir(parents=True, exist_ok=True)
    masses = [trial.tt.total_mass() for trial in result.trials]
    degenerate = [not (np.isfinite(mass) and mass > 0.0) for mass in masses]
    for trial in result.trials:
        trace = enumerate(zip(trial.losses, trial.wall_times))
        _write_csv(
            out / f"trial_{trial.trial:03d}_loss.csv",
            ["sweep", "loss", "wall_s"],
            ([i, repr(float(value)), repr(float(wall))] for i, (value, wall) in trace),
        )
    ranked = sorted(zip(result.trials, degenerate), key=lambda pair: pair[0].final_loss)
    _write_csv(
        out / "trials.csv",
        ["rank", "trial", "seed", "final_loss", "sweeps", "converged", "degenerate"],
        (
            [rank, t.trial, t.seed, repr(t.final_loss), t.sweeps_run, t.converged, bad]
            for rank, (t, bad) in enumerate(ranked)
        ),
    )
    best = result.best
    save_tensor(out / "best.tt", best.tt)
    print(
        f"fit: best trial {best.trial} loss {best.final_loss:.6e} "
        f"after {best.sweeps_run} sweeps -> {out / 'best.tt'}"
    )
    if degenerate[result.best_index]:
        raise DegenerateFitError(f"best trial has total mass {masses[result.best_index]}")
    return 0


def _evaluate_tt(tt: TTDistribution, rho, dist, test: SampleSet) -> dict:
    """Shared evaluation: normalize, invert, compare with the target.

    A reconstruction whose trace is off by more than ``_TRACE_TOL`` raises
    CapacityError before anything is scored.
    """
    start = time.perf_counter()
    normalized = normalize_tt(tt)
    rho_hat = mpo_to_dense(tt_to_mpo(normalized, tetrahedral_povm()))
    deviation = abs(np.trace(rho_hat) - 1.0)
    if not deviation <= _TRACE_TOL:
        raise CapacityError(
            f"the reconstruction at L={tt.length} has trace deviation {deviation:.3g} "
            f"(bound {_TRACE_TOL:g}): cancellation exceeds the float64 precision"
        )
    fq = quantum_fidelity(rho_hat, rho)
    fc = classical_fidelity(normalized, dist, test)
    return {
        "L": tt.length,
        "bond_dims": list(tt.bond_dims),
        **asdict(diagnose(rho_hat)),
        "f_q": fq.fidelity,
        "i_q": fq.infidelity,
        "clipped_mass": fq.clipped_mass,
        "f_c": fc.fidelity,
        "i_c": fc.infidelity,
        "runtime_s": time.perf_counter() - start,
    }


def _write_report(path: Path, report: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="ascii")


def cmd_evaluate(cfg: ExperimentConfig, tt, snapshot, data) -> int:
    """Score a fitted train against the target snapshot on a test dataset."""
    tt_file = Path(tt) if tt else Path(cfg.outdir) / "fit" / "best.tt"
    test_file = Path(data) if data else Path(cfg.outdir) / "data" / "test.samples"
    tt = load_tensor(tt_file)
    if not isinstance(tt, TTDistribution):
        raise ValidationError(f"{tt_file} does not hold a tensor train")
    L, rho_file, dist = _read_snapshot(cfg, snapshot)
    rho = load_array(rho_file)
    test = load_samples(test_file)
    if not tt.length == L == test.L:
        raise ValidationError(
            f"length mismatch: train has L={tt.length}, snapshot L={L}, test set L={test.L}"
        )
    report = _evaluate_tt(tt, rho, dist, test)
    out = Path(cfg.outdir) / "report.json"
    _write_report(out, report)
    shown = {k: report[k] for k in ("i_q", "i_c", "trace_deviation", "hermiticity_residual")}
    print(f"evaluate: {shown} -> {out}")
    return 0


# -- scans -------------------------------------------------------------------


def _scan_grid(cfg: ExperimentConfig) -> list:
    """The config field overrides of every grid point, checked before any point runs."""
    axes = []
    for axis, targets in _AXIS_FIELDS.items():
        values = getattr(cfg, axis)
        if values is None:
            continue
        if len(values) == 0:
            raise ValidationError(f"scan axis '{axis}' is empty")
        axes.append([dict.fromkeys(targets, value) for value in values])
    if not axes and not cfg.min_n_search:
        raise ValidationError("scan requires at least one axis (or the minimum-N search)")
    if cfg.min_n_search and not (
        np.isfinite(cfg.ic_target) and cfg.ic_target > 0.0 and 1 <= cfg.n_start <= cfg.n_max
    ):
        raise ValidationError(
            "the minimum-N search needs a finite ic_target > 0 and 1 <= n_start <= n_max, got "
            f"ic_target={cfg.ic_target}, n_start={cfg.n_start}, n_max={cfg.n_max}"
        )
    return [
        {name: value for part in combo for name, value in part.items()}
        for combo in itertools.product(*axes)
    ]


def _run_point(cfg: ExperimentConfig, index: int, overrides: dict, point_dir: Path) -> dict:
    point = replace(cfg, seed=cfg.seed + _POINT_SEED_STRIDE * (index + 1), **overrides)
    names = ("L", "J", "gamma", "h", "p", "bond_dim", "trials", "seed")
    row = {name: getattr(point, name) for name in names}
    row.update(point=index, n_train=point.train, n_test=point.test, status="ok", message="")
    start = time.perf_counter()
    try:
        rho, dist = _target(point)
        if point.min_n_search:
            report, row["min_n"] = _min_n_search(point, rho, dist)
            if row["min_n"] is None:
                row["status"] = "threshold-not-reached"
        else:
            report = _fit_and_score(point, *_datasets(point, dist), rho, dist)
        row.update(report, bond_dims="x".join(str(d) for d in report["bond_dims"]))
        _write_report(point_dir / "report.json", report)
    except TomoError as exc:
        row["status"] = "error"
        row["message"] = f"{type(exc).__name__}: {exc}"
    row["runtime_s"] = time.perf_counter() - start
    return row


def _fit_and_score(point: ExperimentConfig, train, test, rho, dist) -> dict:
    result = fit(train, point.fit_config(), jobs=1)
    report = _evaluate_tt(result.best.tt, rho, dist, test)
    report["best_loss"] = result.best.final_loss
    report["best_trial"] = result.best.trial
    report["n_train"] = train.total
    report["n_test"] = test.total
    return report


def _min_n_search(point: ExperimentConfig, rho, dist):
    """Double the sample budget until the classical infidelity meets target.

    The last budget tried is ``n_max`` itself: a doubling past it is clamped.
    Returns the last report and the budget that met the target, or None.
    """
    n = point.n_start
    attempt = 0
    while True:
        draws = replace(point, train=n, test=n, seed=point.seed + attempt)
        report = _fit_and_score(point, *_datasets(draws, dist), rho, dist)
        if report["i_c"] <= point.ic_target:
            return report, n
        if n >= point.n_max:
            return report, None
        n = min(2 * n, point.n_max)
        attempt += 1


_SCAN_COLUMNS = [
    "point", "L", "J", "gamma", "h", "p", "bond_dim", "n_train", "n_test",
    "trials", "seed", "best_loss", "f_q", "i_q", "f_c", "i_c",
    "trace_deviation", "hermiticity_residual", "min_eigenvalue",
    "clipped_mass", "bond_dims", "min_n", "status", "message", "runtime_s",
]


def cmd_scan(cfg: ExperimentConfig) -> int:
    """Run the pipeline over a parameter grid, one CSV row per point.

    Grid points run independently (in processes when ``jobs > 1``); a failing
    point is recorded with its error and does not stop the scan.
    """
    grid = _scan_grid(cfg)
    scan_dir = Path(cfg.outdir) / "scan"
    scan_dir.mkdir(parents=True, exist_ok=True)
    tasks = [
        (cfg, index, overrides, scan_dir / f"point_{index:03d}")
        for index, overrides in enumerate(grid)
    ]
    rows = map_jobs(_run_point, tasks, cfg.jobs)
    csv_path = Path(cfg.outdir) / "scan.csv"
    _write_csv(
        csv_path,
        _SCAN_COLUMNS,
        (["" if row.get(col) is None else row.get(col) for col in _SCAN_COLUMNS] for row in rows),
    )
    failures = sum(row["status"] == "error" for row in rows)
    print(f"scan: {len(rows)} points ({failures} failed) -> {csv_path}")
    return 0


# -- argument parsing ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the validation code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key = value config file")
    for name in _FIELD_PARSERS:
        parser.add_argument(_flag(name), dest=name, default=None, metavar="V")


# Each subcommand's help text, its runner, and its path flags with their
# help texts; the runner takes the config and one argument per path flag.
_COMMANDS = {
    "synth": ("synthesize the target state and exact distribution", cmd_synth, {}),
    "sample": ("draw train/test datasets from a target snapshot", cmd_sample,
               {"snapshot": "target snapshot directory"}),
    "fit": ("fit tensor trains to a training dataset", cmd_fit, {"data": "training dataset file"}),
    "evaluate": ("score a fitted train against the target", cmd_evaluate,
                 {"tt": "fitted train file", "snapshot": "target snapshot directory",
                  "data": "test dataset file"}),
    "scan": ("run the pipeline over a parameter grid", cmd_scan, {}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ttomo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, paths) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        _add_config_flags(cmd)
        for flag, flag_help in paths.items():
            cmd.add_argument("--" + flag, default=None, help=flag_help)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _, runner, paths = _COMMANDS[args.command]
    try:
        cfg = build_config(args)
        return runner(cfg, **{flag: getattr(args, flag) for flag in paths})
    except TomoError as exc:
        print(f"ttomo: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"ttomo: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
