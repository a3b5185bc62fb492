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
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import DataFormatError, DegenerateFitError, TomoError, ValidationError, check_integer
from .fitting import FitConfig, fit, map_jobs
from .metrics import score
from .networks import TTDistribution
from .povm import tetrahedral_povm
from .sampling import _in_turn, check_sample_count, load_samples, save_samples, split_train_test
from .states import XxzParams, exact_outcome_distribution, synth_target
from .storage import fail, integer_at_least, load_array, load_tensor, read_header, read_lines
from .storage import read_text, save_tensor, write_lines

_MANIFEST_MAGIC = "ttsnapshot 3"
# Config fields that define the target; the manifest records them and its
# parameter hash covers them.
_TARGET_FIELDS = tuple(f.name for f in fields(XxzParams))
# The manifest's header lines from line 2, in the order synth writes them.
_MANIFEST_KEYS = _TARGET_FIELDS + ("d", "trace", "param_hash", "rho_digest")
_MANIFEST_PARSERS = dict.fromkeys(_MANIFEST_KEYS, str)
_MANIFEST_PARSERS.update(L=integer_at_least("L", 1), trace=float)
_MANIFEST_LINES = {key: lineno for lineno, key in enumerate(_MANIFEST_KEYS, start=2)}
# Spacing between the base seeds of successive scan grid points; larger than
# any realistic trial count so per-trial seeds never collide across points.
_POINT_SEED_STRIDE = 10007


@dataclass(frozen=True)
class ExperimentConfig(XxzParams, FitConfig):
    """Desk-scale defaults for the full pipeline: the target's ``XxzParams``, the fit's
    ``FitConfig`` and the run's own settings, each declared once and checked when a config
    is built; only L, p and seed change their bases' defaults. Size guards run later."""

    L: int = 4
    p: float = 0.6
    train: int = 1_000_000
    test: int = 1_000_000
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

    def __post_init__(self) -> None:
        FitConfig.__post_init__(self)  # first: its integer check covers every int field
        XxzParams.__post_init__(self)
        check_sample_count(self.train)
        check_sample_count(self.test)
        check_integer("jobs", self.jobs, 1)
        for axis in _AXIS_FIELDS:
            if getattr(self, axis) is not None and len(getattr(self, axis)) == 0:
                raise ValidationError(f"scan axis '{axis}' is empty")
        if self.min_n_search and not (
            np.isfinite(self.ic_target) and self.ic_target > 0.0 and 1 <= self.n_start <= self.n_max
        ):
            raise ValidationError(
                "the minimum-N search needs a finite ic_target > 0 and 1 <= n_start <= n_max, got "
                f"ic_target={self.ic_target}, n_start={self.n_start}, n_max={self.n_max}"
            )


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


def _param_hash(texts) -> str:
    """SHA-256 of the target fields' manifest texts, each as ``name=text``, joined by commas."""
    canon = ",".join(f"{name}={text}" for name, text in zip(_TARGET_FIELDS, texts, strict=True))
    return hashlib.sha256(canon.encode("ascii")).hexdigest()


def _snapshot_dir(cfg: ExperimentConfig) -> Path:
    return Path(cfg.outdir) / "target"


def _read_snapshot(cfg: ExperimentConfig, snapshot) -> tuple:
    """Length, density matrix and exact outcome distribution of a target snapshot.

    The manifest must end at its last key, with ``d`` = 2^L and the ``param_hash``
    of its own target fields; ``rho.npy`` must be 2^L x 2^L, match its ``rho_digest``
    and have its ``trace`` within 1e-12. The distribution is derived from it.
    """
    snap = Path(snapshot) if snapshot else _snapshot_dir(cfg)
    path = snap / "manifest.txt"
    lines = read_lines(path, _MANIFEST_MAGIC)
    manifest = read_header(path, lines, _MANIFEST_PARSERS)
    if len(lines) > 1 + len(_MANIFEST_PARSERS):
        fail(path, 2 + len(_MANIFEST_PARSERS), "trailing content after last key")
    L = manifest["L"]
    if manifest["d"] != str(2**L):
        fail(path, _MANIFEST_LINES["d"], f"d {manifest['d']} is not 2^L = {2**L}")
    if manifest["param_hash"] != _param_hash(str(manifest[name]) for name in _TARGET_FIELDS):
        fail(path, _MANIFEST_LINES["param_hash"], "param_hash does not match the target fields")
    rho = load_array(snap / "rho.npy")
    if rho.shape != (2**L, 2**L):
        fail(path, 2, f"rho.npy has shape {rho.shape}, not (2^L, 2^L) for L={L}")
    if hashlib.sha256(rho.tobytes()).hexdigest() != manifest["rho_digest"]:
        raise DataFormatError(f"{path}: rho.npy does not match rho_digest")
    trace = np.trace(rho)  # a non-finite one is left to the distribution's own check
    if np.isfinite(trace) and not abs(trace - manifest["trace"]) <= 1e-12:
        fail(path, _MANIFEST_LINES["trace"], f"rho.npy has trace {trace}, not {manifest['trace']}")
    return L, rho, exact_outcome_distribution(rho, tetrahedral_povm())


def cmd_synth(cfg: ExperimentConfig) -> int:
    """Synthesize the target density matrix; ``sample`` and ``evaluate`` derive its exact
    outcome distribution, so the snapshot is ``rho.npy`` and its manifest alone."""
    rho = synth_target(cfg)
    out = _snapshot_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "rho.npy", rho)
    texts = [repr(getattr(cfg, name)) for name in _TARGET_FIELDS]
    values = texts + [
        2**cfg.L,
        repr(float(np.trace(rho))),
        _param_hash(texts),
        hashlib.sha256(rho.tobytes()).hexdigest(),
    ]
    manifest = dict(zip(_MANIFEST_KEYS, values, strict=True))
    write_lines(out / "manifest.txt", _MANIFEST_MAGIC, manifest)
    print(f"synth: wrote target snapshot to {out}")
    return 0


def cmd_sample(cfg: ExperimentConfig, snapshot) -> int:
    """Draw train and test datasets from a synthesized target."""
    _, _, dist = _read_snapshot(cfg, snapshot)
    out = Path(cfg.outdir) / "data"
    out.mkdir(parents=True, exist_ok=True)
    train, test = split_train_test(dist, cfg.train, cfg.seed, n_test=cfg.test)
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
    result = fit(samples, cfg, jobs=cfg.jobs)
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
    L, rho, dist = _read_snapshot(cfg, snapshot)
    test = load_samples(test_file)
    if not tt.length == L == test.L:
        raise ValidationError(
            f"length mismatch: train has L={tt.length}, snapshot L={L}, test set L={test.L}"
        )
    report = score(tt, rho, dist, test)
    out = Path(cfg.outdir) / "report.json"
    _write_report(out, report)
    shown = {k: report[k] for k in ("i_q", "i_c", "trace_deviation", "hermiticity_residual")}
    print(f"evaluate: {shown} -> {out}")
    return 0


# -- scans -------------------------------------------------------------------


def _scan_grid(cfg: ExperimentConfig) -> list:
    """The config field overrides of every grid point."""
    axes = [
        [dict.fromkeys(targets, value) for value in getattr(cfg, axis)]
        for axis, targets in _AXIS_FIELDS.items()
        if getattr(cfg, axis) is not None
    ]
    if not axes and not cfg.min_n_search:
        raise ValidationError("scan requires at least one axis (or the minimum-N search)")
    return [
        {name: value for part in combo for name, value in part.items()}
        for combo in itertools.product(*axes)
    ]


def _run_point(cfg: ExperimentConfig, index: int, overrides: dict, point_dir: Path) -> dict:
    """One scan row; an axis value that fails a config check is this point's error.

    Its sets are drawn in turn, not on two threads: a worker thread saves a few ms a split
    but the minimum-N search, whose fits follow in this process, ran about 3% slower.
    """
    values = {**vars(cfg), **overrides, "seed": cfg.seed + _POINT_SEED_STRIDE * (index + 1)}
    row = {name: values[name] for name in _SCAN_COLUMNS if name in values}
    row.update(point=index, n_train=values["train"], n_test=values["test"], status="ok", message="")
    start = time.perf_counter()
    try:
        point = replace(cfg, **values)
        rho = synth_target(point)
        dist = exact_outcome_distribution(rho, tetrahedral_povm())
        if point.min_n_search:
            report, row["min_n"] = _min_n_search(point, rho, dist)
            if row["min_n"] is None:
                row["status"] = "threshold-not-reached"
        else:
            draws = _in_turn(dist, point.train, point.seed, point.test)
            report = _fit_and_score(point, *draws, rho, dist)
        row.update(report, bond_dims="x".join(str(d) for d in report["bond_dims"]))
        _write_report(point_dir / "report.json", report)
    except TomoError as exc:
        row["status"] = "error"
        row["message"] = f"{type(exc).__name__}: {exc}"
    row["runtime_s"] = time.perf_counter() - start
    return row


def _fit_and_score(point: ExperimentConfig, train, test, rho, dist) -> dict:
    result = fit(train, point, jobs=1)
    report = score(result.best.tt, rho, dist, test)
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
        report = _fit_and_score(point, *_in_turn(dist, n, point.seed + attempt, n), rho, dist)
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


# Each subcommand's help text, its runner, and its path flags with their
# help texts; the runner takes the config and one argument per path flag.
_COMMANDS = {
    "synth": ("synthesize the target density matrix", cmd_synth, {}),
    "sample": ("draw train/test datasets from a target snapshot", cmd_sample,
               {"snapshot": "target snapshot directory"}),
    "fit": ("fit tensor trains to a training dataset", cmd_fit, {"data": "training dataset file"}),
    "evaluate": ("score a fitted train against the target", cmd_evaluate,
                 {"tt": "fitted train file", "snapshot": "target snapshot directory",
                  "data": "test dataset file"}),
    "scan": ("run the pipeline over a parameter grid", cmd_scan, {}),
}


def build_parser() -> argparse.ArgumentParser:
    # the config flags are built once, in a parent that every subcommand copies: each
    # add_argument builds a help formatter, which queries the terminal size
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="key = value config file")
    for name in _FIELD_PARSERS:
        config.add_argument(_flag(name), dest=name, default=None, metavar="V")
    parser = _Parser(prog="ttomo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, paths) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text, parents=[config])
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
