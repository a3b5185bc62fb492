"""Command-line pipeline, config precedence, and exit codes.

All commands run in-process through main() so exit codes are observable
without spawning interpreters, except where a test needs a setting that is
read once per process, such as the BLAS thread count, and in the exit-code
table at the end, which runs ``python -m ttomo.cli`` as a user would.
"""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import ttomo.cli
from oracles import after_each_update
from ttomo.cli import ExperimentConfig, build_config, build_parser, load_config_file, main
from ttomo.density import tt_to_mpo
from ttomo.errors import CapacityError, DataFormatError, ValidationError
from ttomo.fitting import FitResult, TrialResult
from ttomo.networks import TTDistribution
from ttomo.povm import tetrahedral_povm
from ttomo.sampling import SampleSet, save_samples, split_train_test
from ttomo.states import XxzParams, exact_outcome_distribution, synth_target
from ttomo.storage import load_tensor, save_tensor

SMALL = """
L = 2
p = 0.5
train = 4000
test = 4000
bond_dim = 2
trials = 2
max_sweeps = 40
seed = 17
"""


# report.json fields that may differ between BLAS thread counts
LAPACK_AND_TIMING_FIELDS = ("runtime_s", "f_q", "i_q", "min_eigenvalue")


@pytest.fixture()
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL + f"outdir = {tmp_path / 'run'}\n")
    return path


def test_config_file_parsing(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("L = 5  # five sites\nscan_p = 0.2, 0.4\nmin_n_search = true\n")
    values = load_config_file(path)
    assert values == {"L": 5, "scan_p": (0.2, 0.4), "min_n_search": True}


def test_config_rejects_unknown_keys_and_bad_values(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("bogus = 1\n")
    with pytest.raises(DataFormatError):
        load_config_file(path)
    path.write_text("L = banana\n")
    with pytest.raises(DataFormatError):
        load_config_file(path)
    path.write_bytes(b"L = 4\np = 0.\xff5\n")
    with pytest.raises(DataFormatError, match="c.cfg:2: byte 0xff is not utf-8 text"):
        load_config_file(path)
    path.write_text("# a comment\nL 4\n")
    with pytest.raises(DataFormatError, match="c.cfg:2: expected 'key = value'$"):
        load_config_file(path)


@pytest.mark.parametrize(
    "text, value",
    [(text, True) for text in ("1", "true", "Yes", "ON")]
    + [(text, False) for text in ("0", "false", "No", "OFF", " off ")],
)
def test_every_boolean_spelling_parses_from_file_and_flag(tmp_path, text, value):
    path = tmp_path / "c.cfg"
    path.write_text(f"min_n_search = {text}\n")
    assert load_config_file(path) == {"min_n_search": value}
    args = build_parser().parse_args(["synth", "--min-n-search", text])
    assert build_config(args).min_n_search is value


def test_flag_overrides_file_overrides_default(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("L = 6\ntrials = 3\n")

    class Args:
        config = str(path)

    args = Args()
    for name in ExperimentConfig.__dataclass_fields__:
        setattr(args, name, None)
    args.L = "8"
    cfg = build_config(args)
    assert cfg.L == 8  # flag wins
    assert cfg.trials == 3  # file wins
    assert cfg.bond_dim == 10  # default


# A config text and its value for each scalar default type, and for each axis.
_SCALAR_SAMPLES = {
    int: ("7", 7),
    float: ("0.25", 0.25),
    str: ("runs/x", "runs/x"),
    bool: ("yes", True),
}
_AXIS_SAMPLES = {
    "scan_L": ("2, 3", (2, 3)),
    "scan_p": ("0.25 0.5", (0.25, 0.5)),
    "scan_gamma": ("0.25, 0.5", (0.25, 0.5)),
    "scan_bond_dim": ("2,3", (2, 3)),
    "scan_n": ("2, 3", (2, 3)),
}


def _typed(value):
    """Entries paired with their types, so that 2 and 2.0 compare unequal."""
    items = value if isinstance(value, tuple) else (value,)
    return [(type(v), v) for v in items]


@pytest.mark.parametrize("field", fields(ExperimentConfig), ids=lambda f: f.name)
def test_every_field_parses_alike_from_file_and_flag(tmp_path, field):
    text, expected = _AXIS_SAMPLES.get(field.name) or _SCALAR_SAMPLES[type(field.default)]
    path = tmp_path / "c.cfg"
    path.write_text(f"{field.name} = {text}\n")
    from_file = load_config_file(path)[field.name]
    flag = "--" + field.name.replace("_", "-")
    args = build_parser().parse_args(["synth", flag, text])
    from_flag = getattr(build_config(args), field.name)
    assert _typed(from_file) == _typed(from_flag) == _typed(expected)


def test_full_pipeline_and_artifacts(tmp_path, small_cfg):
    run = tmp_path / "run"
    assert main(["synth", "--config", str(small_cfg)]) == 0
    assert main(["sample", "--config", str(small_cfg)]) == 0
    assert main(["fit", "--config", str(small_cfg)]) == 0
    assert main(["evaluate", "--config", str(small_cfg)]) == 0

    # synth writes only what a command reads
    assert sorted(path.name for path in (run / "target").iterdir()) == ["manifest.txt", "rho.npy"]
    manifest = (run / "target" / "manifest.txt").read_text().splitlines()
    assert manifest[0] == "ttsnapshot 3"
    assert [line.split()[0] for line in manifest[1:]] == (
        "L J gamma h p d trace param_hash rho_digest".split()
    )
    report = json.loads((run / "report.json").read_text())
    assert set(report) == {
        "L",
        "bond_dims",
        "f_q",
        "i_q",
        "clipped_mass",
        "f_c",
        "i_c",
        "trace_deviation",
        "hermiticity_residual",
        "min_eigenvalue",
        "runtime_s",
    }
    assert report["i_c"] < 0.5
    assert report["trace_deviation"] < 1e-10
    with open(run / "fit" / "trials.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    losses = [float(row["final_loss"]) for row in rows]
    assert losses == sorted(losses)  # best (lowest) loss ranked first
    best = load_tensor(run / "fit" / "best.tt")
    assert float(rows[0]["final_loss"]) == pytest.approx(
        min(losses)
    )
    assert best.bond_dims[0] == 1


@pytest.mark.parametrize("L", [7, 8, 9, 10])
def test_the_pipeline_keeps_its_invariants_at_every_dense_size(tmp_path, L):
    # N = 1e5 each: from L = 7 on, sample draws the test set on a worker thread
    run, rerun = tmp_path / "run", tmp_path / "rerun"
    sizes = ["--L", str(L), "--train", "100000", "--test", "100000", "--trials", "2"]
    sizes += ["--max-sweeps", "20"]
    flags = [*sizes, "--outdir", str(run)]
    assert main(["synth", *flags]) == 0
    assert main(["sample", *flags]) == 0
    updates = []  # each update's losses, one per trial of its block

    def record(k, cache):
        # the loss after the update at k, from that update's quadratic form
        numer, denom, mat = cache._terms(k)
        updates.append((mat * (denom - 2.0 * numer)).sum(axis=(1, 2)))

    with after_each_update(record):
        assert main(["fit", *flags]) == 0
    assert main(["evaluate", *flags]) == 0
    best = load_tensor(run / "fit" / "best.tt")
    assert all(np.all(np.isfinite(core)) and core.min() >= 0.0 for core in best.cores)
    report = json.loads((run / "report.json").read_text())
    assert report["trace_deviation"] < 1e-10 and report["hermiticity_residual"] < 1e-10
    data = ["--data", str(run / "data" / "train.samples")]
    assert main(["fit", *sizes, "--outdir", str(rerun), *data, "--jobs", "2"]) == 0
    for name in ("best.tt", "trials.csv"):
        assert (rerun / "fit" / name).read_bytes() == (run / "fit" / name).read_bytes()
    # every trial's losses over its first sweep, update by update, from the loss the fit
    # records before it to the one it records after it; the blocks run in trial order
    traces = [
        np.loadtxt(path, delimiter=",", skiprows=1, usecols=1)
        for path in sorted((run / "fit").glob("trial_*_loss.csv"))
    ]
    per_sweep, start, first = 2 * L - 2, 0, 0
    while start < len(updates):
        block = traces[first : first + len(updates[start])]
        values = np.array([[trace[0] for trace in block], *updates[start : start + per_sweep]])
        assert np.all(np.diff(values, axis=0) <= 1e-12 * np.abs(values[:-1]))
        assert values[-1] == pytest.approx([trace[1] for trace in block], rel=1e-9)
        start += per_sweep * max(len(trace) - 1 for trace in block)
        first += len(block)
    assert first == len(traces) == 2


def test_synth_is_byte_deterministic(tmp_path, small_cfg):
    assert main(["synth", "--config", str(small_cfg)]) == 0
    out = tmp_path / "run" / "target"
    first = {name: (out / name).read_bytes() for name in ("rho.npy", "manifest.txt")}
    assert main(["synth", "--config", str(small_cfg)]) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_a_snapshot_with_a_complex_target_scores_as_its_float64_copy(tmp_path, small_cfg):
    # synth writes a float64 rho.npy; evaluate decomposes a complex128 copy, with its digest,
    # in complex arithmetic: only f_q and i_q may move, by rounding
    flags = ["--config", str(small_cfg), "--L", "4"]
    for command in ("synth", "sample", "fit", "evaluate"):
        assert main([command, *flags]) == 0
    run = tmp_path / "run"
    rho = np.load(run / "target" / "rho.npy")
    assert rho.dtype == np.float64
    real = json.loads((run / "report.json").read_text())
    _replace_rho(tmp_path, rho.astype(np.complex128))
    assert main(["evaluate", *flags]) == 0
    complex_ = json.loads((run / "report.json").read_text())
    for name in ("f_q", "i_q"):
        assert complex_.pop(name) == pytest.approx(real.pop(name), rel=1e-12, abs=0.0)
    del real["runtime_s"], complex_["runtime_s"]
    assert complex_ == real


def test_exit_codes(tmp_path, small_cfg):
    assert main(["synth", "--config", str(small_cfg), "--p", "1.5"]) == 1
    assert main(["synth", "--config", str(small_cfg), "--L", "15"]) == 2
    assert main(["fit", "--config", str(small_cfg), "--data", str(tmp_path / "nope")]) == 3
    overflowing = tmp_path / "overflowing.samples"
    header = "ttsamples 1\nL 3\nN 1\nseed -\nstream 0\nsource -\n"
    overflowing.write_text(header + "012 99999999999999999999\n")
    assert main(["fit", "--config", str(small_cfg), "--data", str(overflowing)]) == 3
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    assert main(["synth", "--config", str(bad)]) == 3


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A synth, sample and fit run of SMALL, for the path flags of other runs."""
    tmp = tmp_path_factory.mktemp("finished")
    path = tmp / "small.cfg"
    path.write_text(SMALL + f"outdir = {tmp / 'run'}\n")
    for command in ("synth", "sample", "fit"):
        assert main([command, "--config", str(path)]) == 0
    return tmp / "run"


# Each FitConfig check: a flag value that fails it, and its message.
_BAD_FIT_SETTINGS = {
    "bond-dim": ("0", "bond_dim must be >= 1, got 0"),
    "trials": ("0", "trials must be >= 1, got 0"),
    "max-sweeps": ("0", "max_sweeps must be >= 1, got 0"),
    "stop-window": ("0", "stop_window must be >= 1, got 0"),
    "stop-rtol": ("-1", "stop_rtol must be finite and >= 0, got -1.0"),
    "eps": ("nan", "eps must be finite and > 0, got nan"),
    "seed": ("-1", "seed must be >= 0, got -1"),
}


# The other checks made when the config is built, likewise.
_BAD_RUN_SETTINGS = {
    "train": ("-3", "sample count must be a positive integer, got -3"),
    "test": ("0", "sample count must be a positive integer, got 0"),
    "jobs": ("0", "jobs must be >= 1, got 0"),
}


# The target's settings (XxzParams), likewise.
_BAD_TARGET_SETTINGS = {
    "p": ("2", "depolarizing strength must lie in [0, 1], got 2.0"),
    "gamma": ("nan", "gamma must be finite, got nan"),
    "L": ("1", "L must be >= 2, got 1"),
}


def _exits_before_writing(tmp_path, finished_run, capsys, command, settings, message):
    # every command is pointed at complete inputs, so only the config check stops it
    target, data = finished_run / "target", finished_run / "data"
    inputs = {
        "sample": ["--snapshot", target],
        "fit": ["--data", data / "train.samples"],
        "evaluate": ["--tt", finished_run / "fit" / "best.tt", "--snapshot", target,
                     "--data", data / "test.samples"],
        "scan": ["--scan-p", "0.5"],
    }
    out = tmp_path / "out"
    argv = [command, "--L", "2", "--outdir", out, *settings, *inputs.get(command, [])]
    assert main([str(arg) for arg in argv]) == 1
    assert capsys.readouterr().err == f"ttomo: error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["synth", "sample", "fit", "evaluate", "scan"])
@pytest.mark.parametrize("flag", list(_BAD_FIT_SETTINGS))
def test_a_bad_fit_setting_exits_before_the_command_writes_anything(
    tmp_path, finished_run, capsys, flag, command
):
    value, message = _BAD_FIT_SETTINGS[flag]
    _exits_before_writing(tmp_path, finished_run, capsys, command, [f"--{flag}={value}"], message)


@pytest.mark.parametrize("command", ["synth", "sample", "fit", "evaluate", "scan"])
@pytest.mark.parametrize("flag", list(_BAD_RUN_SETTINGS))
def test_a_bad_count_or_job_setting_exits_before_the_command_writes_anything(
    tmp_path, finished_run, capsys, flag, command
):
    value, message = _BAD_RUN_SETTINGS[flag]
    _exits_before_writing(tmp_path, finished_run, capsys, command, [f"--{flag}={value}"], message)


@pytest.mark.parametrize("command", ["synth", "sample", "fit", "evaluate", "scan"])
@pytest.mark.parametrize("flag", list(_BAD_TARGET_SETTINGS))
def test_a_bad_target_setting_exits_before_the_command_writes_anything(
    tmp_path, finished_run, capsys, flag, command
):
    value, message = _BAD_TARGET_SETTINGS[flag]
    _exits_before_writing(tmp_path, finished_run, capsys, command, [f"--{flag}={value}"], message)


@pytest.mark.parametrize("command", ["synth", "fit"])
def test_a_min_n_search_that_cannot_meet_its_target_exits_before_any_command_writes(
    tmp_path, finished_run, capsys, command
):
    message = (
        "the minimum-N search needs a finite ic_target > 0 and 1 <= n_start <= n_max, got "
        "ic_target=0.0, n_start=1000, n_max=10000000"
    )
    settings = ["--min-n-search", "true", "--ic-target", "0"]
    _exits_before_writing(tmp_path, finished_run, capsys, command, settings, message)


@pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig) if f.type == "int"])
def test_a_non_integer_value_of_an_integer_field_is_rejected_when_the_config_is_built(name):
    default = getattr(ExperimentConfig(), name)
    for bad in (float(default), default + 0.5, True):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got {bad!r}$"):
            ExperimentConfig(**{name: bad})


def test_negative_seed_exits_with_a_validation_error(tmp_path, small_cfg, capsys):
    assert main(["synth", "--config", str(small_cfg)]) == 0
    assert main(["sample", "--config", str(small_cfg), "--seed", "-1"]) == 1
    assert main(["sample", "--config", str(small_cfg)]) == 0
    assert main(["fit", "--config", str(small_cfg), "--seed", "-1"]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2
    assert all(line.startswith("ttomo: error: seed must be >= 0") for line in errors)


def _replace_rho(tmp_path, rho):
    """Write ``rho`` into the snapshot and record its digest in the manifest."""
    np.save(tmp_path / "run" / "target" / "rho.npy", rho)
    _edit_manifest(tmp_path, "rho_digest", hashlib.sha256(rho.tobytes()).hexdigest())


def test_non_finite_values_exit_with_a_validation_error(tmp_path, small_cfg, capsys):
    assert main(["synth", "--config", str(small_cfg)]) == 0
    rho = np.load(tmp_path / "run" / "target" / "rho.npy")
    rho[0, 0] = np.nan
    _replace_rho(tmp_path, rho)
    assert main(["sample", "--config", str(small_cfg)]) == 1
    assert main(["synth", "--config", str(small_cfg)]) == 0
    assert main(["sample", "--config", str(small_cfg)]) == 0
    assert main(["fit", "--config", str(small_cfg), "--eps", "nan"]) == 1
    assert main(["synth", "--config", str(small_cfg), "--J", "nan"]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert errors == [
        "ttomo: error: distribution has non-finite entries",
        "ttomo: error: eps must be finite and > 0, got nan",
        "ttomo: error: J must be finite, got nan",
    ]


def test_out_of_range_counts_and_jobs_exit_with_a_validation_error(tmp_path, small_cfg, capsys):
    assert main(["synth", "--config", str(small_cfg)]) == 0
    assert main(["sample", "--config", str(small_cfg), "--train", "100000000000000000000"]) == 1
    assert main(["sample", "--config", str(small_cfg)]) == 0
    assert main(["fit", "--config", str(small_cfg), "--jobs", "0"]) == 1
    assert main(["scan", "--config", str(small_cfg), "--scan-p", "0.5", "--jobs", "-1"]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert errors == [
        "ttomo: error: sample count must be < 2^63, got 100000000000000000000",
        "ttomo: error: jobs must be >= 1, got 0",
        "ttomo: error: jobs must be >= 1, got -1",
    ]


def test_the_dense_guard_fails_before_the_target_is_built(tmp_path, small_cfg, capsys):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="^dense Hamiltonian guard is L <= 10, got 11$"):
            synth_target(XxzParams(L=11))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the L = 11 Hamiltonian alone would be 32 MiB
    assert main(["synth", "--config", str(small_cfg), "--L", "11"]) == 2
    assert capsys.readouterr().err == "ttomo: error: dense Hamiltonian guard is L <= 10, got 11\n"
    assert not (tmp_path / "run" / "target").exists()
    assert main(["scan", "--config", str(small_cfg), "--scan-L", "11"]) == 0
    with open(tmp_path / "run" / "scan.csv") as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["status"] == "error"
    assert row["message"] == "CapacityError: dense Hamiltonian guard is L <= 10, got 11"


@pytest.fixture(scope="module")
def long_run(tmp_path_factory):
    """An outdir with a hand-written L = 11 snapshot (a 2048 x 2048 ``rho.npy`` and its
    digest), a unit-mass L = 11 train and a one-string L = 11 test set."""
    run = tmp_path_factory.mktemp("long") / "run"
    assert main(["synth", "--L", "2", "--outdir", str(run)]) == 0
    _replace_rho(run.parent, np.eye(2**11) / 2**11)
    _set_length(run.parent, 11)
    strings = np.zeros((1, 11), dtype=np.uint8)
    save_samples(SampleSet(L=11, total=1, strings=strings, counts=[1]), run / "test.samples")
    save_tensor(run / "long.tt", TTDistribution([np.full((4, 1, 1), 0.25)] * 11))
    return run


def _exits_at_the_distribution_guard(capsys, out, argv):
    assert main([str(arg) for arg in argv + ["--outdir", out]]) == 2
    assert capsys.readouterr().err == "ttomo: error: dense distribution guard is L <= 10, got 11\n"
    assert not out.exists()


def test_sample_above_the_dense_guard_exits_with_the_capacity_code(tmp_path, long_run, capsys):
    argv = ["sample", "--snapshot", long_run / "target"]
    _exits_at_the_distribution_guard(capsys, tmp_path / "out", argv)


def test_evaluate_above_the_dense_guard_exits_with_the_capacity_code(tmp_path, long_run, capsys):
    argv = ["evaluate", "--snapshot", long_run / "target", "--tt", long_run / "long.tt",
            "--data", long_run / "test.samples"]
    _exits_at_the_distribution_guard(capsys, tmp_path / "out", argv)


def test_evaluate_of_an_overflowing_reconstruction_exits_with_the_capacity_code(
    tmp_path, small_cfg, capsys
):
    # unit total mass, but the dense reconstruction overflows to inf and nan
    assert main(["synth", "--config", str(small_cfg)]) == 0
    assert main(["sample", "--config", str(small_cfg)]) == 0
    core = np.array([1e300, -1e300, 1.0, 0.0]).reshape(4, 1, 1)
    fit_dir = tmp_path / "run" / "fit"
    fit_dir.mkdir(parents=True)
    save_tensor(fit_dir / "best.tt", TTDistribution([core, core]))
    assert main(["evaluate", "--config", str(small_cfg)]) == 2
    assert "the dense operator overflows at L=2" in capsys.readouterr().err
    assert not (tmp_path / "run" / "report.json").exists()


# unit total mass, but the inversion cancels 1e300-sized terms: max |rho_hat| is
# 4e300 and the trace is off by about 6e284
RUINED = TTDistribution([np.array([1e150, -1e150, 1.0, 0.0]).reshape(4, 1, 1)] * 2)


def test_a_reconstruction_ruined_by_cancellation_is_not_scored():
    rho = np.eye(4) / 4
    test = SampleSet(L=2, total=1, strings=np.zeros((1, 2), dtype=np.uint8), counts=[1])
    with pytest.raises(CapacityError, match="L=2 has trace deviation 5.9"):
        ttomo.score(RUINED, rho, np.full(16, 1 / 16), test)


def test_evaluate_of_a_reconstruction_ruined_by_cancellation_exits_with_the_capacity_code(
    tmp_path, small_cfg, capsys
):
    assert main(["synth", "--config", str(small_cfg)]) == 0
    assert main(["sample", "--config", str(small_cfg)]) == 0
    fit_dir = tmp_path / "run" / "fit"
    fit_dir.mkdir(parents=True)
    save_tensor(fit_dir / "best.tt", RUINED)
    assert main(["evaluate", "--config", str(small_cfg)]) == 2
    assert "trace deviation 5.9" in capsys.readouterr().err
    assert not (tmp_path / "run" / "report.json").exists()


def test_a_scan_records_a_ruined_reconstruction_and_goes_on(tmp_path, small_cfg, monkeypatch):
    real_fit = ttomo.cli.fit

    def ruined_at_bond_dim_one(train, config, jobs):
        if config.bond_dim > 1:
            return real_fit(train, config, jobs)
        trial = TrialResult(0, config.seed, RUINED, np.zeros(1), np.zeros(1), True)
        return FitResult([trial])

    monkeypatch.setattr(ttomo.cli, "fit", ruined_at_bond_dim_one)
    assert main(["scan", "--config", str(small_cfg), "--scan-bond-dim", "1,2"]) == 0
    with open(tmp_path / "run" / "scan.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == ["error", "ok"]
    assert rows[0]["message"].startswith("CapacityError: the reconstruction at L=2")
    assert not (tmp_path / "run" / "scan" / "point_000" / "report.json").exists()
    assert (tmp_path / "run" / "scan" / "point_001" / "report.json").exists()


def test_a_fit_whose_best_trial_has_no_mass_exits_with_code_four(
    tmp_path, small_cfg, monkeypatch, capsys
):
    def zero_mass_best(train, config, jobs):
        healthy = TTDistribution([np.full((4, 1, 1), 0.25)] * 2)
        zero = TTDistribution([np.zeros((4, 1, 1))] * 2)
        return FitResult([
            TrialResult(0, config.seed, healthy, np.ones(1), np.zeros(1), True),
            TrialResult(1, config.seed + 1, zero, np.zeros(1), np.zeros(1), True),
        ])

    assert main(["synth", "--config", str(small_cfg)]) == 0
    assert main(["sample", "--config", str(small_cfg)]) == 0
    monkeypatch.setattr(ttomo.cli, "fit", zero_mass_best)
    assert main(["fit", "--config", str(small_cfg)]) == 4
    assert "best trial has total mass 0.0" in capsys.readouterr().err
    fit_dir = tmp_path / "run" / "fit"
    assert load_tensor(fit_dir / "best.tt").total_mass() == 0.0
    with open(fit_dir / "trials.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["trial"], row["degenerate"]) for row in rows] == [("1", "True"), ("0", "False")]


def test_fit_beyond_the_float_range_exits_with_the_capacity_code(tmp_path, small_cfg, capsys):
    data = tmp_path / "long.samples"
    strings = np.unique(np.random.default_rng(0).integers(0, 4, size=(8, 200)), axis=0)
    save_samples(SampleSet(L=200, total=8, strings=strings, counts=[1] * 8), data)
    assert main(["fit", "--config", str(small_cfg), "--bond-dim", "10", "--data", str(data)]) == 2
    assert "overflows at L=200, D=10" in capsys.readouterr().err
    assert not (tmp_path / "run" / "fit" / "best.tt").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["synth", "--L", "abc"], "bad value for '--L': invalid literal for int()"),
        (["synth", "--L", "2.5"], "bad value for '--L': invalid literal for int()"),
        (["scan", "--scan-p", "0.1,x"], "bad value for '--scan-p': could not convert"),
        (["synth", "--min-n-search", "maybe"], "bad value for '--min-n-search': cannot parse"),
    ],
    ids=["L-abc", "L-2.5", "scan-p", "min-n-search"],
)
def test_a_malformed_flag_value_names_its_flag(tmp_path, capsys, argv, message):
    assert main(argv + ["--outdir", str(tmp_path / "run")]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 1
    assert errors[0].startswith("ttomo: error: " + message)


def test_malformed_snapshot_files_exit_with_the_format_code(tmp_path, small_cfg, capsys):
    for command in ("synth", "sample", "fit"):
        assert main([command, "--config", str(small_cfg)]) == 0
    target = tmp_path / "run" / "target"
    blob = (target / "rho.npy").read_bytes()
    (target / "rho.npy").write_bytes(blob[:40])
    for command in ("sample", "evaluate"):
        assert main([command, "--config", str(small_cfg)]) == 3
    (target / "rho.npy").write_bytes(blob)
    manifest = target / "manifest.txt"
    manifest.write_bytes(manifest.read_bytes().replace(b"L 2", b"L \xb2"))
    assert main(["sample", "--config", str(small_cfg)]) == 3
    sample_error, evaluate_error, manifest_error = capsys.readouterr().err.splitlines()
    assert sample_error.startswith(f"ttomo: error: {target / 'rho.npy'}: not a readable .npy")
    assert evaluate_error == sample_error
    assert manifest_error == f"ttomo: error: {manifest}:2: byte 0xb2 is not ascii text"


def test_fit_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 65k distinct strings make every sum over samples long enough for a
    # threaded BLAS to split it; the thread count is read once per process
    dist = 1.0 + np.random.default_rng(3).random(4**8)
    samples = split_train_test(dist / dist.sum(), 10**6, seed=3)[0]
    assert samples.n_distinct >= 65_000
    data = tmp_path / "train.samples"
    save_samples(samples, data)
    src = str(Path(ttomo.cli.__file__).parents[1])
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    outputs = []
    for threads in ("1", "2"):
        outdir = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        env.update(dict.fromkeys(blas, threads))
        flags = ["--data", str(data), "--outdir", str(outdir), "--trials", "2", "--max-sweeps", "4"]
        command = [sys.executable, "-m", "ttomo.cli", "fit", *flags, "--seed", "1"]
        subprocess.run(command, env=env, check=True, capture_output=True, timeout=300)
        fit_dir = outdir / "fit"
        files = {name: (fit_dir / name).read_bytes() for name in ("best.tt", "trials.csv")}
        for path in sorted(fit_dir.glob("trial_*_loss.csv")):
            # wall_s, the last column, is a timing
            files[path.name] = [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
        outputs.append(files)
    assert len(outputs[0]) == 4
    assert outputs[1] == outputs[0]


def test_evaluate_report_does_not_depend_on_the_blas_thread_count(tmp_path, small_cfg):
    # an L = 8 test set of some 60k distinct strings, long enough for a threaded
    # BLAS to split a dot over it. f_q, i_q and min_eigenvalue come from LAPACK
    # eigensolvers, which still differ in their last digits between thread
    # counts, so they are left out; runtime_s is a timing
    flags = ["--config", str(small_cfg), "--L", "8", "--train", "1000000", "--test", "1000000"]
    assert main(["synth", *flags]) == 0
    assert main(["sample", *flags]) == 0
    assert main(["fit", *flags, "--trials", "1", "--max-sweeps", "2"]) == 0
    assert ttomo.sampling.load_samples(tmp_path / "run" / "data" / "test.samples").n_distinct > 50_000
    src = str(Path(ttomo.cli.__file__).parents[1])
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        env.update(dict.fromkeys(blas, threads))
        outdir = tmp_path / f"threads{threads}"
        command = [sys.executable, "-m", "ttomo.cli", "evaluate", *flags, "--outdir", str(outdir)]
        command += ["--tt", str(tmp_path / "run" / "fit" / "best.tt")]
        command += ["--snapshot", str(tmp_path / "run" / "target")]
        command += ["--data", str(tmp_path / "run" / "data" / "test.samples")]
        subprocess.run(command, env=env, check=True, capture_output=True, timeout=300)
        report = json.loads((outdir / "report.json").read_text())
        reports.append({k: v for k, v in report.items() if k not in LAPACK_AND_TIMING_FIELDS})
    assert set(reports[0]) >= {"f_c", "i_c", "hermiticity_residual", "trace_deviation"}
    assert reports[1] == reports[0]


def test_degenerate_fit_exits_with_code_four(tmp_path, small_cfg):
    assert main(["synth", "--config", str(small_cfg)]) == 0
    assert main(["sample", "--config", str(small_cfg)]) == 0
    fit_dir = tmp_path / "run" / "fit"
    fit_dir.mkdir(parents=True)
    zero = TTDistribution([np.zeros((4, 1, 1)), np.zeros((4, 1, 1))])
    save_tensor(fit_dir / "best.tt", zero)
    assert main(["evaluate", "--config", str(small_cfg)]) == 4


def test_evaluate_of_a_file_that_is_not_a_tensor_train_exits_with_the_validation_code(
    tmp_path, small_cfg, capsys
):
    assert main(["synth", "--config", str(small_cfg)]) == 0
    mpo = tmp_path / "chain.tt"
    train = TTDistribution([np.full((4, 1, 1), 0.25)] * 2)
    save_tensor(mpo, tt_to_mpo(train, tetrahedral_povm()))
    assert main(["evaluate", "--config", str(small_cfg), "--tt", str(mpo)]) == 1
    assert capsys.readouterr().err == f"ttomo: error: {mpo} does not hold a tensor train\n"
    assert not (tmp_path / "run" / "report.json").exists()


def test_evaluate_rejects_length_mismatch(tmp_path, small_cfg):
    assert main(["synth", "--config", str(small_cfg)]) == 0
    assert main(["sample", "--config", str(small_cfg)]) == 0
    fit_dir = tmp_path / "run" / "fit"
    fit_dir.mkdir(parents=True)
    wrong = TTDistribution([np.full((4, 1, 1), 0.25)] * 3)
    save_tensor(fit_dir / "best.tt", wrong)
    assert main(["evaluate", "--config", str(small_cfg)]) == 1


def _edit_manifest(tmp_path, key, value):
    """Set the snapshot manifest's ``key`` line to ``key value``, or blank it when ``value``
    is None; the line keeps its place. Returns the manifest's path and the line's number."""
    path = tmp_path / "run" / "target" / "manifest.txt"
    lines = path.read_text().splitlines()
    lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(f"{key} "))
    lines[lineno - 1] = "" if value is None else f"{key} {value}"
    path.write_text("\n".join(lines) + "\n")
    return path, lineno


def _set_length(tmp_path, L):
    """Set the manifest's ``L`` line, with the ``d`` and ``param_hash`` that synth writes for
    that length and the other target fields. Returns the manifest's path."""
    path, _ = _edit_manifest(tmp_path, "L", str(L))
    _edit_manifest(tmp_path, "d", str(2**L))
    fields = path.read_text().splitlines()[1:6]  # L, J, gamma, h and p
    canon = ",".join(line.replace(" ", "=", 1) for line in fields)
    _edit_manifest(tmp_path, "param_hash", hashlib.sha256(canon.encode("ascii")).hexdigest())
    return path


def test_a_target_that_does_not_match_its_manifest_exits_with_the_format_code(
    tmp_path, small_cfg, capsys
):
    for command in ("synth", "sample", "fit"):
        assert main([command, "--config", str(small_cfg)]) == 0
    target = tmp_path / "run" / "target"
    rho = np.load(target / "rho.npy")
    np.save(target / "rho.npy", rho[::-1].copy())
    assert main(["sample", "--config", str(small_cfg)]) == 3
    assert main(["evaluate", "--config", str(small_cfg)]) == 3
    np.save(target / "rho.npy", rho)
    trace = float(np.trace(rho))
    manifest, trace_line = _edit_manifest(tmp_path, "trace", "0.5")
    assert main(["sample", "--config", str(small_cfg)]) == 3
    _edit_manifest(tmp_path, "trace", repr(trace + 2e-12))
    assert main(["evaluate", "--config", str(small_cfg)]) == 3
    _edit_manifest(tmp_path, "trace", repr(trace + 5e-13))
    assert main(["sample", "--config", str(small_cfg)]) == 0
    manifest, lineno = _edit_manifest(tmp_path, "rho_digest", None)
    assert main(["sample", "--config", str(small_cfg)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"ttomo: error: {manifest}: rho.npy does not match rho_digest",
        f"ttomo: error: {manifest}: rho.npy does not match rho_digest",
        f"ttomo: error: {manifest}:{trace_line}: rho.npy has trace {trace}, not 0.5",
        f"ttomo: error: {manifest}:{trace_line}: rho.npy has trace {trace}, not {trace + 2e-12}",
        f"ttomo: error: {manifest}:{lineno}: expected 'rho_digest <value>'",
    ]


def test_read_snapshot_derives_the_distribution_from_a_checked_target(tmp_path, small_cfg):
    assert main(["synth", "--config", str(small_cfg)]) == 0
    cfg = ExperimentConfig(L=2, p=0.5, outdir=str(tmp_path / "run"))
    target = tmp_path / "run" / "target"
    L, rho, dist = ttomo.cli._read_snapshot(cfg, None)
    assert L == 2
    assert rho.tobytes() == np.load(target / "rho.npy").tobytes()
    exact = exact_outcome_distribution(synth_target(XxzParams(L=2, p=0.5)), tetrahedral_povm())
    assert dist.tobytes() == exact.tobytes()
    rho[0, 0] *= 0.5
    np.save(target / "rho.npy", rho)
    with pytest.raises(DataFormatError, match="manifest.txt: rho.npy does not match rho_digest"):
        ttomo.cli._read_snapshot(cfg, target)
    # a manifest whose L is not rho.npy's, even with a matching digest
    _replace_rho(tmp_path, rho)
    manifest = _set_length(tmp_path, 11)
    message = f"{manifest}:2: rho.npy has shape (4, 4), not (2^L, 2^L) for L=11"
    with pytest.raises(DataFormatError, match=f"^{re.escape(message)}$"):
        ttomo.cli._read_snapshot(cfg, target)


def test_evaluate_reports_a_manifest_with_a_non_integer_length(tmp_path, small_cfg, capsys):
    for command in ("synth", "sample", "fit"):
        assert main([command, "--config", str(small_cfg)]) == 0
    manifest, lineno = _edit_manifest(tmp_path, "L", "two")
    assert main(["evaluate", "--config", str(small_cfg)]) == 3
    _edit_manifest(tmp_path, "L", "0")
    assert main(["evaluate", "--config", str(small_cfg)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"ttomo: error: {manifest}:{lineno}: bad header value: "
        "invalid literal for int() with base 10: 'two'",
        f"ttomo: error: {manifest}:{lineno}: bad header value: L must be >= 1, got 0",
    ]


def test_a_manifest_line_after_the_last_key_exits_with_the_format_code(
    tmp_path, small_cfg, capsys
):
    assert main(["synth", "--config", str(small_cfg)]) == 0
    manifest = tmp_path / "run" / "target" / "manifest.txt"
    lines = manifest.read_text().splitlines()
    manifest.write_text("\n".join(lines + ["extra junk"]) + "\n")
    assert main(["sample", "--config", str(small_cfg)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"ttomo: error: {manifest}:{len(lines) + 1}: trailing content after last key"
    ]
    assert not (tmp_path / "run" / "data").exists()


@pytest.mark.parametrize("command", list(ttomo.cli._COMMANDS))
def test_every_subcommand_help_lists_every_config_flag(command, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--help"])
    assert exc.value.code == 0
    listed = {word.rstrip(",") for word in capsys.readouterr().out.split()}
    flags = {"--config"} | {"--" + name.replace("_", "-") for name in ttomo.cli._FIELD_PARSERS}
    assert flags <= listed


@pytest.mark.parametrize(
    "command,accepted",
    [
        ("synth", ()),
        ("sample", ("--snapshot",)),
        ("fit", ("--data",)),
        ("evaluate", ("--tt", "--snapshot", "--data")),
        ("scan", ()),
    ],
)
def test_each_command_takes_exactly_its_path_flags(command, accepted):
    parser = build_parser()
    for flag in ("--tt", "--snapshot", "--data"):
        if flag in accepted:
            args = parser.parse_args([command, flag, "x"])
            assert getattr(args, flag[2:]) == "x"
        else:
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command, flag, "x"])
            assert exc.value.code == 1


def test_a_foreign_path_flag_exits_with_the_validation_code():
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--data", "x"])
    assert exc.value.code == 1


@pytest.fixture()
def no_worker_thread(monkeypatch):
    """split_train_test would draw on two threads at any L; a scan point must not start one."""

    def no_thread(*args, **kwargs):
        raise AssertionError("a scan point drew its sets on a worker thread")

    monkeypatch.setattr(ttomo.sampling, "_CONCURRENT_SIZE", 1)
    monkeypatch.setattr(ttomo.sampling, "ThreadPoolExecutor", no_thread)


def test_scan_grid_and_error_recovery(tmp_path, no_worker_thread):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(
        "L = 2\ntrain = 1500\ntest = 1500\nbond_dim = 2\ntrials = 1\n"
        f"max_sweeps = 25\nseed = 3\noutdir = {tmp_path / 'scan'}\n"
        "scan_p = 0.3, 1.5\nscan_bond_dim = 1, 2\n"
    )
    assert main(["scan", "--config", str(cfg)]) == 0
    with open(tmp_path / "scan" / "scan.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    by_point = {int(row["point"]): row for row in rows}
    # grid order: p varies slowest, bond_dim fastest
    assert [by_point[i]["p"] for i in range(4)] == ["0.3", "0.3", "1.5", "1.5"]
    assert [by_point[i]["bond_dim"] for i in range(4)] == ["1", "2", "1", "2"]
    ok = [row for row in rows if row["status"] == "ok"]
    failed = [row for row in rows if row["status"] == "error"]
    assert len(ok) == 2 and len(failed) == 2  # p=1.5 points fail, scan continues
    assert all("ValidationError" in row["message"] for row in failed)
    assert all(row["i_c"] != "" for row in ok)
    point_report = tmp_path / "scan" / "scan" / "point_000" / "report.json"
    assert point_report.exists()


def test_a_scan_with_a_negative_base_seed_exits_before_any_point_runs(
    tmp_path, monkeypatch, capsys
):
    def unreachable(params):
        raise AssertionError("a scan point ran")

    monkeypatch.setattr(ttomo.cli, "synth_target", unreachable)
    out = tmp_path / "neg"
    flags = ["--L", "2", "--train", "100", "--test", "100", "--outdir", str(out)]
    assert main(["scan", *flags, "--seed", "-30000", "--scan-p", "0.5"]) == 1
    assert capsys.readouterr().err == "ttomo: error: seed must be >= 0, got -30000\n"
    assert not (out / "scan.csv").exists()


def test_a_bad_axis_value_fails_its_own_scan_point_only(tmp_path, small_cfg):
    assert main(["scan", "--config", str(small_cfg), "--scan-bond-dim", "2,0"]) == 0
    with open(tmp_path / "run" / "scan.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows] == ["ok", "error"]
    assert [row["bond_dim"] for row in rows] == ["2", "0"]
    assert [row["seed"] for row in rows] == [str(17 + 10007), str(17 + 2 * 10007)]
    assert rows[1]["message"] == "ValidationError: bond_dim must be >= 1, got 0"
    assert (tmp_path / "run" / "scan" / "point_000" / "report.json").exists()
    assert not (tmp_path / "run" / "scan" / "point_001").exists()


def test_an_empty_scan_axis_exits_with_the_validation_code(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["scan", "--scan-p", "", "--outdir", str(out)]) == 1
    assert capsys.readouterr().err == "ttomo: error: scan axis 'scan_p' is empty\n"
    assert not out.exists()


def _scan_outputs(outdir):
    """scan.csv rows and per-point reports, without their timings."""
    with open(outdir / "scan.csv") as fh:
        rows = [dict(row, runtime_s=None) for row in csv.DictReader(fh)]
    reports = {}
    for path in sorted((outdir / "scan").glob("point_*/report.json")):
        reports[path.parent.name] = dict(json.loads(path.read_text()), runtime_s=None)
    return rows, reports


def test_scan_with_two_jobs_matches_one_job(tmp_path):
    base = (
        "L = 2\ntrain = 1500\ntest = 1500\nbond_dim = 2\ntrials = 1\n"
        "max_sweeps = 25\nseed = 3\nscan_p = 0.3, 0.5\n"
    )
    outputs = []
    for jobs in (1, 2):
        cfg = tmp_path / f"jobs{jobs}.cfg"
        cfg.write_text(base + f"jobs = {jobs}\noutdir = {tmp_path / f'jobs{jobs}'}\n")
        assert main(["scan", "--config", str(cfg)]) == 0
        outputs.append(_scan_outputs(tmp_path / f"jobs{jobs}"))
    rows, reports = outputs[0]
    assert len(rows) == 2 and all(row["status"] == "ok" for row in rows)
    assert sorted(reports) == ["point_000", "point_001"]
    assert outputs[1] == outputs[0]


def test_scan_requires_an_axis(tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text(f"outdir = {tmp_path / 's'}\n")
    assert main(["scan", "--config", str(cfg)]) == 1


@pytest.mark.parametrize(
    "bad",
    [
        "ic_target = nan",
        "ic_target = inf",
        "ic_target = 0",
        "ic_target = -0.01",
        "n_start = 0",
        "n_start = 4000\nn_max = 2000",
    ],
)
def test_scan_rejects_a_min_n_search_that_cannot_meet_its_target(tmp_path, monkeypatch, bad):
    def no_fit(*args, **kwargs):
        raise AssertionError("a fit started")

    monkeypatch.setattr(ttomo.cli, "fit", no_fit)
    cfg = tmp_path / "minn.cfg"
    cfg.write_text(
        f"L = 2\noutdir = {tmp_path / 'minn'}\n"
        "min_n_search = true\nn_start = 250\nn_max = 2000\n" + bad + "\n"
    )
    assert main(["scan", "--config", str(cfg)]) == 1
    assert not (tmp_path / "minn" / "scan.csv").exists()


def test_scan_min_n_search(tmp_path, no_worker_thread):
    cfg = tmp_path / "minn.cfg"
    cfg.write_text(
        "L = 2\np = 0.7\nbond_dim = 2\ntrials = 1\nmax_sweeps = 30\nseed = 5\n"
        f"outdir = {tmp_path / 'minn'}\n"
        "min_n_search = true\nic_target = 0.05\nn_start = 250\nn_max = 8000\n"
    )
    assert main(["scan", "--config", str(cfg)]) == 0
    with open(tmp_path / "minn" / "scan.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert row["status"] in ("ok", "threshold-not-reached")
    if row["status"] == "ok":
        assert int(row["min_n"]) >= 250
        assert int(row["n_train"]) == int(row["min_n"])
        assert float(row["i_c"]) <= 0.05


def test_min_n_search_stops_at_n_max(tmp_path, monkeypatch):
    budgets = []

    def never_meets_target(point, train, test, rho, dist):
        budgets.append(train.total)
        return {"i_c": 1.0, "bond_dims": (1, 1, 1)}

    monkeypatch.setattr(ttomo.cli, "_fit_and_score", never_meets_target)
    cfg = tmp_path / "minn.cfg"
    cfg.write_text(
        f"L = 2\noutdir = {tmp_path / 'minn'}\n"
        "min_n_search = true\nic_target = 0.05\nn_start = 3\nn_max = 10\n"
    )
    assert main(["scan", "--config", str(cfg)]) == 0
    assert budgets == [3, 6, 10]
    with open(tmp_path / "minn" / "scan.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert row["status"] == "threshold-not-reached" and row["min_n"] == ""


# Flags of every entry-point case: an L = 3 pipeline, as in the CI run of the console script.
_ENTRY_FLAGS = ["--L", "3", "--train", "2000", "--test", "2000", "--trials", "2",
                "--max-sweeps", "20"]
_SAMPLES_HEADER = "ttsamples 1\nL 3\nN {n}\nseed -\nstream {stream}\nsource -\n"
# A hand-written manifest of an L = 3 snapshot with a line after its last key.
_TRAILING_MANIFEST = "\n".join([
    "ttsnapshot 3", "L 3", "J 1.0", "gamma 1.0", "h 1.0", "p 0.6", "d 8", "trace 1.0",
    "param_hash -", "rho_digest -", "extra junk",
]) + "\n"
# The same snapshot in the version-2 format, which also stored the distribution.
_VERSION_2_MANIFEST = "\n".join([
    "ttsnapshot 2", "L 3", "J 1.0", "gamma 1.0", "h 1.0", "p 0.6", "d 8", "trace 1.0",
    "param_hash -", "dist_digest -", "rho_file rho.npy", "dist_file dist.npy",
]) + "\n"
# In the version-1 format, which also listed an operator chain file.
_VERSION_1_MANIFEST = "\n".join([
    "ttsnapshot 1", "L 3", "J 1.0", "gamma 1.0", "h 1.0", "p 0.6", "mpo_tol 1e-14", "d 8",
    "trace 1.0", "bonds 1 4 4 1", "param_hash -", "dist_digest -", "rho_file rho.npy",
    "mpo_file mpo.tt", "dist_file dist.npy",
]) + "\n"


def _l3_manifest(**edits):
    """A hand-written L = 3 manifest with synth's ``d`` and ``param_hash``, and ``edits``
    applied; those two lines are checked before rho.npy is read."""
    param_hash = hashlib.sha256(b"L=3,J=1.0,gamma=1.0,h=1.0,p=0.6").hexdigest()
    values = {"L": "3", "J": "1.0", "gamma": "1.0", "h": "1.0", "p": "0.6", "d": "8",
              "trace": "1.0", "param_hash": param_hash, "rho_digest": "-"} | edits
    return "\n".join(["ttsnapshot 3"] + [f"{key} {value}" for key, value in values.items()]) + "\n"


# Each case: the file it writes, or None; the file's text; the command line before
# the pipeline flags, where {file} and {dir} name the file and its directory; the exit
# code; and the error line after "ttomo: error: ", with {file} likewise.
_ENTRY_POINT_CASES = {
    "non-finite eps": (
        None, "", ["fit", "--eps", "nan"], 1, "eps must be finite and > 0, got nan",
    ),
    "depolarizing strength above one": (
        None, "", ["fit", "--p", "2"], 1, "depolarizing strength must lie in [0, 1], got 2.0",
    ),
    "count beyond int64": (
        "overflowing.samples",
        _SAMPLES_HEADER.format(n=1, stream=0) + "012 99999999999999999999\n",
        ["fit", "--data", "{file}"], 3, "{file}:7: bad multiplicity '99999999999999999999'",
    ),
    "counts whose sum wraps int64 to N": (
        "wrapped.samples",
        _SAMPLES_HEADER.format(n=5, stream=0) + "000 4611686018427387904\n"
        "001 4611686018427387904\n002 4611686018427387904\n003 4611686018427387909\n",
        ["fit", "--data", "{file}"], 3,
        "{file}:6: multiplicities sum to 18446744073709551621, recorded total is 5",
    ),
    "empty test set": (
        "empty.samples", _SAMPLES_HEADER.format(n=0, stream=0), ["evaluate", "--data", "{file}"],
        1, "cannot score an empty test set",
    ),
    "negative stream": (
        "negative.samples", _SAMPLES_HEADER.format(n=1, stream=-1) + "012 1\n",
        ["fit", "--data", "{file}"], 3, "{file}:5: bad header value: stream must be >= 0, got -1",
    ),
    "train with a zero bond": (
        "zero_bond.tt",
        "tttensor 1\nkind tt\nL 3\nbonds 1 0 1 1\ncore\ncore\ncore 0.25 0.25 0.25 0.25\n",
        ["evaluate", "--tt", "{file}"], 3, "{file}:4: bad header value: bond must be >= 1, got 0",
    ),
    "empty training set": (
        "empty.samples", _SAMPLES_HEADER.format(n=0, stream=0), ["fit", "--data", "{file}"],
        1, "cannot fit an empty sample set",
    ),
    "manifest line after the last key": (
        "snapshot/manifest.txt", _TRAILING_MANIFEST, ["sample", "--snapshot", "{dir}"], 3,
        "{file}:11: trailing content after last key",
    ),
    "manifest edited to another p": (
        "snapshot/manifest.txt", _l3_manifest(p="0.9"), ["sample", "--snapshot", "{dir}"], 3,
        "{file}:9: param_hash does not match the target fields",
    ),
    "manifest edited to a d that is not 2^L": (
        "snapshot/manifest.txt", _l3_manifest(d="5"), ["sample", "--snapshot", "{dir}"], 3,
        "{file}:7: d 5 is not 2^L = 8",
    ),
    "manifest edited to another param_hash": (
        "snapshot/manifest.txt", _l3_manifest(param_hash="nonsense"),
        ["evaluate", "--snapshot", "{dir}"], 3,
        "{file}:9: param_hash does not match the target fields",
    ),
    "version-1 snapshot": (
        "snapshot/manifest.txt", _VERSION_1_MANIFEST, ["sample", "--snapshot", "{dir}"], 3,
        "{file}:1: expected header 'ttsnapshot 3'",
    ),
    "version-2 snapshot": (
        "snapshot/manifest.txt", _VERSION_2_MANIFEST, ["evaluate", "--snapshot", "{dir}"], 3,
        "{file}:1: expected header 'ttsnapshot 3'",
    ),
    "config key of the removed truncation tolerance": (
        "old.cfg", "mpo_tol = 1e-14\n", ["synth", "--config", "{file}"], 3,
        "{file}:1: unknown key 'mpo_tol'",
    ),
}


@pytest.fixture(scope="module")
def entry_run(tmp_path_factory):
    """A synth, sample and fit run with the entry-point flags, for the cases that read it."""
    outdir = tmp_path_factory.mktemp("entry") / "run"
    for command in ("synth", "sample", "fit"):
        assert main([command, *_ENTRY_FLAGS, "--outdir", str(outdir)]) == 0
    return outdir


@pytest.mark.parametrize("case", list(_ENTRY_POINT_CASES))
def test_the_entry_point_exits_with_the_documented_code(tmp_path, entry_run, case):
    name, text, argv, code, message = _ENTRY_POINT_CASES[case]
    path = tmp_path / (name or "unused")
    if name is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    argv = [arg.format(file=path, dir=path.parent) for arg in argv]
    src = str(Path(ttomo.cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    command = [sys.executable, "-m", "ttomo.cli", *argv, *_ENTRY_FLAGS, "--outdir", str(entry_run)]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=300)
    # the exact line, since a traceback exits 1 too
    assert (done.returncode, done.stderr) == (code, f"ttomo: error: {message.format(file=path)}\n")


def test_the_removed_truncation_tolerance_flag_is_an_unrecognized_argument(capsys):
    # argparse prints its usage before the error line, so this case is not in the table above
    with pytest.raises(SystemExit) as exited:
        main(["synth", "--mpo-tol", "1e-14"])
    assert exited.value.code == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == "ttomo: error: unrecognized arguments: --mpo-tol 1e-14"
