"""Command-line pipeline, config precedence, and exit codes.

All commands run in-process through main() so exit codes are observable
without spawning interpreters, except where a test needs a setting that is
read once per process, such as the BLAS thread count.
"""

import csv
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import ttomo.cli
from ttomo.cli import ExperimentConfig, build_config, build_parser, load_config_file, main
from ttomo.errors import CapacityError, DataFormatError
from ttomo.fitting import FitResult, TrialResult
from ttomo.networks import TTDistribution
from ttomo.sampling import SampleSet, sample_dataset, save_samples
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

    manifest = (run / "target" / "manifest.txt").read_text()
    assert manifest.startswith("ttsnapshot 1\n")
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


def test_synth_is_byte_deterministic(tmp_path, small_cfg):
    assert main(["synth", "--config", str(small_cfg)]) == 0
    out = tmp_path / "run" / "target"
    first = {name: (out / name).read_bytes() for name in ("rho.npy", "dist.npy", "mpo.tt", "manifest.txt")}
    assert main(["synth", "--config", str(small_cfg)]) == 0
    for name, blob in first.items():
        assert (out / name).read_bytes() == blob


def test_exit_codes(tmp_path, small_cfg):
    assert main(["synth", "--config", str(small_cfg), "--p", "1.5"]) == 1
    assert main(["synth", "--config", str(small_cfg), "--L", "15"]) == 2
    assert main(["fit", "--config", str(small_cfg), "--data", str(tmp_path / "nope")]) == 3
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense = 1\n")
    assert main(["synth", "--config", str(bad)]) == 3


def test_negative_seed_exits_with_a_validation_error(tmp_path, small_cfg, capsys):
    assert main(["synth", "--config", str(small_cfg)]) == 0
    assert main(["sample", "--config", str(small_cfg), "--seed", "-1"]) == 1
    assert main(["sample", "--config", str(small_cfg)]) == 0
    assert main(["fit", "--config", str(small_cfg), "--seed", "-1"]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2
    assert all(line.startswith("ttomo: error: seed must be >= 0") for line in errors)


def _replace_dist(tmp_path, dist):
    """Write ``dist`` into the snapshot and record its digest in the manifest."""
    np.save(tmp_path / "run" / "target" / "dist.npy", dist)
    _edit_manifest(tmp_path, "dist_digest", hashlib.sha256(dist.tobytes()).hexdigest())


def test_non_finite_values_exit_with_a_validation_error(tmp_path, small_cfg, capsys):
    assert main(["synth", "--config", str(small_cfg)]) == 0
    dist = np.load(tmp_path / "run" / "target" / "dist.npy")
    dist[0] = np.nan
    _replace_dist(tmp_path, dist)
    assert main(["sample", "--config", str(small_cfg)]) == 1
    assert main(["synth", "--config", str(small_cfg)]) == 0
    assert main(["sample", "--config", str(small_cfg)]) == 0
    assert main(["fit", "--config", str(small_cfg), "--eps", "nan"]) == 1
    assert main(["synth", "--config", str(small_cfg), "--J", "nan"]) == 1
    assert main(["synth", "--config", str(small_cfg), "--mpo-tol", "nan"]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert errors == [
        "ttomo: error: distribution has non-finite entries",
        "ttomo: error: eps must be finite and > 0, got nan",
        "ttomo: error: J must be finite, got nan",
        "ttomo: error: truncation tolerance must be finite and >= 0, got nan",
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


def test_the_outcome_guard_fails_before_the_target_is_built(tmp_path, small_cfg, monkeypatch):
    def unreachable(params):
        raise AssertionError("the dense target was built above the guard")

    monkeypatch.setattr(ttomo.cli, "synth_target", unreachable)
    assert main(["synth", "--config", str(small_cfg), "--L", "11"]) == 2
    assert main(["scan", "--config", str(small_cfg), "--scan-L", "11"]) == 0
    with open(tmp_path / "run" / "scan.csv") as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["status"] == "error"
    assert row["message"] == "CapacityError: dense distribution guard is L <= 10, got 11"


def test_synth_checks_the_truncation_tolerance_before_the_target_is_built(
    tmp_path, small_cfg, monkeypatch, capsys
):
    def unreachable(params):
        raise AssertionError("the dense target was built before the tolerance check")

    monkeypatch.setattr(ttomo.cli, "synth_target", unreachable)
    for tol in ("nan", "-1e-14"):
        assert main(["synth", "--config", str(small_cfg), f"--mpo-tol={tol}"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "ttomo: error: truncation tolerance must be finite and >= 0, got nan",
        "ttomo: error: truncation tolerance must be finite and >= 0, got -1e-14",
    ]
    assert not (tmp_path / "run" / "target").exists()


def test_evaluate_above_the_dense_guard_exits_with_the_capacity_code(tmp_path, small_cfg, capsys):
    # a hand-built L = 11 snapshot: evaluate stops at the dense operator guard
    assert main(["synth", "--config", str(small_cfg)]) == 0
    _edit_manifest(tmp_path, "L", "11")
    strings = np.zeros((1, 11), dtype=np.uint8)
    test_file = tmp_path / "test.samples"
    save_samples(SampleSet(L=11, total=1, strings=strings, counts=[1]), test_file)
    tt_file = tmp_path / "long.tt"
    save_tensor(tt_file, TTDistribution([np.full((4, 1, 1), 0.25)] * 11))
    argv = ["--config", str(small_cfg), "--tt", str(tt_file), "--data", str(test_file)]
    assert main(["evaluate"] + argv) == 2
    assert "dense operator guard is L <= 10, got 11" in capsys.readouterr().err
    assert not (tmp_path / "run" / "report.json").exists()


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
        ttomo.cli._evaluate_tt(RUINED, rho, np.full(16, 1 / 16), test)


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
    for name, command in (("dist.npy", "sample"), ("rho.npy", "evaluate")):
        blob = (target / name).read_bytes()
        (target / name).write_bytes(blob[:40])
        assert main([command, "--config", str(small_cfg)]) == 3
        (target / name).write_bytes(blob)
    manifest = target / "manifest.txt"
    manifest.write_bytes(manifest.read_bytes().replace(b"L 2", b"L \xb2"))
    assert main(["sample", "--config", str(small_cfg)]) == 3
    dist_error, rho_error, manifest_error = capsys.readouterr().err.splitlines()
    assert dist_error.startswith(f"ttomo: error: {target / 'dist.npy'}: not a readable .npy")
    assert rho_error.startswith(f"ttomo: error: {target / 'rho.npy'}: not a readable .npy")
    assert manifest_error == f"ttomo: error: {manifest}:2: byte 0xb2 is not ascii text"


def test_fit_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # 65k distinct strings make every sum over samples long enough for a
    # threaded BLAS to split it; the thread count is read once per process
    dist = 1.0 + np.random.default_rng(3).random(4**8)
    samples = sample_dataset(dist / dist.sum(), 10**6, seed=3)
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


def test_evaluate_rejects_length_mismatch(tmp_path, small_cfg):
    assert main(["synth", "--config", str(small_cfg)]) == 0
    assert main(["sample", "--config", str(small_cfg)]) == 0
    fit_dir = tmp_path / "run" / "fit"
    fit_dir.mkdir(parents=True)
    wrong = TTDistribution([np.full((4, 1, 1), 0.25)] * 3)
    save_tensor(fit_dir / "best.tt", wrong)
    assert main(["evaluate", "--config", str(small_cfg)]) == 1


def _edit_manifest(tmp_path, key, value):
    """Drop the snapshot manifest's ``key`` line or set it to ``value``."""
    path = tmp_path / "run" / "target" / "manifest.txt"
    lines = path.read_text().splitlines()
    lines = [line for line in lines if line.split()[0] != key]
    path.write_text("\n".join(lines + ([f"{key} {value}"] if value else [])) + "\n")


def test_sample_reports_a_manifest_without_dist_file(tmp_path, small_cfg, capsys):
    assert main(["synth", "--config", str(small_cfg)]) == 0
    _edit_manifest(tmp_path, "dist_file", None)
    assert main(["sample", "--config", str(small_cfg)]) == 3
    assert "manifest.txt: missing key 'dist_file'" in capsys.readouterr().err


def test_a_distribution_that_does_not_match_its_manifest_exits_with_the_format_code(
    tmp_path, small_cfg, capsys
):
    for command in ("synth", "sample", "fit"):
        assert main([command, "--config", str(small_cfg)]) == 0
    target = tmp_path / "run" / "target"
    dist = np.load(target / "dist.npy")
    np.save(target / "dist.npy", dist[::-1])
    assert main(["sample", "--config", str(small_cfg)]) == 3
    assert main(["evaluate", "--config", str(small_cfg)]) == 3
    np.save(target / "dist.npy", dist)
    _edit_manifest(tmp_path, "dist_digest", None)
    assert main(["sample", "--config", str(small_cfg)]) == 3
    manifest = target / "manifest.txt"
    assert capsys.readouterr().err.splitlines() == [
        f"ttomo: error: {manifest}: dist.npy does not match dist_digest",
        f"ttomo: error: {manifest}: dist.npy does not match dist_digest",
        f"ttomo: error: {manifest}: missing key 'dist_digest'",
    ]


def test_read_snapshot_checks_the_distribution_digest(tmp_path, small_cfg):
    assert main(["synth", "--config", str(small_cfg)]) == 0
    cfg = ExperimentConfig(L=2, p=0.5, outdir=str(tmp_path / "run"))
    target = tmp_path / "run" / "target"
    L, rho_file, dist = ttomo.cli._read_snapshot(cfg, None)
    assert (L, rho_file) == (2, target / "rho.npy")
    assert dist.tobytes() == np.load(target / "dist.npy").tobytes()
    dist[0] *= 0.5
    np.save(target / "dist.npy", dist)
    with pytest.raises(DataFormatError, match="manifest.txt: dist.npy does not match dist_digest"):
        ttomo.cli._read_snapshot(cfg, target)


def test_evaluate_reports_a_manifest_with_a_non_integer_length(tmp_path, small_cfg, capsys):
    for command in ("synth", "sample", "fit"):
        assert main([command, "--config", str(small_cfg)]) == 0
    _edit_manifest(tmp_path, "L", "two")
    assert main(["evaluate", "--config", str(small_cfg)]) == 3
    assert "manifest.txt: L must be a positive integer, got 'two'" in capsys.readouterr().err


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


def test_scan_grid_and_error_recovery(tmp_path):
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


def test_scan_records_a_negative_point_seed_as_an_error(tmp_path):
    out = tmp_path / "neg"
    flags = ["--L", "2", "--train", "100", "--test", "100", "--outdir", str(out)]
    assert main(["scan", *flags, "--seed", "-30000", "--scan-p", "0.5"]) == 0
    with open(out / "scan.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["status"] == "error"
    assert rows[0]["message"].startswith("ValidationError: seed must be >= 0")


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


def test_scan_min_n_search(tmp_path):
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
