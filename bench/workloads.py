"""Workloads of the ttomo benchmark, the untraced measurement, and output checks.

Every workload is an XXZ ground state (J = gamma = h = 1) under depolarizing
noise p = 0.6, fitted with the ``FitConfig`` defaults (D = 10) except for the
trial count and sweep budget. A run repeats the whole pipeline (set-up, fit,
evaluation) until its time window is spent and reports per-pass medians. All
passes of a run use the same inputs, so every pass must reproduce the first
one bit for bit.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import resource
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import ttomo
from ttomo import cli

NOISE = 0.6
MIN_PASSES = 3
# Acceptance criterion 4: Hermitian with unit trace within this tolerance.
HERM_TOL = 1e-10
# A from-scratch loss carries round-off of a few ulps; a rise beyond this
# share of the loss magnitude is a real increase.
LOSS_RISE_RTOL = 1e-12

END_TO_END = {
    "setup_s": "s",
    "fit_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "states.synth_s": "s",
    "states.outcome_dist_s": "s",
    "sampling.sample_s": "s",
    "sampling.draws_per_s": "1/s",
    "sampling.n_distinct": "count",
    "fit.env_build_s": "s",
    "fit.update_s": "s",
    "fit.update_calls": "count",
    "fit.refresh_s": "s",
    "fit.update_gflop_computed": "GFLOP",
    "fit.update_gflops": "GFLOP/s",
    "fit.env_bytes_computed": "B",
    "fit.distinct_env_ratio": "ratio",
    "fit.loss_s": "s",
    "fit.loss_calls": "count",
    "fit.sweeps": "count",
    "fit.converged_trials": "count",
    "fit.sweep_ms": "ms",
    "fit.loss_gap": "loss",
    "networks.evaluate_s": "s",
    "density.normalize_s": "s",
    "density.tt_to_mpo_s": "s",
    "density.mpo_to_dense_s": "s",
    "metrics.quantum_fidelity_s": "s",
    "metrics.classical_fidelity_s": "s",
    "metrics.i_q": "1",
    "metrics.i_c": "1",
    "storage.save_samples_s": "s",
    "storage.load_samples_s": "s",
    "storage.samples_bytes": "B",
    "cli.synth_s": "s",
    "cli.sample_s": "s",
    "cli.fit_s": "s",
    "cli.evaluate_s": "s",
    "trace.untraced_fit_s": "s",
    "trace.overhead_s": "s",
}

CLI_COMMANDS = ("synth", "sample", "fit", "evaluate")


@dataclass(frozen=True)
class Workload:
    """One benchmark input: target size, draws per dataset, fit budget."""

    name: str
    L: int
    draws: int
    trials: int
    max_sweeps: int
    via_cli: bool = False
    ic_gate: float | None = None

    def params(self) -> ttomo.XxzParams:
        return ttomo.XxzParams(L=self.L, p=NOISE)

    def fit_config(self, seed: int) -> ttomo.FitConfig:
        return ttomo.FitConfig(trials=self.trials, max_sweeps=self.max_sweeps, seed=seed)

    def cli_flags(self, seed: int, outdir: Path) -> list:
        return [
            "--L", str(self.L), "--p", repr(NOISE),
            "--train", str(self.draws), "--test", str(self.draws),
            "--trials", str(self.trials), "--max-sweeps", str(self.max_sweeps),
            "--seed", str(seed), "--outdir", str(outdir), "--jobs", "1",
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # Acceptance headline: 256 distinct strings, so per-call overhead and
        # the sweep count set the cost; the stop rule runs as shipped.
        Workload("flagship-L4", L=4, draws=10**6, trials=2, max_sweeps=2000, ic_gate=1e-2),
        # 65534 distinct strings: sample-proportional environment work
        # dominates. With a stop window of 10 the rule is checked once, after
        # sweep 10, against the initial loss, so it never fires.
        Workload("wide-L8", L=8, draws=10**6, trials=2, max_sweeps=10),
        # Slice of the full-scale config through the CLI: 30M draws per
        # dataset, written to and read back from the text format.
        Workload("fullscale-L6", L=6, draws=30 * 10**6, trials=2, max_sweeps=300, via_cli=True),
    )
}


def program_seed(seed: int) -> int:
    """Seed handed to ttomo for sampling and trial inits.

    Trial t starts from ``program_seed + t``; hashing the workload seed keeps
    neighbouring workload seeds from sharing trial inits.
    """
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


# -- checks --------------------------------------------------------------------


def core_problems(tt: ttomo.TTDistribution) -> list:
    """Every core must be finite and elementwise nonnegative."""
    problems = []
    for l, core in enumerate(tt.cores):
        if not np.all(np.isfinite(core)):
            problems.append(f"core {l} has non-finite entries")
        elif core.min() < 0.0:
            problems.append(f"core {l} has a negative entry {core.min():.3e}")
    return problems


def loss_problems(losses) -> list:
    """Per-sweep losses must never increase."""
    losses = np.asarray(losses, dtype=float)
    if not np.all(np.isfinite(losses)):
        return ["non-finite loss"]
    rise = np.diff(losses) - LOSS_RISE_RTOL * np.abs(losses[1:])
    if rise.size and rise.max() > 0.0:
        i = int(np.argmax(rise))
        return [f"loss rose from {losses[i]!r} to {losses[i + 1]!r} at sweep {i + 1}"]
    return []


def reconstruction_problems(rho_hat: np.ndarray) -> list:
    """The reconstruction must be Hermitian with unit trace within HERM_TOL."""
    problems = []
    herm = float(np.linalg.norm(rho_hat - rho_hat.conj().T) / np.linalg.norm(rho_hat))
    if not herm <= HERM_TOL:
        problems.append(f"relative Hermiticity residual {herm:.3e} > {HERM_TOL}")
    trace_dev = abs(complex(np.trace(rho_hat)) - 1.0)
    if not trace_dev <= HERM_TOL:
        problems.append(f"trace deviation {trace_dev:.3e} > {HERM_TOL}")
    return problems


def gate_problems(workload: Workload, i_c: float) -> list:
    if workload.ic_gate is not None and not i_c <= workload.ic_gate:
        return [f"best I_c {i_c:.3e} exceeds the gate {workload.ic_gate}"]
    return []


class Tally:
    """Operations attempted and failed, with the reason of every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, op: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{op}: {p}" for p in problems)


# -- pipeline pieces -----------------------------------------------------------


POVM = ttomo.tetrahedral_povm()


def setup(workload: Workload, seed: int):
    rho = ttomo.synth_target(workload.params())
    dist = ttomo.exact_outcome_distribution(rho, POVM)
    train, test = ttomo.split_train_test(dist, workload.draws, seed)
    return rho, dist, train, test


def reconstruct(tt: ttomo.TTDistribution):
    """Unit-mass model and its dense density matrix."""
    model = ttomo.normalize_tt(tt)
    return model, ttomo.mpo_to_dense(ttomo.tt_to_mpo(model, POVM))


def score(tt, rho, dist, test) -> tuple:
    """(rho_hat, I_q, I_c) of a fitted train."""
    model, rho_hat = reconstruct(tt)
    i_q = ttomo.quantum_fidelity(rho_hat, rho).infidelity
    i_c = ttomo.classical_fidelity(model, dist, test).infidelity
    return rho_hat, i_q, i_c


def run_cli(command: str, flags: list) -> int:
    """One ``ttomo`` subcommand in this process, its progress line discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([command] + flags)


def read_loss_trace(path: Path) -> np.ndarray:
    with open(path, newline="", encoding="ascii") as fh:
        return np.array([float(row["loss"]) for row in csv.DictReader(fh)])


def record_trials(tally, losses_by_trial, trains: dict, best: int, best_problems) -> None:
    """One operation per trial; the best trial also carries the evaluation checks.

    ``trains`` maps a trial index to its fitted train wherever the run has it.
    """
    for t, losses in enumerate(losses_by_trial):
        problems = loss_problems(losses)
        if t in trains:
            problems += core_problems(trains[t])
        if t == best:
            problems += best_problems
        tally.record(f"trial {t}", problems)


def rerun_problems(fingerprint, reference) -> list:
    if reference is not None and fingerprint != reference:
        return ["results differ from the first pass on the same inputs"]
    return []


def library_pass(workload: Workload, seed: int, workdir: Path, tally: Tally, reference) -> tuple:
    """Set-up, fit and evaluation through the library API."""
    t0 = time.perf_counter()
    rho, dist, train, test = setup(workload, seed)
    t1 = time.perf_counter()
    result = ttomo.fit(train, workload.fit_config(seed))
    t2 = time.perf_counter()
    rho_hat, i_q, i_c = score(result.best.tt, rho, dist, test)
    t3 = time.perf_counter()
    losses = [trial.losses for trial in result.trials]
    fingerprint = (i_q, i_c, tuple(x.tobytes() for x in losses))
    best_problems = (
        reconstruction_problems(rho_hat)
        + gate_problems(workload, i_c)
        + rerun_problems(fingerprint, reference)
    )
    trains = {t: trial.tt for t, trial in enumerate(result.trials)}
    record_trials(tally, losses, trains, result.best_index, best_problems)
    return {"setup_s": t1 - t0, "fit_s": t2 - t1, "total_s": t3 - t0}, fingerprint


def cli_pass(workload: Workload, seed: int, workdir: Path, tally: Tally, reference) -> tuple:
    """synth, sample, fit and evaluate as ``ttomo`` subcommands.

    Returns (None, None) after a subcommand exits non-zero.
    """
    outdir = workdir / "cli"
    flags = workload.cli_flags(seed, outdir)
    seconds = {}
    for command in CLI_COMMANDS:
        start = time.perf_counter()
        code = run_cli(command, flags)
        seconds[command] = time.perf_counter() - start
        tally.record(f"cli {command}", [] if code == 0 else [f"exit code {code}"])
        if code != 0:
            return None, None
    report = json.loads((outdir / "report.json").read_text(encoding="ascii"))
    best_tt = ttomo.load_tensor(outdir / "fit" / "best.tt")
    _, rho_hat = reconstruct(best_tt)
    with open(outdir / "fit" / "trials.csv", newline="", encoding="ascii") as fh:
        best = int(next(row for row in csv.DictReader(fh) if row["rank"] == "0")["trial"])
    losses = [
        read_loss_trace(outdir / "fit" / f"trial_{t:03d}_loss.csv") for t in range(workload.trials)
    ]
    fingerprint = (report["i_q"], report["i_c"], tuple(x.tobytes() for x in losses))
    best_problems = (
        reconstruction_problems(rho_hat)
        + gate_problems(workload, report["i_c"])
        + rerun_problems(fingerprint, reference)
    )
    # The CLI keeps only the best trial's train.
    record_trials(tally, losses, {best: best_tt}, best, best_problems)
    setup_s = seconds["synth"] + seconds["sample"]
    return {"setup_s": setup_s, "fit_s": seconds["fit"], "total_s": sum(seconds.values())}, fingerprint


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Workload, seed: int, seconds: float, workdir: Path) -> tuple:
    """Untraced passes until ``seconds`` are spent (at least MIN_PASSES).

    Returns (end-to-end metric values, tally, per-pass timings).
    """
    run_pass = cli_pass if workload.via_cli else library_pass
    tally = Tally()
    rows = []
    reference = None
    start = time.perf_counter()
    while len(rows) < MIN_PASSES or time.perf_counter() - start < seconds:
        try:
            row, fingerprint = run_pass(workload, program_seed(seed), workdir, tally, reference)
        except Exception as exc:  # the run reports the failure instead of crashing
            traceback.print_exc()
            tally.record("pass", [f"{type(exc).__name__}: {exc}"])
            break
        if row is None:
            break
        reference = reference or fingerprint
        rows.append(row)
    if not rows:
        return None, tally, {}
    per_pass = {name: [row[name] for row in rows] for name in rows[0]}
    values = {name: statistics.median(xs) for name, xs in per_pass.items()}
    values["peak_rss_mb"] = peak_rss_mb()
    return values, tally, per_pass
