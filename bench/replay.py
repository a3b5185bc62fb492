"""Traced run: per-layer spans and counts from the benchmark's own files.

The fit is replayed through public calls (``init_tt``, ``EnvCache``,
``update_core``, ``EnvCache.refresh_left/right``, ``loss`` and the stop rule)
in the order ``fit_single`` and ``sweep`` use, with a span around each call.
The replay must reproduce ``fit_single``'s per-sweep losses bit for bit;
otherwise the trace is stale and the run fails that check. Spans are kept in
memory and written to one JSON file when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

import numpy as np

import ttomo
from workloads import (
    CLI_COMMANDS,
    POVM,
    Tally,
    Workload,
    core_problems,
    gate_problems,
    loss_problems,
    program_seed,
    reconstruction_problems,
    run_cli,
)


class Spans:
    """Nested spans (name, start, end, parent) recorded in memory."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._open = []

    def begin(self, name: str) -> None:
        self._open.append(len(self.names))
        self.parents.append(self._open[-2] if len(self._open) > 1 else -1)
        self.names.append(name)
        self.ends.append(float("nan"))
        self.starts.append(time.perf_counter())

    def end(self) -> None:
        self.ends[self._open.pop()] = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def durations(self) -> np.ndarray:
        return np.array(self.ends) - np.array(self.starts)

    def self_times(self) -> np.ndarray:
        """Duration minus the part covered by direct children."""
        dur = self.durations()
        parents = np.array(self.parents, dtype=np.int64)
        child = parents >= 0
        covered = np.bincount(parents[child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def totals(self) -> dict:
        """Per span name: call count, inclusive seconds, self seconds."""
        dur, own = self.durations(), self.self_times()
        out = {}
        for i, name in enumerate(self.names):
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + dur[i], self_s + own[i])
        return out

    def write(self, path: Path) -> None:
        rows = list(zip(self.names, self.starts, self.ends, self.parents))
        totals = {k: {"calls": c, "total_s": t, "self_s": s} for k, (c, t, s) in self.totals().items()}
        path.write_text(json.dumps({"spans": rows, "totals": totals}) + "\n", encoding="ascii")


# -- work counts -----------------------------------------------------------------


def overlap_step_flops(n: int, d_in: int, d_out: int) -> int:
    return 2 * n * d_in * d_out


def update_flops(cache: ttomo.EnvCache, dims: tuple, n: int, k: int) -> int:
    """Floating-point work of ``update_core(k)`` with the cache as it stands.

    Counts the overlap rows rebuilt from the nearest stored position, the
    sample-weighted numerator, the Gram-sandwich denominator and the ratio.
    """
    dl, dr = dims[k], dims[k + 1]
    flops = n * dl + 2 * n * dl * dr + 4 * 2 * (dl * dl * dr + dl * dr * dr) + 3 * 4 * dl * dr
    start = max(q for q in cache.stored_left_overlap_positions if q <= k)
    flops += sum(overlap_step_flops(n, dims[q], dims[q + 1]) for q in range(start, k))
    stop = min(q for q in cache.stored_right_overlap_positions if q >= k + 1)
    flops += sum(overlap_step_flops(n, dims[q + 1], dims[q]) for q in range(k + 1, stop))
    return flops


def env_bytes(cache: ttomo.EnvCache, dims: tuple, n: int) -> int:
    """Bytes of the per-sample overlap vectors the cache holds right now."""
    left = sum(n * dims[p] * 8 for p in cache.stored_left_overlap_positions)
    right = sum(n * dims[p] * 8 for p in cache.stored_right_overlap_positions)
    return left + right


def distinct_env_ratio(samples: ttomo.SampleSet) -> float:
    """Distinct prefixes and suffixes over per-sample rows, interior boundaries.

    A left environment depends only on the string's prefix and a right one
    only on its suffix, so this is the share of per-sample environment rows
    that a prefix/suffix-shared store would keep.
    """
    strings, L, n = samples.strings, samples.L, samples.n_distinct
    if L < 2:
        return 1.0
    distinct = 0
    for p in range(1, L):
        distinct += np.unique(strings[:, :p], axis=0).shape[0]
        distinct += np.unique(strings[:, p:], axis=0).shape[0]
    return distinct / (2 * (L - 1) * n)


# -- the replay ------------------------------------------------------------------


def replay_trial(samples: ttomo.SampleSet, config: ttomo.FitConfig, seed: int, spans: Spans):
    """``fit_single`` through public calls, one span per call.

    Returns (tt, losses, converged, counts) where counts holds the computed
    update FLOPs and the peak stored overlap bytes seen in the first sweep.
    """
    L, n, eps = samples.L, samples.n_distinct, config.eps
    counts = {"flops": 0, "env_bytes": 0}
    spans.begin("fit.trial")
    with spans.span("fit.init_tt"):
        tt = ttomo.init_tt(L, config.bond_dim, seed)
    with spans.span("fit.env_build"):
        cache = ttomo.EnvCache(tt, samples)
    dims = tt.bond_dims
    counts["env_bytes"] = env_bytes(cache, dims, n)

    def update(k: int, first_sweep: bool) -> None:
        counts["flops"] += update_flops(cache, dims, n, k)
        with spans.span("fit.update_core"):
            ttomo.update_core(tt, cache, samples, k, eps)
        if first_sweep:
            counts["env_bytes"] = max(counts["env_bytes"], env_bytes(cache, dims, n))

    def refresh(name: str, method, k: int, first_sweep: bool) -> None:
        with spans.span(name):
            method(k)
        if first_sweep:
            counts["env_bytes"] = max(counts["env_bytes"], env_bytes(cache, dims, n))

    with spans.span("fit.loss"):
        losses = [ttomo.loss(tt, samples)]
    converged = False
    for i in range(config.max_sweeps):
        first = i == 0
        with spans.span("fit.sweep"):
            if L == 1:
                update(0, first)
            else:
                for k in range(L - 1):
                    update(k, first)
                    refresh("fit.refresh_left", cache.refresh_left, k, first)
                for k in range(L - 1, 0, -1):
                    update(k, first)
                    refresh("fit.refresh_right", cache.refresh_right, k, first)
        with spans.span("fit.loss"):
            losses.append(ttomo.loss(tt, samples))
        if len(losses) > config.stop_window:
            gain = losses[-1 - config.stop_window] - losses[-1]
            if gain <= config.stop_rtol * max(abs(losses[-1]), 1e-300):
                converged = True
                break
    spans.end()
    return tt, np.array(losses), converged, counts


def traced_run(workload: Workload, seed: int, workdir: Path, trace_path: Path) -> tuple:
    """One traced pass of the workload; returns (per-layer metrics, tally)."""
    seed = program_seed(seed)
    config = workload.fit_config(seed)
    spans = Spans()
    tally = Tally()
    m = {}

    with spans.span("states.synth"):
        rho = ttomo.synth_target(workload.params())
    with spans.span("states.outcome_dist"):
        dist = ttomo.exact_outcome_distribution(rho, POVM)
    with spans.span("sampling.sample"):
        train, test = ttomo.split_train_test(dist, workload.draws, seed)

    paths = [workdir / "train.samples", workdir / "test.samples"]
    with spans.span("storage.save_samples"):
        for sset, path in zip((train, test), paths):
            ttomo.save_samples(sset, path)
    with spans.span("storage.load_samples"):
        loaded = [ttomo.load_samples(path) for path in paths]
    same = all(
        np.array_equal(a.strings, b.strings) and np.array_equal(a.counts, b.counts)
        for a, b in zip((train, test), loaded)
    )
    tally.record("storage roundtrip", [] if same else ["loaded samples differ from saved"])
    m["storage.samples_bytes"] = sum(path.stat().st_size for path in paths)

    start = time.perf_counter()
    result = ttomo.fit(train, config)
    untraced_fit_s = time.perf_counter() - start

    with spans.span("fit"):
        replays = [
            replay_trial(train, config, config.seed + t, spans) for t in range(config.trials)
        ]
    best = result.best_index
    with spans.span("density.normalize"):
        model = ttomo.normalize_tt(result.best.tt)
    with spans.span("density.tt_to_mpo"):
        mpo = ttomo.tt_to_mpo(model, POVM)
    with spans.span("density.mpo_to_dense"):
        rho_hat = ttomo.mpo_to_dense(mpo)
    with spans.span("metrics.quantum_fidelity"):
        i_q = ttomo.quantum_fidelity(rho_hat, rho).infidelity
    with spans.span("networks.evaluate"):
        model.evaluate(test.strings)
    with spans.span("metrics.classical_fidelity"):
        i_c = ttomo.classical_fidelity(model, dist, test).infidelity

    best_problems = reconstruction_problems(rho_hat) + gate_problems(workload, i_c)
    for t, (trial, (tt, losses, converged, _)) in enumerate(zip(result.trials, replays)):
        problems = loss_problems(trial.losses) + core_problems(trial.tt)
        same_cores = all(np.array_equal(a, b) for a, b in zip(tt.cores, trial.tt.cores))
        if not (np.array_equal(losses, trial.losses) and converged == trial.converged and same_cores):
            problems.append("stale trace: replayed losses or cores differ from fit_single")
        if t == best:
            problems += best_problems
        tally.record(f"trial {t}", problems)

    # The same pipeline through the CLI must land on the library's numbers.
    outdir = workdir / "cli"
    flags = workload.cli_flags(seed, outdir)
    for command in CLI_COMMANDS:
        with spans.span(f"cli.{command}"):
            code = run_cli(command, flags)
        problems = [] if code == 0 else [f"exit code {code}"]
        if code == 0 and command == "evaluate":
            report = json.loads((outdir / "report.json").read_text(encoding="ascii"))
            if (report["i_q"], report["i_c"]) != (i_q, i_c):
                problems.append(f"CLI I_q, I_c {report['i_q']}, {report['i_c']} != library {i_q}, {i_c}")
        tally.record(f"cli {command}", problems)
        if code != 0:
            break

    totals = spans.totals()
    spans.write(trace_path)

    def seconds(*names):
        return sum(totals[name][1] for name in names if name in totals)

    def calls(name):
        return totals[name][0] if name in totals else 0

    for name in ("states.synth", "states.outcome_dist", "sampling.sample", "fit.env_build",
                 "fit.loss", "networks.evaluate", "density.normalize", "density.tt_to_mpo",
                 "density.mpo_to_dense", "metrics.quantum_fidelity",
                 "metrics.classical_fidelity", "storage.save_samples",
                 "storage.load_samples") + tuple(f"cli.{c}" for c in CLI_COMMANDS):
        m[f"{name}_s"] = seconds(name)
    m["sampling.draws_per_s"] = 2 * workload.draws / seconds("sampling.sample")
    m["sampling.n_distinct"] = train.n_distinct
    m["fit.update_s"] = seconds("fit.update_core")
    m["fit.update_calls"] = calls("fit.update_core")
    m["fit.refresh_s"] = seconds("fit.refresh_left", "fit.refresh_right")
    flops = sum(counts["flops"] for *_, counts in replays)
    m["fit.update_gflop_computed"] = flops / 1e9
    m["fit.update_gflops"] = flops / 1e9 / m["fit.update_s"]
    m["fit.env_bytes_computed"] = max(counts["env_bytes"] for *_, counts in replays)
    m["fit.distinct_env_ratio"] = distinct_env_ratio(train)
    m["fit.loss_calls"] = calls("fit.loss")
    m["fit.sweeps"] = sum(trial.sweeps_run for trial in result.trials)
    m["fit.converged_trials"] = sum(trial.converged for trial in result.trials)
    sweep_walls = np.concatenate([np.diff(trial.wall_times) for trial in result.trials])
    m["fit.sweep_ms"] = float(np.median(sweep_walls)) * 1e3
    m["fit.loss_gap"] = result.best.final_loss + float(np.sum(train.weights**2))
    m["metrics.i_q"] = i_q
    m["metrics.i_c"] = i_c
    m["trace.untraced_fit_s"] = untraced_fit_s
    m["trace.overhead_s"] = seconds("fit") - untraced_fit_s
    return m, tally
