"""Smoke test of the benchmark at tiny sizes.

Runs the same code paths as the real workloads (library and CLI passes,
untraced and traced) on three-site targets, checks the result line against
``BENCHMARK.json``, and shows that each output check fires on corrupted input.

    PYTHONPATH=src python3 -m pytest -q bench/test_smoke.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

import replay
import run
import ttomo
import workloads
from workloads import Workload

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
TINY = [
    Workload("tiny-lib", L=3, draws=4000, trials=2, max_sweeps=30, ic_gate=0.5),
    Workload("tiny-cli", L=3, draws=4000, trials=2, max_sweeps=30, via_cli=True, ic_gate=0.5),
]


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_result_line_has_every_metric(workload, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, workload.name, workload)
    argv = ["--workload", workload.name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    env = json.loads(lines[-2].removeprefix("env "))
    assert env["seed"] == 3 and env["src_nonblank_lines"] > 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and np.isfinite(got["value"])
    if trace:
        assert (tmp_path / f"trace-{workload.name}-seed3.json").is_file()
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith("work-")] == []


def test_deterministic_metrics_repeat(tmp_path):
    first, _ = replay.traced_run(TINY[0], 5, tmp_path, tmp_path / "a.json")
    second, _ = replay.traced_run(TINY[0], 5, tmp_path, tmp_path / "b.json")
    for name in ("metrics.i_q", "metrics.i_c", "fit.sweeps", "fit.loss_gap", "fit.update_calls"):
        assert first[name] == second[name]


def _fitted():
    rho, dist, train, test = workloads.setup(TINY[0], 11)
    result = ttomo.fit(train, TINY[0].fit_config(11))
    return result.best


def test_negative_core_entry_fires():
    tt = _fitted().tt.copy()
    assert workloads.core_problems(tt) == []
    tt.cores[1][2, 0, 0] = -1e-3
    assert workloads.core_problems(tt)


def test_non_hermitian_mpo_core_fires():
    model = ttomo.normalize_tt(_fitted().tt)
    mpo = ttomo.tt_to_mpo(model, workloads.POVM)
    assert workloads.reconstruction_problems(ttomo.mpo_to_dense(mpo)) == []
    mpo.cores[1][0, 1] += 0.05j
    assert workloads.reconstruction_problems(ttomo.mpo_to_dense(mpo))


def test_loss_rise_and_gate_fire():
    losses = _fitted().losses
    assert workloads.loss_problems(losses) == []
    assert workloads.loss_problems(np.append(losses, losses[-1] * 0.99))
    assert workloads.gate_problems(TINY[0], 0.4) == []
    assert workloads.gate_problems(TINY[0], 0.6)


def test_stale_trace_fires(tmp_path, monkeypatch):
    replay_trial = replay.replay_trial

    def drifted(*args):
        tt, losses, converged, counts = replay_trial(*args)
        return tt, losses * (1 + 1e-12), converged, counts

    monkeypatch.setattr(replay, "replay_trial", drifted)
    _, tally = replay.traced_run(TINY[0], 5, tmp_path, tmp_path / "t.json")
    assert tally.failed >= 1
    assert any("stale trace" in p for p in tally.problems)
