"""Record a baseline: every workload, untraced and traced, twice at one seed.

    python3 bench/baseline.py --seed 1

Exits non-zero if a run fails its checks or if a deterministic metric
(infidelities, sweep counts, loss gap, work counts) differs between the two
traced runs. Untraced runs use ``run_seconds`` from ``BENCHMARK.json``; the
record is written to ``bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
from workloads import WORKLOADS  # noqa: E402

DETERMINISTIC = (
    "metrics.i_q",
    "metrics.i_c",
    "fit.sweeps",
    "fit.loss_gap",
    "fit.converged_trials",
    "fit.update_calls",
    "fit.loss_calls",
    "fit.update_gflop_computed",
    "fit.env_bytes_computed",
    "fit.distinct_env_ratio",
    "sampling.n_distinct",
    "storage.samples_bytes",
)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    env_line, result_line = out.stdout.strip().splitlines()[-2:]
    return {"env": json.loads(env_line.removeprefix("env ")), "result": json.loads(result_line)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    record = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        runs = {f"trace{t}": [run_once(name, args.seed, seconds, t) for _ in range(2)] for t in (0, 1)}
        record["workloads"][name] = runs
        for run in runs["trace0"] + runs["trace1"]:
            ok &= run["result"]["correct"]
        first, second = (r["result"]["metrics"] for r in runs["trace1"])
        for metric in DETERMINISTIC:
            if first[metric]["value"] != second[metric]["value"]:
                print(f"{name}: {metric} differs: {first[metric]['value']!r} vs {second[metric]['value']!r}")
                ok = False
        print(f"{name}: done", flush=True)
    record["deterministic_metrics_repeat"] = ok
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="ascii")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
