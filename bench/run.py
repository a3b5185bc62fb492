"""ttomo benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload flagship-L4 --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. With
``--trace 0`` the run repeats the workload for ``--seconds`` seconds (at
least three passes) and reports end-to-end medians; with ``--trace 1`` it
makes one traced pass and reports per-layer metrics. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it records the run environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="ascii").strip()
        for line in (git / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    """Non-blank lines of the package sources."""
    return sum(
        1
        for path in sorted(SRC.rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def environment(args) -> dict:
    import numpy as np

    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "src_nonblank_lines": src_lines(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ttomo" / "__init__.py").is_file():
        print(f"bench: no ttomo package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from replay import traced_run
    from workloads import END_TO_END, PER_LAYER, WORKLOADS, measure

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.trace:
            trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
            values, tally = traced_run(workload, args.seed, workdir, trace_path)
            units, info = PER_LAYER, {"spans": os.path.relpath(trace_path, ROOT)}
        else:
            values, tally, per_pass = measure(workload, args.seed, args.seconds, workdir)
            units, info = END_TO_END, {"per_pass": per_pass}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in tally.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    if values is None:
        print("bench: no pass completed", file=sys.stderr)
        return 1
    print("env " + json.dumps({**environment(args), **info}, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": getattr(values[name], "item", lambda: values[name])(), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # One process on one BLAS thread, pinned before numpy is first imported.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.exit(main())
