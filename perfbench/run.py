#!/usr/bin/env python3
"""Benchmark of the SCPM pipeline, end to end and per layer.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload planted-topk --seed 1 --seconds 15 --trace 0

The run writes the workload's input files for ``--seed``, then drives the
path a user runs over them — ``stream_attributed_graph`` ingest,
``mine_scpm`` with patterns, ``PatternStore.save``,
``IncrementalSCPM.update`` + ``PatternStore.apply_delta`` per edit
script, and HTTP GETs against the ``scpm serve`` server — and checks the
outputs (see ``pipeline.py``).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from spans recorded around calls into each layer (``spans.py``) and
writes the spans, gzipped JSON lines, to ``.perfbench-work/spans/``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it give the
run's environment and every metric with its unit.

The program is imported from ``src/`` next to this directory; the run
exits with status 2 and prints no result when it is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".perfbench-work"

def environment(workload: str, seed: int, usable_cores: int, cpu: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SOURCE / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        completed = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        sha = completed.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "usable_cores": usable_cores,
        "pinned_cpu": cpu,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    # BENCHMARK.json names the workloads and the metrics with their units.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    from inputs import write_inputs
    from pipeline import Pipeline
    from spans import Tracer

    # Every workload mines with n_jobs=1.  On one core the client, the
    # server thread and the miner share a CPU in the same way on every
    # run; spread over shared cores, the request latency depends on where
    # the scheduler happens to place the threads.
    usable = os.sched_getaffinity(0)
    cpu = min(usable)
    os.sched_setaffinity(0, {cpu})
    env = environment(args.workload, args.seed, len(usable), cpu)
    print("env " + json.dumps(env, sort_keys=True))
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        inputs = write_inputs(args.workload, args.seed, workdir / "inputs")
        # Writes and deletions still being flushed, from an earlier run or
        # from this one, stall the store's writes; start and end flushed.
        os.sync()
        pipeline = Pipeline(inputs, workdir, args.seconds, tracer)
        pipeline.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        os.sync()

    if tracer is not None:
        values, kind = pipeline.per_layer(), "per_layer"
        spans_dir = WORK / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans_path = spans_dir / f"{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.dump(spans_path, env)
        print(f"spans {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    else:
        values, kind = pipeline.end_to_end(), "end_to_end"
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]
    }
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(
        f"failed_frac {pipeline.failed / pipeline.attempted:.6g} "
        f"({pipeline.failed} of {pipeline.attempted} operations)"
    )
    for failure in pipeline.failures:
        print(f"failure: {failure}")
    print(
        json.dumps(
            {
                "correct": pipeline.failed == 0,
                "attempted": pipeline.attempted,
                "failed": pipeline.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
