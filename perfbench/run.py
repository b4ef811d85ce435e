"""gradepipe benchmark: grade seeded inboxes and report where the time goes.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload semester --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass (and, on stdout only, the tracing overhead and the
per-workload claims). Every metric is printed as ``name value unit``; the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, holding the metrics ``BENCHMARK.json`` lists.
The exit code is 0 only when every archive reached its expected outcome.
Results and spans are written under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = (ROOT / "src" / "gradepipe" / "pipeline.py", ROOT / "tests" / "data" / "assignment3.yaml")


def _missing() -> str | None:
    for path in REQUIRED:
        if not path.is_file():
            return f"cannot benchmark: {path.relative_to(ROOT)} is missing; run from a full checkout"
    if shutil.which("g++") is None:
        return "cannot benchmark: g++ is not on PATH"
    return None


def _declared(trace: bool) -> list[dict]:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return declared["per_layer" if trace else "end_to_end"]


def _run_all(args: argparse.Namespace, workloads: tuple[str, ...]) -> int:
    """Run each workload in its own interpreter, so peak memory is its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if completed.returncode not in (0, 1) or not lines:
            print(f"{workload}: benchmark exited with {completed.returncode}", file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = _missing()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench  # needs gradepipe on the path

    # Keep the compiler's scratch files inside the checkout too.
    scratch = bench.WORK / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)

    if args.workload == "all":
        return _run_all(args, bench.WORKLOADS)
    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of: all, {', '.join(bench.WORKLOADS)}")

    trace = bool(args.trace)
    result = bench.run(args.workload, args.seed, args.seconds, trace)
    env = bench.environment(args.seed)
    failed = len(result.failures)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env))
    for name, (value, unit) in result.metrics.items():
        print(f"{args.workload}.{name} {value:.6g} {unit}")
    print(f"{args.workload}.failed_share {failed / result.attempted:.6g} ratio")
    for name, value in result.notes.items():
        if name == "claims":
            for claim, holds in value:
                print(f"claim [{'holds' if holds else 'FAILS'}] {args.workload}: {claim}")
        else:
            print(f"note {name} {value}")
    for name, problems in result.failures.items():
        print(f"FAILED {name}: {'; '.join(problems)}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = bench.WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace, "env": env,
        "attempted": result.attempted, "failures": result.failures, "notes": result.notes,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }, indent=2) + "\n", encoding="utf-8")
    if result.tracer is not None:
        result.tracer.dump(bench.WORK / "traces" / f"{stem}.jsonl")

    metrics = {}
    for entry in _declared(trace):
        value, unit = result.metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']} is measured in {unit}, BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": result.attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
