"""Benchmark entry point.

Run from the root of a checkout::

    python3 kbench/run.py --workload solve-cold --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``). The lines before
it are the steadiness report: sample counts, the tail percentile used,
the reference kernel's median/min/max and raw wall times beside the
reference-speed ones. See ``kbench/README.md`` for the workloads and the
metric mapping.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("solve-cold", "dynamic-stream", "serve-mixed")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"kbench: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from kbench import common, layers

    if args.workload == "solve-cold":
        from kbench import solve_cold as workload
    elif args.workload == "dynamic-stream":
        from kbench import dynamic_stream as workload
    else:
        from kbench import serve_mixed as workload

    trace = bool(args.trace)
    outcome = workload.run(ROOT, args.seed, args.seconds, trace)
    guard = common.RepeatGuard(ROOT, {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": trace,
        "benchmark": common.code_digest(ROOT, "kbench"),
        "program": common.code_digest(ROOT, "src/repro"),
    })
    mismatches = guard.check(outcome.counts)
    for line in mismatches:
        common.fail(outcome.errors, f"count differs from an earlier run of this seed: {line}")
    metrics = layers.layer_metrics(outcome.values) if trace else layers.e2e_metrics(outcome.values)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": trace,
        "counts": outcome.counts, "errors": outcome.errors, **outcome.details,
    }
    for key, value in report.items():
        print(f"# {key}: {json.dumps(value, sort_keys=True)}")
    failed = outcome.failed + (1 if mismatches else 0)
    correct = failed == 0 and not outcome.errors
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
