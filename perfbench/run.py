"""Benchmark one detection-cell workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table2-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  Every metric is printed as ``name value unit``; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every cell matched the scalar oracle; with no program source beside the
benchmark it is 2 and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--short", action="store_true",
        help="one input and one set-up repeat (smoke tests)",
    )
    return parser, parser.parse_args(argv)


def main(argv=None) -> int:
    parser, args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench

    if args.workload not in bench.cells.WORKLOADS:
        known = ", ".join(bench.cells.WORKLOADS)
        parser.error(f"unknown workload {args.workload!r}; known: {known}")
    out = bench.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT, short=args.short
    )
    for key, value in out["record"].items():
        print(f"# {key}: {value}")
    for key, value in out["context"].items():
        print(f"# {key}: {value}")
    result = out["result"]
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
