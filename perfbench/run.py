"""Run one benchmark workload and print its result as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep_dense --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
per-layer traced pass instead and prints the per-layer metrics, writing
the layer table and the spans under ``perfbench/out/``.  The last line
of standard output is the JSON result; diagnostics go to standard
error.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# One single-threaded process: keep numeric libraries off extra cores.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("sweep_dense", "sweep_large", "serve_drift")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def code_digest() -> str:
    """Digest of the program and the benchmark sources: "the same code"."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def steady_mismatches(key: str, values: dict[str, float]) -> list[str]:
    """Compare *values* with an earlier run of the same code, workload,
    seed, length and mode in this checkout; record them if first."""
    path = OUT / "steady.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    previous = recorded.get(key)
    if previous is None:
        recorded[key] = values
        OUT.mkdir(exist_ok=True)
        scratch = path.with_suffix(".tmp")
        scratch.write_text(json.dumps(recorded, indent=1, sort_keys=True))
        scratch.replace(path)
        return []
    return [
        f"{name}: {previous[name]!r} in an earlier run, {value!r} now"
        for name, value in sorted(values.items())
        if name in previous and previous[name] != value
    ]


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    from layers import span_rows

    run = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))

    key = f"{code_digest()}:{args.workload}:{args.seed}:{args.seconds:g}:{args.trace}"
    mismatches = steady_mismatches(key, run.steady)
    for line in mismatches:
        print(f"STEADINESS MISMATCH {args.workload} seed {args.seed}: {line}", file=sys.stderr)
    for problem in run.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    if len(run.problems) > 20:
        print(f"... and {len(run.problems) - 20} more failures", file=sys.stderr)

    if args.trace:
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"{args.workload}-seed{args.seed}"
        stem.with_suffix(".layers.md").write_text(run.table + "\n")
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as handle:
            for row in span_rows(run.roots):
                handle.write(json.dumps(row) + "\n")
        print(run.table, file=sys.stderr)
        coverage = run.metrics["trace.coverage"][0]
        if coverage < 0.95:
            print(f"warning: named layers cover only {coverage:.1%} of the traced time", file=sys.stderr)

    for name, (value, unit) in run.metrics.items():
        print(f"{args.workload:12s} {name:24s} {value:14.6f} {unit}", file=sys.stderr)
    for name, value in run.raw.items():
        print(f"{args.workload:12s} raw {name:20s} {value:14.6f}", file=sys.stderr)
    if not all(math.isfinite(value) for value, _ in run.metrics.values()):
        print("error: a metric is not a finite number", file=sys.stderr)
        return 1
    result = {
        "correct": run.failed == 0 and not mismatches,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in run.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
