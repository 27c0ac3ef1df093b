"""Self-test of the benchmark: its checks catch corruption, and a clean
seed runs every workload with zero failures.

Usage, from the repository root::

    python3 perfbench/selftest.py

1. Each corruption must register as failed operations: an objective
   perturbed by 1e-6 (on both sweep checkers), a dropped serve response,
   and a query answered with another snapshot version's delay.
2. ``sweep_dense``, ``sweep_large`` and ``serve_drift`` run on
   :data:`SEED` with zero failed operations, untraced and traced.
3. Repeating a run with the same code and seed reports no steadiness
   mismatch.

Exits 0 when every step holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from repro import AccessStrategy  # noqa: E402

#: The self-test's seed.  Its serve session of :data:`SERVE_SECONDS`
#: publishes two different placements, which the "another version's
#: delay" corruption needs: some query's delay differs between versions.
SEED = 8
SERVE_SECONDS = 12.0

OUTCOMES: list[bool] = []


def expect(condition: bool, label: str) -> None:
    OUTCOMES.append(condition)
    print(f"{'PASS' if condition else 'FAIL'}  {label}", flush=True)


def sweep_corruption(sweep: workloads.Sweep) -> None:
    strategy = AccessStrategy.uniform(sweep.system())
    instance = workloads.SweepInstance(sweep, sweep.network(SEED, 0), strategy)
    run = workloads.Run()
    result, _ = instance.solve(run)
    expect(result is not None and run.failed == 0, f"{sweep.name}: clean solve passes its checks")
    reference = instance.reference(result)
    perturbed = dataclasses.replace(result, objective=result.objective + 1e-6)
    failed = len(checks.check_sweep(perturbed, reference))
    expect(failed >= 1, f"{sweep.name}: objective perturbed by 1e-6 fails {failed} candidate(s)")


class Recorder(checks.ServeChecker):
    """A serve checker that also keeps every window, to replay it corrupted."""

    def __init__(self, network: Any, strategy: Any, snapshot: Any) -> None:
        self.first = snapshot
        self.recorded: list[tuple] = []
        super().__init__(network, strategy, snapshot)

    def window(self, *window: Any) -> None:
        self.recorded.append(window)
        super().window(*window)


def replay(recorder: Recorder, windows: list[tuple], stats: dict | None) -> int:
    """Failed requests when *windows* are checked from scratch."""
    checker = checks.ServeChecker(recorder.network, recorder.strategy, recorder.first)
    for window in windows:
        checker.window(*window)
    return len(checker.finish(stats))


def serve_corruption() -> None:
    network = workloads.serve_network()
    strategy = AccessStrategy.uniform(workloads.grid(3))
    service = workloads.new_service(network, strategy)
    recorder = Recorder(network, strategy, service.snapshot)
    workloads.drive(service, workloads.serve_stream(network, SEED, SERVE_SECONDS), recorder)
    stats = workloads.probe_stats(service)
    recorded = recorder.recorded
    placements = {tuple(delays.values()) for delays in recorder.delays.values()}
    expect(
        len(placements) >= 2,
        f"serve_drift: {len(recorder.delays)} versions with {len(placements)} placements",
    )
    expect(not replay(recorder, recorded, stats), "serve_drift: clean session passes its checks")

    index = next(i for i, (_, responses, _, _) in enumerate(recorded) if len(responses) > 1)
    requests, responses, error, snapshot = recorded[index]
    dropped = list(recorded)
    dropped[index] = (requests, responses[:-1], error, snapshot)
    failed = replay(recorder, dropped, stats)
    expect(failed >= 1, f"serve_drift: a dropped response fails {failed} request(s)")

    for index, (requests, responses, error, snapshot) in enumerate(recorded):
        for position, (request, response) in enumerate(zip(requests, responses)):
            if request["op"] != "query":
                continue
            client = request["client"]
            other = next(
                (
                    delays[client]
                    for version, delays in recorder.delays.items()
                    if version != response["version"] and delays[client] != response["delay"]
                ),
                None,
            )
            if other is None:
                continue
            wrong = list(responses)
            wrong[position] = {**response, "delay": other}
            corrupted = list(recorded)
            corrupted[index] = (requests, wrong, error, snapshot)
            failed = replay(recorder, corrupted, stats)
            expect(failed >= 1, f"serve_drift: another version's delay fails {failed} request(s)")
            return
    expect(False, "serve_drift: no query whose delay differs between versions")


def run_workload(workload: str, trace: int) -> tuple[dict | None, str]:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", "4",
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )
    if completed.returncode != 0:
        return None, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1]), completed.stderr


def clean_runs() -> None:
    for workload in ("sweep_dense", "sweep_large", "serve_drift"):
        for trace in (0, 1):
            result, stderr = run_workload(workload, trace)
            ok = result is not None and result["correct"] and result["failed"] == 0
            detail = "no result" if result is None else f"{result['failed']} of {result['attempted']} failed"
            expect(ok, f"{workload} --trace {trace} on seed {SEED}: {detail}")
            if not ok:
                print(stderr[-4000:], file=sys.stderr)
    result, stderr = run_workload("serve_drift", 0)
    expect(
        result is not None and result["correct"] and "STEADINESS MISMATCH" not in stderr,
        "serve_drift repeated on the same seed: counts identical",
    )


def main() -> int:
    sweep_corruption(workloads.SWEEP_DENSE)
    sweep_corruption(workloads.SWEEP_LARGE)
    serve_corruption()
    clean_runs()
    print(f"{sum(OUTCOMES)} of {len(OUTCOMES)} checks passed")
    return 0 if all(OUTCOMES) else 1


if __name__ == "__main__":
    sys.exit(main())
