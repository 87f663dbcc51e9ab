#!/usr/bin/env python3
"""noisygates benchmark: one workload, one seed, one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload repeat_x --seed 0 --seconds 30 --trace 0

``--trace 0`` times untraced calls into the package's public entry points
and reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``).  ``--trace 1`` makes the same untraced calls, then one call
with every layer wrapped by ``spans.SpanRecorder``, and reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

All work runs in this process with one worker (``--parallel 1``) and BLAS
pinned to one thread, so nothing queues or retries and no waiting-time
metric exists.
"""

import os

# Before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib.metadata
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import SpanRecorder, distinct_work, per_layer_units
from workloads import WORKLOADS, Workload, state_batch_bytes

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 7
MIN_CALLS = 3
# Start no further call once this much time is spent, so a slow machine
# still ends well within the 180 s a run may take.
CALL_BUDGET_S = 110.0
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true", help=argparse.SUPPRESS
    )  # internal: time one fresh set-up and print the seconds
    return parser.parse_args(argv)


def require_checkout() -> None:
    """Refuse to run anywhere but the root of a noisygates checkout."""
    for rel in ("src/noisygates/__init__.py", "configs/desk_device.json"):
        if not (ROOT / rel).is_file():
            raise SystemExit(f"perfbench: {rel} not found; run from the root of a noisygates checkout")
    sys.path.insert(0, str(ROOT / "src"))


def check_imported_package() -> None:
    import noisygates

    where = Path(noisygates.__file__).resolve().parent
    if where != (ROOT / "src" / "noisygates").resolve():
        raise SystemExit(f"perfbench: imported noisygates from {where}, not from this checkout")


def setup_probe(workload: str, seed: int) -> None:
    start = time.perf_counter()
    Workload(workload, seed, ROOT, OUT / "runs").setup()
    seconds = time.perf_counter() - start
    check_imported_package()
    print(repr(seconds))


def fresh_setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time of ``SETUP_PROBES`` fresh processes, each importing
    noisygates, loading the calibration and scheduling the circuit."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"perfbench: set-up probe exited {done.returncode}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(workload: str) -> dict:
    import numpy

    try:
        scipy_version = importlib.metadata.version("scipy")  # not imported: it would add to peak RSS
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "git_revision": git_revision(),
        "caches": cache_sizes(),
        "blas_threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "state_batch_bytes_computed": state_batch_bytes(workload),
    }


class Tally:
    """Attempted and failed calls of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, workload: Workload, run_call) -> float:
        """Make one call through ``run_call``, check it, and return its wall
        time.  A call that raises or fails its checks counts as failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = run_call()
        except Exception:  # noqa: BLE001 - a raising call is a failed call; keep measuring
            result, problems = None, [traceback.format_exc()]
        seconds = time.perf_counter() - start
        if result is not None:
            try:
                problems = workload.check(result)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"output unreadable: {exc!r}"]
            workload.discard(result)
        if problems:
            self.failed += 1
            for line in problems:
                print(f"check failed: {line}", file=sys.stderr)
        return seconds


def untraced_walls(workload: Workload, tally: Tally, seconds: float) -> list[float]:
    walls: list[float] = []
    start = time.perf_counter()
    while len(walls) < MIN_CALLS or time.perf_counter() - start < seconds:
        if walls and time.perf_counter() - start + max(walls) > CALL_BUDGET_S:
            break
        walls.append(tally.record(workload, workload.call))
    return walls


def traced_metrics(workload: Workload, tally: Tally, untraced_wall: float) -> dict[str, float]:
    recorder = SpanRecorder()
    recorder.install()
    try:
        workload.setup()
        recorder.run_id = "call"
        traced_wall = tally.record(workload, workload.call)
    finally:
        recorder.uninstall()
    metrics = recorder.layer_metrics(*distinct_work(workload.scheduled))
    metrics["bench.trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    recorder.write_spans(OUT / f"spans-{workload.name}-seed{workload.seed}.jsonl")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    require_checkout()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    OUT.mkdir(exist_ok=True)
    setup_samples = [] if args.trace else fresh_setup_seconds(args.workload, args.seed)

    check_imported_package()
    workload = Workload(args.workload, args.seed, ROOT, OUT / "runs")
    workload.setup()
    print("env " + json.dumps(environment(args.workload), sort_keys=True))

    tally = Tally()
    walls = untraced_walls(workload, tally, args.seconds)
    wall = statistics.median(walls)
    print(f"{args.workload} seed {args.seed}: wall_s {wall:.4f} s (median of {len(walls)} calls)")
    print(f"{args.workload} seed {args.seed}: call walls " + " ".join(f"{w:.4f}" for w in walls))
    if args.trace:
        values = traced_metrics(workload, tally, wall)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}
    else:
        setup = statistics.median(setup_samples)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"{args.workload} seed {args.seed}: setup_s {setup:.4f} s (median of {len(setup_samples)} fresh processes)")
        print(f"{args.workload} seed {args.seed}: peak_rss_mb {rss_mib:.1f} MiB")
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": rss_mib, "unit": "MiB"},
        }
    print(
        f"{args.workload} seed {args.seed}: failed_frac {tally.failed / tally.attempted:.4f} "
        f"({tally.failed} of {tally.attempted} calls)"
    )
    try:
        (OUT / "runs").rmdir()
    except OSError:
        pass
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
