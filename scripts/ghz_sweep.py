#!/usr/bin/env python3
"""Qubit-width sweep of the trajectory engine on the GHZ ladder.

For each width n (in the order given) and each shot count, the circuit is
SX on qubit 0 followed by CNOT(q, q + 1) for q = 0 .. n - 2, every qubit
measured, on the desk calibration (configs/desk_device.json) with its
qubits repeated over the register, master seed ``--seed`` (default 0).  Each width's circuit
is scheduled and compiled once: its compile time is the first access of
``scheduled.compiled``, which builds the plan every ``run_shots`` call
on the circuit reuses.  Then one ``run_shots`` call is timed per
(width, shots) pair, each on the compiled plan, and one line is printed
for it: the width, the shots, the width's compile time, the wall time of
the call, the peak resident set size of this process so far, the GHZ
mass p(0...0) + p(1...1) of the weighted estimator, and the minor page
faults and system CPU seconds of the call (``getrusage`` deltas), which
grow when the call allocates fresh state-sized arrays (as the first
call at each width does, filling the plan's workspace).  With
``--repeat K`` (K > 1) that first call only warms the plan and the buffers:
K more calls follow, and the line gives the median wall time of those K
and their mean faults and system seconds per call.  Run from the
repository root, BLAS pinned to one thread for times comparable with
perfbench:

    OMP_NUM_THREADS=1 python3 scripts/ghz_sweep.py --qubits 8 12 16 --shots 1024
    OMP_NUM_THREADS=1 python3 scripts/ghz_sweep.py --qubits 12 14 16 --shots 1024 512 256 --repeat 9
    python3 scripts/ghz_sweep.py --qubits 8 10 12 --shots 16 32 --mass-range 0.3 0.7
    OMP_NUM_THREADS=1 python3 scripts/ghz_sweep.py --qubits 14 16 --shots 512 128 --repeat 7 --seed 41

With ``--mass-range LOW HIGH`` the exit status is 1 when any GHZ mass
falls outside (LOW, HIGH).
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from noisygates.engine import RunConfig, parse_circuit, run_shots, schedule_layers  # noqa: E402
from noisygates.noise_model import load_calibration  # noqa: E402


DEVICE = ROOT / "configs" / "desk_device.json"


def ghz_inputs(n: int):
    """Scheduled n-qubit GHZ ladder on the desk device's qubits repeated."""
    desk = json.loads(DEVICE.read_text())
    qubits = [desk["qubits"][q % len(desk["qubits"])] for q in range(n)]
    params = load_calibration(json.dumps({"qubits": qubits, "gates": desk["gates"]}))
    ops = [{"gate": "SX", "q": [0]}] + [{"gate": "CNOT", "q": [q, q + 1]} for q in range(n - 1)]
    circuit = parse_circuit({"n_qubits": n, "ops": ops, "measure": list(range(n))})
    return schedule_layers(circuit, params)


def peak_rss_mib() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10  # bytes on macOS, KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--qubits", type=int, nargs="+", required=True)
    parser.add_argument("--shots", type=int, nargs="+", default=[1024])
    parser.add_argument("--mass-range", type=float, nargs=2, metavar=("LOW", "HIGH"))
    parser.add_argument("--repeat", type=int, default=1, metavar="K", help="time K warm calls after a first one (default 1: the first call alone)")
    parser.add_argument("--seed", type=int, default=0, metavar="S", help="master seed of every call (default 0)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.seed < 0:
        parser.error("--seed must be at least 0")

    outside = 0
    print("qubits shots compile_s wall_s peak_rss_mib ghz_mass minor_faults sys_s")
    for n in args.qubits:
        scheduled = ghz_inputs(n)
        start = time.perf_counter()
        scheduled.compiled
        compile_s = time.perf_counter() - start
        for shots in args.shots:
            config = RunConfig(shots=shots, master_seed=args.seed)
            if args.repeat > 1:
                run_shots(scheduled, config)
            walls = []
            before = resource.getrusage(resource.RUSAGE_SELF)
            for _ in range(args.repeat):
                start = time.perf_counter()
                dist = run_shots(scheduled, config).distributions[-1]
                walls.append(time.perf_counter() - start)
            after = resource.getrusage(resource.RUSAGE_SELF)
            wall = statistics.median(walls)
            faults = (after.ru_minflt - before.ru_minflt) // args.repeat
            sys_s = (after.ru_stime - before.ru_stime) / args.repeat
            mass = float(dist[0] + dist[-1])
            print(f"{n} {shots} {compile_s:.3f} {wall:.3f} {peak_rss_mib():.1f} {mass:.4f} {faults} {sys_s:.3f}", flush=True)
            if args.mass_range and not args.mass_range[0] < mass < args.mass_range[1]:
                print(f"GHZ mass {mass:.4f} at n = {n} is outside {tuple(args.mass_range)}", file=sys.stderr)
                outside += 1
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main())
