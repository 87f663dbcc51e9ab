"""Run the benchmark once per seed on each given workload and print, per
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median of
the runs.  Run from the repository root:

    python3 perfbench/spread.py --workloads repeat_x ghz12 --seeds 10

Every run's last output line is appended to the JSON-lines file given by
``--log`` so the figures can be re-read later.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds, 0..N-1")
    parser.add_argument("--log", default=".perfbench_out/spread.jsonl")
    args = parser.parse_args(argv)
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 to give quartiles")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    Path(args.log).parent.mkdir(parents=True, exist_ok=True)
    worst = 0.0
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in range(args.seeds):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=300,
            )
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            result = json.loads(done.stdout.strip().splitlines()[-1])
            with open(args.log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: output checks failed", file=sys.stderr)
                return 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print(
                f"{workload:12s} {name:12s} median {median:10.4f}  spread {spread:.4f}  "
                f"bound {bounds[name]}  runs {len(series)}",
                flush=True,
            )
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
