"""Print the quantities the output checks bound, for several seeds, so the
bounds in workloads.py can be set from data rather than from one seed.

Run from the repository root:

    python3 perfbench/check_bounds.py 0 1 2 3 4 5 6 7 8 9 1000 1001

Each line gives, per workload and seed, the largest mean Hellinger distance
to the Lindblad reference over all checkpoints (compare workloads) or the
mass on |0..0> + |1..1> (ghz12).
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def main(seeds: list[int]) -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS, Workload, compare_worst_hellinger

    with tempfile.TemporaryDirectory(dir=root) as out:
        for name in WORKLOADS:
            for seed in seeds:
                workload = Workload(name, seed, root, Path(out))
                workload.setup()
                result = workload.call()
                if name == "ghz12":
                    probs = result.distributions[-1]
                    print(f"{name} seed {seed} ghz_mass {probs[0] + probs[-1]:.4f}", flush=True)
                else:
                    worst = compare_worst_hellinger(Path(result[1]))
                    print(
                        f"{name} seed {seed} "
                        + " ".join(f"max_mean_h_{b} {h:.4f}" for b, h in worst.items()),
                        flush=True,
                    )
                    workload.discard(result)
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]] or list(range(10))))
