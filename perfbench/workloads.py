"""The three benchmark workloads: how each builds its inputs from a seed,
makes one timed call into noisygates, and checks that call's output.

* ``repeat_x``    -- ``noisygates compare`` on 500 X gates, 4000 shots, 3 runs.
  Stresses the 2x2 sampling path (Gaussian draw, ``expm_2x2``, prefix
  product), checkpoint aggregation with the density einsum at 50
  checkpoints, and the Lindblad reference rebuilt for 500 layers.
* ``repeat_cnot`` -- ``noisygates compare`` on 100 CNOT gates, 1000 shots,
  3 runs.  Same layers used another way: 4x4 Pade ``expm``, fresh readout
  gates at every checkpoint, 15-Pauli Lindblad terms and the Kraus channel
  simulator (``embed_operator``).
* ``ghz12``       -- library calls only: SX then a CNOT ladder on 12 measured
  qubits, 1024 shots through ``engine.run_shots``.  Stresses
  ``apply_gate`` on a 64 MiB state batch and idle-relaxation pads, and never
  touches ``lindblad`` or ``channels``.  It bypasses ``compare`` because that
  always builds the d^4 Lindblad superoperator, which cannot exist at n = 12.

The seed reaches the program only as ``--seed`` / ``RunConfig.master_seed``.

``--runs 3`` instead of the stock 10 keeps the once-per-call Lindblad and
channel back-ends a small share of a compare call, so a faster sampling path
shows in ``wall_s``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import shutil
from pathlib import Path

COMPARE_SHAPES = {
    "repeat_x": {"reps": 500, "checkpoints": 50, "shots": 4000, "runs": 3},
    "repeat_cnot": {"reps": 100, "checkpoints": 50, "shots": 1000, "runs": 3},
}
GHZ_QUBITS = 12
GHZ_SHOTS = 1024
WORKLOADS = (*COMPARE_SHAPES, "ghz12")

# Output-check bounds, set from seeds 0-9 and 1000-1004 with check_bounds.py
# (README.md lists the values).  Each is about twice the worst value seen, and
# far from what a wrong result gives: dropping the noise puts the Hellinger
# distance at 0.31 (repeat_x) and 0.71 (repeat_cnot), and the GHZ mass at 1.
HELLINGER_BOUNDS = {
    "repeat_x": {"noisy_gates": 0.01, "channel": 0.03},
    "repeat_cnot": {"noisy_gates": 0.04, "channel": 0.06},
}
GHZ_MASS_RANGE = (0.40, 0.60)
PROB_SUM_TOL = 1e-9


def desk_device_path(root: Path) -> Path:
    return root / "configs" / "desk_device.json"


def ghz_device_text(root: Path) -> str:
    """A 12-qubit calibration made by repeating the two desk qubits."""
    desk = json.loads(desk_device_path(root).read_text())
    qubits = [desk["qubits"][i % len(desk["qubits"])] for i in range(GHZ_QUBITS)]
    return json.dumps({"qubits": qubits, "gates": desk["gates"]})


def ghz_circuit_doc() -> dict:
    ops = [{"gate": "SX", "q": [0]}]
    ops += [{"gate": "CNOT", "q": [i, i + 1]} for i in range(GHZ_QUBITS - 1)]
    return {"n_qubits": GHZ_QUBITS, "ops": ops, "measure": list(range(GHZ_QUBITS))}


def compare_argv(workload: str, seed: int, root: Path, out: Path) -> list[str]:
    shape = COMPARE_SHAPES[workload]
    argv = ["compare", "--experiment", workload]
    for key in ("reps", "checkpoints", "shots", "runs"):
        argv += [f"--{key}", str(shape[key])]
    argv += [
        "--seed", str(seed),
        "--device", str(desk_device_path(root)),
        "--out", str(out),
        "--parallel", "1",
    ]
    return argv


def state_batch_bytes(workload: str) -> int:
    """Computed size of one copy of the trajectory state batch."""
    from noisygates.engine import CHUNK_SHOTS

    if workload == "ghz12":
        n, shots = GHZ_QUBITS, GHZ_SHOTS
    else:
        n, shots = (1 if workload == "repeat_x" else 2), COMPARE_SHAPES[workload]["shots"]
    return min(shots, CHUNK_SHOTS) * 2**n * 16


class Workload:
    """One workload at one seed.  ``setup`` loads the calibration and builds
    and schedules the circuit; ``call`` is the timed call; ``check`` returns a
    list of failed output checks (empty when the call is correct)."""

    def __init__(self, name: str, seed: int, root: Path, out: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.root = root
        self.out = out
        self.scheduled = None

    def setup(self) -> None:
        from noisygates import engine, experiments, noise_model

        if self.name == "ghz12":
            params = noise_model.load_calibration(ghz_device_text(self.root))
            circuit = engine.parse_circuit(ghz_circuit_doc())
        else:
            params = noise_model.load_calibration(desk_device_path(self.root))
            shape = COMPARE_SHAPES[self.name]
            config = experiments.ExperimentConfig(
                experiment=self.name,
                device=params,
                repetitions=shape["reps"],
                checkpoints=shape["checkpoints"],
                shots=shape["shots"],
                runs=shape["runs"],
                seed=self.seed,
            )
            circuit = experiments.build_experiment_circuit(config)[0]
        self.scheduled = engine.schedule_layers(circuit, params)

    def call(self):
        """The timed call.  Returns what ``check`` needs."""
        if self.name == "ghz12":
            from noisygates import engine

            return engine.run_shots(
                self.scheduled, engine.RunConfig(shots=GHZ_SHOTS, master_seed=self.seed)
            )
        from noisygates import cli

        printed = io.StringIO()
        try:
            with contextlib.redirect_stdout(printed):
                code = cli.main(compare_argv(self.name, self.seed, self.root, self.out))
        except SystemExit as exc:  # argparse exits on a usage error
            code = exc.code
        return code, printed.getvalue().strip()

    def check(self, result) -> list[str]:
        if self.name == "ghz12":
            return _check_ghz(result.distributions[-1])
        code, outdir = result
        if code != 0:
            return [f"exit code {code}"]
        return _check_compare(self.name, Path(outdir))

    def discard(self, result) -> None:
        """Remove a compare call's output directory after it was checked."""
        if self.name != "ghz12" and result[0] == 0:
            shutil.rmtree(result[1], ignore_errors=True)


def _check_distribution(probs, where: str) -> list[str]:
    if not all(math.isfinite(p) for p in probs):
        return [f"{where}: non-finite probability"]
    if min(probs) < 0.0:
        return [f"{where}: negative probability {min(probs)!r}"]
    total = math.fsum(probs)
    if abs(total - 1.0) > PROB_SUM_TOL:
        return [f"{where}: probabilities sum to {total!r}"]
    return []


def _check_compare(workload: str, outdir: Path) -> list[str]:
    failures: list[str] = []
    with open(outdir / "distributions.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        failures.append("distributions.csv is empty")
    for row in rows:
        probs = [float(v) for k, v in row.items() if k.startswith("p_")]
        where = f"distributions {row['backend']} run {row['run']} checkpoint {row['checkpoint_gates']}"
        failures += _check_distribution(probs, where)
    summary = _summary_rows(outdir)
    if len(summary) != COMPARE_SHAPES[workload]["checkpoints"]:
        failures.append(f"summary.csv has {len(summary)} checkpoints")
    worst = compare_worst_hellinger(outdir)
    for backend, bound in HELLINGER_BOUNDS[workload].items():
        if not worst[backend] < bound:
            failures.append(f"mean Hellinger of {backend} reaches {worst[backend]!r} >= {bound}")
    return failures


def _check_ghz(probs) -> list[str]:
    probs = [float(p) for p in probs]
    failures = _check_distribution(probs, "ghz12 distribution")
    mass = probs[0] + probs[-1]
    low, high = GHZ_MASS_RANGE
    if not low < mass < high:
        failures.append(f"GHZ mass on |0..0> + |1..1> is {mass!r}, outside {GHZ_MASS_RANGE}")
    return failures


def compare_worst_hellinger(outdir: Path) -> dict[str, float]:
    """Largest mean Hellinger distance over checkpoints, per back-end."""
    summary = _summary_rows(outdir)
    return {
        backend: max(float(row[f"mean_h_{backend}"]) for row in summary)
        for backend in ("noisy_gates", "channel")
    }


def _summary_rows(outdir: Path) -> list[dict[str, str]]:
    with open(outdir / "summary.csv", newline="") as fh:
        return list(csv.DictReader(fh))
