"""Command-line interface.

Three subcommands:

* ``simulate``: run the selected backends once and dump per-checkpoint
  outcome distributions and density diagonals.  The Lindblad reference
  runs only when ``lindblad`` is among ``--backends``.
* ``compare`` : run the full benchmarking protocol (noisy-gates and
  channel backends ``--runs`` times each, Lindblad once) and emit
  Hellinger series, their means/stds and the relative improvement.
* ``validate``: execute the acceptance suite and print a PASS/FAIL
  table.

``simulate`` and ``compare`` share one write path (``cmd_run``): each CSV
is one loop over the back-ends of ``experiments.ExperimentResult``'s maps
in that file's fixed order, and a back-end that did not run or was not
scored leaves no rows, or empty cells in a column named after it.
``--circuit`` runs only with ``--experiment custom_circuit``.

Every invocation writes into one directory named by a hash of the
configuration; reruns with an identical configuration are byte-identical
(no timestamps, stable float formatting), independent of ``--parallel``.

Exit codes: 0 success, 1 usage error, 2 validation error (bad files or
parameters), 3 numeric failure (diverged run or failed acceptance).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .engine import DENSE_DENSITY_MAX_QUBITS, CircuitError, parse_circuit
from .experiments import (
    BACKENDS,
    EXPERIMENTS,
    SCORED,
    ExperimentConfig,
    run_compare,
)
from .linalg import basis_labels
from .noise_model import CalibrationError, load_calibration

USAGE_ERROR = 1
VALIDATION_ERROR = 2
NUMERIC_ERROR = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="noisygates", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--experiment", choices=EXPERIMENTS, default="repeat_x")
        p.add_argument("--reps", type=_positive_int, default=100, help="number of repeated gates")
        p.add_argument("--checkpoints", type=_positive_int, default=50)
        p.add_argument("--shots", type=_positive_int, default=1000)
        p.add_argument("--runs", type=_positive_int, default=10)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--device", required=True, help="calibration JSON file")
        p.add_argument("--circuit", help="circuit JSON file (custom_circuit)")
        p.add_argument(
            "--backends",
            default=",".join(BACKENDS),
            help=f"comma-separated subset of {','.join(BACKENDS)}",
        )
        p.add_argument("--estimator", choices=("weighted", "unweighted"), default="weighted")
        p.add_argument("--cnot-mode", choices=("direct", "decomposed"), default="direct")
        p.add_argument("--out", default="runs", help="output root directory")
        p.add_argument("--parallel", type=_positive_int, default=os.cpu_count() or 1)

    add_common(sub.add_parser("simulate", help="run backends once and dump distributions"))
    add_common(sub.add_parser("compare", help="run the benchmarking protocol"))
    val = sub.add_parser("validate", help="run the acceptance suite")
    val.add_argument("--criteria", help="comma-separated criterion numbers (default: all)")
    val.add_argument("--out", default=None, help="optional directory for the report")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    custom = args.experiment == "custom_circuit"
    if custom and not args.circuit:
        raise CalibrationError("custom_circuit requires --circuit")
    if args.circuit and not custom:
        # --experiment defaults to repeat_x, which would run in place of the circuit
        raise ValueError("--circuit runs only with --experiment custom_circuit")
    device = load_calibration(Path(args.device))
    circuit = parse_circuit(Path(args.circuit)) if custom else None
    backends = tuple(b for b in args.backends.split(",") if b)
    return ExperimentConfig(
        experiment=args.experiment,
        device=device,
        # a custom circuit reads neither, so they must not name its run directory
        repetitions=1 if custom else args.reps,
        checkpoints=1 if custom else args.checkpoints,
        shots=args.shots,
        runs=args.runs,
        seed=args.seed,
        backends=backends,
        estimator=args.estimator,
        cnot_mode=args.cnot_mode,
        circuit=circuit,
        parallel=args.parallel,
    )


def _float(x) -> str:
    return repr(float(x))


def _config_digest(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).parent,
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def _serialise_config(command: str, config: ExperimentConfig) -> dict:
    device = {
        "qubits": [asdict(q) for q in config.device.qubits],
        "gates": {
            "t_1q_s": config.device.t_1q_s,
            "t_2q_s": config.device.t_2q_s,
            "p_1q": config.device.p_1q,
            "p_2q": config.device.p_2q,
        },
    }
    payload = {
        "command": command,
        "experiment": config.experiment,
        "repetitions": config.repetitions,
        "checkpoints": config.checkpoints,
        "shots": config.shots,
        "runs": config.runs,
        "seed": config.seed,
        "backends": list(config.backends),
        "estimator": config.estimator,
        "cnot_mode": config.cnot_mode,
        "device": device,
    }
    if config.circuit is not None:
        payload["circuit"] = _serialise_circuit(config.circuit)
    return payload


def _serialise_circuit(circuit) -> dict:
    """Every parsed op, layer by layer, and the measured qubits: two
    circuits share a run directory only when they run the same ops.
    Numbers are floats, so ``1`` and ``1.0`` hash alike."""

    def number(x):
        return None if x is None else float(x)

    layers = [
        [
            {"gate": g.kind, "q": list(g.qubits), "theta": number(g.theta), "phi": number(g.phi),
             "duration_s": number(g.duration)}
            for g in layer
        ]
        for layer in circuit.layers
    ]
    return {"n_qubits": circuit.n_qubits, "layers": layers, "measure": list(circuit.measured)}


def _write_metadata(outdir: Path, payload: dict) -> None:
    meta = dict(payload)
    meta["package_version"] = __version__
    meta["git_revision"] = _git_revision()
    meta["params_hash"] = _config_digest(payload["device"])
    (outdir / "metadata.json").write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")


def _checkpoint_rows(result, key: str, table) -> list[str]:
    """One row per checkpoint: the ``key`` cells (each ending in a comma),
    the gate count, the time, then the checkpoint's row of ``table``,
    where None leaves an empty cell."""
    return [
        f"{key}{count},{_float(t)}," + ",".join("" if v is None else _float(v) for v in values)
        for count, t, values in zip(result.gate_counts, result.times, table)
    ]


def _basis_columns(result, prefix: str) -> str:
    """One ``prefix``_<bits> column name per basis state."""
    dim = next(iter(result.dists.values())).shape[-1]
    return ",".join(f"{prefix}_{s}" for s in basis_labels(dim))


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    path.write_text("\n".join([header, *rows]) + "\n")


def _write_distributions(outdir: Path, result) -> None:
    """Per-run outcome distributions of the back-ends in ``--backends``:
    ``compare`` runs the reference to score the others, but its rows
    appear only when it is listed."""
    rows = []
    for b in ("lindblad", "noisy_gates", "channel"):
        if b in result.config.backends:
            for r, run in enumerate(result.dists[b]):
                rows += _checkpoint_rows(result, f"{b},{r},", run)
    _write_csv(outdir / "distributions.csv", "backend,run,checkpoint_gates,time_s," + _basis_columns(result, "p"), rows)


def _write_densities(outdir: Path, result) -> None:
    """Per-backend density diagonals: the Lindblad reference whenever it
    ran, the exact channel-simulator state, and (run 0) the trajectory
    average of unnormalised outer products, whose trace is the mean
    weight."""
    rows = []
    for b in ("lindblad", "channel", "noisy_gates"):
        if b in result.diagonals:
            rows += _checkpoint_rows(result, f"{b},", result.diagonals[b])
    _write_csv(outdir / "density_diagonals.csv", "backend,checkpoint_gates,time_s," + _basis_columns(result, "rho"), rows)


def _write_hellinger(outdir: Path, result) -> None:
    """Per-run Hellinger series, noisy_gates then channel; a back-end that
    was not scored leaves its cells empty."""
    blank = [None] * len(result.gate_counts)
    rows = []
    for r in range(result.config.runs):
        columns = [result.hellinger[b][r] if b in result.hellinger else blank for b in SCORED]
        rows += _checkpoint_rows(result, f"{r},", zip(*columns))
    _write_csv(outdir / "hellinger.csv", "run,checkpoint_gates,time_s,h_noisy_gates,h_channel", rows)


def _write_summary(outdir: Path, result) -> None:
    """Per-checkpoint mean and standard deviation of each scored
    back-end's series, and the relative improvement when both were
    scored; what is missing leaves empty cells."""
    blank = [None] * len(result.gate_counts)
    columns = []
    for b in SCORED:
        columns += result.mean_std(b) if b in result.hellinger else (blank, blank)
    improvement = result.improvement()
    columns.append(blank if improvement is None else improvement)
    header = (
        "checkpoint_gates,time_s,mean_h_noisy_gates,std_h_noisy_gates,"
        "mean_h_channel,std_h_channel,relative_improvement"
    )
    _write_csv(outdir / "summary.csv", header, _checkpoint_rows(result, "", zip(*columns)))


def write_rho_series_csv(path, times: np.ndarray, states: list[np.ndarray], diagonal_only: bool = False) -> None:
    """CSV dump: time, then row-major Re/Im of rho (or just the diagonal),
    each entry named by the big-endian bit strings of its basis states."""
    labels = basis_labels(states[0].shape[0])
    if diagonal_only:
        names = [f"rho_{b}" for b in labels]
        rows = [np.real(np.diag(rho)) for rho in states]
    else:
        names = [f"{part}_rho_{bi}_{bj}" for bi in labels for bj in labels for part in ("re", "im")]
        rows = [np.stack([rho.real, rho.imag], axis=-1).ravel() for rho in states]
    lines = [",".join(_float(x) for x in (t, *row)) for t, row in zip(times, rows)]
    _write_csv(Path(path), ",".join(["time_s", *names]), lines)


def cmd_run(args) -> int:
    """``simulate`` (one run of each listed back-end) or ``compare`` (the
    ``--runs`` runs, scored against the reference), written to one
    directory named by the configuration's hash."""
    config = _config_from_args(args)
    scored = args.command == "compare"
    if scored and not set(SCORED) & set(config.backends):
        raise ValueError("compare needs noisy_gates or channel in --backends: it scores them against the lindblad reference")
    if not scored:
        config = replace(config, runs=1)
    payload = _serialise_config(args.command, config)
    result = run_compare(config, hellinger_series=scored)
    outdir = Path(args.out) / f"{args.command}-{_config_digest(payload)}"
    outdir.mkdir(parents=True, exist_ok=True)
    _write_metadata(outdir, payload)
    _write_distributions(outdir, result)
    _write_densities(outdir, result)
    if scored:
        _write_hellinger(outdir, result)
        _write_summary(outdir, result)
    for b, states in result.rhos.items():
        # wider registers keep the diagonal only, as the engine keeps no
        # density estimate above this width
        diagonal_only = states[0].shape[0] > 2**DENSE_DENSITY_MAX_QUBITS
        write_rho_series_csv(outdir / f"{b}_rho.csv", result.times, states, diagonal_only)
    print(outdir)
    return 0


def cmd_validate(args) -> int:
    from . import acceptance

    numbers = None
    if args.criteria is not None:
        try:
            numbers = [int(x) for x in args.criteria.split(",") if x]
        except ValueError:
            print("invalid --criteria list", file=sys.stderr)
            return USAGE_ERROR
        known = [c[0] for c in acceptance.CRITERIA]
        unknown = [x for x in numbers if x not in known]
        if not numbers or unknown:
            what = f"unknown criteria {unknown}" if unknown else "no criterion"
            print(f"error: --criteria lists {what}; the criteria are {known}", file=sys.stderr)
            return USAGE_ERROR
    results = acceptance.run_criteria(numbers)
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.number:>2}. {r.name:<{width}}  ({r.seconds:6.1f}s)  {r.detail}"
        lines.append(line)
        print(line)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "validate_report.txt").write_text("\n".join(lines) + "\n")
    return 0 if all(r.passed for r in results) else NUMERIC_ERROR


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args)
        return cmd_run(args)
    except (CalibrationError, CircuitError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
