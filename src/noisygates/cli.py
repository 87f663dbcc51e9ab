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
    device = load_calibration(Path(args.device))
    circuit = None
    if args.experiment == "custom_circuit":
        if not args.circuit:
            raise CalibrationError("custom_circuit requires --circuit")
        circuit = parse_circuit(Path(args.circuit))
    backends = tuple(b for b in args.backends.split(",") if b)
    return ExperimentConfig(
        experiment=args.experiment,
        device=device,
        repetitions=args.reps,
        checkpoints=args.checkpoints if args.experiment != "custom_circuit" else 1,
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
    except OSError:
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


def _dim(result) -> int:
    """Hilbert-space dimension of whichever backends ran."""
    dists = (result.lindblad_dists, result.noisy_dists, result.channel_dists)
    return next(d for d in dists if d is not None).shape[-1]


def _write_distributions(outdir: Path, result, config: ExperimentConfig) -> None:
    dim = _dim(result)
    cols = ",".join(f"p_{b}" for b in basis_labels(dim))
    lines = [f"backend,run,checkpoint_gates,time_s,{cols}"]

    def emit(backend: str, run: int, dists: np.ndarray):
        for j, count in enumerate(result.gate_counts):
            probs = ",".join(_float(p) for p in dists[j])
            lines.append(f"{backend},{run},{count},{_float(result.times[j])},{probs}")

    if "lindblad" in config.backends:
        emit("lindblad", 0, result.lindblad_dists)
    if result.noisy_dists is not None:
        for r in range(result.noisy_dists.shape[0]):
            emit("noisy_gates", r, result.noisy_dists[r])
    if result.channel_dists is not None:
        for r in range(result.channel_dists.shape[0]):
            emit("channel", r, result.channel_dists[r])
    (outdir / "distributions.csv").write_text("\n".join(lines) + "\n")


def _write_densities(outdir: Path, result) -> None:
    """Per-backend density diagonals: the Lindblad reference, the exact
    channel-simulator state, and (run 0) the trajectory average of
    unnormalised outer products, whose trace is the mean weight."""
    dim = _dim(result)
    header = "backend,checkpoint_gates,time_s," + ",".join(f"rho_{b}" for b in basis_labels(dim))
    lines = [header]

    def emit(backend, values):
        for j, count in enumerate(result.gate_counts):
            diag = ",".join(_float(v) for v in values[j])
            lines.append(f"{backend},{count},{_float(result.times[j])},{diag}")

    if result.lindblad_rhos is not None:
        emit("lindblad", [[np.real(r[i, i]) for i in range(dim)] for r in result.lindblad_rhos])
    if result.channel_state_diags is not None:
        emit("channel", result.channel_state_diags)
    if result.noisy_densities is not None:
        emit("noisy_gates", [np.real(np.diag(d)) for d in result.noisy_densities])
    (outdir / "density_diagonals.csv").write_text("\n".join(lines) + "\n")


def _write_hellinger(outdir: Path, result) -> None:
    lines = ["run,checkpoint_gates,time_s,h_noisy_gates,h_channel"]
    runs = result.h_noisy.shape[0] if result.h_noisy is not None else result.h_channel.shape[0]
    for r in range(runs):
        for j, count in enumerate(result.gate_counts):
            hn = _float(result.h_noisy[r, j]) if result.h_noisy is not None else ""
            hc = _float(result.h_channel[r, j]) if result.h_channel is not None else ""
            lines.append(f"{r},{count},{_float(result.times[j])},{hn},{hc}")
    (outdir / "hellinger.csv").write_text("\n".join(lines) + "\n")


def _write_summary(outdir: Path, result) -> None:
    lines = [
        "checkpoint_gates,time_s,mean_h_noisy_gates,std_h_noisy_gates,"
        "mean_h_channel,std_h_channel,relative_improvement"
    ]
    for j, count in enumerate(result.gate_counts):
        mn = _float(result.mean_h_noisy[j]) if result.mean_h_noisy is not None else ""
        sn = _float(result.std_h_noisy[j]) if result.std_h_noisy is not None else ""
        mc = _float(result.mean_h_channel[j]) if result.mean_h_channel is not None else ""
        sc = _float(result.std_h_channel[j]) if result.std_h_channel is not None else ""
        imp = _float(result.improvement[j]) if result.improvement is not None else ""
        lines.append(f"{count},{_float(result.times[j])},{mn},{sn},{mc},{sc},{imp}")
    (outdir / "summary.csv").write_text("\n".join(lines) + "\n")


def write_rho_series_csv(path, times: np.ndarray, states: list[np.ndarray], diagonal_only: bool = False) -> None:
    """CSV dump: time, then row-major Re/Im of rho (or just the diagonal),
    each entry named by the big-endian bit strings of its basis states."""
    d = states[0].shape[0]
    labels = basis_labels(d)
    with open(path, "w", newline="") as fh:
        if diagonal_only:
            header = ["time_s"] + [f"rho_{b}" for b in labels]
            fh.write(",".join(header) + "\n")
            for t, rho in zip(times, states):
                row = [_float(t)] + [_float(np.real(rho[i, i])) for i in range(d)]
                fh.write(",".join(row) + "\n")
            return
        header = ["time_s"]
        for bi in labels:
            for bj in labels:
                header += [f"re_rho_{bi}_{bj}", f"im_rho_{bi}_{bj}"]
        fh.write(",".join(header) + "\n")
        for t, rho in zip(times, states):
            row = [_float(t)]
            for i in range(d):
                for j in range(d):
                    row += [_float(np.real(rho[i, j])), _float(np.imag(rho[i, j]))]
            fh.write(",".join(row) + "\n")


def _write_lindblad_rho(outdir: Path, result) -> None:
    if result.lindblad_rhos is None:
        return
    # wider registers keep the diagonal only, as the engine keeps no
    # density estimate above this width
    write_rho_series_csv(
        outdir / "lindblad_rho.csv",
        result.times,
        result.lindblad_rhos,
        diagonal_only=result.lindblad_rhos[0].shape[0] > 2**DENSE_DENSITY_MAX_QUBITS,
    )


def cmd_simulate(args) -> int:
    config = replace(_config_from_args(args), runs=1)
    payload = _serialise_config("simulate", config)
    result = run_compare(config, hellinger_series=False)
    outdir = Path(args.out) / f"simulate-{_config_digest(payload)}"
    outdir.mkdir(parents=True, exist_ok=True)
    _write_metadata(outdir, payload)
    _write_distributions(outdir, result, config)
    _write_densities(outdir, result)
    _write_lindblad_rho(outdir, result)
    print(outdir)
    return 0


def cmd_compare(args) -> int:
    config = _config_from_args(args)
    if not {"noisy_gates", "channel"} & set(config.backends):
        raise ValueError("compare needs noisy_gates or channel in --backends: it scores them against the lindblad reference")
    payload = _serialise_config("compare", config)
    result = run_compare(config)
    outdir = Path(args.out) / f"compare-{_config_digest(payload)}"
    outdir.mkdir(parents=True, exist_ok=True)
    _write_metadata(outdir, payload)
    _write_distributions(outdir, result, config)
    _write_densities(outdir, result)
    _write_hellinger(outdir, result)
    _write_summary(outdir, result)
    _write_lindblad_rho(outdir, result)
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
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "compare":
            return cmd_compare(args)
        return cmd_validate(args)
    except (CalibrationError, CircuitError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_ERROR
    except FloatingPointError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
