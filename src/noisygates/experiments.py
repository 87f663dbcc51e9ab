"""Benchmark experiments: repeated-gate circuits run through the
trajectory engine, the Kraus channel simulator and the Lindblad
reference, plus the Hellinger comparison protocol.

The repeated-gate experiments mirror a standard stress test: initialise
the register, apply the same native gate N times and track the outcome
distribution at checkpoints.  ``repeat_x`` drives one qubit; the
two-qubit experiments start from |10> (prepared by a leading X gate,
which is noisy like every other gate and included in all backends) and
repeat a CR or CNOT gate.  The CNOT experiment measures both qubits, so
every checkpoint includes pre-measurement readout noise in all
backends; the X and CR experiments compare bare populations.

The channel backend is evaluated exactly and then *sampled* with the
configured number of shots per checkpoint, so its run-to-run scatter is
comparable with the trajectory backend (both emulate a finite-shot
simulator run).  The Lindblad reference is deterministic: each slot
evolves by the exact exponential of its master-equation generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import evolve_layers, run_channel_sim
from .engine import (
    Circuit,
    RunConfig,
    ScheduledCircuit,
    _Compiled,
    _check_int_fields,
    _pack_asap,
    decompose_cnot,
    expand_cnots,
    run_shots,
    schedule_layers,
)
from .gates import GateSpec, drive_generator, ideal_unitary
from .linalg import expm, superoperator
# ``solve`` stays bound here: perfbench/test_perfbench.py checks that
# tracing restores ``experiments.solve``.
from .lindblad import rhs_superoperator, solve  # noqa: F401
from .metrics import hellinger, mean_std_over_runs
from .noise_model import DeviceParams, noise_context_for_gate
from .stochastic import RngStream

__all__ = [
    "BACKENDS",
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentResult",
    "build_experiment_circuit",
    "checkpoint_gate_counts",
    "lindblad_reference",
    "channel_backend_run",
    "run_compare",
]

BACKENDS = ("noisy_gates", "channel", "lindblad")
EXPERIMENTS = ("repeat_x", "repeat_cr", "repeat_cnot", "custom_circuit")

# Stream index offsets keep the three stochastic consumers independent.
_CHANNEL_STREAM_BASE = 1_000_000


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    device: DeviceParams
    repetitions: int = 100
    checkpoints: int = 50
    shots: int = 1000
    runs: int = 10
    seed: int = 0
    backends: tuple[str, ...] = BACKENDS
    estimator: str = "weighted"
    cnot_mode: str = "direct"
    circuit: Circuit | None = None
    parallel: int = 1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        _check_int_fields(
            self, (("repetitions", 1), ("checkpoints", 1), ("shots", 1), ("runs", 1), ("seed", 0), ("parallel", 1))
        )
        if self.checkpoints > self.repetitions:
            raise ValueError("checkpoints must lie in 1..repetitions")
        if not self.backends:
            raise ValueError("select at least one backend")
        unknown = set(self.backends) - set(BACKENDS)
        if unknown:
            raise ValueError(f"unknown backends: {sorted(unknown)}")
        if self.experiment == "custom_circuit" and self.circuit is None:
            raise ValueError("custom_circuit requires a parsed circuit")
        for name, allowed in (("estimator", ("weighted", "unweighted")), ("cnot_mode", ("direct", "decomposed"))):
            if getattr(self, name) not in allowed:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}; choose one of {', '.join(allowed)}")


def checkpoint_gate_counts(repetitions: int, checkpoints: int) -> tuple[int, ...]:
    """Evenly spaced cumulative gate counts, ending at ``repetitions``."""
    counts = sorted({max(1, round((j + 1) * repetitions / checkpoints)) for j in range(checkpoints)})
    return tuple(counts)


def build_experiment_circuit(config: ExperimentConfig) -> tuple[Circuit, tuple[int, ...], tuple[int, ...]]:
    """Returns (circuit, checkpoint layer indices, checkpoint gate counts).

    A stock experiment is its prep ops (none for ``repeat_x``, X on qubit 0
    for the two-qubit ones) followed by ``repetitions`` copies of its body:
    one X, one CR(pi), or one CNOT, which ``decomposed`` mode replaces by
    ``decompose_cnot``'s native ops.  ``_pack_asap`` lays the ops out, and a
    checkpoint of c gates sits at the depth after the last op of the c-th
    repetition.  A custom circuit has one checkpoint, at its end.
    """
    if config.experiment == "custom_circuit":
        circ = config.circuit
        if config.cnot_mode == "decomposed":
            circ = expand_cnots(circ)
        return circ, (circ.n_layers,), (circ.n_layers,)

    measured = ()
    if config.experiment == "repeat_x":
        n, prep, body = 1, [], [GateSpec("X", (0,))]
    else:
        n, prep = 2, [GateSpec("X", (0,))]
        if config.experiment == "repeat_cr":
            body = [GateSpec("CR", (0, 1), theta=math.pi, phi=0.0)]
        else:
            body, measured = [GateSpec("CNOT", (0, 1))], (0, 1)
            if config.cnot_mode == "decomposed":
                body = decompose_cnot(body[0])
    layers, depths = _pack_asap(prep + body * config.repetitions)
    counts = checkpoint_gate_counts(config.repetitions, config.checkpoints)
    checkpoint_layers = tuple(depths[len(prep) + c * len(body) - 1] for c in counts)
    return Circuit(n, layers, measured), checkpoint_layers, counts


def _readout_distribution(rho: np.ndarray, scheduled: ScheduledCircuit) -> np.ndarray:
    """Outcome distribution of ``rho`` after a bitflip readout channel on
    each measured qubit.  A bit flip with probability e changes only the
    diagonal, as the classical map p <- (1 - e) p + e flip_q(p), so only
    diag(rho) is read (big-endian: qubit q is axis q of the 2 x ... x 2
    view)."""
    p = np.real(np.diag(rho)).reshape((2,) * scheduled.n_qubits)
    for q in scheduled.measured:
        e = scheduled.params.qubits[q].p_readout
        p = (1 - e) * p + e * np.flip(p, axis=q)
    p = p.reshape(-1).clip(min=0.0)
    return p / p.sum()


def _channel_checkpoint_probs(
    scheduled: ScheduledCircuit, checkpoint_layers: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """(readout distributions, pre-readout state diagonals) per checkpoint."""
    probs, diags = [], []
    for rho in run_channel_sim(scheduled, checkpoint_layers):
        diags.append(np.real(np.diag(rho)).copy())
        probs.append(_readout_distribution(rho, scheduled))
    return np.asarray(probs), np.asarray(diags)


def channel_backend_run(config: ExperimentConfig, run_index: int, exact_probs: np.ndarray) -> np.ndarray:
    """Run ``run_index`` of the channel back-end: a finite-shot sample of
    ``exact_probs``, the exact channel-simulator distributions at the
    checkpoints (``_channel_checkpoint_probs``), from the run's own stream
    (seed, ``_CHANNEL_STREAM_BASE`` + run)."""
    gen = RngStream(config.seed, stream_index=_CHANNEL_STREAM_BASE + run_index).generator
    out = np.empty_like(exact_probs)
    for j, p in enumerate(exact_probs):
        counts = gen.multinomial(config.shots, p / p.sum())
        out[j] = counts / config.shots
    return out


def _lindblad_slot_map(gate: GateSpec, params: DeviceParams) -> np.ndarray:
    """Local map of one slot: the exact exponential (``linalg.expm``) of
    the slot-time generator (``lindblad.rhs_superoperator``) of its drive
    ``drive_generator(gate)`` (none for an idle) and its
    ``noise_context_for_gate`` terms, over s in [0, 1].  A zero-duration
    slot (an RZ frame, a zero idle) is its ideal unitary."""
    ctx = noise_context_for_gate(gate, params)
    if ctx.gate_duration == 0.0:
        return superoperator([ideal_unitary(gate)])
    return expm(rhs_superoperator(drive_generator(gate), ctx.terms))


def lindblad_reference(
    scheduled: ScheduledCircuit, checkpoint_layers: tuple[int, ...]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Integrate the master equation along the scheduled circuit.

    Every slot evolves its own qubits over its own duration under its
    drive and its ``noise_context_for_gate`` jump terms.  Slots of a layer
    act on disjoint qubits (an idle and its pad run back to back), so
    their generators commute and the layer's map is the product of the
    slots' local maps, each the exact exponential of its generator, built
    once per distinct slot and applied by
    :func:`~noisygates.channels.evolve_layers`.  Returns
    (distributions, rho at every checkpoint).  Readout bitflips
    are applied to the distribution only, never to the running state.
    Registers wider than ``channels.MAX_QUBITS`` raise ``ValueError``
    before anything is allocated.
    """
    rhos = evolve_layers(scheduled, lambda gate: _lindblad_slot_map(gate, scheduled.params), checkpoint_layers)
    dists = np.asarray([_readout_distribution(rho_c, scheduled) for rho_c in rhos])
    return dists, rhos


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    gate_counts: tuple[int, ...]
    times: np.ndarray
    lindblad_dists: np.ndarray | None
    lindblad_rhos: list[np.ndarray] | None
    noisy_dists: np.ndarray | None  # (runs, n_cp, dim)
    channel_dists: np.ndarray | None
    h_noisy: np.ndarray | None  # (runs, n_cp)
    h_channel: np.ndarray | None
    mean_h_noisy: np.ndarray | None = None
    std_h_noisy: np.ndarray | None = None
    mean_h_channel: np.ndarray | None = None
    std_h_channel: np.ndarray | None = None
    improvement: np.ndarray | None = None
    noisy_densities: np.ndarray | None = None  # run 0 average outer products
    channel_state_diags: np.ndarray | None = None  # pre-readout diagonals


def _noisy_task(args):
    """Run ``run_index`` of the trajectory engine on the compiled circuit
    every run of one ``compare`` shares: its distributions at the
    checkpoint ``layers``, and run 0's density estimates."""
    compiled, config, layers, run_index = args
    run_cfg = RunConfig(shots=config.shots, master_seed=config.seed, run_index=run_index, checkpoints=layers)
    result = run_shots(compiled.scheduled, run_cfg, compiled)
    dists = result.distribution(slice(None), config.estimator)
    return dists, (result.densities if run_index == 0 else None)


def run_compare(config: ExperimentConfig, hellinger_series: bool = True) -> ExperimentResult:
    """Run the selected backends and, with ``hellinger_series``, compute
    their Hellinger series against the Lindblad reference, the yardstick.

    The density-matrix back-ends run first, so a register they cannot
    hold fails before any trajectory is drawn.  The reference runs only
    when something needs it: the Hellinger series or ``lindblad``.
    """
    circuit, layers, counts = build_experiment_circuit(config)
    scheduled = schedule_layers(circuit, config.device)
    times = scheduled.checkpoint_times(layers)
    lb_dists = lb_rhos = None
    if hellinger_series or "lindblad" in config.backends:
        lb_dists, lb_rhos = lindblad_reference(scheduled, layers)

    def series(dists):
        if not hellinger_series:
            return None
        return np.asarray(
            [[hellinger(dists[r, j], lb_dists[j]) for j in range(len(layers))] for r in range(config.runs)]
        )

    noisy = channel = h_ng = h_ch = densities = state_diags = None
    if "channel" in config.backends:
        exact, state_diags = _channel_checkpoint_probs(scheduled, layers)
        # sampling a run takes far less than starting a worker process
        channel = np.asarray([channel_backend_run(config, r, exact) for r in range(config.runs)])
        h_ch = series(channel)
    if "noisy_gates" in config.backends:
        # one compiled circuit for all runs; a worker process gets a pickled
        # copy with an empty workspace
        compiled = _Compiled(scheduled)
        tasks = [(compiled, config, layers, r) for r in range(config.runs)]
        outs = _map_tasks(_noisy_task, tasks, config.parallel)
        noisy = np.asarray([o[0] for o in outs])
        densities = outs[0][1]
        h_ng = series(noisy)

    result = ExperimentResult(
        config=config,
        gate_counts=counts,
        times=times,
        lindblad_dists=lb_dists,
        lindblad_rhos=lb_rhos,
        noisy_dists=noisy,
        channel_dists=channel,
        h_noisy=h_ng,
        h_channel=h_ch,
        noisy_densities=densities,
        channel_state_diags=state_diags,
    )
    if h_ng is not None:
        result.mean_h_noisy, result.std_h_noisy = mean_std_over_runs(h_ng)
    if h_ch is not None:
        result.mean_h_channel, result.std_h_channel = mean_std_over_runs(h_ch)
    if h_ng is not None and h_ch is not None:
        with np.errstate(divide="ignore", invalid="ignore"):
            imp = np.abs(result.mean_h_channel - result.mean_h_noisy) / result.mean_h_channel
        result.improvement = np.where(result.mean_h_channel > 0, imp, 0.0)
    return result


def _map_tasks(fn, tasks, parallel: int):
    """``fn`` over ``tasks`` in order: in this process for one worker or
    task, else in a pool of up to ``parallel`` processes, imported only
    then, since it loads ``multiprocessing``."""
    if parallel <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(parallel, len(tasks))) as pool:
        return list(pool.map(fn, tasks))
