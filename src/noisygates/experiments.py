"""Benchmark experiments: repeated-gate circuits run through the
trajectory engine, the channel simulator ("ideal gate, then noise
channels") and the Lindblad reference, plus the Hellinger comparison
protocol.

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

``run_compare`` returns one ``ExperimentResult`` for every choice of
back-ends: its distributions, state diagonals and Hellinger series are
maps keyed by back-end name, holding the back-ends that ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import _lindblad_slot_map, evolve_layers, run_channel_sim
from .engine import (
    Circuit,
    RunConfig,
    ScheduledCircuit,
    _check_int_fields,
    _pack_asap,
    decompose_cnot,
    expand_cnots,
    run_shots,
    schedule_layers,
)
from .gates import GateSpec
# ``solve`` stays bound here: perfbench/test_perfbench.py checks that
# tracing restores ``experiments.solve``.
from .lindblad import solve  # noqa: F401
from .metrics import hellinger, mean_std_over_runs
from .noise_model import DeviceParams
from .stochastic import RngStream

__all__ = [
    "BACKENDS",
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentResult",
    "SCORED",
    "build_experiment_circuit",
    "checkpoint_gate_counts",
    "lindblad_reference",
    "channel_backend_run",
    "run_compare",
]

BACKENDS = ("noisy_gates", "channel", "lindblad")
# the back-ends scored against the Lindblad reference, in column order
SCORED = ("noisy_gates", "channel")
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


def lindblad_reference(
    scheduled: ScheduledCircuit, checkpoint_layers: tuple[int, ...]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Integrate the master equation along the scheduled circuit.

    Every slot evolves its own qubits over its own duration under its
    drive and its ``noise_context_for_gate`` jump terms.  Slots of a layer
    act on disjoint qubits (an idle and its pad run back to back), so
    their generators commute and the layer's map is the product of the
    slots' local maps, each the exact exponential of its generator
    (``channels._lindblad_slot_map``), built once per distinct slot and
    applied by :func:`~noisygates.channels.evolve_layers`.  Returns
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
    """Maps keyed by back-end name, each holding the back-ends that ran:
    ``dists`` (runs, checkpoints, 2**n), the reference as its one run;
    ``diagonals`` (checkpoints, 2**n), the pre-readout state diagonals
    (for ``noisy_gates`` run 0's estimate, kept up to
    ``engine.DENSE_DENSITY_MAX_QUBITS`` qubits); ``hellinger`` (runs,
    checkpoints) for the scored back-ends; ``rhos``, the reference's
    density matrices.  Statistics of the series are computed on request.
    """

    config: ExperimentConfig
    gate_counts: tuple[int, ...]
    times: np.ndarray
    dists: dict[str, np.ndarray] = field(default_factory=dict)
    diagonals: dict[str, np.ndarray] = field(default_factory=dict)
    hellinger: dict[str, np.ndarray] = field(default_factory=dict)
    rhos: dict[str, list[np.ndarray]] = field(default_factory=dict)

    def mean_std(self, backend: str) -> tuple[np.ndarray, np.ndarray]:
        """Per-checkpoint mean and standard deviation over runs of
        ``backend``'s Hellinger series."""
        return mean_std_over_runs(self.hellinger[backend])

    def improvement(self) -> np.ndarray | None:
        """|mean_h_channel - mean_h_noisy| / mean_h_channel per checkpoint,
        0 where the channel mean is 0; None unless both were scored."""
        if not set(SCORED) <= self.hellinger.keys():
            return None
        noisy, channel = self.mean_std("noisy_gates")[0], self.mean_std("channel")[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            imp = np.abs(channel - noisy) / channel
        return np.where(channel > 0, imp, 0.0)


def _noisy_task(args):
    """Run ``run_index`` of the trajectory engine on ``scheduled``, whose
    plan (``scheduled.compiled``) every run of one ``compare`` shares: its
    distributions at the checkpoint ``layers``, and run 0's density
    diagonals (None where the engine keeps no density)."""
    scheduled, config, layers, run_index = args
    run_cfg = RunConfig(shots=config.shots, master_seed=config.seed, run_index=run_index, checkpoints=layers)
    result = run_shots(scheduled, run_cfg)
    dists = result.distribution(slice(None), config.estimator)
    if run_index != 0 or result.densities is None:
        return dists, None
    return dists, np.real(np.diagonal(result.densities, axis1=1, axis2=2)).copy()


def run_compare(config: ExperimentConfig, hellinger_series: bool = True) -> ExperimentResult:
    """Run the selected backends and, with ``hellinger_series``, score
    ``noisy_gates`` and ``channel`` by their Hellinger series against the
    Lindblad reference, the yardstick.

    The circuit is scheduled and compiled once: every trajectory run reads
    the one plan, ``scheduled.compiled``, which a ``parallel`` worker
    receives with its pickled copy of the circuit.

    The density-matrix back-ends run first, so a register they cannot
    hold fails before any trajectory is drawn.  The reference runs only
    when something needs it: the Hellinger series or ``lindblad``.  Once
    run, its entries are in ``dists``, ``diagonals`` and ``rhos`` whether
    ``lindblad`` is listed or not.
    """
    circuit, layers, counts = build_experiment_circuit(config)
    scheduled = schedule_layers(circuit, config.device)
    result = ExperimentResult(config, counts, scheduled.checkpoint_times(layers))
    if hellinger_series or "lindblad" in config.backends:
        dists, rhos = lindblad_reference(scheduled, layers)
        result.dists["lindblad"] = dists[None]
        result.rhos["lindblad"] = rhos
        result.diagonals["lindblad"] = np.asarray([np.real(np.diag(rho)) for rho in rhos])

    if "channel" in config.backends:
        exact, result.diagonals["channel"] = _channel_checkpoint_probs(scheduled, layers)
        # sampling a run takes far less than starting a worker process
        result.dists["channel"] = np.asarray([channel_backend_run(config, r, exact) for r in range(config.runs)])
    if "noisy_gates" in config.backends:
        # one plan for all runs, built here so that a worker process gets
        # it, with an empty workspace, in its pickled copy of the circuit
        scheduled.compiled
        tasks = [(scheduled, config, layers, r) for r in range(config.runs)]
        outs = _map_tasks(_noisy_task, tasks, config.parallel)
        result.dists["noisy_gates"] = np.asarray([o[0] for o in outs])
        if outs[0][1] is not None:
            result.diagonals["noisy_gates"] = outs[0][1]

    if hellinger_series:
        reference = result.dists["lindblad"][0]
        for b in SCORED:
            if b in result.dists:
                result.hellinger[b] = np.asarray(
                    [[hellinger(p, q) for p, q in zip(run, reference)] for run in result.dists[b]]
                )
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
