"""Circuit representation, scheduling and Monte Carlo trajectory engine.

Circuits are JSON documents (see ``parse_circuit``); operations are
packed greedily into layers (ASAP).  Scheduling attaches device
durations, pads idle qubits with exact relaxation slots and appends a
pre-measurement noise slot per measured qubit.

The unraveling is linear: trajectory states are *not* renormalised, the
unbiased density estimate is the plain average of outer products and
the default outcome distribution weights each trajectory's Born
probabilities by its squared norm.  An ``unweighted`` estimator
(one sampled bitstring per trajectory) is available as well.

Trajectories are simulated in fixed chunks of ``CHUNK_SHOTS`` shots so
the per-gate sampling vectorises; each chunk draws from its own random
stream keyed by (master seed, run index, chunk index), which makes
results bit-identical for any worker count or execution order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .gates import (
    GateSpec,
    NoisyGateSampler,
    ideal_unitary,
    relaxation_gate_batch,
    schedule,
    spam_gate_batch,
)
from .linalg import apply_gate
from .noise_model import DeviceParams, noise_context_for_gate, relaxation_rates, spam_strength
from .stochastic import RngStream

__all__ = [
    "CircuitError",
    "Circuit",
    "ScheduledLayer",
    "ScheduledCircuit",
    "RunConfig",
    "TrajectoryResult",
    "EnsembleResult",
    "parse_circuit",
    "schedule_layers",
    "decompose_cnot",
    "run_trajectory",
    "run_shots",
]

CHUNK_SHOTS = 1024
DENSE_DENSITY_MAX_QUBITS = 5


class CircuitError(ValueError):
    """Raised for malformed circuit documents."""


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    layers: tuple[tuple[GateSpec, ...], ...]
    measured: tuple[int, ...] = ()

    def __post_init__(self):
        for layer in self.layers:
            seen: set[int] = set()
            for gate in layer:
                for q in gate.qubits:
                    if q in seen:
                        raise CircuitError(f"qubit {q} used twice in one layer")
                    if q < 0 or q >= self.n_qubits:
                        raise CircuitError(f"qubit index {q} out of range")
                    seen.add(q)
        for q in self.measured:
            if q < 0 or q >= self.n_qubits:
                raise CircuitError(f"measured qubit {q} out of range")

    @property
    def n_layers(self) -> int:
        return len(self.layers)


_OP_KEYS = {"gate", "q", "theta", "phi", "duration_s"}


def parse_circuit(source: str | Path | dict) -> Circuit:
    """Parse a circuit document and pack its ops into ASAP layers.

    Format: ``{"n_qubits": int, "ops": [{"gate": kind, "q": [ints],
    "theta"?: float, "phi"?: float, "duration_s"?: float}],
    "measure": [ints]}``.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = source
        if isinstance(source, Path) or (isinstance(source, str) and "\n" not in source and source.strip().endswith(".json")):
            text = Path(source).read_text()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CircuitError(f"circuit is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CircuitError("circuit root must be an object")
    extra = set(doc) - {"n_qubits", "ops", "measure"}
    if extra:
        raise CircuitError(f"unknown top-level keys: {sorted(extra)}")
    n = doc.get("n_qubits")
    if not isinstance(n, int) or n < 1:
        raise CircuitError("'n_qubits' must be a positive integer")
    ops_doc = doc.get("ops", [])
    if not isinstance(ops_doc, list):
        raise CircuitError("'ops' must be a list")

    gates: list[GateSpec] = []
    for i, op in enumerate(ops_doc):
        if not isinstance(op, dict):
            raise CircuitError(f"op {i} must be an object")
        extra = set(op) - _OP_KEYS
        if extra:
            raise CircuitError(f"unknown keys in op {i}: {sorted(extra)}")
        kind = op.get("gate")
        if kind not in ("X", "SX", "RZ", "RX", "CR", "CNOT", "IDLE"):
            raise CircuitError(f"op {i}: unknown gate kind {kind!r}")
        qubits = op.get("q")
        if not isinstance(qubits, list) or not all(isinstance(q, int) for q in qubits):
            raise CircuitError(f"op {i}: 'q' must be a list of ints")
        theta = op.get("theta")
        phi = op.get("phi", 0.0)
        duration = op.get("duration_s")
        if kind in ("RX", "CR") and theta is None:
            raise CircuitError(f"op {i}: {kind} requires 'theta'")
        if kind == "IDLE" and duration is None:
            raise CircuitError(f"op {i}: IDLE requires 'duration_s'")
        if kind == "RZ":
            if phi is None:
                raise CircuitError(f"op {i}: RZ requires 'phi'")
            duration = 0.0
        if any(q < 0 or q >= n for q in qubits):
            raise CircuitError(f"op {i}: qubit index out of range 0..{n - 1}: {qubits}")
        try:
            gates.append(GateSpec(kind, tuple(qubits), theta=theta, phi=float(phi), duration=duration))
        except ValueError as exc:
            raise CircuitError(f"op {i}: {exc}") from exc

    measured = doc.get("measure", [])
    if not isinstance(measured, list) or not all(isinstance(q, int) for q in measured):
        raise CircuitError("'measure' must be a list of ints")

    # greedy ASAP packing: each op lands in the earliest layer after the
    # last one touching any of its qubits
    frontier = [0] * n
    layers: list[list[GateSpec]] = []
    for gate in gates:
        at = max(frontier[q] for q in gate.qubits)
        while len(layers) <= at:
            layers.append([])
        layers[at].append(gate)
        for q in gate.qubits:
            frontier[q] = at + 1
    return Circuit(n_qubits=n, layers=tuple(tuple(l) for l in layers), measured=tuple(measured))


@dataclass(frozen=True)
class ScheduledLayer:
    """Ordered gate slots; idle pads follow the driven gates so that
    same-qubit slots apply sequentially."""

    gates: tuple[GateSpec, ...]
    duration: float


@dataclass(frozen=True)
class ScheduledCircuit:
    n_qubits: int
    layers: tuple[ScheduledLayer, ...]
    measured: tuple[int, ...]
    params: DeviceParams


def schedule_layers(circuit: Circuit, params: DeviceParams) -> ScheduledCircuit:
    """Attach durations, insert relaxation idles for inactive qubits
    (and for the tail of shorter gates in mixed layers)."""
    if circuit.n_qubits > params.n_qubits:
        raise CircuitError(
            f"circuit needs {circuit.n_qubits} qubits, device has {params.n_qubits}"
        )
    out: list[ScheduledLayer] = []
    for layer in circuit.layers:
        timed = [
            g if g.duration is not None else g.with_duration(params.gate_duration(len(g.qubits)))
            for g in layer
        ]
        duration = max((g.duration for g in timed), default=0.0)
        slots = list(timed)
        if duration > 0.0:
            busy: dict[int, float] = {}
            for g in timed:
                for q in g.qubits:
                    busy[q] = g.duration
            for q in range(circuit.n_qubits):
                pad = duration - busy.get(q, 0.0)
                if pad > 0.0:
                    slots.append(GateSpec("IDLE", (q,), duration=pad))
        out.append(ScheduledLayer(gates=tuple(slots), duration=duration))
    return ScheduledCircuit(
        n_qubits=circuit.n_qubits,
        layers=tuple(out),
        measured=circuit.measured,
        params=params,
    )


def decompose_cnot(gate: GateSpec) -> list[GateSpec]:
    """Echo-free CNOT decomposition into native RZ/SX/CR gates.

    CNOT = RZ(pi/2)_ctrl . SX_targ . CR(-pi/2) exactly (the three
    generators Z x I, I x X and Z x X commute, so the sequence order is
    immaterial and there is no residual global phase).
    """
    if gate.kind != "CNOT":
        raise ValueError("decompose_cnot expects a CNOT gate")
    ctrl, targ = gate.qubits
    return [
        GateSpec("CR", (ctrl, targ), theta=-math.pi / 2),
        GateSpec("SX", (targ,)),
        GateSpec("RZ", (ctrl,), phi=math.pi / 2, duration=0.0),
    ]


def expand_cnots(circuit: Circuit) -> Circuit:
    """Rewrite every CNOT through :func:`decompose_cnot` (hardware-like
    execution mode); other gates pass through unchanged."""
    ops: list[GateSpec] = []
    for layer in circuit.layers:
        for gate in layer:
            ops.extend(decompose_cnot(gate) if gate.kind == "CNOT" else [gate])
    frontier = [0] * circuit.n_qubits
    layers: list[list[GateSpec]] = []
    for gate in ops:
        at = max(frontier[q] for q in gate.qubits)
        while len(layers) <= at:
            layers.append([])
        layers[at].append(gate)
        for q in gate.qubits:
            frontier[q] = at + 1
    return Circuit(circuit.n_qubits, tuple(tuple(l) for l in layers), circuit.measured)


@dataclass(frozen=True)
class RunConfig:
    shots: int
    master_seed: int = 0
    estimator: str = "weighted"
    cnot_mode: str = "direct"
    run_index: int = 0
    checkpoints: tuple[int, ...] | None = None  # layer counts; None = end only

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.estimator not in ("weighted", "unweighted"):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.cnot_mode not in ("direct", "decomposed"):
            raise ValueError(f"unknown cnot_mode {self.cnot_mode!r}")


@dataclass
class TrajectoryResult:
    state: np.ndarray
    weight: float
    bitstring: int


@dataclass
class EnsembleResult:
    """Aggregates per checkpoint: outcome distributions, sampled counts
    and (for small registers) the unnormalised density estimate."""

    checkpoints: tuple[int, ...]
    times: np.ndarray
    distributions: np.ndarray  # (n_checkpoints, 2**n) weighted estimator
    counts: np.ndarray  # (n_checkpoints, 2**n) sampled bitstring counts
    mean_weight: np.ndarray  # (n_checkpoints,)
    densities: np.ndarray | None  # (n_checkpoints, d, d) average outer products
    shots: int

    def distribution(self, index: int | slice = -1, estimator: str = "weighted") -> np.ndarray:
        """Outcome distribution at checkpoint ``index`` (a slice gives one
        row per checkpoint) from the weighted or the sampled estimator."""
        if estimator == "weighted":
            return self.distributions[index]
        counts = self.counts[index]
        return counts / counts.sum(axis=-1, keepdims=True)


class _Compiled:
    """Per-layer samplers resolved once per (circuit, device)."""

    def __init__(self, scheduled: ScheduledCircuit):
        self.scheduled = scheduled
        self.n_qubits = scheduled.n_qubits
        params = scheduled.params
        self.layer_plans: list[list[tuple[str, object]]] = []
        cache: dict[tuple, NoisyGateSampler] = {}
        for layer in scheduled.layers:
            plan: list[tuple[str, object]] = []
            for gate in layer.gates:
                if gate.kind == "RZ":
                    plan.append(("fixed", (ideal_unitary(gate), gate.qubits)))
                elif gate.kind == "IDLE":
                    q = params.qubits[gate.qubits[0]]
                    gamma1, gamma_pd = relaxation_rates(q.t1_s, q.t2_s)
                    plan.append(("relax", (gamma1, gamma_pd, gate.duration, gate.qubits)))
                else:
                    key = (gate.kind, gate.theta, gate.phi, gate.duration, gate.qubits)
                    if key not in cache:
                        ctx = noise_context_for_gate(gate, params)
                        cache[key] = NoisyGateSampler(schedule(gate), ctx)
                    plan.append(("noisy", (cache[key], gate.qubits)))
            self.layer_plans.append(plan)
        self.spam = [
            (q, spam_strength(params.qubits[q].p_readout)) for q in scheduled.measured
        ]

    def apply_layer(self, states: np.ndarray, plan, gen: np.random.Generator) -> np.ndarray:
        size = states.shape[0]
        for kind, payload in plan:
            if kind == "fixed":
                u, qubits = payload
                states = apply_gate(states, u, qubits, self.n_qubits)
            elif kind == "relax":
                gamma1, gamma_pd, dt, qubits = payload
                gates = relaxation_gate_batch(gamma1, gamma_pd, dt, gen, size)
                states = apply_gate(states, gates, qubits, self.n_qubits)
            else:
                sampler, qubits = payload
                gates = sampler.sample_batch(gen, size)
                states = apply_gate(states, gates, qubits, self.n_qubits)
        return states

    def measured_probs(self, states: np.ndarray, gen: np.random.Generator) -> np.ndarray:
        """Per-trajectory Born probabilities at a readout point, with a
        fresh pre-measurement noise gate per measured qubit (the running
        states are not modified)."""
        if self.spam:
            noisy = states
            for q, v in self.spam:
                gates = spam_gate_batch(v, gen, states.shape[0])
                noisy = apply_gate(noisy, gates, (q,), self.n_qubits)
            return np.abs(noisy) ** 2
        return np.abs(states) ** 2


def run_trajectory(
    scheduled: ScheduledCircuit, rng: RngStream, compiled: _Compiled | None = None
) -> TrajectoryResult:
    """Single trajectory with a dedicated stream: |0..0> through every
    layer's noisy gates, returning the final (unnormalised) state, its
    squared-norm weight and one sampled bitstring."""
    compiled = compiled or _Compiled(scheduled)
    gen = rng.generator
    state = np.zeros((1, 2**scheduled.n_qubits), dtype=complex)
    state[0, 0] = 1.0
    for plan in compiled.layer_plans:
        state = compiled.apply_layer(state, plan, gen)
        if not np.all(np.isfinite(state)):
            raise FloatingPointError("trajectory state diverged")
    probs = compiled.measured_probs(state, gen)[0]
    weight = float(probs.sum())
    outcome = int(np.searchsorted(np.cumsum(probs / weight), gen.uniform()))
    return TrajectoryResult(state=state[0], weight=weight, bitstring=min(outcome, probs.size - 1))


def run_shots(scheduled: ScheduledCircuit, config: RunConfig) -> EnsembleResult:
    """Ensemble over ``config.shots`` trajectories.

    Shots are simulated in fixed chunks of ``CHUNK_SHOTS``; chunk c of
    run r draws from the stream (master_seed, r, c), so aggregates are
    bit-identical for any parallelism.  Checkpoints record the running
    ensemble after the stated number of layers (measured qubits get a
    fresh pre-measurement noise draw at every checkpoint, mirroring a
    family of circuits of increasing depth that share noise prefixes).
    """
    n = scheduled.n_qubits
    dim = 2**n
    compiled = _Compiled(scheduled)
    n_layers = len(scheduled.layers)
    checkpoints = config.checkpoints if config.checkpoints is not None else (n_layers,)
    if any(c < 0 or c > n_layers for c in checkpoints):
        raise ValueError(f"checkpoints out of range 0..{n_layers}: {checkpoints}")
    cp_sorted = tuple(sorted(checkpoints))
    keep_density = n <= DENSE_DENSITY_MAX_QUBITS

    n_cp = len(cp_sorted)
    dist_acc = np.zeros((n_cp, dim))
    weight_acc = np.zeros(n_cp)
    counts = np.zeros((n_cp, dim), dtype=np.int64)
    dens_acc = np.zeros((n_cp, dim, dim), dtype=complex) if keep_density else None

    n_chunks = (config.shots + CHUNK_SHOTS - 1) // CHUNK_SHOTS
    root = RngStream(config.master_seed, stream_index=config.run_index)
    for chunk in range(n_chunks):
        size = min(CHUNK_SHOTS, config.shots - chunk * CHUNK_SHOTS)
        gen = root.child(chunk).generator
        states = np.zeros((size, dim), dtype=complex)
        states[:, 0] = 1.0
        cp_iter = 0
        for layer_index in range(n_layers + 1):
            while cp_iter < n_cp and cp_sorted[cp_iter] == layer_index:
                probs = compiled.measured_probs(states, gen)
                weights = probs.sum(axis=1)
                if not np.all(np.isfinite(weights)):
                    raise FloatingPointError(
                        f"trajectory weights diverged at checkpoint {layer_index}"
                    )
                dist_acc[cp_iter] += probs.sum(axis=0)
                weight_acc[cp_iter] += weights.sum()
                cdf = np.cumsum(probs / weights[:, None], axis=1)
                u = gen.uniform(size=size)
                idx = (cdf < u[:, None]).sum(axis=1).clip(0, dim - 1)
                counts[cp_iter] += np.bincount(idx, minlength=dim)
                if keep_density:
                    dens_acc[cp_iter] += np.einsum("si,sj->ij", states, states.conj())
                cp_iter += 1
            if layer_index < n_layers:
                states = compiled.apply_layer(states, compiled.layer_plans[layer_index], gen)

    times = np.array(
        [sum(l.duration for l in scheduled.layers[:c]) for c in cp_sorted]
    )
    dists = dist_acc / weight_acc[:, None]
    return EnsembleResult(
        checkpoints=cp_sorted,
        times=times,
        distributions=dists,
        counts=counts,
        mean_weight=weight_acc / config.shots,
        densities=(dens_acc / config.shots) if keep_density else None,
        shots=config.shots,
    )
