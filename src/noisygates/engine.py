"""Circuit representation, scheduling and Monte Carlo trajectory engine.

Circuits are JSON documents or lists of ``GateSpec``.  Each rule is
checked once: ``parse_circuit`` checks the document, ``GateSpec`` each
gate, ``Circuit`` the register and ``schedule_layers`` the device width.
Every circuit, the stock experiments' included, is packed greedily into
layers by ``_pack_asap`` (ASAP).  Scheduling attaches device durations
and pads idle qubits with exact relaxation slots.  It adds no
readout slot: the readout gate of each measured qubit with readout
noise is drawn at every checkpoint by ``_Compiled.measured_probs``.

The unraveling is linear: trajectory states are *not* renormalised, the
unbiased density estimate is the plain average of outer products and
the default outcome distribution weights each trajectory's Born
probabilities by its squared norm.  An ``unweighted`` estimator
(one sampled bitstring per trajectory) is available as well.

Trajectories are simulated in chunks of ``chunk_shots(n)`` shots so the
per-gate sampling vectorises: as many shots as fit one state batch in
``STATE_BUDGET_BYTES``, at most ``CHUNK_SHOTS`` (1024 for n <= 8, 64 at
n = 12).  The chunk size depends on n alone and each chunk draws from its
own random stream keyed by (master seed, run index, chunk index), which
makes results bit-identical for any worker count or execution order.

Samplers, readout gates included, are pure functions of standard
normals, and the engine alone owns the draw order.  Between two
checkpoints (a segment) the normals of a chunk are taken in slot order:
a noisy gate reads ``xi.n_gaussians`` per shot and a relaxation pad one
per nonzero variance.  So each segment is drawn in one
``standard_normal`` block, cut by ``_Compiled.pieces`` into pieces of
at most ``PIECE_NORMALS`` normals (a cut contiguous draw yields the same
numbers), and slot i, reading r_i normals per shot, takes the next
S r_i of its piece.  The checkpoint follows the segment: a row of S
normals for each measured qubit with readout strength v > 0, in
measured order (a qubit at v = 0 has no readout gate and no row), then
S uniforms.  The layers after the last checkpoint are not drawn.
Within a piece, the k slots of one one-qubit noisy gate are sampled by
one call of its fused kernel, ``NoisyGateSampler.sample_batch``, and
the k relaxation pads of one (gamma1, gamma_pd, dt) by one
``relaxation_gate_batch`` call, each into a ``(2, 2, k S)`` buffer.

Nothing the engine computes changes which numbers a chunk draws, so
``run_shots`` draws them on a helper thread, ahead of the state updates.
The calling thread states the draw order once, as jobs
(``_draw_jobs``), each a ``Generator`` method that fills a block: per
chunk, a ``standard_normal`` job per piece and, per checkpoint, one for
the readout rows, if any, and a ``random`` job for the uniforms.
It queues each job with its block, the next of ``DRAW_BLOCKS`` workspace
buffers, as it frees the block held there, and the helper (``_Draws``)
runs the jobs in order and nothing else.  The helper is joined before
``run_shots`` returns or raises, and an error it meets is raised on the
calling thread.

Gates on different qubits commute, so one-qubit slots (noisy gates,
relaxation pads, RZ frames, fixed idles) never touch the state batch
directly: each is multiplied, in slot order and in place, onto its
qubit's pending per-shot ``(2, 2, S)`` factor in the workspace.  A
two-qubit slot absorbs the pending factors of both its qubits,
G (P_a x P_b).  Where a chunk's state batch fills ``STATE_BUDGET_BYTES``
(n >= 8) a slot on adjacent qubits then waits as well, in a block: a
per-shot product of two-qubit gates on at most ``FUSE_MAX_QUBITS``
adjacent qubits.  The slot joins the block it overlaps when their union
spans at most ``FUSE_MAX_QUBITS`` qubits; otherwise that block is
applied and the slot starts a block.  A qubit's one-qubit factor acts
after its block.  Every other two-qubit slot is applied at once, after
the blocks it overlaps.  Pending gates stay pending across checkpoints:
a checkpoint reads the states through them, each readout gate
multiplied onto a copy of its qubit's factor, applying each block with
its qubits' factors and the other factors in passes of at most
``FUSE_MAX_QUBITS`` adjacent qubits (per-shot Kronecker products).  A
register that keeps a dense density (n <= ``DENSE_DENSITY_MAX_QUBITS``)
first reads the pending gates alone for it.  On the 12-qubit GHZ
ladder a 64-shot chunk makes 9 state passes: 5 blocks and 4 at the
checkpoint.  Registers wider than ``MAX_QUBITS`` are rejected.

The state batch lives in the compiled circuit's workspace, in two
buffers, ``states`` and ``spare``: every state update writes with
``apply_gate(..., out=)`` into the other one.  A checkpoint's read writes
its passes into ``spare`` and a scratch buffer in turn (the states' own
at the last checkpoint, after which nothing reads them, else a workspace
copy), and |psi|^2, the weights and each trajectory's outcome CDF are
formed in place in the one of the two it did not end in.  So a chunk
holds two state-sized buffers, three with an earlier checkpoint, and a
warm run allocates none.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .gates import (
    GATE_KINDS,
    GateSpec,
    NoisyGateSampler,
    ideal_unitary,
    relaxation_gate_batch,
    relaxation_normals,
    schedule,
    spam_gate_batch,
)
from .linalg import I2, Workspace, apply_gate, kron
from .noise_model import DeviceParams, is_finite_number, noise_context_for_gate, read_json_object, slot_noise, spam_strength
from .stochastic import RngStream

__all__ = [
    "CircuitError",
    "Circuit",
    "ScheduledLayer",
    "ScheduledCircuit",
    "RunConfig",
    "EnsembleResult",
    "parse_circuit",
    "schedule_layers",
    "decompose_cnot",
    "run_shots",
    "chunk_shots",
]

# Shots per chunk: as many as fit one state batch (16 * 2^n bytes a shot)
# in STATE_BUDGET_BYTES, capped at CHUNK_SHOTS.  4 MiB keeps 1024 shots, and
# so every stock experiment's random stream, for n <= 8.  On the 12-qubit
# GHZ ladder (1024 shots, one BLAS thread, seeds 0-2) budgets of 4, 8 and
# 16 MiB, i.e. chunks of 64, 128 and 256 shots, took 2.2-2.4, 2.4-2.6 and
# 2.4-2.6 s at a peak RSS of 70, 98 and 154 MiB.
CHUNK_SHOTS = 1024
STATE_BUDGET_BYTES = 4 * 2**20
# Widest run of adjacent qubits one deferred operator spans: a block of
# two-qubit gates, and each pass of a checkpoint's read.
# Measured when every layer was applied in such passes: on the same GHZ
# runs, runs of at most 2, 3 and 4 qubits took 4.0-4.4, 2.2-2.4 and
# 2.3-2.5 s.
FUSE_MAX_QUBITS = 3
# Widest register run_shots accepts: one state vector is 16 MiB at n = 20
# and each checkpoint's accumulators take 16 * 2^n bytes more.
MAX_QUBITS = 20
DENSE_DENSITY_MAX_QUBITS = 5
# Most standard normals one piece of a checkpoint segment draws at once, as
# one block; each one-qubit sampler's slots in the piece take one kernel
# call.  A longer segment is cut into pieces between slots, which keeps the
# stream: a contiguous draw cut in two yields the same numbers.  At 1024
# shots a piece holds four desk-noise one-qubit gates (5 normals a shot
# each) or one CNOT (21), so the block takes at most 160 KiB (or one slot's
# normals) and the kernel's buffers, 240 bytes a gate draw, 960 KiB.
PIECE_NORMALS = 20480
# Blocks of the random stream the helper thread of run_shots draws ahead of
# the state updates, one workspace buffer each, 160 KiB at 1024 shots.  A
# repeat_x compare (500 X gates, 4000 shots, 3 runs; the median of 5 calls,
# one BLAS thread, 2 vCPUs) took 1.29, 1.16, 0.93 and 0.96 s with 2, 3, 4
# and 6 blocks.
DRAW_BLOCKS = 4


def chunk_shots(n_qubits: int) -> int:
    """Shots simulated together on an ``n_qubits`` register."""
    return min(CHUNK_SHOTS, max(1, STATE_BUDGET_BYTES // (16 * 2**n_qubits)))


class CircuitError(ValueError):
    """Raised for malformed circuit documents."""


@dataclass(frozen=True)
class Circuit:
    """Gate layers on an ``n_qubits`` register.  Construction is the one
    check of the register, parsed or built in the library: every qubit in
    0..n_qubits-1 and none twice in one layer or in ``measured``."""

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
                        raise CircuitError(f"qubit index {q} out of range 0..{self.n_qubits - 1}")
                    seen.add(q)
        for i, q in enumerate(self.measured):
            if q < 0 or q >= self.n_qubits:
                raise CircuitError(f"measured qubit {q} out of range 0..{self.n_qubits - 1}")
            if q in self.measured[:i]:
                raise CircuitError(f"measured qubit {q} listed twice")

    @property
    def n_layers(self) -> int:
        return len(self.layers)


_OP_KEYS = {"gate", "q", "theta", "phi", "duration_s"}


def _is_int(val) -> bool:
    """True for a JSON integer (an int, not a bool)."""
    return isinstance(val, int) and not isinstance(val, bool)


def _check_int_fields(obj, bounds: tuple[tuple[str, int], ...]) -> None:
    """``ValueError`` unless each field ``name`` of ``obj`` in ``bounds``,
    ``((name, low), ...)``, is an int, not a bool, and at least ``low``."""
    for name, low in bounds:
        val = getattr(obj, name)
        if not _is_int(val):
            raise ValueError(f"{name} must be an int, got {val!r}")
        if val < low:
            raise ValueError(f"{name} must be >= {low}, got {val}")


def parse_circuit(source: str | Path | dict) -> Circuit:
    """Parse a circuit document and pack its ops into ASAP layers.

    Format: ``{"n_qubits": int, "ops": [{"gate": kind, "q": [ints],
    "theta"?: float, "phi"?: float, "duration_s"?: float}],
    "measure": [ints]}``, each int a JSON integer (not a bool).  The
    parser checks only the document: its keys, its JSON types (a
    ``theta``, ``phi`` or ``duration_s`` present is a finite JSON number,
    not a bool, a string or null) and that an op carries only the angles
    its gate reads (``theta`` on RX and CR, ``phi`` on RZ, RX, X, SX and
    CR).  Every gate rule is ``GateSpec``'s, raised as ``op i: ...``, and
    every register rule, the qubit range included, is ``Circuit``'s.
    """
    doc = read_json_object(source, CircuitError, "circuit")
    extra = set(doc) - {"n_qubits", "ops", "measure"}
    if extra:
        raise CircuitError(f"unknown top-level keys: {sorted(extra)}")
    n = doc.get("n_qubits")
    if not _is_int(n) or n < 1:
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
        for key in ("theta", "phi", "duration_s"):
            if key in op and not is_finite_number(op[key]):
                raise CircuitError(f"op {i}: {key!r} must be a finite number, got {op[key]!r}")
        qubits = op.get("q")
        if not isinstance(qubits, list) or not all(_is_int(q) for q in qubits):
            raise CircuitError(f"op {i}: 'q' must be a list of ints")
        phi = float(op.get("phi", 0.0))
        try:
            gate = GateSpec(op.get("gate"), tuple(qubits), op.get("theta"), phi, op.get("duration_s"))
        except ValueError as exc:
            raise CircuitError(f"op {i}: {exc}") from exc
        unread = [key for key in ("theta", "phi") if key in op and key not in GATE_KINDS[gate.kind].angles]
        if unread:
            raise CircuitError(f"op {i}: {gate.kind} does not read {unread[0]!r}")
        gates.append(gate)

    measured = doc.get("measure", [])
    if not isinstance(measured, list) or not all(_is_int(q) for q in measured):
        raise CircuitError("'measure' must be a list of ints")

    return Circuit(n_qubits=n, layers=_pack_asap(gates)[0], measured=tuple(measured))


def _pack_asap(gates: list[GateSpec]) -> tuple[tuple[tuple[GateSpec, ...], ...], list[int]]:
    """Greedy ASAP packing, the one layout of every circuit: each gate
    lands in the earliest layer after the last one touching any of its
    qubits.  Returns the layers and, for each gate, the depth (number of
    layers) once it and every gate before it are placed.  It reads no
    register width, so it allocates nothing sized by one."""
    frontier: dict[int, int] = {}
    layers: list[list[GateSpec]] = []
    depths: list[int] = []
    for gate in gates:
        at = max(frontier.get(q, 0) for q in gate.qubits)
        if at == len(layers):
            layers.append([])
        layers[at].append(gate)
        for q in gate.qubits:
            frontier[q] = at + 1
        depths.append(len(layers))
    return tuple(tuple(layer) for layer in layers), depths


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

    def checkpoint_times(self, layer_counts) -> np.ndarray:
        """Time at the end of the first ``c`` layers for each ``c`` in
        ``layer_counts``: their durations, summed left to right."""
        elapsed = np.concatenate([[0.0], np.cumsum([layer.duration for layer in self.layers])])
        return elapsed[list(layer_counts)]


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
        GateSpec("RZ", (ctrl,), phi=math.pi / 2),
    ]


def expand_cnots(circuit: Circuit) -> Circuit:
    """Rewrite every CNOT through :func:`decompose_cnot` (hardware-like
    execution mode); other gates pass through unchanged."""
    ops: list[GateSpec] = []
    for layer in circuit.layers:
        for gate in layer:
            ops.extend(decompose_cnot(gate) if gate.kind == "CNOT" else [gate])
    return Circuit(circuit.n_qubits, _pack_asap(ops)[0], circuit.measured)


@dataclass(frozen=True)
class RunConfig:
    """One run: ``shots`` >= 1, and the ``master_seed`` and ``run_index``
    >= 0 that name its chunk streams, each an int and not a bool.
    ``checkpoints`` is None or a non-empty tuple of such ints; their
    range is checked against the circuit by :func:`run_shots`."""

    shots: int
    master_seed: int = 0
    run_index: int = 0
    checkpoints: tuple[int, ...] | None = None  # layer counts; None = end only

    def __post_init__(self):
        _check_int_fields(self, (("shots", 1), ("master_seed", 0), ("run_index", 0)))
        cps = self.checkpoints
        if cps is not None and not (isinstance(cps, tuple) and cps and all(map(_is_int, cps))):
            raise ValueError(f"checkpoints must be None or a non-empty tuple of ints, got {cps!r}")


@dataclass
class EnsembleResult:
    """Aggregates per checkpoint: outcome distributions, sampled counts
    and (for small registers) the unnormalised density estimate.  Each
    trajectory of positive weight samples one outcome into ``counts``; a
    trajectory of weight 0 samples none."""

    checkpoints: tuple[int, ...]
    times: np.ndarray
    distributions: np.ndarray  # (n_checkpoints, 2**n) weighted estimator
    counts: np.ndarray  # (n_checkpoints, 2**n) sampled bitstring counts
    mean_weight: np.ndarray  # (n_checkpoints,)
    densities: np.ndarray | None  # (n_checkpoints, d, d) average outer products
    shots: int

    def distribution(self, index: int | slice = -1, estimator: str = "weighted") -> np.ndarray:
        """Outcome distribution at checkpoint ``index`` (a slice gives one
        row per checkpoint) from the ``weighted`` or the sampled
        (``unweighted``) estimator; any other name raises ``ValueError``."""
        if estimator == "weighted":
            return self.distributions[index]
        if estimator != "unweighted":
            raise ValueError(f"unknown estimator {estimator!r}; choose one of weighted, unweighted")
        counts = self.counts[index]
        return counts / counts.sum(axis=-1, keepdims=True)


def _plan_passes(runs) -> list[list[tuple[int, ...]]]:
    """Disjoint runs of ascending adjacent qubits (a lone qubit is a run of
    one), taken in ascending order and packed into passes: a run joins the
    pass before it when it is adjacent to it and the pass then spans at
    most ``FUSE_MAX_QUBITS`` qubits.  One ``apply_gate`` pass each."""
    passes: list[list[tuple[int, ...]]] = []
    for run in sorted(runs):
        if passes and passes[-1][-1][-1] == run[0] - 1 and run[-1] - passes[-1][0][0] < FUSE_MAX_QUBITS:
            passes[-1].append(run)
        else:
            passes.append([run])
    return passes


def _apply_passes(states: np.ndarray, ops: dict[tuple[int, ...], np.ndarray], buffers: list[np.ndarray]) -> np.ndarray:
    """Apply operators on disjoint runs of adjacent qubits, ``{run:
    (S, d, d) or (d, d) operator}``, one pass per ``_plan_passes`` group
    with the per-shot Kronecker product of its operators (first qubit
    most significant).  Pass i writes into ``buffers[i % 2]``; returns the
    last buffer written, or ``states`` when there is no pass."""
    for i, runs in enumerate(_plan_passes(ops)):
        gate = reduce(kron, [ops[run] for run in runs])
        states = apply_gate(states, gate, sum(runs, ()), out=buffers[i % 2])
    return states


def _widen(op: np.ndarray, run: tuple[int, ...], span: tuple[int, ...]) -> np.ndarray:
    """``op`` on the adjacent qubits ``run`` as an operator on ``span``,
    the adjacent qubits around them: identities before and after."""
    before, after = run[0] - span[0], span[-1] - run[-1]
    if before:
        op = kron(np.eye(2**before), op)
    if after:
        op = kron(op, np.eye(2**after))
    return op


class _Slot(NamedTuple):
    """One slot of the plan, reading ``normals`` standard normals per shot.
    ``kind`` is "fused" (a one-qubit noisy gate; payload its sampler),
    "noisy" (a two-qubit one), "relax" (payload ``(gamma1, gamma_pd,
    dt)``) or "fixed" (payload the unitary, for one qubit as a
    ``(2, 2, 1)`` stack)."""

    qubits: tuple[int, ...]
    kind: str
    payload: object
    normals: int


def _fixed_slot(qubits: tuple[int, ...], unitary: np.ndarray) -> _Slot:
    return _Slot(qubits, "fixed", unitary if len(qubits) == 2 else unitary[:, :, None], 0)


def _per_shot(factor: np.ndarray | None) -> np.ndarray:
    """A pending ``(2, 2, S)`` factor as its ``(S, 2, 2)`` view; I for none."""
    return I2 if factor is None else factor.transpose(2, 0, 1)


class _Chunk:
    """One chunk's ``(S, 2^n)`` states, starting in |0...0>, its ``spare``
    buffer and the gates not yet applied to them: ``one[q]``, qubit q's
    one-qubit ``(2, 2, S)`` factor (None for none), acting after
    ``blocks``, which maps disjoint runs of at most ``FUSE_MAX_QUBITS``
    ascending adjacent qubits to per-shot ``(S, d, d)`` (or one ``(d, d)``)
    products of two-qubit gates."""

    def __init__(self, workspace: Workspace, n_qubits: int, size: int):
        shape = (size, 2**n_qubits)
        self.states, self.spare = (workspace.take(f"engine.states{i}", shape) for i in range(2))
        self.states.fill(0.0)
        self.states[:, 0] = 1.0
        self.one: list[np.ndarray | None] = [None] * n_qubits
        self.blocks: dict[tuple[int, ...], np.ndarray] = {}

    def apply(self, ops: dict[tuple[int, ...], np.ndarray]) -> None:
        """Apply ``ops`` (as ``_apply_passes`` takes them) to the states,
        each pass writing into the other buffer, which then holds them."""
        if _apply_passes(self.states, ops, [self.spare, self.states]) is self.spare:
            self.states, self.spare = self.spare, self.states

    def read(self, factors: list[np.ndarray | None], scratch: np.ndarray) -> np.ndarray:
        """The states with the blocks applied and then the one-qubit
        ``factors`` (indexed like ``one``), packed by ``_plan_passes`` and
        written into ``spare`` and ``scratch`` in turn.  Returns the last
        buffer written, or ``states`` when there is no pass.  The chunk
        does not change unless ``scratch`` is ``states``."""
        ops: dict[tuple[int, ...], np.ndarray] = {}
        for run, block in self.blocks.items():
            if any(factors[q] is not None for q in run):
                block = reduce(kron, [_per_shot(factors[q]) for q in run]) @ block
            ops[run] = block
        blocked = {q for run in self.blocks for q in run}
        ops.update({(q,): _per_shot(f) for q, f in enumerate(factors) if f is not None and q not in blocked})
        return _apply_passes(self.states, ops, [self.spare, scratch])


class _Compiled:
    """The slot plan of one scheduled circuit, its samplers resolved once
    per distinct ``GateSpec`` and shared by every run of it: build one and
    pass it to each ``run_shots`` call.  It also owns the one
    ``Workspace`` that its samplers run in and that holds each chunk's
    normals, pending factors and state buffers, sized by the largest chunk
    and piece it has served, so its runs reuse the same pages for every
    gate and chunk.  Pickling it (to a worker process) sends the samplers
    and an empty workspace.  Registers wider than ``MAX_QUBITS`` raise
    ``ValueError``."""

    def __init__(self, scheduled: ScheduledCircuit):
        if scheduled.n_qubits > MAX_QUBITS:
            raise ValueError(
                f"the trajectory engine supports at most {MAX_QUBITS} qubits; circuit has {scheduled.n_qubits}"
            )
        self.scheduled = scheduled
        self.n_qubits = scheduled.n_qubits
        self.workspace = Workspace()
        params = scheduled.params
        # every slot in plan order; layer i is slots[layer_starts[i]:layer_starts[i + 1]]
        self.slots: list[_Slot] = []
        self.layer_starts = [0]
        cache: dict[GateSpec, NoisyGateSampler] = {}
        for layer in scheduled.layers:
            for gate in layer.gates:
                noise = slot_noise(gate, params)
                if gate.driven:
                    if gate not in cache:
                        cache[gate] = NoisyGateSampler(schedule(gate), noise_context_for_gate(gate, params))
                    sampler = cache[gate]
                    if sampler.xi.n_gaussians == 0:
                        self.slots.append(_fixed_slot(gate.qubits, sampler.prefix))
                    else:
                        kind = "fused" if sampler.dim == 2 else "noisy"
                        self.slots.append(_Slot(gate.qubits, kind, sampler, sampler.xi.n_gaussians))
                elif noise.relaxation:
                    (gamma1, gamma_pd), = noise.relaxation
                    rates = (gamma1, gamma_pd, noise.duration)
                    self.slots.append(_Slot(gate.qubits, "relax", rates, relaxation_normals(*rates)))
                else:
                    self.slots.append(_fixed_slot(gate.qubits, ideal_unitary(gate)))
            self.layer_starts.append(len(self.slots))
        self.readout = [(q, v) for q in scheduled.measured if (v := spam_strength(params.qubits[q].p_readout)) > 0]
        # Two-qubit gates wait in blocks where a chunk's state batch fills
        # STATE_BUDGET_BYTES (n >= 8): there a state pass costs more than
        # the per-shot block products that save it.  The GHZ ladder of
        # scripts/ghz_sweep.py at 1024 shots (one BLAS thread, the median
        # of 9 warm calls in each of two sessions) took, without and with
        # blocks, at n = 6: 0.047-0.051 and 0.049-0.062 s; n = 7:
        # 0.070-0.086 and 0.063-0.074 s; n = 8: 0.100-0.108 and
        # 0.095-0.103 s; n = 10: 0.250-0.255 and 0.193-0.240 s; n = 12
        # (one session): 0.89 and 0.68 s.
        self.pair_blocks = chunk_shots(self.n_qubits) * 16 * 2**self.n_qubits >= STATE_BUDGET_BYTES

    def pieces(self, start: int, stop: int, size: int) -> list[tuple[int, int, int]]:
        """Layers ``start`` .. ``stop - 1``, the segment before a
        checkpoint, at ``size`` shots, cut into pieces ``(first, last,
        count)``: slots ``first`` .. ``last - 1``, whose normals are drawn
        in plan order as one ``standard_normal`` block of ``count``.  A
        piece is a run of slots that reads at most ``PIECE_NORMALS``
        normals, or one slot that reads more."""
        pieces = []
        first, end = self.layer_starts[start], self.layer_starts[stop]
        while first < end:
            last, count = first, 0
            while last < end:
                more = self.slots[last].normals * size
                if count and count + more > PIECE_NORMALS:
                    break
                count += more
                last += 1
            pieces.append((first, last, count))
            first = last
        return pieces

    def apply_layers(self, chunk: _Chunk, pieces: list[tuple[int, int, int]], draws: _Draws) -> None:
        """Sample a segment's ``pieces`` onto ``chunk``, each from the next
        block of ``draws``."""
        for first, last, _ in pieces:
            self._apply_piece(chunk, self.slots[first:last], draws.take())

    def _apply_piece(self, chunk: _Chunk, slots: list[_Slot], block: np.ndarray) -> None:
        """Apply ``slots`` in plan order, slot j reading its normals from
        ``block`` after those of the slots before it.  First the one-qubit
        noisy slots of each sampler, and the relaxation pads of each
        (gamma1, gamma_pd, dt), are sampled by one call each."""
        size = len(chunk.states)
        ws = self.workspace
        offsets = [0]
        for slot in slots:
            offsets.append(offsets[-1] + slot.normals * size)
        groups: dict[object, list[int]] = {}
        for j, slot in enumerate(slots):
            if slot.kind in ("fused", "relax"):
                groups.setdefault(slot.payload, []).append(j)
        factors = ws.take("engine.factors", (2, 2, size * sum(map(len, groups.values()))))
        built: dict[int, np.ndarray] = {}
        col = 0
        for payload, members in groups.items():
            r = slots[members[0]].normals
            n = size * r
            out = factors[:, :, col : col + size * len(members)]
            parts = [block[offsets[j] : offsets[j] + n] for j in members]
            if slots[members[0]].kind == "fused":
                if offsets[members[-1]] - offsets[members[0]] == n * (len(members) - 1):
                    normals = block[offsets[members[0]] : offsets[members[-1]] + n]
                else:
                    normals = np.concatenate(parts, out=ws.take("engine.gather", (n * len(members),), float))
                payload.sample_batch(normals.reshape(-1, r), ws, out=out)
            else:
                # a pad reads r rows of S normals; the batch reads row i of
                # every pad of the group side by side
                rows = ws.take("engine.gather", (r, len(members), size), float)
                np.stack([part.reshape(r, size) for part in parts], axis=1, out=rows)
                relaxation_gate_batch(*payload, rows.reshape(r, len(members) * size), out=out.transpose(2, 0, 1))
            for i, j in enumerate(members):
                built[j] = out[:, :, i * size : (i + 1) * size]
            col += size * len(members)

        for j, (qubits, kind, payload, r) in enumerate(slots):
            if j in built:
                gate = built[j]
            elif kind == "noisy":
                gate = payload.sample_batch(block[offsets[j] : offsets[j + 1]].reshape(size, r), ws)
            else:
                gate = payload
            q = qubits[0]
            if len(qubits) == 2:
                self._apply_pair(chunk, qubits, gate)
            elif chunk.one[q] is None:
                chunk.one[q] = ws.take(f"engine.pending{q}", (2, 2, size))
                np.copyto(chunk.one[q], gate)
            else:
                self._compose(gate, chunk.one[q], chunk.one[q])

    def _compose(self, gate: np.ndarray, factor: np.ndarray, out: np.ndarray) -> np.ndarray:
        """gate factor into ``out``, which may be ``factor`` itself, for a
        ``(2, 2, S)`` gate or a ``(2, 2, 1)`` one that broadcasts and a
        ``(2, 2, S)`` factor."""
        # row i of the product is gate[i, 0] factor[0] + gate[i, 1] factor[1],
        # so once the right-hand terms are kept, row 1 and then row 0 of
        # out can be written even where out is factor
        right = np.multiply(gate[:, 1:], factor[1:], out=self.workspace.take("engine.right", out.shape))
        np.multiply(gate[1, 0], factor[0], out=out[1])
        out[1] += right[1]
        np.multiply(gate[0, 0], factor[0], out=out[0])
        out[0] += right[0]
        return out

    def _apply_pair(self, chunk: _Chunk, qubits: tuple[int, ...], gate: np.ndarray) -> None:
        """A two-qubit slot G on (a, b): it absorbs the one-qubit factors of
        its qubits, G (P_a x P_b).  With ``pair_blocks`` and adjacent
        qubits it then joins the block it overlaps when their union spans
        at most ``FUSE_MAX_QUBITS`` qubits; otherwise the blocks it
        overlaps are applied and it starts a block.  Other slots are
        applied at once, after the blocks they overlap."""
        one = chunk.one
        a, b = qubits
        if one[a] is not None or one[b] is not None:
            gate = gate @ kron(_per_shot(one[a]), _per_shot(one[b]))
            one[a] = one[b] = None
        touched = {run: chunk.blocks.pop(run) for run in list(chunk.blocks) if a in run or b in run}
        if self.pair_blocks and abs(a - b) == 1:
            run = (min(a, b), max(a, b))
            if a > b:
                # the same gate on (b, a): swap the two bits of each index
                gate = gate[..., [0, 2, 1, 3], :][..., [0, 2, 1, 3]]
            if len(touched) == 1:
                (old, block), = touched.items()
                span = tuple(range(min(run[0], old[0]), max(run[-1], old[-1]) + 1))
                if len(span) <= FUSE_MAX_QUBITS:
                    chunk.blocks[span] = _widen(gate, run, span) @ _widen(block, old, span)
                    return
            chunk.apply(touched)
            chunk.blocks[run] = gate
            return
        chunk.apply(touched)
        chunk.apply({qubits: gate})

    def scratch(self, chunk: _Chunk, final: bool) -> np.ndarray:
        """The buffer a read of ``chunk`` writes every other pass into: the
        states themselves for the ``final`` read, after which nothing
        reads them, else a state-sized copy in the workspace."""
        return chunk.states if final else self.workspace.take("engine.scratch", chunk.states.shape)

    def measured_probs(
        self, chunk: _Chunk, normals: np.ndarray, scratch: np.ndarray, read: np.ndarray | None = None
    ) -> np.ndarray:
        """Per-trajectory Born probabilities |R P psi|^2 at a checkpoint, for
        the pending gates P of ``chunk`` and a fresh pre-measurement noise
        gate R per qubit of ``readout``, built from its row of standard
        ``normals`` and multiplied onto a copy of its qubit's factor, read
        by ``chunk.read(..., scratch)``.  ``read`` is P psi when the caller
        has read it, all there is to read without readout gates.  The
        result is a view into ``spare`` or ``scratch``, whichever the read
        did not end in."""
        if self.readout or read is None:
            factors = list(chunk.one)
            for (q, v), z in zip(self.readout, normals):
                gate = spam_gate_batch(v, z).transpose(1, 2, 0)
                if factors[q] is not None:
                    gate = self._compose(gate, factors[q], self.workspace.take(f"engine.measured{q}", gate.shape))
                factors[q] = gate
            read = chunk.read(factors, scratch)
        out = scratch if read is chunk.spare else chunk.spare
        probs = out.reshape(-1).view(float)[: read.size].reshape(read.shape)
        np.abs(read, out=probs)
        return np.square(probs, out=probs)


def _draw_jobs(
    root: RngStream, sizes: list[int], plans: dict[int, list[list[tuple[int, int, int]]]], readout: int
) -> Iterator[tuple[tuple[int, ...], object]]:
    """The run's random stream, in draw order, as ``(shape, fill)`` jobs,
    each a bound ``Generator`` method: ``fill(out=block)`` fills a float
    block of ``shape`` and returns it.  Chunk c makes
    ``root.child(c).generator`` when reached, then yields, per segment of
    ``plans[sizes[c]]``, a ``standard_normal`` job per piece, a
    ``standard_normal`` job of ``readout`` rows (one per readout gate)
    when ``readout`` > 0, and a ``random`` job for the uniforms."""
    for c, size in enumerate(sizes):
        gen = root.child(c).generator
        for pieces in plans[size]:
            for *_, count in pieces:
                yield (count,), gen.standard_normal
            if readout:
                yield (readout, size), gen.standard_normal
            yield (size,), gen.random


class _Draws:
    """A helper thread that runs ``jobs``, as ``_draw_jobs`` yields them,
    in order and ahead of the calling thread, and does nothing else.  The
    calling thread advances ``jobs`` and queues job i with its block,
    workspace buffer ``engine.normals{i % DRAW_BLOCKS}``: ``take`` queues
    the next job into the buffer of the block taken before it, now free,
    and returns the next block, valid until the following ``take``, or
    raises the helper's error, after which the helper draws no more.
    Leaving the ``with`` block stops the helper and joins it."""

    def __init__(self, workspace: Workspace, jobs: Iterator[tuple[tuple[int, ...], object]]):
        # imported on first use, so importing the package loads no more
        # than numpy does
        import queue

        self._workspace, self._jobs = workspace, enumerate(jobs)
        self._todo, self._done = queue.SimpleQueue(), queue.SimpleQueue()
        self._thread = threading.Thread(target=self._run, name="noisygates-draws", daemon=True)

    def __enter__(self) -> _Draws:
        for _ in range(DRAW_BLOCKS - 1):
            self._queue()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._todo.put(None)
        self._thread.join()

    def take(self) -> np.ndarray:
        """The next block; the one taken before it is free again."""
        self._queue()
        block = self._done.get()
        if isinstance(block, BaseException):
            raise block
        return block

    def _queue(self) -> None:
        """Queue the next job of ``jobs``, if any, with its block."""
        job = next(self._jobs, None)
        if job is not None:
            i, (shape, fill) = job
            self._todo.put((fill, self._workspace.take(f"engine.normals{i % DRAW_BLOCKS}", shape, float)))

    def _run(self) -> None:
        """The helper: each queued job in order, until None or an error,
        which it passes on, as the calling thread would otherwise wait for
        the block forever."""
        try:
            while (job := self._todo.get()) is not None:
                fill, block = job
                self._done.put(fill(out=block))
        except BaseException as exc:
            self._done.put(exc)


def run_shots(scheduled: ScheduledCircuit, config: RunConfig, compiled: _Compiled | None = None) -> EnsembleResult:
    """Ensemble over ``config.shots`` trajectories.

    Shots are simulated in chunks of ``chunk_shots(n)``, a function of the
    register width alone; chunk c of run r draws from the stream
    (master_seed, r, c), so aggregates are bit-identical for any
    parallelism.  Checkpoints record the running ensemble after the stated
    number of layers (measured qubits get a fresh pre-measurement noise
    draw at every checkpoint, mirroring a family of circuits of increasing
    depth that share noise prefixes).  The layers after the last
    checkpoint are neither drawn nor applied: each chunk has its own
    stream, so no result reads them.  A helper thread draws the streams
    (``_Draws``) and is joined before this returns or raises.
    ``compiled`` is the ``_Compiled`` built from this very ``scheduled``
    when the caller shares one across runs (another one raises
    ``ValueError``); it is built here when None.  Registers wider than
    ``MAX_QUBITS`` raise ``ValueError`` before anything is allocated.  A
    checkpoint whose weights are not finite, or all zero, raises
    ``FloatingPointError``.
    """
    if compiled is None:
        compiled = _Compiled(scheduled)
    elif compiled.scheduled is not scheduled:
        raise ValueError("compiled was built from another scheduled circuit")
    n = scheduled.n_qubits
    dim = 2**n
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

    chunk_size = chunk_shots(n)
    n_chunks = (config.shots + chunk_size - 1) // chunk_size
    sizes = [min(chunk_size, config.shots - c * chunk_size) for c in range(n_chunks)]
    segments = list(zip((0,) + cp_sorted, cp_sorted))
    plans = {size: [compiled.pieces(start, stop, size) for start, stop in segments] for size in set(sizes)}
    root = RngStream(config.master_seed, stream_index=config.run_index)
    with _Draws(compiled.workspace, _draw_jobs(root, sizes, plans, len(compiled.readout))) as draws:
        for size in sizes:
            chunk = _Chunk(compiled.workspace, n, size)
            for cp_iter, at in enumerate(cp_sorted):
                compiled.apply_layers(chunk, plans[size][cp_iter], draws)
                last = cp_iter == n_cp - 1
                read = None
                if keep_density:
                    # the density reads the pending gates alone; while the
                    # readout gates have the states still to read, it leaves them
                    read = chunk.read(chunk.one, compiled.scratch(chunk, last and not compiled.readout))
                    dens_acc[cp_iter] += np.einsum("si,sj->ij", read, read.conj())
                # the readout normals are read before the next take frees their block
                normals = draws.take() if compiled.readout else ()
                probs = compiled.measured_probs(chunk, normals, compiled.scratch(chunk, last), read)
                uniforms = draws.take()
                weights = probs.sum(axis=1)
                if not np.all(np.isfinite(weights)):
                    raise FloatingPointError(f"trajectory weights diverged at checkpoint {at}")
                total = weights.sum()
                if total == 0.0:
                    raise FloatingPointError(f"every trajectory weight is zero at checkpoint {at}")
                dist_acc[cp_iter] += probs.sum(axis=0)
                weight_acc[cp_iter] += total
                # probs becomes each trajectory's outcome CDF, in place; a
                # trajectory of weight 0 has no CDF and draws no outcome
                drawn = weights > 0.0
                np.divide(probs, weights[:, None], out=probs, where=drawn[:, None])
                cdf = np.cumsum(probs, axis=1, out=probs)
                below = np.less(cdf, uniforms[:, None], out=compiled.workspace.take("engine.below", cdf.shape, bool))
                idx = below.sum(axis=1).clip(0, dim - 1)
                counts[cp_iter] += np.bincount(idx[drawn], minlength=dim)

    times = scheduled.checkpoint_times(cp_sorted)
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
