"""Circuit representation, scheduling and Monte Carlo trajectory engine.

Circuits are JSON documents or lists of ``GateSpec``.  Each rule is
checked once: ``parse_circuit`` checks the document, ``GateSpec`` each
gate, ``Circuit`` the register and ``schedule_layers`` the device width.
Every circuit, the stock experiments' included, is packed greedily into
layers by ``_pack_asap`` (ASAP).  Scheduling attaches device durations
and pads idle qubits with exact relaxation slots.  It adds no
readout slot: the readout gate of each measured qubit with readout
noise is drawn at every checkpoint by ``_Build._checkpoint``.

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
The k two-qubit noisy slots of a piece, whatever their samplers, draw Xi
into one ``(4, 4, k S)`` stack (``NoisyGateSampler.draw_xi``), which one
``expm4_soa`` call exponentiates, and each slot's prefix then multiplies
its own slice (``apply_prefix``).

Nothing the engine computes changes which numbers a chunk draws, so
``run_shots`` draws them on one helper thread (``_Ahead``), ahead of the
state updates.  The calling thread makes every chunk's generator before
the helper starts and states the draw order once, as jobs
(``_draw_jobs``), each a ``Generator`` method that fills a block: per
chunk, a ``standard_normal`` job per piece and, per checkpoint, one for
the readout rows, if any, and a ``random`` job for the uniforms.

Each chunk's loop has two sides.  The build side (``_Build``) turns the
chunk's blocks into ordered steps: the passes of each state update and,
per checkpoint, the passes that read the states, readout gates
included, with that checkpoint's uniforms (``_Checkpoint``).  The apply
side only runs the passes on the states and reduces each checkpoint's
reads, the outcome draw included.  The helper runs its jobs in order, at
most ``AHEAD`` beyond the one whose result the calling thread holds, and
only what the jobs are depends on the register.  Where a chunk's state
batch fills ``STATE_BUDGET_BYTES`` (n >= 8) each job builds the next
step, drawing its blocks on the helper, and every step owns what it
holds.  Elsewhere
each job draws one block into the next of ``AHEAD + 1`` workspace
buffers, and the calling thread builds each step as it takes it.
Either way the helper is joined before ``run_shots`` returns or raises,
and an error it meets is raised on the calling thread.

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
a checkpoint reads the states through them, every readout gate
multiplied onto a copy of its qubit's factor in one vectorised
``spam_gate_batch`` call, applying each block with its qubits' factors
and the other factors in passes of at most ``FUSE_MAX_QUBITS`` adjacent
qubits (per-shot Kronecker products).  A
register that keeps a dense density (n <= ``DENSE_DENSITY_MAX_QUBITS``)
first reads the pending gates alone for it.  On the 12-qubit GHZ
ladder a 64-shot chunk makes 9 state passes: 5 blocks and 4 at the
checkpoint.  Registers wider than ``MAX_QUBITS`` are rejected.

Each trajectory of positive weight draws one outcome per checkpoint
from its uniform u (``_outcomes``): the first outcome whose cumulative
probability, divided by the weight, is at least u.  Past 8 outcomes
the search takes two levels over blocks of L = 2^ceil(n/2) outcomes
(up to 8, one block is faster): u's block from the
cumulative sums of the block sums, then the outcome from a cumulative
sum over that block alone.  So the draw reads the ``(S, 2^n)``
probabilities once, in one matrix product for the block sums, and its
``np.cumsum`` calls, which hold the GIL, span ``(S, 2^n / L)`` and
``(S, L)``.  Over whole rows they took about 10 ms of a 62 ms call on
the 12-qubit GHZ ladder, and stalled the helper thread meanwhile.

So a qubit that no pass has touched is still exactly |0>, and a chunk's
state batch holds only its *active* qubits, those a pass has touched, in
register order: it is ``(S, 2^m)`` for m active qubits, from m = 0.  A
pass on a qubit not yet active grows the batch by its new qubits.  On
ascending adjacent qubits the growth is folded into the pass
(``_fold``): the new qubits read 0, so only the gate's columns where
each of them reads 0 act, on the batch as it is.  Other passes first
insert each new qubit in |0> (``_grow``).  Every pass runs on its
qubits' positions among the active ones, so register-adjacent qubits
stay adjacent.  A checkpoint's read grows the batch the same way, at the
pass that first needs a qubit, and to the whole register only at its
end, for |psi|^2, the outcome draw and the dense density.  On the GHZ
ladder the 5 block passes of a 64-shot chunk write 8, 32, 128, 512 and
2048 amplitudes a shot and the checkpoint's 2048, 2048, 2048 and 4096: 9
passes over 3.17 states of 2^12, where whole-register passes made 9.

Each scheduled circuit compiles once: ``ScheduledCircuit.compiled``
builds its slot plan (``_Compiled``: a sampler per distinct noisy gate,
the relaxation pads and the fixed gates, in slot order) on first use,
and every later ``run_shots`` call on it reuses the plan, whatever its
seed, shots, run index or checkpoints.  The plan owns one ``Workspace``,
which a call borrows; a call made while another holds it runs in a
fresh workspace of its own.

The state batch lives in the call's workspace, at the front of one of
two flat buffers sized for the whole register, ``front``; every state
update writes into the other, ``back``, which then becomes ``front``.  A
checkpoint's read writes its passes and growths into ``back`` and a
scratch buffer in turn (the states' own at the last checkpoint, after
which nothing reads them, else a workspace copy), and |psi|^2 is formed
in the one of the two it did not end in; the outcome draw's block sums
and gathered blocks are ``(S, 2^ceil(n/2))`` arrays of its own, a 64th
of a state batch at n = 12.  So a chunk holds two state-sized buffers,
three with an earlier checkpoint, and a warm run allocates none; a
folded pass takes its gate's columns into a workspace buffer too.  A
circuit that has run keeps them, and the draw blocks, in its plan's
workspace while it lives.
"""

from __future__ import annotations

import math
import threading
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property, partial, reduce
from itertools import groupby, repeat
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
from .linalg import I2, Workspace, apply_gate, expm4_soa, kron
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
# call, and all its two-qubit slots one more.  A longer segment is cut
# into pieces between slots, which keeps the stream: a contiguous draw cut
# in two yields the same numbers.  At 1024 shots a piece holds four
# desk-noise one-qubit gates (5 normals a shot each) or one CNOT (21), so
# the block takes at most 160 KiB (or one slot's normals) and the
# one-qubit kernel's buffers, 240 bytes a gate draw, 960 KiB.  The
# two-qubit stack holds k S <= max(S, PIECE_NORMALS / r) draws of r normals
# each, 975 for desk CNOTs (r = 21), and it and expm4_soa's buffers take
# about 2 KiB a draw: at most 2 MiB.  A 64-shot GHZ-12 chunk stacks at
# most 448 draws (7 CNOTs) in 870 KiB, where one slot at a time took
# 125 KiB.
PIECE_NORMALS = 20480
# Items the helper thread of run_shots runs ahead of the one whose result
# the calling thread holds: draw blocks, each in its own workspace buffer
# (AHEAD + 1 of them, 160 KiB each at 1024 shots), or, where the helper
# builds (a chunk's state batch fills STATE_BUDGET_BYTES), built steps.
# A repeat_x compare (500 X gates, 4000 shots, 3 runs; the median of 5
# calls, one BLAS thread, 2 vCPUs) took 1.29, 1.16, 0.93 and 0.96 s with
# 1, 2, 3 and 5 blocks ahead.  On the GHZ ladder (the median of 6 warm
# calls, one BLAS thread, 2 vCPUs) 2, 3, 4 and 5 steps ahead took 0.294,
# 0.283, 0.284 and 0.289 s at n = 12, 1024 shots, and 0.589, 0.589, 0.606
# and 0.632 s at n = 14, 512 shots.
AHEAD = 3


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

    @cached_property
    def compiled(self) -> _Compiled:
        """The trajectory engine's slot plan of this circuit, built on
        first use and reused by every ``run_shots`` call on it.  It is
        kept beside the fields: equality, hashing and ``repr`` read the
        fields alone.  Registers wider than ``MAX_QUBITS`` raise
        ``ValueError`` and cache nothing."""
        return _Compiled(self)

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


def _passes(ops: dict[tuple[int, ...], np.ndarray]) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Operators on disjoint runs of adjacent qubits, ``{run: (S, d, d) or
    (d, d) operator}``, as ``apply_gate`` passes ``(gate, qubits)``: one
    per ``_plan_passes`` group, the per-shot Kronecker product of its
    operators (first qubit most significant)."""
    return [(reduce(kron, [ops[run] for run in runs]), sum(runs, ())) for runs in _plan_passes(ops)]


def _grow(states: np.ndarray, active: tuple[int, ...], qubits: Iterable[int], buffer: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """``states`` on the sorted ``active`` qubits with each of ``qubits``
    not among them inserted in |0>, written into the front of the flat
    ``buffer``.  Returns the grown states and their qubits, sorted."""
    grown = tuple(sorted({*active, *qubits}))
    size = len(states)
    out = buffer[: size << len(grown)].reshape(size, -1)
    out.fill(0.0)
    # one axis per run of old or of new qubits, in register order: the old
    # states fill the slice where every new qubit reads 0
    shape, index = [size], [slice(None)]
    for new, run in groupby(grown, lambda q: q not in active):
        shape.append(2 ** len(list(run)))
        index.append(0 if new else slice(None))
    zero = out.reshape(shape)[tuple(index)]
    zero[...] = states.reshape(zero.shape)
    return out, grown


def _fold(
    states: np.ndarray, active: tuple[int, ...], gate: np.ndarray, qubits: tuple[int, ...], buffer: np.ndarray, ws: Workspace
) -> tuple[np.ndarray, tuple[int, ...]]:
    """``apply_gate`` of ``gate`` on the ascending adjacent ``qubits``, some
    not in the sorted ``active``, to ``states`` grown by those: as they
    read 0, only the gate's columns where each of them reads 0 act, on the
    states as they are.  Writes into the front of the flat ``buffer``, and
    returns the grown states and their qubits, sorted."""
    grown = tuple(sorted({*active, *qubits}))
    k, size, lead = len(qubits), len(states), gate.shape[:-1]
    # the gate's columns as one axis per qubit, the first most significant
    cols = gate.reshape(lead + (2,) * k)[(..., *(slice(None) if q in active else 0 for q in qubits))]
    gate = ws.take("engine.fold", cols.shape)
    np.copyto(gate, cols)
    gate = gate.reshape(lead + (-1,))
    # the qubits span positions lo..lo+k-1 of the grown states, and their
    # old ones the positions from lo of the states, before the same ones
    lo = grown.index(qubits[0])
    trailing = 2 ** (len(grown) - lo - k)
    x = states.reshape(size, 2**lo, gate.shape[-1], trailing)
    out = buffer[: size << len(grown)].reshape(size, -1)
    y = out.reshape(size, 2**lo, 2**k, trailing)
    if trailing == 1:
        np.matmul(x[..., 0], np.swapaxes(gate, -1, -2), out=y[..., 0])
    else:
        np.matmul(gate[:, None] if gate.ndim > 2 else gate, x, out=y)
    return out, grown


def _apply_passes(
    states: np.ndarray,
    active: tuple[int, ...],
    passes: list[tuple[np.ndarray, tuple[int, ...]]],
    buffers: list[np.ndarray],
    ws: Workspace,
    n_qubits: int | None = None,
) -> tuple[np.ndarray, tuple[int, ...], int]:
    """Apply ``passes`` (as ``_passes`` makes them, on register qubits) to
    ``states`` on the sorted ``active`` qubits, each on its qubits'
    positions among the active ones.  A pass on a qubit not yet active
    grows the states by its qubits: on ascending adjacent qubits within
    the pass (``_fold``), else first (``_grow``).  Write i, growths
    included, goes into the front of the flat ``buffers[i % 2]``; with
    ``n_qubits`` the states end grown to the whole register.  Returns the
    states, their active qubits and the number of writes."""
    writes = 0
    for gate, qubits in passes:
        if any(q not in active for q in qubits):
            if list(qubits) == list(range(qubits[0], qubits[0] + len(qubits))):
                states, active = _fold(states, active, gate, qubits, buffers[writes % 2], ws)
                writes += 1
                continue
            states, active = _grow(states, active, qubits, buffers[writes % 2])
            writes += 1
        out = buffers[writes % 2][: states.size].reshape(states.shape)
        states = apply_gate(states, gate, [active.index(q) for q in qubits], out=out)
        writes += 1
    if n_qubits is not None and len(active) < n_qubits:
        states, active = _grow(states, active, range(n_qubits), buffers[writes % 2])
        writes += 1
    return states, active, writes


def _outcomes(probs: np.ndarray, weights: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The outcome each trajectory draws with its uniform u from its row of
    ``probs``, ``(S, 2^n)``, whose sum is its entry of ``weights``: the
    first index whose cumulative probability, divided by the weight, is
    at least u, clipped to 2^n - 1.  A row of at most 8 outcomes is one
    block, whose cumulative sum picks the outcome.  A longer row is
    searched in two levels over blocks of L = 2^ceil(n/2) outcomes: the
    cumulative sums of the block sums pick u's block, and a cumulative sum
    over that block alone, one ``(S, L)`` gather starting from the sums of
    the blocks before it, picks the outcome.  So no cumulative sum spans a
    long row: ``np.cumsum`` holds the GIL, and one over ``(S, 2^n)``
    stalls the thread that builds the steps.  Up to 8 outcomes the one
    block is the faster search.  Only these small arrays are divided by
    the weight (multiplying u by it instead loses subnormal weights).  A
    row of weight 0, whose probabilities are all 0, draws an outcome that
    means nothing."""
    size, dim = probs.shape
    width = dim if dim <= 8 else 1 << (dim.bit_length() // 2)
    count = dim // width
    blocks = probs.reshape(size * count, width)
    scale = weights[:, None]
    drawn = scale > 0.0
    u = uniforms[:, None]
    # the row of blocks that holds each row's block; a row of one block
    # needs no first level
    first = np.arange(0, size * count, count)
    block, start = 0, 0.0
    if count > 1:
        ends = (blocks @ np.ones(width)).reshape(size, count)
        np.divide(ends, scale, out=ends, where=drawn)
        np.cumsum(ends, axis=1, out=ends)
        # the last block takes every u past the others, as does the last
        # outcome of a block below
        ends[:, -1] = np.inf
        block = np.argmax(ends >= u, axis=1)
        first += block
        start = np.where(block > 0, ends.take(first - 1, mode="clip"), 0.0)
    cdf = blocks.take(first, axis=0)
    np.divide(cdf, scale, out=cdf, where=drawn)
    cdf[:, 0] += start
    np.cumsum(cdf, axis=1, out=cdf)
    cdf[:, -1] = np.inf
    return block * width + np.argmax(cdf >= u, axis=1)


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
    """The apply side of one chunk: its states, starting in |0...0>, on
    the ``active`` qubits alone, those a pass has touched, in register
    order; every other qubit is still exactly |0>, as the one-qubit slots
    wait in ``_Build``.  The states are an ``(S, 2^m)`` view, m active
    qubits, onto the front of one of two flat workspace buffers sized for
    the whole register, ``front``; ``back`` is the other.  The chunk runs
    the passes of its steps (``_apply_passes``, which grows the states by
    each qubit a pass brings in) and nothing else."""

    def __init__(self, workspace: Workspace, n_qubits: int, size: int):
        self.workspace, self.n_qubits = workspace, n_qubits
        self.front, self.back = (workspace.take(f"engine.states{i}", (size << n_qubits,)) for i in range(2))
        self.active: tuple[int, ...] = ()
        self.states = self.front[:size].reshape(size, 1)
        self.states.fill(1.0)

    def apply(self, passes: list[tuple[np.ndarray, tuple[int, ...]]]) -> None:
        """Apply a state step's ``passes`` to the states, each write going
        into the other buffer, which then holds them."""
        self.states, self.active, writes = _apply_passes(self.states, self.active, passes, [self.back, self.front], self.workspace)
        if writes % 2:
            self.front, self.back = self.back, self.front

    def read(self, passes: list[tuple[np.ndarray, tuple[int, ...]]], scratch: np.ndarray) -> np.ndarray:
        """The ``(S, 2^n)`` states of the whole register through a
        checkpoint's read ``passes``, written into ``back`` and ``scratch``
        in turn, and grown to the whole register at the end.  Returns the
        last buffer's view, or ``states`` when nothing was written.  The
        chunk does not change unless ``scratch`` is ``front``."""
        return _apply_passes(self.states, self.active, passes, [self.back, scratch], self.workspace, self.n_qubits)[0]

    def scratch(self, final: bool) -> np.ndarray:
        """The flat buffer a read writes every other pass into: the states'
        own for the ``final`` read, after which nothing reads them, else a
        state-sized copy in the workspace."""
        return self.front if final else self.workspace.take("engine.scratch", self.front.shape)

    def probs(self, read: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """|read|^2 per amplitude, the Born probabilities of each
        trajectory, as a view into ``back`` or ``scratch``, whichever the
        read did not end in."""
        out = scratch if np.may_share_memory(read, self.back) else self.back
        probs = out.view(float)[: read.size].reshape(read.shape)
        np.abs(read, out=probs)
        return np.square(probs, out=probs)


def _compose(gate: np.ndarray, factor: np.ndarray, out: np.ndarray, ws: Workspace) -> np.ndarray:
    """gate factor into ``out``, which may be ``factor`` itself, for a
    ``(2, 2, S)`` gate or a ``(2, 2, 1)`` one that broadcasts and a
    ``(2, 2, S)`` factor."""
    # row i of the product is gate[i, 0] factor[0] + gate[i, 1] factor[1],
    # so once the right-hand terms are kept, row 1 and then row 0 of
    # out can be written even where out is factor
    right = np.multiply(gate[:, 1:], factor[1:], out=ws.take("engine.right", out.shape))
    np.multiply(gate[1, 0], factor[0], out=out[1])
    out[1] += right[1]
    np.multiply(gate[0, 0], factor[0], out=out[0])
    out[0] += right[0]
    return out


class _Compiled:
    """The slot plan of one scheduled circuit (``ScheduledCircuit.compiled``),
    its samplers resolved once per distinct ``GateSpec`` and shared by
    every run of it; a call's ``_Build`` and ``_Chunk`` read its slots.
    It owns one ``Workspace``, which a call borrows
    (``borrow_workspace``) for its samplers, each chunk's normals, pending
    factors and state buffers; sized by the largest chunk and piece it has
    served, it lets the runs reuse the same pages for every gate and
    chunk.  Pickling it (to a worker process) sends the samplers and an
    empty workspace, without its lock.  Registers wider than
    ``MAX_QUBITS`` raise ``ValueError``."""

    def __init__(self, scheduled: ScheduledCircuit):
        if scheduled.n_qubits > MAX_QUBITS:
            raise ValueError(
                f"the trajectory engine supports at most {MAX_QUBITS} qubits; circuit has {scheduled.n_qubits}"
            )
        self.n_qubits = scheduled.n_qubits
        self.workspace = Workspace()
        self._lock = threading.Lock()
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

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _lock=threading.Lock())

    @contextmanager
    def borrow_workspace(self) -> Iterator[Workspace]:
        """The plan's workspace, held for the ``with`` block, or a fresh
        one when another call holds it: the lock is taken without
        blocking, so concurrent calls never share buffers."""
        if not self._lock.acquire(blocking=False):
            yield Workspace()
            return
        try:
            yield self.workspace
        finally:
            self._lock.release()

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


class _Checkpoint(NamedTuple):
    """A checkpoint's step: the passes that read the states for the dense
    density (``density``; None unless the register keeps one) and for the
    Born probabilities (``read``; None where the density's read serves, as
    no readout gate acts), and the ``uniforms`` that draw the outcomes."""

    density: list[tuple[np.ndarray, tuple[int, ...]]] | None
    read: list[tuple[np.ndarray, tuple[int, ...]]] | None
    uniforms: np.ndarray


class _Build:
    """The build side of one ``run_shots`` call: it turns the blocks of
    each chunk's stream, in draw order, into the chunk's steps.  A state
    step is the list of passes one ``_Chunk.apply`` runs; each checkpoint
    ends its segment with a ``_Checkpoint``.  Between steps it holds the
    chunk's pending gates: ``one[q]``, qubit q's one-qubit ``(2, 2, S)``
    factor (None for none), acting after ``blocks``, which maps disjoint
    runs of at most ``FUSE_MAX_QUBITS`` ascending adjacent qubits to
    per-shot ``(S, d, d)`` (or one ``(d, d)``) products of two-qubit gates.
    Each piece samples its slots in few calls (``_piece``: one per
    one-qubit sampler, one per relaxation rate and one ``expm4_soa`` for
    all its two-qubit slots), and each checkpoint builds its readout
    gates, of ``strengths`` (one per qubit of ``compiled.readout``), in
    one ``spam_gate_batch`` call.

    Where two-qubit gates wait in blocks (``compiled.pair_blocks``), the
    helper thread builds while the calling thread applies the steps
    before, so every step owns what it holds: a checkpoint's one-qubit
    factors and uniforms are copies.  Blocks are fresh products and are
    never written again.  Elsewhere each step is applied before the next
    is built, and it holds the workspace buffers themselves."""

    def __init__(self, compiled: _Compiled, workspace: Workspace, sizes: list[int], plans: dict, keep_density: bool):
        self.compiled, self.workspace = compiled, workspace
        self.sizes, self.plans = sizes, plans
        self.keep_density = keep_density
        self.strengths = np.array([v for _, v in compiled.readout])
        self.one: list[np.ndarray | None] = []
        self.blocks: dict[tuple[int, ...], np.ndarray] = {}

    def steps(self, take) -> Iterator[list | _Checkpoint]:
        """Every chunk's steps, in order; ``take()`` returns the next block
        of the stream, valid until the following call."""
        slots = self.compiled.slots
        for size in self.sizes:
            self.one = [None] * self.compiled.n_qubits
            self.blocks = {}
            for pieces in self.plans[size]:
                for first, last, _ in pieces:
                    yield from self._piece(slots[first:last], take(), size)
                yield self._checkpoint(take)

    def _keep(self, array: np.ndarray) -> np.ndarray:
        """``array``, or its copy in the same memory order where the step
        that holds it outlives the build of the next ones."""
        return array.copy(order="K") if self.compiled.pair_blocks else array

    def _piece(self, slots: list[_Slot], block: np.ndarray, size: int) -> Iterator[list]:
        """Take ``slots`` in plan order, slot j reading its normals from
        ``block`` after those of the slots before it; yields the state
        steps they make.  First the one-qubit noisy slots of each sampler,
        and the relaxation pads of each (gamma1, gamma_pd, dt), are sampled
        by one call each, and every two-qubit noisy slot, whatever its
        sampler, draws Xi into one ``(4, 4, k S)`` stack that one
        ``expm4_soa`` call exponentiates; each slot's prefix then
        multiplies its own slice."""
        ws = self.workspace
        offsets = [0]
        for slot in slots:
            offsets.append(offsets[-1] + slot.normals * size)
        groups: dict[object, list[int]] = {}
        pairs: list[int] = []
        for j, slot in enumerate(slots):
            if slot.kind in ("fused", "relax"):
                groups.setdefault(slot.payload, []).append(j)
            elif slot.kind == "noisy":
                pairs.append(j)
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
        if pairs:
            stack = ws.take("engine.pairs", (4, 4, size * len(pairs)))
            cuts = [slice(i * size, (i + 1) * size) for i in range(len(pairs))]
            for j, cut in zip(pairs, cuts):
                slots[j].payload.draw_xi(block[offsets[j] : offsets[j + 1]].reshape(size, -1), ws, stack[:, :, cut])
            f = expm4_soa(stack, ws)
            for j, cut in zip(pairs, cuts):
                built[j] = slots[j].payload.apply_prefix(f[:, :, cut])

        for j, slot in enumerate(slots):
            gate = built.get(j, slot.payload)
            q = slot.qubits[0]
            if len(slot.qubits) == 2:
                yield from self._pair(slot.qubits, gate)
            elif self.one[q] is None:
                self.one[q] = ws.take(f"engine.pending{q}", (2, 2, size))
                np.copyto(self.one[q], gate)
            else:
                _compose(gate, self.one[q], self.one[q], ws)

    def _pair(self, qubits: tuple[int, ...], gate: np.ndarray) -> list[list]:
        """The state steps of a two-qubit slot G on (a, b).  It absorbs the
        one-qubit factors of its qubits, G (P_a x P_b).  With
        ``pair_blocks`` and adjacent qubits it then joins the block it
        overlaps when their union spans at most ``FUSE_MAX_QUBITS``
        qubits; otherwise the blocks it overlaps are applied and it starts
        a block.  Other slots are applied at once, after the blocks they
        overlap."""
        one = self.one
        a, b = qubits
        if one[a] is not None or one[b] is not None:
            gate = gate @ kron(_per_shot(one[a]), _per_shot(one[b]))
            one[a] = one[b] = None
        touched = {run: self.blocks.pop(run) for run in list(self.blocks) if a in run or b in run}
        flush = [_passes(touched)] if touched else []
        if self.compiled.pair_blocks and abs(a - b) == 1:
            run = (min(a, b), max(a, b))
            if a > b:
                # the same gate on (b, a): swap the two bits of each index
                gate = gate[..., [0, 2, 1, 3], :][..., [0, 2, 1, 3]]
            if len(touched) == 1:
                (old, block), = touched.items()
                span = tuple(range(min(run[0], old[0]), max(run[-1], old[-1]) + 1))
                if len(span) <= FUSE_MAX_QUBITS:
                    self.blocks[span] = _widen(gate, run, span) @ _widen(block, old, span)
                    return []
            self.blocks[run] = gate
            return flush
        return flush + [_passes({qubits: gate})]

    def _read(self, factors: list[np.ndarray | None]) -> list[tuple[np.ndarray, tuple[int, ...]]]:
        """Passes that read the states through the blocks and then the
        one-qubit ``factors`` (indexed like ``one``): each block with its
        qubits' factors, the other factors alone, packed by
        ``_plan_passes``."""
        ops: dict[tuple[int, ...], np.ndarray] = {}
        for run, block in self.blocks.items():
            if any(factors[q] is not None for q in run):
                block = reduce(kron, [_per_shot(factors[q]) for q in run]) @ block
            ops[run] = block
        blocked = {q for run in self.blocks for q in run}
        ops.update({(q,): _per_shot(self._keep(f)) for q, f in enumerate(factors) if f is not None and q not in blocked})
        return _passes(ops)

    def _checkpoint(self, take) -> _Checkpoint:
        """The checkpoint's step.  A register that keeps a dense density
        first reads the pending gates alone for it.  The Born
        probabilities read them with a fresh pre-measurement noise gate R
        per qubit of ``readout``, built from its row of standard normals.
        One ``spam_gate_batch`` call multiplies every R onto a copy of its
        qubit's factor, or onto I where the qubit has none; without
        readout gates the density's read serves.  The pending gates stay
        pending."""
        compiled, ws = self.compiled, self.workspace
        density = self._read(self.one) if self.keep_density else None
        read = None
        if compiled.readout or density is None:
            factors = list(self.one)
            if compiled.readout:
                # the readout normals are read before the next take frees their block
                z = take()
                stack = ws.take("engine.readout", (len(z), 2, 2, z.shape[1]))
                for row, (q, _) in zip(stack, compiled.readout):
                    row[...] = I2[:, :, None] if factors[q] is None else factors[q]
                    factors[q] = row
                spam_gate_batch(self.strengths, z, stack)
            read = self._read(factors)
        return _Checkpoint(density, read, self._keep(take()))


def _draw_jobs(
    gens: list[np.random.Generator], sizes: list[int], plans: dict[int, list[list[tuple[int, int, int]]]], readout: int
) -> Iterator[tuple[tuple[int, ...], object]]:
    """The run's random stream, in draw order, as ``(shape, fill)`` jobs,
    each a bound ``Generator`` method: ``fill(out=block)`` fills a float
    block of ``shape`` and returns it.  Chunk c draws from ``gens[c]``:
    per segment of ``plans[sizes[c]]``, a ``standard_normal`` job per
    piece, a ``standard_normal`` job of ``readout`` rows (one per readout
    gate) when ``readout`` > 0, and a ``random`` job for the uniforms."""
    for gen, size in zip(gens, sizes):
        for pieces in plans[size]:
            for *_, count in pieces:
                yield (count,), gen.standard_normal
            if readout:
                yield (readout, size), gen.standard_normal
            yield (size,), gen.random


class _Ahead:
    """A helper thread, ``noisygates-draws``, that runs ``jobs``,
    zero-argument callables, in order and at most ``ahead`` of the
    calling thread.  The calling thread advances ``jobs``: it queues
    ``ahead`` of them on entry and one more on each ``take``, which
    returns the next job's result.  The helper passes its first error on
    to the ``take`` of that job and runs no later job.  Leaving the
    ``with`` block joins the helper once it has run the jobs queued."""

    def __init__(self, jobs: Iterable[Callable[[], object]], ahead: int):
        # imported on first use, so importing the package loads no more
        # than numpy does
        import queue

        self._jobs, self._ahead = iter(jobs), ahead
        self._todo, self._done = queue.SimpleQueue(), queue.SimpleQueue()
        self._thread = threading.Thread(target=self._run, name="noisygates-draws", daemon=True)

    def __enter__(self) -> _Ahead:
        for _ in range(self._ahead):
            self._queue()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._todo.put(None)
        self._thread.join()

    def take(self):
        """The next job's result, or its error."""
        self._queue()
        result = self._done.get()
        if isinstance(result, BaseException):
            raise result
        return result

    def _queue(self) -> None:
        """Queue the next job of ``jobs``, if any."""
        job = next(self._jobs, None)
        if job is not None:
            self._todo.put(job)

    def _run(self) -> None:
        """The helper: each queued job in order, until None or an error,
        which it passes on, as the calling thread would otherwise wait for
        the result forever."""
        try:
            while (job := self._todo.get()) is not None:
                self._done.put(job())
        except BaseException as exc:
            self._done.put(exc)


def run_shots(scheduled: ScheduledCircuit, config: RunConfig) -> EnsembleResult:
    """Ensemble over ``config.shots`` trajectories.

    Shots are simulated in chunks of ``chunk_shots(n)``, a function of the
    register width alone; chunk c of run r draws from the stream
    (master_seed, r, c), so aggregates are bit-identical for any
    parallelism.  Checkpoints record the running ensemble after the stated
    number of layers (measured qubits get a fresh pre-measurement noise
    draw at every checkpoint, mirroring a family of circuits of increasing
    depth that share noise prefixes).  The layers after the last
    checkpoint are neither drawn nor applied: each chunk has its own
    stream, so no result reads them.  Every chunk's generator is made
    here, on the calling thread; one helper thread (``_Ahead``) draws the
    streams and, on registers whose chunks fill ``STATE_BUDGET_BYTES``,
    also builds the steps the calling thread applies.  It is joined
    before this returns or raises.  The run reads ``scheduled.compiled``,
    the plan built on the circuit's first run, and borrows its workspace
    (a fresh one while another call holds it).  Registers wider than
    ``MAX_QUBITS`` raise ``ValueError`` before anything is allocated.  A
    checkpoint whose weights are not finite, or all zero, raises
    ``FloatingPointError``.
    """
    compiled = scheduled.compiled
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
    gens = [root.child(c).generator for c in range(n_chunks)]
    with compiled.borrow_workspace() as ws:
        build = _Build(compiled, ws, sizes, plans, keep_density)
        # job i draws block i into a ring of AHEAD + 1 buffers, or into one
        # where the helper builds, which reads each block before the next
        ring = 1 if compiled.pair_blocks else AHEAD + 1
        blocks = (
            partial(fill, out=ws.take(f"engine.normals{i % ring}", shape, float))
            for i, (shape, fill) in enumerate(_draw_jobs(gens, sizes, plans, len(compiled.readout)))
        )
        if compiled.pair_blocks:
            # each job builds the next step, and None past the last: a
            # StopIteration left in the helper's queue would hold the helper
            # in a reference cycle, through its traceback, until a garbage
            # collection
            jobs = repeat(partial(next, build.steps(lambda: next(blocks)()), None))
        else:
            jobs = blocks
        with _Ahead(jobs, AHEAD) as helper:
            next_step = helper.take if compiled.pair_blocks else build.steps(helper.take).__next__
            for size in sizes:
                chunk = _Chunk(ws, n, size)
                for cp_iter, at in enumerate(cp_sorted):
                    while not isinstance(step := next_step(), _Checkpoint):
                        chunk.apply(step)
                    last = cp_iter == n_cp - 1
                    read = None
                    if step.density is not None:
                        # while a read with readout gates has the states still
                        # to read, the density's read leaves them
                        read = chunk.read(step.density, chunk.scratch(last and step.read is None))
                        dens_acc[cp_iter] += np.einsum("si,sj->ij", read, read.conj())
                    if step.read is not None:
                        read = chunk.read(step.read, chunk.scratch(last))
                    probs = chunk.probs(read, chunk.scratch(last))
                    weights = probs.sum(axis=1)
                    if not np.all(np.isfinite(weights)):
                        raise FloatingPointError(f"trajectory weights diverged at checkpoint {at}")
                    total = weights.sum()
                    if total == 0.0:
                        raise FloatingPointError(f"every trajectory weight is zero at checkpoint {at}")
                    dist_acc[cp_iter] += probs.sum(axis=0)
                    weight_acc[cp_iter] += total
                    # a trajectory of weight 0 draws no outcome
                    drawn = _outcomes(probs, weights, step.uniforms)[weights > 0.0]
                    counts[cp_iter] += np.bincount(drawn, minlength=dim)

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
