"""Kraus channel library, the channel simulator and the density-matrix
kernel it shares with the Lindblad reference.

The channel simulator is the "apply noise after the ideal gate"
baseline: per gate slot the ideal unitary acts first, then a
depolarising channel for the gate error, then per-qubit relaxation over
the gate duration; idle slots relax over their own duration.  Which
channels a slot carries follows ``noise_model.slot_noise``, the rule the
other back-ends share.  Readout bitflips on the measured qubits never
touch the running state: a bit flip changes only diag(rho), so
``experiments._readout_distribution`` applies them to the outcome
probabilities, for this back-end and the Lindblad reference alike.

The slots of a scheduled layer act on disjoint qubits, except a user
IDLE followed by its pad on the same qubit, which run back to back.  So
a layer's map is the product, in slot order, of one local superoperator
per slot (4^k x 4^k for a slot on k <= 2 qubits).  :func:`evolve_layers`
applies those maps with ``linalg.apply_superoperator``, building each
once per distinct slot; the channel simulator and
``experiments.lindblad_reference`` differ only in how a slot's map is
built.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .linalg import (
    DECAY,
    PROJ_1,
    apply_superoperator,
    dagger,
    embed,
    superoperator,
)
from .noise_model import DeviceParams, depolarizing_paulis, slot_noise

__all__ = [
    "KrausChannel",
    "depolarizing_channel",
    "relaxation_channel",
    "apply_channel",
    "embed_operator",
    "evolve_layers",
    "run_channel_sim",
]

_COMPLETENESS_TOL = 1e-10
# Widest register the density-matrix back-ends accept: rho holds 4^n
# complex entries (16 MiB at n = 10), and each slot's update reads and
# writes all of them.
MAX_QUBITS = 10


@dataclass(frozen=True)
class KrausChannel:
    """Operator-sum map rho -> sum_i K_i rho K_i^dag with sum K^dag K = I."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        dims = {op.shape for op in self.operators}
        if len(dims) != 1:
            raise ValueError(f"mixed Kraus operator shapes: {dims}")
        d = self.operators[0].shape[0]
        total = sum(dagger(op) @ op for op in self.operators)
        if np.max(np.abs(total - np.eye(d))) > _COMPLETENESS_TOL:
            raise ValueError("Kraus operators do not satisfy completeness")

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def _check_probability(p: float, name: str = "p") -> None:
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {p:g}")


def depolarizing_channel(p: float, arity: int) -> KrausChannel:
    """Symmetric depolarising channel on ``arity`` qubits with total
    error p: sqrt(1 - (4^k - 1) p / 4^k) I and sqrt(p / 4^k) P for each of
    the 4^k - 1 :func:`~noisygates.noise_model.depolarizing_paulis` P
    (k = ``arity``).  Every non-identity Pauli coefficient contracts by
    exactly 1 - p; for one qubit, so does the Bloch vector."""
    _check_probability(p)
    d2 = 4**arity
    ops = [math.sqrt(1 - (d2 - 1) * p / d2) * np.eye(2**arity, dtype=complex)]
    ops += [math.sqrt(p / d2) * pauli for pauli in depolarizing_paulis(arity)]
    return KrausChannel(tuple(ops))


def relaxation_channel(gamma1: float, gamma_pd: float, dt: float) -> KrausChannel:
    """Combined amplitude and phase damping over dt.

    With p1 = 1 - e^{-gamma1 dt}, p_pd = 1 - e^{-gamma_pd dt} and
    pz = (1 - p1) p_pd the operators are
    {diag(1, sqrt(1 - p1 - pz)), sqrt(p1) |0><1|, sqrt(pz) |1><1|}.
    """
    if gamma1 < 0 or gamma_pd < 0:
        raise ValueError("rates must be >= 0")
    if dt < 0:
        raise ValueError("dt must be >= 0")
    p1 = -math.expm1(-gamma1 * dt)
    p_pd = -math.expm1(-gamma_pd * dt)
    pz = (1 - p1) * p_pd
    k0 = np.array([[1, 0], [0, math.sqrt(1 - p1 - pz)]], dtype=complex)
    return KrausChannel((k0, math.sqrt(p1) * DECAY, math.sqrt(pz) * PROJ_1))


def embed_operator(op: np.ndarray, n_qubits: int, qubits: tuple[int, ...] | list[int]) -> np.ndarray:
    """Expand a local operator to the full register (big-endian; first
    listed qubit is the most significant bit of the local ordering)."""
    qubits = tuple(qubits)
    k = len(qubits)
    op = np.asarray(op, dtype=complex)
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator dim {op.shape} does not match {k} qubits")
    return embed(op, qubits, n_qubits)


def apply_channel(rho: np.ndarray, channel: KrausChannel, qubits: tuple[int, ...] | list[int]) -> np.ndarray:
    """Apply a local channel to the listed qubits of a register density
    matrix; trace is preserved by Kraus completeness."""
    rho = np.asarray(rho, dtype=complex)
    qubits = tuple(qubits)
    if channel.dim != 2 ** len(qubits):
        raise ValueError("channel dimension does not match qubit count")
    return apply_superoperator(rho, superoperator(channel.operators), qubits)


def _slot_superoperator(gate, params: DeviceParams) -> np.ndarray:
    """Local superoperator of one slot in the channel simulator: the ideal
    unitary, then the channels of the slot's
    :func:`~noisygates.noise_model.slot_noise`, i.e. the depolarising
    channel of a driven slot and relaxation over the slot's duration on
    each of its qubits."""
    from .gates import ideal_unitary  # local import to avoid a cycle

    noise = slot_noise(gate, params)
    sup = superoperator([ideal_unitary(gate)])
    if noise.p_depolarizing is not None:
        sup = superoperator(depolarizing_channel(noise.p_depolarizing, len(gate.qubits)).operators) @ sup
    if noise.relaxation:
        per_qubit = [relaxation_channel(g1, g_pd, noise.duration).operators for g1, g_pd in noise.relaxation]
        sup = superoperator([reduce(np.kron, ops) for ops in itertools.product(*per_qubit)]) @ sup
    return sup


def evolve_layers(
    scheduled, slot_map: Callable[..., np.ndarray], checkpoints: Sequence[int]
) -> list[np.ndarray]:
    """Density matrix of a scheduled circuit started in |0...0>, after each
    of the layer counts ``checkpoints`` (0 is the initial state).

    Each slot applies ``slot_map(gate)``, its local superoperator, on its
    qubits, in slot order; each distinct ``GateSpec`` builds its map once
    (the key holds the qubits, whose T1/T2 set an idle slot's noise).  rho
    is symmetrised after every layer.  Registers wider than ``MAX_QUBITS``
    raise ``ValueError`` before anything is allocated, and a state that
    leaves the finite range raises ``FloatingPointError``.
    """
    n = scheduled.n_qubits
    if n > MAX_QUBITS:
        raise ValueError(
            f"the density-matrix back-ends (channel simulator, Lindblad reference) support at most "
            f"{MAX_QUBITS} qubits; circuit has {n}"
        )
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    kept = {0: rho}
    maps: dict = {}
    for index, layer in enumerate(scheduled.layers[: max(checkpoints, default=0)], 1):
        for gate in layer.gates:
            if gate not in maps:
                maps[gate] = slot_map(gate)
            rho = apply_superoperator(rho, maps[gate], gate.qubits)
        rho = 0.5 * (rho + dagger(rho))
        if not np.all(np.isfinite(rho)):
            raise FloatingPointError(f"density matrix diverged in layer {index - 1}")
        if index in checkpoints:
            kept[index] = rho
    return [kept[c] for c in checkpoints]


def run_channel_sim(scheduled, checkpoints: Sequence[int]) -> list[np.ndarray]:
    """Evolve a density matrix through a scheduled circuit with
    :func:`evolve_layers`, each slot mapped by :func:`_slot_superoperator`
    under the circuit's own device parameters.  Returns the state after
    each checkpoint layer count; readout bitflips are *not* applied here,
    the measured distribution applies them to the diagonal.
    """
    return evolve_layers(scheduled, lambda gate: _slot_superoperator(gate, scheduled.params), checkpoints)
