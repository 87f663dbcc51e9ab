"""Kraus channel library and the density-matrix channel simulator.

This is the "apply noise after the ideal gate" baseline: per gate slot
the ideal unitary acts first, then a depolarising channel for the gate
error, then per-qubit relaxation over the gate duration; idle slots
relax over their own duration and measured qubits see a bitflip channel
before readout.  Which channels a slot carries follows
``noise_model.slot_noise``, the rule the other back-ends share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DECAY, I2, PAULI_X, PAULI_Y, PAULI_Z, PROJ_1, dagger, embed
from .noise_model import DeviceParams, TWO_QUBIT_PAULIS, slot_noise

__all__ = [
    "KrausChannel",
    "bitflip_channel",
    "depolarizing_channel",
    "two_qubit_depolarizing_channel",
    "relaxation_channel",
    "apply_channel",
    "embed_operator",
    "run_channel_sim",
]

_COMPLETENESS_TOL = 1e-10
# Widest register run_channel_sim accepts: its density matrix and every
# embedded Kraus operator hold 4^n complex entries (16 MiB at n = 10), and
# each product costs 8^n multiply-adds.
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

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        out = np.zeros_like(np.asarray(rho, dtype=complex))
        for op in self.operators:
            out += op @ rho @ dagger(op)
        return out


def _check_probability(p: float, name: str = "p") -> None:
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1], got {p:g}")


def bitflip_channel(p: float) -> KrausChannel:
    """rho -> (1-p) rho + p X rho X."""
    _check_probability(p)
    return KrausChannel((math.sqrt(1 - p) * I2, math.sqrt(p) * PAULI_X))


def depolarizing_channel(p: float) -> KrausChannel:
    """Isotropic single-qubit Pauli noise with total error p; contracts
    the Bloch vector by exactly (1 - p)."""
    _check_probability(p)
    ops = [math.sqrt(1 - 0.75 * p) * I2]
    ops += [math.sqrt(p / 4) * pauli for pauli in (PAULI_X, PAULI_Y, PAULI_Z)]
    return KrausChannel(tuple(ops))


def two_qubit_depolarizing_channel(p: float) -> KrausChannel:
    """Symmetric 15-Pauli two-qubit depolarising channel with total
    error p (every non-identity Pauli coefficient contracts by 1 - p)."""
    _check_probability(p)
    ops = [math.sqrt(1 - 15 * p / 16) * np.eye(4, dtype=complex)]
    ops += [math.sqrt(p / 16) * pauli for pauli in TWO_QUBIT_PAULIS]
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
    n = int(round(math.log2(rho.shape[0])))
    qubits = tuple(qubits)
    if channel.dim != 2 ** len(qubits):
        raise ValueError("channel dimension does not match qubit count")
    out = np.zeros_like(rho)
    for op in channel.operators:
        full = embed_operator(op, n, qubits)
        out += full @ rho @ dagger(full)
    return out


def run_channel_sim(scheduled, params: DeviceParams, initial: np.ndarray | None = None) -> list[np.ndarray]:
    """Evolve a density matrix through a scheduled circuit layer by layer.

    Per slot, in slot order: the ideal unitary, then the channels of the
    slot's :func:`~noisygates.noise_model.slot_noise`, i.e. the
    depolarising channel of a driven slot and relaxation over the slot's
    duration on each of its qubits.  Returns the state
    after every layer (readout bitflips are *not* applied here; the
    measured distribution adds them, as ``bitflip_channel`` on each
    measured qubit).  Registers wider than ``MAX_QUBITS`` raise
    ``ValueError`` before anything is allocated.
    """
    from .gates import ideal_unitary  # local import to avoid a cycle

    n = scheduled.n_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"the channel simulator supports at most {MAX_QUBITS} qubits; circuit has {n}")
    d = 2**n
    rho = np.zeros((d, d), dtype=complex)
    if initial is None:
        rho[0, 0] = 1.0
    else:
        rho = np.array(initial, dtype=complex)
    series = []
    for layer in scheduled.layers:
        for gate in layer.gates:
            u = ideal_unitary(gate)
            full = embed_operator(u, n, gate.qubits)
            rho = full @ rho @ dagger(full)
            noise = slot_noise(gate, params)
            p = noise.p_depolarizing
            if p is not None:
                depolarize = depolarizing_channel if len(gate.qubits) == 1 else two_qubit_depolarizing_channel
                rho = apply_channel(rho, depolarize(p), gate.qubits)
            for q, (gamma1, gamma_pd) in zip(gate.qubits, noise.relaxation):
                rho = apply_channel(rho, relaxation_channel(gamma1, gamma_pd, noise.duration), (q,))
        rho = 0.5 * (rho + dagger(rho))
        series.append(rho.copy())
    return series

