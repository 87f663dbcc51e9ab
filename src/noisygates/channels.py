"""Slot maps of the density-matrix back-ends and the kernel that applies
them: the channel simulator and the Lindblad reference.

Both back-ends turn a slot's :func:`~noisygates.noise_model.noise_context_for_gate`
jump terms into a local superoperator on vec(rho) with
``lindblad.rhs_superoperator`` and ``linalg.expm``; only the driven
generator and the order of the factors differ.  The channel simulator
is the "apply noise after the ideal gate" baseline: per slot the ideal
unitary acts first, then the depolarising terms of a driven slot, then
the relaxation terms over the slot's duration, each group exponentiated
on its own without the drive (:func:`_slot_superoperator`).  The
Lindblad reference exponentiates the drive and all the terms together
(:func:`_lindblad_slot_map`).  Over one slot the exponential of a jump
group is exactly the discrete channel the amplitudes were converted
from (the symmetric depolarising channel, combined amplitude and phase
damping); ``tests/test_channels.py`` checks the maps against those Kraus
closed forms.  Readout bitflips on the measured qubits never touch the
running state: a bit flip changes only diag(rho), so
``experiments._readout_distribution`` applies them to the outcome
probabilities, for both back-ends alike.

The slots of a scheduled layer act on disjoint qubits, except a user
IDLE followed by its pad on the same qubit, which run back to back.  So
a layer's map is the product, in slot order, of one local superoperator
per slot (4^k x 4^k for a slot on k <= 2 qubits).  :func:`evolve_layers`
applies those maps with ``linalg.apply_superoperator``, building each
once per distinct slot.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from .gates import drive_generator, ideal_unitary
from .linalg import apply_superoperator, dagger, embed, expm, superoperator
from .lindblad import rhs_superoperator
from .noise_model import DeviceParams, noise_context_for_gate, split_slot_terms

__all__ = [
    "apply_channel",
    "embed_operator",
    "evolve_layers",
    "run_channel_sim",
]

# Widest register the density-matrix back-ends accept: rho holds 4^n
# complex entries (16 MiB at n = 10), and each slot's update reads and
# writes all of them.
MAX_QUBITS = 10


def embed_operator(op: np.ndarray, n_qubits: int, qubits: tuple[int, ...] | list[int]) -> np.ndarray:
    """Expand a local operator to the full register (big-endian; first
    listed qubit is the most significant bit of the local ordering)."""
    qubits = tuple(qubits)
    k = len(qubits)
    op = np.asarray(op, dtype=complex)
    if op.shape != (2**k, 2**k):
        raise ValueError(f"operator dim {op.shape} does not match {k} qubits")
    return embed(op, qubits, n_qubits)


def apply_channel(
    rho: np.ndarray, operators: Sequence[np.ndarray], qubits: tuple[int, ...] | list[int]
) -> np.ndarray:
    """Apply the local channel rho -> sum_i K_i rho K_i^dag of the Kraus
    ``operators`` to the listed qubits of a register density matrix; the
    trace is preserved when sum_i K_i^dag K_i = I."""
    rho = np.asarray(rho, dtype=complex)
    qubits = tuple(qubits)
    if operators[0].shape[0] != 2 ** len(qubits):
        raise ValueError("channel dimension does not match qubit count")
    return apply_superoperator(rho, superoperator(operators), qubits)


def _slot_superoperator(gate, params: DeviceParams) -> np.ndarray:
    """Local superoperator of one slot in the channel simulator:
    expm(D_relax) @ expm(D_dep) @ S(U).  S(U) is the ideal unitary's
    superoperator, and each D is ``lindblad.rhs_superoperator`` of a zero
    generator over one group of the slot's ``noise_context_for_gate``
    terms (``noise_model.split_slot_terms``): the depolarising set of a
    driven slot, then relaxation over the slot's duration.  One joint
    exponential of both groups would be another model."""
    sup = superoperator([ideal_unitary(gate)])
    relaxation, depolarizing = split_slot_terms(noise_context_for_gate(gate, params))
    for terms in (depolarizing, relaxation):
        if terms:
            sup = expm(rhs_superoperator(np.zeros_like(terms[0].operator), terms)) @ sup
    return sup


def _lindblad_slot_map(gate, params: DeviceParams) -> np.ndarray:
    """Local map of one slot in the Lindblad reference: the exact
    exponential (``linalg.expm``) of the slot-time generator
    (``lindblad.rhs_superoperator``) of its drive ``drive_generator(gate)``
    (none for an idle) and its ``noise_context_for_gate`` terms, over s in
    [0, 1].  A zero-duration slot (an RZ frame, a zero idle) is its ideal
    unitary."""
    ctx = noise_context_for_gate(gate, params)
    if ctx.gate_duration == 0.0:
        return superoperator([ideal_unitary(gate)])
    return expm(rhs_superoperator(drive_generator(gate), ctx.terms))


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
