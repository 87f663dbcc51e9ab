import itertools
import math
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from noisygates.acceptance import desk_device
from noisygates.channels import _lindblad_slot_map, _slot_superoperator, apply_channel, embed_operator, run_channel_sim
from noisygates.engine import parse_circuit, schedule_layers
from noisygates.gates import GateSpec, ideal_unitary
from noisygates.linalg import (
    DECAY,
    I2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PROJ_1,
    apply_superoperator,
    dagger,
    kron,
    superoperator,
)
from noisygates.noise_model import DeviceParams, QubitParams, depolarizing_paulis, slot_noise

DEVICE = DeviceParams(
    qubits=(
        QubitParams(t1_s=100e-6, t2_s=80e-6, p_readout=0.02),
        QubitParams(t1_s=90e-6, t2_s=70e-6, p_readout=0.02),
    ),
    t_1q_s=35e-9,
    t_2q_s=300e-9,
    p_1q=5e-4,
    p_2q=0.01,
)

NOISELESS = DeviceParams(
    qubits=(
        QubitParams(t1_s=math.inf, t2_s=math.inf, p_readout=0.0),
        QubitParams(t1_s=math.inf, t2_s=math.inf, p_readout=0.0),
    ),
    t_1q_s=35e-9,
    t_2q_s=300e-9,
    p_1q=0.0,
    p_2q=0.0,
)

# The Kraus closed forms of the discrete channels that the jump amplitudes
# are converted from.  The back-ends build their maps from the jump terms
# alone; these formulas are the oracles that check the conversion.


def bitflip_kraus(p: float) -> tuple[np.ndarray, ...]:
    """rho -> (1-p) rho + p X rho X: the readout flip as a channel, for
    oracles (the back-ends flip outcome probabilities instead)."""
    return (math.sqrt(1 - p) * I2, math.sqrt(p) * PAULI_X)


def depolarizing_kraus(p: float, arity: int) -> tuple[np.ndarray, ...]:
    """Symmetric depolarising channel on ``arity`` qubits with total error
    p: sqrt(1 - (4^k - 1) p / 4^k) I, then sqrt(p / 4^k) P for each of the
    4^k - 1 non-identity Paulis P (k = ``arity``)."""
    d2 = 4**arity
    identity = math.sqrt(1 - (d2 - 1) * p / d2) * np.eye(2**arity, dtype=complex)
    return (identity, *(math.sqrt(p / d2) * pauli for pauli in depolarizing_paulis(arity)))


def relaxation_kraus(gamma1: float, gamma_pd: float, dt: float) -> tuple[np.ndarray, ...]:
    """Combined amplitude and phase damping over dt: with
    p1 = 1 - e^{-gamma1 dt}, p_pd = 1 - e^{-gamma_pd dt} and
    pz = (1 - p1) p_pd the operators are
    {diag(1, sqrt(1 - p1 - pz)), sqrt(p1) |0><1|, sqrt(pz) |1><1|}."""
    p1 = -math.expm1(-gamma1 * dt)
    pz = (1 - p1) * -math.expm1(-gamma_pd * dt)
    k0 = np.array([[1, 0], [0, math.sqrt(1 - p1 - pz)]], dtype=complex)
    return (k0, math.sqrt(p1) * DECAY, math.sqrt(pz) * PROJ_1)


def kraus_slot_map(gate, params):
    """Oracle for the channel simulator's slot map: the ideal unitary, then
    the depolarising channel of a driven slot, then each qubit's
    relaxation over the slot's duration, as the Kraus closed forms of the
    slot's ``slot_noise``."""
    noise = slot_noise(gate, params)
    sup = superoperator([ideal_unitary(gate)])
    if noise.p_depolarizing is not None:
        sup = superoperator(depolarizing_kraus(noise.p_depolarizing, len(gate.qubits))) @ sup
    if noise.relaxation:
        per_qubit = [relaxation_kraus(g1, g_pd, noise.duration) for g1, g_pd in noise.relaxation]
        sup = superoperator([reduce(np.kron, ops) for ops in itertools.product(*per_qubit)]) @ sup
    return sup


def every_layer(scheduled):
    """Checkpoints after every layer of a scheduled circuit."""
    return range(1, len(scheduled.layers) + 1)


def whole(operators, rho):
    """The channel of the Kraus ``operators`` applied to every qubit of
    ``rho``."""
    return apply_channel(rho, operators, range(operators[0].shape[0].bit_length() - 1))


def embedded_channel(rho, operators, qubits):
    """Oracle for apply_channel: every Kraus operator embedded on the full
    register and applied as K rho K^dag."""
    n = int(round(math.log2(rho.shape[0])))
    out = np.zeros_like(rho)
    for op in operators:
        full = embed_operator(op, n, qubits)
        out += full @ rho @ dagger(full)
    return out


def full_register_channel_sim(scheduled, params):
    """Oracle for run_channel_sim: per slot, in slot order, the embedded
    ideal unitary, then the slot_noise channels' Kraus closed forms
    through embedded_channel; rho symmetrised after every layer.  Returns
    the state after every layer."""
    n = scheduled.n_qubits
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    series = []
    for layer in scheduled.layers:
        for gate in layer.gates:
            full = embed_operator(ideal_unitary(gate), n, gate.qubits)
            rho = full @ rho @ dagger(full)
            noise = slot_noise(gate, params)
            p = noise.p_depolarizing
            if p is not None:
                rho = embedded_channel(rho, depolarizing_kraus(p, len(gate.qubits)), gate.qubits)
            for q, (gamma1, gamma_pd) in zip(gate.qubits, noise.relaxation):
                rho = embedded_channel(rho, relaxation_kraus(gamma1, gamma_pd, noise.duration), (q,))
        rho = 0.5 * (rho + dagger(rho))
        series.append(rho.copy())
    return series


def completeness_defect(operators):
    total = sum(dagger(k) @ k for k in operators)
    return np.abs(total - np.eye(operators[0].shape[0])).max()


class TestKrausOracles:
    def test_bitflip_identity(self):
        rho = np.array([[0.25, 0.1], [0.1, 0.75]], dtype=complex)
        assert np.allclose(whole(bitflip_kraus(0.0), rho), rho)

    def test_bitflip_half_mixes(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(whole(bitflip_kraus(0.5), rho), np.eye(2) / 2)

    def test_depolarizing_full_strength(self):
        # p = 1 is beyond a calibration (p < 1), so only the oracle reaches it
        rho = np.array([[0.9, 0.2j], [-0.2j, 0.1]], dtype=complex)
        assert np.allclose(whole(depolarizing_kraus(1.0, 1), rho), np.eye(2) / 2, atol=1e-12)
        rho2 = np.kron(rho, np.array([[0.3, 0.1], [0.1, 0.7]], dtype=complex))
        assert np.allclose(whole(depolarizing_kraus(1.0, 2), rho2), np.eye(4) / 4, atol=1e-12)

    def test_relaxation_identity_at_zero_time(self):
        rho = np.array([[0.3, 0.2], [0.2, 0.7]], dtype=complex)
        assert np.allclose(whole(relaxation_kraus(1e4, 1.5e4, 0.0), rho), rho)

    @pytest.mark.parametrize(
        "operators",
        [
            bitflip_kraus(0.3),
            depolarizing_kraus(0.7, 1),
            depolarizing_kraus(0.25, 2),
            relaxation_kraus(2.0, 1.0, 0.8),
        ],
    )
    def test_completeness(self, operators):
        assert completeness_defect(operators) < 1e-12


SLOT_GATES = [
    GateSpec("X", (0,)),
    GateSpec("SX", (1,)),
    GateSpec("RX", (0,), theta=1.3, phi=0.4),
    GateSpec("CR", (0, 1), theta=math.pi),
    GateSpec("CR", (1, 0), theta=0.8, phi=0.2),
    GateSpec("CNOT", (0, 1)),
    GateSpec("CNOT", (1, 0)),
    GateSpec("IDLE", (0,), duration=1e-6),
    GateSpec("IDLE", (1,), duration=50e-9),
    GateSpec("RZ", (0,), phi=0.6),
]
SLOT_DEVICES = {
    "desk": desk_device(),
    "p0": replace(desk_device(), p_1q=0.0, p_2q=0.0),
    "t2_2t1": replace(desk_device(), qubits=tuple(replace(q, t2_s=2 * q.t1_s) for q in desk_device().qubits)),
}


def _pauli_coefficients(rho, paulis):
    return np.array([np.real(np.trace(rho @ pauli)) / rho.shape[0] for pauli in paulis])


class TestSlotMaps:
    """The channel simulator's slot maps, built from the jump terms, are
    the Kraus channels the amplitudes were converted from."""

    @pytest.mark.parametrize("device", sorted(SLOT_DEVICES))
    @pytest.mark.parametrize("gate", SLOT_GATES, ids=lambda g: f"{g.kind}{g.qubits}")
    def test_matches_kraus_closed_form(self, gate, device):
        params = SLOT_DEVICES[device]
        assert np.abs(_slot_superoperator(gate, params) - kraus_slot_map(gate, params)).max() < 1e-14

    @pytest.mark.parametrize("arity", [1, 2])
    def test_depolarizing_kraus_weights(self, arity):
        # without relaxation a driven slot of the identity is the
        # depolarising Kraus sum: sqrt(1 - (4^k - 1) p / 4^k) I, then
        # sqrt(p / 4^k) P per Pauli
        p, d = 0.3, 2**arity
        gate = GateSpec("RX", (0,), theta=0.0) if arity == 1 else GateSpec("CR", (0, 1), theta=0.0)
        ops = [math.sqrt(1 - (d * d - 1) * p / (d * d)) * np.eye(d)]
        ops += [math.sqrt(p / (d * d)) * pauli for pauli in depolarizing_paulis(arity)]
        got = _slot_superoperator(gate, replace(NOISELESS, p_1q=p, p_2q=p))
        assert np.abs(got - superoperator(ops)).max() < 1e-14

    def test_bloch_contraction(self):
        p = 0.37
        sup = _slot_superoperator(GateSpec("RX", (0,), theta=0.0), replace(NOISELESS, p_1q=p))
        for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
            out = apply_superoperator(0.5 * (I2 + 0.6 * pauli), sup, (0,))
            coeff = np.real(np.trace(out @ pauli))
            assert coeff == pytest.approx(0.6 * (1 - p), abs=1e-12)

    def test_two_qubit_contraction(self):
        # each of the 15 Pauli coefficients contracts by 1 - p, alone
        p = 0.2
        sup = _slot_superoperator(GateSpec("CR", (0, 1), theta=0.0), replace(NOISELESS, p_2q=p))
        paulis = depolarizing_paulis(2)
        for i, pauli in enumerate(paulis):
            out = apply_superoperator(np.eye(4, dtype=complex) / 4 + 0.1 * pauli, sup, (0, 1))
            want = np.where(np.arange(len(paulis)) == i, 0.1 * (1 - p), 0.0)
            assert np.abs(_pauli_coefficients(out, paulis) - want).max() < 1e-12

    def test_relaxation_half_life(self):
        # T1 = 1 / ln 2 and T2 = 2 T1: one second of idling halves |1>
        t1 = 1 / math.log(2)
        params = replace(NOISELESS, qubits=(QubitParams(t1_s=t1, t2_s=2 * t1, p_readout=0.0),))
        sup = _slot_superoperator(GateSpec("IDLE", (0,), duration=1.0), params)
        out = apply_superoperator(np.diag([0.0, 1.0]).astype(complex), sup, (0,))
        assert np.allclose(out, np.diag([0.5, 0.5]), atol=1e-12)

    def test_identity_at_zero_time(self):
        sup = _slot_superoperator(GateSpec("IDLE", (0,), duration=0.0), DEVICE)
        assert np.array_equal(sup, np.eye(4))

    @pytest.mark.parametrize("gate", [GateSpec("X", (0,)), GateSpec("CNOT", (0, 1))])
    def test_finite_at_tiny_t1(self, gate):
        # T1 = T2 = 1e-300 s over a 35 or 300 ns slot: eps^2 near 1e293 is
        # finite, so both density back-ends still build finite maps
        qubit = QubitParams(t1_s=1e-300, t2_s=1e-300, p_readout=0.0)
        params = replace(DEVICE, qubits=(qubit, qubit))
        assert np.all(np.isfinite(_slot_superoperator(gate, params)))
        assert np.all(np.isfinite(_lindblad_slot_map(gate, params)))


class TestApplyChannel:
    def test_identity_channel(self):
        rho = np.diag([0.2, 0.3, 0.4, 0.1]).astype(complex)
        out = apply_channel(rho, bitflip_kraus(0.0), (1,))
        assert np.allclose(out, rho)

    def test_full_bitflip_on_q0(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |00><00|
        out = apply_channel(rho, bitflip_kraus(1.0), (0,))
        assert out[2, 2] == pytest.approx(1.0)  # -> |10><10|

    def test_trace_preserved(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        out = apply_channel(rho, relaxation_kraus(1.0, 2.0, 0.3), (1,))
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("qubits", [(0,), (2,), (0, 2), (2, 1)])
    def test_matches_embedded_kraus_operators(self, qubits):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = m @ m.conj().T
        ops = relaxation_kraus(1.0, 2.0, 0.3) if len(qubits) == 1 else depolarizing_kraus(0.3, 2)
        got = apply_channel(rho, ops, qubits)
        assert np.abs(got - embedded_channel(rho, ops, qubits)).max() < 1e-12

    def test_embed_matches_kron_for_ordered_qubits(self):
        op = np.arange(4, dtype=complex).reshape(2, 2)
        assert np.allclose(embed_operator(op, 2, (0,)), kron(op, I2))
        assert np.allclose(embed_operator(op, 2, (1,)), kron(I2, op))

    def test_embed_reversed_two_qubit(self):
        cnot = np.eye(4, dtype=complex)
        cnot[2:, 2:] = PAULI_X
        # control on q1: |01> (index 1) -> |11> (index 3)
        full = embed_operator(cnot, 2, (1, 0))
        v = np.zeros(4)
        v[1] = 1.0
        assert np.argmax(np.abs(full @ v)) == 3


class TestRunChannelSim:
    def test_empty_circuit(self):
        circ = parse_circuit({"n_qubits": 1, "ops": [], "measure": []})
        series = run_channel_sim(schedule_layers(circ, DEVICE), ())
        assert series == []

    def test_noiseless_x_flips(self):
        circ = parse_circuit({"n_qubits": 1, "ops": [{"gate": "X", "q": [0]}], "measure": []})
        sched = schedule_layers(circ, NOISELESS)
        series = run_channel_sim(sched, every_layer(sched))
        assert series[-1][1, 1].real == pytest.approx(1.0, abs=1e-12)

    def test_trace_and_hermiticity_preserved(self):
        ops = [{"gate": "X", "q": [0]}, {"gate": "CNOT", "q": [0, 1]}, {"gate": "SX", "q": [1]}]
        circ = parse_circuit({"n_qubits": 2, "ops": ops * 5, "measure": []})
        sched = schedule_layers(circ, DEVICE)
        series = run_channel_sim(sched, every_layer(sched))
        for rho in series:
            assert abs(np.trace(rho).real - 1.0) < 1e-9
            assert np.abs(rho - dagger(rho)).max() < 1e-10

    def test_repeated_x_approaches_maximally_mixed(self):
        hot = DeviceParams(
            qubits=(QubitParams(t1_s=100e-6, t2_s=80e-6, p_readout=0.0),),
            t_1q_s=35e-9,
            t_2q_s=300e-9,
            p_1q=5e-3,
            p_2q=0.0,
        )
        ops = [{"gate": "X", "q": [0]}] * 2000
        circ = parse_circuit({"n_qubits": 1, "ops": ops, "measure": []})
        sched = schedule_layers(circ, hot)
        series = run_channel_sim(sched, every_layer(sched))
        rho00 = np.array([np.real(r[0, 0]) for r in series])
        assert abs(rho00[-1] - 0.5) < 0.01
        # even-gate-count envelope decays towards 0.5 monotonically
        even = rho00[1::2]
        assert np.all(np.diff(even) < 1e-9)

    @pytest.mark.parametrize(
        "ops",
        [
            [{"gate": "X", "q": [0]}, {"gate": "CNOT", "q": [0, 1]}, {"gate": "SX", "q": [1]}] * 3,
            [
                {"gate": "SX", "q": [2]},
                {"gate": "CR", "q": [2, 0], "theta": 0.8, "phi": 0.2},
                {"gate": "RX", "q": [1], "theta": 1.1},
                {"gate": "IDLE", "q": [1], "duration_s": 50e-9},
                {"gate": "RZ", "q": [0], "phi": 0.6},
                {"gate": "CNOT", "q": [1, 0]},
                {"gate": "SX", "q": [2]},
            ],
        ],
    )
    def test_matches_full_register_oracle(self, ops):
        device = DeviceParams(
            qubits=DEVICE.qubits + DEVICE.qubits[:1], t_1q_s=35e-9, t_2q_s=300e-9, p_1q=5e-3, p_2q=0.04
        )
        sched = schedule_layers(parse_circuit({"n_qubits": 3, "ops": ops, "measure": []}), device)
        got = run_channel_sim(sched, every_layer(sched))
        want = full_register_channel_sim(sched, device)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert np.abs(a - b).max() < 1e-12

    def test_checkpoints_select_layers(self):
        ops = [{"gate": "SX", "q": [0]}, {"gate": "CNOT", "q": [0, 1]}, {"gate": "X", "q": [1]}]
        sched = schedule_layers(parse_circuit({"n_qubits": 2, "ops": ops, "measure": []}), DEVICE)
        every = run_channel_sim(sched, every_layer(sched))
        initial = np.zeros((4, 4), dtype=complex)
        initial[0, 0] = 1.0
        picked = run_channel_sim(sched, (0, 3, 1))
        assert np.array_equal(picked[0], initial)
        assert np.array_equal(picked[1], every[2]) and np.array_equal(picked[2], every[0])
