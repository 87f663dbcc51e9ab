import math

import numpy as np
import pytest

from noisygates.channels import (
    KrausChannel,
    apply_channel,
    depolarizing_channel,
    embed_operator,
    relaxation_channel,
    run_channel_sim,
)
from noisygates.engine import parse_circuit, schedule_layers
from noisygates.gates import ideal_unitary
from noisygates.linalg import I2, PAULI_X, PAULI_Y, PAULI_Z, dagger, kron
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


def bitflip_channel(p: float) -> KrausChannel:
    """rho -> (1-p) rho + p X rho X: the readout flip as a channel, for
    oracles (the back-ends flip outcome probabilities instead)."""
    return KrausChannel((math.sqrt(1 - p) * I2, math.sqrt(p) * PAULI_X))


def every_layer(scheduled):
    """Checkpoints after every layer of a scheduled circuit."""
    return range(1, len(scheduled.layers) + 1)


def whole(channel, rho):
    """``channel`` applied to every qubit of ``rho``."""
    return apply_channel(rho, channel, range(channel.dim.bit_length() - 1))


def embedded_channel(rho, channel, qubits):
    """Oracle for apply_channel: every Kraus operator embedded on the full
    register and applied as K rho K^dag."""
    n = int(round(math.log2(rho.shape[0])))
    out = np.zeros_like(rho)
    for op in channel.operators:
        full = embed_operator(op, n, qubits)
        out += full @ rho @ dagger(full)
    return out


def full_register_channel_sim(scheduled, params):
    """Oracle for run_channel_sim: per slot, in slot order, the embedded
    ideal unitary, then the slot_noise channels through
    embedded_channel; rho symmetrised after every layer.  Returns the
    state after every layer."""
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
                rho = embedded_channel(rho, depolarizing_channel(p, len(gate.qubits)), gate.qubits)
            for q, (gamma1, gamma_pd) in zip(gate.qubits, noise.relaxation):
                rho = embedded_channel(rho, relaxation_channel(gamma1, gamma_pd, noise.duration), (q,))
        rho = 0.5 * (rho + dagger(rho))
        series.append(rho.copy())
    return series


def completeness_defect(channel):
    total = sum(dagger(k) @ k for k in channel.operators)
    return np.abs(total - np.eye(channel.dim)).max()


class TestChannelConstructors:
    def test_bitflip_identity(self):
        ch = bitflip_channel(0.0)
        rho = np.array([[0.25, 0.1], [0.1, 0.75]], dtype=complex)
        assert np.allclose(whole(ch, rho), rho)

    def test_bitflip_half_mixes(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert np.allclose(whole(bitflip_channel(0.5), rho), np.eye(2) / 2)

    def test_depolarizing_full_strength(self):
        rho = np.array([[0.9, 0.2j], [-0.2j, 0.1]], dtype=complex)
        assert np.allclose(whole(depolarizing_channel(1.0, 1), rho), np.eye(2) / 2, atol=1e-12)
        rho2 = np.kron(rho, np.array([[0.3, 0.1], [0.1, 0.7]], dtype=complex))
        assert np.allclose(whole(depolarizing_channel(1.0, 2), rho2), np.eye(4) / 4, atol=1e-12)

    @pytest.mark.parametrize("arity", [1, 2])
    def test_depolarizing_kraus_weights(self, arity):
        # sqrt(1 - (4^k - 1) p / 4^k) I, then sqrt(p / 4^k) P per Pauli
        p, d = 0.3, 2**arity
        ops = depolarizing_channel(p, arity).operators
        assert len(ops) == d * d
        assert np.allclose(ops[0], math.sqrt(1 - (d * d - 1) * p / (d * d)) * np.eye(d), atol=1e-15)
        for op, pauli in zip(ops[1:], depolarizing_paulis(arity)):
            assert np.allclose(op, math.sqrt(p / (d * d)) * pauli, atol=1e-15)

    def test_depolarizing_bloch_contraction(self):
        p = 0.37
        ch = depolarizing_channel(p, 1)
        for pauli in (PAULI_X, PAULI_Y, PAULI_Z):
            rho = 0.5 * (I2 + 0.6 * pauli)
            out = whole(ch, rho)
            coeff = np.real(np.trace(out @ pauli))
            assert coeff == pytest.approx(0.6 * (1 - p), abs=1e-12)

    def test_two_qubit_contraction(self):
        # each of the 15 Pauli coefficients contracts by 1 - p, alone
        p = 0.2
        ch = depolarizing_channel(p, 2)
        paulis = depolarizing_paulis(2)
        for i, pauli in enumerate(paulis):
            out = whole(ch, np.eye(4, dtype=complex) / 4 + 0.1 * pauli)
            for j, other in enumerate(paulis):
                coeff = np.real(np.trace(out @ other)) / 4
                assert coeff == pytest.approx(0.1 * (1 - p) if i == j else 0.0, abs=1e-12)

    def test_relaxation_identity_at_zero_time(self):
        ch = relaxation_channel(1e4, 1.5e4, 0.0)
        rho = np.array([[0.3, 0.2], [0.2, 0.7]], dtype=complex)
        assert np.allclose(whole(ch, rho), rho)

    def test_relaxation_half_life(self):
        ch = relaxation_channel(math.log(2), 0.0, 1.0)
        rho = np.diag([0.0, 1.0]).astype(complex)
        assert np.allclose(whole(ch, rho), np.diag([0.5, 0.5]), atol=1e-12)

    @pytest.mark.parametrize(
        "channel",
        [
            bitflip_channel(0.3),
            depolarizing_channel(0.7, 1),
            depolarizing_channel(0.25, 2),
            relaxation_channel(2.0, 1.0, 0.8),
        ],
    )
    def test_completeness(self, channel):
        assert completeness_defect(channel) < 1e-12

    def test_incomplete_set_rejected(self):
        with pytest.raises(ValueError):
            KrausChannel((0.5 * I2,))


class TestApplyChannel:
    def test_identity_channel(self):
        rho = np.diag([0.2, 0.3, 0.4, 0.1]).astype(complex)
        out = apply_channel(rho, bitflip_channel(0.0), (1,))
        assert np.allclose(out, rho)

    def test_full_bitflip_on_q0(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0  # |00><00|
        out = apply_channel(rho, bitflip_channel(1.0), (0,))
        assert out[2, 2] == pytest.approx(1.0)  # -> |10><10|

    def test_trace_preserved(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        out = apply_channel(rho, relaxation_channel(1.0, 2.0, 0.3), (1,))
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("qubits", [(0,), (2,), (0, 2), (2, 1)])
    def test_matches_embedded_kraus_operators(self, qubits):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = m @ m.conj().T
        channel = relaxation_channel(1.0, 2.0, 0.3) if len(qubits) == 1 else depolarizing_channel(0.3, 2)
        got = apply_channel(rho, channel, qubits)
        assert np.abs(got - embedded_channel(rho, channel, qubits)).max() < 1e-12

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
