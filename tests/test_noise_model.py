import json
import math

import numpy as np
import pytest

from noisygates.channels import apply_channel
from noisygates.gates import GateSpec
from noisygates.lindblad import solve
from noisygates.linalg import DECAY, I2, PAULI_X, PAULI_Y, PAULI_Z, embed
from noisygates.noise_model import (
    CalibrationError,
    DeviceParams,
    LindbladTerm,
    QubitParams,
    SlotNoise,
    depolarizing_paulis,
    is_finite_number,
    load_calibration,
    noise_context_for_gate,
    relaxation_rates,
    slot_noise,
    spam_strength,
    split_slot_terms,
)
from test_channels import depolarizing_kraus

MINIMAL = {
    "qubits": [{"t1_s": 100e-6, "t2_s": 100e-6, "p_readout": 0.01}],
    "gates": {"t_1q_s": 35e-9, "t_2q_s": 300e-9, "p_1q": 1e-4, "p_2q": 1e-2},
}


class TestLoadCalibration:
    def test_minimal_document_loads(self):
        params = load_calibration(json.dumps(MINIMAL))
        assert params.n_qubits == 1
        assert params.qubits[0].t1_s == 100e-6

    @pytest.mark.parametrize("key", ["t1_s", "p_readout"])
    def test_integer_too_large_for_a_float_rejected(self, key):
        # json reads a 400-digit integer as an int, which has no float value
        doc = json.loads(json.dumps(MINIMAL))
        doc["qubits"][0][key] = json.loads("1" + "0" * 400)
        with pytest.raises(CalibrationError, match=f"key '{key}' in qubit 0 must be a finite number"):
            load_calibration(doc)

    def test_t2_exceeding_2t1_rejected(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["qubits"][0]["t2_s"] = 2.5 * doc["qubits"][0]["t1_s"]
        with pytest.raises(CalibrationError, match="T2 exceeds 2\\*T1"):
            load_calibration(doc)

    def test_missing_p_readout_rejected(self):
        doc = json.loads(json.dumps(MINIMAL))
        del doc["qubits"][0]["p_readout"]
        with pytest.raises(CalibrationError, match="p_readout"):
            load_calibration(doc)

    @pytest.mark.parametrize("p_readout", [0.5, 0.6, 1.0, -0.1])
    def test_p_readout_outside_spam_range_rejected(self, p_readout):
        # the pre-measurement noise strength -ln(1 - 2p)/2 needs p < 1/2
        doc = json.loads(json.dumps(MINIMAL))
        doc["qubits"][0]["p_readout"] = p_readout
        with pytest.raises(CalibrationError, match=r"p_readout out of \[0, 0.5\)"):
            load_calibration(doc)

    def test_p_readout_just_below_half_loads(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["qubits"][0]["p_readout"] = 0.4999
        assert spam_strength(load_calibration(doc).qubits[0].p_readout) > 0

    def test_unknown_keys_rejected(self):
        doc = json.loads(json.dumps(MINIMAL))
        doc["vendor"] = "x"
        with pytest.raises(CalibrationError, match="unknown"):
            load_calibration(doc)
        doc = json.loads(json.dumps(MINIMAL))
        doc["gates"]["t_3q_s"] = 1.0
        with pytest.raises(CalibrationError, match="unknown"):
            load_calibration(doc)

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "device.json"
        path.write_text(json.dumps(MINIMAL))
        assert load_calibration(path) == load_calibration(json.dumps(MINIMAL))


class TestRelaxationRates:
    def test_equal_times(self):
        g1, gpd = relaxation_rates(2.0, 2.0)
        assert g1 == pytest.approx(0.5)
        assert gpd == pytest.approx(0.5)  # (2T - T)/T^2 = 1/T

    def test_pure_amplitude_damping_boundary(self):
        _, gpd = relaxation_rates(1.0, 2.0)
        assert gpd == 0.0

    def test_typical_values(self):
        g1, gpd = relaxation_rates(100e-6, 80e-6)
        assert g1 == pytest.approx(1e4)
        assert gpd == pytest.approx(1.5e4)  # (120us)/(8000us^2)

    def test_t2_above_2t1_rejected(self):
        with pytest.raises(ValueError):
            relaxation_rates(1.0, 2.1)

    def test_infinite_t1(self):
        g1, gpd = relaxation_rates(math.inf, math.inf)
        assert (g1, gpd) == (0.0, 0.0)


PAULI_LABELS = {"I": I2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def pauli_word(word):
    """Kronecker product of the one-qubit Paulis named in ``word``."""
    out = np.ones((1, 1), dtype=complex)
    for c in word:
        out = np.kron(out, PAULI_LABELS[c])
    return out


def depolarising_terms(p, arity):
    """The depolarising terms of a driven ``arity``-qubit slot at error p,
    relaxation suppressed, from noise_context_for_gate."""
    quiet = QubitParams(t1_s=1e300, t2_s=1e300, p_readout=0.0)
    params = DeviceParams(qubits=(quiet,) * arity, t_1q_s=35e-9, t_2q_s=300e-9, p_1q=p, p_2q=p)
    gate = GateSpec("X", (0,)) if arity == 1 else GateSpec("CNOT", (0, 1))
    return noise_context_for_gate(gate, params).terms[2 * arity:]


class TestDepolarizingAmplitude:
    def test_zero_error(self):
        for arity in (1, 2):
            assert all(t.epsilon == 0.0 for t in depolarising_terms(0.0, arity))

    def test_closed_form_inverse(self):
        # eps^2 = -ln(1 - p)/4^k is 1 at p = 1 - e^(-4^k)
        for arity in (1, 2):
            for term in depolarising_terms(1 - math.exp(-(4**arity)), arity):
                assert term.epsilon**2 == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "arity, words",
        [(1, "X Y Z"), (2, "IX IY IZ XI XX XY XZ YI YX YY YZ ZI ZX ZY ZZ")],
    )
    def test_paulis_in_product_order(self, arity, words):
        paulis = depolarizing_paulis(arity)
        assert len(paulis) == 4**arity - 1
        for got, word in zip(paulis, words.split()):
            assert np.array_equal(got, pauli_word(word))

    @pytest.mark.parametrize("arity", [1, 2])
    def test_every_pauli_coefficient_contracts_by_one_minus_p(self, arity):
        # the Lindblad flow of the depolarising set over its slot is the
        # depolarising channel of the same arity
        p = 0.3
        terms = depolarising_terms(p, arity)
        assert [t.operator.tolist() for t in terms] == [op.tolist() for op in depolarizing_paulis(arity)]
        d = 2**arity
        rho0 = np.eye(d, dtype=complex) / d
        for k, pauli in enumerate(depolarizing_paulis(arity)):
            rho0 = rho0 + (0.1 - 0.01 * k) / d * pauli
        rho = solve(np.zeros((d, d)), terms, rho0, 400)
        for pauli in depolarizing_paulis(arity):
            before = np.real(np.trace(rho0 @ pauli))
            after = np.real(np.trace(rho @ pauli))
            assert after == pytest.approx((1 - p) * before, abs=1e-8)
        assert np.abs(rho - apply_channel(rho0, depolarizing_kraus(p, arity), range(arity))).max() < 1e-8

    def test_bloch_contraction_oracle(self):
        # one gate of X, Y, Z jumps at gamma_d = -ln(1 - p)/(4 T) shrinks
        # the Bloch vector by 1 - p
        p, duration = 0.3, 2.0
        gamma = -math.log(1 - p) / (4 * duration)
        rho0 = 0.5 * (np.eye(2) + 0.8 * PAULI_X + 0.1 * PAULI_Y - 0.3 * PAULI_Z)
        terms = tuple(LindbladTerm.from_rate(op, gamma, duration) for op in (PAULI_X, PAULI_Y, PAULI_Z))
        rho = solve(np.zeros((2, 2)), terms, rho0, 400)
        contracted = 0.5 * np.eye(2) + (1 - p) * (rho0 - 0.5 * np.eye(2))
        assert np.abs(rho - contracted).max() < 1e-6


class TestSpamStrength:
    def test_zero(self):
        assert spam_strength(0.0) == 0.0

    def test_quarter(self):
        assert spam_strength(0.25) == pytest.approx(math.log(2) / 2)

    def test_roundtrip(self):
        for p in (0.0, 0.1, 0.25, 0.4999):
            v = spam_strength(p)
            assert (1 - math.exp(-2 * v)) / 2 == pytest.approx(p, abs=1e-12)

    def test_half_rejected(self):
        with pytest.raises(ValueError):
            spam_strength(0.5)


class TestNoiseContext:
    def test_single_qubit_gate_has_five_terms(self):
        params = load_calibration(json.dumps(MINIMAL))
        ctx = noise_context_for_gate(GateSpec("X", (0,)), params)
        assert len(ctx.terms) == 5

    def test_epsilon_invariant(self):
        # eps^2 = gamma T for the rates gamma1, gamma_pd / 4 and
        # gamma_d = -ln(1 - p)/(4 T) of the module docstring
        params = load_calibration(json.dumps(MINIMAL))
        ctx = noise_context_for_gate(GateSpec("X", (0,)), params)
        gamma1, gamma_pd = relaxation_rates(100e-6, 100e-6)
        t = ctx.gate_duration
        rates = [gamma1, gamma_pd / 4] + [-math.log(1 - 1e-4) / (4 * t)] * 3
        assert [term.epsilon**2 for term in ctx.terms] == pytest.approx([r * t for r in rates], rel=1e-12)

    def test_zero_noise_limit(self):
        params = DeviceParams(
            qubits=(QubitParams(t1_s=math.inf, t2_s=math.inf, p_readout=0.0),),
            t_1q_s=35e-9,
            t_2q_s=300e-9,
            p_1q=0.0,
            p_2q=0.0,
        )
        ctx = noise_context_for_gate(GateSpec("X", (0,)), params)
        assert all(t.epsilon == 0.0 for t in ctx.terms)

    def test_x_terms_pinned(self):
        params = load_calibration(json.dumps(MINIMAL))
        ctx = noise_context_for_gate(GateSpec("X", (0,)), params)
        gamma1, gamma_pd = relaxation_rates(100e-6, 100e-6)
        t = 35e-9
        eps = math.sqrt(-math.log1p(-1e-4) / 4)
        want = [(DECAY, math.sqrt(gamma1 * t)), (PAULI_Z, math.sqrt(gamma_pd / 4 * t))]
        want += [(PAULI_X, eps), (PAULI_Y, eps), (PAULI_Z, eps)]
        assert ctx.gate_duration == t
        assert [term.epsilon for term in ctx.terms] == [e for _, e in want]
        for term, (op, _) in zip(ctx.terms, want):
            assert np.array_equal(term.operator, op)

    def test_cnot_terms_pinned(self):
        doc = dict(MINIMAL, qubits=[MINIMAL["qubits"][0], {"t1_s": 90e-6, "t2_s": 70e-6, "p_readout": 0.0}])
        ctx = noise_context_for_gate(GateSpec("CNOT", (0, 1)), load_calibration(json.dumps(doc)))
        (g1a, gpda), (g1b, gpdb) = relaxation_rates(100e-6, 100e-6), relaxation_rates(90e-6, 70e-6)
        t = 300e-9
        eps = math.sqrt(-math.log1p(-1e-2) / 16)
        want = [
            (np.kron(DECAY, I2), g1a), (np.kron(PAULI_Z, I2), gpda / 4),
            (np.kron(I2, DECAY), g1b), (np.kron(I2, PAULI_Z), gpdb / 4),
        ]
        want = [(op, math.sqrt(rate * t)) for op, rate in want]
        want += [(pauli_word(w), eps) for w in "IX IY IZ XI XX XY XZ YI YX YY YZ ZI ZX ZY ZZ".split()]
        assert ctx.gate_duration == t
        assert [term.epsilon for term in ctx.terms] == [e for _, e in want]
        for term, (op, _) in zip(ctx.terms, want):
            assert np.array_equal(term.operator, op)

    def test_depolarising_amplitude_reads_no_duration(self):
        # eps^2 = -ln(1 - p)/4^k at any duration, a subnormal one included,
        # where the rate -ln(1 - p)/(4^k T) overflows
        params = load_calibration(json.dumps(MINIMAL))
        for duration in (35e-9, 5e-324):
            ctx = noise_context_for_gate(GateSpec("X", (0,), duration=duration), params)
            for term in ctx.terms[2:]:
                assert term.epsilon == math.sqrt(-math.log1p(-1e-4) / 4)

    def test_rz_is_noiseless(self):
        params = load_calibration(json.dumps(MINIMAL))
        ctx = noise_context_for_gate(GateSpec("RZ", (0,), phi=0.3), params)
        assert ctx.terms == ()

    def test_two_qubit_context_matches_depolarizing_channel(self):
        # relaxation suppressed (huge T1/T2) so the 15-Pauli set is isolated
        params = DeviceParams(
            qubits=(
                QubitParams(t1_s=1e6, t2_s=1e6, p_readout=0.0),
                QubitParams(t1_s=1e6, t2_s=1e6, p_readout=0.0),
            ),
            t_1q_s=35e-9,
            t_2q_s=300e-9,
            p_1q=0.0,
            p_2q=0.04,
        )
        gate = GateSpec("CNOT", (0, 1)).with_duration(params.t_2q_s)
        ctx = noise_context_for_gate(gate, params)
        assert len(ctx.terms) == 19  # 2 x relaxation pair + 15 Pauli pairs
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[2, 2] = 1.0
        rho0 += 0.1 * np.kron(PAULI_X, PAULI_X)
        rho0 /= np.trace(rho0).real
        rho = solve(np.zeros((4, 4)), ctx.terms, rho0, 400)
        want = apply_channel(rho0, depolarizing_kraus(0.04, 2), (0, 1))
        assert np.abs(rho - want).max() < 2e-3

    def test_two_qubit_amplitude_closed_form(self):
        p = 0.04
        # 8 of the 15 Pauli pairs anticommute with any fixed non-identity
        # Pauli, so each coefficient decays at 16 eps^2 per slot; one slot
        # must contract by exactly 1 - p
        for term in depolarising_terms(p, 2):
            assert math.exp(-16 * term.epsilon**2) == pytest.approx(1 - p, abs=1e-12)


class TestSlotNoise:
    PARAMS = load_calibration(json.dumps(dict(MINIMAL, qubits=MINIMAL["qubits"] * 2)))

    def test_driven_slots_depolarise_at_their_arity(self):
        one = slot_noise(GateSpec("X", (1,)), self.PARAMS)
        two = slot_noise(GateSpec("CNOT", (0, 1)), self.PARAMS)
        assert (one.duration, one.p_depolarizing) == (35e-9, 1e-4)
        assert (two.duration, two.p_depolarizing) == (300e-9, 1e-2)
        assert one.relaxation == (relaxation_rates(100e-6, 100e-6),)
        assert two.relaxation == one.relaxation * 2

    def test_idle_slot_only_relaxes(self):
        noise = slot_noise(GateSpec("IDLE", (0,), duration=1e-6), self.PARAMS)
        assert noise.p_depolarizing is None
        assert noise.duration == 1e-6 and len(noise.relaxation) == 1
        assert len(noise_context_for_gate(GateSpec("IDLE", (0,), duration=1e-6), self.PARAMS).terms) == 2

    @pytest.mark.parametrize("gate", [GateSpec("RZ", (0,), phi=0.3), GateSpec("IDLE", (0,), duration=0.0)])
    def test_frames_and_zero_duration_slots_carry_nothing(self, gate):
        assert slot_noise(gate, self.PARAMS) == SlotNoise(0.0, (), None)

    @pytest.mark.parametrize(
        "gate, relaxation, depolarizing",
        [
            (GateSpec("X", (1,)), 2, 3),
            (GateSpec("CNOT", (1, 0)), 4, 15),
            (GateSpec("IDLE", (0,), duration=1e-6), 2, 0),
            (GateSpec("RZ", (0,), phi=0.3), 0, 0),
        ],
    )
    def test_split_slot_terms(self, gate, relaxation, depolarizing):
        ctx = noise_context_for_gate(gate, self.PARAMS)
        relax, dep = split_slot_terms(ctx)
        assert (len(relax), len(dep)) == (relaxation, depolarizing)
        assert relax + dep == ctx.terms
        # amplitude damping and pure dephasing on each qubit in turn
        ops = [embed(op, (pos,), len(gate.qubits)) for pos in range(len(gate.qubits)) for op in (DECAY, PAULI_Z)]
        assert all(np.array_equal(t.operator, op) for t, op in zip(relax, ops))

    @pytest.mark.parametrize("gate", [GateSpec("X", (1,)), GateSpec("CNOT", (0, 1)), GateSpec("IDLE", (1,), duration=1e300)])
    def test_overflowing_amplitude_names_the_qubit(self, gate):
        # T1 = T2 = 1e-300 s on qubit 1 and 1e300 s slots: the rates times
        # the duration overflow, while qubit 0's would not
        doc = dict(MINIMAL, qubits=[MINIMAL["qubits"][0], {"t1_s": 1e-300, "t2_s": 1e-300, "p_readout": 0.0}])
        params = load_calibration(dict(doc, gates=dict(MINIMAL["gates"], t_1q_s=1e300, t_2q_s=1e300)))
        with pytest.raises(ValueError, match="relaxation of qubit 1 over a 1e\\+300 s"):
            slot_noise(gate, params)
        assert slot_noise(GateSpec("IDLE", (0,), duration=1e300), params).duration == 1e300


@pytest.mark.parametrize(
    "val, finite",
    [(1, True), (-2.5, True), (10**300, True), (10**400, False), (-(10**400), False),
     (math.inf, False), (math.nan, False), (True, False), ("1", False), (None, False)],
)
def test_is_finite_number(val, finite):
    assert is_finite_number(val) is finite
