import math
import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from noisygates import lindblad
from noisygates.channels import apply_channel, embed_operator
from noisygates.engine import Circuit, expand_cnots, parse_circuit, schedule_layers
from noisygates.experiments import (
    ExperimentConfig,
    _channel_checkpoint_probs,
    _lindblad_slot_map,
    _readout_distribution,
    build_experiment_circuit,
    channel_backend_run,
    checkpoint_gate_counts,
    lindblad_reference,
    run_compare,
)
from noisygates.gates import MAX_THETA, GateSpec, NoisyGateSampler, drive_generator, ideal_unitary
from noisygates.linalg import DECAY, PAULI_X, PAULI_Y, PAULI_Z, dagger
from noisygates.noise_model import (
    DeviceParams,
    LindbladTerm,
    QubitParams,
    depolarizing_paulis,
    noise_context_for_gate,
)
from test_channels import bitflip_channel

DESK = DeviceParams(
    qubits=(
        QubitParams(t1_s=100e-6, t2_s=80e-6, p_readout=0.02),
        QubitParams(t1_s=90e-6, t2_s=70e-6, p_readout=0.025),
    ),
    t_1q_s=35e-9,
    t_2q_s=300e-9,
    p_1q=5e-4,
    p_2q=0.04,
)


DESK_3Q = replace(DESK, qubits=DESK.qubits + DESK.qubits[:1])


def small_config(experiment="repeat_x", **kw):
    defaults = dict(
        experiment=experiment,
        device=DESK,
        repetitions=40,
        checkpoints=8,
        shots=512,
        runs=3,
        seed=5,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class TestCheckpoints:
    def test_even_spacing(self):
        assert checkpoint_gate_counts(500, 50) == tuple(range(10, 501, 10))

    def test_end_included(self):
        counts = checkpoint_gate_counts(97, 10)
        assert counts[-1] == 97

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(checkpoints=100, repetitions=40)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            small_config(seed=-1)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("repetitions", 0, "repetitions must be >= 1, got 0"),
            ("repetitions", 40.0, "repetitions must be an int, got 40.0"),
            ("checkpoints", 0, "checkpoints must be >= 1, got 0"),
            ("checkpoints", True, "checkpoints must be an int, got True"),
            ("shots", 0, "shots must be >= 1, got 0"),
            ("shots", 2.5, "shots must be an int, got 2.5"),
            ("shots", True, "shots must be an int, got True"),
            ("runs", 0, "runs must be >= 1, got 0"),
            ("runs", 1.5, "runs must be an int, got 1.5"),
            ("seed", 1.5, "seed must be an int, got 1.5"),
            ("seed", False, "seed must be an int, got False"),
            ("parallel", 0, "parallel must be >= 1, got 0"),
            ("parallel", -3, "parallel must be >= 1, got -3"),
            ("parallel", None, "parallel must be an int, got None"),
        ],
    )
    def test_every_int_field_checked(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config(**{field: value})

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("estimator", "weigthed", "unknown estimator 'weigthed'; choose one of weighted, unweighted"),
            ("cnot_mode", "decompose", "unknown cnot_mode 'decompose'; choose one of direct, decomposed"),
        ],
    )
    def test_unknown_estimator_or_cnot_mode_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            small_config("repeat_cnot", **{field: value})


class TestCircuitBuilders:
    def test_repeat_x_shape(self):
        circ, layers, counts = build_experiment_circuit(small_config())
        assert circ.n_qubits == 1
        assert circ.n_layers == 40
        assert layers == counts

    def test_repeat_cr_has_prep(self):
        circ, layers, counts = build_experiment_circuit(small_config("repeat_cr"))
        assert circ.n_qubits == 2
        assert circ.layers[0][0].kind == "X"
        assert layers[0] == counts[0] + 1

    def test_repeat_cnot_measured(self):
        circ, _, _ = build_experiment_circuit(small_config("repeat_cnot"))
        assert circ.measured == (0, 1)

    def test_decomposed_cnot_layers(self):
        cfg = small_config("repeat_cnot", cnot_mode="decomposed")
        circ, layers, counts = build_experiment_circuit(cfg)
        assert layers[-1] == 1 + 2 * counts[-1]


def hand_built_experiment(config: ExperimentConfig) -> tuple[Circuit, tuple[int, ...]]:
    """Oracle for build_experiment_circuit: each stock experiment laid out
    by hand, one gate per layer, with its checkpoint layers counted by
    hand (a decomposed CNOT takes two layers: CR, then SX beside RZ)."""
    counts = checkpoint_gate_counts(config.repetitions, config.checkpoints)
    if config.experiment == "repeat_x":
        return Circuit(1, tuple((GateSpec("X", (0,)),) for _ in range(config.repetitions))), counts
    prep = GateSpec("X", (0,))
    if config.experiment == "repeat_cr":
        body = [GateSpec("CR", (0, 1), theta=math.pi, phi=0.0) for _ in range(config.repetitions)]
        return Circuit(2, tuple([(prep,)] + [(g,) for g in body])), tuple(1 + c for c in counts)
    body = [GateSpec("CNOT", (0, 1)) for _ in range(config.repetitions)]
    circ = Circuit(2, tuple([(prep,)] + [(g,) for g in body]), measured=(0, 1))
    if config.cnot_mode == "decomposed":
        return expand_cnots(circ), tuple(1 + 2 * c for c in counts)
    return circ, tuple(1 + c for c in counts)


@pytest.mark.parametrize(
    "experiment, cnot_mode, repetitions, checkpoints",
    [
        (experiment, cnot_mode, repetitions, checkpoints)
        for experiment, cnot_mode in [
            ("repeat_x", "direct"), ("repeat_cr", "direct"), ("repeat_cnot", "direct"), ("repeat_cnot", "decomposed")
        ]
        for repetitions in (1, 2, 7, 100, 500)
        for checkpoints in (1, 3, 50)
        if checkpoints <= repetitions
    ],
)
def test_stock_layouts_match_the_hand_built_ones(experiment, cnot_mode, repetitions, checkpoints):
    cfg = small_config(experiment, cnot_mode=cnot_mode, repetitions=repetitions, checkpoints=checkpoints)
    circ, layers, counts = build_experiment_circuit(cfg)
    assert counts == checkpoint_gate_counts(repetitions, checkpoints)
    assert (circ, layers) == hand_built_experiment(cfg)


class TestLindbladReference:
    def test_prep_reaches_one_zero(self):
        cfg = small_config("repeat_cr", repetitions=2, checkpoints=1)
        circ, _, _ = build_experiment_circuit(cfg)
        sched = schedule_layers(circ, DESK)
        dists, rhos = lindblad_reference(sched, (1,))
        # after the prep X the register sits in |10> up to gate noise
        assert dists[0][2] > 0.99

    def test_measured_experiment_includes_readout_noise(self):
        cfg = small_config("repeat_cnot", repetitions=2, checkpoints=1)
        circ, layers, _ = build_experiment_circuit(cfg)
        sched = schedule_layers(circ, DESK)
        dists, _ = lindblad_reference(sched, (1,))
        bare = schedule_layers(
            build_experiment_circuit(small_config("repeat_cr", repetitions=2, checkpoints=1))[0], DESK
        )
        bare_dists, _ = lindblad_reference(bare, (1,))
        # readout bitflips pull weight off the |10> peak
        assert dists[0][2] < bare_dists[0][2]


# SX then RZ frames (zero-duration slots beside driven gates and alone),
# single-use layers and a CNOT repeated often enough to be mapped whole
FRAMED_CIRCUIT = {
    "n_qubits": 2,
    "ops": [
        {"gate": "SX", "q": [0]},
        {"gate": "RZ", "q": [1], "phi": 0.7},
        {"gate": "X", "q": [1]},
        {"gate": "CNOT", "q": [0, 1]},
        {"gate": "CNOT", "q": [0, 1]},
        {"gate": "RZ", "q": [0], "phi": -1.1},
        {"gate": "CNOT", "q": [0, 1]},
        {"gate": "CNOT", "q": [0, 1]},
        {"gate": "SX", "q": [1]},
        {"gate": "RZ", "q": [1], "phi": 2.3},
    ],
    "measure": [0, 1],
}


def reference_cases():
    for experiment, reps in (("repeat_x", 500), ("repeat_cnot", 100)):
        cfg = small_config(experiment, repetitions=reps, checkpoints=50)
        yield experiment, schedule_layers(build_experiment_circuit(cfg)[0], DESK)
    yield "framed", schedule_layers(parse_circuit(FRAMED_CIRCUIT), DESK)


class TestLindbladReferenceCache:
    @pytest.mark.parametrize("case", ["repeat_x", "repeat_cnot", "framed"])
    def test_matches_exact_slot_oracle_with_one_build_per_slot(self, case, monkeypatch):
        sched = dict(reference_cases())[case]
        builds = []
        rhs = lindblad.rhs_superoperator

        def counting_rhs(h, terms):
            builds.append(h)
            return rhs(h, terms)

        monkeypatch.setattr("noisygates.experiments.rhs_superoperator", counting_rhs)
        layers = tuple(range(len(sched.layers) + 1))
        _, rhos = lindblad_reference(sched, layers)
        monkeypatch.undo()

        timed = {g for layer in sched.layers for g in layer.gates if g.kind != "RZ" and g.duration}
        assert len(builds) == len(timed)
        for got, want in zip(rhos, exact_slot_reference(sched)):
            assert np.abs(got - want).max() < 1e-11
        layer_ends = np.cumsum([0.0] + [layer.duration for layer in sched.layers])
        assert np.array_equal(sched.checkpoint_times(layers), layer_ends)
        if case == "repeat_cnot":
            # the prep X, its idle pad and the CNOT: three slots in two layers
            assert len(timed) == 3
        if case == "framed":
            assert any(g.kind == "RZ" for layer in sched.layers for g in layer.gates)


def per_second(terms, duration):
    """``terms`` of one slot of ``duration`` restated in physical time:
    amplitude epsilon / sqrt(T), so rhs_superoperator runs each at its
    rate epsilon^2 / T in 1/s."""
    return [replace(t, epsilon=t.epsilon / math.sqrt(duration)) for t in terms]


def exact_slot_reference(sched):
    """Oracle for lindblad_reference: each slot's drive and
    ``noise_context_for_gate`` terms embedded on the full register and
    evolved in physical time over the slot's duration by the exact
    exponential of their superoperator, slot after slot; zero-duration
    slots apply their unitary.  Returns rho after every layer, initial
    state first."""
    n = sched.n_qubits
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[0, 0] = 1.0
    states = [rho]
    for layer in sched.layers:
        for g in layer.gates:
            ctx = noise_context_for_gate(g, sched.params)
            if ctx.gate_duration == 0.0:
                u = embed_operator(ideal_unitary(g), n, g.qubits)
                rho = u @ rho @ dagger(u)
                continue
            h = embed_operator(drive_generator(g), n, g.qubits) / ctx.gate_duration
            terms = [replace(t, operator=embed_operator(t.operator, n, g.qubits)) for t in ctx.terms]
            m = lindblad.rhs_superoperator(h, per_second(terms, ctx.gate_duration))
            rho = (expm(m * ctx.gate_duration) @ rho.reshape(-1)).reshape(rho.shape)
        states.append(rho)
    return states


# CR in both qubit orders, RX, a user IDLE shorter than its layer and RZ
# frames on three qubits
SLOT_CIRCUIT = {
    "n_qubits": 3,
    "ops": [
        {"gate": "SX", "q": [0]},
        {"gate": "RX", "q": [2], "theta": 0.9, "phi": 0.3},
        {"gate": "CR", "q": [1, 0], "theta": 1.3, "phi": -0.4},
        {"gate": "IDLE", "q": [2], "duration_s": 120e-9},
        {"gate": "RZ", "q": [1], "phi": 0.8},
        {"gate": "CR", "q": [0, 2], "theta": -0.7},
        {"gate": "SX", "q": [1]},
        {"gate": "CNOT", "q": [2, 1]},
    ],
    "measure": [1, 2],
}


def ghz(n):
    device = replace(DESK, qubits=tuple(DESK.qubits[q % 2] for q in range(n)))
    ops = [{"gate": "SX", "q": [0]}] + [{"gate": "CNOT", "q": [q, q + 1]} for q in range(n - 1)]
    return schedule_layers(parse_circuit({"n_qubits": n, "ops": ops, "measure": list(range(n))}), device)


class TestExactSlotOracle:
    @pytest.mark.parametrize("case", ["repeat_cnot", "framed", "slots", "ghz4"])
    def test_reference_matches_exact_exponentials(self, case):
        if case == "slots":
            sched = schedule_layers(parse_circuit(SLOT_CIRCUIT), DESK_3Q)
        elif case == "ghz4":
            sched = ghz(4)
        else:
            sched = dict(reference_cases())[case]
        layers = tuple(range(len(sched.layers) + 1))
        _, rhos = lindblad_reference(sched, layers)
        for got, want in zip(rhos, exact_slot_reference(sched)):
            assert np.abs(got - want).max() < 1e-12


class TestSlotMaps:
    """Each slot map is the exact exponential of its generator: within
    1e-12 of scipy's exp(T L) in physical time, however large the rotation
    or the decay of the slot."""

    @pytest.mark.parametrize(
        "gate",
        [
            GateSpec("X", (0,)),
            GateSpec("SX", (1,)),
            GateSpec("CR", (0, 1), theta=math.pi),
            GateSpec("CNOT", (1, 0)),
            GateSpec("RX", (0,), theta=40.0, phi=0.3),
        ],
        ids=["x", "sx", "cr", "cnot", "rx_theta_40"],
    )
    def test_matches_scipy(self, gate):
        ctx = noise_context_for_gate(gate, DESK)
        t = ctx.gate_duration
        m = lindblad.rhs_superoperator(drive_generator(gate) / t, per_second(ctx.terms, t))
        assert np.abs(_lindblad_slot_map(gate, DESK) - expm(m * t)).max() < 1e-12

    @pytest.mark.parametrize(
        "theta, bound", [(40.0, 2e-14), (1e4, 5e-12), (MAX_THETA, 1.5e-10)], ids=["40", "1e4", "max_theta"]
    )
    def test_rx_matches_60_digit_exponential(self, theta, bound):
        # measured 2.2e-15, 5.9e-13 and 1.5e-11 of the largest entry
        mpmath = pytest.importorskip("mpmath")
        gate = GateSpec("RX", (0,), theta=theta)
        m = lindblad.rhs_superoperator(drive_generator(gate), noise_context_for_gate(gate, DESK).terms)
        with mpmath.workdps(60):
            exact = mpmath.expm(mpmath.matrix(m.tolist()))
            want = np.array(exact.tolist(), dtype=complex)
        assert np.abs(_lindblad_slot_map(gate, DESK) - want).max() <= bound * np.abs(want).max()

    def test_idle_of_1e300_s_is_full_decay(self):
        # |0><0| stays, |1><1| decays into it and every coherence is gone;
        # scipy's expm returns NaN here
        got = _lindblad_slot_map(GateSpec("IDLE", (0,), duration=1e300), DESK)
        want = np.zeros((4, 4))
        want[0, 0] = want[0, 3] = 1.0
        assert np.abs(got - want).max() < 1e-12


def hand_relaxation(n):
    """Relaxation terms of every qubit of DESK_3Q, written out."""
    terms = []
    for q in range(n):
        t1, t2 = DESK_3Q.qubits[q].t1_s, DESK_3Q.qubits[q].t2_s
        terms.append(LindbladTerm.from_rate(embed_operator(DECAY, n, (q,)), 1 / t1, 1.0))
        terms.append(LindbladTerm.from_rate(embed_operator(PAULI_Z, n, (q,)), (2 / t2 - 1 / t1) / 4, 1.0))
    return terms


def hand_cnot(n):
    """Drive (1/s) and 15-Pauli depolarising terms of a CNOT on qubits 0, 1."""
    t = DESK_3Q.t_2q_s
    rate = -math.log(1 - DESK_3Q.p_2q) / (16 * t)
    h = embed_operator(drive_generator(GateSpec("CNOT", (0, 1))), n, (0, 1)) / t
    return h, [LindbladTerm.from_rate(embed_operator(p, n, (0, 1)), rate, 1.0) for p in depolarizing_paulis(2)]


def propagate(rho, segments):
    """rho through (hamiltonian, terms, duration) segments by the exact
    exponential of each segment's superoperator."""
    for h, terms, duration in segments:
        m = lindblad.rhs_superoperator(h, terms)
        rho = (expm(m * duration) @ rho.reshape(-1)).reshape(rho.shape)
    return rho


def reference_after_first_layer(ops):
    """Lindblad reference after layers 1 and 2 of SX q0, SX q2 followed by
    ``ops`` on the three-qubit desk register."""
    doc = {"n_qubits": 3, "ops": [{"gate": "SX", "q": [0]}, {"gate": "SX", "q": [2]}] + ops}
    sched = schedule_layers(parse_circuit(doc), DESK_3Q)
    _, rhos = lindblad_reference(sched, (1, 2))
    return sched, rhos


class TestMixedLayers:
    def test_one_qubit_gate_beside_cnot_matches_hand_written_segments(self):
        sched, (rho1, rho2) = reference_after_first_layer(
            [{"gate": "CNOT", "q": [0, 1]}, {"gate": "X", "q": [2]}]
        )
        assert sched.layers[1].duration == DESK_3Q.t_2q_s
        n, t1q, t2q = 3, DESK_3Q.t_1q_s, DESK_3Q.t_2q_s
        h_cnot, cnot_terms = hand_cnot(n)
        h_x = embed_operator(drive_generator(GateSpec("X", (2,))), n, (2,)) / t1q
        rate = -math.log(1 - DESK_3Q.p_1q) / (4 * t1q)
        x_terms = [LindbladTerm.from_rate(embed_operator(p, n, (2,)), rate, 1.0) for p in (PAULI_X, PAULI_Y, PAULI_Z)]
        # the X runs beside the first t_1q of the CNOT, then qubit 2 idles
        want = propagate(
            rho1,
            [
                (h_cnot + h_x, hand_relaxation(n) + cnot_terms + x_terms, t1q),
                (h_cnot, hand_relaxation(n) + cnot_terms, t2q - t1q),
            ],
        )
        assert np.abs(rho2 - want).max() < 1e-12
        # leaving out the X lands far from the reference
        assert np.abs(rho2 - propagate(rho1, [(h_cnot, hand_relaxation(n) + cnot_terms, t2q)])).max() > 0.1

    def test_idle_shorter_than_its_layer_runs_before_its_pad(self):
        idle = 100e-9
        sched, (rho1, rho2) = reference_after_first_layer(
            [{"gate": "CNOT", "q": [0, 1]}, {"gate": "IDLE", "q": [2], "duration_s": idle}]
        )
        layer = sched.layers[1]
        assert [(g.kind, g.qubits) for g in layer.gates] == [("CNOT", (0, 1)), ("IDLE", (2,)), ("IDLE", (2,))]
        # back to back, the idle and its pad relax qubit 2 for the whole layer
        h_cnot, cnot_terms = hand_cnot(3)
        want = propagate(rho1, [(h_cnot, hand_relaxation(3) + cnot_terms, DESK_3Q.t_2q_s)])
        assert np.abs(rho2 - want).max() < 1e-12


class TestChannelBackend:
    def test_sampled_distribution_normalised(self):
        cfg = small_config()
        circ, layers, _ = build_experiment_circuit(cfg)
        sched = schedule_layers(circ, DESK)
        exact = _channel_checkpoint_probs(sched, layers)[0]
        dists = channel_backend_run(cfg, 0, exact)
        assert np.allclose(dists.sum(axis=1), 1.0)

    def test_run_index_varies_sampling(self):
        cfg = small_config()
        circ, layers, _ = build_experiment_circuit(cfg)
        sched = schedule_layers(circ, DESK)
        exact = _channel_checkpoint_probs(sched, layers)[0]
        a = channel_backend_run(cfg, 0, exact)
        b = channel_backend_run(cfg, 1, exact)
        assert not np.array_equal(a, b)


def full_state_readout(rho, scheduled):
    """Oracle for _readout_distribution: a bitflip channel on each
    measured qubit applied to the whole rho, then its diagonal."""
    for q in scheduled.measured:
        rho = apply_channel(rho, bitflip_channel(scheduled.params.qubits[q].p_readout), (q,))
    p = np.real(np.diag(rho)).clip(min=0.0)
    return p / p.sum()


class TestReadoutDistribution:
    PARAMS = replace(
        DESK_3Q,
        qubits=(
            QubitParams(t1_s=100e-6, t2_s=80e-6, p_readout=0.02),
            QubitParams(t1_s=90e-6, t2_s=70e-6, p_readout=0.11),
            QubitParams(t1_s=100e-6, t2_s=80e-6, p_readout=0.3),
        ),
    )

    @pytest.mark.parametrize("measured", [[2, 0], [1], [0, 2, 1], []])
    def test_matches_full_state_bitflips(self, measured):
        # a random mixed state on n = 3; the subset is listed out of order,
        # and the qubits left out must not be flipped
        circuit = parse_circuit({"n_qubits": 3, "ops": [], "measure": measured})
        scheduled = schedule_layers(circuit, self.PARAMS)
        gen = np.random.default_rng(11)
        a = gen.normal(size=(8, 8)) + 1j * gen.normal(size=(8, 8))
        rho = a @ dagger(a)
        rho /= np.trace(rho).real
        before = rho.copy()
        got = _readout_distribution(rho, scheduled)
        assert np.abs(got - full_state_readout(rho, scheduled)).max() < 1e-15
        assert np.array_equal(rho, before)

    def test_flip_of_a_basis_state(self):
        # |010> with qubit 1 flipped at 0.11: 0.89 on 010, 0.11 on 000
        circuit = parse_circuit({"n_qubits": 3, "ops": [], "measure": [1]})
        rho = np.zeros((8, 8), dtype=complex)
        rho[2, 2] = 1.0
        got = _readout_distribution(rho, schedule_layers(circuit, self.PARAMS))
        assert np.allclose(got, [0.11, 0, 0.89, 0, 0, 0, 0, 0], atol=1e-16)


class TestRunCompare:
    def test_shapes_and_determinism(self):
        cfg = small_config()
        a = run_compare(cfg)
        b = run_compare(cfg)
        n_cp = len(a.gate_counts)
        assert a.noisy_dists.shape == (cfg.runs, n_cp, 2)
        assert a.channel_dists.shape == (cfg.runs, n_cp, 2)
        assert a.h_noisy.shape == (cfg.runs, n_cp)
        assert np.array_equal(a.noisy_dists, b.noisy_dists)
        assert np.array_equal(a.h_channel, b.h_channel)
        assert a.improvement is not None

    def test_builds_each_sampler_once(self, monkeypatch):
        built = []
        init = NoisyGateSampler.__init__

        def counting_init(self, sched, ctx):
            built.append(sched)
            init(self, sched, ctx)

        monkeypatch.setattr(NoisyGateSampler, "__init__", counting_init)
        cfg = small_config("repeat_cnot", repetitions=6, checkpoints=2, shots=64, runs=3, backends=("noisy_gates",))
        run_compare(cfg, hellinger_series=False)
        assert len(built) == 2  # the prep X and the CNOT, shared by the three runs

    def test_backend_subset(self):
        cfg = small_config(backends=("lindblad",))
        result = run_compare(cfg)
        assert result.noisy_dists is None
        assert result.channel_dists is None
        assert result.improvement is None

    def test_reference_only_when_needed(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("lindblad reference computed")

        cfg = small_config(backends=("noisy_gates", "channel"))
        monkeypatch.setattr("noisygates.experiments.lindblad_reference", refuse)
        result = run_compare(cfg, hellinger_series=False)
        assert result.lindblad_dists is None and result.h_noisy is None
        assert result.noisy_dists.shape == (cfg.runs, len(result.gate_counts), 2)
        with pytest.raises(AssertionError, match="reference computed"):
            run_compare(cfg)
        monkeypatch.undo()
        full = run_compare(cfg)
        assert np.array_equal(full.times, result.times)
        assert np.array_equal(full.noisy_dists, result.noisy_dists)

    def test_unweighted_estimator(self):
        cfg = small_config(estimator="unweighted", shots=2048)
        result = run_compare(cfg)
        assert np.allclose(result.noisy_dists.sum(axis=2), 1.0)

    def test_decomposed_matches_direct_at_small_error(self):
        gentle = DeviceParams(
            qubits=(
                QubitParams(t1_s=500e-6, t2_s=400e-6, p_readout=0.0),
                QubitParams(t1_s=500e-6, t2_s=400e-6, p_readout=0.0),
            ),
            t_1q_s=35e-9,
            t_2q_s=300e-9,
            p_1q=1e-5,
            p_2q=1e-3,
        )
        dists = {}
        for mode in ("direct", "decomposed"):
            cfg = small_config(
                "repeat_cnot", device=gentle, repetitions=10, checkpoints=1,
                shots=8192, runs=1, cnot_mode=mode,
            )
            dists[mode] = run_compare(cfg).noisy_dists[0, -1]
        # different noise placements agree up to combined MC + O(p) error
        assert np.abs(dists["direct"] - dists["decomposed"]).max() < 0.02
