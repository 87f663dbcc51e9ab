import json
import math
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import noisygates
from noisygates import engine
from noisygates.channels import apply_channel, relaxation_channel
from noisygates.engine import (
    CHUNK_SHOTS,
    DENSE_DENSITY_MAX_QUBITS,
    MAX_QUBITS,
    PIECE_NORMALS,
    Circuit,
    CircuitError,
    RunConfig,
    _Compiled,
    _plan_passes,
    chunk_shots,
    decompose_cnot,
    expand_cnots,
    parse_circuit,
    run_shots,
    schedule_layers,
)
from noisygates.experiments import _channel_checkpoint_probs, lindblad_reference
from noisygates.gates import (
    GATE_KINDS,
    GateSpec,
    NoisyGateSampler,
    ideal_unitary,
    relaxation_gate_batch,
    relaxation_normals,
    schedule,
)
from noisygates.channels import embed_operator
from noisygates.linalg import apply_gate, expm, expm_2x2
from noisygates.noise_model import (
    DeviceParams,
    QubitParams,
    noise_context_for_gate,
    relaxation_rates,
    slot_noise,
    spam_strength,
)
from noisygates.stochastic import RngStream
from test_gates import draw_spam
from test_linalg import mul_2x2

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


class TestParseCircuit:
    def test_single_op(self):
        circ = parse_circuit({"n_qubits": 1, "ops": [{"gate": "X", "q": [0]}]})
        assert circ.n_layers == 1

    def test_asap_packing(self):
        doc = {"n_qubits": 2, "ops": [{"gate": "X", "q": [0]}, {"gate": "X", "q": [1]}]}
        circ = parse_circuit(doc)
        assert circ.n_layers == 1
        assert len(circ.layers[0]) == 2

    def test_dependent_ops_stack(self):
        doc = {
            "n_qubits": 2,
            "ops": [
                {"gate": "X", "q": [0]},
                {"gate": "CNOT", "q": [0, 1]},
                {"gate": "SX", "q": [1]},
            ],
        }
        circ = parse_circuit(doc)
        assert circ.n_layers == 3

    def test_cr_missing_theta(self):
        with pytest.raises(CircuitError, match="theta"):
            parse_circuit({"n_qubits": 2, "ops": [{"gate": "CR", "q": [0, 1]}]})

    @pytest.mark.parametrize("kind", ["H", ["X"], None])
    def test_unknown_gate(self, kind):
        with pytest.raises(CircuitError, match="unknown gate"):
            parse_circuit({"n_qubits": 1, "ops": [{"gate": kind, "q": [0]}]})

    def test_index_out_of_range(self):
        # the range is the register's rule, checked by Circuit alone
        for op in ({"gate": "X", "q": [1]}, {"gate": "CNOT", "q": [0, -1]}):
            message = f"qubit index {op['q'][-1]} out of range 0..0"
            with pytest.raises(CircuitError, match=message):
                parse_circuit({"n_qubits": 1, "ops": [op]})
            with pytest.raises(CircuitError, match=message):
                Circuit(1, ((spec_of(op),),))

    def test_unknown_op_key_rejected(self):
        with pytest.raises(CircuitError, match="unknown keys"):
            parse_circuit({"n_qubits": 1, "ops": [{"gate": "X", "q": [0], "label": "a"}]})

    def test_repeated_measured_qubit_rejected(self):
        with pytest.raises(CircuitError, match="measured qubit 1 listed twice"):
            parse_circuit({"n_qubits": 3, "ops": [], "measure": [2, 1, 0, 1]})

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"n_qubits": True, "ops": [{"gate": "X", "q": [0]}]}, "'n_qubits' must be a positive integer"),
            ({"n_qubits": 1, "ops": [{"gate": "X", "q": [False]}]}, "op 0: 'q' must be a list of ints"),
            ({"n_qubits": 2, "ops": [{"gate": "CNOT", "q": [False, True]}]}, "op 0: 'q' must be a list of ints"),
            ({"n_qubits": 1, "ops": [], "measure": [False]}, "'measure' must be a list of ints"),
        ],
        ids=["n_qubits", "q", "cnot_q", "measure"],
    )
    def test_json_booleans_are_not_integers(self, doc, message):
        with pytest.raises(CircuitError, match=message):
            parse_circuit(doc)

    def test_qubit_collision_in_layer(self):
        with pytest.raises(CircuitError, match="twice"):
            Circuit(2, ((GateSpec("X", (0,)), GateSpec("SX", (0,))),))

    @pytest.mark.parametrize(
        "op",
        [
            {"gate": "X", "q": [0], "duration_s": -3.5e-8},
            {"gate": "IDLE", "q": [0], "duration_s": -1e-9},
            {"gate": "RZ", "q": [0], "phi": 0.3, "duration_s": -1e-9},
        ],
    )
    def test_negative_duration_rejected(self, op):
        doc = {"n_qubits": 2, "ops": [{"gate": "SX", "q": [1]}, op]}
        with pytest.raises(CircuitError, match="op 1: 'duration_s' must be >= 0"):
            parse_circuit(doc)

    @pytest.mark.parametrize(
        "op",
        [
            {"gate": "X", "q": [0]},
            {"gate": "SX", "q": [0]},
            {"gate": "RX", "q": [0], "theta": 0.4},
            {"gate": "CR", "q": [0, 1], "theta": 0.4},
            {"gate": "CNOT", "q": [1, 0]},
        ],
    )
    def test_zero_duration_driven_gate_rejected(self, op):
        doc = {"n_qubits": 2, "ops": [{"gate": "SX", "q": [1]}, dict(op, duration_s=0)]}
        with pytest.raises(CircuitError, match=f"op 1: {op['gate']} is driven and needs a positive"):
            parse_circuit(doc)

    @pytest.mark.parametrize("value", ["35e-9", float("nan"), float("inf"), True])
    def test_non_numeric_duration_rejected(self, value):
        with pytest.raises(CircuitError, match="op 0: 'duration_s' must be a finite number"):
            parse_circuit({"n_qubits": 1, "ops": [{"gate": "X", "q": [0], "duration_s": value}]})

    @pytest.mark.parametrize(
        "op",
        [
            {"gate": "RZ", "q": [0], "theta": 0.7},
            {"gate": "X", "q": [0], "theta": 0.7},
            {"gate": "SX", "q": [0], "theta": 0.7},
            {"gate": "CNOT", "q": [0, 1], "theta": 0.7},
            {"gate": "IDLE", "q": [0], "theta": 0.7, "duration_s": 1e-8},
            {"gate": "CNOT", "q": [0, 1], "phi": 0.7},
            {"gate": "IDLE", "q": [0], "phi": 0.7, "duration_s": 1e-8},
        ],
    )
    def test_angle_the_gate_does_not_read_rejected(self, op):
        key = "theta" if "theta" in op else "phi"
        doc = {"n_qubits": 2, "ops": [{"gate": "SX", "q": [1]}, op]}
        with pytest.raises(CircuitError, match=f"op 1: {op['gate']} does not read '{key}'"):
            parse_circuit(doc)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("theta", "abc"),
            ("theta", "1.5"),
            ("theta", float("nan")),
            ("theta", float("inf")),
            ("theta", True),
            ("theta", None),
            ("theta", [1.0]),
            ("phi", "1.5"),
            ("phi", float("-inf")),
            ("phi", float("nan")),
            ("phi", False),
            ("phi", None),
        ],
    )
    def test_angle_not_a_finite_number_rejected(self, key, value):
        op = {"gate": "RX", "q": [0], "theta": 0.4, key: value}
        doc = {"n_qubits": 1, "ops": [{"gate": "SX", "q": [0]}, op]}
        with pytest.raises(CircuitError, match=f"op 1: '{key}' must be a finite number"):
            parse_circuit(doc)

    @pytest.mark.parametrize("text", ['"theta": NaN', '"theta": Infinity', '"phi": -Infinity'])
    def test_json_nan_and_infinity_angles_rejected(self, text):
        # Python's json reads these non-standard literals as floats
        doc = '{"n_qubits": 2, "ops": [{"gate": "CR", "q": [0, 1], "theta": 1.0, ' + text + "}]}"
        with pytest.raises(CircuitError, match="op 0: '(theta|phi)' must be a finite number"):
            parse_circuit(doc)

    def test_integer_angle_too_large_for_a_float_rejected(self):
        doc = '{"n_qubits": 1, "ops": [{"gate": "RX", "q": [0], "theta": 1' + "0" * 400 + "}]}"
        with pytest.raises(CircuitError, match="op 0: 'theta' must be a finite number"):
            parse_circuit(doc)

    def test_integer_angles_accepted(self):
        ops = [{"gate": "RX", "q": [0], "theta": 1, "phi": -2}, {"gate": "RZ", "q": [0], "phi": 3}]
        gates = [g for layer in parse_circuit({"n_qubits": 1, "ops": ops}).layers for g in layer]
        assert [(g.theta, g.phi) for g in gates] == [(1, -2.0), (None, 3.0)]

    def test_angles_the_gate_reads_accepted(self):
        ops = [
            {"gate": "RZ", "q": [0], "phi": 0.1},
            {"gate": "X", "q": [0], "phi": 0.2},
            {"gate": "SX", "q": [0], "phi": 0.3},
            {"gate": "RX", "q": [0], "theta": 0.4, "phi": 0.5},
            {"gate": "CR", "q": [0, 1], "theta": 0.6, "phi": 0.7},
        ]
        gates = [g for layer in parse_circuit({"n_qubits": 2, "ops": ops}).layers for g in layer]
        assert [(g.theta, g.phi) for g in gates] == [
            (None, 0.1), (None, 0.2), (None, 0.3), (0.4, 0.5), (0.6, 0.7)
        ]

    def test_zero_duration_idle_and_rz_accepted(self):
        doc = {
            "n_qubits": 1,
            "ops": [
                {"gate": "IDLE", "q": [0], "duration_s": 0},
                {"gate": "RZ", "q": [0], "phi": 1.0, "duration_s": 0},
            ],
        }
        assert [g.duration for layer in parse_circuit(doc).layers for g in layer] == [0, 0.0]


class TestScheduleLayers:
    def test_checkpoint_times_sum_left_to_right(self):
        # default and explicit durations, a zero-length RZ layer and a short IDLE
        ops = [
            {"gate": "X", "q": [0]},
            {"gate": "CNOT", "q": [0, 1]},
            {"gate": "IDLE", "q": [1], "duration_s": 1.1e-8},
            {"gate": "RZ", "q": [1], "phi": 0.3},
            {"gate": "SX", "q": [1], "duration_s": 3.3e-8},
            {"gate": "CR", "q": [1, 0], "theta": 0.5, "duration_s": 2.9e-7},
        ]
        sched = schedule_layers(parse_circuit({"n_qubits": 2, "ops": ops}), DESK)
        counts = tuple(range(len(sched.layers) + 1))
        want = [0.0]
        for layer in sched.layers:
            want.append(want[-1] + layer.duration)
        assert sched.checkpoint_times(counts).tolist() == want
        assert sched.checkpoint_times((3, 1)).tolist() == [want[3], want[1]]
        result = run_shots(sched, RunConfig(shots=4, checkpoints=counts))
        assert result.times.tolist() == want

    def test_single_qubit_no_idles(self):
        circ = parse_circuit({"n_qubits": 1, "ops": [{"gate": "X", "q": [0]}]})
        sched = schedule_layers(circ, DESK)
        assert len(sched.layers[0].gates) == 1

    def test_idle_fill(self):
        circ = parse_circuit({"n_qubits": 2, "ops": [{"gate": "X", "q": [0]}]})
        sched = schedule_layers(circ, DESK)
        kinds = [g.kind for g in sched.layers[0].gates]
        assert kinds == ["X", "IDLE"]
        idle = sched.layers[0].gates[1]
        assert idle.qubits == (1,)
        assert idle.duration == DESK.t_1q_s

    def test_cnot_layer_duration(self):
        circ = parse_circuit({"n_qubits": 2, "ops": [{"gate": "CNOT", "q": [0, 1]}]})
        sched = schedule_layers(circ, DESK)
        assert sched.layers[0].duration == DESK.t_2q_s

    def test_mixed_layer_pads_short_gate(self):
        doc = {"n_qubits": 2, "ops": [{"gate": "CNOT", "q": [0, 1]}]}
        circ = parse_circuit(doc)
        circ2 = Circuit(3, circ.layers + ((GateSpec("X", (2,)), GateSpec("CR", (0, 1), theta=1.0)),))
        sched = schedule_layers(circ2, DeviceParams(qubits=DESK.qubits + (DESK.qubits[0],), t_1q_s=DESK.t_1q_s, t_2q_s=DESK.t_2q_s, p_1q=DESK.p_1q, p_2q=DESK.p_2q))
        pads = [g for g in sched.layers[1].gates if g.kind == "IDLE"]
        assert len(pads) == 1
        assert pads[0].qubits == (2,)
        assert pads[0].duration == pytest.approx(DESK.t_2q_s - DESK.t_1q_s)


class TestDecomposeCnot:
    def test_ideal_composition(self):
        gate = GateSpec("CNOT", (0, 1))
        u = np.eye(4, dtype=complex)
        for g in decompose_cnot(gate):
            u = embed_operator(ideal_unitary(g), 2, g.qubits) @ u
        assert np.abs(u - ideal_unitary(gate)).max() < 1e-10

    def test_zero_noise_decomposed_run(self):
        doc = {
            "n_qubits": 2,
            "ops": [{"gate": "X", "q": [0]}, {"gate": "CNOT", "q": [0, 1]}],
            "measure": [],
        }
        circ = expand_cnots(parse_circuit(doc))
        sched = schedule_layers(circ, NOISELESS)
        result = run_shots(sched, RunConfig(shots=4, master_seed=0))
        assert result.distributions[-1][3] == pytest.approx(1.0, abs=1e-12)


# T1 = T2 = 1000 s and no gate or readout error: the three back-ends then
# describe the same ideal circuit (see test_zero_noise_agreement.py)
QUIET = DeviceParams(
    qubits=(QubitParams(t1_s=1000.0, t2_s=1000.0, p_readout=0.0),) * 2,
    t_1q_s=35e-9,
    t_2q_s=100e-9,
    p_1q=0.0,
    p_2q=0.0,
)


def table_op(kind: str, **extra) -> dict:
    """An op of ``kind`` on qubits 0, 1, ... with every angle the kind
    reads (IDLE with the duration it needs), updated by ``extra``."""
    spec = GATE_KINDS[kind]
    op = {"gate": kind, "q": list(range(spec.arity))}
    op.update((key, value) for key, value in (("theta", 0.7), ("phi", 0.3)) if key in spec.angles)
    if kind == "IDLE":
        op["duration_s"] = 5e-8
    op.update(extra)
    return op


def spec_of(op: dict) -> GateSpec:
    """The library GateSpec of an op document."""
    return GateSpec(
        op["gate"], tuple(op["q"]), theta=op.get("theta"), phi=op.get("phi", 0.0), duration=op.get("duration_s")
    )


def every_back_end(circuit: Circuit, params: DeviceParams, shots: int = 256) -> tuple[np.ndarray, ...]:
    """Distributions after every layer from the trajectory engine (and its
    density estimates), the exact channel simulator and the Lindblad
    reference."""
    sched = schedule_layers(circuit, params)
    layers = tuple(range(len(sched.layers) + 1))
    ensemble = run_shots(sched, RunConfig(shots=shots, master_seed=3, checkpoints=layers))
    channel = _channel_checkpoint_probs(sched, layers)[0]
    reference = lindblad_reference(sched, layers)[0]
    return ensemble.distributions, ensemble.densities, channel, reference


class TestGateTable:
    """``GATE_KINDS`` is the one list of gate kinds, and ``GateSpec`` checks
    every gate, parsed or built in the library, the same way."""

    def test_library_rz_without_duration_runs_on_every_back_end(self):
        rz = GateSpec("RZ", (0,), phi=0.3)
        assert rz.duration == 0.0
        library = Circuit(1, ((GateSpec("SX", (0,)),), (rz,), (GateSpec("SX", (0,)),)), measured=(0,))
        doc = {
            "n_qubits": 1,
            "ops": [{"gate": "SX", "q": [0]}, {"gate": "RZ", "q": [0], "phi": 0.3}, {"gate": "SX", "q": [0]}],
            "measure": [0],
        }
        parsed = parse_circuit(doc)
        assert parsed == library
        for got, want in zip(every_back_end(library, DESK), every_back_end(parsed, DESK)):
            assert np.array_equal(got, want)
        bare = schedule_layers(Circuit(1, ((rz,),)), DESK)
        assert bare.layers[0].duration == 0.0

    @pytest.mark.parametrize("kind", GATE_KINDS)
    def test_every_kind_builds_parses_and_runs(self, kind):
        op = table_op(kind)
        sx = {"gate": "SX", "q": [0]}
        parsed = parse_circuit({"n_qubits": 2, "ops": [sx, op, sx], "measure": [0, 1]})
        assert parsed.layers[1] == (spec_of(op),)
        dists, densities, channel, reference = every_back_end(parsed, QUIET, shots=4096)
        for got in (dists, channel):
            assert np.abs(got - reference).max() < 1e-6
        assert np.allclose(dists.sum(axis=1), 1.0)
        assert densities.shape == (len(dists), 4, 4)

    @pytest.mark.parametrize(
        "op, message",
        [(table_op(kind, duration_s=-1e-9), "'duration_s' must be >= 0, got -1e-09") for kind in GATE_KINDS]
        + [
            (table_op(kind, duration_s=0), f"{kind} is driven and needs a positive 'duration_s'")
            for kind, spec in GATE_KINDS.items()
            if spec.driven
        ]
        + [
            ({k: v for k, v in table_op(kind).items() if k != "theta"}, f"{kind} requires 'theta'")
            for kind, spec in GATE_KINDS.items()
            if "theta" in spec.angles
        ]
        + [
            (table_op(kind, **{key: value}), f"{key!r} must be a finite number, got {value!r}")
            for kind, key in (("X", "duration_s"), ("IDLE", "duration_s"), ("RX", "theta"), ("CR", "phi"))
            for value in (math.nan, math.inf, -math.inf, True)
        ]
        + [({k: v for k, v in table_op("IDLE").items() if k != "duration_s"}, "IDLE requires 'duration_s'")],
        ids=repr,
    )
    def test_gate_spec_rejects_with_the_parser_message(self, op, message):
        with pytest.raises(ValueError) as built:
            spec_of(op)
        assert str(built.value) == message
        with pytest.raises(CircuitError) as parsed:
            parse_circuit({"n_qubits": 2, "ops": [op]})
        assert str(parsed.value) == f"op 0: {message}"

    @pytest.mark.parametrize("kind", GATE_KINDS)
    def test_driven_flag_decides_depolarising_noise(self, kind):
        gate = spec_of(table_op(kind))
        assert gate.driven == GATE_KINDS[kind].driven
        assert (slot_noise(gate, DESK).p_depolarizing is not None) == gate.driven

    @pytest.mark.parametrize("duration", [None, 0, 0.0])
    def test_rz_duration_is_stored_as_zero(self, duration):
        gate = GateSpec("RZ", (0,), phi=0.3, duration=duration)
        assert gate.duration == 0.0 and isinstance(gate.duration, float)

    def test_rz_with_a_positive_duration_rejected(self):
        with pytest.raises(ValueError, match="RZ is virtual and has zero duration"):
            GateSpec("RZ", (0,), phi=0.3, duration=1e-8)


class TestRunTrajectory:
    """One trajectory is ``run_shots`` with ``shots=1``."""

    def test_noiseless_x(self):
        circ = parse_circuit({"n_qubits": 1, "ops": [{"gate": "X", "q": [0]}]})
        sched = schedule_layers(circ, NOISELESS)
        out = run_shots(sched, RunConfig(shots=1))
        assert out.mean_weight[-1] == pytest.approx(1.0, abs=1e-12)
        assert out.densities[-1][1, 1].real == pytest.approx(1.0, abs=1e-12)
        assert out.counts[-1].tolist() == [0, 1]

    def test_spam_only_measurement(self):
        # empty circuit, measured qubit with p_readout = 0.25
        device = DeviceParams(
            qubits=(QubitParams(t1_s=math.inf, t2_s=math.inf, p_readout=0.25),),
            t_1q_s=35e-9,
            t_2q_s=300e-9,
            p_1q=0.0,
            p_2q=0.0,
        )
        circ = parse_circuit({"n_qubits": 1, "ops": [], "measure": [0]})
        sched = schedule_layers(circ, device)
        result = run_shots(sched, RunConfig(shots=10_000, master_seed=1))
        freq = result.counts[-1][1] / 10_000
        assert abs(freq - 0.25) < 0.01


class TestRunShots:
    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            RunConfig(shots=1, master_seed=-3)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("shots", 0, "shots must be >= 1, got 0"),
            ("shots", 2.5, "shots must be an int, got 2.5"),
            ("shots", True, "shots must be an int, got True"),
            ("master_seed", 1.5, "master_seed must be an int, got 1.5"),
            ("master_seed", False, "master_seed must be an int, got False"),
            ("run_index", -1, "run_index must be >= 0, got -1"),
            ("run_index", 1.0, "run_index must be an int, got 1.0"),
            ("run_index", None, "run_index must be an int, got None"),
            ("checkpoints", (1.5,), "checkpoints must be None or a non-empty tuple of ints, got (1.5,)"),
            ("checkpoints", (True,), "checkpoints must be None or a non-empty tuple of ints, got (True,)"),
            ("checkpoints", (), "checkpoints must be None or a non-empty tuple of ints, got ()"),
            ("checkpoints", [1], "checkpoints must be None or a non-empty tuple of ints, got [1]"),
            (
                "checkpoints",
                (0, np.int64(1)),
                "checkpoints must be None or a non-empty tuple of ints, got (0, np.int64(1))",
            ),
        ],
    )
    def test_every_field_checked_at_construction(self, field, value, message):
        fields = {"shots": 4, "master_seed": 0, "run_index": 0, field: value}
        with pytest.raises(ValueError) as err:
            RunConfig(**fields)
        assert str(err.value) == message

    def test_large_ints_accepted(self):
        config = RunConfig(shots=1, master_seed=2**70, run_index=2**40)
        assert (config.shots, config.master_seed, config.run_index) == (1, 2**70, 2**40)

    def test_deterministic_across_calls(self):
        circ = parse_circuit({"n_qubits": 1, "ops": [{"gate": "X", "q": [0]}] * 20})
        sched = schedule_layers(circ, DESK)
        cfg = RunConfig(shots=2048, master_seed=3, checkpoints=(5, 10, 20))
        a = run_shots(sched, cfg)
        b = run_shots(sched, cfg)
        assert np.array_equal(a.distributions, b.distributions)
        assert np.array_equal(a.counts, b.counts)

    def test_run_index_changes_samples(self):
        circ = parse_circuit({"n_qubits": 1, "ops": [{"gate": "X", "q": [0]}] * 5})
        sched = schedule_layers(circ, DESK)
        a = run_shots(sched, RunConfig(shots=512, master_seed=3, run_index=0))
        b = run_shots(sched, RunConfig(shots=512, master_seed=3, run_index=1))
        assert not np.array_equal(a.distributions, b.distributions)

    def test_weights_exactly_one_without_noise(self):
        circ = parse_circuit({"n_qubits": 2, "ops": [{"gate": "CNOT", "q": [0, 1]}] * 3})
        sched = schedule_layers(circ, NOISELESS)
        result = run_shots(sched, RunConfig(shots=256, master_seed=0))
        assert result.mean_weight[-1] == pytest.approx(1.0, abs=1e-12)

    def test_zero_duration_idle_is_identity(self):
        # it carries no noise, as in the channel simulator and the reference
        doc = {"n_qubits": 1, "ops": [{"gate": "X", "q": [0]}, {"gate": "IDLE", "q": [0], "duration_s": 0.0}]}
        result = run_shots(schedule_layers(parse_circuit(doc), NOISELESS), RunConfig(shots=4))
        assert result.distributions[-1][1] == pytest.approx(1.0, abs=1e-12)

    def test_distribution_normalised(self):
        circ = parse_circuit({"n_qubits": 2, "ops": [{"gate": "CNOT", "q": [0, 1]}] * 3, "measure": [0, 1]})
        sched = schedule_layers(circ, DESK)
        result = run_shots(sched, RunConfig(shots=512, master_seed=0))
        assert result.distributions[-1].sum() == pytest.approx(1.0, abs=1e-12)

    def test_idle_relaxation_matches_channel(self):
        # near-instant X prepares |1>, then a long idle relaxes it; the
        # ensemble must match the exact relaxation channel
        device = DeviceParams(
            qubits=(QubitParams(t1_s=100e-6, t2_s=80e-6, p_readout=0.0),),
            t_1q_s=1e-15,
            t_2q_s=300e-9,
            p_1q=0.0,
            p_2q=0.0,
        )
        idle = 50e-6
        doc = {
            "n_qubits": 1,
            "ops": [{"gate": "X", "q": [0]}, {"gate": "IDLE", "q": [0], "duration_s": idle}],
            "measure": [],
        }
        sched = schedule_layers(parse_circuit(doc), device)
        result = run_shots(sched, RunConfig(shots=100_000, master_seed=9))
        gamma1, gamma_pd = relaxation_rates(100e-6, 80e-6)
        rho1 = np.diag([0.0, 1.0]).astype(complex)
        want = apply_channel(rho1, relaxation_channel(gamma1, gamma_pd, idle), (0,))
        got_p1 = result.distributions[-1][1]
        # 5 standard errors of the weighted estimator
        se = 5 * math.sqrt(want[1, 1].real * (1 - want[1, 1].real) / 100_000)
        assert abs(got_p1 - want[1, 1].real) <= se + 1e-4
        assert abs(result.densities[-1][1, 1].real - want[1, 1].real) <= se + 1e-4
        # exact gates preserve the trajectory weight in expectation
        assert abs(result.mean_weight[-1] - 1.0) <= 3 * math.sqrt(0.25 / 100_000)

    def test_ensemble_tracks_lindblad(self):
        from noisygates.experiments import ExperimentConfig, build_experiment_circuit, lindblad_reference

        config = ExperimentConfig(
            experiment="repeat_x", device=DESK, repetitions=100, checkpoints=10, shots=10_000, runs=1, seed=2
        )
        circ, layers, _ = build_experiment_circuit(config)
        sched = schedule_layers(circ, DESK)
        lb_dists, _ = lindblad_reference(sched, layers)
        result = run_shots(sched, RunConfig(shots=10_000, master_seed=2, checkpoints=layers))
        assert np.abs(result.distributions - lb_dists).max() < 0.01

    def test_estimators_close_at_desk_noise(self):
        circ = parse_circuit({"n_qubits": 1, "ops": [{"gate": "X", "q": [0]}] * 50})
        sched = schedule_layers(circ, DESK)
        result = run_shots(sched, RunConfig(shots=20_000, master_seed=4))
        unweighted = result.counts[-1] / result.counts[-1].sum()
        assert np.abs(result.distributions[-1] - unweighted).max() < 0.02

    def test_distribution_names_its_estimator(self):
        sched = schedule_layers(parse_circuit({"n_qubits": 1, "ops": [{"gate": "X", "q": [0]}]}), DESK)
        result = run_shots(sched, RunConfig(shots=64, master_seed=4))
        assert np.array_equal(result.distribution(-1, "weighted"), result.distributions[-1])
        assert np.array_equal(result.distribution(-1, "unweighted"), result.counts[-1] / 64)
        with pytest.raises(ValueError, match="^unknown estimator 'weigthed'; choose one of weighted, unweighted$"):
            result.distribution(-1, "weigthed")


def desk_register(n: int) -> DeviceParams:
    """The two desk qubits repeated over an n-qubit register."""
    return replace(DESK, qubits=tuple(DESK.qubits[q % 2] for q in range(n)))


def noisy_gates_from_normals(sampler: NoisyGateSampler, gen, size: int) -> np.ndarray:
    """``size`` realisations P exp(Xi), each from its own row of normals
    drawn from ``gen``, mapped onto Xi through ``xi.factor``."""
    d = sampler.dim
    v = gen.standard_normal((size, sampler.xi.n_gaussians)) @ sampler.xi.factor.T
    xi = (v[:, : d * d] + 1j * v[:, d * d :]).reshape(size, d, d)
    return mul_2x2(sampler.prefix, expm_2x2(xi)) if d == 2 else sampler.prefix @ expm(xi)


def relaxation_from_normals(gamma1: float, gamma_pd: float, dt: float, gen, size: int) -> np.ndarray:
    rows = relaxation_normals(gamma1, gamma_pd, dt)
    return relaxation_gate_batch(gamma1, gamma_pd, dt, gen.standard_normal((rows, size)))


def slot_by_slot(scheduled, config: RunConfig, generators: list) -> tuple[np.ndarray, ...]:
    """``run_shots``' distributions, counts, mean weights and densities
    (None above ``DENSE_DENSITY_MAX_QUBITS`` qubits), computed with every
    slot up to the last checkpoint and every readout gate applied to the
    states by its own ``apply_gate`` call as soon as it is drawn.  Each
    slot draws its own normals from the chunk's generator, in slot order,
    and a noisy gate is exponentiated by ``expm_2x2`` or ``expm``, not by
    the samplers' kernels.  Each chunk's generator is appended to
    ``generators``."""
    n, params = scheduled.n_qubits, scheduled.params
    dim = 2**n
    layers = []
    for layer in scheduled.layers:
        slots = []
        for gate in layer.gates:
            noise = slot_noise(gate, params)
            if gate.kind == "IDLE" and noise.relaxation:
                (gamma1, gamma_pd), = noise.relaxation
                slots.append((gate.qubits, partial(relaxation_from_normals, gamma1, gamma_pd, noise.duration)))
            elif gate.kind in ("RZ", "IDLE"):
                slots.append((gate.qubits, lambda gen, size, u=ideal_unitary(gate): u))
            else:
                sampler = NoisyGateSampler(schedule(gate), noise_context_for_gate(gate, params))
                slots.append((gate.qubits, partial(noisy_gates_from_normals, sampler)))
        layers.append(slots)
    spam = [(q, spam_strength(params.qubits[q].p_readout)) for q in scheduled.measured]
    checkpoints = sorted(config.checkpoints)
    dist = np.zeros((len(checkpoints), dim))
    weight = np.zeros(len(checkpoints))
    counts = np.zeros((len(checkpoints), dim), dtype=np.int64)
    dens = np.zeros((len(checkpoints), dim, dim), dtype=complex) if n <= DENSE_DENSITY_MAX_QUBITS else None
    chunk = chunk_shots(n)
    for c in range(-(-config.shots // chunk)):
        size = min(chunk, config.shots - c * chunk)
        gen = RngStream(config.master_seed, config.run_index).child(c).generator
        generators.append(gen)
        states = np.zeros((size, dim), dtype=complex)
        states[:, 0] = 1.0
        for at in range(checkpoints[-1] + 1):
            for i in [i for i, cp in enumerate(checkpoints) if cp == at]:
                read = states
                for q, v in spam:
                    read = apply_gate(read, draw_spam(v, gen, size), (q,))
                probs = np.abs(read) ** 2
                w = probs.sum(axis=1)
                dist[i] += probs.sum(axis=0)
                weight[i] += w.sum()
                u = gen.uniform(size=size)
                idx = (np.cumsum(probs / w[:, None], axis=1) < u[:, None]).sum(axis=1).clip(0, dim - 1)
                counts[i] += np.bincount(idx, minlength=dim)
                if dens is not None:
                    dens[i] += np.einsum("si,sj->ij", states, states.conj())
            if at < checkpoints[-1]:
                for qubits, draw in layers[at]:
                    states = apply_gate(states, draw(gen, size), qubits)
    return dist / weight[:, None], counts, weight / config.shots, None if dens is None else dens / config.shots


# name: (circuit document, checkpoints, shots)
DEFERRAL_CASES = {
    # SX and RZ (each then its pad) beside a descending CNOT, q3 idle; then
    # a 120 ns CR followed by pads on both its qubits, beside a CNOT and a
    # padded X; a measured subset listed out of order
    "mixed_layer": (
        {
            "n_qubits": 5,
            "ops": [
                {"gate": "SX", "q": [0]},
                {"gate": "CNOT", "q": [2, 1]},
                {"gate": "RZ", "q": [4], "phi": 0.7},
                {"gate": "CNOT", "q": [0, 1]},
                {"gate": "CR", "q": [3, 4], "theta": 0.9, "phi": 0.2, "duration_s": 120e-9},
                {"gate": "X", "q": [2]},
            ],
            "measure": [4, 0, 3],
        },
        (1, 2),
        48,
    ),
    "cr_cnot_both_orders": (
        {
            "n_qubits": 3,
            "ops": [
                {"gate": "X", "q": [0]},
                {"gate": "SX", "q": [1], "phi": 0.4},
                {"gate": "SX", "q": [2]},
                {"gate": "CR", "q": [0, 1], "theta": 0.6},
                {"gate": "CR", "q": [1, 0], "theta": -0.4, "phi": 0.5},
                {"gate": "RX", "q": [2], "theta": 0.3},
                {"gate": "CNOT", "q": [1, 2]},
                {"gate": "CNOT", "q": [2, 1]},
                {"gate": "X", "q": [0]},
            ],
            "measure": [0, 1, 2],
        },
        (2, 5),
        64,
    ),
    "non_adjacent_cnot": (
        {
            "n_qubits": 4,
            "ops": [
                {"gate": "SX", "q": [0]},
                {"gate": "X", "q": [3]},
                {"gate": "CNOT", "q": [0, 2]},
                {"gate": "SX", "q": [1]},
                {"gate": "CNOT", "q": [2, 0]},
                {"gate": "SX", "q": [0]},
            ],
            "measure": [0, 2, 3],
        },
        (1, 3),
        40,
    ),
    "rz_frames": (
        {
            "n_qubits": 2,
            "ops": [
                {"gate": "RZ", "q": [0], "phi": 0.3},
                {"gate": "SX", "q": [0]},
                {"gate": "RZ", "q": [0], "phi": -1.1},
                {"gate": "RZ", "q": [1], "phi": 2.0},
                {"gate": "CNOT", "q": [0, 1]},
                {"gate": "RZ", "q": [1], "phi": 0.4},
                {"gate": "SX", "q": [1]},
                {"gate": "RZ", "q": [0], "phi": 1.3},
            ],
            "measure": [1, 0],
        },
        (2, 3, 5),
        64,
    ),
    "one_qubit": (
        {
            "n_qubits": 1,
            "ops": [
                {"gate": "X", "q": [0]},
                {"gate": "RZ", "q": [0], "phi": 0.5},
                {"gate": "SX", "q": [0]},
                {"gate": "IDLE", "q": [0], "duration_s": 40e-9},
                {"gate": "RX", "q": [0], "theta": 0.3, "phi": 0.1},
                {"gate": "X", "q": [0]},
            ],
            "measure": [0],
        },
        (0, 3, 3, 6),
        64,
    ),
    "unmeasured": (
        {
            "n_qubits": 3,
            "ops": [{"gate": "SX", "q": [0]}, {"gate": "CNOT", "q": [0, 1]}, {"gate": "CNOT", "q": [1, 2]}],
        },
        (0, 1, 3),
        32,
    ),
    # 20 X gates, then 50 mixed layers: the segment before checkpoint 69
    # reads more than PIECE_NORMALS normals at 128 shots, so it is drawn in
    # pieces, the first X gates sampled by one kernel call on adjacent
    # normals and the later ones on gathered normals
    "long_segment": (
        {
            "n_qubits": 1,
            "ops": [{"gate": "X", "q": [0]}] * 20 + [
                [
                    {"gate": "SX", "q": [0]},
                    {"gate": "X", "q": [0]},
                    {"gate": "RZ", "q": [0], "phi": 0.3},
                    {"gate": "IDLE", "q": [0], "duration_s": 40e-9},
                    {"gate": "SX", "q": [0], "phi": 0.2},
                    {"gate": "X", "q": [0]},
                ][i % 6]
                for i in range(50)
            ],
            "measure": [0],
        },
        (0, 69, 70),
        128,
    ),
    # From 8 qubits two-qubit gates on adjacent qubits wait in blocks of
    # at most 3.  A ladder: blocks {0,1} -> {0,1,2}, then CNOT(2,3) would
    # span 4 qubits, so that block is applied and {2,3} starts.  Block
    # {0,1} stays pending across checkpoint 2 and grows after it; the
    # middle checkpoints read blocks with pads on their qubits, and the
    # layer after the last checkpoint is never applied
    "block_ladder": (
        {
            "n_qubits": 8,
            "ops": [{"gate": "SX", "q": [0]}] + [{"gate": "CNOT", "q": [q, q + 1]} for q in range(7)],
            "measure": list(range(8)),
        },
        (2, 3, 4, 7),
        24,
    ),
    # a descending CNOT, then a descending CR joining its block after
    # one-qubit gates on both; blocks side by side; a non-adjacent CNOT on
    # a block's qubit; a measured subset out of order
    "block_rules": (
        {
            "n_qubits": 8,
            "ops": [
                {"gate": "SX", "q": [0]},
                {"gate": "X", "q": [3]},
                {"gate": "CNOT", "q": [1, 0]},
                {"gate": "SX", "q": [1], "phi": 0.3},
                {"gate": "CR", "q": [2, 1], "theta": 0.7, "phi": 0.2},
                {"gate": "RZ", "q": [0], "phi": 0.4},
                {"gate": "CNOT", "q": [2, 3]},
                {"gate": "CNOT", "q": [4, 3]},
                {"gate": "X", "q": [2]},
                {"gate": "CNOT", "q": [6, 4]},
                {"gate": "CNOT", "q": [6, 7]},
                {"gate": "CR", "q": [6, 5], "theta": -0.5},
                {"gate": "SX", "q": [7]},
                {"gate": "CNOT", "q": [0, 1]},
            ],
            "measure": [6, 2, 0, 5, 3],
        },
        (4, 7, 9),
        40,
    ),
    # no measured qubit; the last checkpoint listed twice, so only its
    # second readout may act on the states
    "block_unmeasured": (
        {
            "n_qubits": 9,
            "ops": [{"gate": "SX", "q": [q]} for q in (0, 4, 8)]
            + [{"gate": "CNOT", "q": [q, q + 1]} for q in (0, 4, 7)]
            + [{"gate": "CR", "q": [q + 1, q], "theta": 0.9} for q in (1, 5, 2)],
        },
        (0, 2, 4, 4),
        16,
    ),
    # qubit 0 has no readout noise (see READOUT_FREE): it has no readout
    # gate and draws no row, beside two measured qubits that do
    "readout_free_qubit": (
        {
            "n_qubits": 3,
            "ops": [
                {"gate": "SX", "q": [0]},
                {"gate": "CNOT", "q": [0, 1]},
                {"gate": "X", "q": [2]},
                {"gate": "CNOT", "q": [1, 2]},
            ],
            "measure": [2, 0, 1],
        },
        (0, 1, 3),
        40,
    ),
    # every measured qubit is free of readout noise: no readout draws at all
    "readout_free_register": (
        {
            "n_qubits": 2,
            "ops": [{"gate": "SX", "q": [0]}, {"gate": "CNOT", "q": [0, 1]}, {"gate": "X", "q": [1]}],
            "measure": [1, 0],
        },
        (1, 2, 3),
        40,
    ),
}
# qubits whose p_readout is 0 in a case's device
READOUT_FREE = {"readout_free_qubit": (0,), "readout_free_register": (0, 1)}


def deferral_device(name: str, n: int) -> DeviceParams:
    """The desk register of case ``name``, p_readout 0 on its ``READOUT_FREE`` qubits."""
    qubits = desk_register(n).qubits
    free = READOUT_FREE.get(name, ())
    return replace(DESK, qubits=tuple(replace(qp, p_readout=0.0) if q in free else qp for q, qp in enumerate(qubits)))


class TestDeferredGates:
    """One-qubit slots wait as per-qubit factors until a two-qubit gate or
    a checkpoint needs the qubit; the result must equal applying every
    slot as it is drawn."""

    @pytest.mark.parametrize("name", DEFERRAL_CASES)
    def test_matches_slot_by_slot(self, name, monkeypatch):
        doc, checkpoints, shots = DEFERRAL_CASES[name]
        scheduled = schedule_layers(parse_circuit(doc), deferral_device(name, doc["n_qubits"]))
        config = RunConfig(shots=shots, master_seed=11, run_index=2, checkpoints=checkpoints)
        made = []
        fget = RngStream.generator.fget
        monkeypatch.setattr(RngStream, "generator", property(lambda self: made.append(fget(self)) or made[-1]))
        result = run_shots(scheduled, config)
        monkeypatch.undo()
        oracle = []
        dist, counts, mean_weight, dens = slot_by_slot(scheduled, config, oracle)
        assert np.abs(result.distributions - dist).max() <= 1e-12 * np.abs(dist).max()
        assert np.abs(result.mean_weight - mean_weight).max() <= 1e-12 * mean_weight.max()
        if dens is None:
            assert result.densities is None
        else:
            assert np.abs(result.densities - dens).max() <= 1e-12 * np.abs(dens).max()
        np.testing.assert_array_equal(result.counts, counts)
        assert len(made) == len(oracle) == 1
        np.testing.assert_equal(made[0].bit_generator.state, oracle[0].bit_generator.state)

    def test_long_segment_is_cut_into_pieces(self):
        doc, (_, cut, _), shots = DEFERRAL_CASES["long_segment"]
        compiled = _Compiled(schedule_layers(parse_circuit(doc), desk_register(1)))
        normals = sum(slot.normals for slot in compiled.slots[: compiled.layer_starts[cut]])
        assert normals * shots > PIECE_NORMALS

    def test_ghz12_chunk_applies_at_most_ten_passes(self, monkeypatch):
        # one 64-shot chunk: 5 block passes, then 4 passes at the
        # checkpoint, which reads the last block and the one-qubit factors
        # with the readout gates multiplied on, every one on ascending
        # adjacent qubits
        n = 12
        ops = [{"gate": "SX", "q": [0]}] + [{"gate": "CNOT", "q": [q, q + 1]} for q in range(n - 1)]
        scheduled = schedule_layers(parse_circuit({"n_qubits": n, "ops": ops, "measure": list(range(n))}), desk_register(n))
        calls = []
        monkeypatch.setattr(engine, "apply_gate", lambda *args, **kw: calls.append(args[2]) or apply_gate(*args, **kw))
        run_shots(scheduled, RunConfig(shots=chunk_shots(n), master_seed=7))
        assert len(calls) <= 10
        assert all(list(qubits) == list(range(qubits[0], qubits[-1] + 1)) for qubits in calls)

    def test_passes_pack_adjacent_qubits(self):
        singles = [(8,), (0,), (2,), (1,), (3,), (5,), (7,)]
        assert _plan_passes(singles) == [[(0,), (1,), (2,)], [(3,)], [(5,)], [(7,), (8,)]]
        runs = [(9,), (0,), (2, 3), (1,), (4, 5, 6), (7,), (10, 11)]
        assert _plan_passes(runs) == [[(0,), (1,)], [(2, 3)], [(4, 5, 6)], [(7,)], [(9,), (10, 11)]]
        assert _plan_passes([]) == []


class TestSharedCompiled:
    """One ``_Compiled`` serves every run of a circuit: the same results as
    compiling per run, with its workspace reused across runs and chunk
    sizes, and it pickles (to a worker process) without its buffers."""

    def test_shared_across_runs_matches_per_run(self):
        doc = {
            "n_qubits": 3,
            "ops": [
                {"gate": "SX", "q": [0]},
                {"gate": "CNOT", "q": [0, 1]},
                {"gate": "CR", "q": [1, 2], "theta": 1.1},
                {"gate": "CNOT", "q": [2, 0]},
            ],
            "measure": [0, 2],
        }
        scheduled = schedule_layers(parse_circuit(doc), desk_register(3))
        compiled = _Compiled(scheduled)
        size = len(pickle.dumps(compiled))
        # 1500 shots: a full chunk of CHUNK_SHOTS, then a shorter one
        for run in range(2):
            config = RunConfig(shots=1500, master_seed=12, run_index=run, checkpoints=(2, 4))
            shared, fresh = run_shots(scheduled, config, compiled), run_shots(scheduled, config)
            for field in ("distributions", "counts", "mean_weight", "densities"):
                np.testing.assert_array_equal(getattr(shared, field), getattr(fresh, field))
        assert len(pickle.dumps(compiled)) == size
        clone = pickle.loads(pickle.dumps(compiled))
        np.testing.assert_array_equal(run_shots(clone.scheduled, config, clone).distributions, fresh.distributions)
        with pytest.raises(ValueError, match="another scheduled circuit"):
            run_shots(scheduled, config, clone)

    def test_wide_register_buffers_reused_without_stale_data(self):
        # 12 qubits: chunks of 64 shots, so 160 shots are chunks of 64, 64
        # and 32; every chunk and the second run start in buffers the last
        # one left full
        n = 12
        ops = [{"gate": "SX", "q": [0]}] + [{"gate": "CNOT", "q": [q, q + 1]} for q in range(n - 1)]
        scheduled = schedule_layers(parse_circuit({"n_qubits": n, "ops": ops, "measure": list(range(n))}), desk_register(n))
        compiled = _Compiled(scheduled)
        assert chunk_shots(n) == 64
        for run in range(2):
            config = RunConfig(shots=160, master_seed=5, run_index=run, checkpoints=(0, 6, 12))
            tracemalloc.start()
            shared = run_shots(scheduled, config, compiled)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            fresh = run_shots(scheduled, config)
            for field in ("checkpoints", "times", "distributions", "counts", "mean_weight", "densities", "shots"):
                np.testing.assert_array_equal(getattr(shared, field), getattr(fresh, field))
        # the warm run allocates no state batch (4 MiB at 64 shots): 0.76 MiB
        # peak, where each pass allocating a fresh batch peaked at 24 MiB
        assert peak < 2 * 2**20


def run_within(call, seconds: float = 60.0) -> dict:
    """``call()`` on a thread of its own, as ``{"result": ...}`` or
    ``{"error": ...}``; a call still running after ``seconds`` fails the
    test, so a deadlocked draw thread cannot hang it."""
    box = {}

    def target():
        try:
            box["result"] = call()
        except BaseException as exc:
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"the call has not returned in {seconds} s"
    return box


class TestDrawThread:
    """``run_shots`` draws the chunk streams on a helper thread.  Whether
    the run returns, raises on the calling thread or fails on the helper,
    the helper is joined, the error reaches the caller, and the next run
    on the same compiled circuit equals one on a fresh compile."""

    # three chunks, two checkpoints, two measured qubits
    DOC = {
        "n_qubits": 2,
        "ops": [{"gate": "SX", "q": [0]}, {"gate": "CNOT", "q": [0, 1]}, {"gate": "X", "q": [1]}],
        "measure": [1, 0],
    }
    CONFIG = RunConfig(shots=2500, master_seed=3, checkpoints=(1, 3))

    @staticmethod
    def assert_rerun_matches_fresh(scheduled, compiled, config):
        shared, fresh = run_shots(scheduled, config, compiled), run_shots(scheduled, config)
        for field in ("distributions", "counts", "mean_weight", "densities"):
            np.testing.assert_array_equal(getattr(shared, field), getattr(fresh, field))

    def test_run_that_returns(self):
        scheduled = schedule_layers(parse_circuit(self.DOC), desk_register(2))
        compiled = _Compiled(scheduled)
        before = threading.active_count()
        box = run_within(lambda: run_shots(scheduled, self.CONFIG, compiled))
        assert "result" in box
        assert threading.active_count() == before
        self.assert_rerun_matches_fresh(scheduled, compiled, self.CONFIG)

    def test_run_that_raises_on_the_calling_thread(self):
        # one X lasting 1 s, 10^4 T1: every weight underflows to zero at
        # checkpoint 1 of chunk 0, while the helper has drawn ahead
        doc = {"n_qubits": 1, "ops": [{"gate": "X", "q": [0], "duration_s": 1.0}], "measure": [0]}
        scheduled = schedule_layers(parse_circuit(doc), DESK)
        compiled = _Compiled(scheduled)
        before = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            box = run_within(lambda: run_shots(scheduled, RunConfig(shots=3000, checkpoints=(0, 1)), compiled))
        assert isinstance(box.get("error"), FloatingPointError)
        assert str(box["error"]) == "every trajectory weight is zero at checkpoint 1"
        assert threading.active_count() == before
        self.assert_rerun_matches_fresh(scheduled, compiled, RunConfig(shots=3000, checkpoints=(0,)))

    def test_run_whose_draw_fails_on_the_helper(self, monkeypatch):
        # chunk 1's generator fails at its first draw, which the helper
        # makes while the calling thread works on chunk 0
        failed_on = []

        def fail(*args, **kwargs):
            failed_on.append(threading.current_thread())
            raise RuntimeError("draw failed")

        broken = SimpleNamespace(standard_normal=fail, random=fail)
        fget = RngStream.generator.fget
        monkeypatch.setattr(RngStream, "generator", property(lambda self: broken if self._path == (1,) else fget(self)))
        scheduled = schedule_layers(parse_circuit(self.DOC), desk_register(2))
        compiled = _Compiled(scheduled)
        before = threading.active_count()
        box = run_within(lambda: run_shots(scheduled, self.CONFIG, compiled))
        monkeypatch.undo()
        assert isinstance(box.get("error"), RuntimeError)
        assert str(box["error"]) == "draw failed"
        assert [thread.name for thread in failed_on] == ["noisygates-draws"]
        assert threading.active_count() == before
        self.assert_rerun_matches_fresh(scheduled, compiled, self.CONFIG)

    def test_every_job_is_a_generator_fill(self):
        # per segment, a standard_normal job per piece, one for the two
        # readout rows, and a random job for the uniforms
        compiled = _Compiled(schedule_layers(parse_circuit(self.DOC), desk_register(2)))
        sizes = [1024, 452]
        plans = {size: [compiled.pieces(0, 1, size), compiled.pieces(1, 3, size)] for size in sizes}
        jobs = list(engine._draw_jobs(RngStream(3), sizes, plans, len(compiled.readout)))
        want = []
        for size in sizes:
            for pieces in plans[size]:
                want += [((count,), "standard_normal") for *_, count in pieces]
                want += [((2, size), "standard_normal"), ((size,), "random")]
        assert [(shape, fill.__name__) for shape, fill in jobs] == want
        assert all(isinstance(fill.__self__, np.random.Generator) for _, fill in jobs)

    @pytest.mark.parametrize("blocks", [1, 2, 4])
    def test_any_number_of_blocks_draws_the_same_stream(self, blocks, monkeypatch):
        # chunks of 1,024 and 452 shots; each chunk's generator is made on
        # the calling thread, where the benchmark's span recorder times it
        scheduled = schedule_layers(parse_circuit(self.DOC), desk_register(2))
        config = RunConfig(shots=1476, master_seed=3, checkpoints=(1, 3))
        expected = run_shots(scheduled, config)
        made_on = []
        fget = RngStream.generator.fget

        def generator(stream):
            made_on.append(threading.current_thread())
            return fget(stream)

        monkeypatch.setattr(RngStream, "generator", property(generator))
        monkeypatch.setattr(engine, "DRAW_BLOCKS", blocks)
        box = run_within(lambda: (threading.current_thread(), run_shots(scheduled, config, _Compiled(scheduled))))
        monkeypatch.undo()
        caller, result = box["result"]
        assert made_on == [caller, caller]
        for field in ("distributions", "counts", "mean_weight", "densities"):
            np.testing.assert_array_equal(getattr(result, field), getattr(expected, field))

    def test_concurrent_runs_with_fast_thread_switches(self, monkeypatch):
        # four runs at once, each with its own helper drawing into two
        # blocks, switching threads every 10 us: a block rewritten while
        # its run still reads it would change that run's result
        doc = dict(self.DOC, ops=self.DOC["ops"] * 8)
        scheduled = schedule_layers(parse_circuit(doc), desk_register(2))
        config = RunConfig(shots=2500, master_seed=8, checkpoints=(4, 9, 17))
        expected = run_shots(scheduled, config)
        monkeypatch.setattr(engine, "DRAW_BLOCKS", 2)
        boxes = [{} for _ in range(4)]

        def run(box):
            box["result"] = run_shots(scheduled, config, _Compiled(scheduled))

        threads = [threading.Thread(target=run, args=(box,), daemon=True) for box in boxes]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for box in boxes:
            for field in ("distributions", "counts", "mean_weight", "densities"):
                np.testing.assert_array_equal(getattr(box["result"], field), getattr(expected, field))


def test_zero_weight_trajectories_draw_no_outcome():
    # one X lasting 0.45 s, 4,500 T1: 3,673 of the 4,000 weights underflow
    # to zero.  Those draw no outcome (they were once counted as outcome
    # 0, through a NaN CDF), so the counts hold the other 327 alone.
    doc = {"n_qubits": 1, "ops": [{"gate": "X", "q": [0], "duration_s": 0.45}], "measure": [0]}
    scheduled = schedule_layers(parse_circuit(doc), DESK)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_shots(scheduled, RunConfig(shots=4000))
    np.testing.assert_array_equal(result.counts, [[176, 151]])
    assert result.distributions[0, 0] == pytest.approx(0.561, abs=1e-3)


@pytest.mark.parametrize("checkpoints, buffers", [((0, 6, 12), 3), (None, 2)])
def test_state_sized_buffers(checkpoints, buffers):
    # a chunk's states and spare; a checkpoint before the last reads into
    # one workspace copy as well, while the last one's reads may write the
    # states, which nothing reads after it
    n = 12
    ops = [{"gate": "SX", "q": [0]}] + [{"gate": "CNOT", "q": [q, q + 1]} for q in range(n - 1)]
    scheduled = schedule_layers(parse_circuit({"n_qubits": n, "ops": ops, "measure": list(range(n))}), desk_register(n))
    compiled = _Compiled(scheduled)
    run_shots(scheduled, RunConfig(shots=2 * chunk_shots(n), master_seed=4, checkpoints=checkpoints), compiled)
    state_bytes = chunk_shots(n) * 16 * 2**n
    assert sum(buf.nbytes >= state_bytes for buf in compiled.workspace._buffers.values()) == buffers


def test_piece_buffers_stay_within_the_cap():
    # 500 X gates in one segment at 1024 shots: 512,000 gate draws of 5
    # normals, which would take 20 MiB of normals and 120 MiB of kernel
    # buffers as one piece.  The block holds PIECE_NORMALS normals, and
    # the widest kernel buffer 16 reals for each of its gate draws.
    doc = {"n_qubits": 1, "ops": [{"gate": "X", "q": [0]}] * 500, "measure": [0]}
    scheduled = schedule_layers(parse_circuit(doc), DESK)
    compiled = _Compiled(scheduled)
    run_shots(scheduled, RunConfig(shots=1024, master_seed=3, checkpoints=(0, 500)), compiled)
    buffers = compiled.workspace._buffers
    assert buffers["engine.normals0"].nbytes == PIECE_NORMALS * 8
    assert max(buf.nbytes for buf in buffers.values()) == PIECE_NORMALS // 5 * 16 * 8


class TestChunkShots:
    def test_stock_registers_keep_full_chunks(self):
        assert [chunk_shots(n) for n in range(1, 9)] == [CHUNK_SHOTS] * 8

    def test_at_least_one_shot_and_nonincreasing(self):
        sizes = [chunk_shots(n) for n in range(1, 41)]
        assert min(sizes) >= 1
        assert sizes == sorted(sizes, reverse=True)


class TestWidthLimits:
    def test_register_wider_than_memory_fails_at_scheduling(self):
        n = 2**62
        circuit = parse_circuit({"n_qubits": n, "ops": [{"gate": "X", "q": [n - 1]}], "measure": [0]})
        assert circuit.layers == ((GateSpec("X", (n - 1,)),),)
        with pytest.raises(CircuitError, match=f"circuit needs {n} qubits, device has 2"):
            schedule_layers(circuit, DESK)

    def test_run_shots_rejects_wide_register(self):
        n = MAX_QUBITS + 1
        sched = schedule_layers(parse_circuit({"n_qubits": n, "ops": []}), desk_register(n))
        with pytest.raises(ValueError, match=f"at most {MAX_QUBITS} qubits"):
            run_shots(sched, RunConfig(shots=1))

    def test_lindblad_reference_rejects_wide_register(self):
        from noisygates.channels import MAX_QUBITS as CHANNEL_MAX_QUBITS
        from noisygates.experiments import lindblad_reference

        n = CHANNEL_MAX_QUBITS + 1
        sched = schedule_layers(parse_circuit({"n_qubits": n, "ops": []}), desk_register(n))
        with pytest.raises(ValueError, match=f"at most {CHANNEL_MAX_QUBITS} qubits"):
            lindblad_reference(sched, (0,))

    def test_channel_sim_rejects_wide_register(self):
        from noisygates.channels import MAX_QUBITS as CHANNEL_MAX_QUBITS, run_channel_sim

        n = CHANNEL_MAX_QUBITS + 1
        sched = schedule_layers(parse_circuit({"n_qubits": n, "ops": []}), desk_register(n))
        with pytest.raises(ValueError, match=f"at most {CHANNEL_MAX_QUBITS} qubits"):
            run_channel_sim(sched, (0,))


# Memory bounds for a 16-qubit, 16-shot GHZ run in a fresh process.  It
# allocated at most 27 MiB at once in chunks of four 1 MiB states, against
# 83 MiB as one 16-shot chunk; the process peaked at 76 MiB resident, of
# which numpy and noisygates take about 65 (Linux x86-64, numpy 2.4).
# The resident peak is read as VmHWM: a child's ru_maxrss keeps the peak of
# the process that spawned it (Linux carries it across exec), which under
# pytest is the test runner's.
GHZ16_PEAK_ALLOC_MIB = 48
GHZ16_PEAK_RSS_MIB = 160

GHZ16_SCRIPT = """
import json, tracemalloc
from pathlib import Path
from noisygates.engine import RunConfig, parse_circuit, run_shots, schedule_layers
from noisygates.noise_model import DeviceParams, QubitParams

n = 16
qubit = QubitParams(t1_s=100e-6, t2_s=80e-6, p_readout=0.02)
device = DeviceParams(qubits=(qubit,) * n, t_1q_s=35e-9, t_2q_s=300e-9, p_1q=5e-4, p_2q=0.04)
ops = [{"gate": "SX", "q": [0]}] + [{"gate": "CNOT", "q": [i, i + 1]} for i in range(n - 1)]
sched = schedule_layers(parse_circuit({"n_qubits": n, "ops": ops, "measure": list(range(n))}), device)
tracemalloc.start()
dist = run_shots(sched, RunConfig(shots=16, master_seed=0)).distributions[-1]
print(json.dumps({
    "peak_alloc": tracemalloc.get_traced_memory()[1],
    "peak_rss_kib": int(next(
        line.split()[1] for line in Path("/proc/self/status").read_text().splitlines()
        if line.startswith("VmHWM:")
    )),
    "total": float(dist.sum()),
    "ghz": float(dist[0] + dist[-1]),
}))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_ghz16_smoke_runs_in_bounded_memory():
    src = str(Path(noisygates.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", GHZ16_SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["peak_alloc"] < GHZ16_PEAK_ALLOC_MIB * 2**20
    assert out["peak_rss_kib"] < GHZ16_PEAK_RSS_MIB * 1024
    assert out["total"] == pytest.approx(1.0, abs=1e-9)
    assert 0.2 < out["ghz"] <= 1.0
