"""At negligible noise the trajectory engine, the exact channel-simulator
distribution and the Lindblad reference describe the same ideal circuit,
so they must agree at every checkpoint on any circuit the parser accepts.

T1 = T2 = 1000 s and every error probability 0 leave Gaussian noise of
amplitude about 1e-5 per slot in the engine; at 8192 shots its weighted
estimator and density estimate stay within about 3e-7 of the reference
(measured over random circuits of this grammar), and the reference takes
each slot's exact exponential.  Durations are kept at or below 100 ns so
the noise stays that small.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from noisygates.engine import RunConfig, parse_circuit, run_shots, schedule_layers
from noisygates.experiments import _channel_checkpoint_probs, lindblad_reference
from noisygates.gates import GATE_KINDS
from noisygates.noise_model import DeviceParams, QubitParams

QUIET = DeviceParams(
    qubits=(QubitParams(t1_s=1000.0, t2_s=1000.0, p_readout=0.0),) * 3,
    t_1q_s=35e-9,
    t_2q_s=100e-9,
    p_1q=0.0,
    p_2q=0.0,
)
SHOTS = 8192
TOL = 1e-6

angles = st.floats(-math.pi, math.pi, allow_nan=False)
durations = st.floats(10e-9, 100e-9)


@st.composite
def circuits(draw):
    """Circuit documents on 1-3 qubits: every gate kind with its angles,
    explicit durations or device defaults, two-qubit gates in either
    qubit order and any measured subset."""
    n = draw(st.integers(1, 3))
    kinds = [k for k, spec in GATE_KINDS.items() if spec.arity <= n]
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(kinds))
        spec = GATE_KINDS[kind]
        op = {"gate": kind, "q": list(draw(st.permutations(range(n)))[: spec.arity])}
        for key in spec.angles:
            op[key] = draw(angles)
        if kind == "IDLE":
            op["duration_s"] = draw(st.just(0.0) | durations)
        elif spec.driven:
            duration = draw(st.none() | durations)
            if duration is not None:
                op["duration_s"] = duration
        ops.append(op)
    measure = draw(st.lists(st.integers(0, n - 1), unique=True))
    return {"n_qubits": n, "ops": ops, "measure": measure}


@settings(max_examples=60, deadline=None)
@given(circuits())
def test_back_ends_agree_at_zero_noise(doc):
    sched = schedule_layers(parse_circuit(doc), QUIET)
    layers = tuple(range(len(sched.layers) + 1))
    ensemble = run_shots(sched, RunConfig(shots=SHOTS, checkpoints=layers))
    channel = _channel_checkpoint_probs(sched, layers)[0]
    ref_dists, ref_rhos = lindblad_reference(sched, layers)
    assert np.abs(channel - ref_dists).max() < TOL
    assert np.abs(ensemble.distributions - ref_dists).max() < TOL
    assert np.abs(ensemble.densities - np.asarray(ref_rhos)).max() < TOL
