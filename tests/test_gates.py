import copy
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from noisygates.channels import apply_channel, relaxation_channel
from noisygates.gates import (
    DriveSchedule,
    GateSpec,
    NoisyGateSampler,
    XiSampler,
    _path_pieces,
    build_substep_path,
    ideal_unitary,
    lambda_matrix,
    relaxation_gate_batch,
    relaxation_normals,
    scale_context,
    schedule,
    small_noise_reference,
    spam_gate_batch,
    xi_from_path,
)
from noisygates.linalg import (
    _EXP_MU_LINEAR,
    DECAY,
    I2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PROJ_1,
    Workspace,
    _series_terms,
    _taylor_terms,
    dagger,
    expm,
    expm_2x2,
)
from noisygates.noise_model import LindbladTerm, NoiseContext, load_calibration, noise_context_for_gate
from noisygates.stochastic import RngStream, gauss_legendre_rule
from test_linalg import mul_2x2


def make_context(*pairs, duration=1.0):
    terms = tuple(LindbladTerm.from_rate(op, rate, duration) for op, rate in pairs)
    return NoiseContext(terms=terms, gate_duration=duration)


IDLE_SCHED = DriveSchedule(np.zeros((2, 2)))


def interaction_jump(sched, jump, s):
    """Jump operator in the interaction picture, U_s^dag L U_s."""
    u = sched.unitary_at(s)
    return dagger(u) @ jump @ u


def sample_xi(sched, ctx, rng):
    return XiSampler(sched, ctx).sample(rng.generator, 1, Workspace())[0]


def sample_noisy_gate(sched, ctx, rng):
    """One noisy realisation N = U_g exp(Lambda) exp(Xi), built without the
    batched sampler."""
    return sched.unitary_at(1.0) @ expm(lambda_matrix(sched, ctx)) @ expm(sample_xi(sched, ctx, rng))


def draw_batch(sampler, gen, size, workspace):
    """``sampler.sample_batch`` on ``size`` rows of normals from ``gen``."""
    return sampler.sample_batch(gen.standard_normal((size, sampler.xi.n_gaussians)), workspace)


def draw_relaxation(gamma1, gamma_pd, dt, gen, size):
    """``size`` relaxation gates on normals from ``gen``, which draws them
    as the trajectory engine does, one row per variance in turn."""
    rows = relaxation_normals(gamma1, gamma_pd, dt)
    return relaxation_gate_batch(gamma1, gamma_pd, dt, gen.standard_normal((rows, size)))


def draw_spam(v, gen, size):
    """``size`` readout gates on angles drawn from ``gen`` as the
    trajectory engine draws them: none at v = 0."""
    w = gen.normal(0.0, math.sqrt(v), size) if v > 0 else np.zeros(size)
    return spam_gate_batch(v, w)


def sample_spam_gate(v, rng):
    return draw_spam(v, rng.generator, 1)[0]


def sample_relaxation_gate(gamma1, gamma_pd, dt, rng):
    return draw_relaxation(gamma1, gamma_pd, dt, rng.generator, 1)[0]


def estimate_commutator_term(sched, ctx, rng=None, m_substeps=4096, path=None):
    """Substep estimate of the double-Ito commutator
    C = sum_{k,l} eps_k eps_l int dW_{k,s} int_0^s dW_{l,s'} [L_{k,s}, L_{l,s'}],
    which the sampled gate drops."""
    if path is None:
        path = build_substep_path(ctx, m_substeps, rng)
    a, prefix, _ = _path_pieces(sched, ctx, path)
    return np.einsum("mij,mjk->ik", a, prefix) - np.einsum("mij,mjk->ik", prefix, a)


def closed_form_rx(theta, phi):
    """RX(theta) about the axis cos(phi) X + sin(phi) Y."""
    axis = math.cos(phi) * PAULI_X + math.sin(phi) * PAULI_Y
    return math.cos(theta / 2) * I2 - 1j * math.sin(theta / 2) * axis


def closed_form_unitary(gate):
    """Oracle for ideal_unitary on the driven and idle kinds, written out
    by hand instead of taken from the drive."""
    if gate.kind == "RX":
        return closed_form_rx(gate.theta, gate.phi)
    if gate.kind in ("X", "SX"):
        return closed_form_rx(math.pi if gate.kind == "X" else math.pi / 2, gate.phi)
    if gate.kind == "CR":
        out = np.zeros((4, 4), dtype=complex)
        out[:2, :2] = closed_form_rx(gate.theta, gate.phi)
        out[2:, 2:] = closed_form_rx(-gate.theta, gate.phi)
        return out
    if gate.kind == "CNOT":
        out = np.eye(4, dtype=complex)
        out[2:, 2:] = PAULI_X
        return out
    assert gate.kind == "IDLE"
    return I2


CLOSED_FORM_GATES = [
    GateSpec("X", (0,)),
    GateSpec("X", (0,), phi=0.4),
    GateSpec("SX", (0,)),
    GateSpec("SX", (0,), phi=-1.2),
    GateSpec("RX", (0,), theta=0.7, phi=0.3),
    GateSpec("RX", (0,), theta=-2.9, phi=2.5),
    GateSpec("CR", (0, 1), theta=1.1, phi=0.2),
    GateSpec("CR", (0, 1), theta=-math.pi / 2),
    GateSpec("CNOT", (0, 1)),
    GateSpec("IDLE", (0,), duration=0.0),
    GateSpec("IDLE", (0,), duration=5e-8),
]


class TestIdealUnitaries:
    @pytest.mark.parametrize("gate", CLOSED_FORM_GATES, ids=repr)
    def test_matches_closed_form(self, gate):
        u = ideal_unitary(gate)
        assert u.shape == (2 ** len(gate.qubits),) * 2
        assert np.abs(u - closed_form_unitary(gate)).max() <= 1e-14

    def test_zero_length_idle_is_exact_identity(self):
        assert np.array_equal(ideal_unitary(GateSpec("IDLE", (0,), duration=0.0)), I2)

    def test_rx_pi(self):
        assert np.allclose(ideal_unitary(GateSpec("X", (0,))), -1j * PAULI_X, atol=1e-14)

    def test_cr_pi_blocks(self):
        u = ideal_unitary(GateSpec("CR", (0, 1), theta=math.pi))
        assert np.allclose(u[:2, :2], -1j * PAULI_X, atol=1e-14)
        assert np.allclose(u[2:, 2:], 1j * PAULI_X, atol=1e-14)

    def test_rz_pi(self):
        assert np.allclose(ideal_unitary(GateSpec("RZ", (0,), phi=math.pi)), np.diag([1, -1]))

    def test_cnot_maps_10_to_11(self):
        u = ideal_unitary(GateSpec("CNOT", (0, 1)))
        state = np.zeros(4)
        state[2] = 1.0
        out = u @ state
        assert out[3] == pytest.approx(1.0)

    def test_cr_missing_theta(self):
        with pytest.raises(ValueError):
            GateSpec("CR", (0, 1))


class TestSchedule:
    def test_x_halfway(self):
        sched = schedule(GateSpec("X", (0,)).with_duration(1.0))
        want = closed_form_rx(math.pi / 2, 0.0)
        assert np.allclose(sched.unitary_at(0.5), want, atol=1e-12)

    def test_cr_linear_traversal(self):
        theta = 1.1
        sched = schedule(GateSpec("CR", (0, 1), theta=theta).with_duration(1.0))
        for s in (0.25, 0.7):
            want = closed_form_unitary(GateSpec("CR", (0, 1), theta=s * theta))
            assert np.allclose(sched.unitaries(np.array([s]))[0], want, atol=1e-12)

    def test_endpoint_unitarity(self):
        for spec in (GateSpec("X", (0,)), GateSpec("SX", (0,)), GateSpec("CNOT", (0, 1))):
            sched = schedule(spec.with_duration(1.0))
            u = sched.unitary_at(1.0)
            assert np.abs(dagger(u) @ u - np.eye(u.shape[0])).max() <= 1e-10
            assert np.allclose(u, closed_form_unitary(spec), atol=1e-12)

    def test_rz_has_no_schedule(self):
        with pytest.raises(ValueError):
            schedule(GateSpec("RZ", (0,), phi=0.1))


class TestInteractionJump:
    def test_s_zero_unchanged(self):
        sched = schedule(GateSpec("X", (0,)).with_duration(1.0))
        assert np.allclose(interaction_jump(sched, PAULI_Z, 0.0), PAULI_Z, atol=1e-14)

    def test_identity_invariant(self):
        sched = schedule(GateSpec("SX", (0,)).with_duration(1.0))
        for s in (0.2, 0.9):
            assert np.allclose(interaction_jump(sched, I2, s), I2, atol=1e-13)

    def test_x_drive_rotates_z(self):
        sched = schedule(GateSpec("X", (0,)).with_duration(1.0))
        for s in (0.3, 0.6):
            got = interaction_jump(sched, PAULI_Z, s)
            want = math.cos(math.pi * s) * PAULI_Z + math.sin(math.pi * s) * PAULI_Y
            assert np.allclose(got, want, atol=1e-12)


class TestLambdaMatrix:
    def test_hermitian_jumps_vanish(self):
        sched = schedule(GateSpec("X", (0,)).with_duration(1.0))
        ctx = make_context((PAULI_X, 0.1), (PAULI_Y, 0.2), (PAULI_Z, 0.3))
        assert np.abs(lambda_matrix(sched, ctx)).max() == 0.0

    def test_decay_on_idle(self):
        ctx = make_context((DECAY, 0.04))
        lam = lambda_matrix(IDLE_SCHED, ctx)
        assert np.allclose(lam, np.diag([0, -0.02]), atol=1e-13)

    def test_zero_rates(self):
        ctx = make_context((DECAY, 0.0))
        assert np.abs(lambda_matrix(IDLE_SCHED, ctx)).max() == 0.0

    @pytest.mark.parametrize(
        "gate",
        [GateSpec("X", (0,)), GateSpec("RX", (0,), theta=0.7, phi=0.4), GateSpec("CR", (0, 1), theta=-1.2), GateSpec("CNOT", (0, 1))],
        ids=lambda g: g.kind,
    )
    def test_matches_per_term_integrals(self, gate):
        # the quadrature of each term's L_s^dag L_s - L_s^2, summed after
        params = load_calibration(DESK_DEVICE)
        timed = gate.with_duration(params.gate_duration(len(gate.qubits)))
        sched = schedule(timed)
        ctx = scale_context(noise_context_for_gate(timed, params), 30.0)
        svals, w = gauss_legendre_rule(32, 4)
        u = sched.unitaries(svals)
        want = np.zeros((sched.dim, sched.dim), dtype=complex)
        for term in ctx.terms:
            ls = dagger(u) @ term.operator @ u
            want -= 0.5 * term.epsilon**2 * np.einsum("s,sij->ij", w, dagger(ls) @ ls - ls @ ls)
        got = lambda_matrix(sched, ctx)
        assert np.abs(want).max() > 1e-3
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestSampleXi:
    def test_zero_rates_give_zero(self):
        ctx = make_context((DECAY, 0.0))
        assert np.abs(sample_xi(IDLE_SCHED, ctx, RngStream(0))).max() == 0.0

    def test_hermitian_idle_reduces_to_scaled_wiener(self):
        eps2 = 0.09
        ctx = make_context((PAULI_X, eps2))
        draws = XiSampler(IDLE_SCHED, ctx).sample(RngStream(3).generator, 50_000, Workspace())
        # Xi = i eps W X: the (0,1) entry is imaginary with variance eps^2
        entry = draws[:, 0, 1]
        assert np.abs(entry.real).max() < 1e-12
        assert entry.imag.var() == pytest.approx(eps2, rel=0.05)

    def test_zero_mean(self):
        sched = schedule(GateSpec("X", (0,)).with_duration(1.0))
        ctx = make_context((DECAY, 0.04), (PAULI_Z, 0.01))
        draws = XiSampler(sched, ctx).sample(RngStream(4).generator, 100_000, Workspace())
        se = np.abs(draws).std(axis=0) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) <= 5 * se + 1e-12)


class TestSampleNoisyGate:
    def test_zero_noise_returns_ideal(self):
        sched = schedule(GateSpec("X", (0,)).with_duration(1.0))
        ctx = NoiseContext(terms=(), gate_duration=1.0)
        n = sample_noisy_gate(sched, ctx, RngStream(5))
        assert np.allclose(n, ideal_unitary(GateSpec("X", (0,))), atol=1e-14)

    def test_determinism(self):
        sched = schedule(GateSpec("X", (0,)).with_duration(1.0))
        ctx = make_context((DECAY, 0.04), (PAULI_Z, 0.005))
        a = sample_noisy_gate(sched, ctx, RngStream(6))
        b = sample_noisy_gate(sched, ctx, RngStream(6))
        assert np.array_equal(a, b)

    def test_mean_weight_near_one(self):
        sched = schedule(GateSpec("X", (0,)).with_duration(1.0))
        ctx = make_context((DECAY, 0.04), (PAULI_X, 0.01), (PAULI_Y, 0.01), (PAULI_Z, 0.0125))
        batch = draw_batch(NoisyGateSampler(sched, ctx), RngStream(7).generator, 100_000, Workspace())
        state = np.array([1, 1], dtype=complex) / math.sqrt(2)
        weights = np.abs(batch @ state) ** 2
        w = weights.sum(axis=1)
        assert abs(w.mean() - 1.0) < max(3 * w.std() / math.sqrt(w.size), 2e-3)

    def test_ensemble_channel_is_completely_positive(self):
        sched = schedule(GateSpec("X", (0,)).with_duration(1.0))
        ctx = make_context((DECAY, 0.04), (PAULI_Z, 0.01))
        batch = draw_batch(NoisyGateSampler(sched, ctx), RngStream(8).generator, 100_000, Workspace())
        # Choi matrix of the sampled ensemble map
        choi = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1.0
                block = np.einsum("sik,kl,sjl->ij", batch, e, batch.conj()) / batch.shape[0]
                choi[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = block
        eigs = np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))
        assert eigs.min() > -1e-6


DESK_DEVICE = Path(__file__).resolve().parents[1] / "configs" / "desk_device.json"
STREAM_GATES = {
    "X": GateSpec("X", (0,)),
    "SX": GateSpec("SX", (0,)),
    "RX": GateSpec("RX", (0,), theta=0.7),
    "CR": GateSpec("CR", (0, 1), theta=math.pi / 2),
    "CNOT": GateSpec("CNOT", (0, 1)),
}


def desk_sampler(name: str, noise_scale: float = 1.0) -> NoisyGateSampler:
    """Sampler of ``STREAM_GATES[name]`` on the desk device, with every
    noise amplitude scaled by ``noise_scale``."""
    gate = STREAM_GATES[name]
    ctx = scale_context(noise_context_for_gate(gate, load_calibration(DESK_DEVICE)), noise_scale)
    return NoisyGateSampler(schedule(gate.with_duration(ctx.gate_duration)), ctx)


class TestSampleBatchStream:
    """sample_batch maps one (size, n_gaussians) block of normals onto
    prefix @ exp(Xi), with Xi read off ``xi.factor`` as criterion 3 reads
    it.  Scaled contexts push the exponentials past their
    unscaled ranges; scale 0 is the zero-noise context."""

    @pytest.mark.parametrize(
        "name, noise_scale",
        [(name, 1.0) for name in STREAM_GATES] + [("X", 30.0), ("CNOT", 3.0), ("X", 0.0), ("CNOT", 0.0)],
    )
    def test_matches_factor_reference(self, name, noise_scale):
        sampler = desk_sampler(name, noise_scale)
        gen = np.random.default_rng(11)
        ref_gen = copy.deepcopy(gen)
        size, d = 1000, sampler.dim

        got = draw_batch(sampler, gen, size, Workspace())
        g = ref_gen.standard_normal((size, sampler.xi.n_gaussians))
        v = g @ sampler.xi.factor.T
        xi = (v[:, : d * d] + 1j * v[:, d * d :]).reshape(size, d, d)
        want = sampler.prefix @ expm(xi)

        assert got.shape == (size, d, d)
        assert np.abs(got - want).max() <= 1e-13
        assert gen.bit_generator.state == ref_gen.bit_generator.state


class TestFusedKernel:
    """The one-qubit kernel, e^mu (c P + t A) from one matrix product of
    the normals, against prefix @ expm_2x2(Xi) on the same normals, with
    Xi read off ``xi.factor``.  Scale 30 reaches the series' scaling
    branch, and a jump with a trace (PROJ_1) the np.exp branch of e^mu."""

    @staticmethod
    def check(sampler, seed=23):
        normals = np.random.default_rng(seed).standard_normal((1000, sampler.xi.n_gaussians))
        out = np.empty((2, 2, 1000), dtype=complex)
        got = sampler.sample_batch(normals, Workspace(), out=out)
        v = normals @ sampler.xi.factor.T
        xi = (v[:, :4] + 1j * v[:, 4:]).reshape(-1, 2, 2)
        assert got.shape == (1000, 2, 2) and np.shares_memory(got, out)
        assert np.abs(got - mul_2x2(sampler.prefix, expm_2x2(xi))).max() <= 1e-14
        d00 = 0.5 * (xi[:, 0, 0] - xi[:, 1, 1])
        q2 = d00 * d00 + xi[:, 0, 1] * xi[:, 1, 0]
        mu = 0.5 * (xi[:, 0, 0] + xi[:, 1, 1])
        return _series_terms(np.abs(q2).max())[1], np.abs(mu).max()

    @pytest.mark.parametrize("name", ["X", "SX", "RX"])
    def test_matches_expm_2x2_at_desk_noise(self, name):
        scaling, mu = self.check(desk_sampler(name))
        assert scaling == 0 and mu <= _EXP_MU_LINEAR

    @pytest.mark.parametrize("name", ["X", "SX", "RX"])
    def test_matches_expm_2x2_in_the_scaling_branch(self, name):
        scaling, _ = self.check(desk_sampler(name, 30.0))
        assert scaling > 0

    def test_matches_expm_2x2_with_a_traced_jump(self):
        ctx = make_context((PROJ_1, 0.04), (DECAY, 0.02))
        sampler = NoisyGateSampler(schedule(GateSpec("X", (0,)).with_duration(1.0)), ctx)
        _, mu = self.check(sampler)
        assert mu > _EXP_MU_LINEAR

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_normals(self, bad):
        sampler = desk_sampler("X")
        normals = np.random.default_rng(24).standard_normal((64, sampler.xi.n_gaussians))
        normals[17, 2] = bad
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(ValueError, match="non-finite"):
            sampler.sample_batch(normals, Workspace())


class TestSampleBatchWorkspace:
    """Two-qubit ``sample_batch`` runs in a caller-held workspace: results
    within 1e-14 of ``prefix @ scipy.linalg.expm(xi)`` on the same draws,
    relative to each matrix's largest entry, bit-identical however the
    workspace was used before, and never a view into it."""

    @pytest.mark.parametrize("name", ["CNOT", "CR"])
    @pytest.mark.parametrize("noise_scale", [1.0, 30.0])
    def test_matches_expm_bit_for_bit(self, name, noise_scale):
        sampler = desk_sampler(name, noise_scale)
        ws = Workspace()
        gen = np.random.default_rng(17)
        for _ in range(2):  # a cold workspace, then a warm one
            ref_gen = copy.deepcopy(gen)
            got = draw_batch(sampler, gen, 1000, ws)
            xi = sampler.xi.sample(ref_gen, 1000, Workspace())
            for g, m in zip(got, xi):
                want = sampler.prefix @ scipy.linalg.expm(m)
                assert np.abs(g - want).max() <= 1e-14 * np.abs(want).max()
            assert gen.bit_generator.state == ref_gen.bit_generator.state
        # the 30x draws take the scaling and squaring branch
        traceless = xi - np.trace(xi, axis1=1, axis2=2)[:, None, None] / 4 * np.eye(4)
        assert (_taylor_terms(np.abs(traceless).sum(axis=-2).max())[1] > 0) == (noise_scale > 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_normals(self, bad):
        sampler = desk_sampler("CNOT")
        normals = np.random.default_rng(25).standard_normal((64, sampler.xi.n_gaussians))
        normals[17, 2] = bad
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(ValueError, match="non-finite"):
            sampler.sample_batch(normals, Workspace())

    def test_zero_noise_returns_prefix(self):
        sampler = desk_sampler("CNOT", 0.0)
        gen = np.random.default_rng(18)
        state = copy.deepcopy(gen.bit_generator.state)
        batch = draw_batch(sampler, gen, 5, Workspace())
        assert np.array_equal(batch, np.broadcast_to(sampler.prefix, (5, 4, 4)))
        assert gen.bit_generator.state == state

    def test_sizes_and_samplers_in_turn_leave_no_stale_data(self):
        ws = Workspace()
        gen = np.random.default_rng(19)
        for name, size in [("CNOT", 1000), ("CR", 64), ("CNOT", 1000), ("CR", 1000), ("CNOT", 64)]:
            sampler = desk_sampler(name)
            ref_gen = copy.deepcopy(gen)
            assert np.array_equal(draw_batch(sampler, gen, size, ws), draw_batch(sampler, ref_gen, size, Workspace()))

    def test_returned_batch_is_not_aliased(self):
        sampler = desk_sampler("CNOT")
        ws = Workspace()
        gen = np.random.default_rng(20)
        first = draw_batch(sampler, gen, 1000, ws)
        kept = first.copy()
        second = draw_batch(sampler, gen, 1000, ws)
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, second)
        assert not np.array_equal(first, second)

    def test_normals_drawn_into_a_buffer_follow_the_stream(self):
        # the engine's Philox streams
        a, b = RngStream(21).generator, RngStream(21).generator
        buf = np.empty((1000, 21))
        for _ in range(2):
            assert np.array_equal(a.standard_normal(out=buf), b.standard_normal((1000, 21)))
        assert a.random() == b.random()

    def test_warm_call_allocates_little_beyond_its_output(self):
        sampler = desk_sampler("CNOT")
        ws = Workspace()
        gen = np.random.default_rng(22)
        draw_batch(sampler, gen, 1000, ws)
        normals = gen.standard_normal((1000, sampler.xi.n_gaussians))
        tracemalloc.start()
        try:
            out = sampler.sample_batch(normals, ws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * out.nbytes


class TestSpamGate:
    def test_zero_strength(self):
        assert np.allclose(sample_spam_gate(0.0, RngStream(1)), I2)
        # nothing is drawn at v = 0, so the angles are not read
        np.testing.assert_array_equal(spam_gate_batch(0.0, np.ones(3)), np.broadcast_to(I2, (3, 2, 2)))

    def test_every_draw_unitary(self):
        batch = draw_spam(0.3466, RngStream(2).generator, 200)
        for u in batch:
            assert np.abs(dagger(u) @ u - I2).max() <= 1e-10

    def test_bitflip_ensemble(self):
        batch = draw_spam(math.log(2) / 2, RngStream(3).generator, 100_000)
        rho = np.array([[1, 0], [0, 0]], dtype=complex)
        avg = np.einsum("sij,jk,slk->il", batch, rho, batch.conj()) / batch.shape[0]
        assert np.abs(avg - np.diag([0.75, 0.25])).max() < 0.005


class TestRelaxationGate:
    def test_reads_one_row_of_normals_per_variance(self):
        assert [relaxation_normals(*r) for r in [(0.1, 0.2, 1.0), (0.1, 0.0, 1.0), (0.0, 0.2, 1.0), (0.0, 0.0, 1.0)]] == [2, 1, 1, 0]
        normals = np.random.default_rng(25).standard_normal((2, 8))
        with pytest.raises(ValueError, match="expected 1 rows"):
            relaxation_gate_batch(0.1, 0.0, 1.0, normals)
        # the phase row first, then the transfer row
        batch = relaxation_gate_batch(0.1, 0.2, 1.0, normals)
        assert np.allclose(np.angle(batch[:, 0, 0]), math.sqrt(0.05) * normals[0])
        assert np.allclose(np.abs(batch[:, 0, 1]), math.sqrt(-math.expm1(-0.1)) * np.abs(normals[1]))

    def test_fills_a_strided_out_over_stale_data(self):
        normals = np.random.default_rng(26).standard_normal((2, 8))
        buf = np.full((2, 2, 8), np.nan, dtype=complex)
        out = relaxation_gate_batch(0.1, 0.2, 1.0, normals, out=buf.transpose(2, 0, 1))
        assert np.shares_memory(out, buf)
        np.testing.assert_array_equal(out, relaxation_gate_batch(0.1, 0.2, 1.0, normals))

    def test_zero_rates_identity(self):
        assert np.allclose(sample_relaxation_gate(0.0, 0.0, 1.0, RngStream(4)), I2)

    def test_transfer_variance(self):
        g1, dt = 0.7, 1.0
        batch = draw_relaxation(g1, 0.0, dt, RngStream(5).generator, 100_000)
        s = np.abs(batch[:, 0, 1])
        var = (s**2).mean()
        want = 1 - math.exp(-g1 * dt)
        se = (s**2).std() / math.sqrt(s.size)
        assert abs(var - want) < 3 * se

    @pytest.mark.parametrize("g1dt,gpddt", [(0.1, 0.05), (math.log(2), 0.2)])
    def test_ensemble_matches_channel(self, g1dt, gpddt):
        channel = relaxation_channel(g1dt, gpddt, 1.0)
        states = {
            "zero": np.diag([1.0, 0.0]).astype(complex),
            "one": np.diag([0.0, 1.0]).astype(complex),
            "plus": np.full((2, 2), 0.5, dtype=complex),
        }
        batch = draw_relaxation(g1dt, gpddt, 1.0, RngStream(6).generator, 100_000)
        for rho in states.values():
            avg = np.einsum("sij,jk,slk->il", batch, rho, batch.conj()) / batch.shape[0]
            assert np.abs(avg - apply_channel(rho, channel, (0,))).max() < 0.005

    def test_coherence_factor(self):
        g1dt, gpddt = math.log(2), 0.2
        p1 = 1 - math.exp(-g1dt)
        pz = (1 - p1) * (1 - math.exp(-gpddt))
        rho = np.full((2, 2), 0.5, dtype=complex)
        batch = draw_relaxation(g1dt, gpddt, 1.0, RngStream(7).generator, 200_000)
        avg = np.einsum("sij,jk,slk->il", batch, rho, batch.conj()) / batch.shape[0]
        assert abs(avg[0, 1]) == pytest.approx(0.5 * math.sqrt(1 - p1 - pz), abs=0.004)


class TestCommutatorDiagnostic:
    def test_commuting_family_vanishes(self):
        ctx = make_context((PAULI_Z, 0.1), (PAULI_Z, 0.2))
        c = estimate_commutator_term(IDLE_SCHED, ctx, RngStream(8), m_substeps=256)
        assert np.abs(c).max() < 1e-14

    def test_single_jump_idle_vanishes(self):
        ctx = make_context((DECAY, 0.3))
        c = estimate_commutator_term(IDLE_SCHED, ctx, RngStream(9), m_substeps=256)
        assert np.abs(c).max() < 1e-14

    def test_generic_context_below_cubic_budget(self):
        sched = schedule(GateSpec("X", (0,)).with_duration(1.0))
        ctx = make_context((DECAY, 0.04), (PAULI_Z, 0.01))
        path = build_substep_path(ctx, 2048, RngStream(10))
        c = estimate_commutator_term(sched, ctx, path=path)
        eps_total = math.sqrt(sum(t.epsilon**2 for t in ctx.terms))
        assert 0.5 * np.abs(c).max() < 10 * eps_total**3


class TestSmallNoiseReference:
    def test_zero_noise_is_identity_factor(self):
        sched = schedule(GateSpec("X", (0,)).with_duration(1.0))
        ctx = NoiseContext(terms=(), gate_duration=1.0)
        path = build_substep_path(ctx, 16, RngStream(11))
        assert np.allclose(small_noise_reference(sched, ctx, path), I2)

    def test_shared_path_third_order(self):
        sched = schedule(GateSpec("X", (0,)).with_duration(1.0))
        ctx = make_context((DECAY, 0.04), (PAULI_Z, 0.005))
        path = build_substep_path(ctx, 4096, RngStream(12))
        resids = []
        scales = (1.0, 0.5, 0.25)
        for scale in scales:
            sctx = scale_context(ctx, scale)
            exp_side = expm(lambda_matrix(sched, sctx)) @ expm(
                xi_from_path(sched, sctx, path, include_commutator=True)
            )
            resids.append(np.abs(exp_side - small_noise_reference(sched, sctx, path)).max())
        slope = np.polyfit(np.log([0.2 * s for s in scales]), np.log(resids), 1)[0]
        assert slope >= 2.5
