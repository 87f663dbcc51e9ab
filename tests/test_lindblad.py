import math

import numpy as np
import pytest

from noisygates.lindblad import rhs_superoperator, rk4_map, rk4_step_matrix, solve
from noisygates.linalg import DECAY, PAULI_X, PAULI_Z, dagger, expm
from noisygates.noise_model import LindbladTerm

RHO0 = np.array([[0.4, 0.3 - 0.1j], [0.3 + 0.1j, 0.6]], dtype=complex)


def lindblad_rhs(rho: np.ndarray, hamiltonian: np.ndarray, terms) -> np.ndarray:
    """Oracle for rhs_superoperator: the master equation's right-hand
    side evaluated on rho directly."""
    rho = np.asarray(rho, dtype=complex)
    h = np.asarray(hamiltonian, dtype=complex)
    out = -1j * (h @ rho - rho @ h)
    for term in terms:
        rate, op = term.rate, term.operator
        if rate == 0.0:
            continue
        opd = dagger(op)
        opdop = opd @ op
        out += rate * (op @ rho @ opd - 0.5 * (opdop @ rho + rho @ opdop))
    return out


def relax_terms(gamma1, gamma_pd, horizon=1.0):
    return (
        LindbladTerm.from_rate(DECAY, gamma1, horizon),
        LindbladTerm.from_rate(PAULI_Z, gamma_pd / 4, horizon),
    )


class TestRhs:
    def test_trivial(self):
        out = lindblad_rhs(RHO0, np.zeros((2, 2)), ())
        assert np.abs(out).max() == 0.0

    def test_bitflip_on_ground_state(self):
        gamma = 0.7
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = lindblad_rhs(rho, np.zeros((2, 2)), (LindbladTerm.from_rate(PAULI_X, gamma, 1.0),))
        assert np.allclose(out, gamma * np.diag([-1.0, 1.0]))

    def test_traceless(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        h = rng.normal(size=(2, 2))
        h = 0.5 * (h + h.T)
        out = lindblad_rhs(rho, h, relax_terms(1.3, 0.8))
        assert abs(np.trace(out)) < 1e-12

    def test_superoperator_consistent(self):
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        terms = relax_terms(0.9, 0.4)
        m = rhs_superoperator(h, terms)
        direct = lindblad_rhs(RHO0, h, terms)
        assert np.allclose(m @ RHO0.reshape(-1), direct.reshape(-1), atol=1e-13)


class TestSolve:
    def test_relaxation_analytic(self):
        gamma1, gamma_pd = 1.0e4, 1.5e4
        horizon = 2.0e-4
        terms = relax_terms(gamma1, gamma_pd, horizon)
        out = solve(np.zeros((2, 2)), terms, RHO0, horizon, horizon / 100)
        assert out[1, 1].real == pytest.approx(
            RHO0[1, 1].real * math.exp(-gamma1 * horizon), abs=1e-8
        )
        decay = math.exp(-0.5 * (gamma1 + gamma_pd) * horizon)
        assert abs(out[0, 1] - RHO0[0, 1] * decay) < 1e-8

    def test_unitary_limit(self):
        h = 3.0 * PAULI_X
        t = 0.7
        out = solve(h, (), RHO0, t, t / 400)
        u = expm(-1j * h * t)
        assert np.abs(out - u @ RHO0 @ dagger(u)).max() < 1e-8

    def test_trace_drift_over_many_steps(self):
        horizon = 1.0e-3
        out = solve(1e5 * PAULI_X, relax_terms(1.0e4, 1.5e4, horizon), RHO0, horizon, horizon / 10_000)
        assert abs(np.trace(out).real - 1.0) < 1e-9
        assert np.abs(out - dagger(out)).max() < 1e-10

    def test_fourth_order_convergence(self):
        gamma1 = 1.0e4
        horizon = 2.0e-4
        terms = relax_terms(gamma1, 0.0, horizon)
        exact11 = RHO0[1, 1].real * math.exp(-gamma1 * horizon)
        errs = []
        steps = (10, 20, 40)
        for n in steps:
            out = solve(np.zeros((2, 2)), terms, RHO0, horizon, horizon / n)
            errs.append(abs(out[1, 1].real - exact11))
        slope = np.polyfit(np.log([horizon / n for n in steps]), np.log(errs), 1)[0]
        assert slope >= 3.7

    def test_one_map_of_rounded_up_steps(self):
        # horizon / 100 rounds to a quotient just above 100, so 101 steps
        horizon = 2.0e-4
        terms = relax_terms(1.0e4, 1.5e4, horizon)
        assert math.ceil(horizon / (horizon / 100)) == 101
        m = rhs_superoperator(np.zeros((2, 2)), terms)
        want = (rk4_map(m, horizon, 101) @ RHO0.reshape(-1)).reshape(2, 2)
        want = 0.5 * (want + dagger(want))
        assert np.array_equal(solve(np.zeros((2, 2)), terms, RHO0, horizon, horizon / 100), want)

    def test_divergence_raises(self):
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="diverged"):
            solve(np.zeros((2, 2)), relax_terms(1e200, 0.0), RHO0, 1.0, 1.0)

    @pytest.mark.parametrize("duration, dt_max", [(0.0, 0.1), (1.0, 0.0), (-1.0, 0.1)])
    def test_nonpositive_duration_or_step_rejected(self, duration, dt_max):
        with pytest.raises(ValueError, match="must be positive"):
            solve(np.zeros((2, 2)), (), RHO0, duration, dt_max)


class TestRk4Map:
    @pytest.mark.parametrize("steps", [1, 7, 100])
    def test_power_equals_stepping(self, steps):
        h = np.kron(PAULI_X, PAULI_Z)
        terms = (LindbladTerm.from_rate(np.kron(DECAY, np.eye(2)), 0.3, 1.0),)
        m = rhs_superoperator(h, terms)
        step = rk4_step_matrix(m, 0.5 / steps)
        rho = np.kron(RHO0, np.diag([1.0, 0.0])).reshape(-1)
        stepped = rho
        for _ in range(steps):
            stepped = step @ stepped
        assert np.abs(rk4_map(m, 0.5, steps) @ rho - stepped).max() < 1e-13
