import math

import numpy as np
import pytest

from noisygates.lindblad import (
    LindbladProblem,
    rhs_superoperator,
    rk4_map,
    rk4_step_matrix,
    solve,
    write_rho_series_csv,
)
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
        problem = LindbladProblem(
            hamiltonians=((np.zeros((2, 2)), horizon),),
            terms=relax_terms(gamma1, gamma_pd, horizon),
            rho0=RHO0,
        )
        _, states = solve(problem, horizon / 100)
        out = states[-1]
        assert out[1, 1].real == pytest.approx(
            RHO0[1, 1].real * math.exp(-gamma1 * horizon), abs=1e-8
        )
        decay = math.exp(-0.5 * (gamma1 + gamma_pd) * horizon)
        assert abs(out[0, 1] - RHO0[0, 1] * decay) < 1e-8

    def test_unitary_limit(self):
        h = 3.0 * PAULI_X
        t = 0.7
        problem = LindbladProblem(hamiltonians=((h, t),), terms=(), rho0=RHO0)
        _, states = solve(problem, t / 400)
        u = expm(-1j * h * t)
        assert np.abs(states[-1] - u @ RHO0 @ dagger(u)).max() < 1e-8

    def test_trace_drift_over_many_steps(self):
        horizon = 1.0e-3
        problem = LindbladProblem(
            hamiltonians=((1e5 * PAULI_X, horizon),),
            terms=relax_terms(1.0e4, 1.5e4, horizon),
            rho0=RHO0,
        )
        _, states = solve(problem, horizon / 10_000)
        assert abs(np.trace(states[-1]).real - 1.0) < 1e-9
        assert np.abs(states[-1] - dagger(states[-1])).max() < 1e-10

    def test_fourth_order_convergence(self):
        gamma1 = 1.0e4
        horizon = 2.0e-4
        problem = LindbladProblem(
            hamiltonians=((np.zeros((2, 2)), horizon),),
            terms=relax_terms(gamma1, 0.0, horizon),
            rho0=RHO0,
        )
        exact11 = RHO0[1, 1].real * math.exp(-gamma1 * horizon)
        errs = []
        steps = (10, 20, 40)
        for n in steps:
            _, states = solve(problem, horizon / n)
            errs.append(abs(states[-1][1, 1].real - exact11))
        slope = np.polyfit(np.log([horizon / n for n in steps]), np.log(errs), 1)[0]
        assert slope >= 3.7

    def test_segment_boundaries_emitted(self):
        problem = LindbladProblem(
            hamiltonians=((np.zeros((2, 2)), 1.0), (PAULI_X, 2.0)),
            terms=(),
            rho0=RHO0,
        )
        times, states = solve(problem, 0.25)
        assert np.allclose(times, [0.0, 1.0, 3.0])
        assert len(states) == 3


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


class TestCsv:
    def test_roundtrip_shapes(self, tmp_path):
        times = np.array([0.0, 1.0])
        states = [RHO0, RHO0]
        full = tmp_path / "full.csv"
        diag = tmp_path / "diag.csv"
        write_rho_series_csv(full, times, states)
        write_rho_series_csv(diag, times, states, diagonal_only=True)
        assert full.read_text().splitlines()[0].startswith("time_s,re_rho_0_0,im_rho_0_0,re_rho_0_1")
        rows = diag.read_text().splitlines()
        assert rows[0] == "time_s,rho_0,rho_1"
        assert len(rows) == 3

    @pytest.mark.parametrize("n_qubits, diagonal_only", [(5, False), (7, True)])
    def test_header_names_are_unique_bit_strings(self, tmp_path, n_qubits, diagonal_only):
        d = 2**n_qubits
        path = tmp_path / "rho.csv"
        write_rho_series_csv(path, np.array([0.0]), [np.eye(d) / d], diagonal_only=diagonal_only)
        header = path.read_text().splitlines()[0].split(",")
        assert len(header) == 1 + (d if diagonal_only else 2 * d * d)
        assert len(set(header)) == len(header)
        if diagonal_only:
            assert header[1 + 10] == "rho_0001010"
        else:
            # entries (1, 23) and (12, 3), which undelimited indices would merge
            assert header[1 + 2 * (d * 1 + 23)] == "re_rho_00001_10111"
            assert header[1 + 2 * (d * 12 + 3)] == "re_rho_01100_00011"
