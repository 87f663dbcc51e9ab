"""Reference density-matrix integrator for the driven Lindblad equation

    d rho / dt = -i [H, rho] + sum_k gamma_k (L rho L^dag - 1/2 {L^dag L, rho})

with a piecewise-constant Hamiltonian schedule.  Classic fixed-step RK4:
because the equation is linear and autonomous on each constant piece,
one RK4 step is a fixed superoperator on row-major vec(rho) (the
convention of ``linalg.superoperator``), and a piece of ``steps`` equal
steps is the matrix power step^steps (:func:`rk4_map`), built once per
distinct piece and applied with Hermitian symmetrisation after it, which
keeps round-off drift down.  For a circuit,
``experiments.lindblad_reference`` builds one such map per distinct slot
on the slot's own qubits, so a long repeated-gate reference (tens of
thousands of gates) builds one map and stays cheap and bit-reproducible.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import basis_labels, dagger
from .noise_model import LindbladTerm

__all__ = [
    "LindbladProblem",
    "rhs_superoperator",
    "rk4_step_matrix",
    "rk4_map",
    "solve",
    "write_rho_series_csv",
]


@dataclass(frozen=True)
class LindbladProblem:
    """Hamiltonian schedule (generator in 1/s, duration in s) with jump
    terms on the full register and an initial density matrix."""

    hamiltonians: tuple[tuple[np.ndarray, float], ...]
    terms: tuple[LindbladTerm, ...]
    rho0: np.ndarray

    def __post_init__(self):
        for h, duration in self.hamiltonians:
            if not np.all(np.isfinite(h)):
                raise ValueError("non-finite Hamiltonian generator")
            if duration <= 0:
                raise ValueError("segment durations must be positive")


def rhs_superoperator(hamiltonian: np.ndarray, terms: Sequence[LindbladTerm]) -> np.ndarray:
    """Matrix M acting on row-major vec(rho) with vec(d rho/dt) = M vec(rho)."""
    h = np.asarray(hamiltonian, dtype=complex)
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    m = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for term in terms:
        rate, op = term.rate, term.operator
        if rate == 0.0:
            continue
        opd = dagger(op)
        opdop = opd @ op
        m += rate * (
            np.kron(op, op.conj())
            - 0.5 * np.kron(opdop, eye)
            - 0.5 * np.kron(eye, opdop.T)
        )
    return m


def rk4_step_matrix(rhs_matrix: np.ndarray, dt: float) -> np.ndarray:
    """Exact RK4 update matrix I + hM + (hM)^2/2 + (hM)^3/6 + (hM)^4/24."""
    hm = dt * rhs_matrix
    d2 = hm.shape[0]
    out = np.eye(d2, dtype=complex) + hm
    power = hm
    for k in (2, 3, 4):
        power = power @ hm / k
        out += power
    return out


def rk4_map(rhs_matrix: np.ndarray, duration: float, steps: int) -> np.ndarray:
    """RK4 propagator over ``duration`` in ``steps`` equal steps: the step
    matrix raised to ``steps``."""
    return np.linalg.matrix_power(rk4_step_matrix(rhs_matrix, duration / steps), steps)


def _propagate(prop: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """prop applied to row-major vec(rho), then Hermitian symmetrisation."""
    rho = (prop @ rho.reshape(-1)).reshape(rho.shape)
    return 0.5 * (rho + dagger(rho))


def solve(problem: LindbladProblem, dt_max: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """Integrate the problem, emitting rho at every segment boundary.

    The step divides each segment evenly with step <= dt_max, and each
    segment is one :func:`rk4_map`; segments with equal generator and
    duration share it.  Returns (times, states) including the initial
    state at t = 0.  Aborts with a diagnostic if the state leaves the
    finite range (instability).
    """
    if dt_max <= 0:
        raise ValueError("dt_max must be positive")
    maps: dict = {}
    rho = np.array(problem.rho0, dtype=complex)
    times = [0.0]
    states = [rho.copy()]
    t = 0.0
    for seg_index, (h, duration) in enumerate(problem.hamiltonians):
        key = (np.asarray(h, dtype=complex).tobytes(), np.shape(h), duration)
        if key not in maps:
            steps = max(1, math.ceil(duration / dt_max))
            maps[key] = rk4_map(rhs_superoperator(h, problem.terms), duration, steps)
        rho = _propagate(maps[key], rho)
        if not np.all(np.isfinite(rho)):
            raise FloatingPointError(
                f"Lindblad integration diverged in segment {seg_index} (t={t:g})"
            )
        t += duration
        times.append(t)
        states.append(rho.copy())
    return np.array(times), states


def write_rho_series_csv(path, times: np.ndarray, states: list[np.ndarray], diagonal_only: bool = False) -> None:
    """CSV dump: time, then row-major Re/Im of rho (or just the diagonal),
    each entry named by the big-endian bit strings of its basis states."""
    d = states[0].shape[0]
    labels = basis_labels(d)
    with open(path, "w", newline="") as fh:
        if diagonal_only:
            header = ["time_s"] + [f"rho_{b}" for b in labels]
            fh.write(",".join(header) + "\n")
            for t, rho in zip(times, states):
                row = [repr(float(t))] + [repr(float(np.real(rho[i, i]))) for i in range(d)]
                fh.write(",".join(row) + "\n")
            return
        header = ["time_s"]
        for bi in labels:
            for bj in labels:
                header += [f"re_rho_{bi}_{bj}", f"im_rho_{bi}_{bj}"]
        fh.write(",".join(header) + "\n")
        for t, rho in zip(times, states):
            row = [repr(float(t))]
            for i in range(d):
                for j in range(d):
                    row += [repr(float(np.real(rho[i, j]))), repr(float(np.imag(rho[i, j])))]
            fh.write(",".join(row) + "\n")
