"""Reference density-matrix integrator for the driven Lindblad equation

    d rho / dt = -i [H, rho] + sum_k gamma_k (L rho L^dag - 1/2 {L^dag L, rho})

with a constant Hamiltonian.  Classic fixed-step RK4: because the
equation is linear and autonomous, one RK4 step is a fixed
superoperator on row-major vec(rho) (the convention of
``linalg.superoperator``), and ``steps`` equal steps are the matrix
power step^steps (:func:`rk4_map`).  :func:`solve` applies one such map
to an initial state and symmetrises the result, which keeps round-off
drift down.  The circuit reference, ``experiments.lindblad_reference``,
takes only :func:`rhs_superoperator` from here: each of its slot maps is
the exact exponential of that generator (``linalg.expm``), so RK4
serves :func:`solve` alone.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .linalg import dagger
from .noise_model import LindbladTerm

__all__ = [
    "rhs_superoperator",
    "rk4_step_matrix",
    "rk4_map",
    "solve",
]


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


def solve(
    hamiltonian: np.ndarray,
    terms: Sequence[LindbladTerm],
    rho0: np.ndarray,
    duration: float,
    dt_max: float,
) -> np.ndarray:
    """rho after ``duration`` under ``hamiltonian`` (generator in 1/s) and
    the jump ``terms``, from ``rho0``.

    One :func:`rk4_map` of max(1, ceil(duration / dt_max)) equal steps,
    then Hermitian symmetrisation.  Raises ``FloatingPointError`` if the
    state leaves the finite range (instability).
    """
    if duration <= 0 or dt_max <= 0:
        raise ValueError("duration and dt_max must be positive")
    steps = max(1, math.ceil(duration / dt_max))
    prop = rk4_map(rhs_superoperator(hamiltonian, terms), duration, steps)
    rho = np.asarray(rho0, dtype=complex)
    rho = (prop @ rho.reshape(-1)).reshape(rho.shape)
    rho = 0.5 * (rho + dagger(rho))
    if not np.all(np.isfinite(rho)):
        raise FloatingPointError("Lindblad integration diverged")
    return rho
