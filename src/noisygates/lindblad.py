"""Reference density-matrix integrator for the driven Lindblad equation
in a slot's own time s = t / T over [0, 1],

    d rho / ds = -i [H, rho] + sum_k eps_k^2 (L rho L^dag - 1/2 {L^dag L, rho})

with a constant generator H (the drive over the whole slot, so H = T h
for a Hamiltonian h in 1/s) and each jump at rate eps_k^2 = gamma_k T.
Nothing divides by T, however short the slot.  Classic fixed-step RK4:
because the equation is linear and autonomous, one RK4 step is a fixed
superoperator on row-major vec(rho) (the convention of
``linalg.superoperator``), and ``steps`` equal steps are the matrix
power step^steps (:func:`rk4_map`).  :func:`solve` applies one such map
to an initial state and symmetrises the result, which keeps round-off
drift down.  The density-matrix back-ends take only
:func:`rhs_superoperator` from here: each slot map of the circuit
reference (``experiments.lindblad_reference``) is the exact exponential
(``linalg.expm``) of that generator, and the channel simulator
exponentiates it with a zero generator over the depolarising and the
relaxation terms in turn (both in ``channels``).  RK4 serves
:func:`solve` alone.
"""

from __future__ import annotations

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


def rhs_superoperator(generator: np.ndarray, terms: Sequence[LindbladTerm]) -> np.ndarray:
    """Matrix M acting on row-major vec(rho) with vec(d rho/ds) = M vec(rho),
    each term at rate epsilon^2."""
    h = np.asarray(generator, dtype=complex)
    d = h.shape[0]
    eye = np.eye(d, dtype=complex)
    m = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for term in terms:
        rate, op = term.epsilon**2, term.operator
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


def rk4_map(rhs_matrix: np.ndarray, steps: int) -> np.ndarray:
    """RK4 propagator over s in [0, 1] in ``steps`` equal steps: the step
    matrix raised to ``steps``."""
    return np.linalg.matrix_power(rk4_step_matrix(rhs_matrix, 1.0 / steps), steps)


def solve(
    generator: np.ndarray,
    terms: Sequence[LindbladTerm],
    rho0: np.ndarray,
    steps: int,
) -> np.ndarray:
    """rho at the end of a slot under ``generator`` and the jump ``terms``
    (:func:`rhs_superoperator`), from ``rho0``.

    One :func:`rk4_map` of ``steps`` (an int >= 1) equal steps, then
    Hermitian symmetrisation.  Raises ``FloatingPointError`` if the state
    leaves the finite range (instability).
    """
    if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
        raise ValueError(f"steps must be an int >= 1, got {steps!r}")
    prop = rk4_map(rhs_superoperator(generator, terms), steps)
    rho = np.asarray(rho0, dtype=complex)
    rho = (prop @ rho.reshape(-1)).reshape(rho.shape)
    rho = 0.5 * (rho + dagger(rho))
    if not np.all(np.isfinite(rho)):
        raise FloatingPointError("Lindblad integration diverged")
    return rho
