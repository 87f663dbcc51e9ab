"""Reference density-matrix integrator for the driven Lindblad equation

    d rho / dt = -i [H, rho] + sum_k gamma_k (L rho L^dag - 1/2 {L^dag L, rho})

with a piecewise-constant Hamiltonian schedule.  A segment is a stretch
of time with constant Hamiltonian and jump terms; for a circuit,
``experiments.lindblad_reference`` cuts each layer into segments at the
edges of its slots' time windows, one segment for a layer of equal
durations.  Classic fixed-step RK4; because the equation is linear and
autonomous on each segment, one RK4 step is a fixed superoperator,
built once per distinct segment.  A
segment whose steps over all its uses outweigh the cost of powering that
matrix (see :func:`segment_map`) is applied as the whole-segment map
step^steps, with Hermitian symmetrisation at each segment boundary;
otherwise it is applied step by step, symmetrising after every step.
Either way round-off drift is suppressed, and long repeated-gate
references (tens of thousands of gates) stay cheap and bit-reproducible.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Hashable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .linalg import dagger
from .noise_model import LindbladTerm

__all__ = [
    "LindbladProblem",
    "rhs_superoperator",
    "rk4_step_matrix",
    "SegmentMap",
    "segment_map",
    "cached_segment_maps",
    "solve",
    "repeated_gate_solve",
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


@dataclass(frozen=True)
class SegmentMap:
    """RK4 propagation across one constant segment: ``matrix`` applied
    ``repeats`` times to row-major vec(rho), symmetrising rho after each
    application."""

    matrix: np.ndarray
    repeats: int

    def apply(self, rho: np.ndarray) -> np.ndarray:
        d = rho.shape[0]
        for _ in range(self.repeats):
            rho = (self.matrix @ rho.reshape(-1)).reshape(d, d)
            rho = 0.5 * (rho + dagger(rho))
        return rho


def segment_map(hamiltonian: np.ndarray, terms, duration: float, steps: int, uses: int = 1) -> SegmentMap:
    """RK4 map of a segment of ``steps`` equal steps that occurs ``uses``
    times.

    Stepping costs uses * steps products with vec(rho); powering the
    D x D step matrix (D = d^2) costs at most 2 ceil(log2 steps) products
    of D x D matrices, i.e. that many times D such products.  The segment
    is mapped as step^steps when stepping would cost more, else stepped.
    Both agree in exact arithmetic.
    """
    step = rk4_step_matrix(rhs_superoperator(hamiltonian, terms), duration / steps)
    if uses * steps > 2 * math.ceil(math.log2(steps)) * step.shape[0]:
        return SegmentMap(np.linalg.matrix_power(step, steps), 1)
    return SegmentMap(step, steps)


def cached_segment_maps(
    keys: Sequence[Hashable], build: Callable[[Hashable, int], SegmentMap]
) -> Iterator[SegmentMap]:
    """The map of each segment in order, for segments identified by
    content ``keys``.  ``build(key, uses)`` runs once per distinct key,
    and each map is dropped after its key's last occurrence."""
    uses = Counter(keys)
    last = {key: i for i, key in enumerate(keys)}
    cache: dict[Hashable, SegmentMap] = {}
    for i, key in enumerate(keys):
        if key not in cache:
            cache[key] = build(key, uses[key])
        yield cache[key]
        if last[key] == i:
            del cache[key]


def solve(problem: LindbladProblem, dt_max: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """Integrate the problem, emitting rho at every segment boundary.

    The step divides each segment evenly with step <= dt_max.  Segments
    with equal generator and duration share one map.  Returns (times,
    states) including the initial state at t = 0.  Aborts with a
    diagnostic if the state leaves the finite range (instability).
    """
    if dt_max <= 0:
        raise ValueError("dt_max must be positive")
    segments = {}
    keys = []
    for h, duration in problem.hamiltonians:
        key = (np.asarray(h, dtype=complex).tobytes(), np.shape(h), duration)
        segments.setdefault(key, (h, duration))
        keys.append(key)

    def build(key, uses):
        h, duration = segments[key]
        return segment_map(h, problem.terms, duration, max(1, math.ceil(duration / dt_max)), uses)

    rho = np.array(problem.rho0, dtype=complex)
    times = [0.0]
    states = [rho.copy()]
    t = 0.0
    maps = cached_segment_maps(keys, build)
    for seg_index, ((_, duration), seg_map) in enumerate(zip(problem.hamiltonians, maps)):
        rho = seg_map.apply(rho)
        if not np.all(np.isfinite(rho)):
            raise FloatingPointError(
                f"Lindblad integration diverged in segment {seg_index} (t={t:g})"
            )
        t += duration
        times.append(t)
        states.append(rho.copy())
    return np.array(times), states


def repeated_gate_solve(
    hamiltonian: np.ndarray,
    duration: float,
    terms,
    n_gates: int,
    rho0: np.ndarray,
    steps_per_gate: int = 100,
    record_every: int = 1,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Fast path for long chains of one identical gate.

    Builds one :func:`segment_map` for the gate, used ``n_gates`` times
    (so long chains apply step^steps_per_gate once per gate), and records
    every ``record_every``-th gate.  Identical in exact arithmetic to
    :func:`solve` on the same grid; used for asymptote diagnostics over
    thousands of gates.
    """
    gate_map = segment_map(hamiltonian, terms, duration, steps_per_gate, n_gates)
    rho = np.array(rho0, dtype=complex)
    times = [0.0]
    states = [rho.copy()]
    for g in range(1, n_gates + 1):
        rho = gate_map.apply(rho)
        if not np.all(np.isfinite(rho)):
            raise FloatingPointError(f"Lindblad integration diverged at gate {g}")
        if g % record_every == 0 or g == n_gates:
            times.append(g * duration)
            states.append(rho.copy())
    return np.array(times), states


def write_rho_series_csv(path, times: np.ndarray, states: list[np.ndarray], diagonal_only: bool = False) -> None:
    """CSV dump: time, then row-major Re/Im of rho (or just the diagonal)."""
    d = states[0].shape[0]
    with open(path, "w", newline="") as fh:
        if diagonal_only:
            header = ["time_s"] + [f"rho_{i}{i}" for i in range(d)]
            fh.write(",".join(header) + "\n")
            for t, rho in zip(times, states):
                row = [repr(float(t))] + [repr(float(np.real(rho[i, i]))) for i in range(d)]
                fh.write(",".join(row) + "\n")
            return
        header = ["time_s"]
        for i in range(d):
            for j in range(d):
                header += [f"re_rho_{i}{j}", f"im_rho_{i}{j}"]
        fh.write(",".join(header) + "\n")
        for t, rho in zip(times, states):
            row = [repr(float(t))]
            for i in range(d):
                for j in range(d):
                    row += [repr(float(np.real(rho[i, j]))), repr(float(np.imag(rho[i, j])))]
            fh.write(",".join(row) + "\n")
