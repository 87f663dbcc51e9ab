"""Ideal gate library and stochastic noisy-gate constructors.

Every driven gate is modelled as a constant-generator pulse traversed
linearly in rescaled time s in [0, 1]: U_s = exp(-i s G) with
U_1 = U_g.  A noisy realisation of the gate is

    N = U_g  exp(Lambda)  exp(Xi)

where Lambda collects the deterministic second-order drift of the jump
operators in the interaction picture L_s = U_s^dag L U_s,

    Lambda = -1/2 sum_k eps_k^2 int_0^1 (L_s^dag L_s - L_s^2) ds,

and Xi = i sum_k eps_k int_0^1 L_{k,s} dW_{k,s} is one exact Gaussian
draw: the Wiener processes are independent, so its covariance is the
sum of the per-term Ito covariances, factored once per gate.  The
ensemble average of N rho N^dag reproduces the driven Lindblad
evolution over the gate to second order in the noise amplitudes
eps_k = sqrt(rate_k * duration).

Idle relaxation and pre-measurement bitflip noise admit exactly
sampleable gates (no truncation); both are provided here, as are the
substep-path utilities used to cross-validate the exponential form
against the truncated perturbative series on a shared noise path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import I2, PAULI_X, PAULI_Y, PAULI_Z, PROJ_1, Workspace, cosh_sinhc, dagger, exp_mu, expm, expm4_soa, kron
from .noise_model import NoiseContext, LindbladTerm, is_finite_number
from .stochastic import RngStream, _psd_factor, gauss_legendre_rule

__all__ = [
    "GATE_KINDS",
    "GateKind",
    "GateSpec",
    "MAX_THETA",
    "DriveSchedule",
    "ideal_unitary",
    "drive_generator",
    "schedule",
    "lambda_matrix",
    "XiSampler",
    "NoisyGateSampler",
    "spam_gate_batch",
    "relaxation_gate_batch",
    "relaxation_normals",
    "SubstepPath",
    "build_substep_path",
    "xi_from_path",
    "small_noise_reference",
    "scale_context",
]

class GateKind(NamedTuple):
    """What every gate of one kind shares: how many qubits it acts on, the
    angles it reads and whether it has a drive (which a zero duration
    would make infinite)."""

    arity: int
    angles: tuple[str, ...]
    driven: bool


# The one table of gate kinds.  RZ is a virtual frame change and IDLE a
# relaxation slot; neither has a drive.
GATE_KINDS = {
    "RZ": GateKind(1, ("phi",), False),
    "RX": GateKind(1, ("theta", "phi"), True),
    "X": GateKind(1, ("phi",), True),
    "SX": GateKind(1, ("phi",), True),
    "CR": GateKind(2, ("theta", "phi"), True),
    "CNOT": GateKind(2, (), True),
    "IDLE": GateKind(1, (), False),
}

# Largest |theta| a gate takes: at 1e6 the Lindblad slot map of RX(theta) is
# within 1.5e-11 of its largest entry from a 60-digit mpmath expm (scipy's
# expm: 7.3e-11); it is 3.6e-5 from scipy's at 1e12 and overflows near 1e30.
MAX_THETA = 1e6


@dataclass(frozen=True)
class GateSpec:
    """One gate instance: kind, target qubits and (optional) duration.

    ``theta``/``phi`` parametrise rotations; ``duration`` is in seconds
    and may be left None to be filled in from device calibration when
    the circuit is scheduled.  RZ is a virtual frame change: noiseless,
    and its duration is stored as 0.0 whether given as None or 0.

    Construction is the one check of a gate, parsed or built in the
    library: a known kind, ``theta`` on the kinds that read it, finite
    numbers (not bools), |theta| <= ``MAX_THETA``, a duration >= 0 (> 0
    on driven kinds, none but 0 on RZ, required on IDLE) and the arity,
    in ``parse_circuit``'s words.
    """

    kind: str
    qubits: tuple[int, ...]
    theta: float | None = None
    phi: float = 0.0
    duration: float | None = None

    def __post_init__(self):
        spec = GATE_KINDS.get(self.kind) if isinstance(self.kind, str) else None
        if spec is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if "theta" in spec.angles and self.theta is None:
            raise ValueError(f"{self.kind} requires 'theta'")
        for key, val in (("theta", self.theta), ("phi", self.phi), ("duration_s", self.duration)):
            if val is not None and not is_finite_number(val):
                raise ValueError(f"{key!r} must be a finite number, got {val!r}")
        if self.theta is not None and abs(self.theta) > MAX_THETA:
            raise ValueError(f"'theta' must satisfy |theta| <= {MAX_THETA:g}, got {self.theta!r}")
        if self.duration is None:
            if self.kind == "IDLE":
                raise ValueError("IDLE requires 'duration_s'")
        elif self.duration < 0:
            raise ValueError(f"'duration_s' must be >= 0, got {self.duration!r}")
        elif self.duration == 0 and spec.driven:
            raise ValueError(f"{self.kind} is driven and needs a positive 'duration_s'")
        if self.kind == "RZ":
            if self.duration not in (None, 0):
                raise ValueError("RZ is virtual and has zero duration")
            object.__setattr__(self, "duration", 0.0)
        if len(self.qubits) != spec.arity:
            raise ValueError(f"{self.kind} acts on {spec.arity} qubit(s), got {self.qubits}")

    @property
    def driven(self) -> bool:
        """Whether the gate has a drive, and so depolarises (RZ, IDLE: no)."""
        return GATE_KINDS[self.kind].driven

    def with_duration(self, duration: float) -> "GateSpec":
        return GateSpec(self.kind, self.qubits, self.theta, self.phi, duration)


def ideal_unitary(gate: GateSpec) -> np.ndarray:
    """Noise-free unitary of the gate: the RZ frame diag(1, e^{i phi}),
    which is virtual and has no drive, and for every other kind the end
    point U_g = exp(-i G) of its drive schedule, so the global phases are
    the drive's (X = RX(pi) = -iX_pauli, CNOT = block-diag(I, X)) and a
    zero-length IDLE is exactly I."""
    if gate.kind == "RZ":
        return np.array([[1, 0], [0, np.exp(1j * gate.phi)]], dtype=complex)
    return schedule(gate).unitary_at(1.0)


def drive_generator(gate: GateSpec) -> np.ndarray:
    """Dimensionless Hermitian G of the gate's drive, U_s = exp(-i s G):
    the one definition of each driven gate kind (and of the undriven
    IDLE), from which :func:`ideal_unitary` takes U_g = exp(-i G)."""
    kind = gate.kind
    if kind == "RZ":
        raise ValueError("RZ is virtual: it has no drive schedule")
    if kind in ("RX", "X", "SX"):
        theta = {"X": math.pi, "SX": math.pi / 2}.get(kind, gate.theta)
        axis = math.cos(gate.phi) * PAULI_X + math.sin(gate.phi) * PAULI_Y
        return (theta / 2) * axis
    if kind == "CR":
        axis = math.cos(gate.phi) * PAULI_X + math.sin(gate.phi) * PAULI_Y
        return kron(PAULI_Z, (gate.theta / 2) * axis)
    if kind == "CNOT":
        return (math.pi / 2) * kron(PROJ_1, PAULI_X - I2)
    if kind == "IDLE":
        return np.zeros((2, 2), dtype=complex)
    raise ValueError(f"unknown gate kind: {kind!r}")


class DriveSchedule:
    """Constant-generator pulse: unitary_at(s) = exp(-i s G), s in [0, 1].

    The generator is Hermitian, so interaction-picture conjugations at
    many time nodes are evaluated from one eigendecomposition.
    """

    def __init__(self, generator: np.ndarray):
        self.generator = np.asarray(generator, dtype=complex)
        self._evals, self._evecs = np.linalg.eigh(self.generator)

    @property
    def dim(self) -> int:
        return self.generator.shape[0]

    def unitaries(self, svals: np.ndarray) -> np.ndarray:
        """Stack of U_s for every s in ``svals``, shape (len(s), d, d)."""
        phases = np.exp(-1j * np.outer(np.asarray(svals, dtype=float), self._evals))
        return np.einsum("ij,sj,kj->sik", self._evecs, phases, self._evecs.conj())

    def unitary_at(self, s: float) -> np.ndarray:
        return self.unitaries(np.array([s]))[0]


def schedule(gate: GateSpec) -> DriveSchedule:
    """Drive schedule traversing the gate linearly in rescaled time."""
    return DriveSchedule(drive_generator(gate))


_QUAD_NODES = 32
_QUAD_PANELS = 4


@functools.cache
def _quadrature() -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the composite Gauss-Legendre rule
    every sampler integrates on, built on first use, once per process."""
    svals, w = gauss_legendre_rule(_QUAD_NODES, _QUAD_PANELS)
    svals.flags.writeable = w.flags.writeable = False
    return svals, w


def _interaction_stack(sched: DriveSchedule, jumps: np.ndarray, svals: np.ndarray) -> np.ndarray:
    """U_s^dag L U_s for every s in ``svals``: shape ``(len(svals), d, d)``
    for one jump L, ``(T, len(svals), d, d)`` for a ``(T, d, d)`` stack of
    them, which is conjugated in one einsum call.  The einsum's summation
    order fixes the bits of every sampler's covariance and so, through
    the eigenvectors of its degenerate eigenvalues, which Xi each block of
    normals draws; a matmul would give other, equally valid, draws."""
    u = sched.unitaries(svals)
    return np.einsum("sji,...jk,skl->...sil", u.conj(), np.asarray(jumps, dtype=complex), u)


def lambda_matrix(sched: DriveSchedule, ctx: NoiseContext) -> np.ndarray:
    """Deterministic drift -1/2 sum_k eps_k^2 int (L_s^dag L_s - L_s^2) ds.

    Conjugation by U_s commutes with products and sums, so the integrand
    is U_s^dag M U_s for the one summed operator
    M = sum_k eps_k^2 (L_k^dag L_k - L_k^2), and one conjugated stack is
    integrated instead of one per jump term.  Hermitian jumps give M = 0,
    and so Lambda = 0, exactly."""
    d = sched.dim
    summed = np.zeros((d, d), dtype=complex)
    for term in ctx.terms:
        if term.epsilon == 0.0:
            continue
        op = np.asarray(term.operator, dtype=complex)
        summed += term.epsilon**2 * (dagger(op) @ op - op @ op)
    svals, w = _quadrature()
    return -0.5 * np.einsum("s,sij->ij", w, _interaction_stack(sched, summed, svals))


class XiSampler:
    """Exact Gaussian sampler for Xi = i sum_k eps_k int L_{k,s} dW_{k,s}.

    The Wiener processes are independent, so Xi is one Gaussian vector
    whose covariance is the sum of the per-term Ito covariances.  On the
    gate's quadrature grid the integrand i eps_k L_{k,s} of every term is
    stacked as real vectors [Re, Im] of length 2 d^2, the Ito isometry
    sums them into one (2 d^2, 2 d^2) covariance, and ``_psd_factor``
    factors it once: ``factor`` has shape ``(2 d^2, R)`` with R its rank,
    so each draw costs R = ``n_gaussians`` normals.  Sampling uses a copy
    of ``factor`` with the real and imaginary rows interleaved, so a
    batch of draws is one ``(S, R) @ (R, 2 d^2)`` product whose rows,
    viewed as complex, are the flattened Xi with no further copy.
    """

    def __init__(self, sched: DriveSchedule, ctx: NoiseContext):
        d = sched.dim
        n = d * d
        self.dim = d
        svals, w = _quadrature()
        terms = [term for term in ctx.terms if term.epsilon != 0.0]
        cov = np.zeros((2 * n, 2 * n))
        if terms:
            ops = np.array([term.operator for term in terms], dtype=complex)
            stack = _interaction_stack(sched, ops, svals).reshape(len(terms), len(svals), n)
            for term, ls in zip(terms, stack):
                # i * L: (Re, Im) -> (-Im, Re)
                vals = np.concatenate([-ls.imag, ls.real], axis=1)
                cov += term.epsilon**2 * ((vals * w[:, None]).T @ vals)
        self.factor = _psd_factor(cov)
        self.n_gaussians = self.factor.shape[1]
        self._interleaved = np.empty((self.n_gaussians, 2 * n))
        self._interleaved[:, 0::2] = self.factor[:n].T
        self._interleaved[:, 1::2] = self.factor[n:].T

    def draws(self, normals: np.ndarray, workspace: Workspace) -> np.ndarray:
        """Xi for each row of ``normals``, an ``(S, n_gaussians)`` array of
        standard normals: shape ``(S, d, d)``, a view into ``workspace``
        that its next user overwrites."""
        d = self.dim
        flat = workspace.take("xi.draws", (normals.shape[0], 2 * d * d), float)
        return np.matmul(normals, self._interleaved, out=flat).view(complex).reshape(-1, d, d)

    def sample(self, gen: np.random.Generator, size: int, workspace: Workspace) -> np.ndarray:
        """``size`` draws of Xi from ``gen``, as :meth:`draws` returns them,
        with the normals in ``workspace`` too."""
        g = gen.standard_normal(out=workspace.take("xi.normals", (size, self.n_gaussians), float))
        return self.draws(g, workspace)


class NoisyGateSampler:
    """Batched sampler for one (gate, noise context) pair: a pure function
    from blocks of standard normals to realisations P exp(Xi).

    Fuses U_g exp(Lambda) into a single prefix matrix P and keeps the one
    Gaussian factor of Xi (of the covariance summed over all jump terms),
    so each realisation reads ``xi.n_gaussians`` normals, drawn by the
    caller.

    One-qubit gates take a fused kernel.  Xi is linear in the normals,
    and so are mu = tr Xi / 2, d00 = (Xi00 - Xi11) / 2, Xi01, Xi10 and the
    four entries of A = P (Xi - mu I).  One real ``(R, 16)`` matrix, built
    here, maps a block of normals onto those eight complex numbers per
    draw in one matrix product.  With q^2 = d00^2 + Xi01 Xi10 and
    (c, t) = (cosh q, sinh(q)/q) from ``linalg.cosh_sinhc``, the
    realisation is P e^Xi = e^mu (c P + t A), written entry by entry into
    a ``(2, 2, S)`` array, so no per-draw ``(S, 2, 2)`` stack is formed.

    Two-qubit gates copy the draws into the ``(4, 4, S)`` layout of
    ``linalg.expm4_soa``, the Cayley-Hamilton kernel, exponentiate them
    there, and multiply by P as one ``(4, 4) @ (4, 4 S)`` product.  The
    sampler holds no buffers itself: ``sample_batch`` runs in the caller's
    ``workspace``.
    """

    def __init__(self, sched: DriveSchedule, ctx: NoiseContext):
        self.dim = sched.dim
        self.prefix = sched.unitary_at(1.0) @ expm(lambda_matrix(sched, ctx))
        self.xi = XiSampler(sched, ctx)
        if self.dim == 2:
            x00, x01, x10, x11 = self.xi.factor[:4] + 1j * self.xi.factor[4:]
            mu, d00 = 0.5 * (x00 + x11), 0.5 * (x00 - x11)
            (p00, p01), (p10, p11) = self.prefix
            entries = np.array([
                mu, d00, x01, x10,
                p00 * d00 + p01 * x10, p00 * x01 - p01 * d00,
                p10 * d00 + p11 * x10, p10 * x01 - p11 * d00,
            ])
            # normals -> the (Re, Im) pairs of the eight entries, interleaved
            self._fused = np.empty((self.xi.n_gaussians, 16))
            self._fused[:, 0::2] = entries.real.T
            self._fused[:, 1::2] = entries.imag.T

    def sample_batch(self, normals: np.ndarray, workspace: Workspace, out: np.ndarray | None = None) -> np.ndarray:
        """One realisation P exp(Xi) for each row of ``normals``, an
        ``(S, xi.n_gaussians)`` array of standard normals, as an
        ``(S, d, d)`` array, with the temporaries in ``workspace``.

        For d = 2 the result is the transposed view of ``out``, a
        ``(2, 2, S)`` complex array (fresh when None) that the kernel
        fills.  For d = 4 it is the transposed view of a fresh
        ``(4, 4, S)`` array, and ``out`` must be None.  Non-finite normals
        raise ``ValueError``."""
        d = self.dim
        size = normals.shape[0]
        if d == 2:
            if out is None:
                out = np.empty((2, 2, size), dtype=complex)
            return self._fused_batch(normals, workspace, out).transpose(2, 0, 1)
        if out is not None:
            raise ValueError("only one-qubit samplers take out")
        xi = self.xi.draws(normals, workspace)
        x = workspace.take("sampler.xi", (d, d, size))
        np.copyto(x, xi.transpose(1, 2, 0))
        f = expm4_soa(x, workspace)
        return np.dot(self.prefix, f.reshape(d, d * size)).reshape(d, d, size).transpose(2, 0, 1)

    def _fused_batch(self, normals: np.ndarray, ws: Workspace, out: np.ndarray) -> np.ndarray:
        """The one-qubit kernel: fills the ``(2, 2, S)`` array ``out``."""
        size = normals.shape[0]
        coef = np.matmul(normals, self._fused, out=ws.take("sampler.coef", (size, 16), float)).view(complex)
        mu, d00, x01, x10 = coef[:, 0], coef[:, 1], coef[:, 2], coef[:, 3]
        ct = ws.take("sampler.ct", (2, size))
        q2 = np.multiply(d00, d00, out=ws.take("sampler.q2", (size,)))
        q2 += np.multiply(x01, x10, out=ct[0])
        c, t = cosh_sinhc(q2, ct)
        # q2's buffer is scratch from here on
        scale = exp_mu(mu, q2)
        c *= scale
        t *= scale
        np.multiply(coef[:, 4:].T.reshape(2, 2, size), t, out=out)
        for (i, j), p in np.ndenumerate(self.prefix):
            out[i, j] += np.multiply(c, p, out=q2)
        return out


def spam_gate_batch(v: float, z: np.ndarray) -> np.ndarray:
    """Pre-measurement bitflip noise gates exp(i w X) at w = sqrt(v) z,
    one per standard normal of ``z``, so that w ~ N(0, v).

    Unitary for every draw; averaging N rho N^dag over draws gives the
    bitflip channel with p = (1 - e^{-2v})/2.
    """
    if v < 0:
        raise ValueError("strength v must be >= 0")
    w = math.sqrt(v) * z
    out = np.zeros((len(w), 2, 2), dtype=complex)
    out[:, 0, 0] = out[:, 1, 1] = np.cos(w)
    out[:, 0, 1] = out[:, 1, 0] = 1j * np.sin(w)
    return out


def relaxation_normals(gamma1: float, gamma_pd: float, dt: float) -> int:
    """Standard normals one relaxation gate reads: one for the phase when
    gamma_pd > 0, then one for the amplitude transfer when
    1 - e^{-gamma1 dt} > 0."""
    return int(gamma_pd > 0) + int(-math.expm1(-gamma1 * dt) > 0)


def relaxation_gate_batch(
    gamma1: float, gamma_pd: float, dt: float, normals: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Exact idle relaxation gates (amplitude + phase damping over dt),
    one per column of ``normals``, an ``(r, S)`` array of standard normals
    with r = ``relaxation_normals(gamma1, gamma_pd, dt)`` rows, in the
    order that function names them.  Returns ``out``, a complex
    ``(S, 2, 2)`` array of any strides that is filled, or a fresh one when
    None.

    Upper triangular with phase e^{i a W2} (a = sqrt(gamma_pd/4),
    W2 ~ N(0, dt)) and a Gaussian amplitude-transfer entry
    i S e^{-i a W2}, S ~ N(0, 1 - e^{-gamma1 dt}); the ensemble average
    of N rho N^dag equals the relaxation channel for any dt.
    """
    if gamma1 < 0 or gamma_pd < 0:
        raise ValueError("rates must be >= 0")
    if dt <= 0:
        raise ValueError("dt must be positive")
    rows = relaxation_normals(gamma1, gamma_pd, dt)
    if normals.ndim != 2 or normals.shape[0] != rows:
        raise ValueError(f"expected {rows} rows of normals, got shape {normals.shape}")
    size = normals.shape[1]
    row = iter(normals)
    alpha = math.sqrt(gamma_pd / 4.0)
    w2 = math.sqrt(dt) * next(row) if gamma_pd > 0 else np.zeros(size)
    var_s = -math.expm1(-gamma1 * dt)
    s = math.sqrt(var_s) * next(row) if var_s > 0 else np.zeros(size)
    phase = np.exp(1j * alpha * w2)
    if out is None:
        out = np.empty((size, 2, 2), dtype=complex)
    out[:, 0, 0] = phase
    out[:, 0, 1] = 1j * s / phase
    out[:, 1, 0] = 0.0
    out[:, 1, 1] = math.exp(-0.5 * gamma1 * dt) / phase
    return out


def scale_context(ctx: NoiseContext, scale: float) -> NoiseContext:
    """Context with every amplitude eps scaled; used for
    order-of-convergence sweeps."""
    terms = tuple(LindbladTerm(operator=t.operator, epsilon=t.epsilon * scale) for t in ctx.terms)
    return NoiseContext(terms=terms, gate_duration=ctx.gate_duration)


# ---------------------------------------------------------------------------
# Substep (Riemann) path machinery: brute-force oracle shared between the
# exponential gate and the truncated small-noise series.


@dataclass(frozen=True)
class SubstepPath:
    """Wiener increments dW[k, m] ~ N(0, 1/M) for each jump operator k on
    the uniform grid s_m = m/M (left endpoints, Ito convention)."""

    increments: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.increments.shape[1]


def build_substep_path(
    ctx: NoiseContext, m_substeps: int, rng: RngStream | np.random.Generator
) -> SubstepPath:
    gen = rng.generator if isinstance(rng, RngStream) else rng
    inc = gen.normal(0.0, math.sqrt(1.0 / m_substeps), size=(len(ctx.terms), m_substeps))
    return SubstepPath(increments=inc)


def _path_pieces(sched: DriveSchedule, ctx: NoiseContext, path: SubstepPath):
    """Combined increment matrices A_m = sum_k eps_k L_{k,s_m} dW_{k,m},
    their exclusive prefix sums S_m, and the total S_1."""
    m = path.n_steps
    svals = np.arange(m) / m
    d = sched.dim
    a = np.zeros((m, d, d), dtype=complex)
    for k, term in enumerate(ctx.terms):
        if term.epsilon == 0.0:
            continue
        ls = _interaction_stack(sched, term.operator, svals)
        a += term.epsilon * path.increments[k][:, None, None] * ls
    prefix = np.cumsum(a, axis=0) - a  # exclusive: S at the left endpoint
    return a, prefix, a.sum(axis=0)


def xi_from_path(sched: DriveSchedule, ctx: NoiseContext, path: SubstepPath) -> np.ndarray:
    """Substep realisation of Xi = i sum_k eps_k S1_k - 1/2 C on the
    given path, C = sum_m [A_m, S_m] the commutator of the increments
    with their exclusive prefix sums."""
    a, prefix, s1 = _path_pieces(sched, ctx, path)
    comm = np.einsum("mij,mjk->ik", a, prefix) - np.einsum("mij,mjk->ik", prefix, a)
    return 1j * s1 - 0.5 * comm


def small_noise_reference(sched: DriveSchedule, ctx: NoiseContext, path: SubstepPath) -> np.ndarray:
    """Truncated perturbative evolution operator on the shared path:

        N' = 1 + i sum_k eps_k S1_k
               - [ 1/2 sum_k eps_k^2 int L_k,s^dag L_k,s ds
                   + sum_m A_m S_m ]        (Ito: S_m before the increment)

    Cross-validation oracle: U_g N' agrees with the exponential gate
    built from the same path to third order in the amplitudes.
    """
    d = sched.dim
    a, prefix, s1 = _path_pieces(sched, ctx, path)
    drift = np.zeros((d, d), dtype=complex)
    svals, w = _quadrature()
    for term in ctx.terms:
        if term.epsilon == 0.0:
            continue
        ls = _interaction_stack(sched, term.operator, svals)
        drift += 0.5 * term.epsilon**2 * np.einsum("s,sij->ij", w, dagger(ls) @ ls)
    stochastic = np.einsum("mij,mjk->ik", a, prefix)
    return np.eye(d, dtype=complex) + 1j * s1 - drift - stochastic
