"""Dense complex linear algebra kernel: products, adjoints, Kronecker
products, matrix exponentials, gate application to state vectors and
local superoperators applied to density matrices.

Functions treat their inputs as values and return fresh arrays, with
exceptions that let batched callers reuse the same buffers on every
gate: ``expm4_soa``, the Cayley-Hamilton exponential of two-qubit
stacks, overwrites its input and returns a view into a caller-held
``Workspace``; ``cosh_sinhc`` and ``exp_mu``, the pieces of the
one-qubit exponential, write into the ``out`` they are given; and
``apply_gate`` given ``out=`` writes the new states there and returns
it.  ``expm``, the Taylor exponential of a matrix or a stack
``(..., d, d)`` of any d, returns a fresh array.

Qubit ordering is big-endian throughout the package: qubit 0 is the
leftmost (most significant) bit of a basis label, so ``|10>`` on two
qubits is amplitude index 2.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "I2",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "DECAY",
    "PROJ_1",
    "dagger",
    "kron",
    "embed",
    "Workspace",
    "expm",
    "expm4_soa",
    "expm_2x2",
    "cosh_sinhc",
    "exp_mu",
    "apply_gate",
    "superoperator",
    "apply_superoperator",
]

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# Amplitude-damping jump operator |0><1| (maps |1> to |0>).
DECAY = np.array([[0, 1], [0, 0]], dtype=complex)
PROJ_1 = np.array([[0, 0], [0, 1]], dtype=complex)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, batched over leading axes."""
    return np.conj(np.swapaxes(np.asarray(m), -1, -2))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of the last two axes, batched over the
    (broadcast) leading axes."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def embed(op: np.ndarray, qubits: list[int] | tuple[int, ...], n_qubits: int) -> np.ndarray:
    """Expand (a stack of) operators on the listed qubits to ``n_qubits``
    qubits: ``op`` on those qubits, identity on the others.  The first
    listed qubit is the most significant bit of ``op``'s local ordering,
    as in :func:`apply_gate`."""
    op = np.asarray(op, dtype=complex)
    qubits = list(qubits)
    full = kron(op, np.eye(2 ** (n_qubits - len(qubits))))
    order = qubits + [q for q in range(n_qubits) if q not in qubits]
    lead = op.shape[:-2]
    where = np.argsort(order)  # full's axis of each register qubit
    axes = list(range(len(lead))) + [len(lead) + i for i in where] + [len(lead) + n_qubits + i for i in where]
    tensor = full.reshape(lead + (2,) * (2 * n_qubits)).transpose(axes)
    return tensor.reshape(lead + (2**n_qubits, 2**n_qubits))


class Workspace:
    """Named scratch buffers kept across calls, so a batched kernel run
    many times reuses its pages instead of asking for fresh ones each time.

    ``take(name, shape, dtype)`` returns a C-contiguous view onto the front
    of buffer ``name``, growing it when the shape needs more room; its
    contents are whatever the previous user left.  Views of one name alias
    each other, so a caller uses one name per value that must stay alive,
    and one dtype per name.  A workspace pickles as an empty one: worker
    processes rebuild the buffers they use."""

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=complex) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def __reduce__(self):
        return Workspace, ()


def _soa_matmul(x: np.ndarray, y: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Products of two ``(d, d, S)`` stacks, matrix index first, into
    ``out``: d broadcast multiply-adds over the S axis.  ``out`` and
    ``tmp`` must not overlap ``x`` or ``y``."""
    np.multiply(x[:, :1], y[:1], out=out)
    for k in range(1, x.shape[0]):
        out += np.multiply(x[:, k : k + 1], y[k : k + 1], out=tmp)
    return out


def _soa_norm(x: np.ndarray, ws: Workspace) -> float:
    """Largest 1-norm (column sum of |x|) in the ``(d, d, S)`` stack ``x``,
    0 for an empty stack; NaN or inf if any entry is not finite."""
    if not x.size:
        return 0.0
    absx = np.abs(x, out=ws.take("norm.abs", x.shape, float))
    return float(np.sum(absx, axis=0, out=ws.take("norm.colsum", x.shape[1:], float)).max())


def _soa_add_identity(x: np.ndarray, c: float) -> None:
    """x += c I in place, for a contiguous ``(d, d, S)`` stack."""
    d = x.shape[0]
    x.reshape(d * d, -1)[:: d + 1] += c


def cosh_sinhc(q2: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(cosh q, sinh(q)/q) for every entry of the 1-d complex array
    ``q2`` = q^2, written into the two rows of ``out``, a
    ``(2, len(q2))`` complex array, and returned.  Both are even power
    series in q^2, so no square root of an entry or branch appears.  The
    degree N and scaling power s come from the largest |q| by
    :func:`_taylor_terms`, and both series are summed by Horner's rule to
    K = N // 2 + 1 terms in z = q^2 / 4^s, so each tail lies within the
    Taylor tail of e^|q| past degree N.  Each row is summed on its own,
    which keeps numpy on its contiguous loops.  Scaled arguments are
    squared back with cosh 2x = c^2 + t^2 q^2, sinh(2x)/(2x) = c t for
    x = q / 2.  Raises ``ValueError`` if any |q^2| is not finite."""
    reach = float(np.max(np.abs(q2))) if q2.size else 0.0
    if not math.isfinite(reach):
        raise ValueError("non-finite entries in the exponent")
    n, s = _taylor_terms(math.sqrt(reach))
    terms = n // 2 + 1
    # 1/m! for m < 2K: the even entries for cosh, the odd for sinh(q)/q
    coef = _taylor_weights(2 * terms - 1)[0]
    cosh_coef, sinhc_coef = coef[0::2], coef[1::2]
    z = q2 / 4.0**s if s else q2
    c, t = out
    c.fill(cosh_coef[-1])
    t.fill(sinhc_coef[-1])
    for k in range(terms - 2, -1, -1):
        c *= z
        c += cosh_coef[k]
        t *= z
        t += sinhc_coef[k]
    if s:
        t /= 2.0**s
        for _ in range(s):
            c2 = c * c + t * t * q2
            np.multiply(2.0 * c, t, out=t)
            c[...] = c2
    return out


# Up to this largest |mu| in a batch, e^mu is taken as 1 + mu: the Taylor
# remainder is then below 2^-54.  mu = tr Xi / d is only rounding (~1e-17)
# for traceless jump operators, which every stock gate has, and np.exp
# would cost more than the rest of the factor.
_EXP_MU_LINEAR = 2.0**-27


def exp_mu(mu: np.ndarray, out: np.ndarray) -> np.ndarray:
    """e^mu for the 1-d complex array ``mu`` into ``out``, a complex array
    of its length apart from ``mu``, and returned: 1 + mu while
    every |mu| is at most ``_EXP_MU_LINEAR``, else ``np.exp``.  Raises
    ``ValueError`` if any mu is not finite."""
    top = float(np.abs(mu, out=out.view(float)[: mu.size]).max()) if mu.size else 0.0
    if not math.isfinite(top):
        raise ValueError("non-finite entries in the exponent")
    return np.add(mu, 1.0, out=out) if top <= _EXP_MU_LINEAR else np.exp(mu, out=out)


# expm and expm4_soa scale a stack with 1-norm above _TAYLOR_THETA by 2^-s,
# cosh_sinhc one with largest |q| above it, and square back s times.  The
# rounding errors of the truncated series are polynomials in the scaled
# matrix, so every squaring doubles them, and theta = 2, one squaring fewer
# than 1, halves them.  The partial sums stay
# below e^2 < 8; expm4_soa splits off the trace, so ||e^D|| >= 1 and
# cancellation costs it under 3 bits.
_TAYLOR_THETA = 2.0


def _taylor_terms(nu: float) -> tuple[int, int]:
    """(degree N, scaling power s) for a stack whose norms are at most
    ``nu``: scaled by 2^-s into ``_TAYLOR_THETA``, the fewest N whose
    Taylor tail bound nu^(N+1) e^nu / (N+1)! is at most 2^-53."""
    s = math.ceil(math.log2(nu / _TAYLOR_THETA)) if nu > _TAYLOR_THETA else 0
    nu /= 2.0**s
    n, tail = 0, nu * math.exp(nu)
    while tail > 2.0**-53:
        n += 1
        tail *= nu / (n + 1)
    return n, s


def expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential of a matrix or a stack ``(..., d, d)`` of any d,
    as a fresh array, by scaling and squaring a truncated Taylor series
    (Moler & Van Loan, SIAM Rev. 45 (2003) 3).

    The degree N and the scaling power s come from the stack's largest
    1-norm by :func:`_taylor_terms`, as in :func:`expm4_soa`.  The series
    of X = 2^-s A is summed by Horner's rule,
    I + X (I + X/2 (... (I + X/N))), and squared s times.  Unlike
    :func:`expm4_soa` it keeps the trace: a Lindblad generator's
    eigenvalue 0 would become -tr A / d, and e^(A - (tr A / d) I) would
    overflow at large decay.  Raises ``ValueError`` on non-square or
    non-finite input."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    norm = float(np.abs(a).sum(axis=-2).max()) if a.size else 0.0
    if not math.isfinite(norm):
        raise ValueError("non-finite entries in expm input")
    n, s = _taylor_terms(norm)
    x = a * 2.0**-s
    eye = np.eye(a.shape[-1])
    f = np.broadcast_to(eye, a.shape).astype(complex)
    for k in range(n, 0, -1):
        f = x @ f
        f /= k
        f += eye
    for _ in range(s):
        f = f @ f
    return f


@functools.cache
def _taylor_weights(n: int) -> np.ndarray:
    """``w[k, m]`` = 1/(m + k)! for m <= n - k, else 0: row k of
    ``w @ h[: n + 1]`` is G_k = sum_(m <= n - k) h_m / (m + k)!."""
    w = np.zeros((4, n + 1))
    for k in range(4):
        w[k, : max(n - k + 1, 0)] = [1.0 / math.factorial(m + k) for m in range(n - k + 1)]
    w.flags.writeable = False
    return w


def expm4_soa(x: np.ndarray, ws: Workspace) -> np.ndarray:
    """Exponentials of the contiguous ``(4, 4, S)`` stack ``x`` (matrix
    index first), in the buffers of ``ws``.  ``x`` is overwritten, and the
    result is a ``(4, 4, S)`` view into ``ws``, valid until ``ws`` is used
    again.  Raises ``ValueError`` on non-finite entries.

    The trace mu = tr x / 4 is split off, e^x = e^mu e^D, with e^mu from
    :func:`exp_mu`.  For the traceless D, Cayley-Hamilton gives
    D^4 = b2 D^2 + b1 D + b0 I with b2 = s2/2, b1 = s3/3 and
    b0 = s4/4 - s2^2/8 from s_k = tr D^k, two stack products giving D^2
    and D^3.  Multiplying a I + b D + c D^2 + h D^3 by D gives
    b0 h I + (a + b1 h) D + (b + b2 h) D^2 + c D^3, so the D^3 coordinate
    of D^n is h_n, for h_0..2 = 0, h_3 = 1 and
    h_(n+4) = b2 h_(n+2) + b1 h_(n+1) + b0 h_n, and the Taylor series of
    degree N is e^D = c0 I + c1 D + c2 D^2 + c3 D^3 with c3 = G0,
    c2 = 1/2 + b0 G3 + b1 G2 + b2 G1, c1 = 1 + b0 G2 + b1 G1 and
    c0 = 1 + b0 G1, where G_k = sum_(m <= N - k) h_m / (m + k)! is one
    real matrix product.  Each c is its leading Taylor coefficient plus a
    small correction, so no two large terms cancel, and no eigenvalue is
    formed (Moler & Van Loan, SIAM Rev. 45 (2003) 3).  N and the scaling
    come from the batch's largest 1-norm of D (:func:`_taylor_terms`)."""
    size = x.shape[-1]

    def take(name: str, shape: tuple[int, ...] = (size,)) -> np.ndarray:
        return ws.take(name, shape)

    def trace(m: np.ndarray, name: str) -> np.ndarray:
        return np.sum(m.reshape(16, size)[::5], axis=0, out=take(name))

    mu = trace(x, "ch.mu")
    mu *= 0.25
    x.reshape(16, size)[::5] -= mu
    scale = exp_mu(mu, take("ch.scale"))
    norm = _soa_norm(x, ws)
    if not math.isfinite(norm):
        raise ValueError("non-finite entries in expm input")
    n, s = _taylor_terms(norm)
    if s:
        x *= 2.0**-s
    tmp = take("ch.tmp", x.shape)
    d2 = _soa_matmul(x, x, take("ch.d2", x.shape), tmp)
    d3 = _soa_matmul(d2, x, take("ch.d3", x.shape), tmp)
    b2 = trace(d2, "ch.b2")
    b2 *= 0.5
    b1 = trace(d3, "ch.b1")
    b1 /= 3.0
    # b0 = s4/4 - s2^2/8 = tr(D^2 D^2)/4 - b2^2/2
    b0 = np.sum(np.multiply(d2, d2.transpose(1, 0, 2), out=tmp).reshape(16, size), axis=0, out=take("ch.b0"))
    b0 *= 0.25
    t2 = take("ch.t", (2, size))
    t = t2[0]
    np.multiply(b2, b2, out=t)
    t *= 0.5
    b0 -= t
    # h_4..6 = 0, b2, b1 follow from h_0..3
    h = take("ch.h", (max(n, 6) + 1, size))
    h[:5] = 0.0
    h[3] = 1.0
    h[5] = b2
    h[6] = b1
    for k in range(7, n + 1):
        np.multiply(b2, h[k - 2], out=h[k])
        h[k] += np.multiply(b1, h[k - 3], out=t)
        h[k] += np.multiply(b0, h[k - 4], out=t)
    g = np.dot(_taylor_weights(n), h[: n + 1].view(float), out=ws.take("ch.g", (4, 2 * size), float)).view(complex)
    c = np.multiply(g[1:], b0, out=take("ch.c", (3, size)))
    c[1:] += np.multiply(g[1:3], b1, out=t2)
    c[2] += np.multiply(g[1], b2, out=t)
    c0, c1, c2 = c
    c0 += 1.0
    c1 += 1.0
    c2 += 0.5
    c3 = g[0]
    if not s:
        c *= scale
        c3 *= scale
    f = np.multiply(x, c1, out=take("ch.f", x.shape))
    f += np.multiply(d2, c2, out=tmp)
    f += np.multiply(d3, c3, out=tmp)
    _soa_add_identity(f, c0)
    for i in range(s):
        f = _soa_matmul(f, f, (d2, d3)[i % 2], tmp)
    if s:
        f *= scale
    return f


def expm_2x2(m: np.ndarray) -> np.ndarray:
    """Closed-form exponential of (stacks of) 2x2 complex matrices.

    Uses e^M = e^mu (cosh(q) I + sinh(q)/q D) with mu = tr M / 2, the
    traceless part D = M - mu I and q^2 = -det D (so D^2 = q^2 I), the
    two series from :func:`cosh_sinhc`.  Agrees with :func:`expm` to
    ~1e-14 and is much faster on large batches.
    """
    a = np.asarray(m, dtype=complex)
    if a.shape[-2:] != (2, 2):
        raise ValueError(f"expected 2x2 matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite entries in expm_2x2 input")
    mu = 0.5 * (a[..., 0, 0] + a[..., 1, 1])
    d00 = a[..., 0, 0] - mu
    q2 = d00 * d00 + a[..., 0, 1] * a[..., 1, 0]
    c, t = cosh_sinhc(q2.reshape(-1), np.empty((2, q2.size), dtype=complex)).reshape((2,) + q2.shape)
    scale = np.exp(mu)
    c *= scale
    t *= scale
    td = t * d00
    out = np.empty_like(a)
    np.add(c, td, out=out[..., 0, 0])
    np.multiply(t, a[..., 0, 1], out=out[..., 0, 1])
    np.multiply(t, a[..., 1, 0], out=out[..., 1, 0])
    np.subtract(c, td, out=out[..., 1, 1])
    return out


def basis_labels(dim: int) -> list[str]:
    """Big-endian bit strings of the ``dim`` = 2^n basis states, one
    n-character label per index (``basis_labels(4)[2] == "10"``)."""
    n = dim.bit_length() - 1
    return [format(i, f"0{n}b") for i in range(dim)]


# ``apply_gate`` runs a gate on ascending contiguous qubits lo..lo+k-1 over
# the (S, 2^lo, 2^k R) view of the states, R = 2^(n-lo-k), without moving
# any axis.  A (2^k, R) slice of at least STRIDED_MIN_SLICE amplitudes takes
# one product over the (S, 2^lo, 2^k, R) view; a smaller one takes
# x @ kron(g, I_R)^T, S products of 2^lo rows whose cost per amplitude grows
# with 2^k R and whose kron(g, I_R) batch holds S (2^k R)^2 entries.
# Medians over 41 calls, one BLAS thread, 4 MiB batches with ``out`` given,
# at (n, S) = (8, 1024), (12, 64), (16, 4), k = 1..3, in ms:
#   slice 16: kron 4.5-5.9, 1.2-1.5, 1.0-1.3; strided 6.6-7.7, 5.8-6.7, 5.6-8.9
#   slice 32: kron 19-24, 2.0-2.1, 1.4-2.0;   strided 3.6-6.1, 3.0-3.5, 2.9-3.7
#   slice 64: kron 67-72, 4.2-5.4, 2.5-3.1;   strided 2.6-2.9, 1.5-2.3, 1.9-2.3
# The kron batch outgrows the state when (2^k R)^2 > 2^n, so at n = 8 a
# slice of 32 costs 4-6x more by kron, and at n >= 12 1.4-2.6x more
# strided; a bound of 32 keeps every case within 2.6x of the faster path.
# End to end, 64 instead of 32 left the 12-qubit GHZ benchmark unchanged
# (0.86-1.01 s against 0.85-0.87 s) and made 8-qubit GHZ at 1024 shots
# 0.25 s at 95 MiB peak RSS instead of 0.17 s at 64 MiB.
STRIDED_MIN_SLICE = 32


def apply_gate(
    state: np.ndarray,
    gate: np.ndarray,
    qubits: list[int] | tuple[int, ...],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply ``gate`` to the listed qubits of ``state``.

    ``state`` may be a single vector of length 2**n or a batch
    ``(S, 2**n)``, whose last axis gives n (2n for a vec(rho));
    ``gate`` must be ``(d, d)`` or a matching batch
    ``(S, d, d)`` with d = 2**len(qubits).  The first listed qubit is the
    most significant bit of the gate's local ordering.

    The result is a fresh array when ``out`` is None.  Otherwise it is
    written into ``out``, a C-contiguous complex array of ``state``'s shape
    that shares no memory with it (else ``ValueError``), and ``out`` is
    returned.

    Gates on ascending contiguous qubits lo..lo+k-1 run without moving any
    axis, on the ``(S, 2^lo, 2^k R)`` view with R = 2^(n-lo-k): as one
    product over the ``(S, 2^lo, 2^k, R)`` view when a (2^k, R) slice holds
    at least ``STRIDED_MIN_SLICE`` amplitudes, else as
    ``x @ kron(gate, I_R)^T`` (for R = 1 that is ``x @ gate^T``).  Other
    qubit lists, descending or not adjacent, move the target axes to the
    front and back again.
    """
    state = np.asarray(state, dtype=complex)
    gate = np.asarray(gate, dtype=complex)
    batched = state.ndim == 2
    n_qubits = state.shape[-1].bit_length() - 1
    qubits = list(qubits)
    k = len(qubits)
    if gate.shape[-1] != 2**k:
        raise ValueError(f"gate dim {gate.shape[-1]} does not match {k} qubits")
    if len(set(qubits)) != k:
        raise ValueError(f"duplicate qubit indices: {qubits}")
    if any(q < 0 or q >= n_qubits for q in qubits):
        raise ValueError(f"qubit index out of range: {qubits} (n={n_qubits})")
    if out is not None:
        if out.shape != state.shape or out.dtype != complex or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous complex array of shape {state.shape}")
        if np.shares_memory(out, state):
            raise ValueError("out overlaps state")

    lead = 1 if batched else 0
    lo = qubits[0] if qubits else 0
    if qubits == list(range(lo, lo + k)):
        trailing = 2 ** (n_qubits - lo - k)
        if trailing == 1 or trailing << k < STRIDED_MIN_SLICE:
            g = np.swapaxes(gate, -1, -2)
            if trailing > 1:
                g = kron(g, np.eye(trailing))
            x = state.reshape(state.shape[:lead] + (2**lo, g.shape[-1]))
            y = np.matmul(x, g, out=None if out is None else out.reshape(x.shape))
        else:
            x = state.reshape(state.shape[:lead] + (2**lo, 2**k, trailing))
            g = gate[:, None] if gate.ndim > 2 else gate
            y = np.matmul(g, x, out=None if out is None else out.reshape(x.shape))
        return y.reshape(state.shape) if out is None else out

    full = state.reshape(state.shape[:lead] + (2,) * n_qubits)
    axes = [q + lead for q in qubits]
    rest = [ax for ax in range(lead, n_qubits + lead) if ax not in axes]
    perm = list(range(lead)) + axes + rest
    moved = np.transpose(full, perm)
    shape = moved.shape
    moved = moved.reshape(state.shape[:lead] + (2**k, -1))
    y = gate @ moved if gate.ndim > 2 or not batched else np.einsum("ij,sjk->sik", gate, moved)
    back = np.transpose(y.reshape(shape), np.argsort(perm))
    if out is None:
        return back.reshape(state.shape)
    np.copyto(out.reshape(full.shape), back)
    return out


# Density matrices use the row-major vec convention: vec(rho)[i d + j] =
# rho[i, j], so vec(A rho B) = (A kron B^T) vec(rho).  The vec of an
# n-qubit rho is then a 2n-qubit state whose qubits 0..n-1 index rows and
# n..2n-1 columns, and a local map on qubits q acts on axes q and n + q.


def superoperator(kraus) -> np.ndarray:
    """Matrix of rho -> sum_K K rho K^dag on row-major vec(rho): the sum
    of K kron conj(K) over the Kraus operators."""
    return sum(np.kron(k, np.conj(k)) for k in np.asarray(kraus, dtype=complex))


def apply_superoperator(rho: np.ndarray, sup: np.ndarray, qubits: list[int] | tuple[int, ...]) -> np.ndarray:
    """Apply a superoperator on the listed qubits (acting on the row-major
    vec of their 2^k x 2^k density matrix, first listed qubit most
    significant) to the register density matrix ``rho``, through
    :func:`apply_gate` on axes q and n + q of vec(rho)."""
    d = rho.shape[0]
    n = d.bit_length() - 1
    qubits = list(qubits)
    vec = apply_gate(rho.reshape(-1), sup, qubits + [n + q for q in qubits])
    return vec.reshape(d, d)
