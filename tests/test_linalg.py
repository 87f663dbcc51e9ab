import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from noisygates.gates import GateSpec, drive_generator
from noisygates.linalg import (
    _EXP_MU_LINEAR,
    _TAYLOR_THETA,
    _taylor_terms,
    STRIDED_MIN_SLICE,
    DECAY,
    I2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Workspace,
    apply_gate,
    basis_labels,
    dagger,
    embed,
    expm,
    expm_2x2,
    expm4_soa,
    kron,
)
from noisygates.lindblad import rhs_superoperator
from noisygates.noise_model import DeviceParams, QubitParams, noise_context_for_gate


def is_unitary(m: np.ndarray, tol: float = 1e-10) -> bool:
    m = np.asarray(m, dtype=complex)
    eye = np.eye(m.shape[-1])
    return bool(np.max(np.abs(dagger(m) @ m - eye)) <= tol)


def is_hermitian(m: np.ndarray, tol: float = 1e-12) -> bool:
    m = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(m - dagger(m))) <= tol)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with an explicit square-dimension check."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    return a @ b


def basis_state(n_qubits: int, index: int = 0) -> np.ndarray:
    """Computational basis state |index> on ``n_qubits`` (big-endian label)."""
    state = np.zeros(2**n_qubits, dtype=complex)
    state[index] = 1.0
    return state


def complex_matrices(dim, scale=1.0):
    reals = arrays(np.float64, (dim, dim), elements=st.floats(-scale, scale))
    return st.tuples(reals, reals).map(lambda ab: ab[0] + 1j * ab[1])


class TestMatmul:
    def test_identity(self):
        m = np.array([[1, 2j], [3, 4]], dtype=complex)
        assert np.array_equal(matmul(I2, m), m)

    def test_pauli_involution(self):
        assert np.allclose(matmul(PAULI_X, PAULI_X), I2)

    def test_xy_is_iz(self):
        # hand expansion: [[0,1],[1,0]] @ [[0,-i],[i,0]] = [[i,0],[0,-i]]
        assert np.allclose(matmul(PAULI_X, PAULI_Y), 1j * PAULI_Z)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            matmul(I2, np.eye(3, dtype=complex))


class TestKron:
    def test_batched_matches_numpy_per_matrix(self):
        rng = np.random.default_rng(3)
        a = random_complex(rng, (5, 2, 2))
        b = random_complex(rng, (5, 4, 4))
        out = kron(a, b)
        for i in range(5):
            assert np.array_equal(out[i], np.kron(a[i], b[i]))
        assert np.array_equal(kron(a, b[0]), np.stack([np.kron(x, b[0]) for x in a]))

    def test_identity_tensor_x(self):
        out = kron(I2, PAULI_X)
        assert np.allclose(out[:2, :2], PAULI_X)
        assert np.allclose(out[2:, 2:], PAULI_X)
        assert np.allclose(out[:2, 2:], 0)

    def test_z_tensor_x(self):
        out = kron(PAULI_Z, PAULI_X)
        assert np.allclose(out[:2, :2], PAULI_X)
        assert np.allclose(out[2:, 2:], -PAULI_X)

    def test_scalar_identity(self):
        m = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.array_equal(kron(np.array([[1.0]]), m), m)

    @given(complex_matrices(2), complex_matrices(2), complex_matrices(2))
    def test_associativity(self, a, b, c):
        assert np.allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-14)


def random_stack(rng, lead: tuple[int, ...]) -> np.ndarray:
    return rng.normal(size=lead + (2, 2)) + 1j * rng.normal(size=lead + (2, 2))


def mul_2x2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products a·b of (stacks of) 2x2 matrices, taken on the four entry
    vectors: a ``(2, 2)`` factor broadcasts against an ``(S, 2, 2)``
    stack.  On large stacks this is an order of magnitude faster than
    ``a @ b``, which dispatches S small products; the oracles of the
    one-qubit kernel use it."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    a00, a01, a10, a11 = a[..., 0, 0], a[..., 0, 1], a[..., 1, 0], a[..., 1, 1]
    b00, b01, b10, b11 = b[..., 0, 0], b[..., 0, 1], b[..., 1, 0], b[..., 1, 1]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    np.add(a00 * b00, a01 * b10, out=out[..., 0, 0])
    np.add(a00 * b01, a01 * b11, out=out[..., 0, 1])
    np.add(a10 * b00, a11 * b10, out=out[..., 1, 0])
    np.add(a10 * b01, a11 * b11, out=out[..., 1, 1])
    return out


class TestMul2x2:
    @pytest.mark.parametrize("lead_a, lead_b", [((7,), (7,)), ((), (7,)), ((7,), ()), ((), ())])
    def test_matches_matmul(self, lead_a, lead_b):
        rng = np.random.default_rng(31)
        a, b = random_stack(rng, lead_a), random_stack(rng, lead_b)
        out = mul_2x2(a, b)
        want = a @ b
        assert out.shape == want.shape
        assert np.abs(out - want).max() <= 1e-14 * np.abs(want).max()

    def test_order_matters(self):
        # X Z = -i Y, Z X = i Y
        assert np.allclose(mul_2x2(PAULI_X, PAULI_Z), -1j * PAULI_Y)
        assert np.allclose(mul_2x2(PAULI_Z, np.stack([PAULI_X, I2])), np.stack([1j * PAULI_Y, PAULI_Z]))


class TestExpm:
    def test_zero(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3))

    def test_rx_pi_closed_form(self):
        assert np.allclose(expm(-1j * (np.pi / 2) * PAULI_X), -1j * PAULI_X, atol=1e-14)

    def test_diagonal(self):
        out = expm(np.diag([0.3 + 1j, -2.0]))
        assert np.allclose(out, np.diag(np.exp([0.3 + 1j, -2.0])), atol=1e-13)

    def test_against_scipy_norm_up_to_ten(self):
        rng = np.random.default_rng(0)
        for dim in (2, 4, 6):
            a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            a *= 10.0 / np.linalg.norm(a, 1)
            want = scipy.linalg.expm(a)
            got = expm(a)
            assert np.abs(got - want).max() / np.abs(want).max() < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            expm(np.array([[np.nan, 0], [0, 0]]))

    @given(complex_matrices(2))
    def test_inverse_property(self, a):
        a *= 2.0 / max(np.linalg.norm(a, 1), 2.0)  # keep norm <= 2
        assert np.abs(expm(a) @ expm(-a) - I2).max() < 1e-10

    @given(complex_matrices(3))
    def test_unitary_for_hermitian_generator(self, h):
        h = 0.5 * (h + dagger(h))
        assert is_unitary(expm(-1j * h))

    def test_closed_form_2x2_agrees_with_expm(self):
        rng = np.random.default_rng(3)
        batch = rng.normal(size=(64, 2, 2)) + 1j * rng.normal(size=(64, 2, 2))
        assert np.abs(expm_2x2(batch) - expm(batch)).max() < 1e-11

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(4)
        batch = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
        stacked = expm(batch)
        for i in range(5):
            assert np.allclose(stacked[i], expm(batch[i]), atol=1e-12)


def assert_matches_scipy(got, a, bound=1e-12):
    """Every matrix of the stack within ``bound`` of scipy, relative to
    that matrix's largest entry."""
    d = a.shape[-1]
    for g, m in zip(got.reshape(-1, d, d), a.reshape(-1, d, d)):
        want = scipy.linalg.expm(m)
        assert np.abs(g - want).max() <= bound * np.abs(want).max()


def with_one_norm(a, norm):
    return a * (norm / np.abs(a).sum(axis=-2).max())


def with_q2(rng, z, mu=0.0):
    """Random non-normal 2x2 matrix with trace 2 mu and q^2 = -det of its
    traceless part equal to ``z``."""
    a00, b = rng.normal(size=2) + 1j * rng.normal(size=2)
    a00 *= 0.3 * np.sqrt(abs(z))
    return np.array([[mu + a00, b], [(z - a00 * a00) / b, mu - a00]])


def tail_bound(nu, n):
    """nu^(N+1) e^nu / (N+1)!: the Taylor tail of e^D past degree N."""
    return nu ** (n + 1) * math.exp(nu) / math.factorial(n + 1)


def degree_switch(n):
    """The 1-norm, below ``_TAYLOR_THETA``, at which ``_taylor_terms``
    moves from degree n to n + 1: where the tail bound of degree n
    reaches 2^-53, by bisection."""
    lo, hi = 0.0, _TAYLOR_THETA
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if tail_bound(mid, n) <= 2.0**-53 else (lo, mid)
    return lo


STRADDLE = (1.0 - 1e-6, 1.0 + 1e-6)
# every 1-norm at which _taylor_terms changes the degree N (the first,
# about 1.1e-16, leaves N = 0), and every one at which it changes the
# scaling power s, up to s = 9
DEGREE_SWITCHES = [degree_switch(n) for n in range(_taylor_terms(_TAYLOR_THETA)[0])]
SCALING_SWITCHES = [_TAYLOR_THETA * 2.0**k for k in range(9)]
EXPM_NORMS = [nu * f for nu in DEGREE_SWITCHES + SCALING_SWITCHES for f in STRADDLE]

DESK = DeviceParams(
    qubits=(
        QubitParams(t1_s=100e-6, t2_s=80e-6, p_readout=0.02),
        QubitParams(t1_s=90e-6, t2_s=70e-6, p_readout=0.025),
    ),
    t_1q_s=35e-9,
    t_2q_s=300e-9,
    p_1q=5e-4,
    p_2q=0.04,
)


def slot_generator(gate):
    """Lindblad generator of one slot of ``gate`` on ``DESK`` in the
    slot's own time, as the Lindblad reference builds it: the drive and
    each term at rate epsilon^2."""
    terms = [replace(term, rate=term.epsilon**2) for term in noise_context_for_gate(gate, DESK).terms]
    return rhs_superoperator(drive_generator(gate), terms)


class TestExpmAccuracy:
    """Both exponentials against scipy where their evaluation changes:
    either side of every switch of the Taylor degree N and scaling power
    s, in the 1-norm and, for ``cosh_sinhc``, in |q|."""

    @pytest.mark.parametrize("dim", [1, 2, 4, 16])
    @pytest.mark.parametrize("degree", range(len(DEGREE_SWITCHES)))
    def test_either_side_of_degree_switch(self, dim, degree):
        rng = np.random.default_rng(degree * 20 + dim)
        a = random_complex(rng, (dim, dim))
        picked = []
        for factor in STRADDLE:
            m = with_one_norm(a, DEGREE_SWITCHES[degree] * factor)
            picked.append(_taylor_terms(np.abs(m).sum(axis=-2).max()))
            assert_matches_scipy(expm(m), m)
            if dim == 2:
                assert_matches_scipy(expm_2x2(m), m)
        assert picked == [(degree, 0), (degree + 1, 0)]

    @pytest.mark.parametrize("dim", [1, 2, 4, 16])
    @pytest.mark.parametrize("power", range(len(SCALING_SWITCHES)))
    def test_either_side_of_scaling_switch(self, dim, power):
        rng = np.random.default_rng(power * 20 + dim)
        a = random_complex(rng, (dim, dim))
        picked = []
        for factor in STRADDLE:
            m = with_one_norm(a, SCALING_SWITCHES[power] * factor)
            picked.append(_taylor_terms(np.abs(m).sum(axis=-2).max())[1])
            assert_matches_scipy(expm(m), m)
            if dim == 2:
                assert_matches_scipy(expm_2x2(m), m)
        assert picked == [power, power + 1]

    def test_degree_zero_is_identity(self):
        a = with_one_norm(random_complex(np.random.default_rng(5), (3, 4, 4)), 1e-17)
        got = expm(a)
        assert np.array_equal(got, np.broadcast_to(np.eye(4), a.shape))
        assert_matches_scipy(got, a)

    @pytest.mark.parametrize("dim", [1, 4])
    def test_empty_stack(self, dim):
        assert expm(np.zeros((0, dim, dim))).shape == (0, dim, dim)

    @pytest.mark.parametrize(
        "gate",
        [
            GateSpec("X", (0,)),
            GateSpec("CNOT", (0, 1)),
            GateSpec("RX", (0,), theta=1e4),
            GateSpec("X", (0,), duration=1.0),
        ],
        ids=["x", "cnot", "rx_theta_1e4", "x_one_second"],
    )
    def test_slot_lindblad_generator(self, gate):
        # 4x4 and 16x16 superoperators, a drive of 1-norm 1e4 and decay
        # rates of 1e4 per slot
        m = slot_generator(gate)
        assert_matches_scipy(expm(m), m)

    @settings(max_examples=80, deadline=None)
    @given(
        dim=st.sampled_from([1, 2, 3, 4, 8]),
        lead=st.sampled_from([(), (5,), (2, 3)]),
        norm=st.sampled_from(EXPM_NORMS),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_expm_matches_scipy(self, dim, lead, norm, seed):
        a = with_one_norm(random_complex(np.random.default_rng(seed), lead + (dim, dim)), norm)
        before = a.copy()
        got = expm(a)
        assert got.shape == a.shape
        assert np.array_equal(a, before) and not np.shares_memory(got, a)
        assert_matches_scipy(got, a)

    @pytest.mark.parametrize("switch", range(len(DEGREE_SWITCHES + SCALING_SWITCHES)))
    def test_either_side_of_switch_as_cosh_sinhc_sees_it(self, switch, monkeypatch):
        # cosh_sinhc takes (N, s) from the largest |q| = sqrt(max|q^2|)
        q_norm = (DEGREE_SWITCHES + SCALING_SWITCHES)[switch]
        rng = np.random.default_rng(switch)
        picked = []

        def recording(nu):
            picked.append((nu, _taylor_terms(nu)))
            return picked[-1][1]

        monkeypatch.setattr("noisygates.linalg._taylor_terms", recording)
        for factor in STRADDLE:
            z = (q_norm * factor) ** 2 * np.exp(1j * rng.uniform(0, 2 * np.pi))
            m = with_q2(rng, z)
            assert_matches_scipy(expm_2x2(m), m)
        assert len(picked) == 2
        (nu_lo, below), (nu_hi, above) = picked
        assert np.allclose([nu_lo, nu_hi], [q_norm * f for f in STRADDLE], rtol=1e-9, atol=0)
        assert below != above

    def test_zero_matrix(self):
        zero = np.zeros((3, 2, 2), dtype=complex)
        assert np.array_equal(expm_2x2(zero), np.broadcast_to(I2, zero.shape))
        assert np.array_equal(expm(zero), np.broadcast_to(I2, zero.shape))

    def test_nilpotent(self):
        # q^2 = 0: e^(mu I + N) = e^mu (I + N) exactly
        n = np.array([[0.0, 3.0 + 1j], [0.0, 0.0]])
        mu = 0.2 - 0.4j
        want = np.exp(mu) * (I2 + n)
        assert np.abs(expm_2x2(mu * I2 + n) - want).max() < 1e-14
        assert np.abs(expm(mu * I2 + n) - want).max() < 1e-14

    @pytest.mark.parametrize("angle", [np.pi / 2, np.pi / 2 + 1e-9, 3 * np.pi / 2, 7.0])
    def test_pure_rotation(self, angle):
        # q = i angle, so cosh q = cos(angle), which is ~0 at odd pi/2
        for axis in (PAULI_X, PAULI_Y, (PAULI_X + PAULI_Z) / np.sqrt(2)):
            m = -1j * angle * axis
            want = np.cos(angle) * I2 - 1j * np.sin(angle) * axis
            assert np.abs(expm_2x2(m) - want).max() < 1e-13
            assert np.abs(expm(m) - want).max() < 1e-13

    @pytest.mark.parametrize("dim", [2, 4])
    def test_stack_with_large_outlier(self, dim):
        # the outlier sets the scaling for the whole stack; the small
        # matrices must keep their accuracy through the squarings
        rng = np.random.default_rng(dim)
        stack = 1e-3 * (rng.normal(size=(64, dim, dim)) + 1j * rng.normal(size=(64, dim, dim)))
        stack[17] = with_one_norm(stack[17], 9.0)
        assert_matches_scipy(expm(stack), stack)
        if dim == 2:
            assert_matches_scipy(expm_2x2(stack), stack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
    @pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_expm_2x2_rejects_non_finite(self, bad, entry):
        stack = np.zeros((4, 2, 2), dtype=complex)
        stack[2][entry] = bad
        with pytest.raises(ValueError):
            expm_2x2(stack)
        with pytest.raises(ValueError):
            expm(stack)


class TestWorkspace:
    def test_workspace_reuses_grows_and_pickles_empty(self):
        ws = Workspace()
        big = ws.take("a", (4, 4, 1000))
        small = ws.take("a", (3, 5))
        assert small.flags.c_contiguous and np.shares_memory(big, small)
        assert not np.shares_memory(big, ws.take("b", (4, 4, 1000)))
        grown = ws.take("a", (4, 4, 2000))
        assert grown.shape == (4, 4, 2000) and not np.shares_memory(big, grown)
        assert ws.take("c", (7,), float).dtype == np.float64
        assert len(pickle.dumps(ws)) == len(pickle.dumps(Workspace()))


def expm4(a, ws=None):
    """``expm4_soa`` on an ``(S, 4, 4)`` stack, which stays unchanged,
    as an ``(S, 4, 4)`` copy."""
    got = expm4_soa(a.transpose(1, 2, 0).copy(), Workspace() if ws is None else ws)
    return got.transpose(2, 0, 1).copy()


def stack_of(kind, rng, size=40):
    """``size`` 4x4 matrices of one structure, each with its own
    nonzero trace."""
    a = random_complex(rng, (size, 4, 4))
    if kind == "upper":
        a = np.triu(a)
    elif kind == "jordan":
        a = np.zeros_like(a)
        a[:, [0, 1, 2], [1, 2, 3]] = random_complex(rng, (size, 1))
    elif kind == "anti-hermitian":
        a = a - dagger(a)
    trace = random_complex(rng, (size, 1, 1))
    return a + trace * np.eye(4)


class TestExpm4Soa:
    """The Cayley-Hamilton kernel of two-qubit exponentials against scipy,
    within 1e-14 of each matrix's largest entry."""

    @pytest.mark.parametrize("kind", ["random", "upper", "jordan", "anti-hermitian"])
    @pytest.mark.parametrize("norm", [1e-8, 1e-3, 0.5, 0.99, 1.5, 4.0, 10.0])
    def test_matches_scipy(self, kind, norm):
        a = with_one_norm(stack_of(kind, np.random.default_rng(11)), norm)
        before = a.copy()
        assert_matches_scipy(expm4(a), a, bound=1e-14)
        assert np.array_equal(a, before)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_small_trace_either_side_of_linear_exp(self, factor):
        # e^mu is 1 + mu up to _EXP_MU_LINEAR, np.exp past it
        rng = np.random.default_rng(7)
        a = with_one_norm(random_complex(rng, (64, 4, 4)), 0.8)
        a -= np.trace(a, axis1=1, axis2=2)[:, None, None] / 4 * np.eye(4)
        a += factor * _EXP_MU_LINEAR * np.exp(1j * rng.uniform(0, 2 * np.pi, (64, 1, 1))) * np.eye(4)
        assert_matches_scipy(expm4(a), a, bound=1e-14)

    def test_large_trace(self):
        a = stack_of("random", np.random.default_rng(8))
        a += (1.5 - 2.0j) * np.eye(4)
        assert_matches_scipy(expm4(a), a, bound=1e-14)

    def test_zero_matrix_is_identity(self):
        ws = Workspace()
        expm4(random_complex(np.random.default_rng(9), (5, 4, 4)), ws)  # leave data behind
        got = expm4(np.zeros((5, 4, 4), dtype=complex), ws)
        assert np.array_equal(got, np.broadcast_to(np.eye(4), (5, 4, 4)))

    def test_empty_stack(self):
        got = expm4_soa(np.zeros((4, 4, 0), dtype=complex), Workspace())
        assert got.shape == (4, 4, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 2), (3, 3)])
    def test_rejects_non_finite(self, bad, entry):
        x = np.zeros((4, 4, 3), dtype=complex)
        x[entry + (1,)] = bad
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            expm4_soa(x, Workspace())

    @pytest.mark.parametrize("nu", [0.0, 1e-8, 1e-3, 0.5, 0.77, 0.99, 1.0, 1.5, _TAYLOR_THETA])
    def test_fewest_terms_within_the_tail_bound(self, nu):
        n, s = _taylor_terms(nu)
        assert s == 0
        assert tail_bound(nu, n) <= 2.0**-53
        assert n == 0 or tail_bound(nu, n - 1) > 2.0**-53

    @pytest.mark.parametrize("nu", [_TAYLOR_THETA * 1.001, 4.0, 10.0, 26.0, 1e3])
    def test_scaling_into_theta(self, nu):
        n, s = _taylor_terms(nu)
        assert nu / 2**s <= _TAYLOR_THETA < nu / 2 ** (s - 1)
        assert tail_bound(nu / 2**s, n) <= 2.0**-53 < tail_bound(nu / 2**s, n - 1)

    def test_reused_workspace_bit_identical(self):
        ws = Workspace()
        rng = np.random.default_rng(10)
        # S changes from call to call; 9.0 takes the scaling branch
        for size, norm in [(1000, 0.7), (64, 9.0), (7, 0.01), (1000, 0.7)]:
            a = with_one_norm(random_complex(rng, (size, 4, 4)), norm)
            assert np.array_equal(expm4(a, ws), expm4(a))


def embedded_matrix(op: np.ndarray, qubits: list[int], n: int) -> np.ndarray:
    """Reference: ``op`` on ``qubits`` of an n-qubit register, built entry by
    entry from kron(op, I) and the bit permutation that puts the listed
    qubits first (big-endian, first listed qubit most significant)."""
    big = np.kron(op, np.eye(2 ** (n - len(qubits))))
    order = list(qubits) + [q for q in range(n) if q not in qubits]
    perm = [sum(((i >> (n - 1 - q)) & 1) << (n - 1 - j) for j, q in enumerate(order)) for i in range(2**n)]
    return big[np.ix_(perm, perm)]


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# (n, qubits): every path of apply_gate -- kron (2^k R < STRIDED_MIN_SLICE,
# R = 1 among them), strided (2^k R >= STRIDED_MIN_SLICE), and the
# transposed path of descending and non-adjacent lists.
APPLY_CASES = [
    (1, [0]),
    (2, [0, 1]),
    (3, [1]),
    (4, [1, 2]),
    (6, [0]),
    (6, [0, 1, 2]),
    (6, [3, 4, 5]),
    (6, [2, 3]),
    (7, [1, 2]),
    (5, [1, 0]),
    (6, [4, 2]),
    (6, [0, 5, 2]),
]


def apply_path(n, qubits):
    k, lo = len(qubits), qubits[0]
    if qubits != list(range(lo, lo + k)):
        return "transpose"
    rest = 2 ** (n - lo - k)
    if rest == 1:
        return "kron, R = 1"
    return "strided" if rest << k >= STRIDED_MIN_SLICE else "kron"


# Every run of k <= 3 adjacent qubits on n <= 7, ascending and descending.
RUNS = [
    (n, list(range(lo, lo + k))[::step])
    for n in range(1, 8)
    for k in range(1, min(3, n) + 1)
    for lo in range(n - k + 1)
    for step in ((1, -1) if k > 1 else (1,))
]


def reference(state, gate, qubits, n):
    """apply_gate's result built from the embedded matrix, per shot."""
    d, shots = gate.shape[-1], state.shape[0] if state.ndim == 2 else 1
    gates = gate if gate.ndim == 3 else np.broadcast_to(gate, (shots, d, d))
    states = state if state.ndim == 2 else state[None]
    want = np.stack([embedded_matrix(g, qubits, n) @ v for g, v in zip(gates, states)])
    return want.reshape(state.shape)


class TestApplyGateAgainstEmbedding:
    def test_cases_cover_every_path(self):
        paths = {apply_path(n, q) for n, q in APPLY_CASES}
        assert paths == {"kron, R = 1", "kron", "strided", "transpose"}
        assert {apply_path(n, q) for n, q in RUNS} == paths

    @pytest.mark.parametrize("n,qubits", APPLY_CASES)
    @pytest.mark.parametrize("mode", ["single", "batched states", "batched both"])
    def test_matches_embedded_matrix(self, n, qubits, mode):
        rng = np.random.default_rng(n * 100 + len(qubits))
        d, shots = 2 ** len(qubits), 3
        gate = random_complex(rng, (shots, d, d) if mode == "batched both" else (d, d))
        state = random_complex(rng, (2**n,) if mode == "single" else (shots, 2**n))
        out = apply_gate(state, gate, qubits)
        if mode == "single":
            want = embedded_matrix(gate, qubits, n) @ state
        elif mode == "batched states":
            want = state @ embedded_matrix(gate, qubits, n).T
        else:
            want = np.stack([embedded_matrix(g, qubits, n) @ v for g, v in zip(gate, state)])
        assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()

    @given(st.data())
    def test_property(self, data):
        n = data.draw(st.integers(1, 6), label="n")
        k = data.draw(st.integers(1, min(3, n)), label="k")
        layout = data.draw(st.sampled_from(["contiguous", "descending", "any"]), label="layout")
        if layout == "any":
            qubits = data.draw(st.permutations(range(n)), label="order")[:k]
        else:
            lo = data.draw(st.integers(0, n - k), label="lo")
            qubits = list(range(lo, lo + k))[:: 1 if layout == "contiguous" else -1]
        batched_state = data.draw(st.booleans(), label="batched state")
        batched_gate = batched_state and data.draw(st.booleans(), label="batched gate")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        d, shots = 2**k, 2
        gate = random_complex(rng, (shots, d, d) if batched_gate else (d, d))
        state = random_complex(rng, (shots, 2**n) if batched_state else (2**n,))
        want = reference(state, gate, qubits, n)
        assert np.abs(apply_gate(state, gate, qubits) - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_adjacent_run(self, n):
        rng = np.random.default_rng(n)
        shots = 3
        for _, qubits in [case for case in RUNS if case[0] == n]:
            d = 2 ** len(qubits)
            for gate_shape, state_shape in (((d, d), (2**n,)), ((d, d), (shots, 2**n)), ((shots, d, d), (shots, 2**n))):
                gate, state = random_complex(rng, gate_shape), random_complex(rng, state_shape)
                before = state.copy()
                want = reference(state, gate, qubits, n)
                bound = 1e-12 * np.abs(want).max()
                assert np.abs(apply_gate(state, gate, qubits) - want).max() <= bound, qubits
                out = np.full(state.shape, np.nan, dtype=complex)
                assert apply_gate(state, gate, qubits, out=out) is out
                assert np.abs(out - want).max() <= bound, qubits
                assert np.array_equal(state, before)

    @pytest.mark.parametrize("n,qubits", [(3, [1]), (6, [0]), (6, [2, 3]), (5, [1, 0])])
    def test_out_overlapping_state_rejected(self, n, qubits):
        d, shots = 2 ** len(qubits), 2
        gate = random_complex(np.random.default_rng(0), (d, d))
        buf = np.zeros(3 * shots * 2**n, dtype=complex)
        state = buf[: shots * 2**n].reshape(shots, 2**n)
        shifted = buf[2**n : 2**n + shots * 2**n].reshape(shots, 2**n)
        for out in (state, shifted):
            with pytest.raises(ValueError, match="overlaps"):
                apply_gate(state, gate, qubits, out=out)
        for out in (np.empty((shots, 2**n + 1), dtype=complex), np.empty((shots, 2**n)), np.empty((2**n, shots), dtype=complex).T):
            with pytest.raises(ValueError, match="C-contiguous complex"):
                apply_gate(state, gate, qubits, out=out)

    @pytest.mark.parametrize("n,qubits", [(1, [0]), (3, [2, 0]), (4, [1, 3, 2]), (5, [0, 1]), (5, [4])])
    def test_embed_is_the_reference_matrix(self, n, qubits):
        rng = np.random.default_rng(n)
        d = 2 ** len(qubits)
        ops = random_complex(rng, (4, d, d))
        out = embed(ops, qubits, n)
        for op, full in zip(ops, out):
            assert np.array_equal(full, embedded_matrix(op, qubits, n))


class TestApplyGate:
    def test_x_on_q0_big_endian(self):
        out = apply_gate(basis_state(2, 0), PAULI_X, [0])
        assert np.argmax(np.abs(out)) == 2  # |00> -> |10>

    def test_identity_leaves_state(self):
        state = np.arange(8, dtype=complex) / np.linalg.norm(np.arange(8))
        assert np.allclose(apply_gate(state, I2, [1]), state)

    def test_cnot_control_q0(self):
        cnot = np.eye(4, dtype=complex)
        cnot[2:, 2:] = PAULI_X
        out = apply_gate(basis_state(2, 2), cnot, [0, 1])
        assert np.argmax(np.abs(out)) == 3  # |10> -> |11>

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError):
            apply_gate(basis_state(2), np.eye(4, dtype=complex), [0, 0])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            apply_gate(basis_state(2), PAULI_X, [2])

    @given(complex_matrices(2))
    def test_unitary_roundtrip(self, h):
        h = 0.5 * (h + dagger(h))
        u = expm(-1j * h)
        state = basis_state(3, 5)
        back = apply_gate(apply_gate(state, u, [1]), dagger(u), [1])
        assert np.abs(back - state).max() < 1e-12

    def test_batched_states_and_gates(self):
        rng = np.random.default_rng(7)
        states = rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8))
        gates = np.stack([scipy.linalg.expm(-1j * 0.3 * k * PAULI_Y) for k in range(6)])
        out = apply_gate(states, gates, [2])
        for i in range(6):
            assert np.allclose(out[i], apply_gate(states[i], gates[i], [2]))


class TestPredicates:
    def test_is_unitary(self):
        assert is_unitary(PAULI_X)
        assert not is_unitary(DECAY)

    def test_is_hermitian(self):
        assert is_hermitian(PAULI_Y)
        assert not is_hermitian(DECAY)


class TestBasisLabels:
    def test_big_endian(self):
        assert basis_labels(2) == ["0", "1"]
        assert basis_labels(8)[6] == "110"

    @pytest.mark.parametrize("n", [1, 5, 7])
    def test_unique_and_full_width(self, n):
        labels = basis_labels(2**n)
        assert len(set(labels)) == 2**n
        assert all(len(b) == n for b in labels)
