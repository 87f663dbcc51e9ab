import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from noisygates.metrics import clamp_probs, hellinger, mean_std_over_runs


def relative_improvement(h_baseline: float, h_method: float) -> float:
    """|h_baseline - h_method| / h_baseline."""
    if h_baseline <= 0:
        raise ValueError("baseline distance must be positive")
    return abs(h_baseline - h_method) / h_baseline


def _psd_sqrt(rho: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    lam, u = np.linalg.eigh(rho)
    if lam.min() < -tol:
        raise ValueError(f"matrix is not PSD: min eigenvalue {lam.min():.3e}")
    return (u * np.sqrt(np.clip(lam, 0.0, None))) @ u.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    root = _psd_sqrt(rho)
    inner = root @ sigma @ root
    lam = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    value = float(np.sum(np.sqrt(np.clip(lam, 0.0, None)))) ** 2
    return min(max(value, 0.0), 1.0)


def prob_vectors(n=4):
    return (
        st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n)
        .map(np.array)
        .map(lambda v: v / v.sum())
    )


class TestHellinger:
    def test_identical(self):
        p = np.array([0.2, 0.8])
        assert hellinger(p, p) == 0.0

    def test_disjoint_point_masses(self):
        assert hellinger(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(1.0)

    def test_arithmetic_example(self):
        # (1/sqrt 2) sqrt((1 - sqrt .5)^2 + .5), evaluated independently
        want = math.sqrt(((1 - math.sqrt(0.5)) ** 2 + 0.5) / 2)
        assert hellinger(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(want)
        assert want == pytest.approx(0.5411961001461971)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hellinger(np.array([1.0]), np.array([0.5, 0.5]))

    def test_negative_roundoff_clamped(self):
        p = np.array([1.0 + 1e-13, -1e-13])
        assert hellinger(p, np.array([1.0, 0.0])) < 1e-6

    @given(prob_vectors(), prob_vectors())
    def test_bounds_and_symmetry(self, p, q):
        h = hellinger(p, q)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(hellinger(q, p), abs=1e-14)

    @given(prob_vectors(), prob_vectors(), prob_vectors())
    def test_triangle_inequality(self, p, q, r):
        assert hellinger(p, r) <= hellinger(p, q) + hellinger(q, r) + 1e-12


class TestRelativeImprovement:
    def test_examples(self):
        assert relative_improvement(1.0, 0.4) == pytest.approx(0.6)
        assert relative_improvement(0.3, 0.3) == 0.0
        assert relative_improvement(0.5, 0.05) == pytest.approx(0.9)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            relative_improvement(0.0, 0.1)


class TestFidelity:
    def test_self_fidelity(self):
        rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_pure_versus_mixed(self):
        pure = np.diag([1.0, 0.0]).astype(complex)
        assert fidelity(pure, np.eye(2) / 2) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_on_random_states(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = a @ a.conj().T
            rho /= np.trace(rho)
            sigma = b @ b.conj().T
            sigma /= np.trace(sigma)
            assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-10)
            assert 0.0 <= fidelity(rho, sigma) <= 1.0


class TestMeanStd:
    def test_single_run(self):
        mean, std = mean_std_over_runs([np.array([1.0, 2.0])])
        assert np.array_equal(mean, [1.0, 2.0])
        assert np.array_equal(std, [0.0, 0.0])

    def test_constant_runs(self):
        mean, std = mean_std_over_runs([np.ones(3), np.ones(3)])
        assert np.array_equal(std, np.zeros(3))

    def test_two_runs(self):
        mean, std = mean_std_over_runs([np.array([0.0]), np.array([1.0])])
        assert mean[0] == pytest.approx(0.5)
        assert std[0] == pytest.approx(math.sqrt(0.5))  # (n-1) denominator


class TestClampProbs:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            clamp_probs(np.array([0.5, 0.4]))

    def test_rejects_large_negative(self):
        with pytest.raises(ValueError):
            clamp_probs(np.array([1.1, -0.1]))
