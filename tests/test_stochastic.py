import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest
import scipy.stats

from noisygates.gates import GateSpec, XiSampler, scale_context, schedule
from noisygates.linalg import DECAY, I2, PAULI_X, Workspace
from noisygates.noise_model import load_calibration, noise_context_for_gate
from noisygates.stochastic import RngStream, _psd_factor, gauss_legendre_rule, product_formula_error

DESK_DEVICE = Path(__file__).resolve().parents[1] / "configs" / "desk_device.json"


# ---------------------------------------------------------------------------
# Generic sampler of Ito integrals I = int_0^1 f(s) dW_s of deterministic
# matrix-valued integrands, with a substep Riemann-sum cross-check.  It is
# the test oracle for XiSampler, which sums the same covariances over its
# jump terms and factors them once.


def wiener_increments(rng: RngStream | np.random.Generator, m: int, dt: float) -> np.ndarray:
    """Draw ``m`` independent N(0, dt) Wiener increments."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if dt <= 0:
        raise ValueError("dt must be positive")
    gen = rng.generator if isinstance(rng, RngStream) else rng
    return gen.normal(0.0, np.sqrt(dt), size=m)


@dataclass(frozen=True)
class ItoIntegralSpec:
    """Deterministic integrand s in [0, 1] -> complex matrix, plus the
    quadrature resolution used for its covariance."""

    integrand: Callable[[float], np.ndarray]
    quadrature_nodes: int = 32
    panels: int = 4


def _stacked_integrand(spec: ItoIntegralSpec) -> tuple[np.ndarray, np.ndarray, int]:
    """Evaluate the integrand on the quadrature grid, stacked as real
    vectors [Re entries, Im entries] of length 2 d^2 per node."""
    if spec.quadrature_nodes < 16:
        raise ValueError("quadrature_nodes must be >= 16")
    s, w = gauss_legendre_rule(spec.quadrature_nodes, spec.panels)
    first = np.asarray(spec.integrand(float(s[0])), dtype=complex)
    d = first.shape[0]
    vals = np.empty((len(s), 2 * d * d))
    for i, si in enumerate(s):
        m = np.asarray(spec.integrand(float(si)), dtype=complex).reshape(-1)
        if not np.all(np.isfinite(m)):
            raise ValueError(f"integrand not finite at s={si}")
        vals[i, : d * d] = m.real
        vals[i, d * d :] = m.imag
    return vals, w, d


def ito_covariance(spec: ItoIntegralSpec) -> np.ndarray:
    """Covariance of the stacked real Gaussian vector [Re I, Im I] of
    I = int_0^1 f(s) dW_s, from the Ito isometry
    Cov[a, b] = int_0^1 f~_a(s) f~_b(s) ds."""
    vals, w, _ = _stacked_integrand(spec)
    return (vals * w[:, None]).T @ vals


class GaussianIntegralSampler:
    """Caches the covariance factor of an Ito integral so repeated draws
    (and batched draws) cost one matrix-vector product each."""

    def __init__(self, spec: ItoIntegralSpec):
        self.dim = _stacked_integrand(spec)[2]
        self.factor = _psd_factor(ito_covariance(spec))

    def sample(self, rng: RngStream | np.random.Generator, size: int | None = None) -> np.ndarray:
        gen = rng.generator if isinstance(rng, RngStream) else rng
        d = self.dim
        n = 1 if size is None else size
        g = gen.standard_normal((n, self.factor.shape[1]))
        v = g @ self.factor.T
        out = (v[:, : d * d] + 1j * v[:, d * d :]).reshape(n, d, d)
        return out[0] if size is None else out


def sample_ito_integral(spec: ItoIntegralSpec, rng: RngStream | np.random.Generator) -> np.ndarray:
    """One exact draw of int_0^1 f(s) dW_s (zero-mean Gaussian)."""
    return GaussianIntegralSampler(spec).sample(rng)


def sample_ito_substeps(
    spec: ItoIntegralSpec, m_substeps: int, rng: RngStream | np.random.Generator, size: int
) -> np.ndarray:
    """Brute-force draws: ``size`` midpoint Riemann sums
    sum_m f((m+1/2)/M) dW_m with dW_m ~ N(0, 1/M).  The integrand is
    evaluated once on the M midpoints and the ``(size, M)`` increments
    are drawn as one block, row by row.  Cross-validation oracle for
    :func:`sample_ito_integral`."""
    if m_substeps < 1:
        raise ValueError("m_substeps must be >= 1")
    mids = (np.arange(m_substeps) + 0.5) / m_substeps
    values = np.stack([np.asarray(spec.integrand(float(si)), dtype=complex) for si in mids])
    gen = rng.generator if isinstance(rng, RngStream) else rng
    dw = gen.normal(0.0, math.sqrt(1.0 / m_substeps), size=(size, m_substeps))
    return np.tensordot(dw, values, axes=(1, 0))


class TestRngStream:
    def test_determinism(self):
        a = RngStream(7, 3).generator.normal(size=10)
        b = RngStream(7, 3).generator.normal(size=10)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(7, 3).generator.normal(size=10)
        b = RngStream(7, 4).generator.normal(size=10)
        assert not np.array_equal(a, b)

    def test_children_independent_of_parent_draws(self):
        parent = RngStream(1)
        child_before = parent.child(2).generator.normal(size=4)
        parent.generator.normal(size=100)  # consuming the parent changes nothing
        child_after = parent.child(2).generator.normal(size=4)
        assert np.array_equal(child_before, child_after)


class TestWienerIncrements:
    def test_moments(self):
        draws = wiener_increments(RngStream(11), 1_000_000, 1.0)
        assert abs(draws.mean()) < 0.004  # 3 sigma CLT bound at 1e6 draws
        draws = wiener_increments(RngStream(12), 1_000_000, 0.25)
        assert abs(draws.var() - 0.25) < 0.002

    def test_reproducible(self):
        a = wiener_increments(RngStream(5), 16, 0.5)
        b = wiener_increments(RngStream(5), 16, 0.5)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            wiener_increments(RngStream(0), 0, 1.0)
        with pytest.raises(ValueError):
            wiener_increments(RngStream(0), 1, 0.0)


class TestItoCovariance:
    def test_constant_x(self):
        spec = ItoIntegralSpec(lambda s: PAULI_X)
        cov = ito_covariance(spec)
        # Re-entry (0,1) is stacked at index 1; all Im rows/cols vanish
        assert abs(cov[1, 1] - 1.0) < 1e-12
        assert np.abs(cov[4:, :]).max() < 1e-14

    def test_exponential_decay(self):
        spec = ItoIntegralSpec(lambda s: np.exp(-s / 2) * DECAY)
        cov = ito_covariance(spec)
        assert abs(cov[1, 1] - (1 - np.exp(-1))) < 1e-12

    def test_cosine(self):
        spec = ItoIntegralSpec(lambda s: np.cos(np.pi * s) * PAULI_X)
        assert abs(ito_covariance(spec)[1, 1] - 0.5) < 1e-12

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            ito_covariance(ItoIntegralSpec(lambda s: PAULI_X, quadrature_nodes=8))

    def test_non_finite_integrand_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ito_covariance(ItoIntegralSpec(lambda s: np.full((2, 2), np.nan)))


class TestSampleItoIntegral:
    def test_constant_identity_variance(self):
        spec = ItoIntegralSpec(lambda s: I2)
        sampler = GaussianIntegralSampler(spec)
        draws = sampler.sample(RngStream(21).generator, 100_000)
        var = np.real(draws[:, 0, 0]).var()
        assert abs(var - 1.0) < 0.02
        # constant identity integrand: both diagonal entries share one W
        assert np.allclose(draws[:, 0, 0], draws[:, 1, 1])
        assert np.abs(draws[:, 0, 1]).max() < 1e-12

    def test_zero_integrand(self):
        spec = ItoIntegralSpec(lambda s: np.zeros((2, 2)))
        for _ in range(3):
            assert np.array_equal(sample_ito_integral(spec, RngStream(1)), np.zeros((2, 2)))

    def test_isometry_against_empirical_covariance(self):
        spec = ItoIntegralSpec(lambda s: np.exp(-s / 2) * DECAY + np.cos(np.pi * s) * 1j * PAULI_X)
        cov = ito_covariance(spec)
        draws = GaussianIntegralSampler(spec).sample(RngStream(22).generator, 100_000)
        flat = np.concatenate([draws.reshape(-1, 4).real, draws.reshape(-1, 4).imag], axis=1)
        emp = np.cov(flat.T)
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / flat.shape[0])
        assert np.all(np.abs(emp - cov) <= 5 * se + 1e-12)

    def test_matches_substep_distribution(self):
        spec = ItoIntegralSpec(lambda s: np.exp(-s / 2) * DECAY)
        exact = GaussianIntegralSampler(spec).sample(RngStream(23).generator, 10_000)
        gen = RngStream(24).generator
        sub = sample_ito_substeps(spec, 512, gen, 10_000)
        # same entry, two samplers: KS and moment agreement
        x = np.real(exact[:, 0, 1])
        y = np.real(sub[:, 0, 1])
        assert scipy.stats.ks_2samp(x, y).pvalue > 0.01
        pooled_se = np.sqrt(x.var() / x.size + y.var() / y.size)
        assert abs(x.mean() - y.mean()) < 3 * pooled_se
        var_se = np.sqrt(2 / x.size) * max(x.var(), y.var())
        assert abs(x.var() - y.var()) < 3 * np.sqrt(2) * var_se


class TestProductFormula:
    def test_zero_generators(self):
        zeros = [np.zeros((2, 2))] * 4
        assert product_formula_error(zeros, zeros, 0.1) == 0.0

    def test_single_factor_third_order(self):
        rng = np.random.default_rng(8)
        a = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))]
        b = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))]
        e1 = product_formula_error(a, b, 0.1)
        e2 = product_formula_error(a, b, 0.05)
        assert 6.0 < e1 / e2 < 10.0  # halving eps divides the defect by ~8

    def test_slope_on_random_instances(self):
        gen = np.random.default_rng(9)
        eps_grid = (0.2, 0.1, 0.05, 0.02)
        for _ in range(20):
            r = np.sqrt(gen.uniform(size=(8, 2, 2)))
            a_list = list(r * np.exp(2j * np.pi * gen.uniform(size=(8, 2, 2))))
            r = np.sqrt(gen.uniform(size=(8, 2, 2)))
            b_list = list(r * np.exp(2j * np.pi * gen.uniform(size=(8, 2, 2))))
            errs = [product_formula_error(a_list, b_list, e) for e in eps_grid]
            slope = np.polyfit(np.log(eps_grid), np.log(errs), 1)[0]
            assert slope >= 2.7

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            product_formula_error([np.eye(2)], [], 0.1)


XI_GATES = {
    "X": GateSpec("X", (0,)),
    "SX": GateSpec("SX", (0,)),
    "RX": GateSpec("RX", (0,), theta=0.7),
    "CR": GateSpec("CR", (0, 1), theta=math.pi / 2),
    "CNOT": GateSpec("CNOT", (0, 1)),
    "IDLE": GateSpec("IDLE", (0,), duration=1e-7),
}


def desk_xi(name, noise_scale=1.0):
    gate = XI_GATES[name]
    ctx = scale_context(noise_context_for_gate(gate, load_calibration(DESK_DEVICE)), noise_scale)
    sched = schedule(gate.with_duration(ctx.gate_duration))
    return sched, ctx, XiSampler(sched, ctx)


class TestXiSamplerFactor:
    """XiSampler factors one covariance per gate.  The Wiener processes of
    the jump terms are independent, so that covariance must be the sum,
    over the terms, of the generic sampler's covariance of the integrand
    i eps_k L_{k,s} = i eps_k U_s^dag L_k U_s."""

    @pytest.mark.parametrize(
        "name, noise_scale", [(name, 1.0) for name in XI_GATES] + [("X", 30.0), ("CNOT", 30.0)]
    )
    def test_covariance_is_sum_of_term_covariances(self, name, noise_scale):
        sched, ctx, sampler = desk_xi(name, noise_scale)
        want = 0.0
        for term in ctx.terms:
            def integrand(s, term=term):
                u = sched.unitary_at(s)
                return 1j * term.epsilon * (u.conj().T @ term.operator @ u)

            factor = GaussianIntegralSampler(ItoIntegralSpec(integrand)).factor
            want = want + factor @ factor.T
        got = sampler.factor @ sampler.factor.T
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("name, rank", [("X", 5), ("SX", 5), ("RX", 5), ("CR", 19), ("CNOT", 21), ("IDLE", 2)])
    def test_normals_per_draw_are_the_rank(self, name, rank):
        sampler = desk_xi(name)[2]
        assert sampler.n_gaussians == rank
        assert sampler.factor.shape == (2 * sampler.dim**2, rank)

    @pytest.mark.parametrize("name", ["X", "CNOT"])
    def test_zero_noise_draws_no_normals(self, name):
        sampler = desk_xi(name, 0.0)[2]
        assert sampler.n_gaussians == 0
        gen = np.random.default_rng(0)
        state = gen.bit_generator.state
        draws = sampler.sample(gen, 3, Workspace())
        assert draws.shape == (3, sampler.dim, sampler.dim)
        assert not np.any(draws)
        assert gen.bit_generator.state == state


class TestPsdFactor:
    def test_one_column_per_positive_eigenvalue(self):
        v = np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 3.0]]).T
        cov = v @ v.T
        factor = _psd_factor(cov)
        assert factor.shape == (3, 2)
        assert np.allclose(factor @ factor.T, cov, atol=1e-14)

    def test_zero_covariance_has_no_columns(self):
        assert _psd_factor(np.zeros((4, 4))).shape == (4, 0)

    def test_round_off_negative_is_dropped(self):
        factor = _psd_factor(np.diag([1.0, -1e-14]))
        assert factor.shape == (2, 1)

    def test_non_psd_raises(self):
        with pytest.raises(ValueError, match="not PSD"):
            _psd_factor(np.diag([1.0, -0.1]))
