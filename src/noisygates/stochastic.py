"""Randomness and Gaussian factors for the trajectory simulator.

Provides reproducible counter-based random streams, the composite
Gauss-Legendre rule on which Ito covariances are evaluated (so exact
Gaussian draws of Ito integrals carry no time-discretisation error),
the one factorisation rule that turns such a covariance into the
matrix mapping independent normals onto the draw, and the
product-formula defect used for order-of-convergence tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import expm

__all__ = [
    "RngStream",
    "gauss_legendre_rule",
    "product_formula_error",
]


@dataclass(frozen=True)
class RngStream:
    """Reproducible random stream keyed by (master_seed, stream_index).

    Streams with equal keys yield identical sample sequences on every
    platform and for any worker layout; distinct keys are statistically
    independent (Philox counter-based generator under the hood).
    ``child(i)`` derives an independent sub-stream, e.g. one per
    trajectory or per chunk of trajectories.
    """

    master_seed: int
    stream_index: int = 0
    _path: tuple[int, ...] = ()

    def child(self, index: int) -> "RngStream":
        return RngStream(self.master_seed, self.stream_index, self._path + (index,))

    @property
    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_index, *self._path)
        )
        return np.random.Generator(np.random.Philox(seq))


def gauss_legendre_rule(nodes: int, panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    xs, ws = [], []
    width = 1.0 / panels
    for p in range(panels):
        a = p * width
        xs.append(a + 0.5 * width * (x + 1.0))
        ws.append(0.5 * width * w)
    return np.concatenate(xs), np.concatenate(ws)


def _psd_factor(cov: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Factor L with L L^T = cov for PSD cov, one column per positive
    eigenvalue, so L has as many columns as cov has rank.  Eigenvalues
    below 1e-13 of the largest are round-off and dropped; a negative one
    beyond -tol*scale fails loudly."""
    scale = float(np.max(np.abs(cov))) if cov.size else 0.0
    if scale == 0.0:
        return np.zeros((cov.shape[0], 0))
    lam, u = np.linalg.eigh(cov)
    if lam.min() < -tol * max(scale, 1.0):
        raise ValueError(f"covariance not PSD: min eigenvalue {lam.min():.3e}")
    keep = lam >= 1e-13 * lam.max()
    return u[:, keep] * np.sqrt(lam[keep])


def product_formula_error(
    a_list: list[np.ndarray], b_list: list[np.ndarray], eps: float
) -> float:
    """Max-entry defect of collapsing an ordered product of local
    exponentials into two exponentials of the summed generators.

    Compares prod_m exp(eps B_m + eps^2/2 A_m)  (m increasing applied
    right to left) against exp(eps^2/2 A) exp(eps B + eps^2/2 C) with
    A = sum A_m, B = sum B_m and C = sum_k [B_k, sum_{j<=k} B_j].  The
    defect is O(eps^3).
    """
    if len(a_list) != len(b_list):
        raise ValueError("a_list and b_list must have equal length")
    d = np.asarray(b_list[0]).shape[0] if b_list else 2
    lhs = np.eye(d, dtype=complex)
    big_a = np.zeros((d, d), dtype=complex)
    big_b = np.zeros((d, d), dtype=complex)
    big_c = np.zeros((d, d), dtype=complex)
    for a_m, b_m in zip(a_list, b_list):
        a_m = np.asarray(a_m, dtype=complex)
        b_m = np.asarray(b_m, dtype=complex)
        lhs = expm(eps * b_m + 0.5 * eps**2 * a_m) @ lhs
        big_a = big_a + a_m
        big_b = big_b + b_m
        big_c = big_c + (b_m @ big_b - big_b @ b_m)
    rhs = expm(0.5 * eps**2 * big_a) @ expm(eps * big_b + 0.5 * eps**2 * big_c)
    return float(np.max(np.abs(lhs - rhs)))
