"""Distance and comparison statistics between simulator outputs."""

from __future__ import annotations

import numpy as np

__all__ = [
    "clamp_probs",
    "hellinger",
    "mean_std_over_runs",
]

_NEG_TOL = 1e-12


def clamp_probs(p: np.ndarray) -> np.ndarray:
    """Validate a probability vector, clamping round-off negatives."""
    p = np.asarray(p, dtype=float)
    if p.min() < -_NEG_TOL:
        raise ValueError(f"negative probability beyond round-off: {p.min():.3e}")
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return p


def hellinger(p: np.ndarray, q: np.ndarray) -> float:
    """Hellinger distance sqrt(sum (sqrt(p_k) - sqrt(q_k))^2 / 2) in [0, 1]."""
    p = clamp_probs(p)
    q = clamp_probs(q)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return float(np.sqrt(0.5 * np.sum((np.sqrt(p) - np.sqrt(q)) ** 2)))


def mean_std_over_runs(series_list) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise sample mean and (n-1)-denominator standard deviation
    across repeated runs of the same series."""
    stacked = np.asarray(series_list, dtype=float)
    if stacked.ndim == 1:
        stacked = stacked[None, :]
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0, ddof=1) if stacked.shape[0] > 1 else np.zeros_like(mean)
    return mean, std
