"""Stochastic noisy-gate quantum circuit simulator.

Per Monte Carlo trajectory, each ideal gate is replaced by a sampled
non-unitary matrix whose ensemble average reproduces the driven
Lindblad dynamics to second order in the noise amplitudes.  A channel
simulator (ideal gate, then noise channels) and a Lindblad reference,
the exact exponential of each slot's master-equation generator, serve
as baselines, with a Hellinger-distance benchmarking harness on top.
"""

from . import channels, engine, experiments, gates, lindblad, linalg, metrics, noise_model, stochastic

__version__ = "0.1.0"

__all__ = [
    "channels",
    "engine",
    "experiments",
    "gates",
    "lindblad",
    "linalg",
    "metrics",
    "noise_model",
    "stochastic",
    "__version__",
]
