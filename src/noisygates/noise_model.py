"""Device calibration and its conversion to jump operators with amplitudes.

The calibration file is a strict JSON document::

    {
      "qubits": [ {"t1_s": float, "t2_s": float, "p_readout": float}, ... ],
      "gates":  {"t_1q_s": float, "t_2q_s": float, "p_1q": float, "p_2q": float}
    }

All times are in seconds; unknown keys are rejected.  Rates are derived
so that the continuous jump processes reproduce the corresponding
discrete channels exactly over one gate duration T:

* amplitude damping gamma1 = 1/T1 and pure dephasing
  gamma_pd = 2/T2 - 1/T1 (requires T2 <= 2 T1),
* the 4^k - 1 non-identity k-qubit Pauli jumps of a k-qubit gate, each
  at gamma_d = -ln(1-p)/(4^k T), reproduce the symmetric depolarising
  channel with total error p (for k = 1, X, Y and Z contract the Bloch
  vector by exactly 1-p),
* the readout bitflip probability p maps to the pre-measurement noise
  strength v = -ln(1-2p)/2 via p = (1 - e^{-2v})/2.

A jump term carries one number, its dimensionless amplitude
epsilon = sqrt(gamma T) over the slot (:meth:`LindbladTerm.from_rate`):
in the slot's own time s = t/T in [0, 1] it runs at rate epsilon^2.  A
depolarising jump's is computed as sqrt(-ln(1-p)/4^k), which reads no
duration, so it stays finite where gamma_d overflows.

Which of these one scheduled slot carries is decided once, by
:func:`slot_noise`; the trajectory engine, the channel simulator and the
Lindblad reference all read it.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .linalg import DECAY, I2, PAULI_X, PAULI_Y, PAULI_Z, embed, kron

if TYPE_CHECKING:  # pragma: no cover
    from .gates import GateSpec

__all__ = [
    "CalibrationError",
    "QubitParams",
    "DeviceParams",
    "is_finite_number",
    "read_json_object",
    "load_calibration",
    "relaxation_rates",
    "depolarizing_paulis",
    "spam_strength",
    "LindbladTerm",
    "NoiseContext",
    "SlotNoise",
    "slot_noise",
    "noise_context_for_gate",
]


class CalibrationError(ValueError):
    """Raised for malformed or physically inconsistent calibration data."""


@dataclass(frozen=True)
class QubitParams:
    t1_s: float
    t2_s: float
    p_readout: float

    def __post_init__(self):
        if not (self.t1_s > 0 and self.t2_s > 0):
            raise CalibrationError("T1 and T2 must be positive")
        if self.t2_s > 2 * self.t1_s:
            raise CalibrationError(
                f"T2 exceeds 2*T1 (t2_s={self.t2_s:g}, t1_s={self.t1_s:g})"
            )
        # spam_strength needs p < 1/2: at 1/2 the readout is a coin flip
        if not (0 <= self.p_readout < 0.5):
            raise CalibrationError(f"p_readout out of [0, 0.5): {self.p_readout:g}")


@dataclass(frozen=True)
class DeviceParams:
    qubits: tuple[QubitParams, ...]
    t_1q_s: float
    t_2q_s: float
    p_1q: float
    p_2q: float

    def __post_init__(self):
        if not self.qubits:
            raise CalibrationError("at least one qubit required")
        if not (self.t_1q_s > 0 and self.t_2q_s > 0):
            raise CalibrationError("gate durations must be positive")
        for name in ("p_1q", "p_2q"):
            p = getattr(self, name)
            if not (0 <= p < 1):
                raise CalibrationError(f"{name} out of [0, 1): {p:g}")

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    def gate_duration(self, n_gate_qubits: int) -> float:
        return self.t_1q_s if n_gate_qubits == 1 else self.t_2q_s


_QUBIT_KEYS = {"t1_s", "t2_s", "p_readout"}
_GATE_KEYS = {"t_1q_s", "t_2q_s", "p_1q", "p_2q"}


def is_finite_number(val) -> bool:
    """True for a finite int or float (a JSON number, not a bool).  An
    int too large for a float, which ``math.isfinite`` cannot convert, is
    not one."""
    if not isinstance(val, (int, float)) or isinstance(val, bool):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


def _require_number(obj: dict, key: str, where: str) -> float:
    if key not in obj:
        raise CalibrationError(f"missing key '{key}' in {where}")
    val = obj[key]
    if not is_finite_number(val):
        raise CalibrationError(f"key '{key}' in {where} must be a finite number")
    return float(val)


def read_json_object(source: str | Path | dict, error: type[ValueError], what: str) -> dict:
    """The JSON object a document source holds: a dict as given, a Path
    or a one-line string ending in ``.json`` read from that file, any other
    string parsed as JSON text.  Invalid JSON and a root that is not an
    object raise ``error``, with messages naming ``what``."""
    if isinstance(source, dict):
        return source
    text = source
    if isinstance(source, Path) or (isinstance(source, str) and "\n" not in source and source.strip().endswith(".json")):
        text = Path(source).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{what} root must be an object")
    return doc


def load_calibration(source: str | Path | dict) -> DeviceParams:
    """Parse and validate a calibration document (path, JSON text or dict)."""
    doc = read_json_object(source, CalibrationError, "calibration")
    extra = set(doc) - {"qubits", "gates"}
    if extra:
        raise CalibrationError(f"unknown top-level keys: {sorted(extra)}")
    if "qubits" not in doc or "gates" not in doc:
        raise CalibrationError("calibration must contain 'qubits' and 'gates'")
    if not isinstance(doc["qubits"], list) or not doc["qubits"]:
        raise CalibrationError("'qubits' must be a non-empty list")

    qubits = []
    for i, q in enumerate(doc["qubits"]):
        if not isinstance(q, dict):
            raise CalibrationError(f"qubit {i} must be an object")
        extra = set(q) - _QUBIT_KEYS
        if extra:
            raise CalibrationError(f"unknown keys in qubit {i}: {sorted(extra)}")
        qubits.append(
            QubitParams(
                t1_s=_require_number(q, "t1_s", f"qubit {i}"),
                t2_s=_require_number(q, "t2_s", f"qubit {i}"),
                p_readout=_require_number(q, "p_readout", f"qubit {i}"),
            )
        )

    gates = doc["gates"]
    if not isinstance(gates, dict):
        raise CalibrationError("'gates' must be an object")
    extra = set(gates) - _GATE_KEYS
    if extra:
        raise CalibrationError(f"unknown keys in 'gates': {sorted(extra)}")
    return DeviceParams(
        qubits=tuple(qubits),
        t_1q_s=_require_number(gates, "t_1q_s", "'gates'"),
        t_2q_s=_require_number(gates, "t_2q_s", "'gates'"),
        p_1q=_require_number(gates, "p_1q", "'gates'"),
        p_2q=_require_number(gates, "p_2q", "'gates'"),
    )


def relaxation_rates(t1: float, t2: float) -> tuple[float, float]:
    """(gamma1, gamma_pd) = (1/T1, 2/T2 - 1/T1); T2 = 2 T1 gives pure
    amplitude damping (gamma_pd = 0)."""
    if not (t1 > 0 and t2 > 0):
        raise ValueError("T1 and T2 must be positive")
    if t2 > 2 * t1:
        raise ValueError(f"T2 exceeds 2*T1 (t2={t2:g}, t1={t1:g})")
    gamma1 = 1.0 / t1
    gamma_pd = 2.0 / t2 - 1.0 / t1
    return gamma1, max(gamma_pd, 0.0)


def depolarizing_paulis(arity: int) -> tuple[np.ndarray, ...]:
    """The 4^arity - 1 non-identity Paulis on ``arity`` qubits, in
    ``itertools.product((I, X, Y, Z), repeat=arity)`` order with the
    identity left out: (X, Y, Z) for one qubit, (IX, IY, ..., ZZ) for two
    (first factor on the first qubit)."""
    singles = (I2, PAULI_X, PAULI_Y, PAULI_Z)
    return tuple(functools.reduce(kron, ops) for ops in itertools.product(singles, repeat=arity))[1:]


def spam_strength(p_readout: float) -> float:
    """Pre-measurement noise strength v with p = (1 - e^{-2v})/2, i.e.
    v = -ln(1 - 2p)/2.  Requires p < 1/2."""
    if not (0 <= p_readout < 0.5):
        raise ValueError(f"p_readout must be in [0, 0.5): {p_readout:g}")
    return -0.5 * math.log1p(-2.0 * p_readout)


@dataclass(frozen=True)
class LindbladTerm:
    """Jump operator with dimensionless amplitude epsilon: over a slot's
    own time s in [0, 1] it acts at rate epsilon^2."""

    operator: np.ndarray
    epsilon: float

    @classmethod
    def from_rate(cls, operator: np.ndarray, rate: float, duration: float) -> "LindbladTerm":
        """The term of a jump at ``rate`` (1/s) over ``duration``:
        epsilon = sqrt(rate * duration)."""
        if rate < 0:
            raise ValueError("rate must be >= 0")
        return cls(operator=np.asarray(operator, dtype=complex), epsilon=math.sqrt(rate * duration))


@dataclass(frozen=True)
class NoiseContext:
    """Jump terms attached to one gate (or idle slot)."""

    terms: tuple[LindbladTerm, ...]
    gate_duration: float


@dataclass(frozen=True)
class SlotNoise:
    """The noise one scheduled slot carries over ``duration``: each of its
    qubits relaxes at ``relaxation[i]`` = (gamma1, gamma_pd), and a driven
    slot also carries the depolarising set of its arity for the error
    probability ``p_depolarizing``.  Idle slots have ``p_depolarizing``
    None; a driven slot at p = 0 keeps its (zero-amplitude) depolarising set."""

    duration: float
    relaxation: tuple[tuple[float, float], ...]
    p_depolarizing: float | None


def slot_noise(gate: "GateSpec", params: DeviceParams) -> SlotNoise:
    """The noise rule every back-end follows: a slot relaxes each of its
    qubits over its duration (the device default for its arity when the
    gate has none) and a driven slot also depolarises at ``p_1q`` or
    ``p_2q``.  Zero-duration slots, RZ frames among them, carry no noise."""
    qubits = gate.qubits
    if any(q >= params.n_qubits for q in qubits):
        raise ValueError(f"gate qubits {qubits} not in device (n={params.n_qubits})")
    duration = gate.duration if gate.duration is not None else params.gate_duration(len(qubits))
    if duration == 0:
        return SlotNoise(0.0, (), None)
    relaxation = tuple(relaxation_rates(params.qubits[q].t1_s, params.qubits[q].t2_s) for q in qubits)
    p = (params.p_1q if len(qubits) == 1 else params.p_2q) if gate.driven else None
    return SlotNoise(duration, relaxation, p)


def noise_context_for_gate(gate: "GateSpec", params: DeviceParams) -> NoiseContext:
    """Jump terms of one slot's :func:`slot_noise`, on the slot's qubits:
    amplitude damping and pure dephasing per qubit, then the depolarising
    set of a driven slot, each with its amplitude over the slot's duration."""
    noise = slot_noise(gate, params)
    duration, arity = noise.duration, len(noise.relaxation)
    terms: list[LindbladTerm] = []
    for pos, (gamma1, gamma_pd) in enumerate(noise.relaxation):
        for op, rate in ((DECAY, gamma1), (PAULI_Z, gamma_pd / 4.0)):
            terms.append(LindbladTerm.from_rate(embed(op, (pos,), arity), rate, duration))
    if noise.p_depolarizing is not None:
        epsilon = math.sqrt(-math.log1p(-noise.p_depolarizing) / 4**arity)
        terms += [LindbladTerm(pauli, epsilon) for pauli in depolarizing_paulis(arity)]
    return NoiseContext(terms=tuple(terms), gate_duration=duration)
