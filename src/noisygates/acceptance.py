"""Acceptance suite: the release gate for this package.

Each criterion is a self-contained check with a pinned tolerance and a
fixed seed; ``run_criteria`` executes them and reports one line per
criterion.  The same functions back ``noisygates validate`` and the
pytest acceptance module.  Every threshold is a literal in its
criterion, and no setting changes it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .engine import schedule_layers
from .experiments import ExperimentConfig, build_experiment_circuit, lindblad_reference, run_compare
from .gates import (
    GateSpec,
    NoisyGateSampler,
    build_substep_path,
    lambda_matrix,
    relaxation_gate_batch,
    relaxation_normals,
    scale_context,
    schedule,
    small_noise_reference,
    spam_gate_batch,
    xi_from_path,
    _interaction_stack,
    _path_pieces,
    _quadrature,
)
from .lindblad import solve
from .linalg import DECAY, PAULI_X, PAULI_Y, PAULI_Z, Workspace, expm
from .noise_model import (
    DeviceParams,
    LindbladTerm,
    NoiseContext,
    QubitParams,
    spam_strength,
)
from .stochastic import RngStream, product_formula_error

__all__ = ["CriterionResult", "DESK_CALIBRATION", "desk_device", "run_criteria", "CRITERIA"]


# Synthetic desk-scale calibration used by the benchmark criteria.
DESK_CALIBRATION = {
    "qubits": [
        {"t1_s": 100e-6, "t2_s": 80e-6, "p_readout": 0.02},
        {"t1_s": 90e-6, "t2_s": 70e-6, "p_readout": 0.025},
    ],
    "gates": {"t_1q_s": 35e-9, "t_2q_s": 300e-9, "p_1q": 5e-4, "p_2q": 0.04},
}


def desk_device() -> DeviceParams:
    return DeviceParams(
        qubits=tuple(QubitParams(**q) for q in DESK_CALIBRATION["qubits"]),
        **DESK_CALIBRATION["gates"],
    )


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _gate_ensemble(batch: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return np.einsum("sij,jk,slk->il", batch, rho, batch.conj()) / batch.shape[0]


def criterion_1_spam() -> tuple[bool, str]:
    """SPAM gate ensemble equals the bitflip channel with p = 0.25."""
    v = spam_strength(0.25)
    batch = spam_gate_batch(v, RngStream(101).generator.standard_normal(100_000))
    rho0 = np.array([[1, 0], [0, 0]], dtype=complex)
    avg = _gate_ensemble(batch, rho0)
    dev = float(np.abs(avg - np.diag([0.75, 0.25])).max())
    return dev <= 0.005, f"max entry deviation {dev:.2e} (tol 5e-3)"


def _relaxation_closed_form(rho: np.ndarray, g1dt: float, gpddt: float) -> np.ndarray:
    """A one-qubit rho after the relaxation channel with Kraus operators
    {diag(1, sqrt(1 - p1 - pz)), sqrt(p1) |0><1|, sqrt(pz) |1><1|}, where
    p1 = 1 - e^{-g1dt} and pz = (1 - p1)(1 - e^{-gpddt}): |1> decays to
    |0> with probability p1 and the coherences shrink by sqrt(1 - p1 - pz)."""
    p1 = -math.expm1(-g1dt)
    pz = (1 - p1) * -math.expm1(-gpddt)
    c = math.sqrt(1 - p1 - pz)
    out = rho * np.array([[1, c], [c, 1 - p1]])
    out[0, 0] += p1 * rho[1, 1]
    return out


def criterion_2_relaxation() -> tuple[bool, str]:
    """Modified relaxation gate ensemble equals the relaxation channel."""
    rho_one = np.array([[0, 0], [0, 1]], dtype=complex)
    rho_plus = np.full((2, 2), 0.5, dtype=complex)
    worst = 0.0
    details = []
    for g1dt, gpddt in ((0.1, 0.05), (math.log(2), 0.2)):
        for label, rho in (("|1>", rho_one), ("|+>", rho_plus)):
            gen = RngStream(2_000 + int(1000 * g1dt)).generator
            normals = gen.standard_normal((relaxation_normals(g1dt, gpddt, 1.0), 100_000))
            batch = relaxation_gate_batch(g1dt, gpddt, 1.0, normals)
            dev = float(np.abs(_gate_ensemble(batch, rho) - _relaxation_closed_form(rho, g1dt, gpddt)).max())
            worst = max(worst, dev)
            details.append(f"g1dt={g1dt:.2f},{label}:{dev:.1e}")
    # report the coherence factor explicitly for the strong-damping case
    p1 = -math.expm1(-math.log(2))
    pz = (1 - p1) * -math.expm1(-0.2)
    details.append(f"coherence factor sqrt(1-p1-pz)={math.sqrt(1 - p1 - pz):.4f}")
    return worst <= 0.005, f"worst {worst:.2e} (tol 5e-3); " + " ".join(details)


def _x_gate_context(scale2: float) -> NoiseContext:
    g1, gpd, gd = 0.04 * scale2, 0.02 * scale2, 0.008 * scale2
    terms = (
        LindbladTerm.from_rate(DECAY, g1, 1.0),
        LindbladTerm.from_rate(PAULI_Z, gpd / 4, 1.0),
        LindbladTerm.from_rate(PAULI_X, gd, 1.0),
        LindbladTerm.from_rate(PAULI_Y, gd, 1.0),
        LindbladTerm.from_rate(PAULI_Z, gd, 1.0),
    )
    return NoiseContext(terms=terms, gate_duration=1.0)


def criterion_3_second_order() -> tuple[bool, str]:
    """E[N rho N^dag] deviates from one-gate Lindblad evolution as eps^3."""
    sched = schedule(GateSpec("X", (0,)))
    rho0 = np.array([[0.7, 0.3 + 0.2j], [0.3 - 0.2j, 0.3]], dtype=complex)
    draws = 1_500_000
    devs, epss = [], []
    for scale in (1.0, 0.5, 0.25):
        ctx = _x_gate_context(scale**2)
        target = solve(sched.generator, ctx.terms, rho0, 200)
        sampler = NoisyGateSampler(sched, ctx)
        gen = RngStream(303).generator
        ws = Workspace()
        # second moment E[N_ij conj(N_lk)] of N = P e^Xi, drawn by the
        # engine's own kernel into (2, 2, S); rho0 is applied after the draws
        moment = np.zeros((4, 4), dtype=complex)
        done = 0
        while done < draws:
            block = min(250_000, draws - done)
            g = gen.standard_normal((block, sampler.xi.n_gaussians))
            n = np.empty((2, 2, block), dtype=complex)
            for sign in (1.0, -1.0):  # antithetic pairs cancel the O(eps) noise
                sampler.sample_batch(sign * g, ws, out=n)
                flat = n.reshape(4, block)
                moment += flat @ flat.conj().T
            done += block
        avg = np.einsum("ijlk,jk->il", moment.reshape(2, 2, 2, 2), rho0) / (2 * draws)
        devs.append(float(np.abs(avg - target).max()))
        epss.append(0.2 * scale)
    slope = float(np.polyfit(np.log(epss), np.log(devs), 1)[0])
    detail = f"slope {slope:.2f} (need >= 2.5); deviations {['%.1e' % d for d in devs]}"
    return slope >= 2.5, detail


def criterion_4_product_formula() -> tuple[bool, str]:
    """Product-formula defect is third order for 20 random instances."""
    gen = RngStream(404).generator
    eps_grid = (0.2, 0.1, 0.05, 0.02)
    slopes = []
    for _ in range(20):
        def draw():
            r = np.sqrt(gen.uniform(size=(2, 2)))
            phase = np.exp(2j * np.pi * gen.uniform(size=(2, 2)))
            return r * phase  # entries uniform on the unit disk

        a_list = [draw() for _ in range(8)]
        b_list = [draw() for _ in range(8)]
        errs = [product_formula_error(a_list, b_list, e) for e in eps_grid]
        slopes.append(float(np.polyfit(np.log(eps_grid), np.log(errs), 1)[0]))
    worst = min(slopes)
    return worst >= 2.7, f"min slope {worst:.2f} over 20 instances (need >= 2.7)"


def criterion_5_small_noise() -> tuple[bool, str]:
    """Shared-path equivalence of exp(Lambda) exp(Xi) and the truncated
    series, plus the pathwise Ito-rule identity."""
    tg = 1.0
    sched = schedule(GateSpec("X", (0,)))
    terms = (
        LindbladTerm.from_rate(DECAY, 0.04, tg),
        LindbladTerm.from_rate(PAULI_Z, 0.005, tg),
    )
    ctx = NoiseContext(terms=terms, gate_duration=tg)
    m_substeps = 4096

    slopes = []
    for seed in range(5):
        path = build_substep_path(ctx, m_substeps, RngStream(505 + seed))
        resids, epss = [], []
        for scale in (1.0, 0.5, 0.25):
            sctx = scale_context(ctx, scale)
            exp_side = expm(lambda_matrix(sched, sctx)) @ expm(xi_from_path(sched, sctx, path))
            resids.append(float(np.abs(exp_side - small_noise_reference(sched, sctx, path)).max()))
            epss.append(0.2 * scale)
        slopes.append(float(np.polyfit(np.log(epss), np.log(resids), 1)[0]))
    min_slope = min(slopes)

    # Ito-rule identity: discrete form is exact; the continuum drift form
    # differs by the quadratic-variation fluctuation ~ eps^2 / sqrt(M).
    path = build_substep_path(ctx, m_substeps, RngStream(515))
    a, prefix, s1 = _path_pieces(sched, ctx, path)
    lhs = np.einsum("mij,mjk->ik", a, prefix)
    comm = lhs - np.einsum("mij,mjk->ik", prefix, a)
    quad = np.einsum("mij,mjk->ik", a, a)
    discrete_resid = float(np.abs(lhs - 0.5 * (s1 @ s1 + comm - quad)).max())
    svals, w = _quadrature()
    drift = np.zeros((2, 2), dtype=complex)
    fluct_scale = 0.0
    for t in ctx.terms:
        ls = _interaction_stack(sched, t.operator, svals)
        lsq = ls @ ls
        drift += t.epsilon**2 * np.einsum("s,sij->ij", w, lsq)
        fluct_scale += t.epsilon**2 * float(np.sqrt((np.abs(lsq) ** 2).mean(axis=0)).max())
    cont_resid = float(np.abs(lhs - 0.5 * (s1 @ s1 + comm - drift)).max())
    cont_tol = 5.0 * 0.5 * math.sqrt(2.0 / m_substeps) * fluct_scale

    ok = min_slope >= 2.5 and discrete_resid <= 1e-10 and cont_resid <= cont_tol
    detail = (
        f"min slope {min_slope:.2f} (need >= 2.5); Ito identity discrete {discrete_resid:.1e}, "
        f"continuum {cont_resid:.1e} (tol {cont_tol:.1e}, M={m_substeps})"
    )
    return ok, detail


def _x_benchmark_config(seed: int = 0) -> ExperimentConfig:
    return ExperimentConfig(
        experiment="repeat_x",
        device=desk_device(),
        repetitions=500,
        checkpoints=50,
        shots=4000,
        runs=10,
        seed=seed,
    )


def criterion_6_x_benchmark() -> tuple[bool, str]:
    """X-repetition benchmark at the desk calibration.

    (a) The Lindblad reference relaxes to rho_00 = 0.5: within the
        500-gate comparison window the checkpoint tail decreases
        monotonically towards 0.5, and on an extended horizon (the same
        repeat_x circuit at 15000 gates through the same
        ``lindblad_reference``; the envelope decay rate ~2.6e4/s makes
        0.5 +/- 0.02 unreachable before ~2800 gates) the final rho_00
        is within 0.02.
    (b) The noisy-gates mean Hellinger distance beats the channel
        simulator's at >= 80% of checkpoints over 10 runs.
    (c) The relative improvement is reported.
    """
    config = _x_benchmark_config()
    horizon = replace(config, repetitions=15_000, checkpoints=1)
    circuit, layers, _ = build_experiment_circuit(horizon)
    _, rhos = lindblad_reference(schedule_layers(circuit, horizon.device), layers)
    asymptote_dev = abs(float(np.real(rhos[-1][0, 0])) - 0.5)

    result = run_compare(config)
    tail = result.dists["lindblad"][0, :, 0]
    monotone = bool(np.all(np.diff(tail) < 1e-9) and np.all(tail > 0.5))
    wins = int(np.sum(result.mean_std("noisy_gates")[0] <= result.mean_std("channel")[0]))
    window_dev = abs(float(tail[-1]) - 0.5)
    improvement = result.improvement()

    ok = asymptote_dev <= 0.02 and monotone and wins >= 0.8 * len(tail)
    detail = (
        f"asymptote |rho00-0.5|={asymptote_dev:.3f} at 15000 gates (tol 0.02); "
        f"500-gate window tail {tail[-1]:.3f} (monotone={monotone}); "
        f"wins {wins}/{len(tail)} (need >= {int(0.8 * len(tail))}); "
        f"improvement mean {improvement.mean():.2f}, last {improvement[-1]:.2f} [reported]"
    )
    return ok, detail


def criterion_7_cr_benchmark() -> tuple[bool, str]:
    config = ExperimentConfig(
        experiment="repeat_cr",
        device=desk_device(),
        repetitions=100,
        checkpoints=50,
        shots=1000,
        runs=10,
        seed=0,
    )
    result = run_compare(config)
    # rho_22 = <10| rho |10>, big-endian index 2
    tail_dev = abs(float(result.dists["lindblad"][0, -1, 2]) - 0.25)
    wins = int(np.sum(result.mean_std("noisy_gates")[0] <= result.mean_std("channel")[0]))
    n = len(result.gate_counts)
    ok = tail_dev <= 0.02 and wins >= 0.8 * n
    detail = (
        f"|rho22-0.25|={tail_dev:.3f} at 100 gates (tol 0.02); wins {wins}/{n}; "
        f"improvement mean {result.improvement().mean():.2f} [reported]"
    )
    return ok, detail


def criterion_8_cnot_benchmark() -> tuple[bool, str]:
    config = ExperimentConfig(
        experiment="repeat_cnot",
        device=desk_device(),
        repetitions=100,
        checkpoints=50,
        shots=1000,
        runs=10,
        seed=0,
        cnot_mode="direct",
    )
    result = run_compare(config)
    improvement = result.improvement()
    positive = int(np.sum(improvement > 0))
    n = len(result.gate_counts)
    tail_dev = abs(float(result.dists["lindblad"][0, -1, 2]) - 0.25)
    ok = positive >= 0.7 * n
    detail = (
        f"improvement > 0 at {positive}/{n} checkpoints (need >= {int(0.7 * n)}); "
        f"mean improvement {improvement.mean():.2f}; |rho22-0.25|={tail_dev:.3f} [reported]"
    )
    return ok, detail


def criterion_9_lindblad() -> tuple[bool, str]:
    """Analytic relaxation decay and fourth-order RK4 convergence."""
    gamma1, gamma_pd = 1.0e4, 1.5e4
    horizon = 2.0e-4
    rho0 = np.array([[0.4, 0.3 - 0.1j], [0.3 + 0.1j, 0.6]], dtype=complex)
    # one slot of length horizon: RK4 steps of horizon / n, rates eps^2 = gamma horizon
    terms = (
        LindbladTerm.from_rate(DECAY, gamma1, horizon),
        LindbladTerm.from_rate(PAULI_Z, gamma_pd / 4, horizon),
    )
    h0 = np.zeros((2, 2), dtype=complex)

    def analytic(t):
        out = np.empty((2, 2), dtype=complex)
        out[1, 1] = rho0[1, 1] * math.exp(-gamma1 * t)
        out[0, 0] = 1 - out[1, 1]
        decay = math.exp(-0.5 * (gamma1 + gamma_pd) * t)
        out[0, 1] = rho0[0, 1] * decay
        out[1, 0] = rho0[1, 0] * decay
        return out

    exact = analytic(horizon)
    err_fine = float(np.abs(solve(h0, terms, rho0, 100) - exact).max())

    errs, steps = [], (10, 20, 40)
    for n in steps:
        errs.append(float(np.abs(solve(h0, terms, rho0, n) - exact).max()))
    slope = float(np.polyfit(np.log([1 / n for n in steps]), np.log(errs), 1)[0])

    ok = err_fine <= 1e-8 and slope >= 3.7
    detail = f"analytic deviation {err_fine:.1e} (tol 1e-8); RK4 slope {slope:.2f} (need >= 3.7)"
    return ok, detail


def criterion_10_determinism() -> tuple[bool, str]:
    """Byte-identical CLI outputs across reruns and parallelism degrees."""
    import contextlib
    import io
    import json
    import tempfile
    from pathlib import Path

    from .cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        device_file = tmp / "device.json"
        device_file.write_text(json.dumps(DESK_CALIBRATION))
        argv_base = [
            "compare",
            "--experiment",
            "repeat_x",
            "--reps",
            "50",
            "--checkpoints",
            "10",
            "--shots",
            "512",
            "--runs",
            "3",
            "--seed",
            "11",
            "--device",
            str(device_file),
        ]
        outputs = {}
        for label, extra in (("a", ["--parallel", "1"]), ("b", ["--parallel", "1"]), ("c", ["--parallel", "2"])):
            outdir = tmp / label
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli_main(argv_base + ["--out", str(outdir)] + extra)
            if rc != 0:
                return False, f"CLI returned {rc}"
            rundir = next(p for p in outdir.iterdir() if p.is_dir())
            outputs[label] = {f.name: f.read_bytes() for f in sorted(rundir.iterdir())}
        same_rerun = outputs["a"] == outputs["b"]
        same_parallel = outputs["a"] == outputs["c"]
    ok = same_rerun and same_parallel
    return ok, f"rerun identical: {same_rerun}; parallel degree invariant: {same_parallel}"


# (number, name, fn, wall-clock budget in seconds)
CRITERIA = (
    (1, "SPAM gate matches bitflip channel", criterion_1_spam, 5.0),
    (2, "relaxation gate matches relaxation channel", criterion_2_relaxation, 10.0),
    (3, "noisy gate second-order correctness", criterion_3_second_order, 120.0),
    (4, "product-formula defect is third order", criterion_4_product_formula, 30.0),
    (5, "small-noise expansion equivalence", criterion_5_small_noise, 60.0),
    (6, "X-repetition benchmark", criterion_6_x_benchmark, 180.0),
    (7, "CR-repetition benchmark", criterion_7_cr_benchmark, 180.0),
    (8, "CNOT-repetition benchmark", criterion_8_cnot_benchmark, 180.0),
    (9, "Lindblad solver correctness", criterion_9_lindblad, 10.0),
    (10, "determinism of CLI outputs", criterion_10_determinism, 60.0),
)


def run_criteria(numbers=None) -> list[CriterionResult]:
    selected = [c for c in CRITERIA if numbers is None or c[0] in numbers]
    results = []
    for number, name, fn, budget in selected:
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed criterion is a failed criterion
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if passed and elapsed > budget:
            passed = False
            detail += f"; exceeded {budget:.0f}s runtime budget"
        results.append(CriterionResult(number, name, passed, detail, elapsed))
    return results
