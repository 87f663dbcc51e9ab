import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import noisygates
from noisygates.cli import main, write_rho_series_csv

DEVICE = {
    "qubits": [
        {"t1_s": 100e-6, "t2_s": 80e-6, "p_readout": 0.02},
        {"t1_s": 90e-6, "t2_s": 70e-6, "p_readout": 0.025},
    ],
    "gates": {"t_1q_s": 35e-9, "t_2q_s": 300e-9, "p_1q": 5e-4, "p_2q": 0.04},
}


@pytest.fixture
def device_file(tmp_path):
    path = tmp_path / "device.json"
    path.write_text(json.dumps(DEVICE))
    return path


def ghz_files(tmp_path, n):
    """Device and GHZ-ladder circuit files for an n-qubit register."""
    device_path = tmp_path / f"device{n}.json"
    device_path.write_text(json.dumps(dict(DEVICE, qubits=[DEVICE["qubits"][q % 2] for q in range(n)])))
    ops = [{"gate": "SX", "q": [0]}] + [{"gate": "CNOT", "q": [q, q + 1]} for q in range(n - 1)]
    circuit_path = tmp_path / f"ghz{n}.json"
    circuit_path.write_text(json.dumps({"n_qubits": n, "ops": ops, "measure": list(range(n))}))
    return device_path, circuit_path


def compare_args(device_file, out, **overrides):
    args = {
        "--experiment": "repeat_x",
        "--reps": "20",
        "--checkpoints": "5",
        "--shots": "256",
        "--runs": "2",
        "--seed": "7",
        "--device": str(device_file),
        "--out": str(out),
        "--parallel": "1",
    }
    args.update(overrides)
    flat = ["compare"]
    for k, v in args.items():
        flat += [k, v]
    return flat


class TestExitCodes:
    def test_usage_error_is_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare"])  # --device missing
        assert exc.value.code == 1

    def test_unknown_flag_is_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--frobnicate"])
        assert exc.value.code == 1

    def test_missing_device_file_is_two(self, tmp_path, capsys):
        rc = main(compare_args(tmp_path / "absent.json", tmp_path / "out"))
        assert rc == 2

    def test_invalid_calibration_is_two(self, tmp_path, capsys):
        bad = json.loads(json.dumps(DEVICE))
        bad["qubits"][0]["t2_s"] = 1.0  # T2 > 2 T1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        rc = main(compare_args(path, tmp_path / "out"))
        captured = capsys.readouterr()
        assert rc == 2
        assert "T2 exceeds" in captured.err

    def test_shots_zero_is_usage_error(self, device_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(compare_args(device_file, tmp_path / "out", **{"--shots": "0"}))
        assert exc.value.code == 1

    @pytest.mark.parametrize("parallel", ["0", "-1"])
    def test_parallel_below_one_is_usage_error(self, parallel, device_file, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(compare_args(device_file, out, **{"--parallel": parallel}))
        assert exc.value.code == 1
        assert "--parallel" in capsys.readouterr().err
        assert not out.exists()

    def test_no_backend_is_two(self, device_file, tmp_path, capsys):
        rc = main(compare_args(device_file, tmp_path / "out", **{"--backends": ""}))
        assert rc == 2
        assert "at least one backend" in capsys.readouterr().err

    def test_compare_without_scored_backend_is_two(self, device_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(compare_args(device_file, out, **{"--backends": "lindblad"}))
        assert rc == 2
        assert "needs noisy_gates or channel" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoints_above_reps_is_two(self, device_file, tmp_path, capsys):
        rc = main(compare_args(device_file, tmp_path / "out", **{"--checkpoints": "50"}))
        assert rc == 2

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_eleven_qubit_custom_circuit_is_two_at_once(self, command, tmp_path, capsys):
        # 8000 shots would keep the trajectory engine busy for seconds; the
        # density-matrix back-ends reject the register before it starts
        device_path, circuit_path = ghz_files(tmp_path, 11)
        out = tmp_path / "out"
        argv = [command] + compare_args(
            device_path,
            out,
            **{
                "--experiment": "custom_circuit",
                "--circuit": str(circuit_path),
                "--backends": "noisy_gates,channel",
                "--shots": "8000",
            },
        )[1:]
        start = time.perf_counter()
        rc = main(argv)
        elapsed = time.perf_counter() - start
        assert rc == 2
        assert "at most 10 qubits" in capsys.readouterr().err
        assert elapsed < 1.0
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_register_wider_than_memory_is_two_at_once(self, command, device_file, tmp_path, capsys):
        n = 2**62
        circuit_path = tmp_path / "wide.json"
        circuit_path.write_text(json.dumps({"n_qubits": n, "ops": [{"gate": "X", "q": [n - 1]}], "measure": [0]}))
        out = tmp_path / "out"
        argv = [command] + compare_args(
            device_file, out, **{"--experiment": "custom_circuit", "--circuit": str(circuit_path)}
        )[1:]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        assert f"circuit needs {n} qubits, device has 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("duration", [0, -3.5e-8])
    def test_bad_driven_duration_is_two(self, duration, device_file, tmp_path, capsys):
        circuit_path = tmp_path / "bad.json"
        ops = [{"gate": "SX", "q": [0]}, {"gate": "X", "q": [0], "duration_s": duration}]
        circuit_path.write_text(json.dumps({"n_qubits": 1, "ops": ops}))
        out = tmp_path / "out"
        custom = {"--experiment": "custom_circuit", "--circuit": str(circuit_path)}
        argv = compare_args(device_file, out, **custom)
        assert main(argv) == 2
        assert "op 1: " in capsys.readouterr().err
        assert not out.exists()

    def test_unread_angle_is_two(self, device_file, tmp_path, capsys):
        circuit_path = tmp_path / "bad.json"
        ops = [{"gate": "SX", "q": [0]}, {"gate": "RZ", "q": [0], "theta": 0.7}]
        circuit_path.write_text(json.dumps({"n_qubits": 1, "ops": ops}))
        out = tmp_path / "out"
        custom = {"--experiment": "custom_circuit", "--circuit": str(circuit_path)}
        assert main(compare_args(device_file, out, **custom)) == 2
        assert "op 1: RZ does not read 'theta'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "op, key",
        [
            ('{"gate": "RX", "q": [0], "theta": "abc"}', "theta"),
            ('{"gate": "RX", "q": [0], "theta": NaN}', "theta"),
            ('{"gate": "RX", "q": [0], "theta": 0.5, "phi": Infinity}', "phi"),
            ('{"gate": "RX", "q": [0], "theta": 0.5, "phi": "1.5"}', "phi"),
        ],
    )
    def test_bad_angle_is_two(self, op, key, device_file, tmp_path, capsys):
        circuit_path = tmp_path / "bad.json"
        circuit_path.write_text('{"n_qubits": 1, "ops": [{"gate": "SX", "q": [0]}, ' + op + "]}")
        out = tmp_path / "out"
        custom = {"--experiment": "custom_circuit", "--circuit": str(circuit_path)}
        assert main(compare_args(device_file, out, **custom)) == 2
        assert f"op 1: '{key}' must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, backends", [("simulate", "channel,lindblad"), ("compare", "noisy_gates,channel,lindblad")]
    )
    def test_readout_error_from_half_is_two(self, command, backends, tmp_path, capsys):
        # repeat_cnot measures both qubits; p_readout >= 0.5 has no
        # pre-measurement noise strength, so the calibration is refused
        bad = json.loads(json.dumps(DEVICE))
        bad["qubits"][1]["p_readout"] = 0.6
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        out = tmp_path / "out"
        overrides = {"--experiment": "repeat_cnot", "--reps": "4", "--checkpoints": "2", "--backends": backends}
        assert main([command] + compare_args(path, out, **overrides)[1:]) == 2
        assert "p_readout out of [0, 0.5): 0.6" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_too_large_for_a_float_is_two(self, device_file, tmp_path, capsys):
        # a 400-digit theta, then a 400-digit t1_s: no float holds either
        huge = "1" + "0" * 400
        circuit_path = tmp_path / "huge.json"
        circuit_path.write_text('{"n_qubits": 1, "ops": [{"gate": "RX", "q": [0], "theta": ' + huge + "}]}")
        custom = {"--experiment": "custom_circuit", "--circuit": str(circuit_path)}
        assert main(compare_args(device_file, tmp_path / "out", **custom)) == 2
        assert "op 0: 'theta' must be a finite number" in capsys.readouterr().err
        device_path = tmp_path / "huge_device.json"
        device_path.write_text(json.dumps(DEVICE).replace('"t1_s": 0.0001', '"t1_s": ' + huge, 1))
        assert main(compare_args(device_path, tmp_path / "out")) == 2
        assert "must be a finite number" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_repeated_measured_qubit_is_two(self, device_file, tmp_path, capsys):
        # each listing would apply the qubit's readout flip once more
        circuit_path = tmp_path / "bad.json"
        circuit_path.write_text(json.dumps({"n_qubits": 2, "ops": [], "measure": [0, 0, 1]}))
        out = tmp_path / "out"
        custom = {"--experiment": "custom_circuit", "--circuit": str(circuit_path)}
        assert main(compare_args(device_file, out, **custom)) == 2
        assert "measured qubit 0 listed twice" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"n_qubits": True, "ops": []}, "'n_qubits' must be a positive integer"),
            ({"n_qubits": 2, "ops": [{"gate": "CNOT", "q": [False, True]}]}, "op 0: 'q' must be a list of ints"),
            ({"n_qubits": 1, "ops": [], "measure": [False]}, "'measure' must be a list of ints"),
        ],
        ids=["n_qubits", "q", "measure"],
    )
    def test_boolean_qubit_fields_are_two(self, doc, message, device_file, tmp_path, capsys):
        circuit_path = tmp_path / "bad.json"
        circuit_path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        custom = {"--experiment": "custom_circuit", "--circuit": str(circuit_path)}
        assert main(compare_args(device_file, out, **custom)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "criteria, message",
        [("11", "unknown criteria [11]"), ("0,1", "unknown criteria [0]"), (",", "no criterion"), ("", "no criterion")],
    )
    def test_unknown_or_empty_criteria_are_usage_errors(self, criteria, message, monkeypatch, capsys):
        def refuse(numbers=None):
            raise AssertionError("a criterion ran")

        monkeypatch.setattr("noisygates.acceptance.run_criteria", refuse)
        assert main(["validate", "--criteria", criteria]) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_negative_seed_is_two_before_any_back_end(self, device_file, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kw):
            raise AssertionError("a back-end ran")

        monkeypatch.setattr("noisygates.cli.run_compare", refuse)
        out = tmp_path / "out"
        assert main(["simulate"] + compare_args(device_file, out, **{"--seed": "-1"})[1:]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("parallel", ["1", "2"])
    def test_every_weight_zero_is_three(self, parallel, device_file, tmp_path, capsys):
        # one X lasting 1 s, 10^4 T1: every trajectory weight underflows to
        # zero, which once exited 0 and wrote nan,nan
        circuit_path = tmp_path / "slow_x.json"
        ops = [{"gate": "X", "q": [0], "duration_s": 1.0}]
        circuit_path.write_text(json.dumps({"n_qubits": 1, "ops": ops, "measure": [0]}))
        out = tmp_path / "out"
        custom = {
            "--experiment": "custom_circuit",
            "--circuit": str(circuit_path),
            "--backends": "noisy_gates",
            "--parallel": parallel,
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["simulate"] + compare_args(device_file, out, **custom)[1:])
        assert rc == 3
        assert "numeric failure: every trajectory weight is zero at checkpoint 1" in capsys.readouterr().err
        assert not out.exists()

    def test_forced_tolerance_failure_is_three(self, monkeypatch, capsys):
        failing = (9, "always fails", lambda: (False, "forced failure"), 10.0)
        monkeypatch.setattr("noisygates.acceptance.CRITERIA", (failing,))
        rc = main(["validate", "--criteria", "9"])
        captured = capsys.readouterr()
        assert rc == 3
        assert "FAIL" in captured.out


class TestCompareOutputs:
    def test_files_written_and_deterministic(self, device_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(compare_args(device_file, out)) == 0
        rundir = next(p for p in out.iterdir() if p.is_dir())
        names = {p.name for p in rundir.iterdir()}
        assert {
            "metadata.json",
            "distributions.csv",
            "density_diagonals.csv",
            "hellinger.csv",
            "summary.csv",
            "lindblad_rho.csv",
        } <= names
        before = {p.name: p.read_bytes() for p in rundir.iterdir()}
        assert main(compare_args(device_file, out)) == 0
        after = {p.name: p.read_bytes() for p in rundir.iterdir()}
        assert before == after

    def test_metadata_is_self_describing(self, device_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(compare_args(device_file, out))
        rundir = next(p for p in out.iterdir() if p.is_dir())
        meta = json.loads((rundir / "metadata.json").read_text())
        assert meta["command"] == "compare"
        assert meta["seed"] == 7
        assert meta["device"]["gates"]["t_1q_s"] == 35e-9
        assert "params_hash" in meta and "git_revision" in meta
        header = (rundir / "distributions.csv").read_text().splitlines()[0]
        assert header.startswith("backend,run,checkpoint_gates,time_s,")

    def test_custom_circuits_get_their_own_directories(self, tmp_path, capsys):
        # the stock Bell circuit, and the same circuit with its SX made an X:
        # same layer count and width, different ops
        bell = json.loads((CONFIGS / "bell_circuit.json").read_text())
        variant = json.loads(json.dumps(bell))
        variant["ops"][1]["gate"] = "X"
        out = tmp_path / "out"
        dirs = []
        for name, doc in (("bell", bell), ("variant", variant), ("bell", bell)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            argv = compare_args(
                CONFIGS / "desk_device.json", out,
                **{"--experiment": "custom_circuit", "--circuit": str(path), "--shots": "64", "--runs": "1"},
            )
            assert main(argv) == 0
            dirs.append(Path(capsys.readouterr().out.strip()))
        assert dirs[0] != dirs[1] and dirs[2] == dirs[0]
        assert sorted(p.name for p in out.iterdir()) == sorted({d.name for d in dirs})
        meta = json.loads((dirs[1] / "metadata.json").read_text())
        assert meta["circuit"]["measure"] == [0, 1]
        assert [op["gate"] for layer in meta["circuit"]["layers"] for op in layer] == ["RZ", "X", "RZ", "CNOT"]

    def test_summary_row_count(self, device_file, tmp_path, capsys):
        out = tmp_path / "out"
        main(compare_args(device_file, out))
        rundir = next(p for p in out.iterdir() if p.is_dir())
        rows = (rundir / "summary.csv").read_text().splitlines()
        assert len(rows) == 1 + 5  # header + checkpoints


class TestSimulate:
    def test_simulate_writes_distributions(self, device_file, tmp_path, capsys):
        argv = ["simulate"] + compare_args(device_file, tmp_path / "out")[1:]
        assert main(argv) == 0
        rundir = next(p for p in (tmp_path / "out").iterdir() if p.is_dir())
        assert (rundir / "distributions.csv").exists()
        assert (rundir / "density_diagonals.csv").exists()

    def test_custom_circuit(self, device_file, tmp_path, capsys):
        circuit = {
            "n_qubits": 2,
            "ops": [{"gate": "X", "q": [0]}, {"gate": "CNOT", "q": [0, 1]}],
            "measure": [0, 1],
        }
        cpath = tmp_path / "circ.json"
        cpath.write_text(json.dumps(circuit))
        argv = ["simulate"] + compare_args(
            device_file,
            tmp_path / "out",
            **{"--experiment": "custom_circuit", "--circuit": str(cpath)},
        )[1:]
        assert main(argv) == 0

    def test_seven_qubits_without_lindblad_backend(self, tmp_path, capsys):
        device_path, circuit_path = ghz_files(tmp_path, 7)
        argv = ["simulate"] + compare_args(
            device_path,
            tmp_path / "out",
            **{
                "--experiment": "custom_circuit",
                "--circuit": str(circuit_path),
                "--backends": "noisy_gates,channel",
            },
        )[1:]
        assert main(argv) == 0
        rundir = next(p for p in (tmp_path / "out").iterdir() if p.is_dir())
        rows = (rundir / "distributions.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["noisy_gates", "channel"]
        assert len(rows[0].split(",")) == 4 + 2**7
        assert not (rundir / "lindblad_rho.csv").exists()

    def test_seven_qubit_compare_writes_reference_diagonal(self, tmp_path, capsys):
        device_path, circuit_path = ghz_files(tmp_path, 7)
        argv = compare_args(
            device_path,
            tmp_path / "out",
            **{"--experiment": "custom_circuit", "--circuit": str(circuit_path), "--shots": "64", "--runs": "1"},
        )
        assert main(argv) == 0
        rundir = next(p for p in (tmp_path / "out").iterdir() if p.is_dir())
        rows = (rundir / "lindblad_rho.csv").read_text().splitlines()
        assert rows[0].split(",") == ["time_s"] + [f"rho_{i:07b}" for i in range(2**7)]
        header = (rundir / "density_diagonals.csv").read_text().splitlines()[0].split(",")
        assert header[3:] == rows[0].split(",")[1:]
        diagonal = [float(x) for x in rows[1].split(",")[1:]]
        assert sum(diagonal) == pytest.approx(1.0, abs=1e-9)
        assert diagonal[0] + diagonal[-1] > 0.8
        assert (rundir / "hellinger.csv").exists()

    def test_custom_circuit_requires_file(self, device_file, tmp_path, capsys):
        argv = ["simulate"] + compare_args(
            device_file, tmp_path / "out", **{"--experiment": "custom_circuit"}
        )[1:]
        assert main(argv) == 2


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("idle_s", [5e-324, 1e-310])
def test_subnormal_idle_runs_on_every_back_end(idle_s, device_file, tmp_path, capsys):
    # the Lindblad map of a slot integrates over the slot's own time, so a
    # subnormal duration divides nothing; the idle is then the identity
    def lindblad_row(ops, out):
        circuit_path = tmp_path / "circuit.json"
        circuit_path.write_text(json.dumps({"n_qubits": 1, "ops": ops, "measure": [0]}))
        custom = {"--experiment": "custom_circuit", "--circuit": str(circuit_path), "--shots": "64"}
        assert main(["simulate"] + compare_args(device_file, tmp_path / out, **custom)[1:]) == 0
        rundir = next((tmp_path / out).iterdir())
        rows = (rundir / "distributions.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["lindblad", "noisy_gates", "channel"]
        return np.array([float(x) for x in rows[1].split(",")[4:]])

    x = {"gate": "X", "q": [0]}
    with_idle = lindblad_row([x, {"gate": "IDLE", "q": [0], "duration_s": idle_s}], "idle")
    np.testing.assert_allclose(with_idle, lindblad_row([x], "x"), rtol=0, atol=1e-12)


class TestMixedLayerCircuit:
    """X on qubit 2 beside a CNOT on qubits 0, 1: one layer of mixed
    durations, run through every back-end."""

    @pytest.mark.parametrize(
        "command, backends",
        [("compare", "noisy_gates,channel,lindblad"), ("simulate", "lindblad")],
    )
    def test_runs(self, command, backends, tmp_path, capsys):
        argv = [command] + compare_args(
            CONFIGS / "desk_device_3q.json",
            tmp_path / "out",
            **{
                "--experiment": "custom_circuit",
                "--circuit": str(CONFIGS / "mixed_layer_circuit.json"),
                "--shots": "64",
                "--runs": "1",
                "--backends": backends,
            },
        )[1:]
        assert main(argv) == 0
        rundir = next(p for p in (tmp_path / "out").iterdir() if p.is_dir())
        rows = (rundir / "distributions.csv").read_text().splitlines()
        assert rows[1].startswith("lindblad,0,2,")
        assert len(rows[0].split(",")) == 4 + 2**3


RHO0 = np.array([[0.4, 0.3 - 0.1j], [0.3 + 0.1j, 0.6]], dtype=complex)


class TestCsv:
    def test_roundtrip_shapes(self, tmp_path):
        times = np.array([0.0, 1.0])
        states = [RHO0, RHO0]
        full = tmp_path / "full.csv"
        diag = tmp_path / "diag.csv"
        write_rho_series_csv(full, times, states)
        write_rho_series_csv(diag, times, states, diagonal_only=True)
        assert full.read_text().splitlines()[0].startswith("time_s,re_rho_0_0,im_rho_0_0,re_rho_0_1")
        rows = diag.read_text().splitlines()
        assert rows[0] == "time_s,rho_0,rho_1"
        assert len(rows) == 3

    @pytest.mark.parametrize("n_qubits, diagonal_only", [(5, False), (7, True)])
    def test_header_names_are_unique_bit_strings(self, tmp_path, n_qubits, diagonal_only):
        d = 2**n_qubits
        path = tmp_path / "rho.csv"
        write_rho_series_csv(path, np.array([0.0]), [np.eye(d) / d], diagonal_only=diagonal_only)
        header = path.read_text().splitlines()[0].split(",")
        assert len(header) == 1 + (d if diagonal_only else 2 * d * d)
        assert len(set(header)) == len(header)
        if diagonal_only:
            assert header[1 + 10] == "rho_0001010"
        else:
            # entries (1, 23) and (12, 3), which undelimited indices would merge
            assert header[1 + 2 * (d * 1 + 23)] == "re_rho_00001_10111"
            assert header[1 + 2 * (d * 12 + 3)] == "re_rho_01100_00011"


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the process pool does not fork")
def test_no_draw_thread_alive_when_the_pool_forks(device_file, tmp_path, monkeypatch, capsys):
    # runs in this process, then in a pool of two forked workers: each
    # run_shots joins the thread that draws its streams before it returns
    threads_at_fork = []
    fork = os.fork

    def recording_fork():
        threads_at_fork.append([thread.name for thread in threading.enumerate()])
        return fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    assert main(compare_args(device_file, tmp_path / "p1")) == 0
    assert main(compare_args(device_file, tmp_path / "p2", **{"--parallel": "2"})) == 0
    assert threads_at_fork == [["MainThread"]] * 2


NO_SCIPY_SCRIPT = """
import importlib, json, pkgutil, sys, tempfile
from pathlib import Path
import noisygates
from noisygates.cli import main

for module in pkgutil.iter_modules(noisygates.__path__):
    importlib.import_module("noisygates." + module.name)
with tempfile.TemporaryDirectory() as tmp:
    device = Path(tmp) / "device.json"
    device.write_text(sys.argv[1])
    rc = main(["compare", "--reps", "4", "--checkpoints", "2", "--shots", "32", "--runs", "1",
               "--parallel", "1", "--device", str(device), "--out", tmp])
pool = ("multiprocessing", "concurrent.futures.process")
print(json.dumps({"rc": rc, "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "pool": sorted(m for m in sys.modules if m.startswith(pool))}))
"""


def test_package_runs_without_scipy():
    # scipy is a test dependency only: no noisygates module, nor a compare
    # through every back-end, may load it; nor may they load a process
    # pool, which only --parallel above 1 uses
    src = str(Path(noisygates.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, json.dumps(DEVICE)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out == {"rc": 0, "scipy": [], "pool": []}
