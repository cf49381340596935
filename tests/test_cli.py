import contextlib
import importlib.util
import io
import json
import re
import tempfile
import xml.etree.ElementTree as ET
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from uqsim import svg
from uqsim.cli import CONFIG_TABLE, build_parser, main
from uqsim.compiler import (CompileError, schedule_from_text, schedule_to_text, trotter_cycles,
                             trotter_schedule)
from uqsim.engine import StateVector
from uqsim.experiments import ExperimentError
from uqsim.hardware import HARDWARE_KEYS, HardwareError, TrapArrayModel
from uqsim.pauli import Hamiltonian


def write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


HEISENBERG_CHAIN3 = "\n".join(
    f"1.0 {ops}" for ops in
    ("X X I", "Y Y I", "Z Z I", "I X X", "I Y Y", "I Z Z")
) + "\n"

UQS1_3 = "[hardware]\nplatform = uqs1\nsites = 3\nboundary = open\navailable_j = all\ngamma = 1.0\n"
UQS2_2 = "[hardware]\nplatform = uqs2\ngamma = 1.0\npositions = 0 ; 1\n"
UQS2_4 = "[hardware]\nplatform = uqs2\ngamma = 1.0\npositions = 0 ; 1 ; 2 ; 3\n"


class TestCompile:
    def test_heisenberg_chain_cost_and_layers(self, tmp_path, capsys):
        ham = write(tmp_path / "h.ham", HEISENBERG_CHAIN3)
        cfg = write(tmp_path / "c.cfg",
                    f"[compile]\nhamiltonian = {ham.name}\nt_prime = 1.0\nepsilon = 0.01\n" + UQS1_3)
        out = tmp_path / "out"
        assert main(["compile", "--config", str(cfg), "--out-dir", str(out)]) == 0
        sched = schedule_from_text((out / "schedule.txt").read_text())
        cost_lines = dict(
            line.split("=", 1) for line in (out / "cost.txt").read_text().splitlines()
        )
        assert float(cost_lines["c"]) == pytest.approx(3.0, rel=1e-12)
        assert int(cost_lines["n"]) == 3
        # 3 homogeneous layers per compiled cycle
        doc = json.loads((out / "compile.json").read_text())
        first_cycle = sched.instructions[: doc["schedule"]["cycle_length"]]
        layers = [i for i in first_cycle if type(i).__name__ == "ApplyLocal"]
        assert len(layers) == 3
        assert doc["cost"]["L"] == doc["schedule"]["num_cycles"] == 900

    @pytest.mark.parametrize("key", ["t_prime", "epsilon"])
    def test_non_finite_trotter_setting_exits_1(self, tmp_path, capsys, key):
        ham = write(tmp_path / "h.ham", HEISENBERG_CHAIN3)
        settings = {"t_prime": "1.0", "epsilon": "0.01", key: "nan"}
        cfg = write(tmp_path / "c.cfg", f"[compile]\nhamiltonian = {ham.name}\n"
                    + "".join(f"{k} = {v}\n" for k, v in settings.items()) + UQS1_3)
        assert main(["compile", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
        assert key in capsys.readouterr().err

    def test_sign_mismatch_exits_2(self, tmp_path, capsys):
        ham = write(tmp_path / "h.ham", HEISENBERG_CHAIN3)
        cfg = write(
            tmp_path / "c.cfg",
            f"[compile]\nhamiltonian = {ham.name}\n"
            "[hardware]\nplatform = uqs1\nsites = 3\ngamma = -1.0\n",
        )
        code = main(["compile", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert code == 2
        assert "sign" in capsys.readouterr().err

    def test_cube_law_dipole_compiles_to_one_push(self, tmp_path, capsys):
        cfg = write(tmp_path / "c.cfg",
                    "[hardware]\nplatform = uqs2\ngamma = 1.0\npositions = 0 ; 1 ; 2 ; 3 ; 4\n"
                    "[model]\nname = dipole\ngeometry = chain:5\n"
                    "[compile]\nt_prime = 1.0\nepsilon = 0.01\n")
        out = tmp_path / "out"
        assert main(["compile", "--config", str(cfg), "--out-dir", str(out)]) == 0
        doc = json.loads((out / "compile.json").read_text())
        assert (doc["cost"]["c"], doc["cost"]["L"]) == (1.0, 100)
        assert doc["schedule"]["num_instructions"] == 500

    def test_qubit_count_mismatch_exits_2(self, tmp_path, capsys):
        ham = write(tmp_path / "h.ham", "1.0 Z Z I\n1.0 I Z Z\n")
        cfg = write(tmp_path / "c.cfg", f"[compile]\nhamiltonian = {ham.name}\n" + UQS2_2)
        assert main(["compile", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("uqsim: infeasible: ") and "Traceback" not in err

    def test_empty_hamiltonian(self, tmp_path):
        ham = write(tmp_path / "h.ham", "# nothing\n0.0 I I\n")
        cfg = write(tmp_path / "c.cfg", f"[compile]\nhamiltonian = {ham.name}\n" + UQS1_3.replace("sites = 3", "sites = 2"))
        out = tmp_path / "out"
        assert main(["compile", "--config", str(cfg), "--out-dir", str(out)]) == 0
        sched = schedule_from_text((out / "schedule.txt").read_text())
        assert sched.instructions == ()
        assert "c=0" in (out / "cost.txt").read_text().replace("0.0", "0")

    def test_parse_error_exits_1(self, tmp_path, capsys):
        ham = write(tmp_path / "h.ham", "0.5 X Q\n")
        cfg = write(tmp_path / "c.cfg", f"[compile]\nhamiltonian = {ham.name}\n" + UQS1_3)
        assert main(["compile", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1

    def test_missing_config_exits_1(self, tmp_path, capsys):
        assert main(["compile", "--config", str(tmp_path / "nope.cfg")]) == 1

    @pytest.mark.parametrize("eps", ["1e-300", "1e-320"])
    def test_schedule_over_the_instruction_bound_exits_1(self, tmp_path, capsys, eps):
        # L = c^2 t'^2 / eps is 4e300 and inf: refused before any cycle is repeated
        write(tmp_path / "zz.ham", "1.0 Z Z\n")
        cfg = write(tmp_path / "c.cfg",
                    f"[compile]\nhamiltonian = zz.ham\nt_prime = 1.0\nepsilon = {eps}\n" + UQS2_2)
        out = tmp_path / "out"
        assert main(["compile", "--config", str(cfg), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("uqsim: L") and "Traceback" not in err
        assert not (out / "schedule.txt").exists()


class TestSimulate:
    def compile_zz(self, tmp_path, t_prime=0.5):
        ham = write(tmp_path / "zz.ham", "1.0 Z Z\n")
        cfg = write(
            tmp_path / "compile.cfg",
            f"[compile]\nhamiltonian = zz.ham\nt_prime = {t_prime}\nepsilon = 0.01\n" + UQS2_2,
        )
        out = tmp_path / "compiled"
        assert main(["compile", "--config", str(cfg), "--out-dir", str(out)]) == 0
        return out / "schedule.txt"

    def test_identity_schedule_preserves_input(self, tmp_path):
        sched = write(tmp_path / "empty.txt", "# pulse schedule version=1 n_qubits=2\n")
        cfg = write(tmp_path / "sim.cfg", "[simulate]\nschedule = empty.txt\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        state = StateVector.load_text((out / "state.txt").read_text())
        np.testing.assert_array_equal(state.amps, StateVector.zero_state(2).amps)

    def test_oracle_fidelity_printed(self, tmp_path, capsys):
        sched_path = self.compile_zz(tmp_path)
        cfg = write(
            tmp_path / "sim.cfg",
            "[simulate]\n"
            f"schedule = {sched_path}\n"
            "initial = zeros\n"
            "oracle_hamiltonian = zz.ham\n"
            "t_prime = 0.5\n"
            "observables = Z0, Z1, Z0Z1\n",
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out), "--oracle"]) == 0
        captured = capsys.readouterr().out
        assert "oracle_fidelity=" in captured
        summary = json.loads((out / "summary.json").read_text())
        assert summary["oracle_fidelity"] >= 1 - 2 * 0.01
        obs = (out / "observables.csv").read_text().splitlines()
        assert obs[0] == "observable,value"
        assert len(obs) == 4

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_t_prime_exits_1_naming_it(self, tmp_path, capsys, value):
        write(tmp_path / "zz.ham", "1.0 Z Z\n")
        write(tmp_path / "empty.txt", "# pulse schedule version=1 n_qubits=2\n")
        cfg = write(tmp_path / "sim.cfg", "[simulate]\nschedule = empty.txt\n"
                    f"oracle_hamiltonian = zz.ham\nt_prime = {value}\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out), "--oracle"]) == 1
        err = capsys.readouterr().err
        assert "t_prime" in err and "Traceback" not in err

    @pytest.mark.parametrize("entry", ["Q0", "Z5", "Z0Z0", "Z" + "9" * 5000])
    def test_bad_observable_exits_1_before_running(self, tmp_path, capsys, entry):
        write(tmp_path / "empty.txt", "# pulse schedule version=1 n_qubits=3\n")
        cfg = write(tmp_path / "sim.cfg",
                    f"[simulate]\nschedule = empty.txt\nobservables = Z0, {entry}, Z1\n")
        out = tmp_path / "out"
        out.mkdir()
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("uqsim: [simulate] observables entry ") and repr(entry) in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("oracle", ["", "oracle_hamiltonian = missing.ham\n", "t_prime = nan\n"])
    def test_bad_oracle_setting_exits_1_before_running(self, tmp_path, oracle):
        write(tmp_path / "zz.ham", "1.0 Z Z\n")
        write(tmp_path / "empty.txt", "# pulse schedule version=1 n_qubits=2\n")
        if "t_prime" in oracle:
            oracle += "oracle_hamiltonian = zz.ham\n"
        cfg = write(tmp_path / "sim.cfg", "[simulate]\nschedule = empty.txt\n" + oracle)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out), "--oracle"]) == 1
        assert not out.exists()

    def test_overflowing_oracle_exits_4(self, tmp_path, capsys):
        write(tmp_path / "big.ham", "1e308 Z Z\n1e308 X X\n1e308 Y Y\n")
        write(tmp_path / "empty.txt", "# pulse schedule version=1 n_qubits=2\n")
        cfg = write(tmp_path / "sim.cfg",
                    "[simulate]\nschedule = empty.txt\noracle_hamiltonian = big.ham\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out), "--oracle"]) == 4
        assert "Traceback" not in capsys.readouterr().err

    def test_noise_without_seed_exits_3(self, tmp_path, capsys):
        sched_path = self.compile_zz(tmp_path)
        cfg = write(
            tmp_path / "sim.cfg",
            f"[simulate]\nschedule = {sched_path}\neta_local = 0.01\n",
        )
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 3

    def test_determinism_bit_identical_dumps(self, tmp_path):
        sched_path = self.compile_zz(tmp_path)
        cfg = write(
            tmp_path / "sim.cfg",
            f"[simulate]\nschedule = {sched_path}\neta_local = 0.01\neta_int = 0.005\n",
        )
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(["simulate", "--config", str(cfg), "--out-dir", str(out),
                         "--seed", "7"])
            assert code == 0
            outs.append((out / "state.txt").read_bytes())
        assert outs[0] == outs[1]
        manifests = [json.loads((tmp_path / n / "manifest.json").read_text()) for n in ("a", "b")]
        assert manifests[0]["outputs"] == manifests[1]["outputs"]


    def test_header_cycle_fields_do_not_change_the_run(self, tmp_path):
        # the executor finds the repeated cycles in the schedule itself, so
        # the version=1 file with every line, with or without cycles= and
        # cycle_length=, simulates to the same bytes as the compiled
        # version=2 file of one cycle
        write(tmp_path / "h.ham", "-0.5 Z Z I\n-0.8 I Z Z\n0.4 X I I\n0.3 I X I\n0.6 I I X\n")
        cfg = write(tmp_path / "c.cfg", "[compile]\nhamiltonian = h.ham\nt_prime = 0.5\n"
                    "[hardware]\nplatform = uqs2\ngamma = 1.0\npositions = 0 ; 1 ; 2\n")
        assert main(["compile", "--config", str(cfg), "--out-dir", str(tmp_path / "c")]) == 0
        cycle = (tmp_path / "c" / "schedule.txt").read_text()
        assert cycle.startswith("# pulse schedule version=2 n_qubits=3 cycles=")
        header = oracles.schedule_header(cycle)
        bare, body = oracles.version_1_text(schedule_from_text(cycle)).split("\n", 1)
        head = f"{bare} cycles={header['cycles']} cycle_length={header['cycle_length']}"
        outs = []
        texts = (("headered", f"{head}\n{body}"), ("bare", f"{bare}\n{body}"), ("cycle", cycle))
        for name, text in texts:
            write(tmp_path / f"{name}.txt", text)
            cfg = write(tmp_path / f"{name}.cfg", f"[simulate]\nschedule = {name}.txt\n"
                        "eta_local = 0.01\neta_int = 0.005\nseed = 3\n")
            assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / name)]) == 0
            outs.append([(tmp_path / name / f).read_bytes()
                         for f in ("state.txt", "execution_log.txt")])
        assert outs[0] == outs[1] == outs[2]

    def simulate_text(self, tmp_path, schedule_text, extra=""):
        write(tmp_path / "s.txt", schedule_text)
        cfg = write(tmp_path / "sim.cfg", "[simulate]\nschedule = s.txt\n" + extra)
        out = tmp_path / "out"
        return main(["simulate", "--config", str(cfg), "--out-dir", str(out)]), out

    def test_nan_weight_exits_1_and_writes_no_nan(self, tmp_path, capsys):
        code, out = self.simulate_text(
            tmp_path, "# pulse schedule version=1 n_qubits=2\nGATE g 0.1 0-1:nan\n")
        assert code == 1
        assert "line 2" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_gate_qubit_out_of_range_exits_1(self, tmp_path, capsys):
        code, _ = self.simulate_text(
            tmp_path, "# pulse schedule version=1 n_qubits=2\nGATE g 0.3 0-7:1.0\n")
        assert code == 1
        assert "out of range" in capsys.readouterr().err

    def test_short_inhomogeneous_layer_exits_1(self, tmp_path, capsys):
        ident = "1.0 0.0 0.0 0.0 0.0 0.0 1.0 0.0"
        code, _ = self.simulate_text(
            tmp_path, f"# pulse schedule version=1 n_qubits=3\nLOCAL I {ident}\n")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("uqsim: ") and "1 unitaries for 3 qubits" in err

    def test_bad_initial_dump_exits_1(self, tmp_path, capsys):
        write(tmp_path / "dump.txt", "# statevector n_qubits=2\n-1 3.0 0.0\n")
        code, _ = self.simulate_text(
            tmp_path, "# pulse schedule version=1 n_qubits=2\n", "initial = file:dump.txt\n")
        assert code == 1
        assert "line 2" in capsys.readouterr().err

    def test_initial_dump_of_another_size_exits_1_before_the_run(self, tmp_path, capsys):
        write(tmp_path / "dump.txt", StateVector.zero_state(3).dump_text())
        code, out = self.simulate_text(
            tmp_path, "# pulse schedule version=1 n_qubits=2\n", "initial = file:dump.txt\n")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("uqsim: ") and "holds 3 qubits, the schedule is for 2" in err
        assert not out.exists() or not any(out.iterdir())

    def simulate_oracle(self, tmp_path, ham_text, n_qubits):
        write(tmp_path / "h.ham", ham_text)
        write(tmp_path / "s.txt", f"# pulse schedule version=1 n_qubits={n_qubits}\n")
        cfg = write(tmp_path / "sim.cfg", "[simulate]\nschedule = s.txt\noracle_hamiltonian = h.ham\n")
        return main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o"), "--oracle"])

    def test_oracle_hamiltonian_against_its_header_exits_1(self, tmp_path, capsys):
        # the body is 2 qubits, the header and the schedule 3
        assert self.simulate_oracle(tmp_path, "# hamiltonian n_qubits=3\n1.0 Z Z\n", 3) == 1
        err = capsys.readouterr().err
        assert err.startswith("uqsim: line 2: expected 3 ops, got 2")
        assert "Traceback" not in err

    def test_oracle_hamiltonian_of_another_size_exits_1_before_the_run(self, tmp_path, capsys):
        assert self.simulate_oracle(tmp_path, Hamiltonian.zero(3).to_text(), 2) == 1
        err = capsys.readouterr().err
        assert err.startswith("uqsim: [simulate] oracle_hamiltonian holds 3 qubits, "
                              "the schedule is for 2")
        assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())

    def test_oracle_reads_a_header_only_hamiltonian(self, tmp_path, capsys):
        assert self.simulate_oracle(tmp_path, Hamiltonian.zero(2).to_text(), 2) == 0
        assert "oracle_fidelity=1.0" in capsys.readouterr().out


class TestAdiabatic:
    def small_cfg(self, tmp_path, sweep=None):
        """A 3-site dipole run recording every step, or with `sweep` the
        [sweep] lines of a sweep, which records no trajectory."""
        return write(
            tmp_path / "adia.cfg",
            "[hardware]\nplatform = uqs1\nsites = 3\navailable_j = all\ngamma = 1.0\n"
            "[model]\nname = dipole\nj = 1.0\ngeometry = chain:3\n"
            "[adiabatic]\ninitial = zz_chain\nsteps = 20\ntheta1 = 0.1\n"
            f"record_every = {0 if sweep else 1}\nseed = 3\n"
            + (f"[sweep]\n{sweep}" if sweep else ""),
        )

    def test_run_produces_valid_outputs(self, tmp_path):
        cfg = self.small_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["adiabatic", "--config", str(cfg), "--out-dir", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert rows[0] == "step,k,fidelity,energy"
        assert len(rows) == 21
        for name in ("fidelity.svg", "histogram.svg"):
            ET.fromstring((out / name).read_text())  # valid XML
        summary = json.loads((out / "summary.json").read_text())
        assert 0 <= summary["ground_weight"] <= 1

    def test_steps_override_single_row(self, tmp_path):
        cfg = self.small_cfg(tmp_path)
        out = tmp_path / "out1"
        assert main(["adiabatic", "--config", str(cfg), "--out-dir", str(out), "--steps", "1"]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 2

    def test_bundled_config_resolves(self, tmp_path):
        out = tmp_path / "out"
        code = main(["adiabatic", "--config", "fig4a.cfg", "--out-dir", str(out), "--steps", "5"])
        assert code == 0
        assert (out / "trajectory.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "adiabatic"
        assert set(manifest["outputs"]) >= {"trajectory.csv", "histogram.csv", "fidelity.svg"}

    def test_overflowing_spectrum_exits_4(self, tmp_path, capsys):
        text = with_value(with_value(bundled("fig4a.cfg"), "j", "1e308"), "steps", "3")
        cfg = write(tmp_path / "big.cfg", text)
        assert main(["adiabatic", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 4
        assert "Traceback" not in capsys.readouterr().err

    def test_sweep_grid(self, tmp_path):
        cfg = self.small_cfg(tmp_path, "etas = 0 0.02\nsteps_list = 5 10\nrepetitions = 3\n")
        out = tmp_path / "out"
        assert main(["adiabatic", "--config", str(cfg), "--out-dir", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "eta,steps,repetitions,mean_fidelity,std_fidelity,stderr"
        assert len(rows) == 5
        ET.fromstring((out / "sweep.svg").read_text())

    def test_sweep_jobs_deterministic(self, tmp_path):
        cfg = self.small_cfg(tmp_path, "etas = 0 0.02\nsteps_list = 5\nrepetitions = 2\n")
        texts = []
        for name, jobs in (("o1", "1"), ("o2", "2")):
            out = tmp_path / name
            assert main(["adiabatic", "--config", str(cfg), "--out-dir", str(out),
                         "--jobs", jobs]) == 0
            texts.append((out / "sweep.csv").read_text())
        assert texts[0] == texts[1]

    def test_sweep_pool_has_no_more_workers_than_cells(self, tmp_path, monkeypatch):
        # a pool that records its size and runs each cell in this process,
        # so that --jobs 8 forks nothing
        import concurrent.futures

        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args, **kwargs):
                fut = concurrent.futures.Future()
                fut.set_result(fn(*args, **kwargs))
                return fut

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = self.small_cfg(tmp_path, "etas = 0 0.02\nsteps_list = 5\nrepetitions = 2\n")
        texts = []
        for name, jobs in (("o1", "1"), ("o8", "8")):
            out = tmp_path / name
            assert main(["adiabatic", "--config", str(cfg), "--out-dir", str(out),
                         "--jobs", jobs]) == 0
            texts.append((out / "sweep.csv").read_text())
        assert sizes == [2]  # two cells
        assert texts[0] == texts[1]

    def test_format_json_writes_the_sweep_rows(self, tmp_path):
        cfg = self.small_cfg(tmp_path, "etas = 0 0.02\nsteps_list = 5\nrepetitions = 2\n")
        out = tmp_path / "out"
        assert main(["adiabatic", "--config", str(cfg), "--out-dir", str(out),
                     "--format", "json"]) == 0
        rows = json.loads((out / "sweep.json").read_text())
        csv_rows = (out / "sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == len(csv_rows) == 2
        for row, line in zip(rows, csv_rows):
            assert line == ",".join(repr(row[k]) for k in
                                    ("eta", "steps", "repetitions", "mean_fidelity",
                                     "std_fidelity", "stderr"))
        manifest = json.loads((out / "manifest.json").read_text())
        assert "sweep.json" in manifest["outputs"]

    def test_steps_overrides_the_sweep_steps_list(self, tmp_path):
        cfg = self.small_cfg(tmp_path, "etas = 0 0.02\nsteps_list = 2 5\nrepetitions = 2\n")
        outs = {}
        for name, argv in (("flag", ["--steps", "3"]), ("list", [])):
            out = tmp_path / name
            assert main(["adiabatic", "--config", str(cfg), "--out-dir", str(out), *argv]) == 0
            outs[name] = [line.split(",")[:2] for line in
                          (out / "sweep.csv").read_text().splitlines()[1:]]
        assert outs["flag"] == [["0.0", "3"], ["0.02", "3"]]
        assert sorted(steps for _, steps in outs["list"]) == ["2", "2", "5", "5"]

    def test_format_json_without_a_sweep_exits_1_naming_the_flag(self, tmp_path, capsys):
        cfg = self.small_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["adiabatic", "--config", str(cfg), "--out-dir", str(out),
                     "--format", "json"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("uqsim: --format json does nothing without [sweep]")
        assert not out.exists()

    def test_ising_on_a_2d_lattice(self, tmp_path):
        # a 2x2 grid on a 2D uqs1 lattice, with a homogeneous transverse field
        cfg = write(
            tmp_path / "grid.cfg",
            "[hardware]\nplatform = uqs1\nshape = 2 2\n"
            "boundary = open\navailable_j = all\ngamma = 1.0\n"
            "[model]\nname = ising\nj = -1.0\nb = 0.5\ndirection = 1 0 0\ngeometry = grid:2x2\n"
            "[adiabatic]\ninitial = xx_chain\nsteps = 20\ntheta1 = 0.1\nrecord_every = 1\n",
        )
        out = tmp_path / "out"
        assert main(["adiabatic", "--config", str(cfg), "--out-dir", str(out), "--steps", "2"]) == 0
        rows = (out / "trajectory.csv").read_text().splitlines()
        assert len(rows) == 3
        histogram = (out / "histogram.csv").read_text().splitlines()[1:]
        weights = [float(line.split(",")[2]) for line in histogram]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["ground_weight"] == weights[0]
        assert summary["t_sim"] == pytest.approx(0.2, rel=1e-12)

    def test_dipole_with_j_against_gamma_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path / "neg.cfg", with_value(bundled("fig4a.cfg"), "j", "-1.0"))
        code = main(["adiabatic", "--config", str(cfg), "--out-dir", str(tmp_path / "o"),
                     "--steps", "2"])
        err = capsys.readouterr().err
        assert code == 2, err
        assert "sign opposite to gamma" in err and "np.float64" not in err

    RANDOM_ISING = ("[hardware]\nplatform = uqs2\ngamma = 1.0\npositions = 0 ; 1 ; 2 ; 3\n"
                    "[model]\nname = random_ising\ngeometry = chain:4\nb_values = 0.3 0.2 0.4 0.1\n"
                    "[adiabatic]\ninitial = xx_chain\ntheta1 = 0.1\nrecord_every = 1\n")

    @pytest.mark.parametrize("couplings", [
        "j_values = 0-1:1.0, 1-2:-0.5, 2-3:2.0",
        "j_range = -1.0 1.0\nseed = 4",
    ])
    def test_random_ising_on_the_trap_array(self, tmp_path, couplings):
        cfg = write(tmp_path / "ri.cfg", self.RANDOM_ISING.replace(
            "[adiabatic]", f"{couplings}\n[adiabatic]"))
        out = tmp_path / "out"
        assert main(["adiabatic", "--config", str(cfg), "--out-dir", str(out), "--steps", "2"]) == 0
        weights = [float(line.split(",")[2])
                   for line in (out / "histogram.csv").read_text().splitlines()[1:]]
        assert sum(weights) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("pair", ["0-7", "1-1"])
    def test_j_values_pair_outside_the_geometry_exits_1(self, tmp_path, capsys, pair):
        cfg = write(tmp_path / "ri.cfg", self.RANDOM_ISING.replace(
            "[adiabatic]", f"j_values = {pair}:1.0\n[adiabatic]"))
        code = main(["adiabatic", "--config", str(cfg), "--out-dir", str(tmp_path / "o"),
                     "--steps", "2"])
        err = capsys.readouterr().err
        assert code == 1, err
        assert "distinct sites" in err and "Traceback" not in err

    @pytest.mark.parametrize("couplings, named", [
        ("j = 2.0\nj_values = 0-1:1.0", "random_ising takes no j here"),
        ("j_values = 0-1:1.0\nseed = 4", "random_ising takes no seed here"),
        ("j_values = 0-1:1.0\nj_range = -1 1\nseed = 4", "random_ising takes no j_range, seed here"),
    ])
    def test_random_ising_key_it_would_not_read_exits_1(self, tmp_path, capsys, couplings, named):
        cfg = write(tmp_path / "ri.cfg", self.RANDOM_ISING.replace(
            "[adiabatic]", f"{couplings}\n[adiabatic]"))
        out = tmp_path / "o"
        assert main(["adiabatic", "--config", str(cfg), "--out-dir", str(out), "--steps", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"uqsim: [model] {named} ") and "Traceback" not in err
        assert not out.exists()

    def test_sweep_noise_without_seed_exits_3(self, tmp_path):
        cfg = write(
            tmp_path / "adia.cfg",
            "[hardware]\nplatform = uqs1\nsites = 3\n"
            "[model]\nname = dipole\ngeometry = chain:3\n"
            "[adiabatic]\ninitial = zz_chain\nsteps = 5\ntheta1 = 0.1\n"
            "[sweep]\netas = 0.01\nsteps_list = 5\nrepetitions = 2\n",
        )
        assert main(["adiabatic", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 3


class TestCostAndCrosstalk:
    def test_antisymmetric_example_cost(self, tmp_path, capsys):
        j = 0.7
        cfg = write(
            tmp_path / "cost.cfg",
            "[cost]\nmode = inhomogeneous\ngamma = 0.5\n"
            f"matrix = 0 0 0 ; 0 0 {-j} ; 0 {j} 0\n",
        )
        assert main(["cost", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        c = float([l for l in out.splitlines() if l.startswith("c=")][0][2:])
        assert c == pytest.approx(2 * j / 0.5, rel=1e-12)

    @pytest.mark.parametrize("c, t_prime, eps", [
        (3.0, 1.0, 0.01),    # c^2 t'^2 / eps = 900 exactly
        (1.0, 0.5, 0.01),    # 25 exactly
        (0.7, 1.3, 0.003),
        (2.5, 0.2, 0.05),
        (0.01, 1.0, 0.5),    # below one cycle: L = 1
    ])
    def test_cost_and_trotter_schedule_agree_on_L(self, tmp_path, capsys, c, t_prime, eps):
        cfg = write(
            tmp_path / "cost.cfg",
            f"[cost]\nmode = homogeneous\ngamma = 1.0\nmatrix = 0 0 0 ; 0 0 0 ; 0 0 {c!r}\n"
            f"t_prime = {t_prime!r}\nepsilon = {eps!r}\n",
        )
        assert main(["cost", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
        lines = dict(l.split("=", 1) for l in capsys.readouterr().out.splitlines())
        target = Hamiltonian.from_terms(2, [(c, "ZZ")])
        trap = TrapArrayModel(positions=((0.0,), (1.0,)))
        _, report = trotter_schedule(target, t_prime, eps, trap)
        assert float(lines["c"]) == report.time_cost
        assert int(lines["L"]) == report.num_gates == trotter_cycles(c, t_prime, eps)

    def test_homogeneous_infeasible_exits_2(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "cost.cfg",
            "[cost]\nmode = homogeneous\ngamma = -1.0\nmatrix = 1 0 0 ; 0 1 0 ; 0 0 1\n",
        )
        assert main(["cost", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 2

    def test_crosstalk_ten_site_ratio(self, tmp_path, capsys):
        positions = " ; ".join(str(i) for i in range(13))
        cfg = write(
            tmp_path / "x.cfg",
            f"[hardware]\nplatform = uqs2\npositions = {positions}\n"
            "crosstalk_threshold = 0.002\n"
            "[crosstalk]\ngroups = 0 1 ; 11 12\n",
        )
        assert main(["crosstalk", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "max_ratio=0.001" in out
        assert "concurrent=True" in out

    def test_single_group_ratio_zero(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "x.cfg",
            "[hardware]\nplatform = uqs2\npositions = 0 ; 1\n"
            "[crosstalk]\ngroups = 0 1\n",
        )
        assert main(["crosstalk", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 0
        assert "max_ratio=0.0" in capsys.readouterr().out

    def test_overlapping_groups_exit_1_naming_the_key(self, tmp_path, capsys):
        cfg = write(
            tmp_path / "x.cfg",
            "[hardware]\nplatform = uqs2\npositions = 0 ; 1 ; 2\n"
            "[crosstalk]\ngroups = 0 1 ; 1 2\n",
        )
        assert main(["crosstalk", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("uqsim: [crosstalk] groups = ") and "overlap on ions [1]" in err

    @pytest.mark.parametrize("platform, key, value, named", [
        ("uqs2", "positions", "0 ; nan ; 2 ; 3", "position 1 is not finite"),
        ("uqs2", "positions", "0 ; inf ; 2 ; 3", "position 1 is not finite"),
        ("uqs2", "positions", "0 ; 1 ; 2 ; 1e200", "traps 0 and 3 are 1e+200 apart"),
        ("uqs2", "crosstalk_threshold", "nan", "crosstalk_threshold must be finite, got nan"),
        ("uqs2", "kappa", "1.0", "platform uqs2 has no key kappa"),
        ("uqs1", "dims", "1", "platform uqs1 has no key dims"),
        ("uqs1", "sites", "4", "needs a uqs2"),
        ("uqs1", "positions", "0 ; 1 ; 2 ; 3", "platform uqs1 has no key positions"),
        ("uqs1", "positions", "", "platform uqs1 has no key positions"),
    ])
    def test_bad_trap_array_exits_1_naming_the_value(self, tmp_path, capsys, platform, key, value,
                                                     named):
        hardware = {"uqs1": UQS1_3, "uqs2": UQS2_4}[platform]
        cfg = write(tmp_path / "x.cfg",
                    set_value(hardware + "[crosstalk]\ngroups = 0 1\n", "hardware", key, value))
        assert main(["crosstalk", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("uqsim: ") and named in err and "Traceback" not in err
        assert not (tmp_path / "o" / "crosstalk.txt").exists()

    @pytest.mark.parametrize("argv, written", [
        ([], "results"),
        # an explicit --out-dir wins, however it is spelled
        (["--out-dir", "."], "."),
        (["--out-dir", "./"], "."),
    ])
    def test_output_dir_from_config(self, tmp_path, monkeypatch, argv, written):
        cfg = write(
            tmp_path / "x.cfg",
            "[output]\ndir = results\n"
            "[hardware]\nplatform = uqs2\npositions = 0 ; 1\n"
            "[crosstalk]\ngroups = 0 1\n",
        )
        monkeypatch.chdir(tmp_path)
        assert main(["crosstalk", "--config", str(cfg), *argv]) == 0
        assert (tmp_path / written / "crosstalk.txt").exists()
        assert (tmp_path / "results").exists() == (written == "results")

class TestUsage:
    def test_unknown_subcommand_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "--config", "x"])
        assert exc.value.code == 1

    def test_schedule_round_trip_through_files(self, tmp_path):
        ham = write(tmp_path / "h.ham", "0.5 Z Z\n0.25 X I\n0.25 I X\n")
        cfg = write(tmp_path / "c.cfg", "[compile]\nhamiltonian = h.ham\n" + UQS2_2)
        out = tmp_path / "out"
        assert main(["compile", "--config", str(cfg), "--out-dir", str(out)]) == 0
        text = (out / "schedule.txt").read_text()
        sched = schedule_from_text(text)
        from uqsim.compiler import schedule_to_text

        assert schedule_to_text(sched) == text


def bundled(name: str) -> str:
    return (resources.files("uqsim") / "configs" / name).read_text()


def with_value(text: str, key: str, value: str) -> str:
    text, n = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
    assert n == 1, key
    return text


EMPTY_SCHEDULE = "# pulse schedule version=1 n_qubits=2\n"
STEPS_3 = ["--steps", "3"]


@pytest.mark.parametrize("config, section, key, value, argv", [
    ("fig4a.cfg", None, None, None, ["--steps", "0"]),
    ("fig4a.cfg", None, None, None, ["--steps", "-4"]),
    ("fig4b.cfg", "sweep", "steps_list", "0", STEPS_3),
    ("fig4b.cfg", "sweep", "steps_list", "100 -1", STEPS_3),
    ("fig4a.cfg", "adiabatic", "steps", "0", STEPS_3),
    ("fig4a.cfg", "adiabatic", "theta1", "-0.1", STEPS_3),
    ("fig4a.cfg", "adiabatic", "theta1", "nan", STEPS_3),
    ("fig4a.cfg", "adiabatic", "theta1", "inf", STEPS_3),
    ("fig4a.cfg", "adiabatic", "record_every", "-1", STEPS_3),
    ("fig4a.cfg", "adiabatic", "ramp", "cubic", STEPS_3),
    ("fig4a.cfg", "adiabatic", "initial", "foo", STEPS_3),
    ("fig4a.cfg", "hardware", "sites", "abc", STEPS_3),
    ("fig4a.cfg", "hardware", "sites", "1", STEPS_3),
    ("fig4a.cfg", "hardware", "gamma", "0", STEPS_3),
    ("fig4a.cfg", "hardware", "gamma", "nan", STEPS_3),
    ("fig4a.cfg", "adiabatic", "eta_local", "1.5", STEPS_3),
    ("simulate", "simulate", "eta_local", "1.5", []),
    ("simulate", "simulate", "initial", "ones", []),
    ("fig4b.cfg", "sweep", "etas", "1.5", STEPS_3),
    ("fig4b.cfg", "sweep", "etas", "-0.1", STEPS_3),
    ("fig4a.cfg", "adiabatic", "initial", "file:.", STEPS_3),
    ("cost", "cost", "mode", "bogus", []),
    ("compile", "compile", "epsilon", "0", []),
    ("compile", "compile", "t_prime", "-1", []),
    # a non-finite model value names its key, not only the coefficient
    ("fig4a.cfg", "model", "j", "nan", STEPS_3),
    ("fig4a.cfg", "model", "j", "-inf", STEPS_3),
    ("fig4a.cfg", "model", "b", "nan", STEPS_3),
    ("fig4a.cfg", "model", "direction", "nan 0 1", STEPS_3),
    ("fig4a.cfg", "model", "b_values", "0.1 inf 0.2", STEPS_3),
    ("fig4a.cfg", "model", "j_values", "0-1:nan", STEPS_3),
    ("fig4a.cfg", "model", "j_range", "0 inf", STEPS_3),
])
def test_bad_config_value_exits_1_without_traceback(tmp_path, capsys, config, section, key, value,
                                                    argv):
    write(tmp_path / "zz.ham", "1.0 Z Z\n")
    write(tmp_path / "empty.txt", EMPTY_SCHEDULE)
    text = {**CONFIG_BASES, "simulate": SIMULATE_BASE}.get(config) or bundled(config)
    if key is not None:
        text = set_value(text, section, key, value)
    cfg = write(tmp_path / "bad.cfg", text)
    command = "adiabatic" if config.endswith(".cfg") else config
    code = main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "out"), *argv])
    err = capsys.readouterr().err
    assert code == 1, err
    assert "Traceback" not in err
    assert err.startswith("uqsim: ")
    assert (f"[{section}] {key}" if key else "--steps") in err
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("run, where", [
    ("simulate noisy", "config"), ("simulate noisy", "flag"),
    ("simulate noiseless", "config"), ("simulate noiseless", "flag"),
    ("adiabatic", "config"), ("adiabatic", "flag"),
    ("sweep", "config"), ("sweep", "flag"),
    ("model", "config"),
])
def test_negative_seed_exits_1_naming_the_seed(tmp_path, capsys, run, where):
    # numpy's generators refuse a negative seed: it is a usage error before
    # any work, not a traceback or a manifest with "seed": -1
    if run.startswith("simulate"):
        write(tmp_path / "empty.txt", EMPTY_SCHEDULE)
        eta = "0.01" if run == "simulate noisy" else "0.0"
        text = f"[simulate]\nschedule = empty.txt\neta_local = {eta}\nseed = 1\n"
        command, argv, key = "simulate", [], "[simulate] seed"
    else:
        text = bundled("fig4b.cfg" if run == "sweep" else "fig4a.cfg")
        command, argv, key = "adiabatic", STEPS_3, "[adiabatic] seed"
    if run == "model":
        text, key = text.replace("[model]\n", "[model]\nseed = -1\n"), "[model] seed"
    elif where == "config":
        text = with_value(text, "seed", "-1")
    else:
        argv, key = [*argv, "--seed", "-1"], "--seed -1"
    cfg = write(tmp_path / "bad.cfg", text)
    code = main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "out"), *argv])
    err = capsys.readouterr().err
    assert code == 1, err
    assert "Traceback" not in err
    assert err.startswith("uqsim: ") and key in err and "non-negative" in err
    assert not (tmp_path / "out" / "manifest.json").exists()


BARE_COST = "[cost]\nmode = homogeneous\ngamma = 1.0\nmatrix = 0 0 0 ; 0 0 0 ; 0 0 1\n"
CONFIG_BASES = {
    "cost": BARE_COST + "t_prime = 1.0\nepsilon = 0.01\n",
    "crosstalk": UQS2_4 + "[crosstalk]\ngroups = 0 1\n",
    "compile": UQS2_2 + "[compile]\nhamiltonian = zz.ham\nt_prime = 1.0\n",
}
SIMULATE_BASE = "[simulate]\nschedule = empty.txt\neta_local = 0.0\nseed = 1\n"


def set_value(text: str, section: str, key: str, value: str) -> str:
    """`key = value` in [section]: the key's line replaced, or one added."""
    text, n = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
    assert n <= 1, key
    return text if n else text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n", 1)


@pytest.mark.parametrize("config, section, key, value, argv", [
    ("fig4a.cfg", "adiabatic", "theta1", "abc", STEPS_3),
    ("fig4a.cfg", "adiabatic", "record_every", "1.5", STEPS_3),
    ("fig4a.cfg", "adiabatic", "seed", "x", STEPS_3),
    ("fig4a.cfg", "adiabatic", "eta_local", "abc", STEPS_3),
    # keys the run does not read are checked too
    ("fig4a.cfg", "adiabatic", "steps", "abc", STEPS_3),
    ("fig4a.cfg", "adiabatic", "seed", "x", ["--seed", "5", *STEPS_3]),
    ("simulate", "simulate", "t_prime", "abc", []),
    ("bare cost", "cost", "n_controls", "abc", []),
    ("fig4a.cfg", "model", "j", "abc", STEPS_3),
    ("fig4a.cfg", "model", "b", "abc", STEPS_3),
    ("fig4a.cfg", "model", "direction", "1 0", STEPS_3),
    ("fig4a.cfg", "model", "geometry", "chain:x", STEPS_3),
    ("fig4a.cfg", "model", "geometry", "chain:1", STEPS_3),
    ("fig4a.cfg", "model", "geometry", "grid:2x2:kagome", STEPS_3),
    ("fig4a.cfg", "model", "geometry", "grid:0x2", STEPS_3),
    ("fig4b.cfg", "sweep", "etas", "0 abc", STEPS_3),
    ("fig4b.cfg", "sweep", "repetitions", "many", STEPS_3),
    ("fig4b.cfg", "sweep", "steps_list", "100 1e3", STEPS_3),
    ("cost", "cost", "gamma", "abc", []),
    ("cost", "cost", "gamma", "inf", []),
    ("cost", "cost", "gamma", "nan", []),
    ("cost", "cost", "gamma", "0", []),
    ("cost", "cost", "gamma", "-0.0", []),
    ("cost", "cost", "n_controls", "-3", []),
    ("cost", "cost", "matrix", "1 0 0 ; 0 x 0 ; 0 0 1", []),
    ("crosstalk", "crosstalk", "groups", "0 a ; 2 3", []),
    ("crosstalk", "crosstalk", "groups", "0 1; 2 9", []),
    ("crosstalk", "crosstalk", "groups", "-1 0; 1 2", []),
    ("crosstalk", "crosstalk", "groups", "0 1; 3 3", []),
    ("compile", "compile", "t_prime", "abc", []),
])
def test_unparsable_config_value_exits_1_naming_the_key(tmp_path, capsys, config, section, key,
                                                        value, argv):
    write(tmp_path / "zz.ham", "1.0 Z Z\n")
    write(tmp_path / "empty.txt", EMPTY_SCHEDULE)
    bases = {**CONFIG_BASES, "simulate": SIMULATE_BASE, "bare cost": BARE_COST}
    text = bases.get(config) or bundled(config)
    cfg = write(tmp_path / "bad.cfg", set_value(text, section, key, value))
    command = "adiabatic" if config.endswith(".cfg") else section
    code = main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "out"), *argv])
    err = capsys.readouterr().err
    assert code == 1, err
    assert "Traceback" not in err
    assert err.startswith(f"uqsim: [{section}] {key} = {value!r}: ")
    assert not (tmp_path / "out" / "manifest.json").exists()


def rejected_text(convert) -> str | None:
    """The first of a few texts that `convert` refuses, or None."""
    for text in ("abc", "", "-1", "nan", "1.5"):
        try:
            convert(text)
        except (ValueError, CompileError, ExperimentError, HardwareError):
            return text
    return None


TABLE_CASES = {(section, key): rejected_text(convert)
               for section, table in CONFIG_TABLE.items()
               for key, (convert, _) in table.items()}


def test_only_path_and_text_keys_take_any_text():
    # a key whose converter takes any text is one the run checks in context, or a path
    assert {case for case, text in TABLE_CASES.items() if text is None} == {
        ("compile", "hamiltonian"), ("simulate", "schedule"), ("simulate", "observables"),
        ("simulate", "oracle_hamiltonian"), ("output", "dir")}


@pytest.mark.parametrize("section, key, value", [
    (*case, text) for case, text in TABLE_CASES.items() if text is not None])
def test_every_key_of_the_table_is_checked_by_any_command(tmp_path, capsys, section, key, value):
    # every section in CONFIG_TABLE is converted as the file is read, so a cost run,
    # which reads only [cost], refuses a bad value anywhere else too
    text = BARE_COST if section == "cost" else BARE_COST + f"[{section}]\n"
    cfg = write(tmp_path / "bad.cfg", set_value(text, section, key, value))
    code = main(["cost", "--config", str(cfg), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith(f"uqsim: [{section}] {key} = {value!r}: ")
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("lines, named", [
    ("t_prime = 1.0", "t_prime"),
    ("epsilon = 0.01", "epsilon"),
    ("n_controls = 2", "n_controls"),
    ("t_prime = 1.0\nn_controls = 2", "t_prime, n_controls"),
])
def test_cost_budget_key_alone_exits_1_naming_it(tmp_path, capsys, lines, named):
    cfg = write(tmp_path / "c.cfg", BARE_COST + lines + "\n")
    assert main(["cost", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"uqsim: [cost] {named} does nothing alone: ")
    assert not (tmp_path / "out" / "manifest.json").exists()


def readme_config_keys() -> dict[str, set[str]]:
    """Each section of the README's config reference and the keys it lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("### Config format", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    keys = {}
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if header := re.fullmatch(r"\[(\w+)\]", line):
            section = keys.setdefault(header[1], set())
        elif line:
            section.add(line.split("=", 1)[0].strip())
    return keys


def test_readme_config_reference_lists_every_key():
    expected = {name: set(table) for name, table in CONFIG_TABLE.items()}
    expected["hardware"] = {"file", "platform", *" ".join(HARDWARE_KEYS.values()).split()}
    assert readme_config_keys() == expected


@pytest.mark.parametrize("config, section, key", [
    ("compile", "compile", "epsilonn"),
    ("compile", "hardware", "gama"),
    ("compile", "output", "directory"),
    ("simulate", "simulate", "eta_locl"),
    ("fig4a.cfg", "adiabatic", "theta"),
    ("fig4a.cfg", "model", "b_vaules"),
    ("fig4a.cfg", "hardware", "site"),
    ("fig4b.cfg", "sweep", "reps"),
    ("cost", "cost", "n_control"),
    ("crosstalk", "crosstalk", "group"),
    ("crosstalk", "hardware", "kapa"),
])
def test_unknown_config_key_exits_1_naming_it(tmp_path, capsys, config, section, key):
    write(tmp_path / "zz.ham", "1.0 Z Z\n")
    write(tmp_path / "empty.txt", "# pulse schedule version=1 n_qubits=2\n")
    bases = {**CONFIG_BASES, "simulate": "[simulate]\nschedule = empty.txt\n"}
    text = bases.get(config) or bundled(config)
    if f"[{section}]" not in text:
        text += f"[{section}]\n"
    cfg = write(tmp_path / "bad.cfg", set_value(text, section, key, "1"))
    command = "adiabatic" if config.endswith(".cfg") else config
    argv = STEPS_3 if command == "adiabatic" else []
    code = main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "out"), *argv])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("uqsim: ") and key in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()
    if config in bases:  # without the key it runs; a section uqsim does not read takes any key
        cfg = write(tmp_path / "good.cfg", "[notes]\nanything = 1\n" + bases[config])
        assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("file_text, extra, named", [
    ("platform uqs2\ngamma 1.0\ngama 5.0\npositions\n0\n1\n", "", "gama"),
    ("platform uqs1\nsites 2\nkappa 2.0\n", "", "kappa"),
    ("platform uqs2\npositions\n0\n1\n", "gamma = 2.0\n", "gamma"),
])
def test_hardware_file_keys_are_checked(tmp_path, capsys, file_text, extra, named):
    write(tmp_path / "zz.ham", "1.0 Z Z\n")
    write(tmp_path / "hw.txt", file_text)
    cfg = write(tmp_path / "c.cfg", f"[hardware]\nfile = hw.txt\n{extra}"
                "[compile]\nhamiltonian = zz.ham\nt_prime = 1.0\n")
    assert main(["compile", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("uqsim: ") and named in err and "Traceback" not in err


# Per platform: a description that compiles CHAIN4, and per hardware key another value.
# The uqs1 base gives its sites by its shape, so a sites line beside it is refused.
HARDWARE_CHANGES = {
    "uqs1": ("shape = 4\nboundary = open\navailable_j = all\ngamma = 1.0\n",
             {"sites": "4", "shape": "2 2", "boundary": "periodic", "available_j": "1",
              "gamma": "2.0"}),
    "uqs2": ("gamma = 1.0\ncrosstalk_threshold = 0.001\npositions = 0 ; 1 ; 2 ; 3\n",
             {"gamma": "2.0", "crosstalk_threshold": "0.5", "positions": "0 ; 1 ; 2 ; 3.5"}),
}
CHAIN4 = ("0.5 Z Z I I\n0.5 I Z Z I\n0.5 I I Z Z\n0.3 Z I Z I\n0.3 I Z I Z\n"
          "0.2 X I I I\n0.2 I X I I\n0.2 I I X I\n0.2 I I I X\n")


@pytest.mark.parametrize("platform, key", [(platform, key) for platform, keys in HARDWARE_KEYS.items()
                                           for key in keys.split()])
def test_every_hardware_key_changes_the_outputs_or_is_refused(tmp_path, platform, key):
    base, changed = HARDWARE_CHANGES[platform]
    write(tmp_path / "h.ham", CHAIN4)

    def outcome(description, name):
        """Per command its exit code and the bytes of its outputs but the manifest."""
        cfg = write(tmp_path / f"{name}.cfg", f"[hardware]\nplatform = {platform}\n{description}"
                    "[compile]\nhamiltonian = h.ham\n[crosstalk]\ngroups = 0 1 ; 2 3\n")
        result = {}
        for command in ("compile", "crosstalk"):
            out = tmp_path / name / command
            code = main([command, "--config", str(cfg), "--out-dir", str(out)])
            result[command] = code, sorted((f.name, f.read_bytes()) for f in out.glob("*")
                                           if f.name != "manifest.json")
        return result

    before = outcome(base, "base")
    assert before["compile"][0] == 0
    assert (before["crosstalk"][0] == 0) == (platform == "uqs2")  # crosstalk needs uqs2
    # the key's line replaced, or one added where the base has none
    changed_base = (set_value(base, "hardware", key, changed[key]) if f"{key} =" in base
                    else f"{base}{key} = {changed[key]}\n")
    assert outcome(changed_base, "changed") != before


@pytest.mark.parametrize("command, flag, value", [
    (command, flag, "csv" if flag == "--format" else "1")
    for command, flags in (("compile", ("--seed", "--jobs", "--format")),
                           ("cost", ("--seed", "--jobs", "--format")),
                           ("crosstalk", ("--seed", "--jobs", "--format")),
                           ("simulate", ("--format",)))
    for flag in flags
])
def test_a_subcommand_rejects_flags_it_does_not_read(command, flag, value):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command, "--config", "x.cfg", flag, value])
    assert exc.value.code == 1


@pytest.mark.parametrize("command", ["adiabatic", "simulate"])
@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_below_one_is_rejected_naming_the_flag(capsys, command, jobs):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", "x.cfg", "--jobs", jobs])
    assert exc.value.code == 1
    assert "--jobs" in capsys.readouterr().err
    # the value the benchmark passes stays valid
    assert build_parser().parse_args([command, "--config", "x.cfg", "--jobs", "1"]).jobs == 1


@pytest.mark.parametrize("command", sorted(CONFIG_BASES))
def test_unseeded_commands_record_no_seed(tmp_path, command):
    write(tmp_path / "zz.ham", "1.0 Z Z\n")
    cfg = write(tmp_path / "c.cfg", CONFIG_BASES[command])
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert json.loads((out / "manifest.json").read_text())["seed"] is None


def test_svg_escapes_text():
    text = svg.line_plot([("x>0", [0.0, 1.0], [0.0, 1.0])], title="a&b<c>d")
    assert "a&amp;b&lt;c&gt;d" in text
    texts = [t.text for t in ET.fromstring(text).iter("{http://www.w3.org/2000/svg}text")]
    assert "a&b<c>d" in texts and "x>0" in texts


def benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name, workload", sorted(benchmark_workloads().items()))
def test_benchmark_argv_parses(name, workload):
    # the benchmark drives these exact argument lists; a dropped flag would fail every run
    for seed in (1, 2):
        for argv in workload.commands(seed):
            build_parser().parse_args(argv)


@pytest.mark.parametrize("name", ["fig4a", "fig5"])
def test_bundled_run_keeps_the_benchmark_ground_weight(tmp_path, name):
    # the benchmark's seed-1 pin: a start state in another sector fails here first
    workload = benchmark_workloads()[name]
    out = tmp_path / "out"
    assert main(["adiabatic", "--config", workload.config, "--seed", "1", "--jobs", "1",
                 "--out-dir", str(out)]) == 0
    weight = json.loads((out / "summary.json").read_text())["ground_weight"]
    assert abs(weight - workload.expected) <= 1e-9, (weight, workload.expected)


GUARD = settings(max_examples=24, suppress_health_check=[HealthCheck.too_slow])
GUARD_VALUES = st.sampled_from([
    "", "abc", "0", "1", "2", "3", "-1", "0.5", "1.5", "-0.1", "1e-9", "1e999", "nan", "inf",
    "-inf", "0 0.01", "2 3", "chain:3", "chain:2", "chain:x", "grid:2x2", "grid:1x3", "uqs1", "uqs2",
    "open", "periodic", "all", "1 2", "dipole", "heisenberg", "ising", "random_ising", "xx_chain",
    "zz_chain", "linear", "cosine", "file:missing.ham", "file:.", "file:bad.ham", "0 ; 1 ; 2",
])
GUARD_SWEEP = {"etas": "0 0.01", "steps_list": "2", "repetitions": "2"}


def bundled_lines(name: str) -> list[str]:
    """A bundled config's lines with its [sweep] narrowed to 2 steps and 2 runs."""
    text = bundled(name)
    for key, value in GUARD_SWEEP.items():
        if re.search(rf"(?m)^{key}\s*=", text):
            text = with_value(text, key, value)
    return text.splitlines()


@GUARD
@given(config=st.sampled_from(["fig4a.cfg", "fig4b.cfg"]), data=st.data())
def test_mutated_bundled_configs_never_raise(config, data):
    # every outcome is a documented exit code with a one-line message, never a traceback
    lines = bundled_lines(config)
    keyed = [i for i, line in enumerate(lines) if "=" in line and not line.startswith("#")]
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.sampled_from(keyed))
        lines[i] = f"{lines[i].split('=')[0].strip()} = {data.draw(GUARD_VALUES)}"
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write(work / "bad.ham", "# hamiltonian n_qubits=3\n1.0 Z Z\n")
        cfg = write(work / "c.cfg", "\n".join(lines) + "\n")
        err, out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = main(["adiabatic", "--config", str(cfg), "--out-dir", str(work / "out"),
                         "--steps", "2", "--jobs", "1"])
    assert code in (0, 1, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    assert code == 0 or err.getvalue().startswith("uqsim: ")


TRAP_EXTREMES = st.sampled_from(["nan", "inf", "-inf", "-1", "0.5", "1e100", "-1e100", "1e200",
                                 "abc", "1 2"])


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(2, 5), data=st.data())
def test_crosstalk_never_raises_nor_writes_non_finite(n, data):
    # traps with non-finite, coincident or far-apart positions, any threshold,
    # and up to 2 disjoint groups, one ion of which may be negative or past the array
    positions = [str(i) for i in range(n)]
    for _ in range(data.draw(st.integers(0, 1))):
        positions[data.draw(st.integers(0, n - 1))] = data.draw(TRAP_EXTREMES)
    threshold = data.draw(st.sampled_from(["1e-3", "0.5", "0", "-1", "nan", "inf", "1e308"]))
    ions = data.draw(st.permutations(range(n)))[:data.draw(st.integers(2, n))]
    for _ in range(data.draw(st.integers(0, 1))):
        ions[data.draw(st.integers(0, len(ions) - 1))] = data.draw(st.sampled_from([-2, -1, n, 9]))
    cut = data.draw(st.sampled_from([len(ions), *range(2, len(ions) - 1)]))
    groups = " ; ".join(" ".join(map(str, g)) for g in (ions[:cut], ions[cut:]) if g)
    text = (f"[hardware]\nplatform = uqs2\npositions = {' ; '.join(positions)}\n"
            f"crosstalk_threshold = {threshold}\n[crosstalk]\ngroups = {groups}\n")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write(Path(tmp) / "c.cfg", text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["crosstalk", "--config", str(cfg), "--out-dir", str(Path(tmp) / "out")])
        report = Path(tmp) / "out" / "crosstalk.txt"
        written = report.read_text().lower() if code == 0 else ""
    assert code in (0, 1), err.getvalue()
    assert "nan" not in written and "inf" not in written, written


EMPTY_SCHEDULE = "# pulse schedule version=1 n_qubits=2\n"
ADIABATIC_3 = ("[hardware]\nplatform = uqs1\nsites = 3\navailable_j = all\ngamma = 1.0\n"
               "[model]\nname = dipole\ngeometry = chain:3\n[adiabatic]\nsteps = 2\n")
# per input: (the config text, the file names holding it and other inputs, the command)
NON_UTF8_INPUTS = {
    "config": ("[compile]\n# \xff\n", "c.cfg", {}, "compile"),
    "schedule": ("[simulate]\nschedule = s.txt\n", "s.txt", {}, "simulate"),
    "hamiltonian": ("[compile]\nhamiltonian = h.ham\n" + UQS2_2, "h.ham", {}, "compile"),
    "oracle_hamiltonian": ("[simulate]\nschedule = s.txt\noracle_hamiltonian = h.ham\n", "h.ham",
                           {"s.txt": EMPTY_SCHEDULE}, "simulate"),
    "initial": ("[simulate]\nschedule = s.txt\ninitial = file:state.txt\n", "state.txt",
                {"s.txt": EMPTY_SCHEDULE}, "simulate"),
    "adiabatic initial": (ADIABATIC_3 + "initial = file:h.ham\n", "h.ham", {}, "adiabatic"),
}


@pytest.mark.parametrize("which", sorted(NON_UTF8_INPUTS))
def test_non_utf8_input_exits_1_naming_the_file(tmp_path, capsys, which):
    config, bad, others, command = NON_UTF8_INPUTS[which]
    for name, text in others.items():
        write(tmp_path / name, text)
    (tmp_path / "c.cfg").write_bytes(config.encode("latin-1"))
    if bad != "c.cfg":
        (tmp_path / bad).write_bytes(b"# \xff\n1.0 Z Z I\n")
    argv = [command, "--config", str(tmp_path / "c.cfg"), "--out-dir", str(tmp_path / "out")]
    assert main(argv + (["--oracle"] if which == "oracle_hamiltonian" else [])) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and bad in err and err.startswith("uqsim: ")


@pytest.mark.parametrize("line, named", [
    ("eta_local = 0.5", "eta_local"),
    ("eta_int = 0.9", "eta_int"),
    ("record_every = 7", "record_every"),
    ("eta_local = 0.5\neta_int = 0.9\nrecord_every = 7", "eta_local, eta_int, record_every"),
])
def test_adiabatic_key_a_sweep_ignores_exits_1_naming_it(tmp_path, capsys, line, named):
    cfg = write(tmp_path / "c.cfg", ADIABATIC_3 + f"seed = 1\n{line}\n[sweep]\n"
                "etas = 0 0.02\nsteps_list = 2\nrepetitions = 2\n")
    out = tmp_path / "out"
    assert main(["adiabatic", "--config", str(cfg), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"uqsim: [adiabatic] {named} does nothing with [sweep]")
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("line, named", [
    ("j_range = -1 1\nseed = 4", "dipole takes no j_range, seed"),
    ("b_values = 0.1 0.2 0.3", "dipole takes no b_values"),
    ("j_values = 0-1:1.0", "dipole takes no j_values"),
    # NamedModel's own check, past the table's: three finite values, not of unit length
    ("b = 0.5\ndirection = 3 0 0", "direction (3.0, 0.0, 0.0) is not"),
])
def test_random_ising_key_on_another_model_exits_1(tmp_path, capsys, line, named):
    cfg = write(tmp_path / "c.cfg", ADIABATIC_3.replace("[adiabatic]", f"{line}\n[adiabatic]"))
    out = tmp_path / "out"
    assert main(["adiabatic", "--config", str(cfg), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"uqsim: [model] {named} ") and "Traceback" not in err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("key", ["etas", "steps_list"])
def test_empty_sweep_list_exits_1_naming_the_key(tmp_path, capsys, key):
    sweep = {"etas": "0 0.02", "steps_list": "5", "repetitions": "2"}
    sweep[key] = ""
    cfg = write(tmp_path / "c.cfg", ADIABATIC_3 + "seed = 1\n[sweep]\n"
                + "".join(f"{k} = {v}\n" for k, v in sweep.items()))
    out = tmp_path / "out"
    assert main(["adiabatic", "--config", str(cfg), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err
    assert not (out / "sweep.csv").exists()
