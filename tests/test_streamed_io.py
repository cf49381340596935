"""The two large text files, schedule.txt and execution_log.txt, are written
and read in pieces: OutputWriter.write_chunks hashes what it streams, the
line reader splits a file as str.splitlines splits its whole text, and
neither path holds a whole file in memory."""
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from uqsim.cli import OutputWriter, _lines, _read_input, main
from uqsim.compiler import (
    MAX_INSTRUCTIONS,
    CompileError,
    schedule_from_lines,
    schedule_from_text,
    schedule_text_chunks,
    schedule_to_text,
    trotter_schedule,
)
from uqsim.engine import ErrorModel, StateVector, run_schedule
from uqsim.hardware import TrapArrayModel
from uqsim.pauli import Hamiltonian

TARGET = "# hamiltonian n_qubits=3\n-0.4 Z Z I\n-0.6 I Z Z\n0.3 X I I\n0.5 I X I\n0.2 I I X\n"
UQS2_3 = "[hardware]\nplatform = uqs2\ngamma = 1.0\npositions = 0 ; 1 ; 2\n"
GATE = "GATE zz 0.25 0-1:1.0"
BAD = "GATE zz 0.25 0-1:oops"
ONE = "1.0 0.0 0.0 0.0 0.0 0.0 1.0 0.0"
HEAD = "# pulse schedule version=1 n_qubits=2"
HEAD2 = "# pulse schedule version=2 n_qubits=2"


def outcome(parse):
    """What a parse gives: the schedule's text and header fields, or the error."""
    try:
        sched = parse()
    except CompileError as exc:
        return "error", str(exc)
    return schedule_to_text(sched), sched.cycle_length, sched.num_cycles


READER_CASES = {
    "blank lines": f"\n{HEAD}\n\n{GATE}\n   \n{GATE}\n\n",
    "crlf": f"{HEAD} cycles=2 cycle_length=1\r\n{GATE}\r\n{GATE}\r\n",
    "lone cr": f"{HEAD}\r{GATE}\r\r{BAD}\r",
    "form feed inside a line": f"{HEAD}\n{GATE}\nGATE zz 0.25\x0c0-1:1.0\n",
    "form feed in the header": f"# pulse\x0cschedule n_qubits=2\n{GATE}\n",
    "other line breaks": f"{HEAD}\x1c{GATE}\x85{GATE} LOCAL H {ONE} {GATE}\x0b",
    "no final newline": f"{HEAD}\n{GATE}\nLOCAL H {ONE}",
    "no final newline, bad": f"{HEAD}\n{GATE}\n{BAD}",
    "repeated bad line": f"{HEAD}\n{GATE}\n\n{BAD}\n{GATE}\n{BAD}\n",
    "repeated out-of-range gate": f"{GATE}\r\nGATE zz 0.25 0-5:1.0\r\n{GATE}\r\n"
                                  f"GATE zz 0.25 0-5:1.0\r\n{HEAD}\r\n",
    "bad header count": f"\r\n{HEAD} cycles=3 cycle_length=1\r\n{GATE}\r\n",
    "version 2": f"{HEAD2} cycles=3 cycle_length=2\r\n{GATE}\n\nLOCAL H {ONE}",
    "version 2, wrong body count": f"{HEAD2} cycles=3 cycle_length=2\n{GATE}\n",
    "version 2, no cycle_length": f"{HEAD2} cycles=3\n{GATE}\n",
    "version 3": f"{HEAD2.replace('version=2', 'version=3')} cycles=1 cycle_length=1\n{GATE}\n",
    "version 2, cycles=10**18": f"{HEAD2} cycles={10**18} cycle_length=1\n{GATE}\n",
    "version 2, over the bound": f"{HEAD2} cycles={MAX_INSTRUCTIONS} cycle_length=2\n{GATE}\n{GATE}\n",
}


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_streamed_reader_matches_schedule_from_text(tmp_path, case):
    text = READER_CASES[case]
    path = tmp_path / "s.txt"
    path.write_bytes(text.encode())
    expected = outcome(lambda: schedule_from_text(text))
    # batches of one line and more
    for size in (1, 2, 3, 7, 1 << 16):
        with open(path, encoding="utf-8", newline="") as fh:
            assert list(_lines(fh, size)) == text.splitlines(keepends=True), size
    assert outcome(lambda: _read_input(path, schedule_from_lines)) == expected
    if expected[0] == "error":
        assert "line" in expected[1]
        if "version" in case:
            assert "at line 1:" in expected[1]


def test_streamed_reader_keeps_first_occurrence_line_numbers(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text(READER_CASES["repeated bad line"])
    with pytest.raises(CompileError, match="at line 4:"):
        _read_input(path, schedule_from_lines)


def compile_and_simulate(tmp_path, extra=""):
    (tmp_path / "target.ham").write_text(TARGET)
    (tmp_path / "compile.cfg").write_text(
        UQS2_3 + "[compile]\nhamiltonian = target.ham\nt_prime = 1.0\nepsilon = 0.05\n")
    (tmp_path / "simulate.cfg").write_text(
        "[simulate]\nschedule = compiled/schedule.txt\noracle_hamiltonian = target.ham\n"
        "eta_local = 0.002\neta_int = 0.001\nobservables = Z0, X1\n" + extra)
    compiled, simulated = tmp_path / "compiled", tmp_path / "simulated"
    assert main(["compile", "--config", str(tmp_path / "compile.cfg"),
                 "--out-dir", str(compiled)]) == 0
    assert main(["simulate", "--config", str(tmp_path / "simulate.cfg"), "--seed", "5",
                 "--oracle", "--out-dir", str(simulated)]) == 0
    return compiled, simulated


def test_written_files_match_manifest_and_formatters(tmp_path, capsys):
    compiled, simulated = compile_and_simulate(tmp_path)
    for out in (compiled, simulated):
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
        assert outputs and sorted(outputs) == sorted(
            p.name for p in out.iterdir() if p.name != "manifest.json")
        for name, digest in outputs.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    schedule, _ = trotter_schedule(Hamiltonian.from_text(TARGET), 1.0, 0.05,
                                   TrapArrayModel(positions=((0.0,), (1.0,), (2.0,))))
    assert (compiled / "schedule.txt").read_text() == schedule_to_text(schedule)
    _, log = run_schedule(StateVector.zero_state(3), schedule, ErrorModel(0.002, 0.001, seed=5))
    assert (simulated / "execution_log.txt").read_text() == log.to_text()


SIMULATE_AND_LIST_NUMPY_MA = """
import sys
from uqsim.cli import main
code = main(["simulate", "--config", "simulate.cfg", "--seed", "5", "--oracle",
             "--out-dir", "fresh"])
print(code, "numpy.ma" in sys.modules)
"""


def test_a_logged_run_does_not_import_numpy_ma(tmp_path):
    # np.union1d goes through np.unique, which imports numpy.ma (about 13 ms)
    compile_and_simulate(tmp_path)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", SIMULATE_AND_LIST_NUMPY_MA], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 False"
    assert (tmp_path / "fresh" / "execution_log.txt").read_bytes() == (
        tmp_path / "simulated" / "execution_log.txt").read_bytes()


def test_a_stream_that_raises_leaves_no_file(tmp_path):
    writer = OutputWriter(tmp_path)

    def chunks():
        yield "first piece\n" * 1000
        raise RuntimeError("formatter failed")

    with pytest.raises(RuntimeError, match="formatter failed"):
        writer.write_chunks("execution_log.txt", chunks())
    assert not (tmp_path / "execution_log.txt").exists()
    assert "execution_log.txt" not in writer.files
    assert writer.write_chunks("ok.txt", iter(["a\n", "é\n"])).read_bytes() == "a\né\n".encode()
    assert writer.files["ok.txt"] == hashlib.sha256("a\né\n".encode()).hexdigest()


def test_the_writer_holds_no_chunk_while_the_next_is_built(tmp_path):
    # each chunk and its bytes go once written, so equal chunks peak at about
    # one chunk and its bytes, not also the previous chunk's pair
    size = 1 << 20
    chunks = ("x" * size for _ in range(4))
    writer = OutputWriter(tmp_path)
    assert traced_peak(lambda: writer.write_chunks("equal.txt", chunks)) < 2.5 * size
    assert (tmp_path / "equal.txt").stat().st_size == 4 * size


def test_non_utf8_byte_deep_in_a_schedule_exits_1_naming_the_file(tmp_path, capsys):
    body = f"{HEAD}\n" + f"{GATE}\n" * 5000
    assert len(body) > 1 << 16
    (tmp_path / "s.txt").write_bytes(body.encode() + b"GATE zz \xff 0-1:1.0\n" + b"GATE\n")
    (tmp_path / "c.cfg").write_text("[simulate]\nschedule = s.txt\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(tmp_path / "c.cfg"), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("uqsim: [simulate] schedule = 's.txt': 'utf-8' codec can't decode")
    assert "Traceback" not in err and not (out / "state.txt").exists()


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_paths_hold_neither_file_whole(tmp_path):
    # a streamed peak is about one piece (a line of the log and a recorded
    # pass), so it does not grow with the file; 42,000 instructions keep both files
    # well above twice that; written as version=1, every line out
    schedule, _ = trotter_schedule(Hamiltonian.from_text(TARGET), 1.0, 0.05,
                                   TrapArrayModel(positions=((0.0,), (1.0,), (2.0,))),
                                   num_cycles=6000)
    schedule = dataclasses.replace(schedule, cycle_length=None, num_cycles=None)
    assert len(schedule.instructions) >= 20_000
    writer = OutputWriter(tmp_path)
    path = writer.write_chunks("schedule.txt", schedule_text_chunks(schedule))
    size = path.stat().st_size
    parsed = []
    assert traced_peak(lambda: parsed.append(_read_input(path, schedule_from_lines))) < size / 2
    assert len(parsed[0].instructions) == len(schedule.instructions)
    # the whole-string parse holds the text at least once
    assert traced_peak(lambda: schedule_from_text(_read_input(path))) > size

    # gate jitter only: a local line's draws would slow the traced write
    _, log = run_schedule(StateVector.zero_state(3), parsed[0], ErrorModel(0.0, 0.001, seed=1))
    peak = traced_peak(lambda: writer.write_chunks("execution_log.txt", log.text_chunks()))
    assert peak < (tmp_path / "execution_log.txt").stat().st_size / 2
