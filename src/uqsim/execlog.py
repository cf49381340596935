"""The execution log: the jitter draws of a run that reach the state,
written exactly, read back, and handed out again to replay the run.

uqsim.engine records one ExecutionLog per run_schedule call and replays
a run from one through LogDraws (run_schedule(..., replay=log), `uqsim
simulate --replay LOG`). This module holds the log's text format:
version 2, which ExecutionLog writes, and version 1, which it still
reads. A log that is malformed, or that does not fit the run it replays,
raises LogFormatError (uqsim.errors), which the command line maps to
exit 1.
"""
from __future__ import annotations

import base64
import math
import re

import numpy as np

from .errors import EngineError, LogFormatError

RNG_ALGORITHM = "numpy-PCG64"
_LOG_HEADER = re.compile(r"# execution log rng=(\S+) seed=(None|\d+)(?: version=(\d+))?")
_LOG_VERSION = 2
_LOG_LINE = 1024           # instructions per version-2 line, the last line fewer
_GATE = 0x8000             # a log code: bits 14-15 the kind (0 local, 0x8000 gate),
_UNKNOWN = 0x4000          # a kind bit that no kind sets,
_COUNT = 0x3fff            # bits 0-13 the logged count
_LOG_KINDS = {"local": 0, "gate": _GATE}


def log_codes(kinds, sizes) -> np.ndarray:
    """The log codes (uint16) of instructions of `kinds` ("local" or "gate")
    with `sizes` logged draws each."""
    sizes = np.asarray(sizes, dtype=np.intp).reshape(-1)
    if sizes.size and not 0 <= sizes.min() <= sizes.max() <= _COUNT:
        raise EngineError(f"an execution log holds at most {_COUNT} draws per instruction")
    kinds = np.fromiter(map(_LOG_KINDS.__getitem__, kinds), np.uint16, sizes.size)
    return kinds | sizes.astype(np.uint16)


def _b64(a: np.ndarray) -> str:
    """The bytes of a contiguous little-endian array as base64, "-" for none."""
    return base64.b64encode(a.data).decode("ascii") if a.size else "-"


def _unb64(field: str, dtype: str, what: str) -> np.ndarray:
    """The array of `dtype` whose bytes a base64 field holds ("-": none)."""
    if field == "-":
        return np.empty(0, dtype)
    try:
        data = base64.b64decode(field, validate=True)
    except ValueError as exc:  # binascii.Error: bad characters or padding
        raise LogFormatError(f"{what}: bad base64 ({exc})") from exc
    size = np.dtype(dtype).itemsize
    if len(data) % size:
        raise LogFormatError(f"{what}: {len(data)} bytes is not a whole number of "
                             f"{size}-byte values")
    return np.frombuffer(data, dtype=dtype)


class ExecutionLog:
    """The jitter draws that reach the state, enough to replay a run: a
    local layer's at its active qubits (engine.LoweredLayer.active), a
    gate's at its targets, each in order.

    Kept per pass of engine.FusedCycle.execute: each instruction's log code
    (log_codes: its kind in bits 14-15, its logged count in bits 0-13) and
    one float array of the pass's logged draws; `record` appends one pass,
    and instructions are numbered in the order they are recorded.

    The text (version 2) is the header line, then one line per _LOG_LINE
    instructions: the first one's index, their number, their codes as
    base64 of little-endian uint16 and their draws as base64 of
    little-endian float64 (`-` for none). It is exact, and its line breaks
    depend only on the instruction index, so the text depends only on the
    draws, not on how execution split them into passes. `text_chunks`
    yields it a line at a time, holding at most one line and one pass;
    `to_text` joins them. `from_text` reads it back, and version 1 too: a
    line per instruction, `index kind draws`, with draws a comma list of
    floats (%.17g or shortest repr). run_schedule(..., replay=log), and
    `uqsim simulate --replay`, take every draw from a log (LogDraws).
    """

    def __init__(self, rng_algorithm: str = RNG_ALGORITHM, seed: int | None = None):
        self.rng_algorithm, self.seed = rng_algorithm, seed
        self._passes: list[tuple[np.ndarray, np.ndarray]] = []

    def record(self, codes: np.ndarray, draws: np.ndarray):
        """The next len(codes) instructions: the i-th has the log code
        codes[i] and the next codes[i] & _COUNT values of the flat `draws`."""
        self._passes.append((codes, draws))

    def text_chunks(self):
        """The header line, then the version-2 lines one at a time."""
        yield f"# execution log rng={self.rng_algorithm} seed={self.seed} version={_LOG_VERSION}\n"
        # the open line: its first index, its instruction count and its pieces
        first, held, codes, draws = 0, 0, [], []
        for pass_codes, pass_draws in self._passes:
            starts = np.concatenate(([0], np.cumsum(pass_codes & _COUNT, dtype=np.intp)))
            at = 0
            while at < len(pass_codes):
                stop = min(len(pass_codes), at + _LOG_LINE - held)
                codes.append(pass_codes[at:stop])
                draws.append(pass_draws[starts[at]:starts[stop]])
                held, at = held + stop - at, stop
                if held == _LOG_LINE:
                    yield _log_line(first, codes, draws)
                    first, codes, draws, held = first + held, [], [], 0
        if held:
            yield _log_line(first, codes, draws)

    def to_text(self) -> str:
        return "".join(self.text_chunks())

    @staticmethod
    def from_text(text: str) -> "ExecutionLog":
        """Parse a log of version 2 (what to_text writes) or version 1 (no
        version field, or version=1). Anything else, a non-finite draw
        included, raises LogFormatError naming the line."""
        lines = text.splitlines()
        head = _LOG_HEADER.fullmatch(lines[0].strip()) if lines else None
        if head is None:
            raise LogFormatError("line 1: expected the header '# execution log rng=<name> "
                                 "seed=<non-negative int or None>' and optionally ' version=2'")
        try:
            seed = None if head.group(2) == "None" else int(head.group(2))
        except ValueError as exc:  # beyond int's digit limit
            raise LogFormatError("line 1: bad seed") from exc
        version = head.group(3) or "1"
        if version not in ("1", "2"):
            raise LogFormatError(f"line 1: version={version} is not 1 or 2")
        log = ExecutionLog(head.group(1), seed)
        read = _read_v2 if version == "2" else _read_v1
        for codes, draws in read(lines[1:]):
            log.record(codes, draws)
        return log


def _log_line(first: int, codes: list, draws: list) -> str:
    codes, draws = np.concatenate(codes), np.concatenate(draws)
    return (f"{first} {len(codes)} {_b64(codes.astype('<u2', copy=False))} "
            f"{_b64(draws.astype('<f8', copy=False))}\n")


def _read_v2(lines):
    """Per version-2 line its (codes, draws)."""
    first, last = 0, len(lines) + 1  # the last line's number
    for lineno, raw in enumerate(lines, start=2):
        where = f"line {lineno}"
        parts = raw.split()
        if len(parts) != 4:
            raise LogFormatError(f"{where}: expected 'index count codes draws'")
        index, count, codes, draws = parts
        if index != str(first):
            raise LogFormatError(f"{where}: expected index {first}, got {index!r}")
        n = int(count) if count.isascii() and count.isdigit() else -1
        if str(n) != count or not (n == _LOG_LINE or 1 <= n < _LOG_LINE and lineno == last):
            raise LogFormatError(f"{where}: a line holds {_LOG_LINE} instructions, the last "
                                 f"1 to {_LOG_LINE}; got {count!r}")
        codes = _unb64(codes, "<u2", f"{where}: codes").astype(np.uint16, copy=False)
        if len(codes) != n:
            raise LogFormatError(f"{where}: {len(codes)} codes for {n} instructions")
        if np.any(codes & _UNKNOWN):
            raise LogFormatError(f"{where}: a code with an unknown kind bit ({_UNKNOWN:#x})")
        want = int(np.sum(codes & _COUNT))
        draws = _unb64(draws, "<f8", f"{where}: draws").astype(float, copy=False)
        if len(draws) != want:
            raise LogFormatError(f"{where}: {len(draws)} draws, the codes count {want}")
        if not np.isfinite(draws).all():
            raise LogFormatError(f"{where}: non-finite draw")
        first += n
        yield codes, draws


def _read_v1(lines):
    """The (codes, draws) of all version-1 lines."""
    kinds, sizes, draws = [], [], []
    for lineno, raw in enumerate(lines, start=2):
        parts = raw.split()
        if len(parts) != 3:
            raise LogFormatError(f"line {lineno}: expected 'index kind draws'")
        index, kind, payload = parts
        if index != str(len(kinds)):
            raise LogFormatError(f"line {lineno}: expected index {len(kinds)}, got {index!r}")
        if kind not in _LOG_KINDS:
            raise LogFormatError(f"line {lineno}: kind {kind!r} is not local or gate")
        values = [] if payload == "-" else payload.split(",")
        try:
            values = [float(v) for v in values]
        except ValueError as exc:
            raise LogFormatError(f"line {lineno}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise LogFormatError(f"line {lineno}: non-finite draw")
        if len(values) > _COUNT:
            raise LogFormatError(f"line {lineno}: more than {_COUNT} draws")
        kinds.append(kind)
        sizes.append(len(values))
        draws.extend(values)
    if kinds:
        yield log_codes(kinds, sizes), np.array(draws, dtype=float)


class LogDraws:
    """A draw source that hands out a log's draws in order, for a batch of
    one. Each pass must ask for the log codes (kinds and logged counts)
    that the log holds for its instructions; `close` checks that the run
    used every one. A log that does not fit the run raises LogFormatError.
    """

    def __init__(self, log: ExecutionLog):
        passes = log._passes
        self.codes = (np.concatenate([c for c, _ in passes]) if passes
                      else np.empty(0, dtype=np.uint16))
        self.values = np.concatenate([d for _, d in passes]) if passes else np.empty(0)
        self.index = self.pos = 0

    def take(self, codes: np.ndarray) -> np.ndarray:
        """The next (1, sum of the codes' counts) draws."""
        stop = self.index + len(codes)
        if not np.array_equal(self.codes[self.index:stop], codes):
            raise LogFormatError(f"instructions {self.index}..{stop - 1} do not match the log")
        at, self.index = self.pos, stop
        self.pos += int(np.sum(codes & _COUNT))
        return self.values[None, at:self.pos]

    def close(self):
        if self.index != len(self.codes):
            raise LogFormatError(
                f"the log holds {len(self.codes)} instructions, the run {self.index}")
