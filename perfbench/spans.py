"""In-memory span recorder for the served cycle, and its per-layer analysis.

The recorder lives inside the ``repro serve`` process (see ``launch.py``):
it replaces the public entry points of each layer with thin wrappers that
append one span ``(id, name, start, end, parent, session, attrs)`` per call
and writes them all out when the server exits.  Nothing under ``src/`` is
edited and the wrappers only observe.

* Synchronous layers (decode, fold, commit, WAL, release phases, budget)
  get one span per call.  They cannot interleave on the event-loop thread,
  so the parent is the innermost open span.
* A client session is one ``session`` span per ``Session.run``.  Its
  ``busy`` attribute is the time the session's coroutines actually ran on
  the loop: every step of ``Session.run`` and of the ``FrameChannel`` reads
  it hands to ``asyncio.wait_for`` (those run as separate tasks), found
  through a context variable that child tasks inherit.  Time spent waiting
  for the peer is not busy time.  ``busy`` is wall time, like the child
  spans it is compared with; ``busy_cpu`` is the same steps on the thread's
  CPU clock, which is what the server's CPU time is compared with.
* Self time is a span's duration (for a session: its busy time) minus the
  durations of its direct children.

All clocks are ``time.monotonic``, which is system-wide, so the benchmark's
client process can cut the spans to its own timed window.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import time
from collections import defaultdict
from typing import Dict, Iterable, List

import numpy as np

clock = time.monotonic

#: Session id of the code currently running (None outside sessions).
SESSION: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_session", default=None)

ID, NAME, START, END, PARENT, SID, ATTRS = range(7)


class Recorder:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.busy: Dict[int, List[float]] = {}
        self.in_step = False
        self._next = 0

    def new_id(self) -> int:
        self._next += 1
        return self._next

    def dump(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))
        os.replace(tmp, path)


class _StepTimed:
    """Await a coroutine, adding the wall and thread CPU time its steps run
    to ``cell[0]`` and ``cell[1]``.

    Steps that run inside another timed step (a coroutine awaited directly
    rather than through a task) are already counted and are skipped.
    """

    __slots__ = ("_coro", "_cell", "_recorder")

    def __init__(self, coro, cell: List[float], recorder: Recorder) -> None:
        self._coro, self._cell, self._recorder = coro, cell, recorder

    def __await__(self):
        coro, cell, recorder = self._coro, self._cell, self._recorder
        value, error = None, None
        while True:
            nested = recorder.in_step
            recorder.in_step = True
            start, cpu = clock(), time.thread_time()
            try:
                signal = coro.send(value) if error is None else coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                if not nested:
                    cell[0] += clock() - start
                    cell[1] += time.thread_time() - cpu
                recorder.in_step = nested
            try:
                value, error = (yield signal), None
            except BaseException as exc:  # cancellation must reach the coroutine
                value, error = None, exc


def _wrap_sync(recorder: Recorder, name: str, fn, attrs=None):
    spans, stack = recorder.spans, recorder.stack

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_id = recorder.new_id()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        result = None
        start = clock()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = clock()
            stack.pop()
            spans.append([span_id, name, start, end, parent, SESSION.get(),
                          attrs(args, result) if attrs else None])

    return wrapper


def _patch(owner, attr: str, recorder: Recorder, name: str, attrs=None) -> None:
    setattr(owner, attr, _wrap_sync(recorder, name, getattr(owner, attr), attrs))


def install_tracing(recorder: Recorder) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    from repro.api import framing
    from repro.core import gshm
    from repro.net import budget, protocol, server, session, store, wal

    merger = framing.StreamingMerger
    binary = bytes([framing.BINARY_FRAME_TAG])
    _patch(framing, "decode_payload_body", recorder, "decode",
           lambda args, result: {"binary": args[0][:1] == binary})
    _patch(merger, "add", recorder, "fold",
           lambda args, result: {"columnar": args[0].columnar})
    _patch(merger, "release", recorder, "noise")
    _patch(server.AggregatorServer, "commit", recorder, "commit")
    _patch(server.AggregatorServer, "perform_release", recorder, "release")
    _patch(server, "combine_mergers", recorder, "combine",
           lambda args, result: {"parts": len(args[0])})
    _patch(server, "encode_histogram", recorder, "encode")
    _patch(gshm, "calibrate_gshm", recorder, "calibrate")
    _patch(budget.BudgetAccountant, "charge", recorder, "budget.charge")
    _patch(wal.SessionJournal, "append", recorder, "wal.append")
    _patch(wal.SessionJournal, "commit", recorder, "wal.commit")
    _patch(wal.SessionJournal, "mark_committed", recorder, "wal.mark")
    _patch(wal.SessionWal, "recover", recorder, "recovery")
    _patch(store.SqliteCheckpointStore, "put", recorder, "wal.put")
    _patch(os, "fsync", recorder, "wal.fsync")

    original_run = session.Session.run

    async def run(self):
        sid = recorder.new_id()
        SESSION.set(sid)
        cell = recorder.busy[sid] = [0.0, 0.0]
        start = clock()
        try:
            return await _StepTimed(original_run(self), cell, recorder)
        finally:
            del recorder.busy[sid]
            recorder.spans.append([sid, "session", start, clock(), None, sid,
                                   {"busy": cell[0], "busy_cpu": cell[1]}])

    session.Session.run = run

    def timed_read(fn):
        async def timed(coro, cell):
            return await _StepTimed(coro, cell, recorder)

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            cell = recorder.busy.get(SESSION.get())
            coro = fn(self, *args, **kwargs)
            return coro if cell is None else timed(coro, cell)

        return wrapper

    channel = protocol.FrameChannel
    channel.next_event = timed_read(channel.next_event)
    channel.read_prefix = timed_read(channel.read_prefix)


# ---------------------------------------------------------------------------
# Analysis (runs in the benchmark's client process)
# ---------------------------------------------------------------------------

def load(path: str) -> List[list]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _p50(values: Iterable[float]) -> float:
    values = list(values)
    return float(np.median(values)) if values else 0.0


class Trace:
    """Spans of one server process, cut to the client's timed window."""

    def __init__(self, spans: List[list], window=None) -> None:
        lo, hi = window if window is not None else (float("-inf"), float("inf"))
        sessions = {span[SID]: span for span in spans
                    if span[NAME] == "session" and lo <= span[START] <= hi}
        self.spans = [span for span in spans if span[SID] in sessions
                      and span[NAME] != "session"]
        self.sessions = sessions
        self.by_name: Dict[str, List[list]] = defaultdict(list)
        self.children: Dict[int, float] = defaultdict(float)
        self.session_children: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            self.by_name[span[NAME]].append(span)
            duration = span[END] - span[START]
            if span[PARENT] is not None:
                self.children[span[PARENT]] += duration
            else:
                self.session_children[span[SID]] += duration
        self.push_sessions = {span[SID] for span in self.by_name["fold"]}

    def durations(self, name: str) -> List[float]:
        return [span[END] - span[START] for span in self.by_name[name]]

    def self_times(self, name: str) -> List[float]:
        return [span[END] - span[START] - self.children[span[ID]]
                for span in self.by_name[name]]

    def session_self(self) -> List[float]:
        return [self.sessions[sid][ATTRS]["busy"] - self.session_children[sid]
                for sid in self.push_sessions]

    def busy_cpu_total(self) -> float:
        return sum(span[ATTRS]["busy_cpu"] for span in self.sessions.values())

    def per_push_session(self, name: str) -> float:
        if not self.push_sessions:
            return 0.0
        counts = defaultdict(int)
        for span in self.by_name[name]:
            counts[span[SID]] += 1
        return float(np.mean([counts[sid] for sid in self.push_sessions]))

    def frac(self, name: str, attr: str) -> float:
        spans = self.by_name[name]
        return sum(bool(span[ATTRS][attr]) for span in spans) / len(spans) \
            if spans else 0.0

    def layer_metrics(self) -> Dict[str, float]:
        ms, us = 1e3, 1e6
        return {
            "session.self_us_p50": _p50(self.session_self()) * us,
            "decode.calls": float(len(self.by_name["decode"])),
            "decode.us_p50": _p50(self.durations("decode")) * us,
            "decode.binary_frac": self.frac("decode", "binary"),
            "fold.calls": float(len(self.by_name["fold"])),
            "fold.us_p50": _p50(self.durations("fold")) * us,
            "fold.busy_s": float(sum(self.durations("fold"))),
            "fold.columnar_frac": self.frac("fold", "columnar"),
            "commit.us_p50": _p50(self.self_times("commit")) * us,
            "wal.append_us_p50": _p50(self.durations("wal.append")) * us,
            "wal.commit_us_p50": _p50(self.durations("wal.commit")) * us,
            "wal.mark_us_p50": _p50(self.durations("wal.mark")) * us,
            "wal.fsyncs_per_session": self.per_push_session("wal.fsync"),
            "wal.ledger_puts_per_session": self.per_push_session("wal.put"),
            "release.self_ms_p50": _p50(self.self_times("release")) * ms,
            "release.parts_p50": _p50(span[ATTRS]["parts"]
                                      for span in self.by_name["combine"]),
            "combine.ms_p50": _p50(self.durations("combine")) * ms,
            "calibrate.ms_p50": _p50(self.durations("calibrate")) * ms,
            "noise.ms_p50": _p50(self.self_times("noise")) * ms,
            "encode.ms_p50": _p50(self.durations("encode")) * ms,
            "budget.charge_us_p50": _p50(self.durations("budget.charge")) * us,
        }


def recovery_seconds(spans: List[list]) -> List[float]:
    return [span[END] - span[START] for span in spans if span[NAME] == "recovery"]
