"""Served-cycle benchmark: ``repro serve`` under closed-loop client lanes.

Run from the root of a checkout::

    python3 perfbench/run.py --workload bulk_exports --seed 1 --seconds 60 --trace 0

The server (``launch.py`` -> ``repro serve``) is pinned to one CPU and this
client process to another; it runs one closed-loop client lane per CPU over
a Unix socket.  A lane runs whole sessions back to back (connect -> HELLO
-> PUSH -> BYE commit ack), every session with a distinct ordinal.

A run is a series of *cycles* that fills about ``--seconds``.  A cycle is
one server lifetime: spawn (``setup_s``), untimed warm-up, then ``history``
timed sessions in ``PROBE_RELEASES`` equal segments, each ended by a timed
RELEASE once its sessions have committed (so every cycle probes the same
history sizes and the release stalls land inside the window).  A final
seeded RELEASE must then equal, bit for bit, the offline two-level fold
over the same exports and seed.  The server is then restarted on its state
(``recovery_s``): for ``durable_sessions`` that replays the WAL, and the
first release after the restart must equal the last one before it; without
a WAL it is a cold restart.

Every cycle does the same work, so each yields one sample of every
metric: its throughput, session p50, median probe release, mean of its
two spawns, median restart and peak RSS.  The run reports the median
over its cycles.  The session p90 is in the report line only: a steal
episode (below) stretches the tail of the sessions it lands in by whole
host time slices, which no scaling undoes.

Host speed.  The virtual CPUs of a shared host run the same code up to
1.5x faster or slower from one minute to the next (a fixed pure-Python
loop read 4.2-6.3 ms per pass in runs a few minutes apart), which moves
every timed figure of a whole run with it.  At each release probe, while
the server is idle and outside the timed window, the benchmark therefore
times a fixed reference kernel (``reference_s``) on the server's and the
client's CPU.  A cycle's *host speed* is the median over its probes of
``REFERENCE_NOMINAL_S`` over the kernel's time, and its timed figures are
scaled to a host of speed 1 (times multiplied by the speed, throughput
divided by it).  The kernel uses only the standard library and numpy,
never the program, so a change to the program moves the figures and not
the scale.  The host also runs other guests on these CPUs for episodes of minutes, taking
up to 40% of their time (the ``steal`` column of ``/proc/stat``); the
figures are further scaled to the share of the time the host ran the
CPUs they wait on (``Cycle.scaled``).  The raw figures, each cycle's
speed and its shares are in the report line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced cycle (``spans.py``) and prints the per-layer
metrics.  ``--quick`` runs one tiny cycle (``selftest.py``).  The last line
of stdout is the JSON result; the line before it is a JSON report with
the placement, environment, per-cycle samples, sample counts and the
failure fraction.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
RAM_DIR = os.path.join(BUILD, "ram")
RAM_ENV = "PERFBENCH_RAM_DIR"

#: Restarts per cycle (a cycle's ``recovery_s`` sample is their median; a
#: WAL restart replays the whole cycle).  Each cycle also spawns one bare
#: server before its own; its ``setup_s`` sample is the mean of the two.
RESTARTS = 2
#: RELEASEs probed in each cycle's timed window, spread over its history.
#: A shared virtual CPU can run at two speeds some 1.6x apart for seconds
#: at a time; probes sent back to back all land in one of them, which
#: makes the median of a run jump between the two.
PROBE_RELEASES = 8
#: Reference-kernel time on a host of speed 1 (about this host's median).
REFERENCE_NOMINAL_S = 0.006
READY_TIMEOUT_S = 60.0
STARTED = time.monotonic()


def metric_spec(section: str) -> Dict[str, Dict[str, str]]:
    """One metric list of ``BENCHMARK.json``, by metric name."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        return {metric["name"]: metric for metric in json.load(spec)[section]}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# Placement and environment
# ---------------------------------------------------------------------------

def placement() -> Dict[str, object]:
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) >= 2:
        clients, server = [cpus[0]], [cpus[1]]
        note = f"server on cpu {cpus[1]}, clients on cpu {cpus[0]}"
    else:
        clients = server = cpus
        note = f"server and clients share cpu {cpus[0]}"
    return {"client_cpus": clients, "server_cpus": server, "lanes": len(cpus),
            "note": note, "nproc": os.cpu_count(), "affinity": cpus}


def fs_type(path: str) -> str:
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/mounts", encoding="utf-8") as mounts:
        for line in mounts:
            fields = line.split()
            mount = fields[1]
            if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                    and len(mount) > len(best):
                best, kind = mount, fields[2]
    return kind


def ram_mounted() -> bool:
    return os.environ.get(RAM_ENV) == RAM_DIR


def with_ram_dir(argv: List[str]) -> int:
    """Re-run this benchmark with a tmpfs mounted on ``RAM_DIR``.

    The WAL of ``durable_sessions`` must sit on a RAM-backed directory:
    on the shared disk, three back-to-back runs read 463-693 sessions/s,
    and even with fsync skipped the spool and journal file creations
    stall on the disk's journal, so disk-backed figures do not compare.
    The tmpfs is mounted in a private mount namespace, so it lives inside
    the checkout, is seen only by this run and its servers, and disappears
    with them.  Returns the re-run's exit code; refuses the run when the
    mount cannot be made.
    """
    unshare = shutil.which("unshare")
    if unshare is None:
        return _fail("durable_sessions needs unshare(1) for its RAM-backed WAL dir")
    os.makedirs(RAM_DIR, exist_ok=True)
    mount = 'mount -t tmpfs -o size=1g perfbench "$0"'
    prefix = [unshare, "--user", "--map-root-user", "--mount", "sh", "-c"]
    try:
        probe = subprocess.run(prefix + [mount, RAM_DIR], timeout=30,
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True)
    except (OSError, subprocess.TimeoutExpired) as error:
        return _fail(f"cannot mount the RAM-backed WAL dir: {error}")
    if probe.returncode != 0:
        return _fail("cannot mount the RAM-backed WAL dir: "
                     f"{probe.stderr.strip()}")
    rerun = subprocess.run(
        prefix + [mount + ' && exec "$@"', RAM_DIR, sys.executable,
                  os.path.abspath(__file__), *argv],
        env=dict(os.environ, **{RAM_ENV: RAM_DIR}))
    with contextlib.suppress(OSError):
        os.rmdir(RAM_DIR)
    return rerun.returncode


_REFERENCE_KEYS = [(index * 7919) % 5003 for index in range(20_000)]


def reference_s() -> float:
    """Best of three timings of a fixed kernel: dict counting and a JSON
    round trip in the interpreter, then a numpy scatter-add and sort."""
    import numpy as np

    keys = np.asarray(_REFERENCE_KEYS, dtype=np.int64)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        counts: Dict[int, int] = {}
        for key in _REFERENCE_KEYS:
            counts[key] = counts.get(key, 0) + 1
        json.loads(json.dumps(counts))
        dense = np.zeros(5003)
        np.add.at(dense, keys, 1.0)
        np.sort(keys)
        best = min(best, time.perf_counter() - start)
    return best


def host_speed(place: Dict[str, object]) -> float:
    """Host speed now: ``REFERENCE_NOMINAL_S`` over the mean reference
    time on the server's and the client's CPU."""
    times = []
    for cpu in (place["server_cpus"][0], place["client_cpus"][0]):
        os.sched_setaffinity(0, [cpu])
        times.append(reference_s())
    os.sched_setaffinity(0, place["client_cpus"])
    return REFERENCE_NOMINAL_S / (sum(times) / len(times))


def cpu_ticks(cpus: List[int]) -> List[List[int]]:
    """The ``/proc/stat`` tick counters (user .. steal) of ``cpus``."""
    rows = {}
    with open("/proc/stat", encoding="utf-8") as stat:
        for line in stat:
            name, *fields = line.split()
            rows[name] = [int(field) for field in fields[:8]]
    return [rows[f"cpu{cpu}"] for cpu in cpus]


def available(before: List[List[int]], after: List[List[int]]) -> List[float]:
    """For each CPU, the share of the interval between two
    :func:`cpu_ticks` readings in which the host ran it (one less its
    steal share)."""
    shares = []
    for start, end in zip(before, after):
        ticks = [b - a for a, b in zip(start, end)]
        shares.append(1.0 - ticks[7] / sum(ticks) if sum(ticks) else 1.0)
    return shares


def proc_cpu_s(pid: int) -> float:
    with open(f"/proc/{pid}/stat", encoding="utf-8") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_status_kb(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="utf-8") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"{field} missing from /proc/{pid}/status")


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------

class Server:
    """One ``repro serve`` process started through ``launch.py``."""

    def __init__(self, bench: "Bench", directory: str, wal_dir: Optional[str],
                 trace: bool) -> None:
        self.dir = directory
        os.makedirs(self.dir, exist_ok=True)
        self.socket = os.path.relpath(os.path.join(self.dir, "s.sock"), ROOT)
        self.address = f"unix:{self.socket}"
        self.trace_out = os.path.join(self.dir, "spans.json") if trace else None
        ready = os.path.join(self.dir, "ready")
        launcher = [sys.executable, os.path.join(HERE, "launch.py")]
        if self.trace_out:
            launcher += ["--trace-out", self.trace_out]
        serve = ["--listen", self.address, "--epsilon", repr(bench.epsilon),
                 "--delta", repr(bench.delta), "-k", str(bench.workload.k),
                 "--ready-file", ready]
        if wal_dir is not None:
            serve += ["--wal-dir", wal_dir]
        cpus = bench.place["server_cpus"]
        self._log = open(os.path.join(self.dir, "server.log"), "wb")
        start = time.monotonic()
        self.proc = subprocess.Popen(
            launcher + ["--"] + serve, cwd=ROOT, env=bench.env,
            stdout=self._log, stderr=subprocess.STDOUT,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        while True:
            if os.path.exists(ready):
                with open(ready, encoding="utf-8") as handle:
                    if handle.read().endswith("\n"):
                        break
            if self.proc.poll() is not None:
                self._log.close()
                with open(self._log.name, encoding="utf-8", errors="replace") as log:
                    tail = log.read()[-2000:]
                raise RuntimeError(f"server exited with {self.proc.returncode} "
                                   f"before ready:\n{tail}")
            if time.monotonic() - start > READY_TIMEOUT_S:
                self.stop()
                raise RuntimeError("server not ready in time")
            time.sleep(0.001)
        self.ready_s = time.monotonic() - start

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop_after_ready(self) -> float:
        self.stop()
        return self.ready_s

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


# ---------------------------------------------------------------------------
# Client lanes
# ---------------------------------------------------------------------------

class Tally:
    """Attempted and failed operations of a whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what, "output differs from the offline reference")

    def fail(self, what: str, error) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(f"{what}: {error}")


class Lanes:
    """Closed-loop client lanes against one server, with their samples."""

    def __init__(self, bench: "Bench", server: Server) -> None:
        self.bench = bench
        self.tally = bench.tally
        self.address = server.address
        self.next_ordinal = 0
        self.committed: List[int] = []
        self.sessions: List[float] = []
        self.phases: Dict[str, List[float]] = {"connect": [], "push": [],
                                               "bye": []}
        self.releases: List[float] = []
        self.speeds: List[float] = []
        self.paused = 0.0
        self.exports = 0

    def _client(self, **kwargs):
        from repro.net.client import AggregatorClient

        return AggregatorClient(self.address, k=self.bench.workload.k,
                                connect_retries=1, **kwargs)

    async def session(self, timed: bool) -> None:
        from workloads import session_frames

        ordinal = self.next_ordinal
        self.next_ordinal += 1
        frames = session_frames(self.bench.pool, self.bench.workload, ordinal)
        self.tally.attempted += 1
        client = self._client(ordinal=ordinal)
        clock = time.perf_counter
        try:
            start = clock()
            await client.connect()
            connected = clock()
            await client.push_encoded(frames)
            pushed = clock()
            await client.bye()
            done = clock()
        except Exception as error:  # any refused/errored/timed-out session
            self.tally.fail(f"session {ordinal}", repr(error))
            await client.close(bye=False)
            return
        self.committed.append(ordinal)
        if timed:
            self.sessions.append(done - start)
            self.phases["connect"].append(connected - start)
            self.phases["push"].append(pushed - connected)
            self.phases["bye"].append(done - pushed)
            self.exports += len(frames)

    async def release(self, seed: int, timed: bool = False):
        """One RELEASE round trip; returns the payload (None on failure)."""
        self.tally.attempted += 1
        client = self._client()
        try:
            await client.connect()
            start = time.perf_counter()
            payload = await client.request_release_payload(seed)
            if timed:
                self.releases.append(time.perf_counter() - start)
            await client.bye()
            return payload
        except Exception as error:
            self.tally.fail(f"release seed={seed}", repr(error))
            await client.close(bye=False)
            return None

    async def _lane(self, last: int, timed: bool) -> None:
        while self.next_ordinal < last:
            await self.session(timed)

    async def run(self, sessions: int, timed: bool) -> None:
        """Issue ``sessions`` more sessions across all lanes."""
        last = self.next_ordinal + sessions
        await asyncio.gather(*(self._lane(last, timed)
                               for _ in range(self.bench.place["lanes"])))

    async def probed_history(self, history: int) -> None:
        """``history`` timed sessions in ``PROBE_RELEASES`` segments, each
        ended by a timed RELEASE once its sessions have committed, so that
        every cycle probes the same history sizes on an otherwise idle
        server whatever the throughput."""
        done = 0
        for probe in range(PROBE_RELEASES):
            size = history * (probe + 1) // PROBE_RELEASES
            await self.run(size - done, timed=True)
            done = size
            paused = time.monotonic()
            self.speeds.append(host_speed(self.bench.place))
            self.paused += time.monotonic() - paused
            await self.release(self.bench.seed * 1000 + probe + 1, timed=True)


# ---------------------------------------------------------------------------
# One benchmark run
# ---------------------------------------------------------------------------

class Cycle:
    """One server lifetime: spawn, warm up, ``history`` timed sessions with
    RELEASE probes, the gated final release, stop, restarts on its state."""

    def __init__(self, bench: "Bench", trace: bool = False,
                 restarts: int = 1, bare_spawn: bool = False) -> None:
        wal_dir = bench.new_wal_dir() if bench.workload.durable else None
        self.cpus = bench.place["server_cpus"] + bench.place["client_cpus"]
        begin = cpu_ticks(self.cpus)
        self.setups = [bench.server().stop_after_ready()] if bare_spawn else []
        server = bench.server(wal_dir, trace)
        self.setups.append(server.ready_s)
        self.trace_out = server.trace_out
        try:
            self._drive(bench, server)
        finally:
            server.stop()
        self.restarts = [bench.restart(wal_dir, self.final_body, self.final_seed,
                                       first=index == 0, trace=trace)
                         for index in range(restarts)]
        self.cycle_share = available(begin, cpu_ticks(self.cpus))

    def _drive(self, bench: "Bench", server: Server) -> None:
        workload = bench.workload
        lanes = self.lanes = Lanes(bench, server)
        self.final_seed = bench.seed * 1000 + 999

        async def drive():
            await lanes.run(workload.warmup * bench.place["lanes"], timed=False)
            await lanes.release(bench.seed * 1000)
            cpu0 = proc_cpu_s(server.pid)
            rss0 = proc_status_kb(server.pid, "VmRSS")
            client0 = time.process_time()
            ticks = cpu_ticks(self.cpus)
            self.start = time.monotonic()
            await lanes.probed_history(workload.history)
            self.end = time.monotonic()
            self.window_share = available(ticks, cpu_ticks(self.cpus))
            self.client_cpu_s = time.process_time() - client0
            self.cpu_s = proc_cpu_s(server.pid) - cpu0
            self.rss_kb = proc_status_kb(server.pid, "VmRSS") - rss0
            return await lanes.release(self.final_seed)

        final = asyncio.run(drive())
        self.final_body = bench.gate(lanes, final, self.final_seed)
        self.rss_peak_kb = proc_status_kb(server.pid, "VmHWM")

    @property
    def elapsed(self) -> float:
        """The timed window, less the host-speed measurements in it."""
        return self.end - self.start - self.lanes.paused

    @property
    def speed(self) -> float:
        from workloads import median

        return median(self.lanes.speeds)

    def raw(self) -> Dict[str, float]:
        """This cycle's end-to-end figures as timed on the host."""
        from workloads import median, percentile

        lanes = self.lanes
        return {
            "setup_s": sum(self.setups) / len(self.setups),
            "exports_per_s": lanes.exports / self.elapsed,
            "session_p50_ms": median(lanes.sessions) * 1e3,
            "session_p90_ms": percentile(lanes.sessions, 90) * 1e3,
            "release_p50_ms": median(lanes.releases) * 1e3,
            "rss_peak_mb": self.rss_peak_kb / 1024,
            "recovery_s": median([server.ready_s for server in self.restarts]),
        }

    def scaled(self) -> Dict[str, float]:
        """The figures of :meth:`raw` on a host of speed 1 that runs both
        CPUs all the time: times are multiplied by the cycle's speed and by
        the share of the time the host ran the CPUs they wait on, rates
        divided by them.  Sessions wait on both CPUs: the server and its
        client lanes work as a pipeline, so a stall of either stalls both.
        Releases, spawns and restarts wait on the server's CPU only; the
        timed window's shares apply to what was timed in it, the whole
        cycle's to the spawns and restarts."""
        server, client = self.window_share
        pipeline = self.speed * server * client
        factor = {"setup_s": self.speed * self.cycle_share[0],
                  "exports_per_s": 1 / pipeline,
                  "session_p50_ms": pipeline, "session_p90_ms": pipeline,
                  "release_p50_ms": self.speed * server, "rss_peak_mb": 1.0,
                  "recovery_s": self.speed * self.cycle_share[0]}
        return {name: value * factor[name] for name, value in self.raw().items()}


class Bench:
    def __init__(self, args: argparse.Namespace, place: Dict[str, object]) -> None:
        from workloads import (DELTA, EPSILON, WORKLOADS, OfflineReference,
                               binary_share, build_pool, quick)

        workload = WORKLOADS[args.workload]
        self.workload = quick(workload) if args.quick else workload
        self.quick = args.quick
        self.seed = args.seed
        self.seconds = args.seconds
        self.epsilon, self.delta = EPSILON, DELTA
        self.place = place
        self.tally = Tally()
        self.workdir = os.path.join(BUILD, f"run-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=SRC,
                        REPRO_KERNELS_CACHE=os.path.join(BUILD, "kernels"),
                        TMPDIR=self.workdir, PYTHONHASHSEED="0")
        self.pool = build_pool(self.workload, self.seed)
        self.reference = OfflineReference(self.pool, self.workload)
        self.report: Dict[str, object] = {
            "workload": self.workload.name, "seed": self.seed,
            "quick": self.quick, "placement": self.place,
            "pool": {"exports": len(self.pool),
                     "binary_share": binary_share(self.pool)},
            "checks": {"gate": 0, "restart": 0},
        }
        self._dirs = 0

    def new_dir(self, prefix: str) -> str:
        self._dirs += 1
        return os.path.join(self.workdir, f"{prefix}{self._dirs}")

    def new_wal_dir(self) -> str:
        """A fresh WAL dir on the RAM-backed mount."""
        self._dirs += 1
        return os.path.join(RAM_DIR, f"wal-{os.getpid()}-{self._dirs}")

    def server(self, wal_dir: Optional[str] = None, trace: bool = False) -> Server:
        return Server(self, self.new_dir("srv"), wal_dir, trace)

    def environment(self) -> Dict[str, object]:
        import numpy

        from repro.api import kernel_info

        durable = self.workload.durable
        return {
            "python": platform.python_version(), "numpy": numpy.__version__,
            "kernel_backend": kernel_info()["backend"],
            "wal_fs": fs_type(RAM_DIR) if durable else None,
        }

    def gate(self, lanes: Lanes, payload, seed: int) -> Optional[bytes]:
        """Compare a served release with the offline fold; returns its body."""
        from workloads import served_body

        self.report["checks"]["gate"] += 1
        body = served_body(payload) if payload is not None else None
        expected = self.reference.release_body(lanes.committed, seed)
        self.tally.check("final release", body == expected)
        return body

    def restart(self, wal_dir: Optional[str], before: Optional[bytes],
                seed: int, first: bool, trace: bool) -> Server:
        """Restart on ``wal_dir``; the first WAL restart must release
        ``before`` (the last release before the restart, same seed)."""
        from workloads import served_body

        server = self.server(wal_dir, trace)
        try:
            if wal_dir is not None and first:
                self.report["checks"]["restart"] += 1
                payload = asyncio.run(Lanes(self, server).release(seed))
                self.tally.check(
                    "release after restart",
                    payload is not None and served_body(payload) == before)
        finally:
            server.stop()
        return server

    # -- modes ---------------------------------------------------------

    def run_untraced(self) -> Dict[str, float]:
        from workloads import median

        restarts = 1 if self.quick else RESTARTS
        cycles: List[Cycle] = []
        # Start another cycle only if one of the average length so far
        # still ends within ``--seconds`` of the start (pool building
        # included), so a run lasts about that long however fast the host is.
        began = time.monotonic()
        while not cycles or (not self.quick and (time.monotonic() - STARTED)
                             + (time.monotonic() - began) / len(cycles)
                             <= self.seconds):
            cycles.append(Cycle(self, restarts=restarts,
                                bare_spawn=not self.quick))
        scaled = [cycle.scaled() for cycle in cycles]
        self.report["cycles"] = [
            {"host_speed": cycle.speed, "window_share": cycle.window_share,
             "cycle_share": cycle.cycle_share, "raw": cycle.raw(),
             "scaled": figures, "server_busy": cycle.cpu_s / cycle.elapsed,
             "client_busy": cycle.client_cpu_s / cycle.elapsed}
            for cycle, figures in zip(cycles, scaled)]
        self.report["samples"] = {
            "cycles": len(cycles),
            "setups": sum(len(cycle.setups) for cycle in cycles),
            "restarts": sum(len(cycle.restarts) for cycle in cycles),
            "sessions": sum(len(cycle.lanes.sessions) for cycle in cycles),
            "releases": sum(len(cycle.lanes.releases) for cycle in cycles),
            "speed_probes": sum(len(cycle.lanes.speeds) for cycle in cycles)}
        return {name: median([figures[name] for figures in scaled])
                for name in metric_spec("end_to_end")}

    def run_traced(self) -> Dict[str, float]:
        import spans
        from workloads import median

        plain = Cycle(self)
        traced = Cycle(self, trace=True)
        lanes = traced.lanes
        trace = spans.Trace(spans.load(traced.trace_out),
                            (traced.start, traced.end))
        replay = spans.recovery_seconds(spans.load(traced.restarts[0].trace_out))
        untraced_eps = plain.scaled()["exports_per_s"]
        traced_eps = traced.scaled()["exports_per_s"]
        self.report["samples"] = {"sessions": len(lanes.sessions),
                                  "releases": len(lanes.releases),
                                  "traced_sessions": len(trace.push_sessions)}
        ms = 1e3
        return {
            "client.connect_ms_p50": median(lanes.phases["connect"]) * ms,
            "client.push_ms_p50": median(lanes.phases["push"]) * ms,
            "client.bye_ms_p50": median(lanes.phases["bye"]) * ms,
            **trace.layer_metrics(),
            "recovery.replay_s": median(replay),
            "server.cpu_ms_per_export": plain.cpu_s * ms / plain.lanes.exports,
            "memory.rss_kb_per_session": plain.rss_kb / len(plain.lanes.sessions),
            "trace.overhead_frac": 1.0 - traced_eps / untraced_eps,
            "trace.unattributed_frac": 1.0 - trace.busy_cpu_total() / traced.cpu_s,
        }

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny workload, one cycle (self-tests)")
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return _fail(f"no repro package under {SRC}; run from a checkout")
    os.chdir(ROOT)  # server sockets are addressed relative to the root
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    os.environ["REPRO_KERNELS_CACHE"] = os.path.join(BUILD, "kernels")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if WORKLOADS[args.workload].durable and not ram_mounted():
        return with_ram_dir(argv)
    place = placement()
    os.sched_setaffinity(0, place["client_cpus"])
    bench = Bench(args, place)
    try:
        bench.report["environment"] = bench.environment()
        if args.trace:
            values, spec = bench.run_traced(), metric_spec("per_layer")
        else:
            values, spec = bench.run_untraced(), metric_spec("end_to_end")
    finally:
        bench.cleanup()
    tally = bench.tally
    bench.report["failed_frac"] = tally.failed / max(1, tally.attempted)
    bench.report["errors"] = tally.errors
    print(json.dumps(bench.report, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(values[name]), "unit": metric["unit"]}
                    for name, metric in spec.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
