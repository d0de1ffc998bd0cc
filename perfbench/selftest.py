"""Self-tests of the served-cycle benchmark (quick mode, a few seconds each).

Run from the root of a checkout, either directly or under pytest::

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py

They run every workload with ``--quick`` in both modes and check that each
metric named in ``BENCHMARK.json`` is emitted with its unit, that the
correctness gate ran and passed, and that the benchmark refuses to run
where the program's sources are missing.  The file name keeps it out of
the repository's default test collection.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")

sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload: str, trace: int, cwd: str = ROOT):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--quick"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def _check_workload(workload: str) -> None:
    spec = _spec()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stderr[-2000:]
        lines = proc.stdout.strip().splitlines()
        report, result = json.loads(lines[-2]), json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, report["errors"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {metric["name"]: metric["unit"] for metric in spec[section]}
        got = {name: metric["unit"] for name, metric in result["metrics"].items()}
        assert got == expected
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], float)
        # The gate compared every cycle's final release with the offline
        # fold; a WAL restart also compared its first release.
        assert report["checks"]["gate"] >= 1
        if workload == "durable_sessions":
            assert report["checks"]["restart"] >= 1
        assert report["failed_frac"] == 0.0
        for field in ("python", "numpy", "kernel_backend", "wal_fs"):
            assert field in report["environment"]
        assert "note" in report["placement"]
        if trace:
            values = {name: metric["value"]
                      for name, metric in result["metrics"].items()}
            assert values["decode.calls"] > 0 and values["fold.calls"] > 0
            if workload == "durable_sessions":
                # Per session: spool fsync + directory fsync, and the
                # ledger record put at the push commit and at BYE.
                assert values["wal.fsyncs_per_session"] == 2.0
                assert values["wal.ledger_puts_per_session"] == 2.0
                assert values["recovery.replay_s"] > 0


def test_bulk_exports():
    _check_workload("bulk_exports")


def test_durable_sessions():
    _check_workload("durable_sessions")


def test_workloads_match_spec():
    from workloads import WORKLOADS

    names = [workload["name"] for workload in _spec()["workloads"]]
    assert names == list(WORKLOADS)


def test_refuses_without_sources():
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), SCRATCH)
        shutil.copytree(HERE, os.path.join(SCRATCH, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run("bulk_exports", 0, cwd=SCRATCH)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


def test_self_time_subtracts_children():
    import spans

    # session 1 ran 5 ms on the loop; its decode (2 ms) holds a 1 ms child.
    raw = [
        [2, "decode", 10.000, 10.002, None, 1, {"binary": True}],
        [3, "fold", 10.0005, 10.0015, 2, 1, {"columnar": True}],
        [1, "session", 10.0, 10.1, None, 1, {"busy": 0.005, "busy_cpu": 0.004}],
    ]
    trace = spans.Trace(raw)
    assert abs(trace.self_times("decode")[0] - 0.001) < 1e-9
    assert abs(trace.session_self()[0] - 0.003) < 1e-9
    assert trace.frac("decode", "binary") == 1.0


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items())
             if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
