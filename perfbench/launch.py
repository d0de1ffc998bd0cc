"""Start ``repro serve`` with the benchmark's span recorder installed.

Usage (the CPU pinning is done by the caller)::

    python3 perfbench/launch.py [--trace-out FILE] -- <repro serve args>

With ``--trace-out`` the public entry points of each server layer are
wrapped by the in-memory recorder of ``spans.py`` and the spans are written
to FILE when the server exits.  Without it the server runs unmodified; the
launcher only keeps both runs on the same start-up path.
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        raise SystemExit("usage: launch.py [--trace-out FILE] -- <serve args>")
    split = argv.index("--")
    own, serve_args = argv[:split], argv[split + 1:]
    trace_out = own[own.index("--trace-out") + 1] if "--trace-out" in own else None
    # ``repro serve`` handles SIGTERM once its loop runs; a SIGTERM that
    # lands between the ready file and that point must still unwind through
    # the ``finally`` below so the spans are written.
    signal.signal(signal.SIGTERM, _interrupt)
    recorder = spans.Recorder()
    if trace_out is not None:
        spans.install_tracing(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        if trace_out is not None:
            recorder.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
