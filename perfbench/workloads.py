"""Workload definitions, seeded payload pools and the offline reference.

Every payload the server sees is built here, before any timing starts,
through the public client path: a :class:`MisraGriesSketch` folds Zipf
draws, :func:`repro.api.wire.encode_sketch` exports it, and
:func:`repro.api.framing.encode_payload_frame` turns it into frame bytes.
The server receives only those bytes.

Session ``ordinal`` pushes the pool entries ``ordinal * per_push + j``
(mod the pool size), so the set of exports behind any history of ordinals
is known offline.  :class:`OfflineReference` replays that history through
``StreamingMerger`` + ``combine_mergers`` — the same two-level fold the
server performs — and produces the release the server must match bit for
bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Sequence

import numpy as np

from repro.api import wire
from repro.api.framing import (BINARY_FRAME_TAG, StreamingMerger,
                               combine_mergers, decode_payload_body,
                               encode_frame, encode_payload_frame,
                               payload_frame_body)
from repro.core.merging import MergeStrategy, PrivateMergedRelease
from repro.sketches.misra_gries import MisraGriesSketch

EPSILON = 1.0
DELTA = 1e-6
#: Bytes of the length prefix in front of every frame body.
LENGTH_PREFIX = len(encode_frame(b""))


@dataclass(frozen=True)
class Workload:
    name: str
    k: int                  # sketch size of every export
    draws: int              # Zipf draws folded into one export
    universe: int           # Zipf key universe
    exponent: float         # Zipf exponent
    pool: int               # distinct exports built per run
    per_push: int           # exports per PUSH (one PUSH per session)
    history: int            # timed sessions per server lifetime (one cycle)
    warmup: int             # untimed sessions per lane before the window
    durable: bool = False   # run with --wal-dir and measure recovery


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (
        Workload("bulk_exports", k=1024, draws=20_000, universe=50_000,
                 exponent=1.2, pool=256, per_push=8, history=384,
                 warmup=8),
        # The pool is large so that the server's memory, which depends on
        # which exports a history holds, varies little from seed to seed.
        Workload("durable_sessions", k=64, draws=100, universe=10_000,
                 exponent=1.2, pool=1024, per_push=1, history=640,
                 warmup=25, durable=True),
    )
}


def quick(workload: Workload) -> Workload:
    """The same workload at a tiny size (self-tests)."""
    return replace(workload, pool=min(workload.pool, 32),
                   history=max(4, workload.history // 100),
                   warmup=2)


def zipf_draws(rng: np.random.Generator, size: int, universe: int,
               exponent: float) -> np.ndarray:
    """``size`` Zipf(exponent) ranks in ``1..universe`` (inverse CDF)."""
    weights = np.arange(1, universe + 1, dtype=np.float64) ** -exponent
    cdf = np.cumsum(weights)
    points = rng.random(size) * cdf[-1]
    return np.searchsorted(cdf, points, side="left").astype(np.int64) + 1


def build_pool(workload: Workload, seed: int) -> List[bytes]:
    """Encoded payload frames (length prefix included), one per export."""
    rng = np.random.default_rng([seed, workload.k, workload.draws])
    frames = []
    for _ in range(workload.pool):
        draws = zipf_draws(rng, workload.draws, workload.universe,
                           workload.exponent)
        sketch = MisraGriesSketch(workload.k).update_batch(draws)
        frames.append(encode_payload_frame(wire.encode_sketch(sketch)))
    return frames


def binary_share(pool: Sequence[bytes]) -> float:
    """Share of pool frames that are binary columnar (the rest are JSON)."""
    return sum(frame[LENGTH_PREFIX] == BINARY_FRAME_TAG for frame in pool) / len(pool)


def session_frames(pool: Sequence[bytes], workload: Workload,
                   ordinal: int) -> List[bytes]:
    base = ordinal * workload.per_push
    return [pool[(base + j) % len(pool)] for j in range(workload.per_push)]


class OfflineReference:
    """The release a correct server gives for a history of ordinals."""

    def __init__(self, pool: Sequence[bytes], workload: Workload) -> None:
        self._pool = pool
        self._workload = workload
        self._sessions: Dict[int, StreamingMerger] = {}

    def _session(self, ordinal: int) -> StreamingMerger:
        # Session ordinals repeat their export set with this period (every
        # pool size is a multiple of per_push), so each distinct session
        # merger is folded once and shared: combine only reads its parts.
        key = ordinal % (len(self._pool) // self._workload.per_push)
        merger = self._sessions.get(key)
        if merger is None:
            merger = StreamingMerger(self._workload.k)
            for frame in session_frames(self._pool, self._workload, ordinal):
                merger.add(decode_payload_body(frame[LENGTH_PREFIX:]))
            self._sessions[key] = merger
        return merger

    def release_body(self, ordinals: Sequence[int], seed: int) -> bytes:
        """Frame body of the seeded release over ``ordinals`` (any order)."""
        parts = [self._session(ordinal) for ordinal in sorted(ordinals)]
        combined = combine_mergers(parts, self._workload.k)
        mechanism = PrivateMergedRelease(
            epsilon=EPSILON, delta=DELTA, k=self._workload.k,
            strategy=MergeStrategy.TRUSTED_MERGED)
        histogram = combined.release(mechanism, rng=seed)
        return payload_frame_body(wire.encode_histogram(histogram))


def served_body(payload) -> bytes:
    """Canonical frame body of a release payload received from the server."""
    return payload_frame_body(wire.encode_payload(payload))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) \
        if len(values) else 0.0


def median(values: Sequence[float]) -> float:
    return percentile(values, 50)
