"""The server's release state: cached combine, refolds, compaction, deadlines.

A RELEASE absorbs only the sessions committed since the previous one; a
commit that sorts before an absorbed session makes the next release refold
from scratch (``server.release_refolds_total``).  Each ``release`` span
reports ``absorbed`` (parts folded by this release) and ``refold``.
Committed sessions are compacted to their ``<= k`` summary, and the
per-session read deadline is pushed forward by every read.
"""

import asyncio
import io
import json

import numpy as np
import pytest

from repro.api.framing import (
    StreamingMerger,
    combine_mergers,
    summary_payload,
)
from repro.api.wire import encode_counters
from repro.core import gshm
from repro.core.merging import MergeStrategy, PrivateMergedRelease
from repro.net import AggregatorClient, AggregatorServer

pytestmark = pytest.mark.net

EPSILON, DELTA, K = 1.0, 1e-6, 8


def _export(counters):
    return encode_counters(counters, k=K, stream_length=int(sum(counters.values())))


EXPORTS = {
    0: [_export({1: 9000.0, 2: 4000.0})],
    1: [_export({2: 7000.0, 3: 3000.0}), _export({4: 5000.0})],
    2: [_export({5: 8000.0, 1: 1000.0})],
    3: [_export({6: 6000.0, 7: 2000.0, 8: 1000.0})],
}


def _offline(ordinals, seed):
    parts = []
    for ordinal in sorted(ordinals):
        merger = StreamingMerger(K)
        for envelope in EXPORTS[ordinal]:
            merger.add(envelope)
        parts.append(merger)
    mechanism = PrivateMergedRelease(epsilon=EPSILON, delta=DELTA, k=K,
                                     strategy=MergeStrategy.TRUSTED_MERGED)
    return combine_mergers(parts, K).release(mechanism, rng=seed)


async def _push(server, ordinal):
    async with AggregatorClient(server.address, k=K, ordinal=ordinal) as client:
        await client.push(EXPORTS[ordinal])


async def _release(server, seed):
    async with AggregatorClient(server.address) as client:
        return await client.request_release(seed=seed)


def _release_spans(log):
    return [line for line in map(json.loads, log.getvalue().splitlines())
            if line["span"] == "release"]


class TestIncrementalRelease:
    def test_release_with_no_new_commits_absorbs_nothing(self):
        log = io.StringIO()

        async def scenario():
            server = AggregatorServer(epsilon=EPSILON, delta=DELTA, k=K,
                                      log_json=log)
            async with await server.start("127.0.0.1:0"):
                await _push(server, 0)
                await _push(server, 1)
                first = await _release(server, seed=5)
                second = await _release(server, seed=5)
                await _push(server, 2)
                third = await _release(server, seed=5)
                return first, second, third, server.stats()

        first, second, third, stats = asyncio.run(scenario())
        spans = _release_spans(log)
        assert [(span["absorbed"], span["refold"], span["parts"])
                for span in spans] == [(2, False, 2), (0, False, 2),
                                       (1, False, 3)]
        assert list(first.as_dict().items()) == list(second.as_dict().items())
        assert list(first.as_dict().items()) == \
            list(_offline([0, 1], 5).as_dict().items())
        assert list(third.as_dict().items()) == \
            list(_offline([0, 1, 2], 5).as_dict().items())
        assert stats["metrics"]["counters"]["server.release_refolds_total"] == 0

    def test_out_of_order_commit_refolds_and_is_counted(self):
        log = io.StringIO()

        async def scenario():
            server = AggregatorServer(epsilon=EPSILON, delta=DELTA, k=K,
                                      log_json=log)
            async with await server.start("127.0.0.1:0"):
                await _push(server, 1)
                await _push(server, 3)
                await _release(server, seed=2)
                await _push(server, 0)      # sorts before the absorbed prefix
                await _push(server, 2)
                refolded = await _release(server, seed=2)
                return refolded, server.stats()

        refolded, stats = asyncio.run(scenario())
        spans = _release_spans(log)
        assert [(span["absorbed"], span["refold"]) for span in spans] == \
            [(2, False), (4, True)]
        assert stats["metrics"]["counters"]["server.release_refolds_total"] == 1
        assert list(refolded.as_dict().items()) == \
            list(_offline([0, 1, 2, 3], 2).as_dict().items())

    def test_calibration_and_combine_wait_for_the_first_release(
            self, tmp_path, monkeypatch):
        calls = []
        calibrate = gshm.calibrate_gshm

        def counting(*args, **kwargs):
            calls.append(args)
            return calibrate(*args, **kwargs)

        monkeypatch.setattr(gshm, "calibrate_gshm", counting)

        async def scenario():
            first = AggregatorServer(epsilon=EPSILON, delta=DELTA, k=K,
                                     wal_dir=tmp_path)
            async with await first.start("127.0.0.1:0"):
                await _push(first, 0)
            restarted = AggregatorServer(epsilon=EPSILON, delta=DELTA, k=K,
                                         wal_dir=tmp_path)
            async with await restarted.start("127.0.0.1:0"):
                before = len(calls)
                histogram = await _release(restarted, seed=4)
                return before, histogram

        before, histogram = asyncio.run(scenario())
        assert before == 0              # neither start nor WAL replay calibrates
        assert len(calls) == 1
        assert list(histogram.as_dict().items()) == \
            list(_offline([0], 4).as_dict().items())


class TestCompaction:
    def _merger(self, exports):
        merger = StreamingMerger(K)
        for envelope in exports:
            merger.add(envelope)
        return merger

    def test_compact_drops_the_dense_accumulator_and_keeps_every_reading(self):
        exports = [_export({1: 5.0, 40_000: 3.0, 9: 0.0}),
                   _export({1: 2.0, 77: 4.0})]
        dense, compact = self._merger(exports), self._merger(exports).compact()
        assert dense._acc is not None and compact._acc is None
        keys, values = compact.merged_arrays()
        assert keys.size <= K
        dense_keys, dense_values = dense.merged_arrays()
        assert keys.tolist() == dense_keys.tolist()
        assert values.tolist() == dense_values.tolist()
        assert list(compact.merged().items()) == list(dense.merged().items())
        assert summary_payload(compact) == summary_payload(dense)
        # The columnar summary skips the counter dict; same envelope.
        envelope = encode_counters(dense.merged(), k=K,
                                   stream_length=dense.total_stream_length)
        envelope["meta"]["relay"] = {"frames": dense.frames}
        assert summary_payload(dense) == envelope
        assert (compact.frames, compact.total_stream_length) == \
            (dense.frames, dense.total_stream_length)
        other = self._merger([_export({77: 9.0, 5: 1.0})])
        absorbed_dense = StreamingMerger(K).absorb(dense).absorb(other)
        absorbed_compact = StreamingMerger(K).absorb(compact).absorb(other)
        assert list(absorbed_compact.merged().items()) == \
            list(absorbed_dense.merged().items())
        mechanism = PrivateMergedRelease(epsilon=EPSILON, delta=DELTA, k=K,
                                         strategy=MergeStrategy.TRUSTED_MERGED)
        assert list(compact.release(mechanism, rng=1).as_dict().items()) == \
            list(dense.release(mechanism, rng=1).as_dict().items())

    def test_compact_leaves_dict_mode_alone(self):
        merger = self._merger([encode_counters({"a": 3.0, "b": 1.0}, k=K)])
        before = list(merger.merged().items())
        assert list(merger.compact().merged().items()) == before
        assert not merger.columnar

    def test_committed_sessions_are_compacted(self):
        async def scenario():
            server = AggregatorServer(epsilon=EPSILON, delta=DELTA, k=K)
            async with await server.start("127.0.0.1:0"):
                await _push(server, 1)
                return server.committed_mergers()

        (merger,) = asyncio.run(scenario())
        assert merger._acc is None
        keys, _ = merger.merged_arrays()
        assert sorted(keys.tolist()) == [2, 3, 4]

    def test_base_combine_continues_the_full_fold_bit_identically(self):
        rng = np.random.default_rng(3)
        parts = [self._merger([_export({int(key): float(value)
                                        for key, value in zip(
                                            rng.integers(0, 30, 6),
                                            rng.integers(1, 50, 6))})])
                 for _ in range(7)]
        full = combine_mergers(parts, K)
        base = combine_mergers(parts[:3], K, base=StreamingMerger(K))
        continued = combine_mergers(parts[3:], K, base=base)
        assert continued is base
        assert list(continued.merged().items()) == list(full.merged().items())
        assert continued.frames == full.frames
        # A base never passes a single part through (no aliasing).
        assert combine_mergers(parts[:1], K, base=StreamingMerger(K)) \
            is not parts[0]


class TestReadDeadline:
    def test_slow_session_with_timely_reads_is_not_cut_off(self):
        """The deadline bounds each read, not the session: reads spaced
        under the timeout keep a session alive past it."""
        async def scenario():
            server = AggregatorServer(epsilon=EPSILON, delta=DELTA, k=K,
                                      read_timeout=0.3)
            async with await server.start("127.0.0.1:0"):
                async with AggregatorClient(server.address, k=K,
                                            ordinal=0) as client:
                    for envelope in EXPORTS[1] + EXPORTS[3]:
                        await asyncio.sleep(0.2)
                        await client.push([envelope])
                return server.stats()

        stats = asyncio.run(scenario())
        assert stats["sessions_committed"] == 1
        assert stats["sessions_rejected"] == 0
