"""Property: the incremental RELEASE equals a fresh combine of every session.

:class:`~repro.net.server.AggregatorServer` keeps the combine of the
sessions it has already released and folds only newly committed sessions
into it; a commit that sorts before an already-absorbed session forces a
refold from scratch.  Whatever the interleaving of commits (out-of-order
ordinals, anonymous sessions, relay summary parts, token-keyed exports, key
spans wide enough for the pairwise fold) and releases, and across a WAL
restart, every release must be bit-identical — keys, values, dict order and
metadata — to ``combine_mergers(committed_mergers())`` and to the same fold
over freshly built, never-compacted session mergers.

The memoized :func:`~repro.core.gshm.calibrate_gshm` must equal the
uncached computation (``calibrate_gshm.__wrapped__``) for any argument mix,
and must raise on every call for arguments the validators reject.
"""

from __future__ import annotations

import asyncio
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api.framing import (
    StreamingMerger,
    combine_mergers,
    decode_payload_body,
    payload_frame_body,
    summary_payload,
)
from repro.api.wire import encode_counters, encode_histogram
from repro.core.gshm import calibrate_gshm
from repro.core.merging import MergeStrategy, PrivateMergedRelease
from repro.exceptions import ReproError
from repro.net import AggregatorServer

EPSILON, DELTA = 1.0, 1e-6

# Small key universes collide across sessions (so the MG merge decrements);
# the wide keys push a merger's key span past the dense fold's limit.
_INT_KEYS = st.one_of(st.integers(min_value=0, max_value=12),
                      st.sampled_from([-(2 ** 40), 2 ** 40, 2 ** 33]))
# Counters far above the GSHM threshold (~50 at k <= 4), so a release shows
# the fold's keys, values and order instead of thresholding them away.
_VALUES = st.one_of(st.integers(min_value=0, max_value=9).map(lambda v: v * 1e4),
                    st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False, allow_infinity=False))
_EXPORT = st.one_of(
    st.dictionaries(_INT_KEYS, _VALUES, max_size=6),
    st.dictionaries(st.sampled_from(["a", "b", "c"]), _VALUES, min_size=1,
                    max_size=3))
_EXPORTS = st.lists(_EXPORT, min_size=1, max_size=3)

_COMMIT = st.tuples(
    st.just("commit"),
    st.one_of(st.none(), st.integers(min_value=0, max_value=6)),   # ordinal
    st.sampled_from(["client", "relay"]),
    st.lists(_EXPORTS, min_size=1, max_size=2))   # origin sessions (relay)
_RELEASE = st.tuples(st.just("release"),
                     st.integers(min_value=0, max_value=2 ** 31 - 1))
_RESTART = st.tuples(st.just("restart"))
_OPS = st.lists(st.one_of(_COMMIT, _COMMIT, _RELEASE, _RESTART),
                min_size=1, max_size=14)


def _bodies(exports, k):
    return [payload_frame_body(encode_counters(counters, k=k,
                                               stream_length=3 + index))
            for index, counters in enumerate(exports)]


def _client_merger(bodies, k):
    merger = StreamingMerger(k)
    for body in bodies:
        merger.add(decode_payload_body(body))
    return merger


def _relay_part(body, k):
    return StreamingMerger(k).add_summary(decode_payload_body(body))


class _Handoff:
    """What :meth:`AggregatorServer.commit` takes from a finished session."""

    def __init__(self, ordinal, merger=None, parts=(), journal=None):
        self.ordinal = ordinal
        self.client = None
        self._merger, self._parts, self._journal = merger, tuple(parts), journal

    def take_merger(self):
        return self._merger

    def take_parts(self):
        return self._parts

    def take_journal(self):
        return self._journal


def _commit(server, ordinal, role, origins, k):
    """Commit one session through the server's own commit path (spooling
    its frame bodies first when the server has a WAL)."""
    if role == "relay":
        bodies = [payload_frame_body(summary_payload(
            _client_merger(_bodies(exports, k), k))) for exports in origins]
        merger, parts = None, [_relay_part(body, k) for body in bodies]
    else:
        bodies = _bodies([counters for exports in origins
                          for counters in exports], k)
        merger, parts = _client_merger(bodies, k), []
    journal = None
    if server.wal is not None:
        journal = server.wal.attach(ordinal, None, k, role=role)
        for body in bodies:
            journal.append(body)
        journal.commit()
    server.commit(_Handoff(ordinal, merger, parts, journal))
    return bodies


def _fresh_parts(model, k):
    """Never-compacted mergers for the model's sessions, canonical order."""
    parts = []
    for _, role, bodies in sorted(model, key=lambda entry: entry[0]):
        if role == "relay":
            parts.extend(_relay_part(body, k) for body in bodies)
        else:
            parts.append(_client_merger(bodies, k))
    return parts


def _release_envelope(parts, k, seed):
    mechanism = PrivateMergedRelease(epsilon=EPSILON, delta=DELTA, k=k,
                                     strategy=MergeStrategy.TRUSTED_MERGED)
    return encode_histogram(combine_mergers(parts, k).release(mechanism, rng=seed))


async def _scenario(ops, k, wal_dir, sock):
    def new_server():
        return AggregatorServer(epsilon=EPSILON, delta=DELTA, k=k,
                                wal_dir=wal_dir)

    server = await new_server().start(sock)
    model = []                    # (sort key, role, frame bodies)
    last_seed = 0
    seq = 0
    try:
        for op in ops:
            if op[0] == "commit":
                _, ordinal, role, origins = op
                if wal_dir is not None and ordinal is not None and any(
                        key[0] == 0 and key[1] == ordinal
                        for key, _, _ in model):
                    ordinal = None    # a WAL ordinal is one durable session
                seq += 1
                key = (0, ordinal, seq) if ordinal is not None else (1, 0, seq)
                model.append((key, role,
                              _commit(server, ordinal, role, origins, k)))
            elif op[0] == "release":
                if not model:
                    continue
                seed = op[1]
                served = server.perform_release(seed)
                expected = _release_envelope(server.committed_mergers(), k, seed)
                fresh = _release_envelope(_fresh_parts(model, k), k, seed)
                assert served == expected == fresh
                assert list(served["meta"]) == list(fresh["meta"])
                last_seed = seed
            elif wal_dir is not None:
                # Restart on the WAL: the replayed sessions release what a
                # fresh fold over the whole history releases.
                await server.aclose()
                server = await new_server().start(sock)
                if model:
                    assert server.perform_release(last_seed) == \
                        _release_envelope(_fresh_parts(model, k), k, last_seed)
    finally:
        await server.aclose()


@pytest.mark.net(seconds=300)
@given(ops=_OPS, k=st.integers(min_value=1, max_value=4),
       durable=st.booleans())
@settings(max_examples=40, deadline=None)
def test_incremental_release_bit_identical_to_full_refold(ops, k, durable):
    with tempfile.TemporaryDirectory(prefix="repro-incr-") as tmp:
        wal_dir = f"{tmp}/wal" if durable else None
        asyncio.run(_scenario(ops, k, wal_dir, f"unix:{tmp}/agg.sock"))


# ---------------------------------------------------------------------------
# Memoized calibration
# ---------------------------------------------------------------------------

_EPSILONS = st.one_of(
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=0.05, max_value=4.0),
    st.floats(min_value=0.05, max_value=4.0).map(np.float64))
_DELTAS = st.one_of(st.sampled_from([1e-6, 1e-3, 0.01]),
                    st.floats(min_value=1e-9, max_value=0.2).map(np.float64))
_LS = st.integers(min_value=1, max_value=48)
_METHODS = st.sampled_from(["exact", "loose"])
_TOLERANCES = st.one_of(st.sampled_from([1e-4, 1e-2]),
                        st.floats(min_value=1e-6, max_value=0.1))


@given(epsilon=_EPSILONS, delta=_DELTAS, l=_LS, method=_METHODS,
       tolerance=_TOLERANCES)
@settings(max_examples=60, deadline=None)
def test_memoized_calibration_equals_uncached(epsilon, delta, l, method,
                                              tolerance):
    uncached = calibrate_gshm.__wrapped__(epsilon, delta, l, method=method,
                                          tolerance=tolerance)
    assert calibrate_gshm(epsilon, delta, l, method=method,
                          tolerance=tolerance) == uncached
    # The second call is a cache hit and must still be the same pair.
    assert calibrate_gshm(epsilon, delta, l, method=method,
                          tolerance=tolerance) == uncached
    assert calibrate_gshm(epsilon, delta, l, method, tolerance) == uncached


_BAD_ARGS = st.sampled_from([
    (0.0, 1e-6, 4, "exact"),
    (-1, 1e-6, 4, "exact"),
    (float("nan"), 1e-6, 4, "exact"),
    (1.0, 0.0, 4, "exact"),
    (1.0, 1.5, 4, "loose"),
    (1.0, 1e-6, 0, "exact"),
    (1.0, 1e-6, 4.0, "exact"),
    (1.0, 1e-6, True, "exact"),
    (1.0, 1e-6, np.int64(4), "exact"),
    (1.0, 1e-6, 4, "magic"),
    ([1.0], 1e-6, 4, "exact"),
    (np.array([1.0]), 1e-6, 4, "exact"),
])


@given(args=_BAD_ARGS)
@settings(max_examples=30, deadline=None)
def test_memoized_calibration_raises_on_every_call(args):
    epsilon, delta, l, method = args
    # A valid call first: the entry of ``l=4`` must never answer ``4.0``,
    # ``True`` or ``np.int64(4)``.
    calibrate_gshm(1.0, 1e-6, 4, method="exact")
    for _ in range(3):
        with pytest.raises(ReproError):
            calibrate_gshm(epsilon, delta, l, method=method)
        with pytest.raises(ReproError):
            calibrate_gshm.__wrapped__(epsilon, delta, l, method=method)
