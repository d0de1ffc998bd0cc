"""Write-ahead session spools for the aggregation service.

The framed container (:mod:`repro.api.framing`) *is already a log format*:
a stream prefix, a JSON header frame, then length-prefixed payload frames.
The WAL exploits that directly — each session gets one spool file in
``wal_dir`` holding the **verbatim bytes** (tag-preserving) of every PUSH
frame the server accepted, appended *before* the frame is folded into the
session's :class:`~repro.api.framing.StreamingMerger`.

Commit protocol (per PUSH burst)::

    append frame bytes to spool          (OS buffer)
    fold frame into the session merger   (in memory)
    ... repeat for the burst ...
    flush + fsync spool                  (frames durable)
    put session record in the store      (watermark durable, fsync-backed)
    send OK to the client                (ACK now implies durability)

A crash between the spool fsync and the store put leaves a spool tail past
the recorded ``committed_bytes`` watermark: the tail is truncated on the
next attach or recovery — never folded — and the client, which got no ACK,
re-pushes the burst.  A clean session end (BYE / clean EOF) writes the
server's commit sequence number into the record (:meth:`SessionJournal.
mark_committed`), which is the fsync-on-commit session record: recovery
folds exactly the sessions holding a seq, in seq order, so a restarted
server releases bit-identically to an uninterrupted one.

Resume: the ordinal a client declares in HELLO is its durable session
identity.  Re-attaching to an open record replays the committed prefix of
the spool into a fresh merger and reports ``committed_frames`` back through
the HELLO ACK, so the client skips already-durable frames instead of
double-pushing.
"""

from __future__ import annotations

import os
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..api.framing import (FrameReader, StreamingMerger, append_frame,
                           decode_payload_body, replay_raw_frames,
                           write_stream_header)
from ..exceptions import FramingError, ParameterError, ProtocolError
from ..obs.metrics import NULL_METRICS
from .session import CommittedSession
from .store import (CheckpointStore, SessionRecord, SqliteCheckpointStore,
                    is_reserved_record)

__all__ = ["SessionWal", "SessionJournal", "WalRecovery"]

#: File name of the default sqlite checkpoint ledger inside ``wal_dir``.
STORE_FILENAME = "sessions.db"
_SPOOL_SUFFIX = ".spool"


def _session_complete_error() -> ProtocolError:
    error = ProtocolError(
        "session already committed cleanly; pushing more frames would fold "
        "them twice — start a new session under a fresh ordinal")
    error.code = "session_complete"
    return error


@dataclass
class WalRecovery:
    """What :meth:`SessionWal.recover` found on disk."""

    #: Cleanly finished sessions, replayed, in commit-seq order.
    committed: List[CommittedSession] = field(default_factory=list)
    #: Records still open (no commit seq) — resumable by ordinal.
    open_records: List[SessionRecord] = field(default_factory=list)
    #: The sketch size all records agree on (``None`` when no records).
    k: Optional[int] = None
    #: Highest commit seq seen (the server restarts its counter above it).
    max_seq: int = 0


class SessionJournal:
    """One session's handle on its spool + ledger record.

    Created by :meth:`SessionWal.attach`; the server-side session appends
    each accepted frame body, commits per burst, and marks the record
    committed on a clean end.  ``merger`` carries the replayed committed
    prefix on resume (``None`` for a fresh session).
    """

    def __init__(self, wal: "SessionWal", record: SessionRecord, *,
                 fileobj=None, offset: int = 0, frames: int = 0,
                 merger: Optional[StreamingMerger] = None,
                 parts: Tuple[StreamingMerger, ...] = (),
                 complete: bool = False, durable: bool = False) -> None:
        self._wal = wal
        self.record = record
        self.merger = merger
        #: Replayed relay summary parts (one per spooled summary frame);
        #: empty for plain client sessions.
        self.parts = parts
        self.complete = complete
        self._file = fileobj
        self._offset = offset
        self._frames = frames
        self._durable = durable  # record already present in the store

    @property
    def committed_frames(self) -> int:
        """Frames durable at the last commit (what the HELLO ACK reports)."""
        return self.record.committed_frames

    def ensure_k(self, k: int) -> None:
        """Record the agreed sketch size once the session learns it."""
        if self.record.k is None:
            self.record = replace(self.record, k=k)
        elif self.record.k != k:
            error = ProtocolError(
                f"session {self.record.session_id} was spooled at "
                f"k={self.record.k} but now declares k={k}")
            error.code = "k_mismatch"
            raise error

    def append(self, body: bytes) -> None:
        """Spool one accepted frame body verbatim (before it is folded)."""
        if self.complete:
            raise _session_complete_error()
        self._offset += append_frame(self._file, body)
        self._frames += 1

    def commit(self) -> int:
        """Make every appended frame durable; returns the new watermark.

        fsyncs the spool, then durably advances the ledger record — the
        order that makes a half-written tail detectable (ledger behind
        spool) rather than dangerous (ledger ahead of spool).
        """
        if self.complete:
            raise _session_complete_error()
        if self._frames == self.record.committed_frames:
            return self.record.committed_frames
        metrics = self._wal.metrics
        clock = metrics.clock
        commit_start = clock()
        self._file.flush()
        if self._wal.fsync:
            fsync_start = clock()
            os.fsync(self._file.fileno())
            metrics.observe("wal.fsync_seconds", clock() - fsync_start)
        first_commit = not self._durable
        self.record = self.record.advanced(frames=self._frames,
                                           bytes_=self._offset)
        self._wal.store.put(self.record)
        self._durable = True
        if first_commit and self._wal.fsync:
            self._wal.fsync_dir()
        metrics.observe("wal.commit_seconds", clock() - commit_start)
        metrics.inc("wal.commits_total")
        return self.record.committed_frames

    def mark_committed(self, commit_seq: int) -> None:
        """Record the clean end of the session at ``commit_seq`` (durable)."""
        if self.complete:
            return
        self.commit()
        self.record = self.record.completed(commit_seq)
        self._wal.store.put(self.record)
        self._durable = True
        self.complete = True
        self._close_file()

    def close(self) -> None:
        """Release the spool file handle (the record stays open for resume)."""
        self._close_file()

    def _close_file(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class SessionWal:
    """The durability layer: spool files plus a pluggable checkpoint store.

    ``store`` defaults to a :class:`SqliteCheckpointStore` at
    ``wal_dir/sessions.db``; any :class:`CheckpointStore` implementation
    can be swapped in.  ``fsync=False`` trades durability for speed (used
    by benchmarks to isolate the spooling cost from the disk's sync cost
    where explicitly noted; the server default is always ``True``).
    """

    def __init__(self, wal_dir: Union[str, Path],
                 store: Optional[CheckpointStore] = None,
                 fsync: bool = True, metrics=NULL_METRICS) -> None:
        self.wal_dir = Path(wal_dir)
        self.wal_dir.mkdir(parents=True, exist_ok=True)
        self.store = store if store is not None else SqliteCheckpointStore(
            self.wal_dir / STORE_FILENAME)
        self.fsync = fsync
        self.metrics = metrics if metrics is not None else NULL_METRICS

    def spool_usage(self) -> dict:
        """On-disk spool footprint: ``{"spools": count, "bytes": total}``.

        Stats every ``*.spool`` file in ``wal_dir`` (the sqlite ledger is
        excluded — it is bookkeeping, not session payload), so STATS and
        ``wal inspect`` report the number an operator would get from
        ``du``.  Files vanishing mid-scan (concurrent recovery cleanup)
        are skipped rather than raised.
        """
        spools = 0
        total = 0
        for path in self.wal_dir.glob(f"*{_SPOOL_SUFFIX}"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
            spools += 1
        return {"spools": spools, "bytes": total}

    def spool_path(self, record: SessionRecord) -> Path:
        return self.wal_dir / record.spool

    def fsync_dir(self) -> None:
        """fsync the spool directory (new spool files survive a crash)."""
        fd = os.open(self.wal_dir, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def recover(self) -> WalRecovery:
        """Scan the ledger, truncate half-written tails, replay commits.

        Called once at server start (and by ``repro wal replay``).  Spool
        files with no ledger record hold only uncommitted frames by
        construction and are deleted.
        """
        # Reserved ledger rows (e.g. the privacy-budget spend record) own no
        # spool and are not sessions: they must not be truncated, replayed or
        # counted towards the single-k check.
        records = [record for record in self.store.scan()
                   if not is_reserved_record(record)]
        known = {record.spool for record in records}
        for stray in self.wal_dir.glob(f"*{_SPOOL_SUFFIX}"):
            if stray.name not in known:
                stray.unlink()
        recovery = WalRecovery()
        ks = {record.k for record in records if record.k is not None}
        if len(ks) > 1:
            raise ParameterError(
                f"wal dir {self.wal_dir} mixes sketch sizes {sorted(ks)}; "
                "one aggregation, one k — use a fresh --wal-dir per run")
        recovery.k = ks.pop() if ks else None
        for record in records:
            self._truncate_tail(record)
        for record in sorted(records, key=lambda r: (r.commit_seq is None,
                                                     r.commit_seq or 0)):
            if record.commit_seq is None:
                recovery.open_records.append(record)
                continue
            if self.spool_role(record) == "relay":
                entry = CommittedSession(
                    seq=record.commit_seq, ordinal=record.ordinal,
                    client=record.client or None, merger=None,
                    parts=tuple(self.replay_parts(record)))
            else:
                entry = CommittedSession(
                    seq=record.commit_seq, ordinal=record.ordinal,
                    client=record.client or None,
                    merger=self.replay_merger(record))
            recovery.committed.append(entry.compact())
            recovery.max_seq = max(recovery.max_seq, record.commit_seq)
        return recovery

    def _truncate_tail(self, record: SessionRecord) -> None:
        path = self.spool_path(record)
        if not path.exists():
            if record.committed_frames:
                raise FramingError(
                    f"checkpoint ledger commits {record.committed_frames} "
                    f"frame(s) of session {record.session_id} but its spool "
                    f"{path} is missing")
            return
        if path.stat().st_size > record.committed_bytes:
            os.truncate(path, record.committed_bytes)

    def spool_role(self, record: SessionRecord) -> Optional[str]:
        """The session role its spool header recorded (``None`` = client).

        The fixed 8-column ledger schema stays untouched: the role rides in
        the spool's framed stream header ``meta``, written once at attach
        time, so old spools (no role key) replay exactly as before.
        """
        path = self.spool_path(record)
        if not path.exists():
            return None
        with path.open("rb") as fileobj:
            meta = FrameReader(fileobj, raw=True).header.meta
        role = meta.get("role")
        return role if isinstance(role, str) else None

    def replay_parts(self, record: SessionRecord) -> List[StreamingMerger]:
        """Replay a relay spool's committed prefix into per-frame parts.

        Each spooled summary frame becomes its own single-summary merger
        (carrying the origin session's frame/stream-length accounting), in
        spool order — bit-identical to the parts the live relay session
        held.
        """
        if record.k is None:
            raise FramingError(
                f"session {record.session_id} committed frames but recorded "
                "no sketch size; ledger is corrupt")
        parts: List[StreamingMerger] = []
        if not record.committed_frames:
            return parts
        with open(self.spool_path(record), "rb") as spool:
            for index, body in enumerate(
                    replay_raw_frames(spool, record.committed_frames,
                                      what=f"spool {record.spool}")):
                payload = decode_payload_body(body, f"spool frame {index + 1}")
                parts.append(StreamingMerger(record.k).add_summary(payload))
        return parts

    def replay_merger(self, record: SessionRecord) -> StreamingMerger:
        """Fold the committed prefix of a spool into a fresh merger.

        Replays the exact bytes the live session folded, in the same order,
        through the same :meth:`StreamingMerger.add` path — the recovered
        summary is bit-identical to the one the crashed process held.
        """
        if record.k is None:
            raise FramingError(
                f"session {record.session_id} committed frames but recorded "
                "no sketch size; ledger is corrupt")
        merger = StreamingMerger(record.k)
        if not record.committed_frames:
            return merger
        with open(self.spool_path(record), "rb") as spool:
            for index, body in enumerate(
                    replay_raw_frames(spool, record.committed_frames,
                                      what=f"spool {record.spool}")):
                merger.add(decode_payload_body(body, f"spool frame {index + 1}"))
        return merger

    # ------------------------------------------------------------------
    # Session attach
    # ------------------------------------------------------------------

    def attach(self, ordinal: Optional[int], client: Optional[str],
               k: Optional[int], role: str = "client") -> SessionJournal:
        """Open (or resume) the journal for one session.

        Ordinal sessions are durable identities: an existing open record is
        resumed (tail truncated, committed prefix replayed); a completed
        record yields a ``complete=True`` journal whose committed count the
        HELLO ACK reports, and any further push is rejected.  Sessions with
        no ordinal get a throwaway identity — durable once committed, but
        not resumable.  ``role="relay"`` is stamped into the spool header so
        recovery replays the spooled summary frames into per-origin parts
        instead of one flat fold.
        """
        if ordinal is not None:
            session_id = f"ord:{ordinal}"
            spool = f"ord-{ordinal}{_SPOOL_SUFFIX}"
            record = self.store.get(session_id)
        else:
            token = uuid.uuid4().hex
            session_id = f"anon:{token}"
            spool = f"anon-{token}{_SPOOL_SUFFIX}"
            record = None
        if record is not None and record.commit_seq is not None:
            return SessionJournal(self, record, complete=True, durable=True)
        if record is not None:
            return self._resume(record, k, role)
        record = SessionRecord(session_id=session_id, ordinal=ordinal,
                               client=client or "", k=k, spool=spool)
        fileobj = open(self.spool_path(record), "wb")
        meta = {"wal_session": session_id}
        if role != "client":
            meta["role"] = role
        offset = write_stream_header(fileobj, k=k, meta=meta)
        fileobj.flush()
        return SessionJournal(self, record, fileobj=fileobj, offset=offset)

    def _resume(self, record: SessionRecord, k: Optional[int],
                role: str = "client") -> SessionJournal:
        if k is not None and record.k is not None and k != record.k:
            error = ProtocolError(
                f"session {record.session_id} resumed with k={k} but was "
                f"spooled at k={record.k}")
            error.code = "k_mismatch"
            raise error
        self._truncate_tail(record)
        path = self.spool_path(record)
        if not path.exists():
            # Open record whose spool vanished with nothing committed:
            # start the session over from scratch.
            self.store.delete(record.session_id)
            return self.attach(record.ordinal, record.client or None, k,
                               role=role)
        spooled_role = self.spool_role(record) or "client"
        if role != spooled_role:
            error = ProtocolError(
                f"session {record.session_id} was spooled with "
                f"role={spooled_role} but resumes with role={role}; one "
                "durable identity, one role")
            error.code = "role_mismatch"
            raise error
        if spooled_role == "relay":
            parts = (tuple(self.replay_parts(record))
                     if record.committed_frames else ())
            fileobj = open(path, "ab")
            return SessionJournal(self, record, fileobj=fileobj,
                                  offset=record.committed_bytes,
                                  frames=record.committed_frames,
                                  parts=parts, durable=True)
        merger = (self.replay_merger(record)
                  if record.committed_frames else None)
        fileobj = open(path, "ab")
        return SessionJournal(self, record, fileobj=fileobj,
                              offset=record.committed_bytes,
                              frames=record.committed_frames,
                              merger=merger, durable=True)

    def close(self) -> None:
        self.store.close()
