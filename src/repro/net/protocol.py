"""The aggregation control protocol: framed control verbs over a socket.

The transport is the PR-4 framed container (:mod:`repro.api.framing`) spoken
symmetrically in both directions of a TCP or Unix-domain connection.  Each
direction opens with the 5-byte stream prefix (magic + container version)
and a ``frame_header`` JSON frame, exactly like a packed file; after that,
frames are either wire-v2 payload envelopes (JSON ``{`` or binary columnar
``0x01`` bodies) or *control frames* — tag ``0x02`` followed by a UTF-8 JSON
object carrying a string ``verb``:

========  =========  =====================================================
verb      direction  meaning
========  =========  =====================================================
hello     c -> s     open a session; fields: ``k`` (sketch size, optional
                     if the server already knows its k), ``ordinal``
                     (optional int: this client's position in the canonical
                     release order — and, when the server runs a write-ahead
                     log, the session's durable identity: re-HELLOing with
                     the same ordinal resumes the spooled session), ``client``
                     (optional display name), ``role`` (optional;
                     ``"relay"`` marks each pushed frame as one downstream
                     origin session's summary, folded into its own release
                     part — only accepted by servers started with
                     ``accept_relays``, else rejected with
                     ``relay_not_accepted``; a WAL resume that disagrees
                     with the spooled role is rejected with
                     ``role_mismatch``), and ``token`` (shared session
                     secret; mandatory for every role — client and relay
                     alike — when the server runs ``--auth-token``, checked
                     in constant time before any server state is touched;
                     missing/wrong tokens are rejected with ``auth_failed``)
push      c -> s     announce ``frames`` payload frames, which follow
                     immediately; the server folds each into the session's
                     :class:`~repro.api.framing.StreamingMerger` on arrival
release   c -> s     trigger the private release; fields: ``seed``
                     (optional int rng seed).  Answered with one payload
                     frame: the released histogram as a wire-v2
                     ``private_histogram`` envelope
stats     c -> s     ask for aggregate counters; answered with a ``stats``
                     control frame
bye       c -> s     commit the session and close (a clean EOF after HELLO
                     commits too; ``bye`` additionally gets an ``ok`` ack
                     so the client *knows* its frames were committed)
ok        s -> c     positive acknowledgement; ``re`` names the acked verb.
                     With a write-ahead log the ``re: hello`` ack also
                     carries ``committed`` (frames already durable for this
                     ordinal — the client skips that many on resume instead
                     of double-pushing) and ``complete`` (true when the
                     session already ended cleanly; further pushes are
                     rejected), and a ``re: push`` ack is sent only after
                     the burst is fsync-durable
error     s -> c     the session is rejected; ``code`` is machine-readable
                     (``k_mismatch``, ``bad_verb``, ``nothing_to_release``,
                     ``timeout``, ``ordinal_active``, ``session_complete``,
                     ``relay_not_accepted``, ``role_mismatch``,
                     ``auth_failed``, ``quota_exceeded``,
                     ``budget_exhausted`` — the privacy accountant refuses a
                     RELEASE whose composed spend would exceed the
                     configured budget —
                     ``pure_dp_release_unsupported``, ...),
                     ``message`` human-readable.  The server closes
                     the connection but keeps serving other sessions
stats     s -> c     the ``stats`` reply
========  =========  =====================================================

The session state machine lives in :mod:`repro.net.session`; this module
provides address parsing and :class:`FrameChannel`, the asyncio send/receive
half shared by server and client.  All reads are bounded (at most
``chunk_size`` bytes per read, frame lengths capped by
``MAX_FRAME_BYTES``), so a malicious peer cannot make either side allocate
unbounded memory, and slow consumers exert normal TCP backpressure.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple, Union

from ..api import framing
from ..api.framing import FrameHeader, MAGIC
from ..api.wire import WirePayload
from ..exceptions import FramingError, ParameterError

#: Control verbs (client -> server).
HELLO = "hello"
PUSH = "push"
RELEASE = "release"
STATS = "stats"
BYE = "bye"

#: Control verbs (server -> client).
OK = "ok"
ERROR = "error"

#: Default per-read ceiling of :class:`FrameChannel` (bytes).
DEFAULT_CHUNK_SIZE = 1 << 16


@dataclass(frozen=True)
class Address:
    """A parsed aggregator endpoint: TCP host/port or a Unix socket path."""

    kind: str  # "tcp" | "unix"
    host: Optional[str] = None
    port: Optional[int] = None
    path: Optional[str] = None

    def __str__(self) -> str:
        if self.kind == "unix":
            return f"unix:{self.path}"
        return f"{self.host}:{self.port}"


def parse_address(address: Union[str, Address]) -> Address:
    """Parse ``"host:port"``, ``":port"`` or ``"unix:/path"`` endpoints."""
    if isinstance(address, Address):
        return address
    if not isinstance(address, str) or not address:
        raise ParameterError(f"expected 'host:port' or 'unix:/path', got {address!r}")
    if address.startswith("unix:"):
        path = address[len("unix:"):]
        if not path:
            raise ParameterError("unix socket address needs a path: unix:/some/path")
        return Address(kind="unix", path=path)
    host, separator, port = address.rpartition(":")
    if not separator or not port.isdigit():
        raise ParameterError(
            f"expected 'host:port' or 'unix:/path', got {address!r}")
    return Address(kind="tcp", host=host or "127.0.0.1", port=int(port))


async def open_channel(address: Union[str, Address],
                       chunk_size: int = DEFAULT_CHUNK_SIZE) -> "FrameChannel":
    """Connect to an aggregator endpoint and wrap the streams in a channel."""
    target = parse_address(address)
    if target.kind == "unix":
        reader, writer = await asyncio.open_unix_connection(target.path)
    else:
        reader, writer = await asyncio.open_connection(target.host, target.port)
    return FrameChannel(reader, writer, chunk_size=chunk_size)


class FrameChannel:
    """One direction-pair of the framed protocol over asyncio streams.

    Sending never buffers more than one frame before ``drain()`` (payload
    frames are encoded once, written, and awaited), and receiving issues
    only bounded reads — at most ``chunk_size`` bytes each — so
    both sides stay within one frame plus ``O(chunk)`` of live memory per
    connection regardless of what the peer sends.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                 chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        self._reader = reader
        self._writer = writer
        self._chunk_size = chunk_size

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    async def send_prefix(self, header: FrameHeader) -> None:
        """Open this direction: stream prefix plus the header frame."""
        self._writer.write(framing.stream_prefix()
                           + framing.encode_json_frame(header.as_dict()))
        await self._writer.drain()

    async def send_control(self, verb: str, **fields: object) -> None:
        """Send one control frame (tag 0x02)."""
        message: Dict[str, object] = {"verb": verb}
        message.update(fields)
        self._writer.write(framing.encode_control_frame(message))
        await self._writer.drain()

    async def send_payload(self, payload: Union[Mapping, WirePayload]) -> None:
        """Send one wire-v2 envelope as a payload frame (binary when integer)."""
        self._writer.write(framing.encode_payload_frame(payload))
        await self._writer.drain()

    async def send_raw_frame(self, body: bytes) -> None:
        """Forward an already-encoded frame body verbatim (pass-through push)."""
        self._writer.write(framing.encode_frame(body))
        await self._writer.drain()

    async def send_bytes(self, data: bytes) -> None:
        """Write pre-framed bytes (length prefix included) and drain."""
        self._writer.write(data)
        await self._writer.drain()

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------

    async def _read_exact(self, count: int, what: str) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            try:
                chunk = await self._reader.readexactly(
                    min(remaining, self._chunk_size))
            except asyncio.IncompleteReadError as error:
                raise FramingError(
                    f"truncated {what}: expected {count} bytes, got "
                    f"{count - remaining + len(error.partial)} "
                    "(peer closed mid-frame?)") from None
            chunks.append(chunk)
            remaining -= len(chunk)
        return chunks[0] if len(chunks) == 1 else b"".join(chunks)

    async def read_prefix(self) -> FrameHeader:
        """Read the peer's stream prefix and header frame."""
        framing.check_stream_prefix(
            await self._read_exact(len(MAGIC) + 1, "magic header"))
        body = await self._read_frame_bytes("header frame")
        return framing.parse_header_body(body)

    async def _read_frame_bytes(self, what: str) -> Optional[bytes]:
        """The next frame body, or ``None`` at a clean end of stream."""
        try:
            prefix = await self._reader.readexactly(framing._LENGTH.size)
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None
            raise FramingError(
                f"truncated length prefix before {what}: got "
                f"{len(error.partial)} bytes (peer closed mid-frame?)") from None
        (length,) = framing._LENGTH.unpack(prefix)
        if length > framing.MAX_FRAME_BYTES:
            raise FramingError(
                f"frame length {length} exceeds "
                f"MAX_FRAME_BYTES={framing.MAX_FRAME_BYTES}")
        return await self._read_exact(length, what)

    async def next_event(self, include_body: bool = False) -> Tuple:
        """The next frame as ``(kind, value)``.

        ``("control", message_dict)`` for control frames, ``("payload",
        WirePayload)`` for envelope frames, ``("eof", None)`` at a clean end
        of stream.  Malformed frames raise :class:`FramingError`.

        ``include_body=True`` appends the verbatim frame body (``None`` at
        EOF) as a third element — the write-ahead log spools those exact
        bytes, tag preserved, before the payload is folded.
        """
        body = await self._read_frame_bytes("frame")
        if body is None:
            event: Tuple = ("eof", None)
        elif body[:1] == bytes([framing.CONTROL_FRAME_TAG]):
            event = ("control", framing.decode_control_body(body))
        else:
            event = ("payload", framing.decode_payload_body(body))
        return event + (body,) if include_body else event

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def drain_incoming(self, limit_bytes: int = 1 << 20) -> None:
        """Discard inbound bytes until EOF (or a byte cap).

        Closing a socket with unread inbound data sends a TCP RST, which can
        destroy an in-flight reply (e.g. the server's ERROR frame) before
        the peer reads it.  The rejecting side calls this after its last
        frame so the close is graceful.
        """
        consumed = 0
        while consumed < limit_bytes:
            chunk = await self._reader.read(self._chunk_size)
            if not chunk:
                return
            consumed += len(chunk)

    @property
    def peername(self) -> str:
        info = self._writer.get_extra_info("peername")
        if info is None:
            info = self._writer.get_extra_info("sockname", "?")
        return str(info)

    def write_eof(self) -> None:
        """Half-close: signal the peer this direction is done."""
        if self._writer.can_write_eof():
            self._writer.write_eof()

    async def close(self) -> None:
        """Close the underlying transport (both directions)."""
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
