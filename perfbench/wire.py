"""A minimal JSON-lines connection to the serving front-end.

The benchmark speaks the v1 wire protocol itself (one JSON object per
line, ``{"v": 1, "type": ..., "seq": ...}``) rather than through the
library's client, so that every reply it checks is decoded by code apart
from the program and every pushed decision can be counted.  One request
is in flight per connection at a time: a deployer waits for its answer.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any

PROTOCOL_VERSION = 1
LINE_LIMIT = 8 * 1024 * 1024
#: A reply slower than this counts as missing.
REPLY_TIMEOUT_S = 60.0


class WireError(Exception):
    """The server answered a request with an error reply."""


class ProtocolViolation(Exception):
    """The server broke the protocol: a missing, extra or out-of-order line.

    Not a failed operation: the run is incorrect, and the connection is
    off by at least one line, so the run stops.
    """


class Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._seq = 0

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=LINE_LIMIT)
        return cls(reader, writer)

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass

    async def _send(self, kind: str, fields: dict[str, Any]) -> int:
        self._seq += 1
        doc = {"v": PROTOCOL_VERSION, "type": kind, **fields, "seq": self._seq}
        self._writer.write(json.dumps(doc).encode() + b"\n")
        await self._writer.drain()
        return self._seq

    async def _read(self) -> dict[str, Any]:
        try:
            line = await asyncio.wait_for(self._reader.readline(), REPLY_TIMEOUT_S)
        except asyncio.TimeoutError:
            raise ProtocolViolation(f"no reply within {REPLY_TIMEOUT_S} s") from None
        if not line:
            # Not a failed operation: the run cannot go on without its server.
            raise ConnectionResetError("server closed the connection")
        return json.loads(line)

    async def _reply(self, seq: int, expected: str) -> dict[str, Any]:
        doc = await self._read()
        if doc.get("type") == "error":
            raise WireError(f"{doc.get('code')}: {doc.get('message')}")
        if doc.get("type") != expected or doc.get("seq") != seq:
            raise ProtocolViolation(f"expected {expected} #{seq}, got {doc.get('type')} #{doc.get('seq')}")
        return doc

    async def submit(self, fields: dict[str, Any]) -> tuple[dict[str, Any], float]:
        """Submit one app and wait for its decision; (decision, seconds).

        The time runs from just before the submit line is written to just
        after the pushed ``decision`` line is read.  The submit ack and the
        decision may arrive in either order.  An error reply raises
        :class:`WireError`; any other line, or a second decision, raises
        :class:`ProtocolViolation`.
        """
        start = time.perf_counter()
        seq = await self._send("submit", fields)
        acked = decided = None
        while acked is None or decided is None:
            doc = await self._read()
            kind = doc.get("type")
            if kind == "error":
                raise WireError(f"{doc.get('code')}: {doc.get('message')}")
            if doc.get("seq") != seq or kind not in ("submit_reply", "decision"):
                raise ProtocolViolation(f"submit #{seq} got {kind} #{doc.get('seq')}")
            if (decided if kind == "decision" else acked) is not None:
                raise ProtocolViolation(f"second {kind} for submit #{seq}")
            if kind == "decision":
                decided = doc
            else:
                acked = doc
        return decided, time.perf_counter() - start

    async def withdraw(self, app_id: str) -> float:
        start = time.perf_counter()
        seq = await self._send("withdraw", {"app_id": app_id})
        await self._reply(seq, "withdraw_reply")
        return time.perf_counter() - start

    async def refused_as_duplicate(self, fields: dict[str, Any]) -> bool:
        """Resubmit an id the server holds; True when refused as duplicate."""
        seq = await self._send("submit", fields)
        doc = await self._read()
        return doc.get("type") == "error" and doc.get("code") == "duplicate" and doc.get("seq") == seq

    async def status(self) -> dict[str, Any]:
        seq = await self._send("status", {})
        return await self._reply(seq, "status_reply")

    async def idle(self, timeout: float) -> bool:
        """True when nothing more arrives within ``timeout`` seconds."""
        try:
            line = await asyncio.wait_for(self._reader.readline(), timeout)
        except asyncio.TimeoutError:
            return True
        return not line
