"""The benchmark's asyncio client: two connections, two streams.

* :class:`Conn` is one connection in either codec.  Requests are encoded
  with the service's own wire helpers; ids are unique across the client so
  a traced ``serve`` can match its spans to client-side timings.
* :func:`closed_loop` keeps one request outstanding at a time.
* :func:`open_loop` sends on a fixed schedule whether or not earlier
  replies have arrived, and times each request from when it was due.

Every operation becomes one :class:`Sample`.  A failed or refused
operation stays in the samples with ``ok=False``; the report counts it
against the attempts and treats it as missing every latency limit.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import time
from dataclasses import dataclass, field

from repro.service.protocol import (
    MAX_FRAME_BYTES,
    decode_binary_frame,
    encode_binary_frame,
    encode_frame,
)
from repro.service.wire import FRAME_HEADER, FRAME_REQUEST, PREAMBLE

#: CLOCK_MONOTONIC on Linux, so client and ``serve`` timestamps compare
now = time.perf_counter


class Deadline:
    """When both streams stop sending.  It starts open; the window's
    sampler sets it once the window holds enough usable sub-windows."""

    def __init__(self, t: float = math.inf):
        self.t = t


@dataclass
class Request:
    kind: str
    method: str
    params: dict
    tenant: str = "default"
    #: pool index for injects, op index for control/churn ops
    ref: int = -1
    #: the value a read must return
    expect: int | None = None
    #: the deploy/revoke cycle the request belongs to, or -1
    cycle: int = -1


@dataclass
class Sample:
    kind: str
    due: float
    sent: float
    done: float = 0.0
    ok: bool = False
    rpc_id: int = 0
    ref: int = -1
    result: dict | None = None
    error: str | None = None
    request: Request | None = None
    #: CPU seconds the ``serve`` tree ran while the request was outstanding
    cpu_s: float | None = None

    @property
    def latency_ms(self) -> float:
        """From when the request was due (open loop) or sent (closed)."""
        return (self.done - self.due) * 1e3

    @property
    def rtt_ms(self) -> float:
        return (self.done - self.sent) * 1e3


class Conn:
    _ids = itertools.count(1)

    def __init__(self, port: int, codec: str):
        self.port = port
        self.codec = codec
        self.reader = self.writer = None

    async def open(self) -> "Conn":
        self.reader, self.writer = await asyncio.open_connection(
            "127.0.0.1", self.port, limit=MAX_FRAME_BYTES)
        if self.codec == "binary":
            self.writer.write(PREAMBLE)
        return self

    async def send(self, request: Request, due: float | None = None) -> Sample:
        rpc_id = next(Conn._ids)
        payload = {"id": rpc_id, "tenant": request.tenant, "method": request.method,
                   "params": request.params}
        if self.codec == "binary":
            data = encode_binary_frame(FRAME_REQUEST, payload)
        else:
            data = encode_frame(payload)
        sent = now()
        sample = Sample(request.kind, sent if due is None else due, sent,
                        rpc_id=rpc_id, ref=request.ref, request=request)
        self.writer.write(data)
        await self.writer.drain()
        return sample

    async def receive(self, sample: Sample) -> Sample:
        if self.codec == "binary":
            header = await self.reader.readexactly(FRAME_HEADER.size)
            _kind, length = FRAME_HEADER.unpack(header)
            response = decode_binary_frame(header + await self.reader.readexactly(length))
        else:
            line = await self.reader.readline()
            if not line:
                raise ConnectionError("connection closed by serve")
            response = json.loads(line)
        sample.done = now()
        if response.get("id") != sample.rpc_id:
            raise ConnectionError(
                f"reply id {response.get('id')} for request {sample.rpc_id}")
        if response.get("ok"):
            sample.ok = True
            sample.result = response.get("result")
        else:
            error = response.get("error") or {}
            sample.error = f"{error.get('code')}: {error.get('message')}"
        return sample

    async def call(self, request: Request) -> Sample:
        return await self.receive(await self.send(request))

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def closed_loop(conn: Conn, next_requests, deadline: Deadline, mark_at: int = 0,
                      mark=None, cpu=None) -> list[Sample]:
    """Send what the async generator ``next_requests(samples)`` yields, one
    request at a time, until ``deadline``.  The generator sees every
    finished sample, so a revoke can use the id its deploy returned.
    ``mark()`` is called once ``mark_at`` requests have been answered.
    ``cpu()``, if given, is read around each deploy for ``Sample.cpu_s``."""
    samples: list[Sample] = []
    async for request in next_requests(samples):
        if now() >= deadline.t:
            break
        cpu0 = cpu() if cpu is not None and request.kind == "deploy" else None
        samples.append(await conn.call(request))
        if cpu0 is not None:
            samples[-1].cpu_s = cpu() - cpu0
        if len(samples) == mark_at and mark is not None:
            mark()
    return samples


@dataclass
class OpenLoopReport:
    samples: list[Sample] = field(default_factory=list)
    lateness_s: list[float] = field(default_factory=list)


async def open_loop(conn: Conn, make_request, interval_s: float, start: float,
                    deadline: Deadline, drain_s: float = 10.0) -> OpenLoopReport:
    """Send ``await make_request(k)`` at ``start + k * interval_s`` until
    ``deadline``; a reader task pairs replies with requests in order.
    Requests still unanswered ``drain_s`` after the deadline stay failed."""
    report = OpenLoopReport()
    pending: asyncio.Queue = asyncio.Queue()

    async def reader() -> None:
        while True:
            sample = await pending.get()
            if sample is None:
                return
            await conn.receive(sample)

    reader_task = asyncio.create_task(reader())
    try:
        for k in itertools.count():
            due = start + k * interval_s
            if due >= deadline.t:
                break
            delay = due - now()
            if delay > 0:
                await asyncio.sleep(delay)
                if due >= deadline.t:
                    break
            request = await make_request(k)
            sample = await conn.send(request, due)
            report.lateness_s.append(sample.sent - due)
            report.samples.append(sample)
            pending.put_nowait(sample)
            if reader_task.done():
                break
        pending.put_nowait(None)
        await asyncio.wait_for(asyncio.shield(reader_task), timeout=drain_s)
    except asyncio.TimeoutError:
        pass
    finally:
        if not reader_task.done():
            reader_task.cancel()
            try:
                await reader_task
            except asyncio.CancelledError:
                pass
    return report
