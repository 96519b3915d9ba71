"""The open-loop load generator: asyncio streams over keep-alive sockets.

Each stream owns one connection and walks a precomputed schedule of due
times.  A request is sent when it falls due, or as soon as the connection
is free if an earlier request ran late; its latency is measured from the
due time to the last byte of the answer, so a stall is charged to every
request it delays.  The generator's own lateness -- how long after the
later of its due time and the end of the stream's previous request a
request went out -- is kept apart as ``sent - ready``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from dataclasses import dataclass, field

from mix import PRUNE_EVERY, PRUNE_KEEP
from repro.serve.net import protocol
from repro.serve.net.client import AsyncSubscriber

clock = time.perf_counter


@dataclass
class Sample:
    cls: str  # "read", "commit", "fresh" or "prune"
    due: float
    ready: float  # max(due, end of the stream's previous request)
    sent: float
    done: float | None  # None when the request failed
    route: str = "router"  # "router" or "direct" (traced reads only)

    @property
    def latency(self) -> float:
        return self.done - self.due


@dataclass
class Record:
    """Everything the window produced, for metrics and the oracle checks."""

    samples: list[Sample] = field(default_factory=list)
    #: (namespace, view, version, indent) -> sha256 hex digests of 200 bodies
    bodies: dict[tuple, set] = field(default_factory=dict)
    #: namespace -> versions acknowledged by commits, in order
    acked: dict[str, list] = field(default_factory=dict)
    #: (namespace, version) -> due time of its commit, for delivery latency
    commit_due: dict[tuple, float] = field(default_factory=dict)
    #: why requests failed (each failed request is a sample with done=None)
    errors: list[str] = field(default_factory=list)
    #: check failures found after the window
    problems: list[str] = field(default_factory=list)

    def body(self, key: tuple, data: bytes) -> None:
        self.bodies.setdefault(key, set()).add(hashlib.sha256(data).hexdigest())


class Connection:
    """One keep-alive HTTP/1.1 connection speaking the server's own framing."""

    def __init__(self, address) -> None:
        self.address = tuple(address)
        self._reader = self._writer = None

    async def request(self, method: str, target: str, headers=None, body: bytes = b""):
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                *self.address, limit=protocol.STREAM_LIMIT
            )
        self._writer.write(protocol.render_request(method, target, headers, body))
        await self._writer.drain()
        return await protocol.read_response(self._reader)

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None


async def _sleep_until(at: float) -> None:
    delay = at - clock()
    if delay > 0:
        await asyncio.sleep(delay)


def publish_target(ns: str, view: str, indent, version=None) -> str:
    target = f"/v1/ns/{ns}/views/{view}/publish?indent={'none' if indent is None else indent}"
    if version is not None:
        target += f"&version={version}"
    return target


async def read_stream(connections, t0, schedule, docs, etags, ns, record: Record) -> None:
    """Reads of ``docs``; ``connections`` alternate per request (router, direct)."""
    routes = ("router", "direct")
    free = t0
    for index, (offset, doc, conditional) in enumerate(schedule):
        due = t0 + offset
        await _sleep_until(due)
        slot = index % len(connections)
        view, indent = docs[doc]
        headers = {"If-None-Match": etags[doc]} if conditional else None
        sent = clock()
        sample = Sample("read", due, max(due, free), sent, None, routes[slot])
        try:
            status, head, body = await connections[slot].request(
                "GET", publish_target(ns, view, indent), headers
            )
        except (OSError, protocol.ProtocolError, asyncio.IncompleteReadError) as error:
            record.errors.append(f"read {ns}/{view}: {error}")
            record.samples.append(sample)
            continue
        sample.done = free = clock()
        record.samples.append(sample)
        version = int(head.get("x-source-version", -1))
        if status == 200:
            record.body((ns, view, version, indent), body)
        elif status != 304:
            sample.done = None
            record.errors.append(f"read {ns}/{view}: HTTP {status}")
        if version != 0:
            sample.done = None
            record.errors.append(f"read {ns}/{view}: version {version}, expected 0")


async def pair_stream(connection, t0, schedule, bodies, first, ns, source, record) -> None:
    """Commit-then-publish pairs; ``bodies[i]`` creates version ``first + i``."""
    acked = record.acked.setdefault(ns, [])
    commit_path = f"/v1/ns/{ns}/sources/{source}/commit"
    json_type = {"Content-Type": "application/json"}
    free = t0
    for index, offset in enumerate(schedule):
        due = t0 + offset
        await _sleep_until(due)
        expected = first + index
        record.commit_due[(ns, expected)] = due
        sent = clock()
        commit = Sample("commit", due, max(due, free), sent, None)
        record.samples.append(commit)
        try:
            status, _, body = await connection.request("POST", commit_path, json_type, bodies[index])
        except (OSError, protocol.ProtocolError, asyncio.IncompleteReadError) as error:
            record.errors.append(f"commit {ns}: {error}")
            return  # later versions would be numbered differently
        if status != 200 or json.loads(body)["version"] != expected:
            record.errors.append(f"commit {ns}: HTTP {status} {body[:200]!r}")
            return
        commit.done = clock()
        acked.append(expected)
        fresh = Sample("fresh", commit.done, commit.done, commit.done, None)
        record.samples.append(fresh)
        try:
            status, head, body = await connection.request(
                "GET", publish_target(ns, "tau1", 2, expected)
            )
        except (OSError, protocol.ProtocolError, asyncio.IncompleteReadError) as error:
            record.errors.append(f"fresh {ns}: {error}")
            continue
        if status == 200 and int(head.get("x-source-version", -1)) == expected:
            fresh.done = clock()
            record.body((ns, "tau1", expected, 2), body)
        else:
            record.errors.append(f"fresh {ns}: HTTP {status} for version {expected}")
        if expected % PRUNE_EVERY == 0:
            await prune(connection, ns, source, record)
        free = clock()


async def prune(connection, ns, source, record) -> None:
    now = clock()
    sample = Sample("prune", now, now, now, None)
    record.samples.append(sample)
    body = json.dumps({"keep_last": PRUNE_KEEP}).encode()
    try:
        status, _, _ = await connection.request(
            "POST", f"/v1/ns/{ns}/sources/{source}/prune",
            {"Content-Type": "application/json"}, body,
        )
    except (OSError, protocol.ProtocolError, asyncio.IncompleteReadError) as error:
        record.errors.append(f"prune {ns}: {error}")
        return
    if status == 200:
        sample.done = clock()
    else:
        record.errors.append(f"prune {ns}: HTTP {status}")


class Subscriber:
    """A WebSocket subscription on ``ns``'s tau3 that logs every frame."""

    def __init__(self, ns: str) -> None:
        self.ns = ns
        self.init: dict | None = None
        self.frames: list[tuple[float, dict]] = []
        self._socket = None
        self._task = None
        self.error: str | None = None

    async def open(self, address) -> None:
        path = f"/v1/ns/{self.ns}/views/tau3/subscribe"
        self._socket = await AsyncSubscriber.open(*address, path)
        self.init = await self._socket.recv()
        self._task = asyncio.ensure_future(self._pump())

    async def _pump(self) -> None:
        try:
            while True:
                message = await self._socket.recv()
                self.frames.append((clock(), message))
        except (ConnectionError, asyncio.IncompleteReadError, protocol.ProtocolError) as error:
            self.error = str(error)

    def version(self) -> int:
        return self.frames[-1][1]["version"] if self.frames else self.init["version"]

    async def wait_for(self, version: int, timeout: float) -> None:
        deadline = clock() + timeout
        while self.version() < version and clock() < deadline and self.error is None:
            await asyncio.sleep(0.01)

    async def close(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._socket.close()
