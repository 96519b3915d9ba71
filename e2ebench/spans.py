"""Span recording around each layer's public functions (the traced run).

:func:`install` replaces the functions below with timing wrappers, in the
cluster-host process before ``ShardCluster.start()`` forks its worker, so
the worker inherits them.  Spans stay in memory, folded into 100 ms buckets
keyed by ``(span, root, outer, bucket)``:

* ``root`` is the label of the outermost traced span on the thread's stack
  when the span ran (``server.publish:tau1``, ``server.commit``, ...), so a
  query's time can be charged to the request that caused it;
* ``outer`` is false when the parent span belongs to the same layer (a
  ``QueryPlan.execute`` inside another), so layer totals are not counted
  twice;
* each bucket holds ``[calls, total s, self s, extra]``, where self time is
  the span minus the time its child spans cover and ``extra`` is a
  per-span count (rows returned, fsyncs issued).

A worker writes its buckets to ``<out>/spans-<pid>.json`` when its
``NetServer.stop`` runs.  Bucket times are ``time.perf_counter`` values,
which are system-wide on Linux, so the load generator can cut the timed
window out of them.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from pathlib import Path

BUCKET_S = 0.1


class SpanRecorder:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.buckets: dict[tuple, list] = {}

    def wrap(self, owner, attr: str, name: str, *, label=None, before=None, extra=None):
        """Replace ``owner.attr`` with a timing wrapper recording span ``name``.

        ``label(args)`` names the span as a root (default: ``name``);
        ``before(args)`` is evaluated before the call and handed to
        ``extra(args, result, token)``, whose number is added to the bucket.
        """
        original = getattr(owner, attr)
        layer = name.split(".", 1)[0]
        recorder = self
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            frame = [0.0, label(args) if label is not None and parent is None else name, layer]
            stack.append(frame)
            token = before(args) if before is not None else None
            start = clock()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[0] += duration
                root = stack[0][1] if stack else frame[1]
                outer = parent is None or parent[2] != layer
                count = extra(args, result, token) if extra is not None else 0
                key = (name, root, outer, int(start / BUCKET_S))
                with recorder._lock:
                    cell = recorder.buckets.get(key)
                    if cell is None:
                        cell = recorder.buckets[key] = [0, 0.0, 0.0, 0]
                    cell[0] += 1
                    cell[1] += duration
                    cell[2] += duration - frame[0]
                    cell[3] += count

        setattr(owner, attr, traced)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def dump(self, path: Path) -> None:
        with self._lock:
            rows = [list(key) + cell for key, cell in self.buckets.items()]
        path.write_text(json.dumps(rows))


def _view_label(args) -> str:
    view = args[1]
    return f"server.publish:{view if isinstance(view, str) else view.name}"


def _rows(args, result, token) -> int:
    if isinstance(result, frozenset):
        return len(result)
    return len(result.added) + len(result.removed)  # a QueryDelta


def install(out_dir: Path) -> SpanRecorder:
    """Wrap every traced layer function; workers dump spans on stop."""
    from repro.engine import emit
    from repro.engine.plan import PublishingPlan
    from repro.query.plan import QueryPlan
    from repro.serve.net import app, protocol
    from repro.serve.net.app import NetServer
    from repro.serve.net.wal import DeltaLog
    from repro.serve.server import SourceHandle, ViewServer

    recorder = SpanRecorder()
    wrap = recorder.wrap
    wrap(ViewServer, "publish", "server.publish", label=_view_label)
    wrap(SourceHandle, "commit", "server.commit")
    wrap(PublishingPlan, "publish_bytes", "engine.publish_bytes")
    wrap(PublishingPlan, "republish", "engine.republish")
    # publish_bytes imports render_document at call time, so patching the
    # module attribute reaches it.
    wrap(emit, "render_document", "emit.render_document")
    for method in ("execute", "execute_encoded", "execute_delta"):
        wrap(QueryPlan, method, f"query.{method}", extra=_rows)
    wrap(
        DeltaLog,
        "append",
        "wal.append",
        before=lambda args: args[0].stats()["fsyncs"],
        extra=lambda args, result, fsyncs: args[0].stats()["fsyncs"] - fsyncs,
    )
    # The network tier looks these up in its own module namespace.
    wrap(app, "delta_from_wire", "wire.decode")
    wrap(app, "canonical_json", "wire.encode")
    wrap(app, "render_response", "protocol.render_response")
    wrap(app, "json_response", "protocol.json_response")
    wrap(protocol, "ws_text_frame", "protocol.ws_text_frame")

    stop = NetServer.stop

    @functools.wraps(stop)
    async def stop_and_dump(self) -> None:
        await stop(self)
        recorder.dump(out_dir / f"spans-{os.getpid()}.json")

    NetServer.stop = stop_and_dump
    return recorder


def load(out_dir: Path, start: float, end: float) -> dict[tuple, list]:
    """Sum every dumped bucket inside ``[start, end)`` by (span, root, outer)."""
    totals: dict[tuple, list] = {}
    first, last = int(start / BUCKET_S), int(end / BUCKET_S)
    for path in sorted(out_dir.glob("spans-*.json")):
        for name, root, outer, bucket, calls, total, own, count in json.loads(path.read_text()):
            if not first <= bucket < last:
                continue
            cell = totals.setdefault((name, root, outer), [0, 0.0, 0.0, 0])
            cell[0] += calls
            cell[1] += total
            cell[2] += own
            cell[3] += count
    return totals
