"""End-to-end serving benchmark: NetClient -> ShardRouter -> worker -> engine.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload cached_reads --seed 1 --seconds 25 --trace 0

Each run sets the cluster up ``SETUP_REPS`` times (the last one serves the
run), warms it, drives the workload's phases open loop for ``--seconds``,
then checks every answer against the row-kernel oracle, kills and respawns
the worker to check WAL recovery, and prints a report.  The last line of
standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A traced run
drives the workload twice, untraced and then traced, so the tracing
overhead is measured against the same traffic.  The exit code is 1 when
any check fails and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import hashlib
import json
import os
import platform
import random
import select
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
WARMUP_S = 0.6
clock = time.perf_counter


class BenchError(RuntimeError):
    """A failure that ends the run without a result."""


# ---------------------------------------------------------------------------
# The cluster-host process.
# ---------------------------------------------------------------------------


class Host:
    """``host.py`` in a child process, one JSON line per command."""

    def __init__(self, run_dir: Path, trace: bool) -> None:
        self.run_dir = run_dir
        run_dir.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "host.py"), str(run_dir), "1" if trace else "0"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=env,
            start_new_session=True,  # kill() reaches the forked worker too
        )
        try:
            self.router = tuple(self._reply()["router"])
        except BenchError:
            self.kill()
            raise

    def _reply(self, timeout: float = 60.0) -> dict:
        ready, _, _ = select.select([self._proc.stdout], [], [], timeout)
        line = self._proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError("the cluster host exited or stopped answering")
        return json.loads(line)

    def command(self, name: str) -> dict:
        self._proc.stdin.write(name + "\n")
        self._proc.stdin.flush()
        return self._reply()

    def stop(self) -> float:
        """Stop the cluster; the worker's peak RSS in MB."""
        rss = self.command("stop")["rss_mb"]
        self._proc.wait(timeout=30)
        return rss

    def kill(self) -> None:
        """Kill the host and its worker, and wait until both have ended."""
        try:
            os.killpg(self._proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self._proc.wait(timeout=30)
        deadline = clock() + 10
        while clock() < deadline:
            try:
                os.killpg(self._proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)

    def wal_bytes(self) -> int:
        return sum(path.stat().st_size for path in (self.run_dir / "wal").rglob("wal-*.log"))


# ---------------------------------------------------------------------------
# One pass: set-up, warm-up, timed window, checks.
# ---------------------------------------------------------------------------


@dataclass
class PhaseInputs:
    spec: Any  # the mix.Phase
    reads: list | None  # read schedule of the timed window
    pairs: list | None  # pair schedule of the timed window
    warm_reads: list | None
    warm_pairs: list | None


class Inputs:
    """Everything drawn from the seed, generated before the program starts."""

    def __init__(self, workload, seed: int, seconds: float) -> None:
        import mix

        rng = random.Random(seed)
        self.bases = {t.namespace: mix.base_instance(t) for t in workload.tenants}
        self.phases: list[PhaseInputs] = []
        feeds: dict[str, mix.DeltaFeed] = {}
        for phase in workload.phases:
            item = PhaseInputs(phase, None, None, None, None)
            if phase.reads is not None:
                item.reads = mix.read_schedule(phase.reads, phase.share * seconds, rng)
                item.warm_reads = mix.read_schedule(phase.reads, WARMUP_S, rng)
            if phase.pairs is not None:
                item.pairs = mix.pair_schedule(phase.pairs, phase.share * seconds, rng)
                item.warm_pairs = mix.pair_schedule(phase.pairs, WARMUP_S, rng)
                ns = phase.pairs.tenant.namespace
                feed = feeds.setdefault(ns, mix.DeltaFeed(self.bases[ns], random.Random(seed)))
                feed.extend(len(item.pairs) + len(item.warm_pairs))
            self.phases.append(item)
        self.deltas = {ns: feed.deltas for ns, feed in feeds.items()}
        self.bodies = {ns: [mix.wire_body(d) for d in deltas] for ns, deltas in self.deltas.items()}


class Pass:
    """One cluster driven through one workload."""

    def __init__(
        self, workload, inputs: Inputs, run_dir: Path, *, trace: bool, split: bool, reps: int
    ) -> None:
        self.workload = workload
        self.inputs = inputs
        self.run_dir = run_dir
        self.trace = trace
        self.split = split  # reads alternate between the router and the worker
        self.reps = reps
        self.setup_s: list[float] = []
        self.host: Host | None = None
        self.worker = None  # the shard worker's own address
        self.version = {ns: 0 for ns in inputs.deltas}
        self.subscribers = {}
        self.etags = {}
        self.stats = []  # counter snapshots around each phase (traced passes)
        self.rss_mb = None
        self.window = None
        self.phase_windows = []
        self.wal_growth = 0
        self.check_s = None  # time the body check took after the window

    # -- set-up --------------------------------------------------------------

    def set_up(self, record) -> None:
        """Start the cluster ``reps`` times, timing each; keep the last one."""
        from mix import SOURCE
        from repro.serve.net import NetClient

        for rep in range(self.reps):
            if self.host is not None:
                self.host.stop()
            start = clock()
            self.host = Host(self.run_dir / f"cluster{rep}", bool(self.trace))
            for tenant in self.workload.tenants:
                with NetClient(*self.host.router, namespace=tenant.namespace) as client:
                    client.register_view("tau1")
                    client.register_view("tau3")
                    client.attach(
                        self.inputs.bases[tenant.namespace],
                        name=SOURCE,
                        encoded=True,
                        durable=tenant.durable,
                    )
                    for view in ("tau1", "tau3"):
                        served = client.publish(view, indent=2)
                        record.body((tenant.namespace, view, 0, 2), served.document.encode())
            self.setup_s.append(clock() - start)
        with NetClient(*self.host.router) as client:
            self.worker = tuple(client.cluster_stats()["shards"][0]["address"])

    # -- traffic -------------------------------------------------------------

    async def _phase(self, spec, reads, pairs, record, connections) -> float:
        """Run one phase's streams to the end of their schedules; its start."""
        from mix import SOURCE
        from traffic import pair_stream, read_stream

        t0 = clock()
        streams = []
        if reads is not None:
            ns = spec.reads.tenant.namespace
            streams.append(
                read_stream(connections["reads"], t0, reads, spec.reads.docs, self.etags[ns], ns, record)
            )
        if pairs is not None:
            ns = spec.pairs.tenant.namespace
            first = self.version[ns] + 1
            self.version[ns] += len(pairs)
            body = self.inputs.bodies[ns][first - 1:]
            streams.append(pair_stream(connections["pairs"], t0, pairs, body, first, ns, SOURCE, record))
        await asyncio.gather(*streams)
        return t0

    async def _drive(self, record, warm_record) -> None:
        from traffic import Connection, Subscriber, publish_target

        router = Connection(self.host.router)
        connections = {"pairs": Connection(self.host.router), "reads": [router]}
        if self.split:
            connections["reads"].append(Connection(self.worker))
        for phase in self.inputs.phases:
            spec = phase.spec
            if spec.reads is not None and spec.reads.tenant.namespace not in self.etags:
                ns = spec.reads.tenant.namespace
                tags = self.etags[ns] = []
                for view, indent in spec.reads.docs:
                    _, head, body = await router.request("GET", publish_target(ns, view, indent))
                    warm_record.body((ns, view, 0, indent), body)
                    tags.append(head["etag"])
            if spec.pairs is not None:
                ns = spec.pairs.tenant.namespace
                if ns not in self.subscribers:
                    self.subscribers[ns] = Subscriber(ns)
                    await self.subscribers[ns].open(self.host.router)
        for phase in self.inputs.phases:
            await self._phase(phase.spec, phase.warm_reads, phase.warm_pairs, warm_record, connections)
        await self._snapshot()
        start = clock()
        wal_before = self.host.wal_bytes()
        for phase in self.inputs.phases:
            began = await self._phase(phase.spec, phase.reads, phase.pairs, record, connections)
            self.phase_windows.append((began, clock()))
            await self._snapshot()
        self.window = (start, clock())
        self.wal_growth = self.host.wal_bytes() - wal_before
        for ns, subscriber in self.subscribers.items():
            await subscriber.wait_for(self.version[ns], timeout=10.0)
            await subscriber.close()
        for connection in [connections["pairs"], *connections["reads"]]:
            await connection.close()

    async def _snapshot(self) -> None:
        """Counter snapshots around each phase (traced passes only)."""
        if not self.trace:
            return
        from traffic import Connection

        connection = Connection(self.host.router)
        counters: dict[str, float] = {}
        for tenant in self.workload.tenants:
            _, _, body = await connection.request("GET", f"/v1/ns/{tenant.namespace}/stats")
            payload = json.loads(body)
            counters.update({f"net.{k}": v for k, v in payload["net"].items()})
            for view in payload["server"]["views"]:
                for key, value in view["cache"].items():
                    if key != "hit_rate":
                        counters[f"cache.{key}"] = counters.get(f"cache.{key}", 0) + value
        await connection.close()
        self.stats.append(counters)

    # -- checks after the window ----------------------------------------------

    def verify(self, record, oracle) -> None:
        """The checks after the window, ending with the worker kill."""
        from mix import SOURCE
        from repro.serve.net import NetClient

        router = self.host.router
        for ns, version in self.version.items():
            with NetClient(*router, namespace=ns) as client:
                served = client.source(SOURCE)["version"]
            if served != version or record.acked.get(ns, [])[-1:] != [version]:
                record.problems.append(f"{ns}: source at v{served}, {version} commits acked")
        for ns, subscriber in self.subscribers.items():
            record.problems.extend(
                oracle.check_subscription(ns, subscriber.init, subscriber.frames, self.version[ns])
            )
        if self.trace:
            self.host.command("restart")  # a clean stop writes the worker's spans
        self.host.command("kill")
        for ns, version in self.version.items():
            with NetClient(*router, namespace=ns) as client:
                recovered = client.source(SOURCE)["version"]
                served = client.publish("tau1", indent=2)
            if recovered != version or served.version != version:
                record.problems.append(f"{ns}: recovered v{recovered}, last acked v{version}")
            record.body((ns, "tau1", served.version, 2), served.document.encode())
        self.rss_mb = self.host.stop()
        self.host = None
        start = clock()
        record.problems.extend(oracle.check_bodies(record.bodies))
        self.check_s = clock() - start

    def run(self, record) -> None:
        from oracle import Oracle
        from traffic import Record

        warm = Record()
        try:
            self.set_up(warm)
            # select() takes microsecond timeouts where epoll rounds up to
            # whole milliseconds, which would make every request late.
            loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
            # A full collection of this process's heap would stall the
            # generator mid-window and be charged to the server.
            gc.collect()
            gc.freeze()
            gc.disable()
            try:
                loop.run_until_complete(self._drive(record, warm))
            finally:
                gc.enable()
                gc.unfreeze()
                loop.close()
            record.bodies.update(
                (key, record.bodies.get(key, set()) | digests) for key, digests in warm.bodies.items()
            )
            record.problems.extend(warm.errors)
            self.verify(record, Oracle(self.inputs.bases, self.inputs.deltas))
        finally:
            if self.host is not None:
                self.host.kill()


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (``nan`` for no values)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered), -int(-q * len(ordered) // 1)) - 1)]


def latencies(record, cls: str, route: str = "router") -> list[float]:
    """Latency in ms of the class's successful requests."""
    return [
        s.latency * 1000.0
        for s in record.samples
        if s.cls == cls and s.route == route and s.done is not None
    ]


def deliveries(run: Pass, record) -> list[float]:
    """Ms from each window commit's due time to its edits frame."""
    out = []
    for ns, subscriber in run.subscribers.items():
        for received, message in subscriber.frames:
            due = record.commit_due.get((ns, message["version"]))
            if due is not None:
                out.append((received - due) * 1000.0)
    return out


def end_to_end(run: Pass, record) -> dict:
    """``name -> (value, unit, samples)`` of an untraced pass."""
    from mix import SLO_MS

    timed = {cls: latencies(record, cls) for cls in ("read", "commit", "fresh")}
    timed["delivery"] = deliveries(run, record)
    sent = sum(1 for s in record.samples if s.cls in timed and s.route == "router")
    sent += sum(1 for ns, _ in record.commit_due if ns in run.subscribers)
    within = sum(
        1 for cls, values in timed.items() for ms in values if ms <= SLO_MS[cls]
    )
    metrics = {"setup_s": (statistics.median(run.setup_s), "s", len(run.setup_s))}
    for name, cls, tail in (
        ("read", "read", 0.99),
        ("fresh_publish", "fresh", 0.9),
        ("commit", "commit", 0.9),
        ("ws_delivery", "delivery", 0.9),
    ):
        for q in (0.5, tail):
            value = quantile(timed[cls], q)
            metrics[f"{name}_p{round(q * 100)}_ms"] = (value, "ms", len(timed[cls]))
    metrics["slo_share"] = (within / sent, "ratio", sent)
    metrics["server_rss_mb"] = (run.rss_mb, "MB", 1)
    return metrics


def lag_p99_ms(record) -> tuple[float, str, int]:
    lags = [(s.sent - s.ready) * 1000.0 for s in record.samples if s.cls in ("read", "commit")]
    return quantile(lags, 0.99), "ms", len(lags)


def per_layer(run: Pass, record, untraced_read_p50: float) -> dict:
    """``name -> (value, unit, samples)`` of a traced pass."""
    import spans

    span_dir = run.run_dir / f"cluster{run.reps - 1}"
    totals = spans.load(span_dir, *run.window)

    def span(prefix: str, root: str = "", outer_only: bool = False) -> list:
        """Summed ``[calls, total s, self s, extra]`` of matching spans."""
        out = [0, 0.0, 0.0, 0]
        for (name, name_root, outer), cell in totals.items():
            if name.startswith(prefix) and name_root.startswith(root) and (outer or not outer_only):
                out = [a + b for a, b in zip(out, cell)]
        return out

    def per_call(prefix: str, column: int, scale: float, unit: str):
        cell = span(prefix)
        return (cell[column] / cell[0] * scale if cell[0] else 0.0), unit, cell[0]

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    def counter(key: str, first: int = 0, last: int = -1) -> float:
        return run.stats[last].get(key, 0) - run.stats[first].get(key, 0)

    router = latencies(record, "read")
    direct = latencies(record, "read", "direct")
    # ViewServer time spent on reads: publish spans rooted at a read view,
    # inside the phases that read.
    read_server_s = 0.0
    for phase, window in zip(run.inputs.phases, run.phase_windows):
        if phase.spec.reads is not None:
            views = {view for view, _ in phase.spec.reads.docs}
            for (name, root, _), cell in spans.load(span_dir, *window).items():
                if name == "server.publish" and root.split(":")[-1] in views:
                    read_server_s += cell[1]
    direct_p50 = quantile(direct, 0.5)

    # The response cache is judged on the first (headline) phase.
    answered = counter("net.not_modified", 0, 1) + counter("net.response_cache_hits", 0, 1)
    publish_requests = answered + counter("net.publishes", 0, 1)
    publishes = span("server.publish")[0]
    query_calls = span("query.", "server.publish")[0]
    _, query_s, _, query_rows = span("query.", "server.publish", outer_only=True)
    appends, _, _, fsyncs = span("wal.append")
    commits = len(latencies(record, "commit"))
    retained, invalidated = counter("cache.retained"), counter("cache.invalidated")
    return {
        "shard.hop_ms": (quantile(router, 0.5) - direct_p50, "ms", len(router)),
        "net.self_ms": (
            direct_p50 - share(read_server_s, len(router) + len(direct)) * 1000.0,
            "ms",
            len(direct),
        ),
        "net.response_cache_hit_ratio": (
            share(answered, publish_requests), "ratio", int(publish_requests)
        ),
        "protocol.encode_us": per_call("protocol.", 1, 1e6, "us"),
        "wire.decode_us": per_call("wire.decode", 1, 1e6, "us"),
        "wire.encode_us": per_call("wire.encode", 1, 1e6, "us"),
        "wal.append_ms": per_call("wal.append", 1, 1e3, "ms"),
        "wal.fsyncs_per_commit": (share(fsyncs, appends), "count", appends),
        "wal.bytes_per_commit": (share(run.wal_growth, commits), "bytes", commits),
        "server.publish_self_ms": per_call("server.publish", 2, 1e3, "ms"),
        "server.commit_self_ms": per_call("server.commit", 2, 1e3, "ms"),
        "engine.publish_bytes_ms": per_call("engine.publish_bytes", 1, 1e3, "ms"),
        "engine.republish_ms": per_call("engine.republish", 1, 1e3, "ms"),
        "engine.memo_hit_ratio": (
            share(counter("cache.hits"), counter("cache.hits") + counter("cache.misses")),
            "ratio",
            int(counter("cache.hits") + counter("cache.misses")),
        ),
        "engine.render_hit_ratio": (
            share(
                counter("cache.rendered_hits"),
                counter("cache.rendered_hits") + counter("cache.rendered_misses"),
            ),
            "ratio",
            int(counter("cache.rendered_hits") + counter("cache.rendered_misses")),
        ),
        "engine.retained_share": (
            share(retained, retained + invalidated), "ratio", int(retained + invalidated)
        ),
        "emit.render_self_ms": per_call("emit.render_document", 2, 1e3, "ms"),
        "query.execute_ms": (share(query_s, publishes) * 1e3, "ms", publishes),
        "query.calls_per_publish": (share(query_calls, publishes), "count", publishes),
        "query.rows_per_publish": (share(query_rows, publishes), "count", publishes),
        "client.lag_p99_ms": lag_p99_ms(record),
        "trace.overhead_share": (
            share(quantile(router, 0.5), untraced_read_p50) - 1.0, "ratio", len(router)
        ),
    }


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------


def metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    src = ROOT / "src" / "repro"
    lines = 0
    digest = hashlib.sha256()  # names the code where no .git records the commit
    for path in sorted(src.rglob("*.py")):
        data = path.read_bytes()
        lines += len(data.splitlines())
        digest.update(str(path.relative_to(src)).encode() + b"\0" + data)
    commit = "unknown"  # the benchmark may run from an export without .git
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else ref
        commit = ref
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "src_repro_lines": lines,
        "src_repro_sha256": digest.hexdigest()[:16],
        "commit": commit,
        "wal": "on, fsync on, group commit (process kill keeps the page cache)",
    }


def report(metrics: dict) -> dict:
    """Print one line per metric; the JSON ``metrics`` object."""
    out = {}
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:32s} {value:14.4f} {unit:6s} n={samples}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"e2ebench: no program at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import mix
    from traffic import Record

    workload = mix.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"e2ebench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print("meta " + json.dumps(metadata(args.workload, args.seed, args.seconds, args.trace)))
    inputs = Inputs(workload, args.seed, args.seconds)
    scratch = ROOT / ".e2ebench_run" / str(os.getpid())
    try:
        untraced = Pass(
            workload, inputs, scratch / "untraced",
            trace=False, split=bool(args.trace), reps=1 if args.trace else SETUP_REPS,
        )
        records = [Record()]
        untraced.run(records[0])
        results = end_to_end(untraced, records[0])
        if args.trace:
            traced = Pass(workload, inputs, scratch / "traced", trace=True, split=True, reps=1)
            records.append(Record())
            traced.run(records[1])
            results = per_layer(traced, records[1], results["read_p50_ms"][0])
        else:
            report({"client.lag_p99_ms": lag_p99_ms(records[0])})
        print(f"{'oracle_check_s':32s} {untraced.check_s:14.4f} {'s':6s} n={len(records[0].bodies)}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (ROOT / ".e2ebench_run").rmdir()
        except OSError:
            pass
    failures = [s for record in records for s in record.samples if s.done is None]
    problems = [p for record in records for p in record.errors + record.problems]
    attempted = sum(len(record.samples) for record in records)
    failed = len(failures) + sum(len(record.problems) for record in records)
    print(f"{'failed_share':32s} {failed / attempted:14.4f} {'ratio':6s} n={attempted}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    metrics = report(results)
    listed = declared_metrics("per_layer" if args.trace else "end_to_end")
    if listed is not None:
        metrics = {name: metrics[name] for name in listed}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def declared_metrics(kind: str) -> list[str] | None:
    """The metric names ``BENCHMARK.json`` lists under ``kind``, if it exists."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    return [metric["name"] for metric in json.loads(path.read_text())[kind]]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
