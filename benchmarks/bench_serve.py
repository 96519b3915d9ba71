"""The serving layer: facade overhead and subscription delivery.

Two acceptance claims of the ``repro.serve`` API redesign, both measured on
the registrar workload:

* **dispatch overhead** -- routing a publish through
  :meth:`~repro.serve.server.ViewServer.publish` (view resolution, binding
  validation, source/version resolution, backend routing) must cost at most
  10% over calling the engine directly.  Both sides run the identical inner
  work under the same cache state: after every single-tuple commit, the
  freshly committed version renders through ``publish_bytes`` from its
  parent's migrated state -- ``server.publish(output="bytes")`` on one side,
  ``plan.publish_bytes`` on an identically warmed plan and instance chain on
  the other -- so the measured gap is purely the facade.  On a cache-hot
  document (an unchanged version, answered from the rendered-span cache in
  a few microseconds) the facade is a fixed cost of a few microseconds
  that no ratio describes fairly, so that pair reports microseconds per
  call and is not gated.

* **subscription delivery** -- consuming a stream of single-tuple commits
  through :meth:`~repro.serve.server.ViewServer.subscribe` (one
  incrementally maintained republish per commit, edit script pushed) must
  be at least 5x faster than what a non-incremental consumer does: a
  from-scratch publish of every new version (cold plan, as in
  ``bench_incremental``) followed by a tree diff.

As with the other benchmarks, ratios are attached to the pytest-benchmark
JSON via ``extra_info``; the module is also runnable directly -- ``python
benchmarks/bench_serve.py [--quick]`` -- printing the numbers as JSON, which
is what the CI smoke step and ``run_all.py`` use.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

from repro.engine import compile_plan
from repro.relational.delta import Delta
from repro.serve import ViewServer
from repro.workloads.registrar import (
    generate_registrar_instance,
    tau1_prerequisite_hierarchy,
)
from repro.xmltree.diff import diff_trees, trees_equal

#: The acceptance thresholds of the serving-layer redesign.
MAX_DISPATCH_OVERHEAD = 0.10
MIN_SUBSCRIPTION_SPEEDUP = 5.0


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _single_tuple_deltas(instance, count: int) -> list[Delta]:
    """``count`` effective single-edge ``prereq`` insertions."""
    names = sorted(row[0] for row in instance["course"])
    present = instance["prereq"].tuples
    deltas = []
    step = 1
    while len(deltas) < count:
        for index in range(1, len(names)):
            edge = (names[index], names[(index + step) % len(names)])
            if edge not in present and edge[0] != edge[1]:
                present = present | {edge}
                deltas.append(Delta.insert("prereq", edge))
                if len(deltas) == count:
                    break
        step += 1
    return deltas


def _served_and_direct(num_courses: int):
    """A server and a bare plan over the same data, equally warm."""
    tau = tau1_prerequisite_hierarchy()
    instance = generate_registrar_instance(num_courses, max_prereqs=2, depth=6, seed=11)
    server = ViewServer(max_nodes=10**7)
    server.register_view("hierarchy", tau)
    handle = server.attach(instance)
    plan = compile_plan(tau, max_nodes=10**7)
    assert server.publish("hierarchy", output="bytes") == plan.publish_bytes(instance)
    return server, handle, plan, instance


def measure_dispatch_overhead(
    num_courses: int = 300, commits: int = 24, repeats: int = 3, hot_calls: int = 2000
) -> dict:
    """Raw numbers for the facade-overhead comparison (test and script).

    Gated pair: after each single-tuple commit both sides render the freshly
    committed version (the parent's state migrated, the rest rendered), in
    alternating order.  The overhead is the median of the per-commit time
    ratios: each ratio compares the same version, so the document growing
    along the commit chain cancels out, and the median ignores collector
    pauses landing on one side.  Reported pair: the cache-hot publish of an
    unchanged version, in microseconds per call.
    """
    server, handle, plan, instance = _served_and_direct(num_courses)
    ratios = []
    server_seconds = direct_seconds = 0.0
    for step, delta in enumerate(_single_tuple_deltas(instance, commits)):
        handle.commit(delta)
        instance = instance.apply_delta(delta)
        sides = {
            "server": lambda: server.publish("hierarchy", output="bytes"),
            "direct": lambda: plan.publish_bytes(instance),
        }
        timed = {}
        for side in sorted(sides, reverse=step % 2 == 1):
            timed[side] = _time(sides[side])
        assert timed["server"][0] == timed["direct"][0]  # byte identity
        server_seconds += timed["server"][1]
        direct_seconds += timed["direct"][1]
        ratios.append(timed["server"][1] / timed["direct"][1])

    # The cache-hot pair: the latest version again, from the span cache.
    def hot_server():
        for _ in range(hot_calls):
            server.publish("hierarchy", output="bytes")

    def hot_direct():
        for _ in range(hot_calls):
            plan.publish_bytes(instance)

    hot_server_us = min(_time(hot_server)[1] for _ in range(repeats)) / hot_calls * 1e6
    hot_direct_us = min(_time(hot_direct)[1] for _ in range(repeats)) / hot_calls * 1e6
    return {
        "num_courses": num_courses,
        "commits": commits,
        "server_seconds": server_seconds,
        "direct_seconds": direct_seconds,
        "dispatch_overhead": statistics.median(ratios) - 1.0,
        "hot_calls": hot_calls,
        "hot_server_us_per_call": hot_server_us,
        "hot_direct_us_per_call": hot_direct_us,
        "hot_facade_us_per_call": hot_server_us - hot_direct_us,
    }


def measure_subscription_delivery(
    num_courses: int = 300, commits: int = 12
) -> dict:
    """Raw numbers for the subscription comparison (test and script)."""
    tau = tau1_prerequisite_hierarchy()
    base = generate_registrar_instance(num_courses, max_prereqs=2, depth=6, seed=11)
    deltas = _single_tuple_deltas(base, commits)

    # The serving side: one subscription, one commit per delta, edit scripts
    # consumed as they are delivered.
    server = ViewServer(max_nodes=10**7)
    server.register_view("hierarchy", tau)
    handle = server.attach(base)
    subscription = server.subscribe("hierarchy")
    replayed = subscription.tree

    def serve_stream():
        events = []
        for delta in deltas:
            handle.commit(delta)
            events.append(subscription.pop())
        return events

    events, serve_seconds = _time(serve_stream)

    # The non-incremental consumer: a from-scratch publish of every version
    # (cold plan, as a stateless re-publisher would) plus a tree diff.
    def republish_and_diff():
        instance = base
        tree = compile_plan(tau, max_nodes=10**7).publish(instance)
        scripts = []
        for delta in deltas:
            instance = instance.apply_delta(delta)
            new_tree = compile_plan(tau, max_nodes=10**7).publish(instance)
            scripts.append(diff_trees(tree, new_tree))
            tree = new_tree
        return tree, scripts

    (oracle_tree, naive_scripts), naive_seconds = _time(republish_and_diff)

    # Both consumers converge on the same document; the subscription's edit
    # scripts replay the initial tree into it.
    for event in events:
        replayed = event.edits.apply(replayed)
    assert trees_equal(replayed, oracle_tree)
    assert trees_equal(subscription.tree, oracle_tree)
    assert len(events) == len(naive_scripts) == commits

    return {
        "num_courses": num_courses,
        "commits": commits,
        "output_nodes": oracle_tree.size(),
        "subscription_seconds": serve_seconds,
        "republish_and_diff_seconds": naive_seconds,
        "naive_over_subscription_ratio": naive_seconds / serve_seconds,
    }


def test_dispatch_overhead_within_bound(benchmark):
    """The acceptance criterion: <= 10% facade overhead vs direct calls,
    both rendering freshly committed versions from migrated state."""

    def run():
        return measure_dispatch_overhead(200, commits=12, hot_calls=500)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    if report is None:  # pragma: no cover - benchmark-disable quirk
        report = run()
    benchmark.extra_info.update(report)
    assert report["dispatch_overhead"] <= MAX_DISPATCH_OVERHEAD


def test_subscription_delivery_vs_republish_and_diff(benchmark):
    """The acceptance criterion: subscriptions >= 5x over re-publish-and-diff."""

    def run():
        return measure_subscription_delivery(200, commits=8)

    report = benchmark.pedantic(run, rounds=1, iterations=1) if hasattr(
        benchmark, "pedantic"
    ) else run()
    if report is None:  # pragma: no cover - benchmark-disable quirk
        report = run()
    benchmark.extra_info.update(report)
    assert report["naive_over_subscription_ratio"] >= MIN_SUBSCRIPTION_SPEEDUP


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    dispatch = measure_dispatch_overhead(150 if quick else 300, commits=12 if quick else 24)
    subscription = measure_subscription_delivery(
        150 if quick else 300, commits=8 if quick else 12
    )
    report = {
        "benchmark": "bench_serve",
        "mode": "quick" if quick else "full",
        "dispatch_overhead": dispatch,
        "subscription_delivery": subscription,
    }
    print(json.dumps(report, indent=2))
    failed = False
    if dispatch["dispatch_overhead"] > MAX_DISPATCH_OVERHEAD:
        print(
            f"FAIL: serving facade adds {dispatch['dispatch_overhead']:.1%} "
            f"over direct engine calls on freshly committed versions "
            f"(allowed: {MAX_DISPATCH_OVERHEAD:.0%})",
            file=sys.stderr,
        )
        failed = True
    ratio = subscription["naive_over_subscription_ratio"]
    if ratio < MIN_SUBSCRIPTION_SPEEDUP:
        print(
            f"FAIL: subscription delivery only {ratio:.1f}x over "
            f"re-publish-and-diff (required: {MIN_SUBSCRIPTION_SPEEDUP}x)",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
