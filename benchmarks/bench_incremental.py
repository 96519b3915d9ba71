"""Incremental vs full republish after a single-tuple update.

After a single-tuple update to a registrar database, the delta-driven
:meth:`~repro.engine.plan.PublishingPlan.republish` must be at least 5x
faster than a from-scratch publish of the updated instance (the full
republish, evaluated on a cold plan -- what a non-incremental system does on
every source change) while producing a byte-identical document.

Three updates are measured, each also a correctness check against the
full-publish oracle:

* ``registrar prereq insert``: one new ``prereq`` edge under the recursive
  ``tau1`` hierarchy view -- only the ``(q, prereq)`` rule reads the changed
  relation, so almost every memoised expansion and most built subtrees are
  retained;
* ``blowup edge delete``: removing one first-diamond edge of a
  chain-of-diamonds instance under the Proposition 1(3) unfolding
  transducer, where the output is exponentially larger than the source (an
  informational metric -- both sides already benefit from the engine's
  structural sharing, so the margin is smaller than on the registrar);
* ``default-routed publish``: the serving path with no option set --
  ``SourceHandle.commit`` of one ``prereq`` edge, then
  ``ViewServer.publish(output="bytes")`` of the new version, which migrates
  the parent version's cached state -- against a fresh plan's
  ``publish_bytes`` of the same version; it must be at least 4x faster;
* ``migration scaling``: the parent-to-child state migration alone, in µs,
  for a single-tuple ``prereq`` delta at 150, 300 and 600 courses.  Under
  ``tau3`` that delta invalidates one configuration at every size, so the
  migration must cost about the same at 600 courses as at 150 (at most
  2x); ``tau1``, whose ``prereq`` rule covers every course, is reported
  alongside to show the cost following the delta's footprint instead.

As with the other benchmarks, ratios are attached to the pytest-benchmark
JSON via ``extra_info``; the module is also runnable directly -- ``python
benchmarks/bench_incremental.py [--quick]`` -- printing the numbers as JSON,
which is what the CI smoke step does.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time

from repro.engine import compile_plan
from repro.relational.columnar import encoded_twin
from repro.relational.delta import Delta
from repro.serve import ViewServer
from repro.workloads.blowup import (
    chain_of_diamonds_instance,
    chain_of_diamonds_transducer,
)
from repro.workloads.registrar import (
    generate_registrar_instance,
    tau1_prerequisite_hierarchy,
    tau3_courses_without_db_prereq,
)
from repro.xmltree.serialize import to_xml

#: The acceptance threshold for the single-tuple registrar update.
MIN_SPEEDUP = 5.0

#: The acceptance threshold for the default-routed serving publish.
MIN_DEFAULT_ROUTED_SPEEDUP = 4.0

#: How much a constant-footprint migration may slow down from 150 to 600
#: courses (4x the cache).
MAX_MIGRATION_GROWTH = 2.0


def _time(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _measured_seconds(benchmark, fn, setup):
    """Mean benchmark time, falling back to one timed run (after ``setup``)
    under --benchmark-disable."""
    if benchmark.stats is not None:
        return benchmark.stats.stats.mean
    args, _ = setup()
    return _time(lambda: fn(*args))[1]


def _warm_on(plan, base):
    """A pedantic set-up: the plan's caches warm on ``base`` only.

    The child version's state stays cached after one republish, so every
    round starts over from the parent; the round's ``prev_tree`` is the
    tree that parent publish built (so unchanged subtrees are shared with
    the new tree, as in steady-state use), and the set-up's garbage is
    collected rather than charged to the round.
    """

    def setup():
        plan.clear_cache()
        prev_tree = plan.publish(base)
        gc.collect()
        return (prev_tree,), {}

    return setup


def measure_registrar_single_insert(num_courses: int = 300) -> dict:
    """Raw numbers for the registrar comparison (shared by test and script)."""
    tau = tau1_prerequisite_hierarchy()
    base = generate_registrar_instance(num_courses, max_prereqs=2, depth=6, seed=11)
    delta = Delta.insert("prereq", ("cs0007", "cs0003"))
    assert delta.normalized(base).change_count() == 1

    warm = compile_plan(tau, max_nodes=10**7)
    prev_tree = warm.publish(base)
    result, incremental_seconds = _time(
        lambda: warm.republish(base, delta, prev_tree=prev_tree)
    )
    cold = compile_plan(tau, max_nodes=10**7)
    full_tree, full_seconds = _time(lambda: cold.publish(result.instance))

    assert result.tree == full_tree
    assert to_xml(result.tree) == to_xml(full_tree)
    assert result.edits.apply(prev_tree) == result.tree
    stats = warm.cache_stats
    return {
        "num_courses": num_courses,
        "output_nodes": full_tree.size(),
        "edits": len(result.edits),
        "expansions_invalidated": result.invalidated,
        "expansions_retained": result.retained,
        "cache_hit_rate": stats.hit_rate,
        "full_seconds": full_seconds,
        "incremental_seconds": incremental_seconds,
        "full_over_incremental_ratio": full_seconds / incremental_seconds,
    }


def measure_blowup_edge_delete(diamonds: int = 12) -> dict:
    """Raw numbers for the blow-up comparison (shared by test and script)."""
    tau = chain_of_diamonds_transducer()
    base = chain_of_diamonds_instance(diamonds)
    # Cutting one edge of the *first* diamond halves the unfolding below the
    # root; everything under the surviving sibling is structurally shared.
    delta = Delta.delete("R", ("a0", "b0_1"))

    warm = compile_plan(tau, max_nodes=10**7)
    prev_tree = warm.publish(base)
    result, incremental_seconds = _time(
        lambda: warm.republish(base, delta, prev_tree=prev_tree)
    )
    cold = compile_plan(tau, max_nodes=10**7)
    full_tree, full_seconds = _time(lambda: cold.publish(result.instance))

    assert result.tree == full_tree
    assert result.edits.apply(prev_tree) == result.tree
    return {
        "diamonds": diamonds,
        "output_nodes": full_tree.size(),
        "edits": len(result.edits),
        "full_seconds": full_seconds,
        "incremental_seconds": incremental_seconds,
        "full_over_incremental_ratio": full_seconds / incremental_seconds,
    }


def measure_default_routed_publish(num_courses: int = 300, commits: int = 5) -> dict:
    """A served bytes publish after each single-tuple commit vs a fresh plan.

    Both sides render the same freshly committed version; the served side
    takes no option, so its speed comes from the engine migrating the
    parent version's state.  Medians over ``commits`` commits.
    """
    tau = tau1_prerequisite_hierarchy()
    base = generate_registrar_instance(num_courses, max_prereqs=2, depth=6, seed=11)
    server = ViewServer(max_nodes=10**7)
    server.register_view("hierarchy", tau)
    handle = server.attach(base)
    server.publish("hierarchy", output="bytes")
    names = sorted(row[0] for row in base["course"])
    served_seconds, fresh_seconds = [], []
    for index in range(commits):
        edge = (names[7 + index], names[3 + index])
        assert edge not in handle.instance["prereq"].tuples
        handle.commit(Delta.insert("prereq", edge))
        served, seconds = _time(lambda: server.publish("hierarchy", output="bytes"))
        served_seconds.append(seconds)
        fresh = compile_plan(tau, max_nodes=10**7)
        expected, seconds = _time(lambda: fresh.publish_bytes(handle.instance))
        fresh_seconds.append(seconds)
        assert served == expected
    served_median = statistics.median(served_seconds)
    fresh_median = statistics.median(fresh_seconds)
    return {
        "num_courses": num_courses,
        "commits": commits,
        "document_bytes": len(served),
        "served_median_seconds": served_median,
        "fresh_median_seconds": fresh_median,
        "fresh_over_served_ratio": fresh_median / served_median,
    }


def _migration_micros(factory, num_courses: int, rounds: int) -> dict:
    """Median µs of one parent-to-child migration on a fully warm plan."""
    base = encoded_twin(
        generate_registrar_instance(num_courses, max_prereqs=2, depth=6, seed=11)
    )
    plan = compile_plan(factory(), max_nodes=10**7)
    plan.publish(base)
    for indent in (2, None):
        plan.publish_bytes(base, indent=indent)
    names = sorted(row[0] for row in base["course"])
    present = base["prereq"].tuples
    edge = next(
        (later, earlier)
        for later in reversed(names)
        for earlier in names
        if earlier < later and (later, earlier) not in present
    )
    delta = Delta.insert("prereq", edge).normalized(base)
    assert delta.change_count() == 1
    parent = plan._instance_state(base)
    seconds = []
    for _ in range(rounds):
        child = base.apply_delta(delta)  # a fresh version object per round
        start = time.perf_counter()
        state = plan._migrated_state(parent, child, delta)
        seconds.append(time.perf_counter() - start)
    return {
        "num_courses": num_courses,
        "migration_us": statistics.median(seconds) * 1e6,
        "invalidated": state.invalidated,
        "retained": state.retained,
    }


def measure_migration_scaling(sizes=(150, 300, 600), rounds: int = 40) -> dict:
    """µs per migration for a single-tuple ``prereq`` delta, by cache size.

    ``tau3``'s footprint is one configuration at every size, so its growth
    from the smallest to the largest size is pure bookkeeping and is what
    the ``MAX_MIGRATION_GROWTH`` bound reads; ``tau1``'s footprint grows
    with the course count and is reported for contrast.
    """
    report = {}
    for name, factory in (
        ("tau3", tau3_courses_without_db_prereq),
        ("tau1", tau1_prerequisite_hierarchy),
    ):
        runs = [_migration_micros(factory, size, rounds) for size in sizes]
        report[name] = {
            "runs": runs,
            "largest_over_smallest": runs[-1]["migration_us"] / runs[0]["migration_us"],
        }
    report["growth"] = report["tau3"]["largest_over_smallest"]
    return report


def test_migration_cost_tracks_the_delta_not_the_cache(benchmark):
    """A one-configuration delta migrates as fast on 4x the cache (<= 2x)."""

    def run():
        return measure_migration_scaling()

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    if report is None:  # pragma: no cover - benchmark-disable quirk
        report = run()
    benchmark.extra_info.update(report)
    assert report["growth"] <= MAX_MIGRATION_GROWTH


def test_default_routed_publish_vs_fresh_plan(benchmark):
    """The serving path migrates by itself: >= 4x over a fresh-plan render."""

    def run():
        return measure_default_routed_publish(300, commits=5)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    if report is None:  # pragma: no cover - benchmark-disable quirk
        report = run()
    benchmark.extra_info.update(report)
    assert report["fresh_over_served_ratio"] >= MIN_DEFAULT_ROUTED_SPEEDUP


def test_incremental_republish_vs_full(benchmark):
    """The acceptance criterion: incremental republish >= 5x over full."""
    tau = tau1_prerequisite_hierarchy()
    base = generate_registrar_instance(300, max_prereqs=2, depth=6, seed=11)
    delta = Delta.insert("prereq", ("cs0007", "cs0003"))
    warm = compile_plan(tau, max_nodes=10**7)
    updated = base.apply_delta(delta)
    full_tree, full_seconds = _time(
        lambda: compile_plan(tau, max_nodes=10**7).publish(updated)
    )

    def incremental(prev_tree):
        return warm.republish(base, delta, prev_tree=prev_tree)

    result = benchmark.pedantic(
        incremental, setup=_warm_on(warm, base), rounds=15, warmup_rounds=3
    )
    if result is None:  # pragma: no cover - benchmark-disable quirk
        result = incremental(*_warm_on(warm, base)()[0])
    assert result.tree == full_tree
    assert to_xml(result.tree) == to_xml(full_tree)

    incremental_seconds = _measured_seconds(benchmark, incremental, _warm_on(warm, base))
    ratio = full_seconds / incremental_seconds
    benchmark.extra_info["full_seconds"] = full_seconds
    benchmark.extra_info["incremental_seconds"] = incremental_seconds
    benchmark.extra_info["full_over_incremental_ratio"] = ratio
    benchmark.extra_info["invalidated"] = result.invalidated
    benchmark.extra_info["retained"] = result.retained
    assert ratio >= MIN_SPEEDUP


def test_blowup_edge_delete_vs_full(benchmark):
    """Incremental maintenance of an exponentially blown-up output."""
    tau = chain_of_diamonds_transducer()
    base = chain_of_diamonds_instance(10)
    delta = Delta.delete("R", ("a0", "b0_1"))
    warm = compile_plan(tau, max_nodes=10**7)
    updated = base.apply_delta(delta)
    full_tree, full_seconds = _time(
        lambda: compile_plan(tau, max_nodes=10**7).publish(updated)
    )

    def incremental(prev_tree):
        return warm.republish(base, delta, prev_tree=prev_tree)

    result = benchmark.pedantic(
        incremental, setup=_warm_on(warm, base), rounds=15, warmup_rounds=3
    )
    if result is None:  # pragma: no cover - benchmark-disable quirk
        result = incremental(*_warm_on(warm, base)()[0])
    assert result.tree == full_tree

    incremental_seconds = _measured_seconds(benchmark, incremental, _warm_on(warm, base))
    benchmark.extra_info["full_seconds"] = full_seconds
    benchmark.extra_info["incremental_seconds"] = incremental_seconds
    benchmark.extra_info["full_over_incremental_ratio"] = full_seconds / incremental_seconds


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    report = {
        "benchmark": "bench_incremental",
        "mode": "quick" if quick else "full",
        "registrar_single_insert": measure_registrar_single_insert(
            150 if quick else 300
        ),
        "blowup_edge_delete": measure_blowup_edge_delete(9 if quick else 12),
        "default_routed_publish": measure_default_routed_publish(
            150 if quick else 300
        ),
        "migration_scaling": measure_migration_scaling(rounds=15 if quick else 40),
    }
    print(json.dumps(report, indent=2))
    failed = False
    ratio = report["registrar_single_insert"]["full_over_incremental_ratio"]
    if ratio < MIN_SPEEDUP:
        print(
            f"FAIL: incremental republish only {ratio:.1f}x over full "
            f"(required: {MIN_SPEEDUP}x)",
            file=sys.stderr,
        )
        failed = True
    ratio = report["default_routed_publish"]["fresh_over_served_ratio"]
    if ratio < MIN_DEFAULT_ROUTED_SPEEDUP:
        print(
            f"FAIL: default-routed publish after a commit only {ratio:.1f}x "
            f"over a fresh-plan render (required: {MIN_DEFAULT_ROUTED_SPEEDUP}x)",
            file=sys.stderr,
        )
        failed = True
    growth = report["migration_scaling"]["growth"]
    if growth > MAX_MIGRATION_GROWTH:
        print(
            f"FAIL: a one-configuration migration is {growth:.1f}x slower at "
            f"600 courses than at 150 (allowed: {MAX_MIGRATION_GROWTH}x)",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
