"""Incremental maintenance: a stream of enrollment-office updates.

The registrar database of Example 1.1 is attached to a
:class:`~repro.serve.server.ViewServer` and the recursive prerequisite
hierarchy of Figure 1(a) is subscribed to; afterwards the enrollment office
streams in updates -- new courses, added and dropped prerequisites, a
curriculum purge that empties the ``prereq`` relation -- and every
:meth:`~repro.serve.server.SourceHandle.commit` delivers the view's
delta-by-delta maintenance instead of a republish from scratch.

Every step prints the shipped :class:`~repro.xmltree.diff.EditScript` and the
engine's invalidated/retained memo counters, and the final state is verified
byte-for-byte against a from-scratch publish on a fresh plan.

Run with::

    python examples/incremental_registrar.py
"""

from __future__ import annotations

import time

from repro.engine import compile_plan
from repro.incremental import Delta
from repro.serve import ViewServer
from repro.workloads.registrar import (
    example_registrar_instance,
    tau1_prerequisite_hierarchy,
)
from repro.xmltree.diff import trees_equal
from repro.xmltree.serialize import to_xml

#: The update stream: one (description, Delta) event per enrollment decision.
UPDATE_STREAM = [
    (
        "new course: cs500 Compilers",
        Delta.insert("course", ("cs500", "Compilers", "CS")),
    ),
    (
        "cs500 requires cs340 and cs450",
        Delta.insert("prereq", ("cs500", "cs340"), ("cs500", "cs450")),
    ),
    (
        "cs450 now also requires cs340",
        Delta.insert("prereq", ("cs450", "cs340")),
    ),
    (
        "cs240 no longer requires cs101",
        Delta.delete("prereq", ("cs240", "cs101")),
    ),
    (
        "math101 is retired",
        Delta.delete("course", ("math101", "Calculus", "Math")),
    ),
]


def main() -> None:
    tau = tau1_prerequisite_hierarchy()
    server = ViewServer()
    server.register_view("hierarchy", tau)
    handle = server.attach(example_registrar_instance())
    subscription = server.subscribe("hierarchy")
    print(f"initial view: {subscription.tree.size()} nodes\n")

    for description, delta in UPDATE_STREAM:
        handle.commit(delta)
        step = subscription.pop().result
        print(f"-- {description}")
        print(f"   memo: {step.invalidated} invalidated, {step.retained} retained")
        edits = step.edits.describe() or "(no visible change)"
        for line in edits.splitlines():
            print(f"   {line[:100]}{'...' if len(line) > 100 else ''}")
        print()

    print("-- curriculum purge: drop every prerequisite")
    handle.commit(Delta.delete("prereq", *handle.instance["prereq"].tuples))
    step = subscription.pop().result
    print(f"   {len(step.edits)} edits; prereq relation is now empty\n")

    # The differential oracle: a fresh plan's publish must agree byte-for-byte.
    oracle = compile_plan(tau).publish(handle.instance)
    assert trees_equal(oracle, subscription.tree)
    assert to_xml(oracle) == server.publish("hierarchy", output="bytes")
    print("verified: maintained view == fresh-plan publish (tree- and byte-wise)")

    # And the point of it all: maintaining beats recomputing.
    start = time.perf_counter()
    handle.commit(Delta.insert("prereq", ("cs500", "cs240")))
    subscription.pop()
    incremental = time.perf_counter() - start
    start = time.perf_counter()
    compile_plan(tau).publish(handle.instance)
    full = time.perf_counter() - start
    print(
        f"last update: commit + delivery {incremental * 1e3:.2f} ms "
        f"vs full republish {full * 1e3:.2f} ms ({full / incremental:.1f}x)"
    )
    print(f"cache stats: {server.view('hierarchy').plan_for().cache_stats.as_dict()}")


if __name__ == "__main__":
    main()
