"""The serving layer end to end: one server, every view, live subscribers.

A :class:`~repro.serve.server.ViewServer` is stood up over the registrar
database of Example 1.1 with the three Figure 1 views registered as
*parameterized* views (the department / banned title bound per request, the
bound constant pushed into the query plans' indexed scans).  The demo then
walks the serving feature set:

* one ``publish`` call routing output form and execution backend (a
  publish after a commit is incremental by itself);
* MVCC snapshots: a reader pinned to the pre-update version keeps reading
  it, byte-for-byte, while commits advance the source;
* subscriptions: each commit delivers an
  :class:`~repro.xmltree.diff.EditScript` instead of a re-published
  document;
* the aggregated ``stats()`` / ``explain()`` observability.

Run with::

    python examples/serve_registrar.py
"""

from __future__ import annotations

from repro.relational.delta import Delta
from repro.serve import ViewServer
from repro.workloads.registrar import (
    example_registrar_instance,
    registrar_view_suite,
)


def main() -> None:
    server = ViewServer()
    for name, (factory, params) in registrar_view_suite().items():
        server.register_view(name, factory, params=params)
    handle = server.attach(example_registrar_instance(), name="registrar")

    # -- one call, every routing axis ------------------------------------
    cs = {"department": "CS"}
    tree = server.publish("hierarchy", params=cs)  # materialised Σ-tree
    print(f"hierarchy(CS): {tree.size()} nodes")
    compact = server.publish(
        "hierarchy", params={"department": "Math"}, output="compact"
    )
    print(f"hierarchy(Math), compact: {compact}")
    columnar = server.publish(
        "closure", params=cs, output="bytes", backend="columnar"
    )
    row = server.publish("closure", params=cs, output="bytes", backend="row")
    print(f"closure(CS): columnar == row byte-for-byte: {columnar == row}")

    # -- snapshots: readers keep their version ---------------------------
    snapshot = handle.snapshot()
    before = server.publish("no_db_prereq", params={"banned_title": "Databases"}, output="bytes")
    handle.commit(Delta.insert("course", ("cs500", "Compilers", "CS")))
    handle.commit(Delta.insert("prereq", ("cs500", "cs450")))
    pinned = server.publish(
        "no_db_prereq",
        params={"banned_title": "Databases"},
        source=snapshot,
        output="bytes",
    )
    print(
        f"snapshot isolation: version {snapshot.index} reader unchanged "
        f"across {handle.version - snapshot.index} commit(s): {pinned == before}"
    )

    # -- subscriptions: ship diffs, not documents ------------------------
    subscription = server.subscribe("hierarchy", params=cs)
    handle.commit(Delta.insert("prereq", ("cs500", "cs340")))
    handle.commit(Delta.delete("prereq", ("cs240", "cs101")))
    for event in subscription:
        script = event.edits.describe() or "(view unaffected)"
        print(f"commit v{event.version} delivered {len(event.edits)} edit(s):")
        for line in script.splitlines():
            print(f"   {line[:100]}{'...' if len(line) > 100 else ''}")

    # -- aggregated observability ----------------------------------------
    print()
    print(server.stats().describe())
    print()
    print(server.explain("hierarchy", params=cs).describe())


if __name__ == "__main__":
    main()
