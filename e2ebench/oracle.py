"""The correctness checks, run after the timed window.

The oracle is the row kernel: ``compile_plan(view).publish_bytes`` on the
instance replayed locally from the tenant's base instance and the deltas
the load generator sent.  The server runs the columnar kernel on encoded
instances, so the two share no evaluation path.
"""

from __future__ import annotations

import hashlib

from repro.engine.plan import compile_plan
from repro.serve.net.client import edits_of
from repro.workloads.registrar import tau1_prerequisite_hierarchy, tau3_courses_without_db_prereq
from repro.xmltree.diff import tree_from_wire
from repro.xmltree.serialize import to_xml

_VIEWS = {"tau1": tau1_prerequisite_hierarchy, "tau3": tau3_courses_without_db_prereq}


class Oracle:
    def __init__(self, bases: dict, deltas: dict) -> None:
        self._plans = {name: compile_plan(factory()) for name, factory in _VIEWS.items()}
        self._deltas = deltas
        self._versions = {ns: [instance] for ns, instance in bases.items()}
        self._documents: dict[tuple, str] = {}

    def instance(self, ns: str, version: int):
        chain = self._versions[ns]
        while len(chain) <= version:
            chain.append(chain[-1].apply_delta(self._deltas[ns][len(chain) - 1]))
        return chain[version]

    def document(self, ns: str, view: str, version: int, indent) -> str:
        key = (ns, view, version, indent)
        if key not in self._documents:
            self._documents[key] = self._plans[view].publish_bytes(
                self.instance(ns, version), indent=indent
            )
        return self._documents[key]

    def digest(self, ns: str, view: str, version: int, indent) -> str:
        return hashlib.sha256(self.document(ns, view, version, indent).encode("utf-8")).hexdigest()

    def check_bodies(self, bodies: dict) -> list[str]:
        """Every 200 body must hash to the oracle document of its version."""
        problems = []
        for key in sorted(bodies, key=repr):
            expected = self.digest(*key)
            if bodies[key] != {expected}:
                ns, view, version, indent = key
                problems.append(
                    f"{ns}/{view} v{version} indent={indent}: "
                    f"{len(bodies[key] - {expected})} body hash(es) differ from the oracle"
                )
        return problems

    def check_subscription(self, ns: str, init: dict, frames: list, last: int) -> list[str]:
        """Replay the edit scripts onto ``init``; compare with the oracle at ``last``."""
        versions = [message["version"] for _, message in frames]
        expected = list(range(init["version"] + 1, last + 1))
        if versions != expected:
            return [f"{ns}/tau3 subscription: versions {versions[:5]}... != {expected[:5]}..."]
        tree = tree_from_wire(init["document"])
        for _, message in frames:
            tree = edits_of(message).apply(tree)
        if to_xml(tree, indent=2) != self.document(ns, "tau3", last, 2):
            return [f"{ns}/tau3 subscription: replayed document differs from the oracle at v{last}"]
        return []

