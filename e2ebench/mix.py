"""Workload definitions and their seeded inputs.

A workload is a list of *phases* run back to back inside the timed window;
each phase runs its *streams* concurrently:

* a read stream: open-loop ``GET .../publish`` traffic against one tenant,
  a share of it conditional (``If-None-Match``) so it answers 304;
* a pair stream: open-loop commit-then-publish pairs against one durable
  tenant -- ``POST .../commit`` of a single-tuple delta, then the first
  ``GET`` of the version it created;
* a WebSocket subscriber on the pair tenant's tau3, which receives one
  ``edits`` frame per commit.

Every workload carries all three request classes, so every end-to-end
metric is measured on every workload.  Where a class would disturb the
class a workload exists for, it runs in a phase of its own (the *probe*
phase) instead of concurrently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.relational.delta import Delta
from repro.relational.wire import canonical_json
from repro.workloads.registrar import generate_registrar_instance

#: Latency limits per request class, in milliseconds (``slo_share``).
SLO_MS = {"read": 10.0, "commit": 50.0, "fresh": 250.0, "delivery": 250.0}

#: Commits between two ``prune`` calls of the pair stream, and how many
#: versions each prune keeps.  Together with alternating insert/delete this
#: keeps instance size and the retained versions independent of run length.
#: It does not bound the WAL's bytes within a run: the open segment is never
#: removed and rolls only every 256 records.  Each prune also writes an
#: fsynced snapshot of the whole instance, which the next commit waits on.
PRUNE_EVERY = 16
PRUNE_KEEP = 8

SOURCE = "db"


@dataclass(frozen=True)
class Tenant:
    namespace: str
    courses: int
    durable: bool


@dataclass(frozen=True)
class ReadSpec:
    tenant: Tenant
    rate: float  # requests per second (Poisson arrivals)
    conditional: float  # share sent with If-None-Match
    docs: tuple[tuple[str, int | None], ...]  # (view, indent) pairs read


@dataclass(frozen=True)
class PairSpec:
    tenant: Tenant
    rate: float  # commit-then-publish pairs per second (jittered period)


@dataclass(frozen=True)
class Phase:
    share: float  # share of the timed window
    reads: ReadSpec | None = None
    pairs: PairSpec | None = None


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in README.md and BENCHMARK.json."""

    name: str
    phases: tuple[Phase, ...]
    tenants: tuple[Tenant, ...]


_ALL_DOCS = (("tau1", 2), ("tau1", None), ("tau3", 2), ("tau3", None))


def _workloads() -> dict[str, Workload]:
    shop = Tenant("shop", 600, durable=False)
    main = Tenant("main", 300, durable=True)
    light = Tenant("light", 40, durable=False)
    heavy = Tenant("heavy", 200, durable=True)
    return {
        "cached_reads": Workload(
            "cached_reads",
            (
                Phase(0.5, reads=ReadSpec(shop, 300.0, 0.9, _ALL_DOCS)),
                # The commit_publish tenant and rate: on a small tenant these
                # classes take a few ms, and host noise swamps them.
                Phase(0.5, pairs=PairSpec(main, 8.0)),
            ),
            (shop, main),
        ),
        "commit_publish": Workload(
            "commit_publish",
            (
                Phase(0.85, pairs=PairSpec(main, 8.0)),
                Phase(0.15, reads=ReadSpec(light, 300.0, 1.0, (("tau3", 2),))),
            ),
            (main, light),
        ),
        "noisy_neighbor": Workload(
            "noisy_neighbor",
            (
                Phase(
                    1.0,
                    reads=ReadSpec(light, 100.0, 1.0, (("tau3", 2),)),
                    # Busy about a sixth of the time.  The light read median
                    # sits at the share of reads that wait behind a render;
                    # a slower host lengthens renders and raises that share,
                    # so a busier heavy tenant turns host noise into large
                    # swings of the read median.
                    pairs=PairSpec(heavy, 4.0),
                ),
            ),
            (heavy, light),
        ),
    }


WORKLOADS = _workloads()


# ---------------------------------------------------------------------------
# Seeded inputs.
# ---------------------------------------------------------------------------


def base_instance(tenant: Tenant):
    """The tenant's initial registrar (row form; attach encodes it).

    Fixed rather than drawn from the workload seed: the generator's
    hierarchies differ in size by 2x from one seed to the next, which
    would swamp run-to-run noise.  The seed drives arrivals, document
    choice and the delta stream instead.
    """
    return generate_registrar_instance(tenant.courses, seed=0)


def read_schedule(spec: ReadSpec, seconds: float, rng: random.Random):
    """``[(due offset, doc index, conditional)]`` with Poisson arrivals."""
    out = []
    at = rng.expovariate(spec.rate)
    while at < seconds:
        out.append((at, rng.randrange(len(spec.docs)), rng.random() < spec.conditional))
        at += rng.expovariate(spec.rate)
    return out


def pair_schedule(spec: PairSpec, seconds: float, rng: random.Random) -> list[float]:
    """Due offsets one period apart, each jittered by up to 10% of it."""
    period = 1.0 / spec.rate
    count = int(seconds * spec.rate)
    return [
        (index + 0.5) * period + rng.uniform(-0.1, 0.1) * period
        for index in range(count)
    ]


class DeltaFeed:
    """Single-tuple deltas that alternate insert and delete.

    Commit ``k`` touches ``course`` for ``k % 4 in (0, 1)`` and ``prereq``
    otherwise, inserting for even ``k`` and deleting for odd ``k``, so the
    instance size stays within one tuple of its start.  Each delta moves
    tau1 by one element: a course is inserted or deleted only while no
    prereq edge touches it, and an edge ``(x, c)`` is inserted or deleted
    only while nothing depends on ``x`` and ``c`` has no prerequisites, so
    ``x`` appears once and ``c`` is a leaf.  A delete never removes the
    tuple its relation's previous insert added, so no version's content
    repeats an earlier one (the engine would answer it from a cache).
    ``deltas[i]`` is the delta that creates version ``i + 1``.
    """

    def __init__(self, instance, rng: random.Random) -> None:
        self._rng = rng
        self._courses = {row[0]: row for row in instance["course"]}
        self._prereqs = set(instance["prereq"])
        self._needs = {cno: 0 for cno in self._courses}  # edges (cno, *)
        self._needed = {cno: 0 for cno in self._courses}  # edges (*, cno)
        for cno, prereq in self._prereqs:
            self._needs[cno] = self._needs.get(cno, 0) + 1
            self._needed[prereq] = self._needed.get(prereq, 0) + 1
        self._inserted = {"course": None, "prereq": None}  # the latest insert
        self.deltas: list[Delta] = []

    def extend(self, count: int) -> None:
        for _ in range(count):
            self.deltas.append(self._next(len(self.deltas)))

    def _pick(self, candidates):
        return self._rng.choice(sorted(candidates))

    def _next(self, k: int) -> Delta:
        insert = k % 2 == 0
        if k % 4 in (0, 1):
            if insert:
                cno = f"n{k:06d}"
                dept = "CS" if self._rng.random() < 0.7 else "Math"
                row = self._courses[cno] = (cno, f"New course {k}", dept)
                self._needs[cno] = self._needed[cno] = 0
                self._inserted["course"] = cno
                return Delta.insert("course", row)
            cno = self._pick(
                c for c in self._courses
                if not self._needs[c] and not self._needed[c] and c != self._inserted["course"]
            )
            del self._needs[cno], self._needed[cno]
            return Delta.delete("course", self._courses.pop(cno))
        if insert:
            tops = sorted(c for c in self._courses if not self._needed[c])
            leaves = sorted(c for c in self._courses if not self._needs[c])
            while True:
                edge = (self._rng.choice(tops), self._rng.choice(leaves))
                if edge[0] != edge[1] and edge not in self._prereqs:
                    break
            self._prereqs.add(edge)
            self._inserted["prereq"] = edge
        else:
            edge = self._pick(
                (x, c) for x, c in self._prereqs
                if x in self._courses and c in self._courses
                and not self._needed[x] and self._needs[c] == 0
                and (x, c) != self._inserted["prereq"]
            )
            self._prereqs.discard(edge)
        step = 1 if insert else -1
        self._needs[edge[0]] += step
        self._needed[edge[1]] += step
        return (Delta.insert if insert else Delta.delete)("prereq", edge)


def wire_body(delta: Delta) -> bytes:
    return canonical_json(delta.to_wire()).encode("utf-8")
